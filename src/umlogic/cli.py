"""Command-line interface.

Every command is one row of :data:`_COMMANDS`: its name, its handler, its
help text, the options it requires, and any other options with their
argparse settings.  :func:`build_parser` builds each subparser from its
row, in the table's order.  A handler reads the parsed arguments and
returns its payload and exit code; it writes nothing.  :func:`main` runs
the handler and writes the payload (JSON through :func:`_dumps`, DOT and
model text as they are) to stdout or ``--out``.

Exit codes are uniform across commands, and :func:`main` owns them: 0
for an affirmative verdict (or plain success for data-producing
commands), 1 for a negative verdict, 2 for an operational error (bad
files, parse errors, enumeration cap, an unwritable ``--out``), which is
reported as one JSON ``{"error": ...}`` line on stderr.  All structured
output is JSON with sorted keys and exact rationals as strings, so
identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .axioms import match_axiom
from .constructions import (
    bilipschitz_bounds,
    check_bounded_morphism,
    check_frame_morphism,
    disjoint_union,
    epsilon_subspace,
    load_point_map,
)
from .dendrogram import dendrogram_dot
from .formula import as_grade, format_formula
from .harness import HarnessConfig, preservation_harness, report_to_dict
from .modelio import dump_model, load_model, parse_valuation, read_json
from .parser import parse
from .proofs import check_proof, load_proof, verdict_to_dict
from .semantics import holds, plausibility_degree, stability_degree, truthset
from .space import UnknownPointError, cantor_sequences, validate_space
from .validity import DEFAULT_CAP, EnumerationCapExceeded, valid_in_model

# Every library error for bad input is a ValueError, except the two named after it.
_ERRORS = (ValueError, UnknownPointError, EnumerationCapExceeded, OSError, MemoryError)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _grade_str(value: Fraction | None) -> str:
    return "none" if value is None else str(value)


def _cmd_check(args):
    outcome = holds(load_model(args.model), args.world, parse(args.formula))
    return {"holds": outcome}, 0 if outcome else 1


def _cmd_truthset(args):
    result = truthset(load_model(args.model), parse(args.formula))
    return {"formula": format_formula(result.formula), "points": sorted(result.points)}, 0


def _cmd_degree(args):
    """``stability`` and ``plausibility``: the degree the command names."""
    degree = stability_degree if args.command == "stability" else plausibility_degree
    report = degree(load_model(args.model), args.world, parse(args.formula))
    payload = {
        "kind": report.kind,
        "threshold": _grade_str(report.threshold),
        "attained": report.attained,
    }
    if report.kind == "plausibility":
        payload["level"] = _grade_str(report.level)
    return payload, 0


def _cmd_cantor(args):
    sequences = cantor_sequences(args.depth)
    names = [f"w{i}" for i in range(len(sequences))]
    valuation = parse_valuation(read_json(args.valuation), names) if args.valuation else {}
    return {
        "points": names,
        "distance": {"sequences": dict(zip(names, sequences))},
        "valuation": {atom: sorted(set(members)) for atom, members in valuation.items()},
    }, 0


def _cmd_valid(args):
    result = valid_in_model(load_model(args.model).space, parse(args.formula), cap=args.cap)
    payload = {"valid": result.valid, "valuations_checked": result.valuations_checked}
    if result.witness is not None:
        payload["witness"] = {
            "valuation": {a: sorted(s) for a, s in result.witness.valuation.items()},
            "world": result.witness.world,
        }
    return payload, 0 if result.valid else 1


def _cmd_axiom(args):
    matches = match_axiom(parse(args.formula))
    return {
        "matches": [
            {
                "schema": name,
                "bindings": {
                    key: str(value) if isinstance(value, Fraction) else format_formula(value)
                    for key, value in sorted(bindings.items())
                },
            }
            for name, bindings in matches
        ]
    }, 0 if matches else 1


def _cmd_prove(args):
    verdict = check_proof(load_proof(args.proof))
    return verdict_to_dict(verdict), 0 if verdict.accepted else 1


def _cmd_union(args):
    return dump_model(disjoint_union([load_model(path) for path in args.model])), 0


def _cmd_subspace(args):
    """``ball`` and ``subspace``: the model restricted to a closed ball."""
    return dump_model(epsilon_subspace(load_model(args.model), args.world, as_grade(args.grade))), 0


def _cmd_morphism(args):
    if len(args.model) != 2:
        raise ValueError("morphism needs exactly two --model arguments")
    src, tgt = map(load_model, args.model)
    pm = load_point_map(args.map)
    if args.bilipschitz:
        report = bilipschitz_bounds(src.space, tgt.space, pm)
        try:
            tightest = _grade_str(report.tightest_k)
        except ValueError:
            # Only the interpreter's limit on the digits of integer text stops str().
            raise ValueError(f"tightest_k has more than {sys.get_int_max_str_digits()} digits, "
                             "the limit for printing an integer") from None
        return {**asdict(report), "tightest_k": tightest}, 0 if report.ok else 1
    if args.frame:
        check = check_frame_morphism(src.space, tgt.space, pm)
    else:
        check = check_bounded_morphism(src, tgt, pm)
    return {
        "ok": check.ok,
        "k": str(check.k),
        "failures": check.failures(),
    }, 0 if check.ok else 1


def _cmd_harness(args):
    report = preservation_harness(HarnessConfig(
        seed=args.seed,
        samples=args.samples,
        formula_depth=args.depth,
        component_points=args.points,
    ))
    return report_to_dict(report), 0 if report.ok else 1


def _cmd_dot(args):
    return dendrogram_dot(load_model(args.model).space), 0


def _cmd_validate_model(args):
    violations = validate_space(load_model(args.model, validate=False).space)
    return {
        "valid": not violations,
        "violations": [asdict(v) for v in violations],
    }, 0 if not violations else 1


_QUERY = ("model", "formula", "world")

#: One row per command, in the order of the help: name, handler, help
#: text, the options it requires (each ``--name`` with no other setting),
#: and its other options with their argparse settings.  Every command
#: also takes ``--out``.
_COMMANDS = (
    ("check", _cmd_check, "does a formula hold at a world", _QUERY, {}),
    ("truthset", _cmd_truthset, "all worlds where a formula holds", ("model", "formula"), {}),
    ("stability", _cmd_degree, "stability degree of a formula at a world", _QUERY, {}),
    ("plausibility", _cmd_degree, "plausibility degree of a formula at a world", _QUERY, {}),
    ("cantor", _cmd_cantor, "emit a depth-n binary-history model", (), {
        "depth": {"type": int, "required": True},
        "valuation": {"help": "JSON file mapping atoms to point arrays"},
    }),
    ("valid", _cmd_valid, "validity under every valuation of the formula's atoms", ("model", "formula"), {
        "cap": {"type": int, "default": DEFAULT_CAP},
    }),
    ("axiom", _cmd_axiom, "which axiom schemas a formula instantiates", ("formula",), {}),
    ("prove", _cmd_prove, "check a derivation file", ("proof",), {}),
    ("union", _cmd_union, "disjoint union of model files", (), {
        "model": {"action": "append", "required": True, "help": "repeat for each component"},
    }),
    ("ball", _cmd_subspace, "model restricted to the closed ball around a world", ("model", "world", "grade"), {}),
    ("subspace", _cmd_subspace, "model restricted to the closed ball around a world", ("model", "world", "grade"), {}),
    ("morphism", _cmd_morphism, "check a point map between two models", (), {
        "model": {"action": "append", "required": True, "help": "source then target"},
        "map": {"required": True, "help": 'JSON file {"k": "1", "map": {...}}'},
        "frame": {"action": "store_true", "help": "skip the atom-agreement condition"},
        "bilipschitz": {"action": "store_true", "help": "two-sided bounds of a bijection"},
    }),
    ("harness", _cmd_harness, "seeded preservation checks", (), {
        "seed": {"type": int, "default": HarnessConfig.seed},
        "samples": {"type": int, "default": HarnessConfig.samples},
        "depth": {"type": int, "default": HarnessConfig.formula_depth},
        "points": {"type": int, "default": HarnessConfig.component_points},
    }),
    ("dot", _cmd_dot, "ball-nesting dendrogram as DOT", ("model",), {}),
    ("validate-model", _cmd_validate_model, "metric-law report for a model file", ("model",), {}),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="umlogic",
        description="Graded modal logic of stability over finite ultrametric spaces.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, func, help_text, required, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--out", help="write output to this file instead of stdout")
        for option, settings in (dict.fromkeys(required, {"required": True}) | options).items():
            p.add_argument(f"--{option}", **settings)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on first use; parsing leaves it unchanged."""
    return build_parser()


#: The options parsed with ``type=int``.  Before Python 3.13, argparse reads
#: an explicit ``--opt=--`` as [] ([[]] when repeated) and calls no type.
_INT_OPTIONS = frozenset(option for *_, options in _COMMANDS
                         for option, settings in options.items() if settings.get("type") is int)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    for name, value in vars(args).items():  # give ``--opt=--`` its value "--"
        if value == [] and name in _INT_OPTIONS:
            args.parser.error(f"argument --{name}: invalid int value: '--'")
        if isinstance(value, list):
            setattr(args, name, "--" if value == [] else ["--" if v == [] else v for v in value])
    try:
        payload, code = args.func(args)
        text = payload if isinstance(payload, str) else _dumps(payload)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except _ERRORS as exc:
        # A MemoryError usually carries no message; name the error instead.
        print(json.dumps({"error": str(exc) or type(exc).__name__}), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
