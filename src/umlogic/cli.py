"""Command-line interface.

Exit codes are uniform across commands: 0 for an affirmative verdict (or
plain success for data-producing commands), 1 for a negative verdict,
2 for an operational error (bad files, parse errors, enumeration cap).
All structured output is JSON with sorted keys and exact rationals as
strings, so identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
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


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _grade_str(value: Fraction | None) -> str:
    return "none" if value is None else str(value)


def _degree_dict(report) -> dict:
    payload = {
        "kind": report.kind,
        "threshold": _grade_str(report.threshold),
        "attained": report.attained,
    }
    if report.kind == "plausibility":
        payload["level"] = _grade_str(report.level)
    return payload


def _cmd_check(args) -> int:
    model = load_model(args.model)
    outcome = holds(model, args.world, parse(args.formula))
    _write(_dumps({"holds": outcome}), args.out)
    return 0 if outcome else 1


def _cmd_truthset(args) -> int:
    model = load_model(args.model)
    result = truthset(model, parse(args.formula))
    _write(_dumps({"formula": format_formula(result.formula), "points": sorted(result.points)}), args.out)
    return 0


def _cmd_stability(args) -> int:
    model = load_model(args.model)
    report = stability_degree(model, args.world, parse(args.formula))
    _write(_dumps(_degree_dict(report)), args.out)
    return 0


def _cmd_plausibility(args) -> int:
    model = load_model(args.model)
    report = plausibility_degree(model, args.world, parse(args.formula))
    _write(_dumps(_degree_dict(report)), args.out)
    return 0


def _cmd_cantor(args) -> int:
    sequences = cantor_sequences(args.depth)
    names = [f"w{i}" for i in range(len(sequences))]
    valuation = parse_valuation(read_json(args.valuation), names) if args.valuation else {}
    payload = {
        "points": names,
        "distance": {"sequences": dict(zip(names, sequences))},
        "valuation": {atom: sorted(set(members)) for atom, members in valuation.items()},
    }
    _write(_dumps(payload), args.out)
    return 0


def _cmd_valid(args) -> int:
    model = load_model(args.model)
    result = valid_in_model(model.space, parse(args.formula), cap=args.cap)
    payload = {"valid": result.valid, "valuations_checked": result.valuations_checked}
    if result.witness is not None:
        payload["witness"] = {
            "valuation": {a: sorted(s) for a, s in result.witness.valuation.items()},
            "world": result.witness.world,
        }
    _write(_dumps(payload), args.out)
    return 0 if result.valid else 1


def _cmd_axiom(args) -> int:
    matches = match_axiom(parse(args.formula))
    payload = {
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
    }
    _write(_dumps(payload), args.out)
    return 0 if matches else 1


def _cmd_prove(args) -> int:
    verdict = check_proof(load_proof(args.proof))
    _write(_dumps(verdict_to_dict(verdict)), args.out)
    return 0 if verdict.accepted else 1


def _cmd_union(args) -> int:
    models = [load_model(path) for path in args.model]
    _write(dump_model(disjoint_union(models)), args.out)
    return 0


def _cmd_subspace(args) -> int:
    model = load_model(args.model)
    _write(dump_model(epsilon_subspace(model, args.world, as_grade(args.grade))), args.out)
    return 0


def _cmd_morphism(args) -> int:
    src = load_model(args.model[0])
    tgt = load_model(args.model[1])
    pm = load_point_map(args.map)
    if args.bilipschitz:
        report = bilipschitz_bounds(src.space, tgt.space, pm)
        try:
            tightest = _grade_str(report.tightest_k)
        except ValueError:
            # Only the interpreter's limit on the digits of integer text stops str().
            raise ValueError(f"tightest_k has more than {sys.get_int_max_str_digits()} digits, "
                             "the limit for printing an integer") from None
        payload = {
            "ok": report.ok,
            "reason": report.reason,
            "tightest_k": tightest,
            "satisfied_by_supplied_k": report.satisfied_by_supplied_k,
        }
        _write(_dumps(payload), args.out)
        return 0 if report.ok else 1
    if args.frame:
        check = check_frame_morphism(src.space, tgt.space, pm)
    else:
        check = check_bounded_morphism(src, tgt, pm)
    payload = {
        "ok": check.ok,
        "k": str(check.k),
        "failures": check.failures(),
    }
    _write(_dumps(payload), args.out)
    return 0 if check.ok else 1


def _cmd_harness(args) -> int:
    config = HarnessConfig(
        seed=args.seed,
        samples=args.samples,
        formula_depth=args.depth,
        component_points=args.points,
    )
    report = preservation_harness(config)
    _write(_dumps(report_to_dict(report)), args.out)
    return 0 if report.ok else 1


def _cmd_dot(args) -> int:
    model = load_model(args.model)
    _write(dendrogram_dot(model.space), args.out)
    return 0


def _cmd_validate_model(args) -> int:
    model = load_model(args.model, validate=False)
    violations = validate_space(model.space)
    payload = {
        "valid": not violations,
        "violations": [
            {"condition": v.condition, "witness": list(v.witness), "detail": v.detail}
            for v in violations
        ],
    }
    _write(_dumps(payload), args.out)
    return 0 if not violations else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="umlogic",
        description="Graded modal logic of stability over finite ultrametric spaces.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("check", _cmd_check, "does a formula hold at a world")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--world", required=True)

    p = add("truthset", _cmd_truthset, "all worlds where a formula holds")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)

    for name, func in (("stability", _cmd_stability), ("plausibility", _cmd_plausibility)):
        p = add(name, func, f"{name} degree of a formula at a world")
        p.add_argument("--model", required=True)
        p.add_argument("--formula", required=True)
        p.add_argument("--world", required=True)

    p = add("cantor", _cmd_cantor, "emit a depth-n binary-history model")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--valuation", help="JSON file mapping atoms to point arrays")

    p = add("valid", _cmd_valid, "validity under every valuation of the formula's atoms")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = add("axiom", _cmd_axiom, "which axiom schemas a formula instantiates")
    p.add_argument("--formula", required=True)

    p = add("prove", _cmd_prove, "check a derivation file")
    p.add_argument("--proof", required=True)

    p = add("union", _cmd_union, "disjoint union of model files")
    p.add_argument("--model", action="append", required=True, help="repeat for each component")

    for name in ("ball", "subspace"):
        p = add(name, _cmd_subspace, "model restricted to the closed ball around a world")
        p.add_argument("--model", required=True)
        p.add_argument("--world", required=True)
        p.add_argument("--grade", required=True)

    p = add("morphism", _cmd_morphism, "check a point map between two models")
    p.add_argument("--model", action="append", required=True, help="source then target")
    p.add_argument("--map", required=True, help='JSON file {"k": "1", "map": {...}}')
    p.add_argument("--frame", action="store_true", help="skip the atom-agreement condition")
    p.add_argument("--bilipschitz", action="store_true", help="two-sided bounds of a bijection")

    p = add("harness", _cmd_harness, "seeded preservation checks")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--points", type=int, default=4)

    p = add("dot", _cmd_dot, "ball-nesting dendrogram as DOT")
    p.add_argument("--model", required=True)

    p = add("validate-model", _cmd_validate_model, "metric-law report for a model file")
    p.add_argument("--model", required=True)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on first use; parsing leaves it unchanged."""
    return build_parser()


#: The options parsed with ``type=int``.  Before Python 3.13, argparse reads
#: an explicit ``--opt=--`` as [] ([[]] when repeated) and calls no type.
_INT_OPTIONS = ("cap", "depth", "points", "samples", "seed")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    for name, value in vars(args).items():  # give ``--opt=--`` its value "--"
        if value == [] and name in _INT_OPTIONS:
            args.parser.error(f"argument --{name}: invalid int value: '--'")
        if isinstance(value, list):
            setattr(args, name, "--" if value == [] else ["--" if v == [] else v for v in value])
    if args.command == "morphism" and len(args.model) != 2:
        print(json.dumps({"error": "morphism needs exactly two --model arguments"}), file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except _ERRORS as exc:
        # A MemoryError usually carries no message; name the error instead.
        print(json.dumps({"error": str(exc) or type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
