"""Hilbert-style proof checking.

A proof is a numbered list of lines, each justified as a premise, an
axiom-schema instance, modus ponens from two earlier lines, or
necessitation of an earlier line at some grade.  Formulas are compared up
to desugaring, so a line may cite an implication written either as
``a -> b`` or ``~(a & ~b)``.  Each node caches its desugared form
(:func:`~umlogic.formula.desugar`), so a subformula that the lines of a
file share is desugared once for the whole check.

The JSON wire format is an array of objects
``{"n": int, "formula": str, "by": str, "bind": {..}?}`` where ``by`` is
one of ``"premise"``, ``"axiom:NAME"``, ``"mp:i,j"`` (i the antecedent
line, j the implication line), or ``"nec:i:grade"``.

:func:`proof_from_json` parses every formula and binding text of one file
through one parser memo (see :mod:`umlogic.parser`), so each distinct
text, atom and prefix chain of the file is parsed once, and so is each
parenthesised group that the memo keeps (as many characters of group
text as the line has); a repeated group is skipped without tokenizing
it, and equal spans become one shared :class:`Formula`.  The memo lives
for that one call, so nothing is kept between files.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .axioms import SchemaError, instantiate_axiom, match_axiom
from .formula import Box, Formula, GradeError, Implies, desugar, format_formula
from .modelio import read_json
from .parser import ParseError, parse, parse_grade


class ProofFormatError(ValueError):
    """Structurally bad proof file or justification text."""


@dataclass(frozen=True)
class Premise:
    pass


@dataclass
class AxiomStep:
    name: str
    bindings: dict | None = None


@dataclass(frozen=True)
class MP:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class Nec:
    source: int
    grade: Fraction


Justification = Premise | AxiomStep | MP | Nec


@dataclass
class ProofLine:
    number: int
    formula: Formula
    justification: Justification


@dataclass
class Proof:
    lines: list[ProofLine]


@dataclass
class ProofVerdict:
    accepted: bool
    failed_line: int | None = None
    reason: str | None = None
    #: Accepted lines that do not depend on any premise.
    theorem_lines: tuple[int, ...] = ()


def _same(a: Formula, b: Formula) -> bool:
    """Equal up to desugaring.  Equal surface forms desugar alike, so they are not desugared."""
    return a == b or desugar(a) == desugar(b)


def _check_axiom_step(line: ProofLine, step: AxiomStep) -> str | None:
    if step.bindings is not None:
        try:
            instance = instantiate_axiom(step.name, step.bindings)
        except SchemaError as exc:
            return str(exc)
        if not _same(instance, line.formula):
            return (
                f"formula is not the {step.name} instance under the given bindings "
                f"(expected {format_formula(instance)})"
            )
        return None
    if not match_axiom(line.formula, step.name):
        return f"formula is not an instance of schema {step.name}"
    return None


def check_proof(proof: Proof) -> ProofVerdict:
    """Accept iff every line is a premise, an axiom instance, or follows by MP/Nec.

    Rejection pinpoints the first bad line.  Accepted proofs also report
    which lines are theorems (derived without touching any premise).
    """
    formulas: dict[int, Formula] = {}
    premise_tainted: dict[int, bool] = {}
    previous = 0

    def earlier(cited: int) -> str | None:
        if cited not in formulas:
            return f"cites line {cited}, which does not exist earlier in the proof"
        return None

    for line in proof.lines:
        if line.number <= previous:
            return ProofVerdict(False, line.number, "line numbers must be strictly increasing")
        just = line.justification
        problem: str | None = None
        tainted = False

        if isinstance(just, Premise):
            tainted = True
        elif isinstance(just, AxiomStep):
            problem = _check_axiom_step(line, just)
        elif isinstance(just, MP):
            problem = earlier(just.antecedent) or earlier(just.implication)
            if problem is None:
                expected = Implies(formulas[just.antecedent], line.formula)
                if not _same(formulas[just.implication], expected):
                    problem = (
                        f"line {just.implication} is not the implication from "
                        f"line {just.antecedent} to this line"
                    )
                else:
                    tainted = premise_tainted[just.antecedent] or premise_tainted[just.implication]
        elif isinstance(just, Nec):
            problem = earlier(just.source)
            if problem is None:
                if not _same(line.formula, Box(just.grade, formulas[just.source])):
                    problem = f"formula is not line {just.source} boxed at grade {just.grade}"
                else:
                    tainted = premise_tainted[just.source]
        else:
            raise ProofFormatError(f"unknown justification {just!r}")

        if problem is not None:
            return ProofVerdict(False, line.number, problem)
        formulas[line.number] = line.formula
        premise_tainted[line.number] = tainted
        previous = line.number

    theorems = tuple(n for n in formulas if not premise_tainted[n])
    return ProofVerdict(True, theorem_lines=theorems)


_GRADE_KEYS = ("eps", "gamma", "delta")
_FORMULA_KEYS = ("phi", "psi")


def _parse_bindings(raw, context: str, memo: dict) -> dict:
    if not isinstance(raw, dict):
        raise ProofFormatError(f'{context}: "bind" must be an object')
    bindings: dict = {}
    for key, value in raw.items():
        if not isinstance(value, str):
            raise ProofFormatError(f"{context}: binding {key!r} must be a string")
        try:
            if key in _FORMULA_KEYS:
                bindings[key] = parse(value, memo)
            elif key in _GRADE_KEYS:
                bindings[key] = parse_grade(value)
            else:
                raise ProofFormatError(f"{context}: unknown binding key {key!r}")
        except (ParseError, GradeError) as exc:
            raise ProofFormatError(f"{context}: binding {key!r}: {exc}") from None
    return bindings


def _line_number(text: str) -> bool:
    """Whether ``text`` is a line number: ASCII digits, maybe spaced (``isdecimal`` takes every script's)."""
    text = text.strip()
    return text.isascii() and text.isdecimal()


def _parse_justification(text, bind, context: str, memo: dict) -> Justification:
    if not isinstance(text, str):
        raise ProofFormatError(f'{context}: "by" must be a string')
    if text == "premise":
        return Premise()
    if text.startswith("axiom:"):
        name = text[len("axiom:"):]
        bindings = _parse_bindings(bind, context, memo) if bind is not None else None
        return AxiomStep(name, bindings)
    if text.startswith("mp:"):
        parts = text[len("mp:"):].split(",")
        if len(parts) != 2 or not all(_line_number(p) for p in parts):
            raise ProofFormatError(f"{context}: malformed modus ponens justification {text!r}")
        return MP(int(parts[0]), int(parts[1]))
    if text.startswith("nec:"):
        parts = text[len("nec:"):].split(":")
        if len(parts) != 2 or not _line_number(parts[0]):
            raise ProofFormatError(f"{context}: malformed necessitation justification {text!r}")
        try:
            grade = parse_grade(parts[1])
        except GradeError as exc:
            raise ProofFormatError(f"{context}: {exc}") from None
        return Nec(int(parts[0]), grade)
    raise ProofFormatError(f"{context}: unknown justification {text!r}")


def proof_from_json(data) -> Proof:
    """Parse the JSON array form of a proof, each repeated span once (module docstring)."""
    if not isinstance(data, list):
        raise ProofFormatError("proof file must be a JSON array of line objects")
    lines = []
    memo: dict = {}
    for i, entry in enumerate(data):
        context = f"entry {i}"
        if not isinstance(entry, dict):
            raise ProofFormatError(f"{context}: proof lines must be objects")
        number = entry.get("n")
        if not isinstance(number, int) or isinstance(number, bool) or number < 1:
            raise ProofFormatError(f'{context}: "n" must be a positive integer')
        text = entry.get("formula")
        if not isinstance(text, str):
            raise ProofFormatError(f'{context}: "formula" must be a string')
        try:
            formula = parse(text, memo)
        except ParseError as exc:
            raise ProofFormatError(f"{context}: {exc}") from None
        justification = _parse_justification(entry.get("by"), entry.get("bind"), context, memo)
        lines.append(ProofLine(number, formula, justification))
    return Proof(lines)


def load_proof(path: str | Path) -> Proof:
    return proof_from_json(read_json(path, ProofFormatError))


def verdict_to_dict(verdict: ProofVerdict) -> dict:
    return {
        "accepted": verdict.accepted,
        "failed_line": verdict.failed_line,
        "reason": verdict.reason,
        "theorems": list(verdict.theorem_lines),
    }
