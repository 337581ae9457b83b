"""Hilbert-style proof checking.

A proof is a numbered list of lines, each justified as a premise, an
axiom-schema instance, modus ponens from two earlier lines, or
necessitation of an earlier line at some grade.  Formulas are compared up
to desugaring, so a line may cite an implication written either as
``a -> b`` or ``~(a & ~b)``.  Each node caches its desugared form
(:func:`~umlogic.formula.desugar`), so a subformula that the lines of a
file share is desugared once for the whole check.  An axiom line is
matched as written against its schema as written, with its bindings, if
it has any, fixed before the match (:func:`~umlogic.axioms.is_instance`):
a node is desugared only where line and schema disagree, and no instance
is built.  Only a bound line that the match refuses builds its instance,
for the reason that names the expected formula.

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
for that one call, so nothing is kept between files.  An entry's errors
carry its place, ``entry i``, which is written only when one is raised.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .axioms import SchemaError, instantiate_axiom, is_instance
from .formula import Box, Formula, GradeError, Implies, desugared_equal, format_formula
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


def _check_axiom_step(line: ProofLine, step: AxiomStep) -> str | None:
    if is_instance(step.name, line.formula, step.bindings):
        return None
    if step.bindings is None:
        return f"formula is not an instance of schema {step.name}"
    # A line that fails builds its instance, to say why; so does one whose grades are bound
    # as text or ints, which instantiate_axiom reads.
    try:
        instance = instantiate_axiom(step.name, step.bindings)
    except SchemaError as exc:
        return str(exc)
    if not desugared_equal(instance, line.formula):
        return (
            f"formula is not the {step.name} instance under the given bindings "
            f"(expected {format_formula(instance)})"
        )
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
                if not desugared_equal(formulas[just.implication], expected):
                    problem = (
                        f"line {just.implication} is not the implication from "
                        f"line {just.antecedent} to this line"
                    )
                else:
                    tainted = premise_tainted[just.antecedent] or premise_tainted[just.implication]
        elif isinstance(just, Nec):
            problem = earlier(just.source)
            if problem is None:
                if not desugared_equal(line.formula, Box(just.grade, formulas[just.source])):
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


def _parse_bindings(raw, memo: dict) -> dict:
    if not isinstance(raw, dict):
        raise ProofFormatError('"bind" must be an object')
    bindings: dict = {}
    for key, value in raw.items():
        if not isinstance(value, str):
            raise ProofFormatError(f"binding {key!r} must be a string")
        try:
            if key in _FORMULA_KEYS:
                bindings[key] = parse(value, memo)
            elif key in _GRADE_KEYS:
                bindings[key] = parse_grade(value)
            else:
                raise ProofFormatError(f"unknown binding key {key!r}")
        except (ParseError, GradeError) as exc:
            raise ProofFormatError(f"binding {key!r}: {exc}") from None
    return bindings


def _line_number(text: str) -> bool:
    """Whether ``text`` is a line number: ASCII digits, maybe spaced (``isdecimal`` takes every script's)."""
    text = text.strip()
    return text.isascii() and text.isdecimal()


def _parse_justification(text, bind, memo: dict) -> Justification:
    if not isinstance(text, str):
        raise ProofFormatError('"by" must be a string')
    rule, colon, rest = text.partition(":")
    if colon:
        if rule == "axiom":
            return AxiomStep(rest, None if bind is None else _parse_bindings(bind, memo))
        if rule == "mp":
            parts = rest.split(",")
            if len(parts) != 2 or not (_line_number(parts[0]) and _line_number(parts[1])):
                raise ProofFormatError(f"malformed modus ponens justification {text!r}")
            return MP(int(parts[0]), int(parts[1]))
        if rule == "nec":
            parts = rest.split(":")
            if len(parts) != 2 or not _line_number(parts[0]):
                raise ProofFormatError(f"malformed necessitation justification {text!r}")
            try:
                grade = parse_grade(parts[1])
            except GradeError as exc:
                raise ProofFormatError(str(exc)) from None
            return Nec(int(parts[0]), grade)
    elif text == "premise":
        return Premise()
    raise ProofFormatError(f"unknown justification {text!r}")


def _proof_line(entry, memo: dict) -> ProofLine:
    if not isinstance(entry, dict):
        raise ProofFormatError("proof lines must be objects")
    number = entry.get("n")
    if not isinstance(number, int) or isinstance(number, bool) or number < 1:
        raise ProofFormatError('"n" must be a positive integer')
    text = entry.get("formula")
    if not isinstance(text, str):
        raise ProofFormatError('"formula" must be a string')
    try:
        formula = parse(text, memo)
    except ParseError as exc:
        raise ProofFormatError(str(exc)) from None
    return ProofLine(number, formula, _parse_justification(entry.get("by"), entry.get("bind"), memo))


def proof_from_json(data) -> Proof:
    """Parse the JSON array form of a proof, each repeated span once (module docstring).

    An entry's errors are raised without its place, which is prefixed
    here, so the ``entry i`` text is built only for an error.
    """
    if not isinstance(data, list):
        raise ProofFormatError("proof file must be a JSON array of line objects")
    memo: dict = {}
    lines = []
    try:
        for entry in data:
            lines.append(_proof_line(entry, memo))
    except ProofFormatError as exc:
        # The entry that failed is the one after the lines read.
        raise ProofFormatError(f"entry {len(lines)}: {exc}") from None
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
