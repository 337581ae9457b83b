"""Axiom schemas of the stability logic: recognition and instantiation.

The system has eight schemas.  K, T and the necessitation/modus-ponens
rules give a normal graded modal logic; TI (grade composition via max),
UM1-UM4 and the box/diamond duality D pin down the ultrametric reading of
the grades.  Biconditional schemas (TI, D) are the conjunction of both
implications; each direction is also recognised on its own under the
names ``TI-ltr``/``TI-rtl`` and ``D-ltr``/``D-rtl``.

Matching is syntactic up to desugaring: a diamond and its unfolding
``~[g]~`` are the same formula to the matcher, so bindings returned for
formula metavariables are always in desugared form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    GradeError,
    Implies,
    Not,
    Or,
    _GradeSlot,
    as_grade,
    desugar,
)


class SchemaError(ValueError):
    """Unknown schema, missing metavariable, or failed side condition."""


@dataclass(frozen=True)
class FormulaVar(Formula):
    """Formula metavariable inside a schema template."""

    name: str


@dataclass(frozen=True)
class GradeVar(_GradeSlot):
    """Grade metavariable occupying a modality's grade slot."""

    name: str


@dataclass(frozen=True)
class GradeMaxOf(_GradeSlot):
    """Grade slot constrained to the max of two bound grade metavariables."""

    a: str
    b: str


@dataclass(frozen=True)
class Schema:
    name: str
    template: Formula
    formula_vars: tuple[str, ...]
    grade_vars: tuple[str, ...]
    side_condition: Callable[[dict], str | None] | None = None


_PHI = FormulaVar("phi")
_PSI = FormulaVar("psi")
_EPS = GradeVar("eps")
_GAMMA = GradeVar("gamma")
_DELTA = GradeVar("delta")
_GD_MAX = GradeMaxOf("gamma", "delta")


def _um3_side(bindings: dict) -> str | None:
    if bindings["gamma"] >= bindings["delta"]:
        return None
    return f"requires gamma >= delta, got {bindings['gamma']} < {bindings['delta']}"


_TI_LTR = Implies(Box(_GAMMA, Box(_DELTA, _PHI)), Box(_GD_MAX, _PHI))
_TI_RTL = Implies(Box(_GD_MAX, _PHI), Box(_GAMMA, Box(_DELTA, _PHI)))
_D_LTR = Implies(Diamond(_EPS, _PHI), Not(Box(_EPS, Not(_PHI))))
_D_RTL = Implies(Not(Box(_EPS, Not(_PHI))), Diamond(_EPS, _PHI))

SCHEMAS: tuple[Schema, ...] = (
    Schema("K", Implies(Box(_EPS, Implies(_PHI, _PSI)), Implies(Box(_EPS, _PHI), Box(_EPS, _PSI))),
           ("phi", "psi"), ("eps",)),
    Schema("T", Implies(Box(_EPS, _PHI), _PHI), ("phi",), ("eps",)),
    Schema("UM1", Implies(Box(_EPS, _PHI), Diamond(_EPS, _PHI)), ("phi",), ("eps",)),
    Schema("TI", And(_TI_LTR, _TI_RTL), ("phi",), ("gamma", "delta")),
    Schema("TI-ltr", _TI_LTR, ("phi",), ("gamma", "delta")),
    Schema("TI-rtl", _TI_RTL, ("phi",), ("gamma", "delta")),
    Schema("UM2", Implies(Diamond(_EPS, _PHI), Box(_EPS, Diamond(_EPS, _PHI))), ("phi",), ("eps",)),
    Schema("UM3", Implies(Box(_GAMMA, _PHI), Box(_DELTA, _PHI)), ("phi",), ("gamma", "delta"),
           side_condition=_um3_side),
    Schema("D", And(_D_LTR, _D_RTL), ("phi",), ("eps",)),
    Schema("D-ltr", _D_LTR, ("phi",), ("eps",)),
    Schema("D-rtl", _D_RTL, ("phi",), ("eps",)),
    Schema("UM4", Implies(_PHI, Box(_EPS, Diamond(_EPS, _PHI))), ("phi",), ("eps",)),
)

_SCHEMA_BY_NAME = {s.name: s for s in SCHEMAS}

# Templates in desugared form, for matching: (name, template, side condition).
_MATCH_TEMPLATES = tuple((s.name, desugar(s.template), s.side_condition) for s in SCHEMAS)
_MATCH_BY_NAME = {entry[0]: (entry,) for entry in _MATCH_TEMPLATES}

#: The eight schema names proper (directional variants excluded).
SCHEMA_NAMES = ("K", "T", "UM1", "TI", "UM2", "UM3", "D", "UM4")


def _match_grade_slot(slot, grade: Fraction, bindings: dict, deferred: list) -> bool:
    if isinstance(slot, GradeVar):
        bound = bindings.get(slot.name)
        if bound is None:
            bindings[slot.name] = grade
            return True
        return bound == grade
    if isinstance(slot, GradeMaxOf):
        # The constituent grades may not be bound yet; settle after the
        # structural pass.
        deferred.append((slot, grade))
        return True
    return slot == grade


def _match(template: Formula, target: Formula, bindings: dict, deferred: list) -> bool:
    if isinstance(template, FormulaVar):
        bound = bindings.get(template.name)
        if bound is None:
            bindings[template.name] = target
            return True
        return bound == target
    if isinstance(template, Atom):
        return template == target
    if isinstance(template, Not):
        return isinstance(target, Not) and _match(template.sub, target.sub, bindings, deferred)
    if isinstance(template, And):
        return (
            isinstance(target, And)
            and _match(template.left, target.left, bindings, deferred)
            and _match(template.right, target.right, bindings, deferred)
        )
    if isinstance(template, Box):
        return (
            isinstance(target, Box)
            and _match_grade_slot(template.grade, target.grade, bindings, deferred)
            and _match(template.sub, target.sub, bindings, deferred)
        )
    raise TypeError(f"unexpected template node: {template!r}")


def _match_schema(template: Formula, side_condition, target: Formula) -> dict | None:
    """Bindings under which the desugared ``target`` instantiates one template, or None."""
    bindings: dict = {}
    deferred: list = []
    if not _match(template, target, bindings, deferred):
        return None
    if any(
        bindings.get(slot.a) is None
        or bindings.get(slot.b) is None
        or max(bindings[slot.a], bindings[slot.b]) != grade
        for slot, grade in deferred
    ):
        return None
    if side_condition is not None and side_condition(bindings) is not None:
        return None
    return bindings


def match_axiom(f: Formula, name: str | None = None) -> list[tuple[str, dict]]:
    """Every (schema name, bindings) under which ``f`` is an axiom instance.

    Returns schemas in declaration order; side conditions (TI's max, UM3's
    gamma >= delta) are honored.  Formula bindings are reported in
    desugared form.  Given a ``name``, only that schema is tried, and an
    unknown name matches nothing.
    """
    target = desugar(f)
    templates = _MATCH_TEMPLATES if name is None else _MATCH_BY_NAME.get(name, ())
    matches = []
    for schema, template, side_condition in templates:
        bindings = _match_schema(template, side_condition, target)
        if bindings is not None:
            matches.append((schema, bindings))
    return matches


def _substitute(template: Formula, bindings: Mapping) -> Formula:
    if isinstance(template, FormulaVar):
        return bindings[template.name]
    if isinstance(template, Not):
        return Not(_substitute(template.sub, bindings))
    if isinstance(template, And):
        return And(_substitute(template.left, bindings), _substitute(template.right, bindings))
    if isinstance(template, Or):
        return Or(_substitute(template.left, bindings), _substitute(template.right, bindings))
    if isinstance(template, Implies):
        return Implies(_substitute(template.left, bindings), _substitute(template.right, bindings))
    if isinstance(template, (Box, Diamond)):
        slot = template.grade
        if isinstance(slot, GradeVar):
            grade = bindings[slot.name]
        elif isinstance(slot, GradeMaxOf):
            grade = max(bindings[slot.a], bindings[slot.b])
        else:
            grade = slot
        return type(template)(grade, _substitute(template.sub, bindings))
    return template


def instantiate_axiom(name: str, bindings: Mapping) -> Formula:
    """The concrete instance of schema ``name`` under ``bindings``.

    Grade bindings may be Fractions, ints, or strings like "1/8"; formula
    bindings must be Formula values.  Raises :class:`SchemaError` for an
    unknown schema, a missing metavariable, or a violated side condition.
    """
    schema = _SCHEMA_BY_NAME.get(name)
    if schema is None:
        raise SchemaError(f"unknown schema {name!r}")
    resolved: dict = {}
    for var in schema.formula_vars:
        value = bindings.get(var)
        if not isinstance(value, Formula):
            raise SchemaError(f"schema {name} needs a formula binding for {var!r}")
        resolved[var] = value
    for var in schema.grade_vars:
        if var not in bindings:
            raise SchemaError(f"schema {name} needs a grade binding for {var!r}")
        try:
            resolved[var] = as_grade(bindings[var])
        except GradeError as exc:
            raise SchemaError(f"schema {name}, grade {var!r}: {exc}") from None
    if schema.side_condition is not None:
        problem = schema.side_condition(resolved)
        if problem is not None:
            raise SchemaError(f"schema {name}: {problem}")
    return _substitute(schema.template, resolved)
