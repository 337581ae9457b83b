"""Axiom schemas of the stability logic: recognition and instantiation.

The system has eight schemas.  K, T and the necessitation/modus-ponens
rules give a normal graded modal logic; TI (grade composition via max),
UM1-UM4 and the box/diamond duality D pin down the ultrametric reading of
the grades.  Biconditional schemas (TI, D) are the conjunction of both
implications; each direction is also recognised on its own under the
names ``TI-ltr``/``TI-rtl`` and ``D-ltr``/``D-rtl``.

Matching is syntactic up to desugaring: a diamond and its unfolding
``~[g]~`` are the same formula to the matcher.  A formula is matched as
it is written against its schema's template as the schema is written.
Where template and formula have nodes of one kind, their children are
matched; where they differ and one of them is sugar (``|``, ``->`` or a
diamond), that node alone is unfolded one level, so a formula spelled as
its schema is desugared nowhere.  A formula metavariable binds the
subformula as written, and a repeated one is compared up to desugaring.
:func:`match_axiom` reports formula bindings in desugared form.  Given
bindings seed the match (:func:`is_instance`), so checking a bound
proof line builds no instance of the schema.

The connectives are declared in :mod:`umlogic.formula`: which are binary
(:data:`~umlogic.formula.BINARY`) or prefix
(:data:`~umlogic.formula.PREFIX`), which are sugar and how each unfolds
(:func:`~umlogic.formula.unfold`), and how a node is rebuilt over new
children (:func:`~umlogic.formula.map_children`).  This module reads
them, and declares only what a template adds: the formula and grade
metavariables.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .formula import (
    BINARY,
    PREFIX,
    And,
    Box,
    Diamond,
    Formula,
    GradeError,
    Implies,
    Not,
    _GradeSlot,
    as_grade,
    desugar,
    SUGAR,
    desugared_equal,
    map_children,
    unfold,
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

#: The eight schema names proper (directional variants excluded).
SCHEMA_NAMES = ("K", "T", "UM1", "TI", "UM2", "UM3", "D", "UM4")


def _match_grade_slot(slot, grade: Fraction, bindings: dict, deferred: list) -> bool:
    if type(slot) is GradeVar:
        bound = bindings.get(slot.name)
        if bound is None:
            bindings[slot.name] = grade
            return True
        return bound is grade or bound == grade
    if type(slot) is GradeMaxOf:
        # The constituent grades may not be bound yet; settle after the
        # structural pass.
        deferred.append((slot, grade))
        return True
    return slot is grade or slot == grade


def _match(template: Formula, target: Formula, bindings: dict, deferred: list) -> bool:
    """Whether ``target`` instantiates ``template`` up to desugaring, both as written (module docstring)."""
    cls = type(template)
    if cls is FormulaVar:
        bound = bindings.get(template.name)
        if bound is None:
            bindings[template.name] = target
            return True
        return desugared_equal(bound, target)
    if cls is not type(target):
        # Sugar unfolds to a negation, so it can meet only a negation or other sugar.
        if (cls is Not or cls in SUGAR) and (type(target) is Not or type(target) in SUGAR):
            return _match(unfold(template), unfold(target), bindings, deferred)
        return False
    if cls is Not:
        return _match(template.sub, target.sub, bindings, deferred)
    if cls in PREFIX:
        return (
            _match_grade_slot(template.grade, target.grade, bindings, deferred)
            and _match(template.sub, target.sub, bindings, deferred)
        )
    if cls in BINARY:
        return (
            _match(template.left, target.left, bindings, deferred)
            and _match(template.right, target.right, bindings, deferred)
        )
    raise TypeError(f"unexpected template node: {template!r}")


def _instance(schema: Schema, target: Formula, bindings: dict) -> bool:
    """Whether ``target`` instantiates ``schema`` under ``bindings``, which the match extends."""
    deferred: list = []
    if not _match(schema.template, target, bindings, deferred):
        return False
    for slot, grade in deferred:
        a, b = bindings.get(slot.a), bindings.get(slot.b)
        if a is None or b is None or max(a, b) != grade:
            return False
    return schema.side_condition is None or schema.side_condition(bindings) is None


def match_axiom(f: Formula, name: str | None = None) -> list[tuple[str, dict]]:
    """Every (schema name, bindings) under which ``f`` is an axiom instance.

    Returns schemas in declaration order; side conditions (TI's max, UM3's
    gamma >= delta) are honored.  Formula bindings are reported in
    desugared form.  Given a ``name``, only that schema is tried, and an
    unknown name matches nothing.
    """
    schemas = SCHEMAS if name is None else [s for s in SCHEMAS if s.name == name]
    matches = []
    for schema in schemas:
        bindings: dict = {}
        if _instance(schema, f, bindings):
            matches.append((schema.name, {key: desugar(value) if isinstance(value, Formula) else value
                                          for key, value in bindings.items()}))
    return matches


def is_instance(name: str, f: Formula, bindings: Mapping | None = None) -> bool:
    """Whether ``f`` is an instance of schema ``name``, under ``bindings`` if given.

    The bindings seed the match, so no instance is built.  They must give
    every metavariable of the schema, a Formula for each formula
    metavariable and a Fraction for each grade; otherwise this is False,
    and :func:`instantiate_axiom` says what is wrong with them.  An
    unknown name is False too.
    """
    schema = _SCHEMA_BY_NAME.get(name)
    if schema is None:
        return False
    if bindings is None:
        return _instance(schema, f, {})
    if not (all(isinstance(bindings.get(var), Formula) for var in schema.formula_vars)
            and all(type(bindings.get(var)) is Fraction for var in schema.grade_vars)):
        return False
    return _instance(schema, f, dict(bindings))


def _substitute(template: Formula, bindings: Mapping) -> Formula:
    if type(template) is FormulaVar:
        return bindings[template.name]
    slot = getattr(template, "grade", None)
    if isinstance(slot, _GradeSlot):
        grade = bindings[slot.name] if type(slot) is GradeVar else max(bindings[slot.a], bindings[slot.b])
        return type(template)(grade, _substitute(template.sub, bindings))
    return map_children(template, lambda child: _substitute(child, bindings))


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
