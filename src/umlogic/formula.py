"""Formula AST and exact grade arithmetic for the graded modal language.

A formula is built from atoms, negation, conjunction and the graded
modalities ``[g]`` (box) and ``<g>`` (diamond); disjunction, implication
and diamond are definitional sugar that :func:`desugar` eliminates.
Grades are exact rationals in [0, 1], kept as :class:`fractions.Fraction`
so that comparisons against distances never involve rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .space import read_rational


class GradeError(ValueError):
    """Raised for grade values outside [0, 1] or unreadable grade text."""


def as_grade(value: int | str | Fraction) -> Fraction:
    """Convert ``value`` to an exact grade in [0, 1].

    Reads ``value`` with :func:`~umlogic.space.read_rational`: Fractions,
    ints, and strings in either ``"p/q"`` or finite decimal form
    (``"0.125"``).  Floats, bools, exponent notation and other values are
    unreadable and raise :class:`GradeError`, as do grades outside [0, 1].
    """
    try:
        grade = read_rational(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise GradeError(f"unreadable grade {value!r}") from exc
    if not 0 <= grade <= 1:
        raise GradeError(f"grade {grade} outside [0, 1]")
    return grade


class Formula:
    """Base class for formulas; instances are immutable and hashable.

    A node computes its hash once, from its children's cached hashes, so
    hashing a formula costs one step per node however often it is looked
    up.  The evaluator caches a second attribute, ``_program``: the
    formula compiled once into the slot program it runs
    (:func:`umlogic.semantics.evaluate`).  :func:`desugar` caches a third,
    ``_desugared``, on every node but an atom or another leaf, which
    desugars to itself and stores nothing, so no node refers to itself.
    A subformula shared by many formulas, as a proof's parser memo shares
    them, is then desugared once.  String hashes are seeded per process,
    so the hash is left out of pickles and copies, and the program and
    the desugared form with it: a copy rebuilds them on first use.
    """

    _hash: int | None = None
    _program: tuple | None = None
    _desugared: Formula | None = None

    def __str__(self) -> str:
        return format_formula(self)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # __match_args__ names the dataclass fields, in order.
            h = hash(tuple(getattr(self, name) for name in self.__match_args__))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_program", None)
        state.pop("_desugared", None)
        return state


def _node(cls):
    """A frozen dataclass node that keeps :meth:`Formula.__hash__`."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Atom(Formula):
    name: str


@_node
class Not(Formula):
    sub: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


class _GradeSlot:
    """Base of the grade metavariables that axiom-schema templates put in a grade slot."""


class _Graded(Formula):
    """Shared grade validation for Box and Diamond."""

    def __post_init__(self):
        grade = self.grade
        # Parsed formulas hold Fractions; a normalised denominator is
        # positive, so comparing the numerator with it is 0 <= grade <= 1
        # without the `numbers` dispatch.
        if type(grade) is Fraction:
            if not 0 <= grade.numerator <= grade.denominator:
                raise GradeError(f"grade {grade} outside [0, 1]")
        elif not isinstance(grade, _GradeSlot):
            object.__setattr__(self, "grade", as_grade(grade))


@_node
class Box(_Graded):
    grade: Fraction
    sub: Formula


@_node
class Diamond(_Graded):
    grade: Fraction
    sub: Formula


#: Each binary connective's symbol and binding strength, declared once for
#: the printer and the parser: a stronger connective binds tighter, and the
#: prefix operators (``~``, ``[g]``, ``<g>``) bind tighter than all of them.
#: ``->`` groups to the right, ``|`` and ``&`` to the left.
BINARY = {Implies: ("->", 1), Or: ("|", 2), And: ("&", 3)}
_PREFIX = 4


def _wrap(f: Formula, minimum: int) -> str:
    text = format_formula(f)
    if BINARY.get(type(f), ("", _PREFIX))[1] < minimum:
        return f"({text})"
    return text


def format_formula(f: Formula) -> str:
    """Render ``f`` as canonical concrete syntax.

    Grades print as exact fractions and parentheses are inserted only
    where precedence requires them, so ``parse(format_formula(f))`` is
    structurally equal to ``f``.
    """
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _wrap(f.sub, _PREFIX)
    if isinstance(f, Box):
        return f"[{f.grade}]" + _wrap(f.sub, _PREFIX)
    if isinstance(f, Diamond):
        return f"<{f.grade}>" + _wrap(f.sub, _PREFIX)
    if type(f) in BINARY:
        symbol, binds = BINARY[type(f)]
        # The operand on the side a connective does not group to needs
        # parentheses around a connective of the same strength too.
        left, right = (binds + 1, binds) if type(f) is Implies else (binds, binds + 1)
        return f"{_wrap(f.left, left)} {symbol} {_wrap(f.right, right)}"
    raise TypeError(f"not a formula: {f!r}")


def desugar(f: Formula) -> Formula:
    """Rewrite ``f`` so only atoms, ~, & and box remain.

    Or(a, b) becomes ~(~a & ~b), Implies(a, b) becomes ~(a & ~b), and
    Diamond(g, a) becomes ~[g]~a.  The result is logically equivalent to
    ``f`` in every model.  It is cached on ``f`` as ``_desugared``, and
    it is a new node for every node but a leaf, which is its own result
    and caches nothing.
    """
    result = f._desugared
    if result is not None:
        return result
    if isinstance(f, Not):
        result = Not(desugar(f.sub))
    elif isinstance(f, And):
        result = And(desugar(f.left), desugar(f.right))
    elif isinstance(f, Or):
        result = Not(And(Not(desugar(f.left)), Not(desugar(f.right))))
    elif isinstance(f, Implies):
        result = Not(And(desugar(f.left), Not(desugar(f.right))))
    elif isinstance(f, Box):
        result = Box(f.grade, desugar(f.sub))
    elif isinstance(f, Diamond):
        result = Not(Box(f.grade, Not(desugar(f.sub))))
    else:
        return f
    object.__setattr__(f, "_desugared", result)
    return result


#: The node kinds that :func:`desugar` rewrites; :func:`unfold` turns each into a negation.
SUGAR = (Or, Implies, Diamond)


def unfold(f: Formula) -> Formula:
    """One step of :func:`desugar`: a sugar node rewritten into ~, & and box over its children as they are.

    Any other node is returned as it is.  ``desugar(unfold(f))`` is
    ``desugar(f)``, so a matcher can unfold a node only where it must.
    """
    cls = type(f)
    if cls is Or:
        return Not(And(Not(f.left), Not(f.right)))
    if cls is Implies:
        return Not(And(f.left, Not(f.right)))
    if cls is Diamond:
        return Not(Box(f.grade, Not(f.sub)))
    return f


def desugared_equal(a: Formula, b: Formula) -> bool:
    """Whether ``a`` and ``b`` desugar alike.  Equal formulas do, so they are not desugared."""
    return a == b or desugar(a) == desugar(b)


def subformulas(f: Formula) -> list[Formula]:
    """All subterms of ``f``, each listed once, children before parents."""
    seen: dict[Formula, None] = {}
    _walk(f, seen)
    return list(seen)


def _walk(g: Formula, seen: dict[Formula, None]) -> None:
    """Add the subterms of ``g`` not yet in ``seen``, left before right, children first.

    A module-level function, not a closure over ``seen``: a self-recursive
    closure is a reference cycle, left for the collector on every call.
    """
    if g in seen:
        return
    if isinstance(g, (Not, Box, Diamond)):
        _walk(g.sub, seen)
    elif isinstance(g, (And, Or, Implies)):
        _walk(g.left, seen)
        _walk(g.right, seen)
    seen[g] = None


def grade_set(f: Formula) -> set[Fraction]:
    """The grades occurring in modalities of ``f``."""
    grades: set[Fraction] = set()
    for g in subformulas(f):
        if isinstance(g, (Box, Diamond)):
            grades.add(g.grade)
    return grades


def atoms(f: Formula) -> set[str]:
    """Names of the propositional atoms occurring in ``f``."""
    return {g.name for g in subformulas(f) if isinstance(g, Atom)}
