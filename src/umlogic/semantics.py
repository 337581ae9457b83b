"""Truth evaluation over models: graded interior/closure and degree queries.

The box modality of grade g denotes the graded interior I_g (truth across
the whole closed g-ball), the diamond the graded closure C_g (truth
somewhere in the ball).  Point sets travel as bitmasks internally; the
public functions speak in point-name sets.

One evaluator, :func:`evaluate`, serves every query.  It runs children
first over the subformulas of the formula as parsed, handling all seven
constructors directly, so nothing is desugared first: a box takes the
interior step and a diamond the closure step.  Both steps work per
distinct ball of the grade, not per world: every centre of a ball sees
the same ball, so a ball inside (or meeting) the set adds all its centres
at once, and a step costs one pass per ball of
:meth:`UltrametricSpace.ball_partition`.  The same code runs on one
Python-int mask (:func:`truth_mask`) and on a numpy batch of masks, one
per valuation (:func:`umlogic.validity.valid_in_model`), in the narrowest
unsigned type that holds n bits.  On a batch over n points with
2^n <= :data:`CHUNK`, a modal step is a function from the 2^n masks to
themselves, so it is tabulated once by the per-ball step
(:meth:`UltrametricSpace.step_table`) and applied as one lookup per mask.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .formula import And, Atom, Box, Diamond, Formula, Implies, Not, Or, subformulas
from .space import Model, UltrametricSpace

#: The most masks in one batch: validity evaluates its candidates CHUNK at
#: a time, and a batch takes modal steps by table only while the table,
#: 2^n masks, is no bigger than this.
CHUNK = 1 << 18


def _ball_step(space: UltrametricSpace, value, eps: Fraction, full, meets: bool):
    """Centres of the eps-balls inside ``value``, or meeting it when ``meets``.

    ``value`` is an int mask or a numpy batch of unsigned masks, and
    ``full`` the all-points mask of the same type.  ``full & ball`` is
    ``ball`` as that type: numpy compares a batch with a Python int much
    more slowly than with a scalar of the batch's own type.
    """
    result = value & 0
    for ball, centres in space.ball_partition(eps):
        ball = full & ball
        # ``value & ball`` gets no name: a batch temporary kept alive while
        # the next one is made sends numpy to fresh pages on every ball.
        hit = (value & ball != 0) if meets else (value & ball == ball)
        result |= hit * (full & centres)
    return result


def interior_mask(space: UltrametricSpace, mask: int, eps: Fraction) -> int:
    """Bitmask of points whose whole closed eps-ball lies inside ``mask``."""
    return _ball_step(space, mask, eps, space.full_mask, meets=False)


def closure_mask(space: UltrametricSpace, mask: int, eps: Fraction) -> int:
    """Bitmask of points whose closed eps-ball meets ``mask``."""
    return _ball_step(space, mask, eps, space.full_mask, meets=True)


def evaluate(space: UltrametricSpace, f: Formula, atom: Callable[[str], object], full):
    """Truth set of ``f`` over ``space``, children first, one value per distinct subformula.

    ``atom`` maps an atom name to its truth set and ``full`` is the set of
    all points: Python ints for one valuation, or a numpy batch of masks
    and ``full`` as a scalar of the batch's unsigned type for many at once.
    """
    lookup = isinstance(full, np.generic) and 1 << space.n <= CHUNK
    values: dict[Formula, object] = {}
    for g in subformulas(f):
        if isinstance(g, Atom):
            value = atom(g.name)
        elif isinstance(g, Not):
            value = full ^ values[g.sub]
        elif isinstance(g, And):
            value = values[g.left] & values[g.right]
        elif isinstance(g, Or):
            value = values[g.left] | values[g.right]
        elif isinstance(g, Implies):
            value = (full ^ values[g.left]) | values[g.right]
        elif isinstance(g, (Box, Diamond)):
            meets = isinstance(g, Diamond)
            if lookup:
                value = np.take(space.step_table(g.grade, meets, full.dtype, _ball_step), values[g.sub])
            else:
                value = _ball_step(space, values[g.sub], g.grade, full, meets)
        else:
            raise TypeError(f"not a formula: {g!r}")
        values[g] = value
    return values[f]


def interior_eps(space: UltrametricSpace, members: Iterable[str], eps: Fraction) -> frozenset[str]:
    """Points x with every y at distance <= eps inside the given set."""
    return space.names_of(interior_mask(space, space.mask_of(members), eps))


def closure_eps(space: UltrametricSpace, members: Iterable[str], eps: Fraction) -> frozenset[str]:
    """Points x with some member of the given set at distance <= eps."""
    return space.names_of(closure_mask(space, space.mask_of(members), eps))


@dataclass(frozen=True)
class TruthSet:
    formula: Formula
    points: frozenset[str]


def truth_mask(model: Model, f: Formula) -> int:
    """Truth set of ``f`` as a bitmask over the model's point order."""
    return evaluate(model.space, f, model.atom_mask, model.space.full_mask)


def truthset(model: Model, f: Formula) -> TruthSet:
    """The set of worlds where ``f`` holds."""
    return TruthSet(f, model.space.names_of(truth_mask(model, f)))


def holds(model: Model, world: str, f: Formula) -> bool:
    """Whether ``f`` holds at ``world``.  Raises UnknownPointError for bad worlds."""
    return bool(truth_mask(model, f) >> model.space.index(world) & 1)


@dataclass(frozen=True)
class DegreeReport:
    """Result of a stability or plausibility query at one world.

    For stability: the boxed formula holds at the world exactly for grades
    strictly below ``threshold`` (or for every grade when ``attained`` is
    true, which happens only when the formula holds everywhere).  A
    ``threshold`` of None means the formula fails at the world itself.

    For plausibility: the diamond formula holds exactly for grades at or
    above ``threshold`` (attained is always true), and ``level`` carries the
    complementary 1 - threshold scale; None means no world satisfies the
    formula at all.
    """

    kind: str
    threshold: Fraction | None
    attained: bool
    level: Fraction | None = None


def stability_degree(model: Model, world: str, f: Formula) -> DegreeReport:
    """How far circumstances can change before ``f`` stops holding at ``world``.

    The threshold is the distance to the nearest world falsifying ``f``;
    the box of grade g holds at the world iff g < threshold.
    """
    space = model.space
    wi = space.index(world)
    mask = truth_mask(model, f)
    if not mask >> wi & 1:
        return DegreeReport("stability", None, attained=False)
    if mask == space.full_mask:
        return DegreeReport("stability", Fraction(1), attained=True)
    return DegreeReport("stability", space.nearest(wi, space.full_mask ^ mask), attained=False)


def plausibility_degree(model: Model, world: str, f: Formula) -> DegreeReport:
    """How little circumstances must change for ``f`` to become true.

    The threshold is the distance to the nearest world satisfying ``f``;
    the diamond of grade g holds at the world iff g >= threshold.  The
    ``level`` field reports the inverted scale 1 - threshold.
    """
    space = model.space
    wi = space.index(world)
    mask = truth_mask(model, f)
    if mask == 0:
        return DegreeReport("plausibility", None, attained=False)
    threshold = space.nearest(wi, mask)
    return DegreeReport("plausibility", threshold, attained=True, level=1 - threshold)
