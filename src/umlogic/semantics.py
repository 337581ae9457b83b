"""Truth evaluation over models: graded interior/closure and degree queries.

The box modality of grade g denotes the graded interior I_g (truth across
the whole closed g-ball), the diamond the graded closure C_g (truth
somewhere in the ball).  Point sets travel as bitmasks internally; the
public functions speak in point-name sets.  Both operators work per
distinct ball of the grade, not per world: every centre of a ball sees
the same ball, so a ball inside (or meeting) the set adds all its centres
at once, and an evaluation costs one step per ball of
:meth:`UltrametricSpace.ball_partition`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .formula import And, Atom, Box, Formula, Not, desugar
from .space import Model, UltrametricSpace


def interior_mask(space: UltrametricSpace, mask: int, eps: Fraction) -> int:
    """Bitmask of points whose whole closed eps-ball lies inside ``mask``."""
    result = 0
    for ball, centres in space.ball_partition(eps):
        if ball & mask == ball:
            result |= centres
    return result


def closure_mask(space: UltrametricSpace, mask: int, eps: Fraction) -> int:
    """Bitmask of points whose closed eps-ball meets ``mask``."""
    result = 0
    for ball, centres in space.ball_partition(eps):
        if ball & mask:
            result |= centres
    return result


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
    """Truth set of ``f`` as a bitmask over the model's point order.

    Evaluation desugars first, then runs bottom-up with one memoized mask
    per distinct subformula.
    """
    space = model.space
    full = space.full_mask
    memo: dict[Formula, int] = {}

    def eval_core(g: Formula) -> int:
        cached = memo.get(g)
        if cached is not None:
            return cached
        if isinstance(g, Atom):
            result = model.atom_mask(g.name)
        elif isinstance(g, Not):
            result = full ^ eval_core(g.sub)
        elif isinstance(g, And):
            result = eval_core(g.left) & eval_core(g.right)
        elif isinstance(g, Box):
            result = interior_mask(space, eval_core(g.sub), g.grade)
        else:
            raise TypeError(f"not a core formula: {g!r}")
        memo[g] = result
        return result

    return eval_core(desugar(f))


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
