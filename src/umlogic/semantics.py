"""Truth evaluation over models: graded interior/closure and degree queries.

The box modality of grade g denotes the graded interior I_g (truth across
the whole closed g-ball), the diamond the graded closure C_g (truth
somewhere in the ball).  Point sets travel as bitmasks in the space's
leaf order internally (:meth:`UltrametricSpace.mask_of`); the public
functions speak in point-name sets.

One evaluator, :func:`evaluate`, serves every query.  It runs the
formula's slot program (:func:`_program`): the formula as parsed,
compiled once and cached on its node, one ``(opcode, a, b)`` step per
distinct subformula, children first.  All seven constructors are steps,
so nothing is desugared first; truth sets are never cached.  On a finite
space the balls of a grade change only at realized distances, so a modal
step takes the grade's rank among them
(:meth:`UltrametricSpace.rank_of`) and every modal step has the
signature ``(space, value, rank, meets)``.  On a space with a tree the
balls of one grade partition the points into runs of adjacent leaves, and
values are in leaf order, so a modal step decides each ball once.  Which
step runs depends on the value type, and is chosen once per call:

* One Python-int mask (:func:`truth_mask`, :func:`interior_mask` and
  :func:`closure_mask`): a closure step carries each run's bits into the
  run's last bit (:meth:`UltrametricSpace.tops`) with one addition, then
  spreads every top reached down its run.  Where every ball of the grade
  has the same size, as on the full space of histories of one length,
  the spread is one subtraction, and a grade of one-point balls needs
  none; where their sizes differ it takes doubling shifts, O(log longest
  run) big-int operations.  Either way the count does not grow with the
  number of balls (Knuth, TAOCP 4A, 7.1.3).  An interior step is the
  dual.
* A bit-sliced batch (:func:`umlogic.validity.valid_in_model`), a 2-D
  ``uint64`` array with one row per point and one bit per valuation
  (Biham 1997): a box ANDs the rows of each run of
  :meth:`UltrametricSpace.runs` and a diamond ORs them, one reduction over
  a view per run (:func:`_row_step`), so no valuation is looked up alone.
  Each step that is not an atom writes its value in place into rows of
  its own (:func:`batch_rows`), which an enumeration allocates once and
  reuses for every batch, so no step allocates an array.
* Either on a space without a tree, whose leaf order is its point order:
  each point's ball is read from its own table row
  (:meth:`UltrametricSpace.table_balls`), so a table that breaks a law is
  read row by row (:func:`_ball_step` on an int, and :func:`_row_step` on
  a batch).

A modal step of the program holds only its grade's key
(:meth:`UltrametricSpace.grade_key`), so a warm step, on an int or a
batch, reads the rank with one dict lookup
(:meth:`UltrametricSpace.rank_by_key`).  :func:`interior_mask`,
:func:`closure_mask` and :meth:`UltrametricSpace.ball` take
:meth:`UltrametricSpace.rank_of` the grade they are given.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .formula import BINARY, And, Atom, Box, Diamond, Formula, Implies, Not, Or, subformulas
from .space import Model, UltrametricSpace


def _ball_step(space: UltrametricSpace, value: int, rank: int, meets: bool) -> int:
    """Point-order mask of the points whose ball of the radii below ``rank`` lies inside ``value``, or meets it.

    ``value`` is a point-order mask on a space without a tree, and each
    point's ball is read from its own table row
    (:meth:`UltrametricSpace.table_balls`).
    """
    result = 0
    for i, ball in enumerate(space.table_balls(rank)):
        if (value & ball != 0) if meets else (value & ball == ball):
            result |= 1 << i
    return result


def _row_step(space: UltrametricSpace, rows: np.ndarray, rank: int, meets: bool, out: np.ndarray) -> np.ndarray:
    """Rows of the points whose ball of the radii below ``rank`` lies inside ``rows``, or meets them, into ``out``.

    ``rows`` is a bit-sliced batch in leaf order.  On a tree each run of
    leaves is ANDed (box) or ORed (diamond) into the run's first row of
    ``out``, which is copied down the run; one-leaf balls copy theirs, so a
    grade without a longer run returns ``rows`` itself and writes nothing.
    ``out`` has the shape of ``rows`` and shares no memory with it.  A
    table, in point order, reduces each point's ball into the point's row.
    """
    reduce = np.bitwise_or.reduce if meets else np.bitwise_and.reduce
    if space.tree is None:
        for i, ball in enumerate(space.table_balls(rank)):
            reduce(rows[space.members(ball)], axis=0, out=out[i])
        return out
    if not rank:  # a negative radius: every ball is empty
        out.fill(0 if meets else np.iinfo(out.dtype).max)
        return out
    runs, singles = space.runs(rank)
    if not runs:
        return rows
    for start, end in singles:
        out[start:end] = rows[start:end]
    for start, end in runs:
        reduce(rows[start:end], axis=0, out=out[start])
        out[start + 1:end] = out[start]
    return out


def _leaf_step(space: UltrametricSpace, value: int, rank: int, meets: bool) -> int:
    """Leaf-order mask of the leaves whose ball of the radii below ``rank`` meets ``value`` or lies inside it.

    ``value`` is a leaf-order mask on a space with a tree.  The diamond adds
    each run's bits below its top to the run's bits of ``value``, which
    carries into the top iff the run meets ``value``, then spreads the tops
    down their runs.  When every run has L leaves (:meth:`UltrametricSpace.tops`)
    the spread is one subtraction: a run from leaf s to its top e adds
    2^(e+1) - 2^s, the bits s..e, and no borrow leaves a run; one-leaf
    balls need no step at all.  Runs of differing sizes are spread in
    doubling strides: after stride d, ``keep`` holds the leaves at least 2d
    below their run's top.  The box is the dual.
    """
    full = space.full_mask
    if not rank:  # a negative radius: every ball is empty
        return 0 if meets else full
    tops, size = space.tops(rank)
    if size == 1:
        return value & full
    x = value if meets else full ^ value
    rest = full ^ tops
    y = (((x & rest) + rest) | x) & tops
    if size:
        y = (y << 1) - (y >> (size - 1))
    else:
        d, keep = 1, rest
        while keep:
            y |= (y >> d) & keep
            keep &= keep >> d
            d <<= 1
    return y if meets else full ^ y


def _mask_step(space: UltrametricSpace) -> Callable[[UltrametricSpace, int, int, bool], int]:
    """The modal step on one mask: :func:`_leaf_step` on a space with a tree, :func:`_ball_step` without one."""
    return _ball_step if space.tree is None else _leaf_step


def interior_mask(space: UltrametricSpace, mask: int, eps: Fraction) -> int:
    """Leaf-order bitmask of the points whose whole closed eps-ball lies inside the leaf-order ``mask``."""
    return _mask_step(space)(space, mask, space.rank_of(eps), False)


def closure_mask(space: UltrametricSpace, mask: int, eps: Fraction) -> int:
    """Leaf-order bitmask of the points whose closed eps-ball meets the leaf-order ``mask``."""
    return _mask_step(space)(space, mask, space.rank_of(eps), True)


def _program(f: Formula) -> tuple:
    """The slot program of ``f``, compiled on first use and cached on the node as ``_program``.

    One ``(opcode, a, b)`` step per distinct subformula, children first, so
    the last step is ``f``.  The opcode is the constructor's class; ``a`` is
    an atom's name or the slot of the step's first child, and ``b`` the slot
    of a binary step's right child, or for a modal step its grade's
    :meth:`UltrametricSpace.grade_key`, so a program holds no Fraction.
    """
    program = getattr(f, "_program", None)
    if program is None:
        slot: dict[Formula, int] = {}
        steps = []
        for g in subformulas(f):
            cls = type(g)
            if cls is Atom:
                step = (Atom, g.name, None)
            elif cls is Not:
                step = (Not, slot[g.sub], None)
            elif cls in BINARY:
                step = (cls, slot[g.left], slot[g.right])
            elif cls is Box or cls is Diamond:
                step = (cls, slot[g.sub], UltrametricSpace.grade_key(g.grade))
            else:
                raise TypeError(f"not a formula: {g!r}")
            slot[g] = len(steps)
            steps.append(step)
        program = tuple(steps)
        object.__setattr__(f, "_program", program)
    return program


def batch_rows(f: Formula, n: int, words: int) -> np.ndarray:
    """Rows for :func:`evaluate` to write a batch of ``f`` into: ``n`` rows of ``words`` words per non-atom step.

    Uninitialised; every step writes its own rows before any step reads
    them, so one array serves every batch of an enumeration.
    """
    return np.empty((sum(op is not Atom for op, _, _ in _program(f)), n, words), dtype=np.uint64)


def evaluate(space: UltrametricSpace, f: Formula, atom: Callable[[str], object], full, out=None):
    """Truth set of ``f`` over ``space``: its slot program run into a list, one value per step.

    ``atom`` maps an atom name to its truth set and ``full`` is the set of
    all points, both in the space's leaf order: Python ints for one
    valuation (:meth:`Model.leaf_mask`, the one reader of an atom's mask),
    or bit-sliced batches of rows for many, with ``full`` the all-ones
    ``np.uint64`` and ``out`` the rows of :func:`batch_rows`.  Each
    non-atom step of a batch writes its value in place into the next rows
    of ``out``, never into an operand, so an atom's rows are only read.  A
    modal step reads its rank by the grade key it holds; on one int it is
    the step :func:`_mask_step` chooses once for the call, and on a batch
    :func:`_row_step`.  Nothing computed for a model is kept.
    """
    batch = out is not None
    step = _mask_step(space)
    rank_by_key = space.rank_by_key
    rows = iter(out if batch else ())
    values: list = []
    append = values.append
    for op, a, b in _program(f):
        if op is Atom:
            append(atom(a))
        elif op is Not:
            append(np.bitwise_xor(full, values[a], out=next(rows)) if batch else full ^ values[a])
        elif op is And:
            append(np.bitwise_and(values[a], values[b], out=next(rows)) if batch else values[a] & values[b])
        elif op is Or:
            append(np.bitwise_or(values[a], values[b], out=next(rows)) if batch else values[a] | values[b])
        elif op is Implies:
            if batch:
                value = np.bitwise_xor(full, values[a], out=next(rows))
                append(np.bitwise_or(value, values[b], out=value))
            else:
                append((full ^ values[a]) | values[b])
        else:
            rank, meets = rank_by_key(b), op is Diamond
            append(_row_step(space, values[a], rank, meets, next(rows)) if batch
                   else step(space, values[a], rank, meets))
    return values[-1]


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
    """Truth set of ``f`` as a bitmask in the space's leaf order (:meth:`UltrametricSpace.mask_of`)."""
    return evaluate(model.space, f, model.leaf_mask, model.space.full_mask)


def truthset(model: Model, f: Formula) -> TruthSet:
    """The set of worlds where ``f`` holds, named from its leaf-order mask."""
    return TruthSet(f, model.space.names_of(truth_mask(model, f)))


def holds(model: Model, world: str, f: Formula) -> bool:
    """Whether ``f`` holds at ``world``.  Raises UnknownPointError for bad worlds."""
    return bool(truth_mask(model, f) >> model.space.leaf(world) & 1)


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
    at = space.leaf(world)
    mask = truth_mask(model, f)
    if not mask >> at & 1:
        return DegreeReport("stability", None, attained=False)
    if mask == space.full_mask:
        return DegreeReport("stability", Fraction(1), attained=True)
    return DegreeReport("stability", space.nearest_leaf(at, space.full_mask ^ mask), attained=False)


def plausibility_degree(model: Model, world: str, f: Formula) -> DegreeReport:
    """How little circumstances must change for ``f`` to become true.

    The threshold is the distance to the nearest world satisfying ``f``;
    the diamond of grade g holds at the world iff g >= threshold.  The
    ``level`` field reports the inverted scale 1 - threshold.
    """
    space = model.space
    at = space.leaf(world)
    mask = truth_mask(model, f)
    if mask == 0:
        return DegreeReport("plausibility", None, attained=False)
    threshold = space.nearest_leaf(at, mask)
    return DegreeReport("plausibility", threshold, attained=True, level=1 - threshold)
