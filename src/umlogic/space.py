"""Finite ultrametric spaces, their validation, and models over them.

A space is a finite ordered point set with exact rational distances,
stored as the ascending list of distinct distances (exact Fractions) and
integer ranks into that list.  A finite ultrametric is a rooted tree of
nested balls, so every space that satisfies the metric laws up to
identity of indiscernibles is held as that tree alone
(:attr:`UltrametricSpace.tree`): its points as leaves, left to right, and
the rank of each adjacent pair's distance.  Binary histories give the
tree by sorting, unions, ball subspaces and rescalings build it from
their inputs' trees (:meth:`UltrametricSpace.from_tree`), and a matrix
gives it by Prim's single-linkage tree of its table, which is then
dropped.  ``from_tree`` owns that encoding: each adjacent pair indexes
its distance in any list of exact distances, and the ones in use are
read, checked nonnegative and sorted into the realized list there, so a
caller hands over the distances it already has.  Only a space that
breaks a law keeps its n x n table, read only here: every pairwise
distance elsewhere is one row at a time (:meth:`UltrametricSpace.row`).

Each grade is resolved once per space to its rank among the realized
distances (:meth:`UltrametricSpace.rank_of`, or
:meth:`UltrametricSpace.rank_by_key` from a grade's key).  Balls change
only at realized distances, so every reader of a grade's balls takes the
rank, and caches what it builds per rank.  On a tree each ball of a
grade is a run of adjacent leaves, the one form of a grade's balls a
tree keeps: one integer marks the last leaf of every run
(:meth:`UltrametricSpace.tops`), which the modal step on a mask reads and
which bounds a single ball (:meth:`UltrametricSpace.ball_run`), and the
same runs as bounds (:meth:`UltrametricSpace.runs`) are what validity's
bit-sliced batches reduce.  Each ball of every grade is listed once by
:meth:`UltrametricSpace.tree_balls`, and the nearest member of a mask is
found by bit arithmetic (:meth:`UltrametricSpace.nearest_leaf`).  A table
reads each point's ball from the point's own row instead
(:meth:`UltrametricSpace.table_balls`).

Every point set in the library is a bitmask in leaf order: bit k is the
point ``leaves[k]`` (:attr:`UltrametricSpace.leaves`), the tree's leaves,
or ``arange(n)`` for a table, which is its own leaf order.  Names cross
into and out of that order only here: :meth:`UltrametricSpace.mask_of`
and :meth:`UltrametricSpace.names_of` for sets, and
:meth:`UltrametricSpace.leaf` for one point's bit.  Each space keeps its
point names in leaf order, one read-only array built on first use, so a
set is named by one selection from it with the mask's bits, and a ball
on a tree by one slice of it at the ball's leaf bounds: no member is
looked up by itself.

Every number a caller gives (a matrix entry, a pair distance, a tree's
height, a radius, and elsewhere a grade, a scaling constant or a
factor) is read by :func:`read_rational`, which keeps Fractions,
converts ints, parses text without exponent notation and refuses floats
and bools.
Construction never rejects a space for breaking the metric laws:
:func:`validate_space` reports violations as data, so deliberately
broken spaces are representable.  A tree can break only identity of
indiscernibles, by twins at adjacent leaves, so it is validated in O(n).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class UnknownPointError(KeyError):
    """A point name that does not belong to the space."""

    def __str__(self) -> str:
        return f"unknown point {self.args[0]!r}" if self.args else "unknown point"


@dataclass(frozen=True)
class Violation:
    """One violated metric law together with a witnessing tuple of points."""

    condition: str
    witness: tuple[str, ...]
    detail: str


def read_rational(value: Fraction | int | str) -> Fraction:
    """The exact rational a caller gave: the one reader of numbers in the library.

    A Fraction is returned unchanged (so interned grades stay shared), an
    int is converted, and ``"p/q"`` or finite-decimal text is parsed.
    Exponent notation raises ValueError: ``Fraction("1e999999999")``
    would compute 10^999999999 before any range check could run.  So does
    text that is not ASCII or holds ``_``, which ``Fraction`` reads as a
    Python literal would be (``"1_0/20"``, or other scripts' digits).
    Anything else, floats and bools included, raises TypeError, because a
    float is already rounded and a verdict on d(x, y) <= eps can flip.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if "e" in value.lower():
            raise ValueError(f"exponent notation in {value!r}")
        if not value.isascii() or "_" in value:
            raise ValueError(f"not a plain rational: {value!r}")
        return Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"{value!r} is not an exact rational: give a Fraction, an int or text like '1/8'")


#: The longest binary history :meth:`UltrametricSpace.from_sequences`
#: takes.  Histories first differing at event n are 1/2^n apart, and
#: 2^14284 is the largest power of two whose decimal text (4,300 digits)
#: the interpreter prints by default, so every realized distance prints.
MAX_HISTORY_LENGTH = 14284


def _packed(bits: np.ndarray) -> int:
    """The bitmask whose bit k is ``bits[k]``, for an array of 0s and 1s (or bools)."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


class UltrametricSpace:
    """Finite point set with exact distances held as ranks into a sorted list, by a tree or a table."""

    def __init__(self, points: Sequence[str], matrix: Sequence[Sequence[Fraction | int | str]],
                 *, read: Callable[[object], Fraction] = read_rational):
        """A space from an n x n table of distances; ``read`` reads each entry distinct by type and value once.

        So ``True`` is read apart from ``1``, and the first entry refused in row-major order raises.
        """
        n = len(points)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("distance matrix shape does not match the point list")
        code_of: dict = {}
        try:
            codes = [code_of.setdefault((type(v), v), len(code_of)) for row in matrix for v in row]
        except TypeError:  # an unhashable entry: read them all in order, so the first refused raises
            list(map(read, (v for row in matrix for v in row)))
            raise
        # Keys are in order of first appearance, so the first one refused is the first bad entry.
        numbers = [read(v) for _, v in code_of]
        distances = sorted(set(numbers))
        rank = {d: r for r, d in enumerate(distances)}
        ranks = np.array([rank[d] for d in numbers], dtype=np.intp)[np.array(codes, dtype=np.intp)]
        self._setup(points, distances, ranks.reshape(n, n))

    def _setup(self, points: Sequence[str], distances: list[Fraction], ranks: np.ndarray | None,
               tree: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        """State shared by every constructor: a table of ranks, or a tree as :attr:`tree` holds it.

        Ranks take the smallest unsigned type and are frozen.  A table whose
        least distance is 0, whose diagonal is rank 0 and which
        :func:`_single_linkage` accepts is held as that tree, and dropped.
        """
        self._points = tuple(points)
        if len(set(self._points)) != len(self._points):
            raise ValueError("duplicate point names")
        self._index = {p: i for i, p in enumerate(self._points)}
        #: The bitmask of every point, read on every modal step.
        self.full_mask = (1 << len(self._points)) - 1
        self._distances = distances
        self._ranks = None if ranks is None else self._frozen(ranks)
        self._grade_ranks: dict[tuple[int, int], int] = {}
        self._table_balls: dict[int, tuple[int, ...]] = {}
        self._tops: dict[int, int] = {}
        self._run_bounds: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {}
        self._nesting: list[tuple[int, int, int, int | None]] | None = None
        self._names: np.ndarray | None = None
        if ranks is not None and not (distances and distances[0]) and not np.diagonal(self._ranks).any():
            tree = _single_linkage(self._ranks)
        self._tree = None
        #: Point indexes in leaf order, read-only: the tree's leaves, or a table's own order.
        self.leaves = np.arange(self.n) if tree is None else tree[0]
        self.leaves.setflags(write=False)
        self._position = np.empty(self.n, dtype=np.intp)  # each point's place among the leaves
        self._position[self.leaves] = np.arange(self.n)
        if tree is not None:
            self._ranks = None
            self._tree = (self.leaves, self._frozen(tree[1]))

    def _frozen(self, ranks: np.ndarray) -> np.ndarray:
        """Ranks in the smallest unsigned type that holds every rank, read-only."""
        ranks = ranks.astype(np.min_scalar_type(max(len(self._distances) - 1, 0)), copy=False)
        ranks.setflags(write=False)
        return ranks

    @classmethod
    def from_pairs(
        cls,
        points: Sequence[str],
        pairs: Mapping[tuple[str, str], Fraction | int | str],
    ) -> "UltrametricSpace":
        """Build a space from unordered-pair distances (diagonal fixed at 0)."""
        index = {p: i for i, p in enumerate(points)}
        matrix = [[Fraction(0)] * len(points) for _ in points]
        seen = set()
        for (x, y), value in pairs.items():
            if x not in index or y not in index:
                raise UnknownPointError(x if x not in index else y)
            i, j = index[x], index[y]
            matrix[i][j] = matrix[j][i] = read_rational(value)
            seen.add(frozenset((i, j)))
        expected = {frozenset((i, j)) for i in range(len(points)) for j in range(i + 1, len(points))}
        if seen != expected:
            raise ValueError("pair distances must cover every unordered pair of distinct points")
        return cls(points, matrix)

    @classmethod
    def from_sequences(cls, points: Sequence[str], sequences: Mapping[str, str]) -> "UltrametricSpace":
        """Build a space whose distances come from binary event histories.

        ``sequences`` maps each point to a fixed-length binary string; the
        distance between two points is 2^-n for the 1-based position n where
        their histories first differ.  Sorted, two histories agree on the
        shortest common prefix of the adjacent pairs between them, so the
        space is held as the single-linkage tree those prefixes make
        (:attr:`tree`): the points in sorted-history order and the rank of
        each adjacent pair's distance, O(n) numbers; no n x n table is
        built.  Only identity of indiscernibles can fail, by equal histories.
        Histories longer than :data:`MAX_HISTORY_LENGTH` raise ValueError
        before anything is built.
        """
        seqs = []
        for p in points:
            if p not in sequences:
                raise UnknownPointError(p)
            seq = sequences[p]
            if len(seq) > MAX_HISTORY_LENGTH:
                raise ValueError(f"sequence for {p!r} is longer than {MAX_HISTORY_LENGTH} events")
            if not seq or seq.strip("01"):
                raise ValueError(f"sequence for {p!r} is not a nonempty binary string")
            seqs.append(seq)
        if len(set(len(s) for s in seqs)) > 1:
            raise ValueError("sequences must all have the same length")
        n = len(seqs)
        length = len(seqs[0]) if seqs else 0
        order = sorted(range(n), key=seqs.__getitem__)
        values = [int(seqs[i], 2) for i in order]
        # Common-prefix length of each adjacent pair of sorted histories;
        # ``length`` means the two histories are equal.
        lcp = [length - (a ^ b).bit_length() for a, b in zip(values, values[1:])]
        # Longer common prefix, smaller distance; a prefix of ``length`` is distance 0.
        levels = sorted(set(lcp))
        distances = [Fraction(1, 2 ** (m + 1)) if m < length else 0 for m in levels]
        return cls.from_tree(points, distances, order, np.searchsorted(levels, lcp))

    @classmethod
    def from_tree(cls, points: Sequence[str], distances: Sequence, leaves, adjacent) -> "UltrametricSpace":
        """The space held as a single-linkage tree: the inverse of :attr:`tree`, for any list of distances.

        ``leaves`` lists each point index once, left to right.
        ``adjacent[k]`` indexes the distance of leaves k and k + 1 in
        ``distances``, a list of exact distances in any order, which may
        repeat or hold entries no pair uses.  Each entry in use is read by
        :func:`read_rational`; the space keeps those and 0, ascending, as
        its realized distances.  A negative distance, an index outside
        ``distances`` or ``leaves`` that are not a permutation of the point
        indexes raise ValueError before anything is built.  An index array
        ``leaves`` is kept and frozen, not copied.
        """
        n = len(points)
        if len(leaves) != n or len(adjacent) != max(n - 1, 0):
            raise ValueError("tree shape does not match the point list")
        leaves, adjacent = np.asarray(leaves, dtype=np.intp), np.asarray(adjacent, dtype=np.intp)
        if not np.array_equal(np.sort(leaves), np.arange(n)):
            raise ValueError("tree leaves are not a permutation of the point indexes")
        if adjacent.size and not 0 <= adjacent.min() <= adjacent.max() < len(distances):
            raise ValueError("an adjacent pair indexes no distance in the list")
        heights = {i: read_rational(distances[i]) for i in set(adjacent.tolist())}
        # Sorted and deduplicated by comparison: hashing a Fraction costs more
        # than the rest of this method.
        realized, rank = [Fraction(0)] if n else [], np.zeros(len(distances), dtype=np.intp)
        for i in sorted(heights, key=heights.__getitem__):
            if heights[i] != realized[-1]:
                realized.append(heights[i])
            rank[i] = len(realized) - 1
        if realized[1:] and realized[1] < 0:  # the least height, if it is below 0
            raise ValueError(f"negative distance {realized[1]} in the tree")
        space = cls.__new__(cls)
        space._setup(points, realized, None, (leaves, rank[adjacent]))
        return space

    @property
    def points(self) -> tuple[str, ...]:
        return self._points

    @property
    def n(self) -> int:
        return len(self._points)

    def row(self, i: int) -> np.ndarray:
        """Ranks into :meth:`realized_distances` from point ``i`` to every point, in point order.

        A tree takes two running maxima of the adjacent ranks, outward from
        ``i``'s leaf, in O(n); a space without a tree gives its table's row.
        """
        if self._tree is None:
            return self._ranks[i]
        adjacent, at = self._tree[1], self._position[i]
        by_leaf = np.zeros(self.n, dtype=adjacent.dtype)
        by_leaf[at + 1:] = np.maximum.accumulate(adjacent[at:])
        by_leaf[:at] = np.maximum.accumulate(adjacent[:at][::-1])[::-1]
        return by_leaf[self._position]

    @property
    def tree(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The single-linkage tree: its leaves (point indexes, left to right) and adjacent ranks.

        Both arrays are read-only; two leaves are as far apart as the
        largest adjacent rank between them.  Leaves are in sorted-history
        order for histories and in Prim's visiting order for a matrix; a
        union concatenates its components' leaves, a ball subspace keeps a
        run of its parent's, and a rescaling keeps its input's tree.  None
        for a space that breaks a law other than identity of indiscernibles.
        """
        return self._tree

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownPointError(x) from None

    def __contains__(self, x: str) -> bool:
        return x in self._index

    def dist(self, x: str, y: str) -> Fraction:
        return self._distances[self.row(self.index(x))[self.index(y)]]

    def mask_of(self, names: Iterable[str]) -> int:
        """The leaf-order bitmask of the named points: bit k is the point at leaf k.

        The first unknown name, in the order given, raises.
        """
        try:
            indexes = [self._index[name] for name in names]
        except KeyError as exc:
            raise UnknownPointError(exc.args[0]) from None
        bits = np.zeros(self.n, np.uint8)
        bits[self._position[indexes]] = 1
        return _packed(bits)

    def names_of(self, mask: int) -> frozenset[str]:
        """The names of the points at the leaves set in a leaf-order bitmask (see :meth:`mask_of`).

        The mask's bits, unpacked in leaf order, select from the space's
        names in leaf order (:meth:`_leaf_names`) in one pass.
        """
        return frozenset(self._leaf_names()[self._bits(mask).view(bool)].tolist())

    def members(self, mask: int) -> np.ndarray:
        """Ascending leaf positions of the bits set in ``mask``: point indexes on a space without a tree."""
        return np.flatnonzero(self._bits(mask))

    def _bits(self, mask: int) -> np.ndarray:
        """The bits of ``mask`` below :attr:`n` as an array of 0s and 1s: entry k is bit k."""
        data = np.frombuffer(mask.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(data, count=self.n, bitorder="little")

    def _leaf_names(self) -> np.ndarray:
        """The point names in leaf order as a read-only object array: entry k names bit k of every mask.

        Built on first use and kept, so naming a set costs no lookup per member.
        """
        if self._names is None:
            self._names = np.array(self._points, dtype=object)[self.leaves]
            self._names.setflags(write=False)
        return self._names

    def leaf(self, x: str) -> int:
        """The place of point ``x`` among the :attr:`leaves`, its bit in every mask."""
        return int(self._position[self.index(x)])

    def rank_of(self, eps: Fraction) -> int:
        """How many realized distances are at most ``eps``: a ball of radius ``eps`` joins the lower ranks.

        ``eps`` is read by :func:`read_rational` and resolved once per
        space, in a dict keyed by :meth:`grade_key`, so repeated grades
        cost no search over the Fraction distances.
        """
        return self.rank_by_key(self.grade_key(read_rational(eps)))

    @staticmethod
    def grade_key(eps: Fraction) -> tuple[int, int]:
        """The key under which a space files the rank of the exact grade ``eps``: ``(numerator, denominator)``."""
        return (eps.numerator, eps.denominator)

    def rank_by_key(self, key: tuple[int, int]) -> int:
        """:meth:`rank_of` the grade whose :meth:`grade_key` is ``key``: one dict lookup once resolved.

        A caller that keeps the key of a grade it asks for often, as a
        compiled formula does (:func:`umlogic.semantics.evaluate`), skips
        reading the grade and building its key on every query.  The grade's
        Fraction is rebuilt from the key only on a miss, once per grade per
        space.
        """
        rank = self._grade_ranks.get(key)
        if rank is None:
            rank = self._grade_ranks[key] = bisect_right(self._distances, Fraction(*key))
        return rank

    def tops(self, rank: int) -> int:
        """Leaf-order bitmask of the last leaf of each ball of the radii below ``rank``; needs a tree.

        Those balls are the runs of leaves that adjacent ranks of at least
        ``rank`` cut, so leaf k is a run's last unless pair k joins a
        lower rank.  Cached per rank.
        """
        tops = self._tops.get(rank)
        if tops is None:
            tops = self._tops[rank] = _packed(np.append(required_tree(self)[1] >= rank, True)) & self.full_mask
        return tops

    def runs(self, rank: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """The balls of the radii below ``rank`` as ``(runs, singles)`` of leaf bounds; needs a tree.

        ``runs`` holds ``(start, end)`` of each ball of more than one leaf,
        and ``singles`` each stretch of one-leaf balls between them, in
        leaf order.  Cached per rank.
        """
        cached = self._run_bounds.get(rank)
        if cached is None:
            bounds = [0, *(np.flatnonzero(required_tree(self)[1] >= rank) + 1).tolist(), self.n]
            runs = tuple((start, end) for start, end in zip(bounds, bounds[1:]) if end - start > 1)
            gaps = zip([0, *(end for _, end in runs)], [*(start for start, _ in runs), self.n])
            cached = self._run_bounds[rank] = (runs, tuple((start, end) for start, end in gaps if start < end))
        return cached

    def table_balls(self, rank: int) -> tuple[int, ...]:
        """Each point's ball of the radii below ``rank`` as a point-order bitmask, in point order; needs a table.

        Entry i is read from row i of the table: the points j whose
        distance from i has a rank below ``rank``.  On a table that breaks a
        law, ``j`` in the ball of ``i`` need not have the same ball.  Cached
        per rank.
        """
        balls = self._table_balls.get(rank)
        if balls is None:
            packed = np.packbits(self._ranks < rank, axis=1, bitorder="little")
            balls = self._table_balls[rank] = tuple(int.from_bytes(row, "little") for row in packed)
        return balls

    def ball(self, x: str, eps: Fraction) -> frozenset[str]:
        """The closed ball around ``x`` of radius ``eps``, or none for a negative radius.

        On a tree the ball is a run of leaves, named by slicing the names in
        leaf order (:meth:`_leaf_names`) at :meth:`ball_run`'s bounds; a
        table names the ball that the point's own row gives.
        """
        if self._tree is None:
            i = self.index(x)
            return self.names_of(self.table_balls(self.rank_of(eps))[i])
        start, end = self.ball_run(x, eps)
        return frozenset(self._leaf_names()[start:end].tolist())

    def ball_run(self, x: str, eps: Fraction) -> tuple[int, int]:
        """The closed ball around ``x`` of radius ``eps`` as leaf bounds: it is ``leaves[start:end]``; needs a tree.

        The run lies between the two :meth:`tops` around ``x``'s leaf; a
        negative radius gives ``(0, 0)``.
        """
        k, rank = self.leaf(x), self.rank_of(eps)
        if not rank:
            return 0, 0
        tops = self.tops(rank)
        return (tops & ((1 << k) - 1)).bit_length(), k + (tops >> k & -(tops >> k)).bit_length()

    def nearest_leaf(self, k: int, mask: int) -> Fraction | None:
        """Smallest distance from leaf ``k`` to a member of the leaf-order ``mask``; None if empty.

        A tree finds the nearest set leaf on each side of ``k`` by bit
        arithmetic, and each is as far as the largest adjacent rank between
        it and ``k``.  A space without a tree, whose leaves are its points,
        takes the least rank in row ``k``.
        """
        if not mask:
            return None
        if self._tree is None:
            return self._distances[self.row(k)[self.members(mask)].min()]
        if mask >> k & 1:
            return self._distances[0]
        adjacent, ranks = self._tree[1], []
        left = mask & ((1 << k) - 1)
        if left:
            ranks.append(adjacent[left.bit_length() - 1:k].max())
        right = mask >> k
        if right:
            ranks.append(adjacent[k:k + (right & -right).bit_length() - 1].max())
        return self._distances[min(ranks)]

    def tree_balls(self) -> list[tuple[int, int, int, int | None]] | None:
        """Each distinct ball of a tree once, as (start, end, rank, parent); None without a tree.

        The ball is the run of leaves ``leaves[start:end]``, its diameter
        is ``realized_distances()[rank]``, and ``parent`` indexes the
        smallest ball strictly containing it, None for the whole space.
        Built on first use and kept.

        The run that adjacent pair k merges into reaches, on each side, up
        to the nearest adjacent pair of higher rank; a stack of the runs
        still open finds both ends in one pass, and pairs of equal rank in
        one run share it.  Runs are listed in the order they open, then the
        leaves that are balls of their own (not joined to a twin), in leaf
        order.  A ball's parent is the run merging across its lower
        boundary: a run's is known when it closes, a leaf's from its lower
        adjacent pair.  Parallel lists cost less in garbage collection than
        one list per run.
        """
        if self._tree is None:
            return None
        if self._nesting is None:
            heights, n = self._tree[1].tolist(), self.n
            floor = len(self._distances)  # above every rank: the stack's bottom, and no pair past the ends
            starts, ends, ranks, parents, run_of = [], [], [], [], []
            open_ranks, open_runs = [floor], [None]
            for k, height in enumerate(heights):
                start = k
                while open_ranks[-1] < height:  # the lower open runs end at leaf k
                    open_ranks.pop()
                    run = open_runs.pop()
                    ends[run] = k + 1
                    start = starts[run]
                    # The lower boundary's run: the one below on the stack, or the one pair k opens.
                    parents[run] = open_runs[-1] if open_ranks[-1] <= height else len(starts)
                if open_ranks[-1] == height:  # a node of three or more children
                    run_of.append(open_runs[-1])
                else:
                    run_of.append(len(starts))
                    open_ranks.append(height)
                    open_runs.append(len(starts))
                    starts.append(start)
                    ends.append(n)
                    ranks.append(height)
                    parents.append(None)
            for below, run in zip(open_runs[1:], open_runs[2:]):
                parents[run] = below
            balls = list(zip(starts, ends, ranks, parents))
            balls += [(p, p + 1, 0, left if low <= high else right)
                      for p, low, high, left, right
                      in zip(range(n), [floor, *heights], [*heights, floor], [None, *run_of], [*run_of, None])
                      if low and high]
            self._nesting = balls
        return self._nesting

    def realized_distances(self) -> list[Fraction]:
        """Ascending deduplicated list of every distance the table realizes."""
        return list(self._distances)


def required_tree(space: UltrametricSpace, name: str = "the space") -> tuple[np.ndarray, np.ndarray]:
    """The space's single-linkage tree; ValueError for a space that breaks a metric law."""
    if space.tree is None:
        raise ValueError(f"{name} breaks a metric law other than identity of indiscernibles")
    return space.tree


def _first_pair(bad: np.ndarray) -> tuple[int, int] | None:
    """Row and column of the first True entry of a 2-D mask, in row-major order."""
    hits = np.flatnonzero(bad)
    return divmod(int(hits[0]), bad.shape[1]) if hits.size else None


def _indiscernible(pts: Sequence[str], i: int, j: int) -> Violation:
    return Violation(
        "identity-of-indiscernibles", (pts[i], pts[j]), f"distinct points {pts[i]}, {pts[j]} at distance 0")


def validate_space(space: UltrametricSpace) -> list[Violation]:
    """Check the five metric laws; empty report means the space is valid.

    Each violated law is reported once, with the first witnessing pair or
    triple in point order.  A tree (:attr:`UltrametricSpace.tree`) can
    break only identity of indiscernibles, by twins at adjacent leaves, so
    it is checked in O(n).  Any other space is checked law by law on its
    rank table, which orders as the distances do; the cubic sweep for the
    strong triangle runs only when :func:`_single_linkage` refuses it.
    """
    pts = space.points
    if space.tree is not None:
        leaves, adjacent = space.tree
        # A group of twins is a maximal run of twin pairs, its leaves in any
        # order; the first pair in point order is the least of each group's
        # two least points.
        equal = np.flatnonzero(adjacent == 0)
        runs = np.split(equal, np.flatnonzero(np.diff(equal) > 1) + 1) if equal.size else []
        twins = min((sorted(leaves[run[0]:run[-1] + 2].tolist())[:2] for run in runs), default=None)
        return [_indiscernible(pts, *twins)] if twins else []
    dist = space.realized_distances()
    rank = space._ranks
    violations = []

    def d(i: int, j: int) -> Fraction:
        return dist[rank[i, j]]

    negatives = bisect_left(dist, 0)
    bad = _first_pair(rank < negatives)
    if bad:
        i, j = bad
        violations.append(Violation(
            "nonnegativity", (pts[i], pts[j]), f"d({pts[i]}, {pts[j]}) = {d(i, j)} < 0"))

    bad = _first_pair(np.triu(rank != rank.T, 1))
    if bad:
        i, j = bad
        violations.append(Violation(
            "symmetry", (pts[i], pts[j]),
            f"d({pts[i]}, {pts[j]}) = {d(i, j)} but d({pts[j]}, {pts[i]}) = {d(j, i)}"))

    has_zero = negatives < len(dist) and dist[negatives] == 0
    is_zero = rank == negatives if has_zero else np.zeros(rank.shape, dtype=bool)
    nonzero = np.flatnonzero(~np.diagonal(is_zero))
    if nonzero.size:
        bad = int(nonzero[0])
        violations.append(Violation(
            "zero-self-distance", (pts[bad],), f"d({pts[bad]}, {pts[bad]}) = {d(bad, bad)} != 0"))

    bad = _first_pair(np.triu(is_zero, 1))
    if bad:
        violations.append(_indiscernible(pts, *bad))

    if _single_linkage(rank) is None:
        bad = _strong_triangle_witness(rank)
        if bad:
            i, j, k = bad
            violations.append(Violation(
                "strong-triangle", (pts[i], pts[j], pts[k]),
                f"d({pts[i]}, {pts[j]}) = {d(i, j)} > max(d({pts[i]}, {pts[k]}), "
                f"d({pts[j]}, {pts[k]})) = {max(d(i, k), d(j, k))}"))

    return violations


def _single_linkage(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Prim's single-linkage tree of a table as (leaves, adjacent ranks); None unless the table is that tree's.

    Gower & Ross (1969): off the diagonal, a table is an ultrametric iff it
    is the cophenetic table of its single-linkage tree.  Prim's algorithm
    from point 0 visits each ball of an ultrametric as one run, and each
    point's key as it joins is its merge height with its predecessor.  Each
    joining point's row and column must be the running maximum of the
    adjacent ranks back to the earlier points, so no second n x n array is
    built.  Twins have equal rows and ``argmin`` takes the lowest index
    among equal keys, so each group of twins is adjacent and in point order.
    """
    n = len(rank)
    joined = np.iinfo(np.int64).max  # the key of every point in the tree
    key = np.full(n, joined)
    key[:1] = 0
    leaves = np.zeros(n, dtype=np.intp)
    heights = np.zeros(n, dtype=rank.dtype)  # each leaf's key as it joined
    outside = np.ones(n, dtype=bool)
    for k in range(n):
        v = leaves[k] = int(np.argmin(key))
        heights[k], key[v], outside[v] = key[v], joined, False
        span = np.maximum.accumulate(heights[k:0:-1])[::-1]
        earlier = leaves[:k]
        if not (np.array_equal(rank[v, earlier], span) and np.array_equal(rank[earlier, v], span)):
            return None
        np.minimum(key, rank[v], out=key, where=outside)
    return leaves, heights[1:]


def _strong_triangle_witness(rank: np.ndarray) -> tuple[int, int, int] | None:
    """First triple (i, j, k), i < j, with d(i, j) > max(d(i, k), d(j, k)).

    The cubic sweep runs vectorised over the rank table; the returned
    triple is the lexicographically least one, matching a plain nested
    loop over i < j, then k.
    """
    n = len(rank)
    if n < 3:
        return None
    best: tuple[int, int, int] | None = None
    for k in range(n):
        to_k = rank[:, k]
        bound = np.maximum(to_k[:, None], to_k[None, :])
        over = np.triu(rank > bound, 1)
        over[k, :] = False
        over[:, k] = False
        hits = np.argwhere(over)
        if hits.size:
            i, j = map(int, hits[0])
            if best is None or (i, j, k) < best:
                best = (i, j, k)
    return best


def sequence_distance(x: str, y: str) -> Fraction:
    """Distance 2^-n between equal-length binary histories first differing at 1-based position n."""
    if len(x) != len(y):
        raise ValueError("sequences must have equal length")
    for i, (a, b) in enumerate(zip(x, y)):
        if a != b:
            return Fraction(1, 2 ** (i + 1))
    return Fraction(0)


#: The deepest binary-history space built: 2^16 = 65,536 worlds.  The
#: space holds its tree, O(n) numbers, and the morphism checks read it one
#: O(n) row at a time, but they and model output still take time
#: quadratic in n, so each level more quadruples it;
#: ``cantor_sequences(40)`` would build 2^40 strings.
MAX_CANTOR_DEPTH = 16


def cantor_sequences(depth: int) -> list[str]:
    """All binary histories of the given depth, in event-tree leaf order.

    The leftmost leaf (every event happened) comes first, so index i in the
    result names the i-th leaf of the depth-n binary event tree.  Depths
    outside 1 .. :data:`MAX_CANTOR_DEPTH` raise ValueError before anything
    is built.
    """
    if not 1 <= depth <= MAX_CANTOR_DEPTH:
        raise ValueError(f"depth must be between 1 and {MAX_CANTOR_DEPTH}, not {depth}")
    return [format(i, f"0{depth}b") for i in range(2 ** depth - 1, -1, -1)]


def cantor_space(depth: int) -> UltrametricSpace:
    """Depth-n truncation of the binary-history space, points named by their sequences."""
    seqs = cantor_sequences(depth)
    return UltrametricSpace.from_sequences(seqs, {s: s for s in seqs})


class Model:
    """A space plus a valuation assigning each atom the set of points where it holds.

    The space and the valuation are read-only, because each atom's bitmask
    is computed once, here, in the space's leaf order
    (:meth:`UltrametricSpace.mask_of`); the first unknown point of an
    atom, in the order given, raises :class:`UnknownPointError`.
    """

    def __init__(self, space: UltrametricSpace, valuation: Mapping[str, Iterable[str]] | None = None):
        self._space = space
        listed = {atom: list(members) for atom, members in (valuation or {}).items()}
        self._leaf_masks = {atom: space.mask_of(names) for atom, names in listed.items()}
        self._valuation = {atom: frozenset(names) for atom, names in listed.items()}

    @property
    def space(self) -> UltrametricSpace:
        return self._space

    @property
    def valuation(self) -> Mapping[str, frozenset[str]]:
        """Atom -> points where it holds, as a read-only view."""
        return MappingProxyType(self._valuation)

    def atom_set(self, name: str) -> frozenset[str]:
        """Points where ``name`` holds; atoms missing from the valuation are empty."""
        return self._valuation.get(name, frozenset())

    def leaf_mask(self, name: str) -> int:
        """Leaf-order bitmask of the points where ``name`` holds; atoms missing from the valuation are empty."""
        return self._leaf_masks.get(name, 0)
