"""Validity-preserving constructions: disjoint unions, ball subspaces, morphisms.

Disjoint unions place distinct components at the sentinel distance 2,
which no formula grade (at most 1) can reach, so each component is
modally blind to the others.  Ball subspaces restrict both distances and
the valuation.  Bounded morphisms are maps with a positive rational
scaling constant k: distances shrink forward by at most k, and target
balls pull back into k-inverse-scaled source balls.  Unions, ball
subspaces and rescalings take spaces held as trees
(:attr:`UltrametricSpace.tree`) and build the result's tree from them
(:meth:`UltrametricSpace.from_tree`); a space that breaks a metric law
raises ValueError.  The morphism checks read one source row
(:meth:`UltrametricSpace.row`) and its image's target row at a time, so
they hold O(n) numbers whatever the size of the spaces.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .modelio import ModelFormatError, parse_rational, read_json
from .space import Model, UltrametricSpace, read_rational, required_tree

#: Distance between points of different components in a disjoint union.
UNION_DISTANCE = Fraction(2)


@dataclass
class PointMap:
    """A total point mapping together with its positive scaling constant."""

    mapping: dict[str, str]
    k: Fraction = Fraction(1)

    def __post_init__(self):
        self.k = read_rational(self.k)
        if self.k <= 0:
            raise ValueError(f"scaling constant must be positive, got {self.k}")

    def __call__(self, point: str) -> str:
        return self.mapping[point]


def load_point_map(path: str | Path) -> PointMap:
    """Read a ``{"k": "1/2", "map": {src: tgt, ...}}`` JSON file."""
    data = read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("map"), dict):
        raise ModelFormatError('map file must be an object with a "map" object')
    mapping = data["map"]
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()):
        raise ModelFormatError('"map" must map point names to point names')
    k = parse_rational(data.get("k", "1"), what="scaling constant")
    if k <= 0:
        raise ModelFormatError(f"scaling constant must be positive, got {k}")
    return PointMap(dict(mapping), k)


def union_point(component: int, name: str) -> str:
    """Name of a component point inside a disjoint union."""
    return f"{component}:{name}"


def disjoint_union(models: Sequence[Model]) -> Model:
    """Union of the models, components kept at distance 2 from each other.

    Point names are tagged with their component index; valuations merge
    atom-wise across components.  The components' trees are laid end to
    end, joined at distance 2, and each one's heights index its own
    distances in one list after the union distance, which
    :meth:`UltrametricSpace.from_tree` reads and sorts.  So no component
    beside another may have a distance above 2.
    """
    if not models:
        raise ValueError("disjoint union needs at least one model")
    spaces = [model.space for model in models]
    trees = [required_tree(space, f"component {i}") for i, space in enumerate(spaces)]
    points = [union_point(i, p) for i, space in enumerate(spaces) for p in space.points]
    distances, leaves, adjacent = [UNION_DISTANCE], [], []
    for space, (order, heights) in zip(spaces, trees):
        if space.n:
            # A pair at the union distance, index 0, joins each nonempty component to the one before;
            # the component's own heights index its distances, listed after those before it.
            adjacent += [0] * bool(leaves) + (heights.astype(np.intp) + len(distances)).tolist()
            leaves += (order + len(leaves)).tolist()
            distances += space.realized_distances()
    if sum(space.n > 0 for space in spaces) > 1 and max(distances) > UNION_DISTANCE:
        raise ValueError(f"component distance {max(distances)} is above the union distance {UNION_DISTANCE}")

    valuation: dict[str, set[str]] = {}
    for i, model in enumerate(models):
        for atom, members in model.valuation.items():
            valuation.setdefault(atom, set()).update(union_point(i, p) for p in members)
    return Model(UltrametricSpace.from_tree(points, distances, leaves, adjacent), valuation)


def epsilon_subspace(model: Model, center: str, eps: Fraction) -> Model:
    """The closed ball around ``center`` with distances and valuation restricted.

    The ball is a run of leaves (:meth:`UltrametricSpace.ball_run`); they
    are renumbered to the kept points' order, and their merge heights still
    index the parent's distances, of which
    :meth:`UltrametricSpace.from_tree` keeps those the run uses.
    """
    space = model.space
    start, end = space.ball_run(center, eps)
    leaves, heights = required_tree(space)
    run, inside = leaves[start:end], heights[start:max(start, end - 1)]
    index = np.sort(run)
    kept = [space.points[i] for i in index.tolist()]
    members = frozenset(kept)
    sub = UltrametricSpace.from_tree(kept, space.realized_distances(), np.searchsorted(index, run), inside)
    return Model(sub, {atom: held & members for atom, held in model.valuation.items()})


def scale_space(space: UltrametricSpace, factor: Fraction) -> UltrametricSpace:
    """Copy of the space with every distance multiplied by a positive factor."""
    factor = read_rational(factor)
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    # A positive factor keeps the distances in order, so the tree stays as it is.
    scaled = [d * factor for d in space.realized_distances()]
    return UltrametricSpace.from_tree(space.points, scaled, *required_tree(space))


@dataclass
class MorphismCheck:
    """Outcome of a bounded-morphism check, with one witness per failed condition."""

    ok: bool
    k: Fraction
    atom_witness: tuple[str, str] | None = None       # (atom, source point)
    forward_witness: tuple[str, str] | None = None    # (w, v) with d'(f w, f v) > k d(w, v)
    back_witness: tuple[str, str] | None = None       # (w, v') lacking a preimage in range

    def failures(self) -> list[str]:
        out = []
        if self.atom_witness:
            atom, w = self.atom_witness
            out.append(f"atom agreement fails for {atom!r} at {w}")
        if self.forward_witness:
            w, v = self.forward_witness
            out.append(f"forward condition fails on pair ({w}, {v})")
        if self.back_witness:
            w, v = self.back_witness
            out.append(f"back condition fails for source {w} and target {v}")
        return out


def _images(src: UltrametricSpace, tgt: UltrametricSpace, pm: PointMap) -> np.ndarray:
    """Target index of each source point's image; the map must be total into the target."""
    image = []
    for p in src.points:
        if p not in pm.mapping:
            raise ValueError(f"map is not total: source point {p!r} has no image")
        image.append(tgt.index(pm.mapping[p]))
    return np.array(image, dtype=np.intp)


def check_frame_morphism(src: UltrametricSpace, tgt: UltrametricSpace, pm: PointMap) -> MorphismCheck:
    """Verify the forward and back conditions over all point pairs.

    Forward: d'(f w, f v) <= k * d(w, v) for every pair.  Back: for every
    source w and target v', some v with f(v) = v' lies within
    k^-1 * d'(f w, v') of w.  Checking at the realized distances is
    exhaustive because balls change only at realized radii.  Each source
    distance is scaled by k and placed in the target's distances once.
    """
    image = _images(src, tgt, pm)
    targets = tgt.realized_distances()
    scaled = [pm.k * d for d in src.realized_distances()]
    dtype = np.min_scalar_type(len(targets))
    above = np.array([bisect_right(targets, x) for x in scaled], dtype=dtype)
    reach = np.array([bisect_left(targets, x) for x in scaled], dtype=dtype)
    forward = back = None
    for i in range(src.n):
        s, t = src.row(i), tgt.row(image[i])
        if forward is None:
            hits = np.flatnonzero(t[image[i + 1:]] >= above[s[i + 1:]])
            forward = (i, i + 1 + int(hits[0])) if hits.size else None
        if back is None:
            # Least rank from w that a preimage of v' allows; len(targets) when v' has none.
            nearest = np.full(tgt.n, len(targets), dtype=dtype)
            np.minimum.at(nearest, image, reach[s])
            hits = np.flatnonzero(t < nearest)
            back = (i, int(hits[0])) if hits.size else None
        if forward and back:
            break
    return MorphismCheck(
        ok=forward is None and back is None,
        k=pm.k,
        forward_witness=forward and (src.points[forward[0]], src.points[forward[1]]),
        back_witness=back and (src.points[back[0]], tgt.points[back[1]]),
    )


def check_bounded_morphism(src: Model, tgt: Model, pm: PointMap) -> MorphismCheck:
    """Frame conditions plus atom agreement: w in V(p) iff f(w) in V'(p)."""
    result = check_frame_morphism(src.space, tgt.space, pm)
    f = pm.mapping
    names = sorted(set(src.valuation) | set(tgt.valuation))
    atom = next(
        (
            (name, w)
            for name in names
            for w in src.space.points
            if (w in src.atom_set(name)) != (f[w] in tgt.atom_set(name))
        ),
        None,
    )
    result.atom_witness = atom
    result.ok = result.ok and atom is None
    return result


@dataclass
class BilipschitzReport:
    """Two-sided distance distortion of a bijective frame morphism."""

    ok: bool
    reason: str | None = None
    #: Smallest k >= 1 with k^-1 d <= d' <= k d over all pairs.
    tightest_k: Fraction | None = None
    #: Whether the supplied constant already satisfies both inequalities.
    satisfied_by_supplied_k: bool = False


def bilipschitz_bounds(src: UltrametricSpace, tgt: UltrametricSpace, pm: PointMap) -> BilipschitzReport:
    """Tightest two-sided distortion constant of a bijective map.

    Non-bijective maps are rejected: collapsing two points makes the lower
    bound k^-1 d(x, y) <= d'(f x, f y) unsatisfiable.
    """
    image = _images(src, tgt, pm)
    if len(set(image.tolist())) != len(image) or len(image) != tgt.n:
        return BilipschitzReport(
            ok=False,
            reason="map is not a bijection onto the target, so no two-sided bound exists",
        )

    sources, targets = src.realized_distances(), tgt.realized_distances()
    src_zero, tgt_zero = (np.array([d == 0 for d in ds], dtype=bool) for ds in (sources, targets))
    # Each distinct (source rank, target rank) pair is divided once.
    seen = np.zeros((len(sources), len(targets)), dtype=bool)
    for i in range(src.n):
        s, t = src.row(i)[i + 1:], tgt.row(image[i])[image[i + 1:]]
        zero = np.flatnonzero(src_zero[s] | tgt_zero[t])
        if zero.size:
            w, v = src.points[i], src.points[i + 1 + int(zero[0])]
            return BilipschitzReport(ok=False, reason=f"degenerate zero distance on pair ({w}, {v})")
        seen[s, t] = True
    tightest = Fraction(1)
    for a, b in np.argwhere(seen).tolist():
        ratio = targets[b] / sources[a]
        tightest = max(tightest, ratio, 1 / ratio)
    return BilipschitzReport(ok=True, tightest_k=tightest, satisfied_by_supplied_k=pm.k >= tightest)
