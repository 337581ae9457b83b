"""Validity-preserving constructions: disjoint unions, ball subspaces, morphisms.

Disjoint unions place distinct components at the sentinel distance 2,
which no formula grade (at most 1) can reach, so each component is
modally blind to the others.  Ball subspaces restrict both distances and
the valuation.  Bounded morphisms are maps with a positive rational
scaling constant k: distances shrink forward by at most k, and target
balls pull back into k-inverse-scaled source balls.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .modelio import ModelFormatError, parse_rational, read_json
from .space import Model, UltrametricSpace, UnknownPointError

#: Distance between points of different components in a disjoint union.
UNION_DISTANCE = Fraction(2)


@dataclass
class PointMap:
    """A total point mapping together with its positive scaling constant."""

    mapping: dict[str, str]
    k: Fraction = Fraction(1)

    def __post_init__(self):
        self.k = Fraction(self.k)
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
    atom-wise across components.
    """
    if not models:
        raise ValueError("disjoint union needs at least one model")
    points = []
    offsets = []
    for i, model in enumerate(models):
        offsets.append(len(points))
        points.extend(union_point(i, p) for p in model.space.points)

    matrix = [[UNION_DISTANCE] * len(points) for _ in points]
    for i, model in enumerate(models):
        block = model.space.matrix()
        base = offsets[i]
        for a, row in enumerate(block):
            for b, d in enumerate(row):
                matrix[base + a][base + b] = d

    valuation: dict[str, set[str]] = {}
    for i, model in enumerate(models):
        for atom, members in model.valuation.items():
            valuation.setdefault(atom, set()).update(union_point(i, p) for p in members)
    return Model(UltrametricSpace(points, matrix), valuation)


def epsilon_subspace(model: Model, center: str, eps: Fraction) -> Model:
    """The closed ball around ``center`` with distances and valuation restricted."""
    space = model.space
    members = space.ball(center, eps)
    kept = [p for p in space.points if p in members]
    index = [space.index(p) for p in kept]
    m = space.matrix()
    matrix = [[m[a][b] for b in index] for a in index]
    valuation = {atom: held & members for atom, held in model.valuation.items()}
    return Model(UltrametricSpace(kept, matrix), valuation)


def scale_space(space: UltrametricSpace, factor: Fraction) -> UltrametricSpace:
    """Copy of the space with every distance multiplied by a positive factor."""
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return UltrametricSpace(space.points, [[d * factor for d in row] for row in space.matrix()])


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


def _require_total(src: UltrametricSpace, tgt: UltrametricSpace, pm: PointMap) -> None:
    for p in src.points:
        if p not in pm.mapping:
            raise ValueError(f"map is not total: source point {p!r} has no image")
        if pm.mapping[p] not in tgt:
            raise UnknownPointError(pm.mapping[p])


def check_frame_morphism(src: UltrametricSpace, tgt: UltrametricSpace, pm: PointMap) -> MorphismCheck:
    """Verify the forward and back conditions over all point pairs.

    Forward: d'(f w, f v) <= k * d(w, v) for every pair.  Back: for every
    source w and target v', some v with f(v) = v' lies within
    k^-1 * d'(f w, v') of w.  Checking at the realized distances is
    exhaustive because balls change only at realized radii.
    """
    _require_total(src, tgt, pm)
    f = pm.mapping

    forward = next(
        (
            (w, v)
            for i, w in enumerate(src.points)
            for v in src.points[i + 1:]
            if tgt.dist(f[w], f[v]) > pm.k * src.dist(w, v)
        ),
        None,
    )

    preimages: dict[str, list[str]] = {}
    for p in src.points:
        preimages.setdefault(f[p], []).append(p)
    back = next(
        (
            (w, v2)
            for w in src.points
            for v2 in tgt.points
            if not any(
                src.dist(w, v) * pm.k <= tgt.dist(f[w], v2) for v in preimages.get(v2, ())
            )
        ),
        None,
    )

    return MorphismCheck(
        ok=forward is None and back is None,
        k=pm.k,
        forward_witness=forward,
        back_witness=back,
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
    _require_total(src, tgt, pm)
    images = [pm.mapping[p] for p in src.points]
    if len(set(images)) != len(images) or len(images) != tgt.n:
        return BilipschitzReport(
            ok=False,
            reason="map is not a bijection onto the target, so no two-sided bound exists",
        )

    tightest = Fraction(1)
    for i, w in enumerate(src.points):
        for v in src.points[i + 1:]:
            d = src.dist(w, v)
            d2 = tgt.dist(pm.mapping[w], pm.mapping[v])
            if d == 0 or d2 == 0:
                return BilipschitzReport(
                    ok=False,
                    reason=f"degenerate zero distance on pair ({w}, {v})",
                )
            ratio = d2 / d
            tightest = max(tightest, ratio, 1 / ratio)
    return BilipschitzReport(ok=True, tightest_k=tightest, satisfied_by_supplied_k=pm.k >= tightest)
