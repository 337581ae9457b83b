"""Empirical preservation checks: unions, subspaces, morphism transfer.

Each check counts its samples and discrepancies into a
:class:`PropertyReport`, which keeps the first witness found, and
:func:`preservation_harness` bundles them over seeded random inputs.
All randomness flows from the single seed in the config, so reports are
reproducible.
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import product
from typing import Sequence

from .axioms import SCHEMA_NAMES, instantiate_axiom
from .constructions import (
    PointMap,
    check_bounded_morphism,
    disjoint_union,
    epsilon_subspace,
    scale_space,
    union_point,
)
from .formula import And, Atom, Box, Diamond, Formula, Implies, Not, Or, format_formula, grade_set
from .generators import formula_grades, random_formula, random_model, random_ultrametric_space
from .semantics import closure_mask, interior_mask, truth_mask
from .space import Model, UltrametricSpace, required_tree
from .validity import DEFAULT_CAP, valid_in_model


#: Inclusive size bounds.  Two atoms over two 6-point components make 2^24 valuations,
#: within the enumeration cap; random formulas grow about 2.7-fold per four levels of depth.
_BOUNDS = {"component_points": (1, 6), "samples": (0, 10_000), "formula_depth": (0, 12)}


@dataclass
class HarnessConfig:
    seed: int = 2024
    samples: int = 100
    formula_depth: int = 3
    component_points: int = 4
    atom_names: tuple[str, ...] = ("p", "q")

    def __post_init__(self):
        for name, (low, high) in _BOUNDS.items():
            if not low <= getattr(self, name) <= high:
                raise ValueError(f"{name} must be between {low} and {high}, not {getattr(self, name)}")


@dataclass
class PropertyReport:
    name: str
    samples: int = 0
    discrepancies: int = 0
    first_witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.discrepancies == 0

    def discrepancy(self, witness: str) -> None:
        """Count one discrepancy; the first one counted keeps its witness."""
        self.discrepancies += 1
        if self.first_witness is None:
            self.first_witness = witness


@dataclass
class HarnessReport:
    seed: int
    properties: list[PropertyReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.properties)


def axiom_instances(
    gamma: Fraction = Fraction(1, 2), delta: Fraction = Fraction(1, 4)
) -> list[tuple[str, Formula]]:
    """One canonical instance of each of the eight schemas over atoms p, q."""
    bindings = {
        "phi": Atom("p"),
        "psi": Atom("q"),
        "eps": gamma,
        "gamma": gamma,
        "delta": delta,
    }
    return [(name, instantiate_axiom(name, bindings)) for name in SCHEMA_NAMES]


def check_union_invariance(models: Sequence[Model], formulas: Sequence[Formula]) -> PropertyReport:
    """Satisfaction of each formula at component worlds is unchanged by the union."""
    union = disjoint_union(models)
    report = PropertyReport("union-invariance")
    for f in formulas:
        union_mask = truth_mask(union, f)
        for i, model in enumerate(models):
            component_mask = truth_mask(model, f)
            for w in model.space.points:
                report.samples += 1
                in_component = bool(component_mask >> model.space.leaf(w) & 1)
                in_union = bool(union_mask >> union.space.leaf(union_point(i, w)) & 1)
                if in_component != in_union:
                    report.discrepancy(f"{format_formula(f)} at component {i} world {w}")
    return report


def check_union_invariance_exhaustive(
    models: Sequence[Model],
    max_depth: int = 3,
    atom_names: Sequence[str] = ("p", "q"),
) -> PropertyReport:
    """Union invariance for every formula of height <= max_depth, by semantic closure.

    Formulas are enumerated as signatures: one leaf-order truth mask per
    component plus one for the union.  Two formulas with equal signatures
    behave identically under every constructor, so verifying each distinct
    signature once covers all formulas over the given atoms.  Grades range
    over the realized distances at most 1, which loses nothing because
    balls only change at realized radii.  The union's leaves are its
    components' leaves one after another, so its mask of a formula must be
    theirs, each shifted by the points before it.
    """
    union = disjoint_union(models)
    spaces = [m.space for m in models]
    offsets = []
    total = 0
    for s in spaces:
        offsets.append(total)
        total += s.n
    all_spaces = spaces + [union.space]
    fulls = [s.full_mask for s in all_spaces]
    grades = formula_grades(union.space)

    def consistent(sig: tuple[int, ...]) -> bool:
        expected = 0
        for i, mask in enumerate(sig[:-1]):
            expected |= mask << offsets[i]
        return sig[-1] == expected

    reps: dict[tuple[int, ...], Formula] = {}
    report = PropertyReport("union-invariance-exhaustive")

    def add(sig: tuple[int, ...], formula: Formula) -> None:
        if sig in reps:
            return
        reps[sig] = formula
        if not consistent(sig):
            report.discrepancy(format_formula(formula))

    for name in atom_names:
        add(tuple(m.leaf_mask(name) for m in models) + (union.leaf_mask(name),), Atom(name))

    for _ in range(max_depth):
        snapshot = list(reps.items())
        before = len(reps)
        for sig, f in snapshot:
            add(tuple(full ^ m for full, m in zip(fulls, sig)), Not(f))
            for g in grades:
                add(tuple(interior_mask(s, m, g) for s, m in zip(all_spaces, sig)), Box(g, f))
                add(tuple(closure_mask(s, m, g) for s, m in zip(all_spaces, sig)), Diamond(g, f))
        for (sig_a, fa), (sig_b, fb) in product(snapshot, repeat=2):
            add(tuple(a & b for a, b in zip(sig_a, sig_b)), And(fa, fb))
            add(tuple(a | b for a, b in zip(sig_a, sig_b)), Or(fa, fb))
            add(
                tuple((full ^ a) | b for full, a, b in zip(fulls, sig_a, sig_b)),
                Implies(fa, fb),
            )
        if len(reps) == before:
            # Semantic closure reached: deeper formulas cannot produce new
            # signatures, so the depth budget is already exhaustive.
            break

    report.samples = len(reps)
    return report


def check_union_validity(
    spaces: Sequence[UltrametricSpace],
    formulas: Sequence[Formula],
    cap: int = DEFAULT_CAP,
) -> PropertyReport:
    """Formulas valid on every component stay valid on the disjoint union."""
    union_space = disjoint_union([Model(s) for s in spaces]).space
    report = PropertyReport("union-validity")
    for f in formulas:
        text = format_formula(f)
        for i, s in enumerate(spaces):
            report.samples += 1
            if not valid_in_model(s, f, cap).valid:
                report.discrepancy(f"{text} invalid on component {i}")
                break
        else:
            report.samples += 1
            result = valid_in_model(union_space, f, cap)
            if not result.valid:
                report.discrepancy(f"{text} invalid on the union at world {result.witness.world}")
    return report


def check_subspace_validity(
    space: UltrametricSpace,
    formulas: Sequence[Formula],
    cap: int = DEFAULT_CAP,
) -> PropertyReport:
    """Formulas valid on the space stay valid on every ball subspace."""
    shell = Model(space)
    leaves, radii = required_tree(space)[0].tolist(), space.realized_distances()
    subspaces = []
    # Each ball once, by diameter and then by its least point, which is its first centre.
    for rank, i in sorted((rank, min(leaves[start:end])) for start, end, rank, _ in space.tree_balls()):
        point = space.points[i]
        subspaces.append((point, radii[rank], epsilon_subspace(shell, point, radii[rank]).space))

    report = PropertyReport("subspace-validity")
    for f in formulas:
        text = format_formula(f)
        report.samples += 1
        if not valid_in_model(space, f, cap).valid:
            report.discrepancy(f"{text} invalid on the parent space")
            continue
        for point, radius, sub in subspaces:
            report.samples += 1
            if not valid_in_model(sub, f, cap).valid:
                report.discrepancy(f"{text} invalid on the ball around {point} of radius {radius}")
    return report


def check_morphism_transfer(
    src: Model,
    tgt: Model,
    pm: PointMap,
    formulas: Sequence[Formula],
    grades: Sequence[Fraction] | None = None,
) -> PropertyReport:
    """Satisfaction transfer along an accepted bounded morphism.

    With k = 1 every formula must hold at w exactly when it holds at the
    image of w.  With k != 1 the exact transfer is checked for
    modality-free formulas, and diamonds over them transfer forward with
    the grade rescaled by k (when the rescaled grade stays a grade).
    """
    verdict = check_bounded_morphism(src, tgt, pm)
    if not verdict.ok:
        raise ValueError("not an accepted bounded morphism: " + "; ".join(verdict.failures()))
    if grades is None:
        grades = formula_grades(src.space)

    report = PropertyReport("morphism-transfer")

    def compare(f_src: Formula, f_tgt: Formula, forward_only: bool) -> None:
        src_mask = truth_mask(src, f_src)
        tgt_mask = truth_mask(tgt, f_tgt)
        for w in src.space.points:
            report.samples += 1
            here = bool(src_mask >> src.space.leaf(w) & 1)
            there = bool(tgt_mask >> tgt.space.leaf(pm(w)) & 1)
            bad = (here and not there) if forward_only else (here != there)
            if bad:
                report.discrepancy(f"{format_formula(f_src)} vs {format_formula(f_tgt)} at {w}")

    for f in formulas:
        if pm.k == 1:
            compare(f, f, forward_only=False)
        elif not grade_set(f):
            compare(f, f, forward_only=False)
            for eps in grades:
                if pm.k * eps <= 1:
                    compare(Diamond(eps, f), Diamond(pm.k * eps, f), forward_only=True)
    return report


def preservation_harness(config: HarnessConfig) -> HarnessReport:
    """Run all preservation checks over seeded random components."""
    rng = random.Random(config.seed)
    spaces = [
        random_ultrametric_space(rng, config.component_points, prefix=f"c{i}_")
        for i in range(2)
    ]
    models = [random_model(rng, s, config.atom_names) for s in spaces]
    union_grades = formula_grades(disjoint_union(models).space)
    formulas = [
        random_formula(rng, config.atom_names, union_grades, config.formula_depth)
        for _ in range(config.samples)
    ]
    instances = [f for _, f in axiom_instances()]

    identity = PointMap({p: p for p in spaces[0].points}, Fraction(1))
    half = Model(scale_space(spaces[0], Fraction(1, 2)), models[0].valuation)
    halving = PointMap({p: p for p in spaces[0].points}, Fraction(1, 2))

    report = HarnessReport(seed=config.seed)
    report.properties = [
        check_union_invariance(models, formulas),
        check_union_invariance_exhaustive(models, min(config.formula_depth, 3), config.atom_names),
        check_union_validity(spaces, instances),
        check_subspace_validity(spaces[0], instances),
        check_morphism_transfer(models[0], models[0], identity, formulas),
        check_morphism_transfer(models[0], half, halving, formulas),
    ]
    report.notes = [
        "grade-rescaled transfer across k != 1 morphisms is exercised forward and "
        "one modality deep; deeper reverse transfer is not covered",
    ]
    return report


def report_to_dict(report: HarnessReport) -> dict:
    """The report as plain data: its fields, each property's fields, and whether it is ``ok``."""
    return {**asdict(report), "ok": report.ok}
