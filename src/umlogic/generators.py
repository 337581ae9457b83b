"""Seeded random spaces, models, formulas, and schema instances.

Random spaces are built as laminar partition trees: the point set splits
into blocks at a descending chain of rational levels, pairs separated at
level r sit at distance exactly r, and the last level forces singletons.
That construction satisfies the strong triangle inequality by design, so
generated spaces always validate, and it is the space's single-linkage
tree: the blocks' leaves in depth-first order, with the index of the
splitting level between consecutive blocks into the list of levels
(:meth:`UltrametricSpace.from_tree`).
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .axioms import instantiate_axiom
from .formula import BINARY, And, Atom, Box, Diamond, Formula, Implies, Not, Or
from .space import Model, UltrametricSpace, read_rational

#: Default distance levels for random spaces: dyadic plus a few thirds.
LEVEL_POOL = (
    Fraction(1), Fraction(3, 4), Fraction(2, 3), Fraction(1, 2),
    Fraction(1, 3), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16),
)


def random_ultrametric_space(
    rng: random.Random,
    n_points: int,
    levels: Sequence[Fraction] | None = None,
    prefix: str = "x",
) -> UltrametricSpace:
    """A random valid ultrametric space on ``n_points`` named points."""
    if n_points < 1:
        raise ValueError("need at least one point")
    points = [f"{prefix}{i}" for i in range(n_points)]
    if levels is None:
        count = rng.randint(1, min(max(n_points - 1, 1), 4))
        levels = sorted(rng.sample(LEVEL_POOL, count), reverse=True)
    else:
        levels = sorted(map(read_rational, levels), reverse=True)
        if levels and levels[-1] <= 0:
            raise ValueError("levels must be positive")
        if not levels and n_points > 1:
            raise ValueError("levels must not be empty")

    leaves: list[int] = []
    adjacent: list[int] = []  # the index in ``levels`` of the level between each pair of adjacent leaves

    def split(group: list[int], depth: int) -> None:
        if len(group) <= 1:
            leaves.extend(group)
            return
        if depth == len(levels) - 1:
            blocks = [[i] for i in group]
        else:
            labels = [rng.randrange(len(group)) for _ in group]
            if len(set(labels)) == 1:
                labels[0] = (labels[0] + 1) % len(group)
            blocks_by_label: dict[int, list[int]] = {}
            for member, label in zip(group, labels):
                blocks_by_label.setdefault(label, []).append(member)
            blocks = list(blocks_by_label.values())
        for b, block in enumerate(blocks):
            if b:  # pairs split here sit at levels[depth], above every level inside a block
                adjacent.append(depth)
            split(block, depth + 1)

    split(list(range(n_points)), 0)
    return UltrametricSpace.from_tree(points, levels, leaves, adjacent)


def random_subset(rng: random.Random, points: Sequence[str]) -> frozenset[str]:
    return frozenset(p for p in points if rng.random() < 0.5)


def random_model(rng: random.Random, space: UltrametricSpace, atom_names: Sequence[str]) -> Model:
    return Model(space, {name: random_subset(rng, space.points) for name in atom_names})


def random_formula(
    rng: random.Random,
    atom_names: Sequence[str],
    grades: Sequence[Fraction],
    max_depth: int,
) -> Formula:
    """A random formula of height at most ``max_depth`` over the given atoms and grades."""
    if max_depth <= 0:
        return Atom(rng.choice(list(atom_names)))
    cls = rng.choice((Atom, Not, And, Or, Implies, Box, Diamond))
    if cls is Atom:
        return Atom(rng.choice(list(atom_names)))
    if cls is Not:
        return Not(random_formula(rng, atom_names, grades, max_depth - 1))
    if cls in BINARY:  # the left operand is drawn first
        return cls(random_formula(rng, atom_names, grades, max_depth - 1),
                   random_formula(rng, atom_names, grades, max_depth - 1))
    grade = rng.choice(list(grades))  # the grade is drawn before the operand
    return cls(grade, random_formula(rng, atom_names, grades, max_depth - 1))


def formula_grades(space: UltrametricSpace) -> list[Fraction]:
    """Grades worth probing on a space: realized distances clipped to [0, 1], plus 1."""
    grades = {d for d in space.realized_distances() if d <= 1}
    grades.add(Fraction(0))
    grades.add(Fraction(1))
    return sorted(grades)


def random_schema_instance(
    rng: random.Random,
    name: str,
    atom_names: Sequence[str],
    grades: Sequence[Fraction],
    formula_depth: int = 2,
) -> tuple[Formula, dict]:
    """A random concrete instance of the named axiom schema."""
    bindings: dict = {"phi": random_formula(rng, atom_names, grades, formula_depth)}
    if name == "K":
        bindings["psi"] = random_formula(rng, atom_names, grades, formula_depth)
    if name.startswith("TI") or name == "UM3":
        gamma, delta = rng.choice(list(grades)), rng.choice(list(grades))
        if name == "UM3" and gamma < delta:
            gamma, delta = delta, gamma
        bindings["gamma"] = gamma
        bindings["delta"] = delta
    else:
        bindings.setdefault("eps", rng.choice(list(grades)))
    return instantiate_axiom(name, bindings), bindings
