"""The one mask order: every mask the library takes or returns is in leaf order, names only at the edge.

Bit k of a mask is the point at leaf k of the space's tree, and a space
without a tree is its own leaf order.  Names cross into that order through
``mask_of`` and out of it through ``names_of``.  Each check here goes in
by names and comes out by names, against a per-world reference that reads
only ``dist`` and point names, so no mask order is assumed by the
reference.  The spaces are those whose leaf order is neither point order
nor its reverse: the CI's shuffled ``cantor`` file at depth 3, a union of
two shuffled components, and a shuffled matrix, whose tree is Prim's.  A
broken table, held as a table, is its own leaf order.
"""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from umlogic.constructions import disjoint_union, union_point
from umlogic.formula import And, Atom, Box, Diamond, Implies, Not, Or
from umlogic.generators import random_formula, random_ultrametric_space
from umlogic.semantics import closure_mask, interior_mask, truth_mask
from umlogic.space import Model, UltrametricSpace, cantor_sequences

#: The order in which the CI's shuffled ``cantor`` file lists the points w0 .. w7.
CI_SHUFFLE = (5, 2, 7, 0, 3, 6, 1, 4)


def shuffled_cantor(depth, order, prefix="w"):
    """The ``cantor`` file of the given depth, w0, w1, ... in event-tree order, with its points listed in ``order``."""
    sequences = cantor_sequences(depth)
    names = [f"{prefix}{i}" for i in range(len(sequences))]
    return UltrametricSpace.from_sequences([names[i] for i in order], dict(zip(names, sequences)))


def shuffled_matrix(seed, n):
    """A generated table with its points listed in a shuffled order, read back as a matrix, so its tree is Prim's."""
    source = random_ultrametric_space(random.Random(seed), n, prefix="m")
    order = random.Random(seed + 1).sample(range(n), n)
    points = [source.points[i] for i in order]
    return UltrametricSpace(points, [[source.dist(x, y) for y in points] for x in points])


def union_parts():
    """Two shuffled components: a depth-2 ``cantor`` file and a 5-point matrix."""
    return [Model(shuffled_cantor(2, (2, 0, 3, 1), "v"), {"p": ["v0", "v3"], "q": ["v1"]}),
            Model(shuffled_matrix(7, 5), {"p": ["m1", "m4"], "q": ["m0", "m2", "m3"]})]


BROKEN = UltrametricSpace(list("abcd"), [["1/8", "1/4", 1, 1], ["1/4", 0, 1, 1], [1, 1, 0, "1/2"], [1, 1, "1/2", 0]])

SPACES = {
    "shuffled-cantor": shuffled_cantor(3, CI_SHUFFLE),
    "union": disjoint_union(union_parts()).space,
    "shuffled-matrix": shuffled_matrix(3, 9),
    "broken-table": BROKEN,
}


def subsets(points):
    return [frozenset(chosen) for size in range(len(points) + 1) for chosen in combinations(points, size)]


def grades(space):
    """Every realized distance, and a negative radius, whose balls are empty."""
    return space.realized_distances() + [Fraction(-1)]


def ref_balls(space, eps):
    """Each point's closed eps-ball, by names, read from ``dist`` alone."""
    return {x: frozenset(y for y in space.points if space.dist(x, y) <= eps) for x in space.points}


def ref_truth(space, f, valuation):
    """The points where ``f`` holds, one world at a time, by names."""
    if isinstance(f, Atom):
        return frozenset(valuation.get(f.name, ()))
    if isinstance(f, Not):
        return frozenset(space.points) - ref_truth(space, f.sub, valuation)
    if isinstance(f, (Box, Diamond)):
        held, balls = ref_truth(space, f.sub, valuation), ref_balls(space, f.grade)
        if isinstance(f, Box):
            return frozenset(x for x in space.points if balls[x] <= held)
        return frozenset(x for x in space.points if balls[x] & held)
    left, right = ref_truth(space, f.left, valuation), ref_truth(space, f.right, valuation)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    assert isinstance(f, Implies)
    return (frozenset(space.points) - left) | right


def test_the_leaf_orders_are_neither_point_order_nor_its_reverse():
    for label in ("shuffled-cantor", "union", "shuffled-matrix"):
        leaves = SPACES[label].tree[0].tolist()
        assert leaves not in (list(range(len(leaves))), list(range(len(leaves)))[::-1]), label
        assert SPACES[label].leaves.tolist() == leaves, label
    assert BROKEN.tree is None
    assert BROKEN.leaves.tolist() == list(range(BROKEN.n)) and not BROKEN.leaves.flags.writeable


@pytest.mark.parametrize("label", SPACES)
def test_names_cross_the_edge_both_ways(label):
    """``names_of(mask_of(A)) == A`` for every subset A; ``leaf`` is each point's bit, and the bits are all distinct."""
    space = SPACES[label]
    for chosen in subsets(space.points):
        mask = space.mask_of(chosen)
        assert space.names_of(mask) == chosen
        assert mask == sum(1 << space.leaf(x) for x in chosen)
    assert sorted(space.leaf(x) for x in space.points) == list(range(space.n))


@pytest.mark.parametrize("label", SPACES)
def test_interior_and_closure_by_names(label):
    """For every subset and every realized grade, interior and closure against each point's ball read from ``dist``."""
    space = SPACES[label]
    for eps in grades(space):
        balls = ref_balls(space, eps)
        for chosen in subsets(space.points):
            mask = space.mask_of(chosen)
            assert space.names_of(interior_mask(space, mask, eps)) == {x for x in space.points if balls[x] <= chosen}
            assert space.names_of(closure_mask(space, mask, eps)) == {x for x in space.points if balls[x] & chosen}


@pytest.mark.parametrize("label", SPACES)
def test_truth_masks_by_names(label):
    """``names_of(truth_mask(...))`` of random formulas over the realized grades up to 1, against the per-world reference."""
    space, rng = SPACES[label], random.Random(label)
    formula_grades = [g for g in space.realized_distances() if g <= 1]
    for _ in range(4):
        valuation = {name: [x for x in space.points if rng.random() < 0.5] for name in ("p", "q")}
        model = Model(space, valuation)
        for _ in range(15):
            f = random_formula(rng, ("p", "q"), formula_grades, 4)
            assert space.names_of(truth_mask(model, f)) == ref_truth(space, f, valuation), f


def test_a_union_mask_is_its_components_masks_shifted_by_their_offsets():
    """The union's leaves are its components' leaves one after another, so its atom and truth masks are theirs, shifted."""
    models = union_parts()
    union = disjoint_union(models)
    offsets = [0, models[0].space.n]
    for i, model in enumerate(models):
        for x in model.space.points:
            assert union.space.leaf(union_point(i, x)) == offsets[i] + model.space.leaf(x)
    f = Implies(Diamond(Fraction(1, 2), Atom("p")), Box(Fraction(1, 4), Or(Atom("q"), Not(Atom("p")))))
    for mask_of in (lambda m: m.leaf_mask("p"), lambda m: m.leaf_mask("q"), lambda m: truth_mask(m, f)):
        assert mask_of(union) == sum(mask_of(model) << offset for model, offset in zip(models, offsets))
