from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import umlogic.space as space_module
from umlogic.space import Model, UltrametricSpace, cantor_sequences


def dense_table(space: UltrametricSpace) -> tuple[tuple[Fraction, ...], ...]:
    """The exact distance table of a space, built from its rows of ranks in test code."""
    distances = space.realized_distances()
    return tuple(tuple(distances[r] for r in space.row(i).tolist()) for i in range(space.n))


def held_as_table(space: UltrametricSpace) -> UltrametricSpace:
    """The same points and distances held as a table with no tree, read row by row as a space that breaks a law is.

    The table is set up from the space's rows of ranks, one byte per entry
    on the test spaces, so ``cantor_space(12)`` takes 16 MB.
    """
    ranks = np.stack([space.row(i) for i in range(space.n)]) if space.n else np.zeros((0, 0), dtype=np.intp)
    table = UltrametricSpace.__new__(UltrametricSpace)
    with mock.patch.object(space_module, "_single_linkage", lambda rank: None):
        table._setup(space.points, list(space.realized_distances()), ranks)
    assert table.tree is None
    return table


def point_mask(space: UltrametricSpace, mask: int) -> int:
    """A leaf-order ``mask`` in point order, bit i for point i: the reference read of the library's one mask order.

    Bit k of ``mask`` is the point at leaf k, ``tree[0][k]``; a space
    without a tree is its own leaf order.
    """
    leaves = range(space.n) if space.tree is None else space.tree[0].tolist()
    return sum(1 << i for k, i in enumerate(leaves) if mask >> k & 1)


def point_names(space: UltrametricSpace, mask: int) -> frozenset[str]:
    """The names of the points set in a point-order ``mask``, bit i for point i."""
    return frozenset(x for i, x in enumerate(space.points) if mask >> i & 1)


def w_named_space(depth: int) -> UltrametricSpace:
    """Binary-history space with points renamed w0, w1, ... in event-tree order."""
    sequences = cantor_sequences(depth)
    names = [f"w{i}" for i in range(len(sequences))]
    return UltrametricSpace.from_sequences(names, dict(zip(names, sequences)))


@pytest.fixture
def w_model() -> Model:
    """Depth-3 event-tree model: p on {w0, w1}, q on {w0..w3}."""
    return Model(w_named_space(3), {"p": ["w0", "w1"], "q": ["w0", "w1", "w2", "w3"]})


@pytest.fixture
def triangle_space() -> UltrametricSpace:
    """Plain-metric triangle (1/2, 1/2, 1): valid metric, not an ultrametric."""
    return UltrametricSpace.from_pairs(
        ["a", "b", "c"],
        {("a", "b"): Fraction(1, 2), ("b", "c"): Fraction(1, 2), ("a", "c"): Fraction(1)},
    )
