"""Differential tests: evaluation over each grade's ball partition against the per-world loops.

Interior, closure and the evaluator shared by truth sets and validity
(``semantics.evaluate``, run on numpy batches here) take one step per
distinct ball of a grade (``UltrametricSpace.ball_partition``) and set
all of the ball's centres at once, on the formula as parsed.  The
references below are the earlier loops on the desugared formula, one step
per world, reading each world's ball straight from the dense Fraction
table (``ref_ball_masks``), so they share no code with the partition
cache or the evaluator; ``ref_valid_in_model`` is the earlier enumeration
driven by ``ref_eval_chunk``.  The spaces are those of ``test_rank_table``:
generated ultrametrics, history spaces with duplicate points, and broken
or perturbed tables, where a ball's centres differ from its members.
"""
import random

import numpy as np
import pytest

from test_rank_table import CASES, IDS, probe_grades, ref_ball_masks, ref_realized
from umlogic.formula import And, Atom, Box, Not, atoms, desugar, subformulas
from umlogic.generators import random_formula, random_schema_instance
from umlogic.semantics import closure_mask, evaluate, interior_mask
from umlogic.validity import Counterexample, ValidityResult, valid_in_model


# --- the replaced per-world loops --------------------------------------------

def ref_interior(table, mask, eps):
    result = 0
    for i, ball in enumerate(ref_ball_masks(table, eps)):
        if ball & mask == ball:
            result |= 1 << i
    return result


def ref_closure(table, mask, eps):
    result = 0
    for i, ball in enumerate(ref_ball_masks(table, eps)):
        if ball & mask:
            result |= 1 << i
    return result


def ref_eval_chunk(space, order, atom_arrays, size):
    """The earlier ``validity._eval_chunk``: one numpy pass per world for every box."""
    table = space.matrix()
    full = np.uint64(space.full_mask)
    values = {}
    for g in order:
        if isinstance(g, Atom):
            values[g] = atom_arrays[g.name]
        elif isinstance(g, Not):
            values[g] = full ^ values[g.sub]
        elif isinstance(g, And):
            values[g] = values[g.left] & values[g.right]
        elif isinstance(g, Box):
            sub = values[g.sub]
            acc = np.zeros(size, dtype=np.uint64)
            for w, ball in enumerate(ref_ball_masks(table, g.grade)):
                b = np.uint64(ball)
                acc |= ((sub & b) == b).astype(np.uint64) << np.uint64(w)
            values[g] = acc
        else:
            raise TypeError(f"not a core formula: {g!r}")
    return values[order[-1]]


def ref_valid_in_model(space, f, chunk=1 << 18):
    """The earlier ``validity.valid_in_model``: desugar, then enumerate with ``ref_eval_chunk``."""
    names = sorted(atoms(f))
    n = space.n
    total = 1 << (n * len(names))
    order = subformulas(desugar(f))
    full = space.full_mask
    point_bits = np.uint64(full)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.uint64)
        atom_arrays = {
            name: (idx >> np.uint64(j * n)) & point_bits for j, name in enumerate(names)
        }
        result = ref_eval_chunk(space, order, atom_arrays, stop - start)
        bad = np.nonzero(result != point_bits)[0]
        if bad.size:
            encoded = int(idx[bad[0]])
            held = int(result[bad[0]])
            valuation = {
                name: space.names_of(encoded >> (j * n) & full) for j, name in enumerate(names)
            }
            world = next(space.points[i] for i in range(n) if not held >> i & 1)
            return ValidityResult(False, Counterexample(valuation, world), start + int(bad[0]) + 1)
    return ValidityResult(True, None, total)


def sample_masks(rng, n, count=12):
    return [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(count)]


def formula_grades(table):
    """The probe grades that a modality can carry, those in [0, 1]."""
    return [g for g in probe_grades(ref_realized(table)) if 0 <= g <= 1]


def sample_formulas(rng, grades, count):
    return [random_formula(rng, ("p", "q"), grades, 3) for _ in range(count)]


# --- the comparisons ---------------------------------------------------------

@pytest.mark.parametrize("label, space, table", CASES, ids=IDS)
class TestAgainstPerWorldLoops:
    def test_partition_shape(self, label, space, table):
        for eps in probe_grades(ref_realized(table)):
            pairs = space.ball_partition(eps)
            centres = [c for _, c in pairs]
            assert sum(centres) == space.full_mask
            assert all(a & b == 0 for i, a in enumerate(centres) for b in centres[i + 1:])
            assert centres == sorted(centres, key=lambda c: c & -c)
            masks = ref_ball_masks(table, eps)
            for ball, held in pairs:
                assert all(masks[i] == ball for i in space.members(held).tolist())

    def test_interior_and_closure(self, label, space, table):
        rng = random.Random(label)
        for eps in probe_grades(ref_realized(table)):
            for mask in sample_masks(rng, space.n):
                assert interior_mask(space, mask, eps) == ref_interior(table, mask, eps)
                assert closure_mask(space, mask, eps) == ref_closure(table, mask, eps)

    def test_eval_chunk(self, label, space, table):
        if space.n > 64:
            pytest.skip("a chunk holds at most 64 points per valuation")
        rng = random.Random(label)
        arrays = np.random.default_rng(len(label))
        full = np.uint64(space.full_mask)
        size = 257
        top = np.iinfo(np.uint64).max
        atom_arrays = {
            name: arrays.integers(0, top, size, dtype=np.uint64, endpoint=True) & full
            for name in ("p", "q")
        }
        for f in sample_formulas(rng, formula_grades(table), 12):
            got = evaluate(space, f, atom_arrays.__getitem__, full)
            want = ref_eval_chunk(space, subformulas(desugar(f)), atom_arrays, size)
            assert np.array_equal(got, want), f

    def test_valid_in_model(self, label, space, table):
        rng = random.Random(label)
        grades = formula_grades(table)
        formulas = sample_formulas(rng, grades, 6)
        for name in ("K", "T", "UM1", "TI", "UM2", "UM3", "D", "UM4"):
            formulas.append(random_schema_instance(rng, name, ("p", "q"), grades, formula_depth=1)[0])
        formulas = [f for f in formulas if space.n * len(atoms(f)) <= 16]
        for f in formulas:
            assert valid_in_model(space, f) == ref_valid_in_model(space, f), f
