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

A single truth set on a space with a tree takes each modal step in leaf
order instead (``semantics._leaf_step``); it is compared with the same
per-world loops on every tree here, and whole truth sets at fine grades
on ``cantor_space(12)`` with evaluation by the per-ball step.

``test_leaf_names`` reads the names of a leaf-order mask, as ``truthset``
does, against unpacking it to point order first.

``test_slot_programs`` runs ``evaluate`` through the formula's compiled
slot program (``semantics._program``) on formulas over all seven
constructors with shared subtrees, on each path: leaf steps, per-ball
steps on one int, and batches by table and per ball.

A batch over n points with 2^n <= ``semantics.CHUNK`` takes each modal
step as a lookup in a table that the per-ball step built over all 2^n
masks (``UltrametricSpace.step_table``); batches come in every unsigned
type that holds n bits.  The batch tests run on both sides of that
threshold, lowering ``CHUNK`` below 2^n for the per-ball side, and
``valid_in_model`` is compared on each side of the dtype and table bounds.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import dense_table
from test_rank_table import CASES, IDS, probe_grades, ref_ball_masks, ref_realized
from umlogic import semantics
from umlogic.formula import And, Atom, Box, Diamond, Implies, Not, Or, atoms, desugar, subformulas
from umlogic.generators import random_formula, random_schema_instance, random_ultrametric_space
from umlogic.parser import parse
from umlogic.semantics import _ball_step, _leaf_step, closure_mask, evaluate, interior_mask, truth_mask
from umlogic.space import Model, cantor_space
from umlogic.validity import Counterexample, ValidityResult, valid_in_model

BATCH_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


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


def ref_truth(table, f, valuation):
    """Truth mask of a desugared formula by the per-world loops; ``valuation`` maps atoms to masks."""
    if isinstance(f, Atom):
        return valuation.get(f.name, 0)
    if isinstance(f, Not):
        return (1 << len(table)) - 1 ^ ref_truth(table, f.sub, valuation)
    if isinstance(f, And):
        return ref_truth(table, f.left, valuation) & ref_truth(table, f.right, valuation)
    if isinstance(f, Box):
        return ref_interior(table, ref_truth(table, f.sub, valuation), f.grade)
    raise TypeError(f"not a core formula: {f!r}")


def ref_eval_chunk(space, order, atom_arrays, size):
    """The earlier ``validity._eval_chunk``: one numpy pass per world for every box."""
    table = dense_table(space)
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

    def test_truth_mask(self, label, space, table):
        """Whole truth sets, by the leaf step on a tree and per ball otherwise, against the per-world loops."""
        rng = random.Random(label)
        valuation = {name: rng.getrandbits(space.n) for name in ("p", "q")}
        model = Model(space, {name: space.names_of(mask) for name, mask in valuation.items()})
        for f in sample_formulas(rng, formula_grades(table), 12):
            assert truth_mask(model, f) == ref_truth(table, desugar(f), valuation), f

    def test_eval_chunk(self, label, space, table, monkeypatch):
        if space.n > 64:
            pytest.skip("a chunk holds at most 64 points per valuation")
        rng = random.Random(label)
        arrays = np.random.default_rng(len(label))
        size = 257
        top = np.iinfo(np.uint64).max
        atom_arrays = {
            name: arrays.integers(0, top, size, dtype=np.uint64, endpoint=True) & np.uint64(space.full_mask)
            for name in ("p", "q")
        }
        formulas = sample_formulas(rng, formula_grades(table), 12)
        wants = [ref_eval_chunk(space, subformulas(desugar(f)), atom_arrays, size) for f in formulas]
        modal = any(isinstance(g, (Box, Diamond)) for f in formulas for g in subformulas(f))
        tables = []
        step_table = space.step_table
        monkeypatch.setattr(space, "step_table", lambda *args: tables.append(args) or step_table(*args))
        # The real threshold (by table up to 18 points), then one just below 2^n (per ball).
        for chunk in (semantics.CHUNK, (1 << space.n) - 1):
            monkeypatch.setattr(semantics, "CHUNK", chunk)
            tables.clear()
            for dtype in (d for d in BATCH_DTYPES if np.iinfo(d).bits >= space.n):
                narrow = {name: values.astype(dtype) for name, values in atom_arrays.items()}
                for f, want in zip(formulas, wants):
                    got = evaluate(space, f, narrow.__getitem__, dtype(space.full_mask))
                    assert got.dtype == dtype and np.array_equal(got, want), (f, dtype, chunk)
            assert bool(tables) == (modal and 1 << space.n <= chunk)

    def test_valid_in_model(self, label, space, table):
        rng = random.Random(label)
        grades = formula_grades(table)
        formulas = sample_formulas(rng, grades, 6)
        for name in ("K", "T", "UM1", "TI", "UM2", "UM3", "D", "UM4"):
            formulas.append(random_schema_instance(rng, name, ("p", "q"), grades, formula_depth=1)[0])
        formulas = [f for f in formulas if space.n * len(atoms(f)) <= 16]
        for f in formulas:
            assert valid_in_model(space, f) == ref_valid_in_model(space, f), f


TREE_CASES = [case for case in CASES if case[1].tree is not None]


@pytest.mark.parametrize("label, space, table", TREE_CASES, ids=[label for label, _, _ in TREE_CASES])
def test_leaf_step(label, space, table):
    """On a tree, the step in leaf order against the per-world loops, at every probe grade."""
    rng = random.Random(label)
    for eps in probe_grades(ref_realized(table)):
        for mask in sample_masks(rng, space.n):
            leaves, rank = space.to_leaves(mask), space.rank_of(eps)
            assert space.from_leaves(_leaf_step(space, leaves, rank, False)) == ref_interior(table, mask, eps)
            assert space.from_leaves(_leaf_step(space, leaves, rank, True)) == ref_closure(table, mask, eps)


@pytest.mark.parametrize("label, space, table", CASES, ids=IDS)
def test_leaf_names(label, space, table):
    """Names read straight from a leaf-order mask, as ``truthset`` reads them, against unpacking it first."""
    rng = random.Random(label)
    for mask in sample_masks(rng, space.n):
        assert space.leaf_names(mask) == space.names_of(space.from_leaves(mask))
    model = Model(space, {name: [x for x in space.points if rng.random() < 0.5] for name in ("p", "q")})
    for f in sample_formulas(rng, formula_grades(table), 6):
        assert semantics.truthset(model, f).points == space.names_of(truth_mask(model, f))


def seven_constructor_formulas(grades):
    """Formulas over all seven constructors, with subtrees shared by identity and by equality alone."""
    g, h = grades[len(grades) // 2], grades[-1]
    p, q = Atom("p"), Atom("q")
    box = Box(g, Implies(p, q))
    twin = Box(g, Implies(Atom("p"), Atom("q")))  # equal to ``box``, another object
    return [
        And(Or(box, Not(twin)), Diamond(h, box)),
        Implies(Diamond(g, Or(p, Not(q))), Box(h, Diamond(g, Or(Atom("p"), Not(Atom("q")))))),
        Not(And(Diamond(grades[0], p), Diamond(grades[0], p))),
        p,
    ]


@pytest.mark.parametrize("label, space, table", CASES, ids=IDS)
def test_slot_programs(label, space, table, monkeypatch):
    """``evaluate`` through the slot program on every path: leaf steps, per-ball steps and batches, against the per-world loops."""
    formulas = seven_constructor_formulas(formula_grades(table))
    programs = [semantics._program(f) for f in formulas]
    assert [len(program) for program in programs] == [8, 7, 4, 1]  # one step per distinct subformula
    assert {op for program in programs for op, _, _ in program} == {Atom, Not, And, Or, Implies, Box, Diamond}
    steps = []
    for name in ("_leaf_step", "_ball_step"):
        step = getattr(semantics, name)
        monkeypatch.setattr(semantics, name, lambda *args, name=name, step=step: steps.append(name) or step(*args))
    step_table = space.step_table
    monkeypatch.setattr(space, "step_table", lambda *args: steps.append("step_table") or step_table(*args))

    rng = random.Random(label)
    valuations = [{name: rng.getrandbits(space.n) for name in ("p", "q")} for _ in range(6)]
    wants = [[ref_truth(table, desugar(f), valuation) for valuation in valuations] for f in formulas]
    for valuation, column in zip(valuations, zip(*wants)):
        model = Model(space, {name: space.names_of(mask) for name, mask in valuation.items()})
        for f, want in zip(formulas, column):
            steps.clear()
            assert space.from_leaves(evaluate(space, f, model.leaf_mask, space.full_mask)) == want, f
            assert set(steps) <= {"_leaf_step" if space.tree is not None else "_ball_step"}

    batch = {name: np.array([valuation[name] for valuation in valuations], dtype=np.uint64) for name in ("p", "q")}
    # The real threshold (by table up to 18 points), then one just below 2^n (per ball).
    for chunk in (semantics.CHUNK, (1 << space.n) - 1):
        monkeypatch.setattr(semantics, "CHUNK", chunk)
        lookup = 1 << space.n <= chunk
        for f, program, want in zip(formulas, programs, wants):
            steps.clear()
            got = evaluate(space, f, batch.__getitem__, np.uint64(space.full_mask))
            assert got.tolist() == want, (f, chunk)
            modal = any(op in (Box, Diamond) for op, _, _ in program)
            assert ("step_table" in steps) == (modal and lookup) and "_leaf_step" not in steps


def per_ball_truth(model, f):
    """Truth mask of ``f`` in point order, every modal step taken per ball by ``interior_mask``/``closure_mask``."""
    space, full = model.space, model.space.full_mask
    if isinstance(f, Atom):
        return model.atom_mask(f.name)
    if isinstance(f, Not):
        return full ^ per_ball_truth(model, f.sub)
    if isinstance(f, (Box, Diamond)):
        step = closure_mask if isinstance(f, Diamond) else interior_mask
        return step(space, per_ball_truth(model, f.sub), f.grade)
    left, right = per_ball_truth(model, f.left), per_ball_truth(model, f.right)
    return {And: left & right, Or: left | right, Implies: (full ^ left) | right}[type(f)]


def test_fine_grade_truth_masks_on_4096_worlds():
    """Grades down to single worlds on ``cantor_space(12)``: the leaf step against per-ball evaluation."""
    space, rng = cantor_space(12), random.Random(4096)
    model = Model(space, {name: [x for x in space.points if rng.random() < 0.5] for name in ("p", "q")})
    texts = ["[1/4096]<1/2048>p -> <1/1024>[1/8192]p", "<1/4096>(p & [1/8192]~q) | [1/2]<1/4096>q",
             "[0]p <-> p", "<1>[1/3]p & ~[1/4095]<1/4097>(q -> p)"]
    grades = [Fraction(1, 2 ** k) for k in range(14)] + [Fraction(0), Fraction(3, 8192)]
    formulas = [parse(text) for text in texts] + [random_formula(rng, ("p", "q"), grades, 4) for _ in range(6)]
    for f in formulas:
        assert truth_mask(model, f) == per_ball_truth(model, f), f


# --- the dtype and table bounds ----------------------------------------------

@pytest.mark.parametrize("n", [8, 9, 16, 17, 18, 19])
def test_valid_in_model_at_bounds(n):
    """uint8 up to 8 points, uint16 up to 16, tables up to 18; one atom past 9 keeps this fast."""
    rng = random.Random(n)
    space = random_ultrametric_space(rng, n)
    grades = formula_grades(dense_table(space))
    names = ("p", "q") if n <= 9 else ("p",)
    formulas = [random_schema_instance(rng, schema, names, grades, formula_depth=1)[0]
                for schema in ("K", "T", "UM3", "D")]
    # Refuted early, late (p everywhere: the last candidate, in the second
    # chunk at 19 points) and by a diamond; then valid with a diamond.
    texts = ["<1/2>p -> [1/2]p", "~[1]p", "<1/4>p -> p", "p -> <1/4>[1/2]<1/2>p"]
    if len(names) == 2:
        texts += ["[1/2](p -> q) -> ([1/2]p -> [1/2]q)", "<1/2>p & <1/2>q -> <1/2>(p & q)"]
    formulas += [parse(text) for text in texts]
    for f in formulas:
        assert valid_in_model(space, f) == ref_valid_in_model(space, f), f


def test_step_tables_are_read_only_and_per_space():
    first, second = (random_ultrametric_space(random.Random(3), 9) for _ in range(2))
    assert dense_table(first) == dense_table(second)
    grade = first.realized_distances()[1]
    above = (grade + first.realized_distances()[2]) / 2
    for meets in (False, True):
        for dtype in map(np.dtype, BATCH_DTYPES[1:]):
            table = first.step_table(grade, meets, dtype, _ball_step)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0
            # Cached per rank: a grade between the same two distances gets the same table.
            assert first.step_table(above, meets, dtype, _ball_step) is table
            other = second.step_table(grade, meets, dtype, _ball_step)
            assert np.array_equal(other, table) and not np.shares_memory(other, table)
