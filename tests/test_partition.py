"""Differential tests: evaluation over each grade's balls against the per-world loops.

Interior, closure and the evaluator shared by truth sets and validity
(``semantics.evaluate``, run on numpy batches here) take one step per
distinct ball of a grade and set all of the ball's centres at once, on
the formula as parsed; a tree keeps those balls as runs of adjacent
leaves (``UltrametricSpace.runs`` and ``tops``).  A space without a tree
reads each point's ball from its own table row instead
(``UltrametricSpace.table_balls``), one step per point.  Every step takes
the grade's rank (``UltrametricSpace.rank_of``).  The references below
are the earlier loops on the desugared formula, one step per world,
reading each world's ball straight from the dense Fraction table
(``ref_ball_masks``), so they share no code with the ball caches or the
evaluator; ``ref_valid_in_model`` is the earlier enumeration driven
by ``ref_eval_chunk``.  The spaces are those of ``test_rank_table``:
generated ultrametrics, history spaces with duplicate points, and broken
or perturbed tables, where a ball's centres differ from its members.
``held_as_table`` holds a tree's points and distances as a table, so the
per-ball path in point order is a second reference on every tree.

A single truth set on a space with a tree takes each modal step in leaf
order instead (``semantics._leaf_step``); it is compared with the same
per-world loops on every tree here, and whole truth sets at fine grades
on ``cantor_space(12)`` with evaluation by the per-ball step on the
same space held as a table.  Every mask the library takes or returns is
in leaf order, so each comparison reads it in point order through the
reference ``point_mask``, and builds valuations from point-order masks
through their names (``point_names``).

``test_leaf_names`` reads the names of a leaf-order mask, as ``truthset``
does, against reading it in point order first.

``test_slot_programs`` runs ``evaluate`` through the formula's compiled
slot program (``semantics._program``) on formulas over all seven
constructors with shared subtrees, on each path: leaf steps, per-ball
steps on one int, and bit-sliced batches.

A batch is bit-sliced: one ``uint64`` row per point, one bit per
valuation, with its rows in leaf order on a tree (``in_leaf_order``), so
a modal step ANDs or ORs each run of rows over a view
(``semantics._row_step``); a space without a tree keeps point order and
reduces each point's ball into the point's row.  ``to_rows`` and
``to_masks`` turn per-valuation masks into point-order rows and back, so
a batch is compared with the per-world loops one valuation at a time.
``valid_in_model`` is compared with the earlier vectorised enumeration
and, witness and count included, with ``ref_valid_by_valuation``, which
evaluates one valuation at a time as Python ints through the per-ball
step (``semantics._ball_step``) on the space held as a table, on every case and with blocks of 1, 4
and the real number of words, so that totals fall below 64, at 64,
inside one partial block and across many blocks.  Every block of one
call is written into the same array of rows, and no step writes into
the candidate rows that its atoms read
(``test_valid_in_model_writes_every_block_into_one_array``).
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import dense_table, held_as_table, point_mask, point_names
from test_rank_table import (CASES, HISTORY_CASES, IDS, LEAF_CASES, SPREAD_CASES, listed_tree_balls, probe_grades,
                             ref_ball_masks, ref_distinct_balls, ref_realized, tree_grades)
from umlogic import semantics, validity
from umlogic.formula import And, Atom, Box, Diamond, Implies, Not, Or, atoms, desugar, subformulas
from umlogic.generators import random_formula, random_schema_instance, random_ultrametric_space
from umlogic.parser import parse
from umlogic.semantics import _ball_step, _leaf_step, closure_mask, evaluate, interior_mask, truth_mask
from umlogic.space import Model, cantor_space
from umlogic.validity import Counterexample, EnumerationCapExceeded, ValidityResult, valid_in_model

ONES = np.uint64(np.iinfo(np.uint64).max)


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
                name: point_names(space, encoded >> (j * n) & full) for j, name in enumerate(names)
            }
            world = next(space.points[i] for i in range(n) if not held >> i & 1)
            return ValidityResult(False, Counterexample(valuation, world), start + int(bad[0]) + 1)
    return ValidityResult(True, None, total)


def ref_valid_by_valuation(space, f, limit):
    """Validity one valuation at a time, in ascending encoding, on Python ints by ``per_ball_truth``.

    A space with a tree is read as ``held_as_table``, so no step goes
    through the tree.  Returns None when none of the first ``limit``
    valuations refutes ``f`` and there are more than ``limit``.
    """
    names = sorted(atoms(f))
    n = space.n
    table = space if space.tree is None else held_as_table(space)
    total = 1 << (n * len(names))
    for encoded in range(min(total, limit)):
        masks = {name: encoded >> (j * n) & space.full_mask for j, name in enumerate(names)}
        false = space.full_mask ^ per_ball_truth(table, f, masks)
        if false:
            valuation = {name: point_names(space, mask) for name, mask in masks.items()}
            world = space.points[(false & -false).bit_length() - 1]
            return ValidityResult(False, Counterexample(valuation, world), encoded + 1)
    return ValidityResult(True, None, total) if total <= limit else None


def to_rows(masks, n):
    """Bit-sliced rows of per-valuation point masks: bit t of word w in row i is bit i of ``masks[64 * w + t]``."""
    words = -(-len(masks) // 64)
    ints = [sum((int(mask) >> i & 1) << v for v, mask in enumerate(masks)) for i in range(n)]
    data = b"".join(x.to_bytes(8 * words, "little") for x in ints)
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(n, words)


def to_masks(rows, count):
    """The point masks of the first ``count`` valuations in bit-sliced rows, as Python ints."""
    ints = [int.from_bytes(row.astype("<u8").tobytes(), "little") for row in rows]
    return [sum((x >> v & 1) << i for i, x in enumerate(ints)) for v in range(count)]


def in_leaf_order(space, rows):
    """Point-order batch rows in the space's leaf order, the order ``evaluate`` takes them in."""
    return rows if space.tree is None else rows[space.tree[0]]


def in_point_order(space, rows):
    """Leaf-order batch rows back in point order."""
    return rows[[space.leaf(x) for x in space.points]]


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
        """A table's ball per point, or a tree's runs of leaves, against each point's ball in the table."""
        for eps in probe_grades(ref_realized(table)):
            masks = ref_ball_masks(table, eps)
            if space.tree is not None:
                rank = space.rank_of(eps)
                if not rank:
                    continue  # a negative radius: every ball is empty, and no step reads runs
                runs, singles = space.runs(rank)
                spans = sorted(runs + singles)
                assert [start for start, _ in spans] == [0] + [end for _, end in spans[:-1]]
                assert spans[-1][1] == space.n
                assert all(a[1] < b[0] for a, b in zip(singles, singles[1:]))  # stretches are maximal
                leaves = space.tree[0].tolist()
                for start, end in runs:
                    assert end - start > 1
                    ball = sum(1 << i for i in leaves[start:end])
                    assert all(masks[i] == ball for i in leaves[start:end])
                assert all(masks[i] == 1 << i for start, end in singles for i in leaves[start:end])
                continue
            assert space.table_balls(space.rank_of(eps)) == masks, eps

    def test_interior_and_closure(self, label, space, table):
        """Leaf-order masks in and out, read in point order against the per-world loops."""
        rng = random.Random(label)
        for eps in probe_grades(ref_realized(table)):
            for mask in sample_masks(rng, space.n):
                points = point_mask(space, mask)
                assert point_mask(space, interior_mask(space, mask, eps)) == ref_interior(table, points, eps)
                assert point_mask(space, closure_mask(space, mask, eps)) == ref_closure(table, points, eps)

    def test_truth_mask(self, label, space, table):
        """Whole truth sets, by the leaf step on a tree and per ball otherwise, against the per-world loops."""
        rng = random.Random(label)
        valuation = {name: rng.getrandbits(space.n) for name in ("p", "q")}
        model = Model(space, {name: point_names(space, mask) for name, mask in valuation.items()})
        for f in sample_formulas(rng, formula_grades(table), 12):
            assert point_mask(space, truth_mask(model, f)) == ref_truth(table, desugar(f), valuation), f

    def test_eval_chunk(self, label, space, table, monkeypatch):
        """A bit-sliced batch of 257 valuations, in leaf order, against the earlier per-world loop on each."""
        if space.n > 64:
            pytest.skip("the earlier loop holds at most 64 points per valuation")
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
        rows = {name: to_rows(values.tolist(), space.n) for name, values in atom_arrays.items()}
        assert to_masks(rows["p"], size) == atom_arrays["p"].tolist()
        rows = {name: in_leaf_order(space, values) for name, values in rows.items()}
        steps = []
        row_step = semantics._row_step
        monkeypatch.setattr(semantics, "_row_step", lambda *args: steps.append(args) or row_step(*args))
        for f, want in zip(formulas, wants):
            steps.clear()
            got = evaluate(space, f, rows.__getitem__, ONES, semantics.batch_rows(f, space.n, 5))
            assert got.dtype == np.uint64 and got.shape == (space.n, 5), f
            assert to_masks(in_point_order(space, got), size) == want.tolist(), f
            assert bool(steps) == any(isinstance(g, (Box, Diamond)) for g in subformulas(f)), f

    def test_valid_in_model(self, label, space, table):
        rng = random.Random(label)
        grades = formula_grades(table)
        formulas = sample_formulas(rng, grades, 6)
        for name in ("K", "T", "UM1", "TI", "UM2", "UM3", "D", "UM4"):
            formulas.append(random_schema_instance(rng, name, ("p", "q"), grades, formula_depth=1)[0])
        formulas = [f for f in formulas if space.n * len(atoms(f)) <= 16]
        for f in formulas:
            assert valid_in_model(space, f) == ref_valid_in_model(space, f), f

    @pytest.mark.parametrize("words", [1, 4, None])
    def test_valid_in_model_by_valuation(self, label, space, table, words, monkeypatch):
        """Verdict, witness and count against one valuation at a time, in blocks of 1, 4 and the real words.

        Up to three atoms, so totals fall below 64, at 64 (three atoms on two
        points, two on three, one on six) and past it; on larger spaces the
        reference reads the first 2^10 valuations, where non-theorems and
        random formulas are mostly refuted, and a later witness or a valid
        verdict must then come after them.
        """
        if words is not None:
            monkeypatch.setattr(validity, "_block_words", lambda n: words)
        rng = random.Random(label)
        grades = formula_grades(table)
        g = grades[len(grades) // 2]
        texts = [f"<{g}>p -> [{g}]p", f"p -> [{g}]p", f"<{g}>p -> p", f"[{g}]p -> p", f"<{g}>(p & q & r) | ~r"]
        formulas = [parse(text) for text in texts] + [
            random_formula(rng, ("p", "q", "r")[:rng.randint(1, 3)], grades, 3) for _ in range(8)]
        for schema in ("K", "T", "UM2", "UM3", "D", "UM4"):
            formulas.append(random_schema_instance(rng, schema, ("p", "q"), grades, formula_depth=1)[0])
        limit = 1 << 10
        for f in formulas:
            bits = space.n * len(atoms(f))
            if bits > 62:
                with pytest.raises(EnumerationCapExceeded, match="ceiling 2"):
                    valid_in_model(space, f, cap=1 << 80)
                continue
            want = ref_valid_by_valuation(space, f, limit)
            if want is not None:
                assert valid_in_model(space, f, cap=validity.CEILING) == want, f
            elif bits <= (22 if words is None else 14):  # small blocks take long over 2^22 candidates
                assert valid_in_model(space, f).valuations_checked > limit, f


TREE_CASES = [case for case in CASES if case[1].tree is not None]
#: With the leaf-step cases of ``test_rank_table`` that have a table and are not in CASES: balls of
#: one size at every grade, of differing sizes, twins, one point and no point.
LEAF_STEP_CASES = TREE_CASES + [case for case in SPREAD_CASES + HISTORY_CASES
                                if case[2] is not None and case[0] not in IDS]


@pytest.mark.parametrize("label, space, table", LEAF_STEP_CASES, ids=[label for label, _, _ in LEAF_STEP_CASES])
def test_leaf_step(label, space, table):
    """On a tree, the step in leaf order against the per-world loops, at every probe grade.

    The cases reach both spreads of a step: one subtraction where the
    balls of a grade have one size, and doubling strides where they differ.
    """
    rng = random.Random(label)
    for eps in tree_grades(space):
        for mask in sample_masks(rng, space.n):
            points, rank = point_mask(space, mask), space.rank_of(eps)
            assert point_mask(space, _leaf_step(space, mask, rank, False)) == ref_interior(table, points, eps)
            assert point_mask(space, _leaf_step(space, mask, rank, True)) == ref_closure(table, points, eps)


@pytest.mark.parametrize("label, space, table", CASES, ids=IDS)
def test_leaf_names(label, space, table):
    """Names read straight from a leaf-order mask, as ``truthset`` reads them, against reading it in point order."""
    rng = random.Random(label)
    for mask in sample_masks(rng, space.n):
        assert space.names_of(mask) == point_names(space, point_mask(space, mask))
    model = Model(space, {name: [x for x in space.points if rng.random() < 0.5] for name in ("p", "q")})
    for f in sample_formulas(rng, formula_grades(table), 6):
        mask = truth_mask(model, f)
        assert semantics.truthset(model, f).points == point_names(space, point_mask(space, mask)), f


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
    """``evaluate`` through the slot program on every path: leaf steps, per-ball steps and leaf-order batches.

    Each is compared with the per-world loops.
    """
    formulas = seven_constructor_formulas(formula_grades(table))
    programs = [semantics._program(f) for f in formulas]
    assert [len(program) for program in programs] == [8, 7, 4, 1]  # one step per distinct subformula
    assert {op for program in programs for op, _, _ in program} == {Atom, Not, And, Or, Implies, Box, Diamond}
    steps = []
    for name in ("_leaf_step", "_ball_step", "_row_step"):
        step = getattr(semantics, name)
        monkeypatch.setattr(semantics, name, lambda *args, name=name, step=step: steps.append(name) or step(*args))

    rng = random.Random(label)
    valuations = [{name: rng.getrandbits(space.n) for name in ("p", "q")} for _ in range(6)]
    wants = [[ref_truth(table, desugar(f), valuation) for valuation in valuations] for f in formulas]
    for valuation, column in zip(valuations, zip(*wants)):
        model = Model(space, {name: point_names(space, mask) for name, mask in valuation.items()})
        for f, want in zip(formulas, column):
            steps.clear()
            assert point_mask(space, evaluate(space, f, model.leaf_mask, space.full_mask)) == want, f
            assert set(steps) <= {"_leaf_step" if space.tree is not None else "_ball_step"}

    batch = {name: in_leaf_order(space, to_rows([valuation[name] for valuation in valuations], space.n))
             for name in ("p", "q")}
    for f, program, want in zip(formulas, programs, wants):
        steps.clear()
        got = evaluate(space, f, batch.__getitem__, ONES, semantics.batch_rows(f, space.n, 1))
        assert to_masks(in_point_order(space, got), len(valuations)) == want, f
        modal = any(op in (Box, Diamond) for op, _, _ in program)
        assert ("_row_step" in steps) == modal and set(steps) <= {"_row_step"}


def per_ball_truth(table, f, masks):
    """Truth mask of ``f`` in point order on a space without a tree, every modal step taken per ball by ``_ball_step``.

    ``masks`` maps each atom to its point-order mask.  A tree is read
    through ``held_as_table`` first, so the leaf step is never taken.
    """
    assert table.tree is None
    full = table.full_mask
    if isinstance(f, Atom):
        return masks[f.name]
    if isinstance(f, Not):
        return full ^ per_ball_truth(table, f.sub, masks)
    if isinstance(f, (Box, Diamond)):
        return _ball_step(table, per_ball_truth(table, f.sub, masks), table.rank_of(f.grade), isinstance(f, Diamond))
    left, right = per_ball_truth(table, f.left, masks), per_ball_truth(table, f.right, masks)
    return {And: left & right, Or: left | right, Implies: (full ^ left) | right}[type(f)]


def test_fine_grade_truth_masks_on_4096_worlds():
    """Grades down to single worlds on ``cantor_space(12)``: the leaf step against per-ball evaluation on its table."""
    space, rng = cantor_space(12), random.Random(4096)
    table = held_as_table(space)
    model = Model(space, {name: [x for x in space.points if rng.random() < 0.5] for name in ("p", "q")})
    texts = ["[1/4096]<1/2048>p -> <1/1024>[1/8192]p", "<1/4096>(p & [1/8192]~q) | [1/2]<1/4096>q",
             "[0]p <-> p", "<1>[1/3]p & ~[1/4095]<1/4097>(q -> p)"]
    grades = [Fraction(1, 2 ** k) for k in range(14)] + [Fraction(0), Fraction(3, 8192)]
    formulas = [parse(text) for text in texts] + [random_formula(rng, ("p", "q"), grades, 4) for _ in range(6)]
    masks = {name: point_mask(space, model.leaf_mask(name)) for name in ("p", "q")}
    for f in formulas:
        assert point_mask(space, truth_mask(model, f)) == per_ball_truth(table, f, masks), f


# --- the block bounds --------------------------------------------------------

# Points: the atoms and the number of blocks they fill.
BOUNDS = {6: (("p", "q", "r"), 2), 8: (("p", "q"), 1 / 2), 9: (("p", "q"), 4), 15: (("p",), 1 / 2),
          16: (("p",), 1), 17: (("p",), 4), 18: (("p",), 8), 19: (("p",), 16)}


@pytest.mark.parametrize("n", sorted(BOUNDS))
def test_valid_in_model_at_bounds(n):
    """Blocks of 2,048 words per row up to 8 points, 1,024 up to 16 and 512 up to 32; one atom past 9 keeps this fast.

    Three atoms on 6 points fill two blocks; two atoms on 8 points fill
    half of one block, on 9 points four; one atom on 15 points fills half
    of one block, on 16 exactly one, on 17 to 19 points 4 to 16.
    """
    names, blocks = BOUNDS[n]
    assert (1 << n * len(names)) / (64 * validity._block_words(n)) == blocks
    rng = random.Random(n)
    space = random_ultrametric_space(rng, n)
    grades = formula_grades(dense_table(space))
    formulas = [random_schema_instance(rng, schema, names, grades, formula_depth=1)[0]
                for schema in ("K", "T", "UM3", "D")]
    # Refuted early, late (p everywhere: the last candidate, in the last of
    # sixteen blocks at 19 points) and by a diamond; then valid with a diamond.
    texts = ["<1/2>p -> [1/2]p", "~[1]p", "<1/4>p -> p", "p -> <1/4>[1/2]<1/2>p"]
    if len(names) == 2:
        texts += ["[1/2](p -> q) -> ([1/2]p -> [1/2]q)", "<1/2>p & <1/2>q -> <1/2>(p & q)"]
    if len(names) == 3:
        texts += ["~[1](p & q & r)", "[1/2](p -> q) & [1/2](q -> r) -> [1/2](p -> r)"]
    formulas += [parse(text) for text in texts]
    for f in formulas:
        assert valid_in_model(space, f) == ref_valid_in_model(space, f), f


# --- the rows a batch is written into ------------------------------------------

# Each on a random space of the given size.  "~[1]p" and "~[1](p & q)" are
# refuted only by their atoms everywhere, the last candidate, after every
# earlier block has written the rows; grade 0 has one-leaf balls only, so
# its box or diamond returns its input and the "~", "&" or "->" over it
# writes rows of its own; "p" has no step to write and "p -> p" one.
REUSE_CASES = [(19, "~[1]p"), (7, "~[1](p & q)"), (7, "~~[0]p -> p"), (7, "[0]p & ~p -> q"),
               (7, "~([0]p & <0>q)"), (7, "p"), (7, "p -> p")]


@pytest.mark.parametrize("words", [1, 4, None])
@pytest.mark.parametrize("n, text", REUSE_CASES, ids=[text for _, text in REUSE_CASES])
def test_valid_in_model_writes_every_block_into_one_array(n, text, words, monkeypatch):
    """Verdict, witness and count against ``ref_valid_in_model``, in blocks of 1, 4 and the real words.

    Every block is evaluated into the same rows, allocated once per call
    and sized by the block; after each ``evaluate`` the candidate rows,
    which atoms read as views, are as they were.
    """
    if words is not None:
        monkeypatch.setattr(validity, "_block_words", lambda n: words)
    space, f = random_ultrametric_space(random.Random(n), n), parse(text)
    assert not space.runs(space.rank_of(0))[0]  # no twins: every ball of grade 0 is one leaf
    names, arrays = sorted(atoms(f)), []

    def checked(space, f, atom, full, out):
        before = [atom(name).copy() for name in names]
        value = evaluate(space, f, atom, full, out)
        assert all(np.array_equal(atom(name), rows) for name, rows in zip(names, before)), f
        arrays.append(out)
        return value

    monkeypatch.setattr(validity, "evaluate", checked)
    assert valid_in_model(space, f) == ref_valid_in_model(space, f), f
    total_words = max((1 << n * len(names)) >> 6, 1)
    block = min(validity._block_words(n), total_words)
    steps = sum(op is not Atom for op, _, _ in semantics._program(f))
    assert all(out is arrays[0] for out in arrays) and arrays[0].shape == (steps, n, block)


def test_runs_are_cached_per_rank_and_per_space():
    """The runs of leaves a batch step reduces: each ball of a grade once, cached per rank and per space."""
    first, second = (random_ultrametric_space(random.Random(3), 9) for _ in range(2))
    table = dense_table(first)
    assert table == dense_table(second)
    grade = first.realized_distances()[1]
    above = (grade + first.realized_distances()[2]) / 2
    runs = first.runs(first.rank_of(grade))
    leaves = first.tree[0].tolist()
    balls = [sum(1 << i for i in leaves[start:end]) for start, end in runs[0]]
    balls += [1 << i for start, end in runs[1] for i in leaves[start:end]]
    assert sorted(balls) == sorted(set(ref_ball_masks(table, grade)))
    # Cached per rank: a grade between the same two distances gets the same runs.
    assert first.runs(first.rank_of(above)) is runs
    other = second.runs(second.rank_of(grade))
    assert other == runs and other is not runs
    broken = next(space for _, space, _ in CASES if space.tree is None)
    for per_rank in (broken.runs, broken.tops):
        with pytest.raises(ValueError, match="breaks a metric law"):
            per_rank(1)


# --- batches in leaf order: the per-run step -----------------------------------

def _row_step_cases():
    """The trees of ``test_rank_table``'s cases and leaf cases, twins and the empty space in them; cantor 1-10."""
    cases = {label: space for label, space, _ in CASES + LEAF_CASES if space.tree is not None}
    cases.update((f"cantor-{depth}", cantor_space(depth)) for depth in range(1, 11))
    return sorted(cases.items(), key=lambda case: case[1].n)


ROW_STEP_CASES = _row_step_cases()


def test_row_step_cases_cover_leaf_order():
    """Some batch runs in a leaf order that is not point order, so no witness or step matches by accident."""
    labels = {label for label, _ in ROW_STEP_CASES}
    assert {"empty", "two-equal", "cantor-10"} <= labels
    assert any(space.tree[0].tolist() != list(range(space.n)) for _, space in ROW_STEP_CASES)
    # test_valid_in_model_by_valuation compares witness worlds on these.
    assert any(space.tree is not None and space.tree[0].tolist() != list(range(space.n)) for _, space, _ in CASES)


@pytest.mark.parametrize("label, space", ROW_STEP_CASES, ids=[label for label, _ in ROW_STEP_CASES])
def test_row_step_matches_the_ball_step(label, space):
    """The per-run step on leaf-order rows against the per-ball step in point order, one valuation at a time.

    Box and diamond at every realized grade, grade 0, one grade finer than
    the least positive distance and a negative radius (rank 0), on 70
    valuations: one full word and one partial.
    """
    per_ball, rng = held_as_table(space), random.Random(label)
    realized = space.realized_distances()
    finer = min((d for d in realized if d), default=Fraction(1)) / 2
    grades = sorted({*realized, Fraction(0), finer, Fraction(-1)})
    masks = sample_masks(rng, space.n, 68)
    rows = in_leaf_order(space, to_rows(masks, space.n))
    for eps in grades:
        for meets in (False, True):
            got = semantics._row_step(space, rows, space.rank_of(eps), meets, np.empty_like(rows))
            assert got.shape == rows.shape and got.dtype == np.uint64
            want = [_ball_step(per_ball, mask, per_ball.rank_of(eps), meets) for mask in masks]
            assert to_masks(in_point_order(space, got), len(masks)) == want, (eps, meets)


def test_row_step_returns_its_input_when_every_ball_is_one_leaf():
    """A grade whose balls are single leaves writes nothing and returns its input; no step writes into its operand."""
    space = cantor_space(4)
    rows = to_rows(sample_masks(random.Random(4), space.n), space.n)
    rows.setflags(write=False)
    out = np.zeros_like(rows)
    for eps, meets in ((Fraction(0), False), (Fraction(1, 64), True)):
        assert semantics._row_step(space, rows, space.rank_of(eps), meets, out) is rows
    assert not out.any()
    assert semantics._row_step(space, rows, space.rank_of(Fraction(1, 16)), True, out) is out


@pytest.mark.parametrize("meets", [False, True], ids=["box", "diamond"])
def test_row_step_at_a_negative_radius_fills_the_given_rows(meets):
    """Rank 0: every ball is empty, so a box holds everywhere and a diamond nowhere, over an earlier block's rows."""
    space = cantor_space(3)
    rows = to_rows(sample_masks(random.Random(3), space.n), space.n)
    rows.setflags(write=False)
    out = to_rows(sample_masks(random.Random(5), space.n), space.n)
    assert semantics._row_step(space, rows, space.rank_of(Fraction(-1)), meets, out) is out
    assert (out == (0 if meets else ONES)).all()


@pytest.mark.parametrize("label, space, table", TREE_CASES, ids=[label for label, _, _ in TREE_CASES])
def test_tree_ball_readers_match_the_table_path(label, space, table):
    """``ball``, ``interior_mask`` and ``closure_mask`` on a tree: the table path and the loops.

    ``tree_balls`` lists the balls that the loops list from the table.
    """
    per_ball, rng = held_as_table(space), random.Random(label)
    for eps in probe_grades(ref_realized(table)):
        balls = ref_ball_masks(table, eps)
        for x, ball in zip(space.points, balls):
            assert space.ball(x, eps) == per_ball.ball(x, eps) == point_names(space, ball), (x, eps)
        for mask in sample_masks(rng, space.n):
            points = point_mask(space, mask)  # the table's leaf order is its point order
            for step, ref in ((interior_mask, ref_interior), (closure_mask, ref_closure)):
                got = point_mask(space, step(space, mask, eps))
                assert got == step(per_ball, points, eps) == ref(table, points, eps), (mask, eps)
    assert listed_tree_balls(space) == ref_distinct_balls(table)
