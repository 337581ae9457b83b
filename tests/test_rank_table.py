"""Differential tests: the rank-table space against the dense Fraction table it replaced.

The reference functions below restate the earlier implementations over a
tuple-of-tuples table of exact Fractions: the metric-law checks (with the
strong triangle as a plain cubic loop, which the earlier code vectorised),
pairwise ball masks, the ball tree that scans every ball for supersets,
and the constructions, morphism checks and model output that built or
read a Fraction matrix pair by pair.  Each test builds the reference table independently of the
space: from the input matrix, from ``sequence_distance`` over
histories, or, for generated spaces, from the generator's earlier matrix
fill (``ref_generated_table``) run on a twin of its random stream.

Every space that satisfies the laws up to identity of indiscernibles is
held as its single-linkage tree: a space from histories by sorting them,
a matrix (generated spaces) by Prim's algorithm, and a union, ball
subspace or rescaling from its inputs' trees.  Its balls, nearest
points, distances, ball listing, dendrogram and validation report are
read from the tree, and each is compared with the dense references on
every space here, on generated history files with duplicates and on
generated tables with twins; such a space holds no table.  The broken and
perturbed tables keep the table and its readers, and the constructions
and the dendrogram refuse them.  Every pairwise distance is read one row
at a time (``UltrametricSpace.row``): ``dense_table`` and ``dist`` read
rows, so comparing them with the reference table compares the rows.
On every tree here, and on a matrix and a union whose leaves are out of
point order, the leaf-order modal step is compared with the per-ball
step, and ``nearest_leaf`` with the least rank of each row over the mask.
The library's masks are in leaf order, so each is read in point order
through the reference ``point_mask`` before it meets a table row.
"""
import json
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import umlogic.semantics as semantics
import umlogic.space as space_module

from conftest import dense_table, held_as_table, point_mask, point_names
from umlogic.constructions import (
    UNION_DISTANCE,
    BilipschitzReport,
    PointMap,
    bilipschitz_bounds,
    check_bounded_morphism,
    check_frame_morphism,
    disjoint_union,
    epsilon_subspace,
    scale_space,
    union_point,
)
from umlogic.dendrogram import dendrogram_dot
from umlogic.formula import Atom, Box, Diamond
from umlogic.generators import LEVEL_POOL, random_ultrametric_space
from umlogic.modelio import dump_model, load_model
from umlogic.parser import parse
from umlogic.semantics import (
    _ball_step,
    _leaf_step,
    interior_mask,
    plausibility_degree,
    stability_degree,
    truth_mask,
    truthset,
)
from umlogic.space import (
    Model,
    UltrametricSpace,
    UnknownPointError,
    Violation,
    cantor_sequences,
    cantor_space,
    sequence_distance,
    validate_space,
)


# --- reference implementations over a dense Fraction table -------------------

def ref_validate(pts, m):
    n = len(pts)
    violations = []
    bad = next(((i, j) for i in range(n) for j in range(n) if m[i][j] < 0), None)
    if bad:
        i, j = bad
        violations.append(Violation(
            "nonnegativity", (pts[i], pts[j]), f"d({pts[i]}, {pts[j]}) = {m[i][j]} < 0"))
    bad = next(((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j] != m[j][i]), None)
    if bad:
        i, j = bad
        violations.append(Violation(
            "symmetry", (pts[i], pts[j]),
            f"d({pts[i]}, {pts[j]}) = {m[i][j]} but d({pts[j]}, {pts[i]}) = {m[j][i]}"))
    bad = next((i for i in range(n) if m[i][i] != 0), None)
    if bad is not None:
        violations.append(Violation(
            "zero-self-distance", (pts[bad],), f"d({pts[bad]}, {pts[bad]}) = {m[bad][bad]} != 0"))
    bad = next(((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j] == 0), None)
    if bad:
        i, j = bad
        violations.append(Violation(
            "identity-of-indiscernibles", (pts[i], pts[j]),
            f"distinct points {pts[i]}, {pts[j]} at distance 0"))
    bad = next(
        ((i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)
         if k not in (i, j) and m[i][j] > max(m[i][k], m[j][k])),
        None,
    )
    if bad:
        i, j, k = bad
        violations.append(Violation(
            "strong-triangle", (pts[i], pts[j], pts[k]),
            f"d({pts[i]}, {pts[j]}) = {m[i][j]} > max(d({pts[i]}, {pts[k]}), "
            f"d({pts[j]}, {pts[k]})) = {max(m[i][k], m[j][k])}"))
    return violations


def ref_ball_masks(m, eps):
    return tuple(sum(1 << j for j, d in enumerate(row) if d <= eps) for row in m)


def ref_realized(m):
    return sorted({d for row in m for d in row})


def ref_distinct_balls(m):
    """Each distinct ball once, as (first centre, radius, mask), radii ascending and then centres in point order."""
    expected, seen = [], set()
    for radius in ref_realized(m):
        for i, mask in enumerate(ref_ball_masks(m, radius)):
            if mask not in seen:
                seen.add(mask)
                expected.append((i, radius, mask))
    return expected


class RefNode(NamedTuple):
    """One distinct ball of the reference tree: its members in point order, its diameter and its parent's place."""

    members: tuple[str, ...]
    radius: Fraction
    parent: int | None


def ref_ball_tree(pts, m):
    index = {p: i for i, p in enumerate(pts)}
    distinct = set()
    for radius in ref_realized(m):
        for mask in ref_ball_masks(m, radius):
            distinct.add(frozenset(p for i, p in enumerate(pts) if mask >> i & 1))

    def ordered(members):
        return tuple(p for p in pts if p in members)

    sets = sorted(distinct, key=lambda s: (len(s), ordered(s)))
    nodes = []
    for members in sets:
        diameter = max((m[index[a]][index[b]] for a in members for b in members),
                       default=Fraction(0))
        parent, best_size = None, None
        for j, other in enumerate(sets):
            if members < other and (best_size is None or len(other) < best_size):
                parent, best_size = j, len(other)
        nodes.append(RefNode(ordered(members), diameter, parent))
    return nodes


def ref_dot(nodes):
    lines = ["digraph balls {"]
    for i, node in enumerate(nodes):
        if len(node.members) == 1:
            label = node.members[0]
        else:
            label = "{" + ",".join(node.members) + "} r=" + str(node.radius)
        label = label.replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i, node in enumerate(nodes):
        if node.parent is not None:
            lines.append(f"  n{node.parent} -> n{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ref_dump(pts, m, valuation):
    data = {
        "points": list(pts),
        "distance": {"matrix": [[str(d) for d in row] for row in m]},
        "valuation": {atom: sorted(members) for atom, members in valuation.items()},
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def ref_union(components):
    """Disjoint union of (points, table, valuation) triples as one such triple."""
    points = [union_point(i, p) for i, (pts, _, _) in enumerate(components) for p in pts]
    matrix = [[UNION_DISTANCE] * len(points) for _ in points]
    base = 0
    for pts, m, _ in components:
        for a, row in enumerate(m):
            for b, d in enumerate(row):
                matrix[base + a][base + b] = d
        base += len(pts)
    valuation = {}
    for i, (_, _, val) in enumerate(components):
        for atom, members in val.items():
            valuation.setdefault(atom, set()).update(union_point(i, p) for p in members)
    return points, matrix, valuation


def ref_subspace(pts, m, valuation, center, eps):
    ball = ref_ball_masks(m, eps)[pts.index(center)]
    kept = [i for i in range(len(pts)) if ball >> i & 1]
    members = {pts[i] for i in kept}
    return ([pts[i] for i in kept], [[m[a][b] for b in kept] for a in kept],
            {atom: set(held) & members for atom, held in valuation.items()})


def ref_frame(src_pts, sm, tgt_pts, tm, image, k):
    """(forward witness, back witness) of the pairwise forward and back loops."""
    n = len(src_pts)
    forward = next(((src_pts[i], src_pts[j]) for i in range(n) for j in range(i + 1, n)
                    if tm[image[i]][image[j]] > k * sm[i][j]), None)
    back = next(((src_pts[i], tgt_pts[t]) for i in range(n) for t in range(len(tgt_pts))
                 if not any(sm[i][j] * k <= tm[image[i]][t] for j in range(n) if image[j] == t)),
                None)
    return forward, back


def ref_atom_witness(src_pts, src_val, tgt_pts, tgt_val, image):
    names = sorted(set(src_val) | set(tgt_val))
    return next(((name, w) for name in names for i, w in enumerate(src_pts)
                 if (w in src_val.get(name, ())) != (tgt_pts[image[i]] in tgt_val.get(name, ()))),
                None)


def ref_bilipschitz(src_pts, sm, tgt_n, tm, image, k):
    if len(set(image)) != len(image) or len(image) != tgt_n:
        return BilipschitzReport(
            ok=False, reason="map is not a bijection onto the target, so no two-sided bound exists")
    tightest = Fraction(1)
    for i in range(len(src_pts)):
        for j in range(i + 1, len(src_pts)):
            d, d2 = sm[i][j], tm[image[i]][image[j]]
            if d == 0 or d2 == 0:
                return BilipschitzReport(
                    ok=False, reason=f"degenerate zero distance on pair ({src_pts[i]}, {src_pts[j]})")
            ratio = d2 / d
            tightest = max(tightest, ratio, 1 / ratio)
    return BilipschitzReport(ok=True, tightest_k=tightest, satisfied_by_supplied_k=k >= tightest)


def ref_generated_table(rng, n_points):
    """The table of ``random_ultrametric_space(rng, n_points)``, filled pair by pair as the generator once did."""
    count = rng.randint(1, min(max(n_points - 1, 1), 4))
    levels = sorted(rng.sample(LEVEL_POOL, count), reverse=True)
    matrix = [[Fraction(0)] * n_points for _ in range(n_points)]

    def split(group, remaining):
        if len(group) <= 1:
            return
        if len(remaining) == 1:
            blocks = [[i] for i in group]
        else:
            labels = [rng.randrange(len(group)) for _ in group]
            if len(set(labels)) == 1:
                labels[0] = (labels[0] + 1) % len(group)
            blocks_by_label = {}
            for member, label in zip(group, labels):
                blocks_by_label.setdefault(label, []).append(member)
            blocks = list(blocks_by_label.values())
        for a, block_a in enumerate(blocks):
            for block_b in blocks[a + 1:]:
                for i in block_a:
                    for j in block_b:
                        matrix[i][j] = matrix[j][i] = remaining[0]
        for block in blocks:
            split(block, remaining[1:])

    split(list(range(n_points)), levels)
    return tuple(map(tuple, matrix))


# --- the spaces compared -----------------------------------------------------

def generated_cases():
    rng, twin = random.Random(2024), random.Random(2024)
    cases = []
    for n in (1, 2, 3, 5, 8, 13, 21):
        for k in range(4):
            space, table = random_ultrametric_space(rng, n), ref_generated_table(twin, n)
            assert rng.getstate() == twin.getstate()
            cases.append((f"generated-{n}-{k}", space, table))
    return cases


def sequence_cases():
    rng = random.Random(7)
    cases = []
    for depth in range(1, 7):
        seqs = cantor_sequences(depth)
        cases.append((f"cantor-{depth}", seqs, dict(zip(seqs, seqs))))
    for length, n in ((1, 5), (3, 9), (6, 12), (80, 10)):
        # A pool smaller than n, so duplicate histories (distance 0) occur;
        # pool members share random-length prefixes, and length 80 exceeds
        # a machine word.
        bits = lambda k: "".join(rng.choice("01") for _ in range(k))  # noqa: E731
        stem = bits(length)
        pool = [stem[:cut] + bits(length - cut)
                for cut in (rng.randint(0, length) for _ in range(n // 2 + 1))]
        histories = [rng.choice(pool) for _ in range(n)]
        names = [f"h{i}" for i in rng.sample(range(n), n)]
        cases.append((f"histories-{length}x{n}", names, dict(zip(names, histories))))
    return [history_case(*case) for case in cases]


def history_case(label, names, sequences):
    """(label, the space of the histories, its dense table by ``sequence_distance``)."""
    table = tuple(tuple(sequence_distance(sequences[a], sequences[b]) for b in names) for a in names)
    return label, UltrametricSpace.from_sequences(names, sequences), table


def broken_cases():
    F = Fraction
    fixed = {
        "triangle": [[0, F(1, 2), 1], [F(1, 2), 0, F(1, 2)], [1, F(1, 2), 0]],
        "asymmetric": [[0, F(1, 2), F(1, 2)], [F(1, 4), 0, F(1, 2)], [F(1, 2), F(1, 2), 0]],
        "negative": [[0, F(-1, 2)], [F(-1, 2), 0]],
        "nonzero-diagonal": [[F(1, 8), F(1, 2)], [F(1, 2), 0]],
        "all-at-once": [[F(1, 3), F(-1), 0, F(1, 2)], [F(1, 2), 0, F(1, 4), 1],
                        [0, F(1, 4), F(2), F(1, 8)], [F(1, 2), 1, F(1, 8), 0]],
        "no-zero-at-all": [[1, 2], [2, 1]],
    }
    cases = [(label, UltrametricSpace([f"p{i}" for i in range(len(m))], m),
              tuple(tuple(F(v) for v in row) for row in m)) for label, m in fixed.items()]
    rng = random.Random(99)
    pool = list(LEVEL_POOL) + [F(0), F(-1, 4), F(3, 2)]
    for k in range(40):
        n = rng.randint(3, 9)
        m = [list(row) for row in dense_table(random_ultrametric_space(rng, n))]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            m[i][j] = rng.choice(pool)
            if rng.random() < 0.5:
                m[j][i] = m[i][j]
        cases.append((f"perturbed-{k}", UltrametricSpace([f"p{i}" for i in range(n)], m),
                      tuple(tuple(row) for row in m)))
    return cases


CASES = generated_cases() + sequence_cases() + broken_cases()
IDS = [label for label, _, _ in CASES]


def listed_tree_balls(space):
    """``tree_balls`` as (least point, diameter, mask), by diameter and then least point.

    That is the order in which ``ref_distinct_balls`` first meets each ball of a table.
    """
    leaves, distances = space.tree[0].tolist(), space.realized_distances()
    balls = sorted((rank, min(leaves[start:end]), start, end) for start, end, rank, _ in space.tree_balls())
    return [(i, distances[rank], sum(1 << j for j in leaves[start:end])) for rank, i, start, end in balls]


def per_point_balls(space, eps):
    """Each point's closed eps-ball as a point-order bitmask, read by ``ball``: a run of leaves on a tree, else a table row."""
    return tuple(sum(1 << space.index(y) for y in space.ball(x, eps)) for x in space.points)


def probe_grades(realized):
    """Every realized distance, the midpoints between them, and one below and above."""
    grades = list(realized) + [realized[0] - 1, realized[-1] + 1]
    grades += [(a + b) / 2 for a, b in zip(realized, realized[1:])]
    return grades


@pytest.mark.parametrize("label, space, table", CASES, ids=IDS)
class TestAgainstDenseTable:
    def test_matrix_view_and_distances(self, label, space, table):
        assert dense_table(space) == table
        assert space.realized_distances() == ref_realized(table)
        assert all(type(d) is Fraction for d in space.realized_distances())
        assert space.row(0).dtype.kind == "u"

    def test_validation_report(self, label, space, table):
        assert validate_space(space) == ref_validate(space.points, table)

    def test_ball_masks(self, label, space, table):
        for eps in probe_grades(ref_realized(table)):
            assert per_point_balls(space, eps) == ref_ball_masks(table, eps), eps

    def test_ball_tree_and_dot(self, label, space, table):
        """``dot`` against the DOT text of the reference ball tree, which scans every ball for supersets."""
        if breaks_a_law(space.points, table):
            with pytest.raises(ValueError, match="the space breaks a metric law"):
                dendrogram_dot(space)
            return
        assert dendrogram_dot(space) == ref_dot(ref_ball_tree(space.points, table))

    def test_distinct_ball_listing(self, label, space, table):
        if space.tree is not None:
            assert listed_tree_balls(space) == ref_distinct_balls(table)

    def test_dump_model(self, label, space, table):
        rng = random.Random(label)
        valuation = {"p": [x for x in space.points if rng.random() < 0.5]}
        assert dump_model(Model(space, valuation)) == ref_dump(space.points, table, valuation)

    def test_degree_thresholds(self, label, space, table):
        rng = random.Random(label)
        members = [x for x in space.points if rng.random() < 0.5] or [space.points[0]]
        model = Model(space, {"p": members})
        inside = {space.index(x) for x in members}
        for x in space.points:
            row = table[space.index(x)]
            near = min(row[i] for i in inside)
            assert plausibility_degree(model, x, Atom("p")).threshold == near
            outside = [row[i] for i in range(space.n) if i not in inside]
            report = stability_degree(model, x, Atom("p"))
            if space.index(x) in inside and outside:
                assert report.threshold == min(outside)


def test_sequence_ranks_need_no_pairwise_fraction():
    """A 1,024-world history space builds its ranks from eleven Fractions."""
    seqs = cantor_sequences(10)
    space = UltrametricSpace.from_sequences(seqs, dict(zip(seqs, seqs)))
    assert len(space.realized_distances()) == 11
    assert space.row(0).shape == (1024,)
    assert space.row(0).dtype == space.tree[1].dtype == np.uint8


def test_symmetric_validation_matches_the_sweep_on_random_tables():
    """The O(n^2) single-linkage test agrees with the cubic sweep on symmetric tables."""
    rng = random.Random(5)
    levels = [Fraction(k, 4) for k in range(5)]
    for _ in range(400):
        n = rng.randint(3, 7)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.choice(levels[1:])
        space = UltrametricSpace([f"p{i}" for i in range(n)], m)
        assert validate_space(space) == ref_validate(space.points, m)


# --- constructions, morphism checks and model output on the rank table --------

SCALES = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 4))


def case_model(label, space):
    rng = random.Random(label)
    return Model(space, {"p": [x for x in space.points if rng.random() < 0.5], "q": []})


def plain_valuation(model):
    return {atom: set(held) for atom, held in model.valuation.items()}


def assert_same_model(built, points, matrix, valuation):
    """``built`` is a tree equal to the model the matrix constructor makes from a Fraction table."""
    expected = Model(UltrametricSpace(points, matrix), valuation)
    assert built.space.tree is not None
    assert built.space.points == expected.space.points
    assert dense_table(built.space) == dense_table(expected.space)
    assert built.space.realized_distances() == expected.space.realized_distances()
    assert built.space.tree[1].dtype == expected.space.tree[1].dtype
    assert validate_space(built.space) == validate_space(expected.space)
    assert dump_model(built) == ref_dump(points, matrix, valuation)


def breaks_a_law(points, table):
    """Whether the table breaks a metric law other than identity of indiscernibles."""
    return any(v.condition != "identity-of-indiscernibles" for v in ref_validate(points, table))


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
class TestConstructionsAgainstDenseTable:
    def test_disjoint_union(self, index):
        label, space, table = CASES[index]
        other_label, other, other_table = CASES[(index + 1) % len(CASES)]
        model, other_model = case_model(label, space), case_model(other_label, other)
        one = (space.points, table, plain_valuation(model))
        two = (other.points, other_table, plain_valuation(other_model))
        broken = breaks_a_law(space.points, table)
        for parts, models, refused in (([one], [model], broken), ([one, one], [model, model], broken),
                                       ([one, two], [model, other_model],
                                        broken or breaks_a_law(other.points, other_table))):
            if refused:
                with pytest.raises(ValueError, match="breaks a metric law"):
                    disjoint_union(models)
            else:
                assert_same_model(disjoint_union(models), *ref_union(parts))

    def test_epsilon_subspace(self, index):
        label, space, table = CASES[index]
        model, broken = case_model(label, space), breaks_a_law(space.points, table)
        for center in space.points[:4] + space.points[-1:]:
            for eps in probe_grades(ref_realized(table)):
                if broken:
                    with pytest.raises(ValueError, match="the space breaks a metric law"):
                        epsilon_subspace(model, center, eps)
                    continue
                expected = ref_subspace(space.points, table, plain_valuation(model), center, eps)
                assert_same_model(epsilon_subspace(model, center, eps), *expected)

    def test_scale_space(self, index):
        label, space, table = CASES[index]
        broken = breaks_a_law(space.points, table)
        for factor in SCALES:
            if broken:
                with pytest.raises(ValueError, match="the space breaks a metric law"):
                    scale_space(space, factor)
                continue
            scaled = Model(scale_space(space, factor))
            assert_same_model(scaled, space.points, [[d * factor for d in row] for row in table], {})

    def test_morphism_checks(self, index):
        label, space, table = CASES[index]
        other_label, other, other_table = CASES[(index + 7) % len(CASES)]
        rng = random.Random(label)
        n = space.n
        shuffled = rng.sample(range(n), n)
        maps = [  # (target, its table, image index of each source point)
            (space, table, list(range(n))),
            (space, table, shuffled),
            (space, table, [rng.randrange(n) for _ in range(n)]),
            (other, other_table, [rng.randrange(other.n) for _ in range(n)]),
        ]
        src_model = case_model(label, space)
        for tgt, tgt_table, image in maps:
            tgt_model = case_model(label + "target", tgt)
            for k in SCALES:
                pm = PointMap({p: tgt.points[image[i]] for i, p in enumerate(space.points)}, k)
                forward, back = ref_frame(space.points, table, tgt.points, tgt_table, image, k)
                frame = check_frame_morphism(space, tgt, pm)
                assert (frame.forward_witness, frame.back_witness) == (forward, back)
                assert frame.ok == (forward is None and back is None)
                atom = ref_atom_witness(space.points, plain_valuation(src_model), tgt.points,
                                        plain_valuation(tgt_model), image)
                bounded = check_bounded_morphism(src_model, tgt_model, pm)
                assert (bounded.forward_witness, bounded.back_witness, bounded.atom_witness) == (
                    forward, back, atom)
                assert bounded.ok == (forward is None and back is None and atom is None)
                assert bilipschitz_bounds(space, tgt, pm) == ref_bilipschitz(
                    space.points, table, tgt.n, tgt_table, image, k)


def refuse(name):
    """A stand-in that fails the test when the code under test reaches ``name``."""
    def raise_(*args):
        raise AssertionError(f"{name} reached")
    return raise_


def test_constructions_build_their_trees_from_their_inputs_trees(monkeypatch):
    """Unions, balls and rescalings of history and matrix trees read no table and run no Prim."""
    seqs = cantor_sequences(3)
    _, history_space, history_table = history_case("history", seqs, dict(zip(seqs, seqs)))
    _, matrix_space, matrix_table = CASES[IDS.index("generated-8-1")]
    history = Model(history_space, {"p": seqs[:2]})
    matrix = Model(matrix_space, {"p": matrix_space.points[::2]})
    parts = [(m.space.points, table, plain_valuation(m))
             for m, table in ((history, history_table), (matrix, matrix_table), (history, history_table))]
    grades = (Fraction(-1), Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(2))
    monkeypatch.setattr(UltrametricSpace, "row", refuse("row"))
    monkeypatch.setattr(space_module, "_single_linkage", refuse("_single_linkage"))
    union = disjoint_union([history, matrix, history])
    balls = [(m, eps, epsilon_subspace(m, m.space.points[-2], eps)) for m in (history, matrix, union)
             for eps in grades]
    scaled = [(m, scale_space(m.space, Fraction(3, 4))) for m in (history, matrix, union)]
    monkeypatch.undo()
    union_parts = ref_union(parts)
    tables = {id(history): history_table, id(matrix): matrix_table, id(union): union_parts[1]}
    assert_same_model(union, *union_parts)
    for m, eps, ball in balls:
        center = m.space.points[-2]
        assert_same_model(ball, *ref_subspace(m.space.points, tables[id(m)], plain_valuation(m), center, eps))
    for m, space in scaled:
        table = [[d * Fraction(3, 4) for d in row] for row in tables[id(m)]]
        assert_same_model(Model(space), m.space.points, table, {})
    # The morphism checks read the rows of built trees.
    identity, scaled_history = PointMap({p: p for p in seqs}, Fraction(3, 4)), scaled[0][1]
    assert check_frame_morphism(history.space, scaled_history, identity).ok
    assert check_bounded_morphism(history, Model(scaled_history, history.valuation), identity).ok
    assert bilipschitz_bounds(history.space, scaled_history, identity).tightest_k == Fraction(4, 3)


def test_a_deep_ball_allocates_no_table():
    """8,192 worlds: a table would take 64 MiB; the ball of 2,048 worlds is cut from the tree in far less."""
    model = Model(cantor_space(13))
    center = model.space.points[5]
    tracemalloc.start()
    try:
        sub = epsilon_subspace(model, center, Fraction(1, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub.space.points == tuple(p for p in model.space.points if p[:2] == center[:2])
    assert sub.space.tree is not None and validate_space(sub.space) == []
    assert peak < 16 * 2 ** 20, peak


def test_morphism_checks_on_4096_worlds_allocate_no_table():
    """A 4,096-world table takes 16 MiB; the checks read one row of each space at a time in far less."""
    space = cantor_space(12)
    identity = PointMap({p: p for p in space.points})
    for check in (check_frame_morphism, bilipschitz_bounds):
        tracemalloc.start()
        try:
            result = check(space, space, identity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.ok
        assert peak < 16 * 2 ** 20, (check.__name__, peak)


EMPTY_SPACES = [("matrix", UltrametricSpace([], [])), ("sequences", UltrametricSpace.from_sequences([], {}))]


@pytest.mark.parametrize("label, empty", EMPTY_SPACES, ids=[label for label, _ in EMPTY_SPACES])
def test_constructions_on_empty_spaces_match_the_dense_table(label, empty):
    """No points: no distance is realized, and every check passes as the pair loops did."""
    label_one, one, one_table = CASES[0]
    model = case_model(label_one, one)
    for parts, models in (([([], [], {})], [Model(empty)]),
                          ([([], [], {})] * 2, [Model(empty)] * 2),
                          ([([], [], {}), (one.points, one_table, plain_valuation(model))],
                           [Model(empty), model])):
        assert_same_model(disjoint_union(models), *ref_union(parts))
    assert_same_model(Model(scale_space(empty, Fraction(1, 2))), [], [], {})
    pm = PointMap({}, Fraction(1, 2))
    frame = check_frame_morphism(empty, empty, pm)
    assert (frame.ok, frame.forward_witness, frame.back_witness) == (True, None, None)
    assert check_frame_morphism(empty, one, pm).back_witness == ref_frame([], [], one.points,
                                                                          one_table, [], pm.k)[1]
    assert bilipschitz_bounds(empty, empty, pm) == ref_bilipschitz([], [], 0, [], [], pm.k)


@pytest.mark.parametrize("seed", [23, 24, 25])
def test_subspace_renumbering_across_rank_types(seed):
    """260 distances take uint16 ranks; a ball that keeps at most 256 of them takes uint8.

    d(p_i, p_j) = max(i, j) / 1000 is an ultrametric; the points are listed
    in a shuffled order, so the ball's leaves are renumbered as well.
    """
    n = 260
    order = random.Random(seed).sample(range(n), n)
    points = [f"p{i}" for i in order]
    levels = [Fraction(k, 1000) for k in range(n)]
    table = [[levels[max(i, j)] if i != j else levels[0] for j in order] for i in order]
    model = Model(UltrametricSpace(points, table))
    assert model.space.row(0).dtype == np.uint16
    for eps in (Fraction(256, 1000), Fraction(255, 1000)):
        assert_same_model(epsilon_subspace(model, "p0", eps),
                          *ref_subspace(points, table, {}, "p0", eps))


# --- trees: validation and the tree's readers against the dense table --------

def labels(cases):
    return [label for label, _, _ in cases]


HISTORY_CASES = [case for case in CASES if case[0].startswith(("cantor-", "histories-"))]
HISTORY_CASES += [history_case("empty", [], {}),
                  history_case("one-point", ["x"], {"x": "0"}),
                  history_case("two-equal", ["y", "x"], {"x": "01", "y": "01"})]


@pytest.mark.parametrize("label, space, table", HISTORY_CASES, ids=labels(HISTORY_CASES))
def test_history_validation_matches_the_law_by_law_path(label, space, table):
    assert validate_space(space) == ref_validate(space.points, table)


@st.composite
def history_files(draw):
    """Point names and histories: prefixes shared, duplicates likely, some past 64 bits."""
    length = draw(st.sampled_from([1, 2, 5, 63, 64, 65, 130]))
    bits = lambda k: draw(st.text("01", min_size=k, max_size=k))  # noqa: E731
    stem = bits(length)
    pool = [stem[:cut] + bits(length - cut)
            for cut in draw(st.lists(st.integers(0, length), min_size=1, max_size=5))]
    n = draw(st.integers(0, 12))
    names = draw(st.permutations([f"h{i}" for i in range(n)]))
    return names, {name: draw(st.sampled_from(pool)) for name in names}


@settings(max_examples=300, deadline=None)
@given(history_files())
def test_generated_history_validation_matches_both_references(case):
    """The history tree, the Prim tree of its table and the law-by-law reference agree."""
    names, sequences = case
    _, space, table = history_case("generated", names, sequences)
    assert validate_space(space) == validate_space(UltrametricSpace(names, table)) == ref_validate(
        space.points, table)


def shuffle_twins(space, rnd):
    """The same space from its tree with the leaves of each maximal run of twins (adjacent rank 0) in shuffled order."""
    leaves, adjacent = (array.tolist() for array in space.tree)
    start = 0
    for k in range(len(leaves)):
        if k == len(adjacent) or adjacent[k]:  # leaf k ends a run
            run = leaves[start:k + 1]
            rnd.shuffle(run)
            leaves[start:k + 1] = run
            start = k + 1
    return UltrametricSpace.from_tree(space.points, space.realized_distances(), leaves, adjacent)


def test_twins_out_of_point_order_report_the_first_pair_in_point_order():
    space = UltrametricSpace.from_tree(list("abc"), [0], [1, 2, 0], [0, 0])
    table = [[0] * 3] * 3
    assert validate_space(space) == validate_space(UltrametricSpace(list("abc"), table)) == ref_validate(
        space.points, table)
    assert validate_space(space)[0].witness == ("a", "b")


@settings(max_examples=300, deadline=None)
@given(history_files(), st.randoms(use_true_random=False))
def test_shuffled_twin_validation_matches_the_law_by_law_path(case, rnd):
    """Each group of twins laid out in any order still reports the first twin pair in point order."""
    names, sequences = case
    _, space, table = history_case("generated", names, sequences)
    shuffled = shuffle_twins(space, rnd)
    assert dense_table(shuffled) == table
    assert validate_space(shuffled) == ref_validate(space.points, table)


def test_history_validation_runs_no_table_pass(monkeypatch):
    """A tree is checked without its table; a broken table runs the sweep only when Prim refuses it."""
    expected = [ref_validate(space.points, table) for _, space, table in HISTORY_CASES]
    matrix = UltrametricSpace(cantor_space(3).points, dense_table(cantor_space(3)))
    triangle, asymmetric = (CASES[IDS.index(label)][1] for label in ("triangle", "asymmetric"))
    # Off its diagonal a tree, but not held as one: d(a, a) is 1/8.
    laminar_table = [[Fraction(1, 8), Fraction(1, 2), 1], [Fraction(1, 2), 0, 1], [1, 1, 0]]
    laminar = UltrametricSpace(["a", "b", "c"], laminar_table)
    assert matrix.tree is not None and laminar.tree is None

    monkeypatch.setattr(space_module, "_strong_triangle_witness", refuse("_strong_triangle_witness"))
    assert validate_space(laminar) == ref_validate(laminar.points, laminar_table)
    for broken in (triangle, asymmetric):
        with pytest.raises(AssertionError, match="_strong_triangle_witness reached"):
            validate_space(broken)
    monkeypatch.setattr(space_module, "_single_linkage", refuse("_single_linkage"))
    with pytest.raises(AssertionError, match="_single_linkage reached"):
        validate_space(triangle)
    monkeypatch.setattr(UltrametricSpace, "row", refuse("row"))
    assert validate_space(matrix) == []
    assert [validate_space(space) for _, space, _ in HISTORY_CASES] == expected


def tree_grades(space):
    """``probe_grades`` of the space, which include a negative radius; three for an empty space."""
    realized = space.realized_distances()
    return probe_grades(realized) if realized else [Fraction(-1), Fraction(0), Fraction(1)]


def assert_readers_match_the_table(space, table, masks):
    """Balls, nearest points, distances, the ball listing and the dendrogram against the dense table."""
    pts, n = space.points, space.n
    for eps in tree_grades(space):
        assert per_point_balls(space, eps) == ref_ball_masks(table, eps), eps
        if space.tree is None:
            assert space.table_balls(space.rank_of(eps)) == ref_ball_masks(table, eps), eps
    masks = [0, space.full_mask, *masks, *(1 << i for i in range(n))]
    for mask in masks:
        points = point_mask(space, mask)
        for i, x in enumerate(pts):
            near = min((table[i][j] for j in range(n) if points >> j & 1), default=None)
            assert space.nearest_leaf(space.leaf(x), mask) == near, (i, mask)
    assert [space.dist(x, y) for x in pts for y in pts] == [d for row in table for d in row]
    if space.tree is not None:
        assert listed_tree_balls(space) == ref_distinct_balls(table)
    if breaks_a_law(pts, table):
        assert space.tree is None and space.tree_balls() is None
        with pytest.raises(ValueError, match="the space breaks a metric law"):
            dendrogram_dot(space)
        return
    nodes = ref_ball_tree(pts, table)
    assert dendrogram_dot(space) == ref_dot(nodes)
    # Each run of leaves is a distinct ball, with its diameter and the smallest ball above it.
    leaves, distances, balls = space.tree[0].tolist(), space.realized_distances(), space.tree_balls()
    members = [frozenset(pts[i] for i in leaves[start:end]) for start, end, _, _ in balls]
    found = {(members[j], distances[rank], None if parent is None else members[parent])
             for j, (_, _, rank, parent) in enumerate(balls)}
    assert len(found) == len(balls)
    assert found == {(frozenset(node.members), node.radius,
                      None if node.parent is None else frozenset(nodes[node.parent].members))
                     for node in nodes}


def wide_history_space():
    """150 points named out of history order, with duplicates: balls of 64 and more scattered points."""
    rng = random.Random(64)
    histories = [format(rng.randrange(2 ** 9), "09b") for _ in range(150)]
    names = [f"w{i}" for i in rng.sample(range(150), 150)]
    return history_case("wide", names, dict(zip(names, histories)))


def three_children():
    """Leaves a, b, c, d at adjacent ranks [2, 2, 1]: the root's children are {a}, {b} and {c, d}."""
    table = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, Fraction(1, 2)], [1, 1, Fraction(1, 2), 0]]
    table = tuple(tuple(map(Fraction, row)) for row in table)
    return "three-children", UltrametricSpace(list("abcd"), table), table


GENERATED_CASES = [case for case in CASES if case[0].startswith("generated-")]
TREE_CASES = HISTORY_CASES + [wide_history_space()] + GENERATED_CASES + [three_children()]
# Mostly broken, so held as tables; a perturbation may leave a valid table, held as a tree.
PERTURBED_CASES = [case for case in CASES if not case[0].startswith(("generated-", "cantor-", "histories-"))]


@pytest.mark.parametrize("label, space, table", TREE_CASES, ids=labels(TREE_CASES))
def test_tree_readers_match_the_table(label, space, table):
    assert space.tree is not None
    rng = random.Random(label)
    assert_readers_match_the_table(space, table, [rng.getrandbits(space.n) for _ in range(6)])


@pytest.mark.parametrize("label, space, table", PERTURBED_CASES, ids=labels(PERTURBED_CASES))
def test_perturbed_table_readers_match_the_table(label, space, table):
    rng = random.Random(label)
    assert_readers_match_the_table(space, table, [rng.getrandbits(space.n) for _ in range(6)])


@settings(max_examples=200, deadline=None)
@given(history_files(), st.data())
def test_generated_tree_readers_match_the_table(case, data):
    _, space, table = history_case("generated", *case)
    masks = data.draw(st.lists(st.integers(0, space.full_mask), max_size=4))
    assert_readers_match_the_table(space, table, masks)


def test_a_run_shared_by_three_children_ends_where_it_should():
    """A lower pair after two equal pairs opens its ball after the second, not after the first."""
    _, space, table = three_children()
    assert [part.tolist() for part in space.tree] == [[0, 1, 2, 3], [2, 2, 1]]
    assert space.tree_balls() == [(0, 4, 2, None), (2, 4, 1, 0), (0, 1, 0, 0), (1, 2, 0, 0),
                                  (2, 3, 0, 1), (3, 4, 0, 1)]
    assert space.nearest_leaf(space.leaf("c"), space.mask_of(["b"])) == 1
    assert space.ball("c", Fraction(1, 2)) == {"c", "d"}
    assert dendrogram_dot(space) == ref_dot(ref_ball_tree(space.points, table))


# --- leaf order: the modal step, grades and nearest points on the tree ---------

def shuffled_matrix():
    """A 9-point generated table under shuffled names, so Prim's leaves are out of point order."""
    source = random_ultrametric_space(random.Random(41), 9)
    order = random.Random(42).sample(range(9), 9)
    table = tuple(tuple(source.dist(source.points[a], source.points[b]) for b in order) for a in order)
    return "shuffled-matrix", UltrametricSpace([f"m{i}" for i in range(9)], table), table


def union_case():
    """A union of the shuffled matrix and a history space with twins: leaves out of point order."""
    _, matrix, matrix_table = shuffled_matrix()
    twins = ["b", "a", "c"], {"a": "01", "b": "01", "c": "11"}
    _, histories, history_table = history_case("twins", *twins)
    points, table, _ = ref_union([(matrix.points, matrix_table, {}), (histories.points, history_table, {})])
    union = disjoint_union([Model(matrix), Model(histories)]).space
    assert list(union.points) == points
    return "union", union, tuple(map(tuple, table))


LEAF_CASES = TREE_CASES + [shuffled_matrix(), union_case()]


def shuffled_cantor_file(depth):
    """A cantor file's histories listed in shuffled order: every ball of a grade has one size."""
    seqs = cantor_sequences(depth)
    names = [f"w{i}" for i in range(len(seqs))]
    listed = random.Random(depth).sample(names, len(names))
    return history_case(f"shuffled-cantor-{depth}", listed, dict(zip(names, seqs)))


def thinned_cantor(depth):
    """Cantor histories with about a third removed: the balls of a grade differ in size."""
    rng = random.Random(depth)
    seqs = [seq for seq in cantor_sequences(depth) if rng.random() < 0.65]
    return history_case(f"thinned-cantor-{depth}", seqs, dict(zip(seqs, seqs)))


#: More trees for the leaf step's two spreads: cantor depths 7-12, whose
#: tables are not built, a shuffled cantor file and a history set with
#: points removed.  Cantor depths 1-6, twins, one point and the empty space
#: are among the LEAF_CASES.
SPREAD_CASES = [(f"cantor-{depth}", cantor_space(depth), None) for depth in range(7, 13)]
SPREAD_CASES += [shuffled_cantor_file(5), thinned_cantor(6)]


def leaf_grades(space):
    """``tree_grades`` with grade 0, grade 1 and a negative radius added."""
    return tree_grades(space) + [Fraction(0), Fraction(1), Fraction(-1, 2)]


def leaf_masks(rng, space):
    return [0, space.full_mask, *(1 << i for i in range(min(space.n, 24))),
            *(rng.getrandbits(space.n) for _ in range(8))]


def ball_size(space, rank):
    """The one size of the balls of the radii below ``rank``, read from their runs and singles; 0 if sizes differ."""
    runs, singles = space.runs(rank)
    sizes = {end - start for start, end in runs} | ({1} if singles else set())
    return sizes.pop() if len(sizes) == 1 else 0


@pytest.mark.parametrize("label, space, table", LEAF_CASES + SPREAD_CASES, ids=labels(LEAF_CASES + SPREAD_CASES))
def test_leaf_step_matches_the_ball_step(label, space, table):
    """Both modalities, in leaf order by carries and spreads, against the per-ball step in point order.

    The per-ball step reads the same space held as a table (``held_as_table``).
    At every rank, ``tops`` marks the last leaf of each run and gives the
    balls' one size exactly when they all have it.
    """
    for rank in range(1, len(space.realized_distances()) + 1):
        runs, singles = space.runs(rank)
        ends = [end for start, end in runs] + [k + 1 for start, end in singles for k in range(start, end)]
        assert space.tops(rank) == (sum(1 << (end - 1) for end in ends), ball_size(space, rank)), rank
    rng = random.Random(label)
    per_ball = held_as_table(space)
    for mask in leaf_masks(rng, space):
        points = point_mask(space, mask)
        assert space.names_of(mask) == point_names(space, points) and space.mask_of(space.names_of(mask)) == mask
        for eps in leaf_grades(space):
            for meets in (False, True):
                got = point_mask(space, _leaf_step(space, mask, space.rank_of(eps), meets))
                assert got == _ball_step(per_ball, points, per_ball.rank_of(eps), meets), (mask, eps, meets)


def test_the_leaf_step_cases_reach_both_spreads():
    """Balls of one size above 1 (one subtraction), of one leaf (no spread) and of differing sizes (doubling strides)."""
    sizes = {label: {ball_size(space, rank) for rank in range(1, len(space.realized_distances()) + 1)}
             for label, space, _ in LEAF_CASES + SPREAD_CASES}
    assert sizes["cantor-12"] == {1 << k for k in range(13)}
    assert sizes["shuffled-cantor-5"] == {1 << k for k in range(6)}
    assert 0 in sizes["thinned-cantor-6"] and 0 in sizes["wide"]
    assert sizes["one-point"] == {1} and sizes["two-equal"] == {2} and sizes["empty"] == set()


@pytest.mark.parametrize("label, space, table", LEAF_CASES, ids=labels(LEAF_CASES))
def test_ball_run_bounds_each_ball(label, space, table):
    """``tree[0][start:end]`` is the point's ball at every probe grade, and a negative radius gives ``(0, 0)``."""
    leaves = space.tree[0].tolist()
    for eps in leaf_grades(space):
        for x, ball in zip(space.points, ref_ball_masks(table, eps)):
            start, end = space.ball_run(x, eps)
            assert sum(1 << i for i in leaves[start:end]) == ball, (x, eps)
            if eps < 0:
                assert (start, end) == (0, 0), (x, eps)


def test_leaf_order_is_not_point_order_in_the_union_and_the_matrix():
    for _, space, _ in LEAF_CASES[-2:]:
        leaves = space.tree[0].tolist()
        assert leaves != list(range(space.n))
        assert [space.leaf(space.points[i]) for i in leaves] == list(range(space.n))
        for x in space.points:
            assert space.mask_of([x]) == 1 << space.leaf(x) and space.names_of(1 << space.leaf(x)) == {x}


@pytest.mark.parametrize("label, space, table", LEAF_CASES + PERTURBED_CASES,
                         ids=labels(LEAF_CASES + PERTURBED_CASES))
def test_nearest_is_the_least_rank_in_the_row(label, space, table):
    """``nearest_leaf`` (a scan of the leaf-order mask on a tree) against the minimum of each row over the mask."""
    rng = random.Random(label)
    distances = space.realized_distances()
    for mask in leaf_masks(rng, space):
        points = point_mask(space, mask)
        members = [j for j in range(space.n) if points >> j & 1]
        for i, x in enumerate(space.points):
            want = distances[space.row(i)[members].min()] if members else None
            assert space.nearest_leaf(space.leaf(x), mask) == want, (i, mask)


def test_nearest_on_4096_worlds_matches_the_row_minimum():
    """Sparse masks, so the nearest member is often far along the leaves on either side."""
    space, rng = cantor_space(12), random.Random(12)
    distances = space.realized_distances()
    for _ in range(60):
        members = rng.sample(range(space.n), rng.randint(1, 3))
        i = rng.randrange(space.n)
        want = distances[space.row(i)[members].min()]
        mask = space.mask_of(space.points[j] for j in members)
        assert space.nearest_leaf(space.leaf(space.points[i]), mask) == want, (i, members)


def test_each_grade_is_resolved_once(monkeypatch):
    """After its first use a grade's rank is read from a dict: balls, their runs of leaves and steps search nothing."""
    space = cantor_space(3)
    grades = [Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(-1), Fraction(2)]
    ranks = [space.rank_of(g) for g in grades]
    assert ranks == [4, 3, 1, 0, 4] and space.rank_of(1) == 4
    monkeypatch.setattr(space_module, "bisect_right", refuse("bisect_right"))
    assert [space.rank_of(g) for g in grades] == ranks
    assert space.rank_of("1/2") == space.rank_of(Fraction(2, 4)) == 4
    assert space.ball("000", Fraction(1, 2)) == set(space.points)
    assert space.ball("111", Fraction(1, 3)) == {"111", "110", "101", "100"}
    assert space.runs(space.rank_of(Fraction(1, 3))) == (((0, 4), (4, 8)), ())
    with pytest.raises(AssertionError, match="bisect_right reached"):
        space.rank_of(Fraction(1, 5))
    # Equal to the int 1 already resolved, and still refused.
    for unread in (1.0, True):
        with pytest.raises(TypeError):
            space.rank_of(unread)



def test_a_warm_leaf_step_reads_the_rank_by_the_grade_key_it_carries(monkeypatch):
    """A compiled modal step holds only its grade's key: a warm query reads no grade and searches no distances."""
    space = cantor_space(3)
    model = Model(space, {"p": space.points[::3]})
    f = parse("[1/4]<1/8>p -> <1/2>[1/16](p & <1/2>p)")
    want = truth_mask(model, f)
    keys = [b for op, _, b in semantics._program(f) if op in (Box, Diamond)]
    grades = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1, 16), Fraction(1, 2)]  # children first
    assert keys == [UltrametricSpace.grade_key(g) for g in grades]
    assert [space.rank_by_key(key) for key in keys] == [space.rank_of(g) for g in grades]
    monkeypatch.setattr(space, "rank_of", refuse("rank_of"))
    monkeypatch.setattr(space_module, "read_rational", refuse("read_rational"))
    monkeypatch.setattr(space_module, "bisect_right", refuse("bisect_right"))
    assert truth_mask(model, f) == want
    # A grade the space has not resolved yet is searched for once.
    with pytest.raises(AssertionError, match="bisect_right reached"):
        truth_mask(model, parse("[1/3]p"))


COLD_SPACES = {
    "tree": lambda: cantor_space(3),
    # d(a, a) = 1/8 breaks a law, so the space keeps its table.
    "table": lambda: UltrametricSpace(list("abcd"), [["1/8", "1/4", 1, 1], ["1/4", 0, 1, 1],
                                                     [1, 1, 0, "1/2"], [1, 1, "1/2", 0]]),
}


@pytest.mark.parametrize("shape", COLD_SPACES)
def test_a_grade_key_resolves_to_the_rank_among_the_realized_distances(shape):
    """On a cold space, ``rank_by_key`` of a grade's key is ``bisect_right`` of the grade in the realized distances.

    At grade 0, each realized distance, a value between two, one above the
    largest and a negative one; and a compiled program holds no Fraction.
    """
    space = COLD_SPACES[shape]()
    assert (space.tree is None) == (shape == "table")
    realized = space.realized_distances()
    grades = [Fraction(0), *realized, (realized[1] + realized[2]) / 2, realized[-1] + 1, Fraction(-1, 3)]
    for g in grades:
        assert space.rank_by_key(UltrametricSpace.grade_key(g)) == bisect_right(realized, g), g
    program = semantics._program(parse("[1/4]<1/8>p -> <0>[1]~(q & [1/4]p)"))
    keys = [b for op, _, b in program if op in (Box, Diamond)]
    assert len(keys) == 5 and all(type(part) is int for key in keys for part in key)
    assert not any(isinstance(x, Fraction) for step in program for x in step)


# --- the tree built from a table ----------------------------------------------

def holds_table(space):
    """Whether the space keeps a two-dimensional array, such as an n x n table, among its attributes."""
    return any(getattr(value, "ndim", 0) == 2 for value in vars(space).values())


def assert_tree_exactly_when_valid(points, table):
    """A table is held as a tree iff it breaks no law but identity of indiscernibles, and then dropped."""
    space = UltrametricSpace(points, table)
    laws = {violation.condition for violation in ref_validate(points, table)}
    assert (space.tree is not None) == (laws <= {"identity-of-indiscernibles"}), laws
    assert holds_table(space) == (space.tree is None)
    assert dense_table(space) == tuple(map(tuple, table))
    if space.tree is not None:
        leaves, adjacent = (part.tolist() for part in space.tree)
        distances = space.realized_distances()
        assert sorted(leaves) == list(range(len(points)))
        for i, a in enumerate(leaves):
            for j in range(i + 1, len(leaves)):
                b = leaves[j]
                assert table[a][b] == table[b][a] == distances[max(adjacent[i:j])], (a, b)


@pytest.mark.parametrize("label, space, table", CASES, ids=IDS)
def test_matrix_tree_exactly_when_valid(label, space, table):
    assert_tree_exactly_when_valid(space.points, table)


@st.composite
def tables_with_twins(draw):
    """History tables or generated tables with repeated points, some with entries changed."""
    if draw(st.booleans()):
        names, sequences = draw(history_files())
        table = [[sequence_distance(sequences[a], sequences[b]) for b in names] for a in names]
    else:
        base = random_ultrametric_space(random.Random(draw(st.integers(0, 2 ** 32))), draw(st.integers(1, 8)))
        copies = draw(st.lists(st.integers(0, base.n - 1), min_size=1, max_size=12))
        table = [[base.dist(base.points[a], base.points[b]) for b in copies] for a in copies]
        names = [f"p{i}" for i in range(len(copies))]
    pool = list(LEVEL_POOL) + [Fraction(0), Fraction(-1, 4), Fraction(3, 2), Fraction(1, 64)]
    for _ in range(draw(st.integers(0, 2)) if names else 0):
        i, j = draw(st.integers(0, len(names) - 1)), draw(st.integers(0, len(names) - 1))
        table[i][j] = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            table[j][i] = table[i][j]
    return names, table


@settings(max_examples=200, deadline=None)
@given(tables_with_twins())
def test_generated_tables_are_trees_exactly_when_valid(case):
    assert_tree_exactly_when_valid(*case)


def test_a_valid_table_builds_no_second_table():
    """2,048 points: the rank table takes 4 MiB, and growing its tree allocates under a quarter of that."""
    seqs = cantor_sequences(11)
    source = cantor_space(11)
    order = random.Random(11).sample(range(len(seqs)), len(seqs))
    ranks = np.array([source.row(i) for i in order])[:, order]
    tracemalloc.start()
    try:
        tree = space_module._single_linkage(ranks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree is not None
    space = UltrametricSpace.from_tree([seqs[i] for i in order], source.realized_distances(), *tree)
    assert all(np.array_equal(space.row(i), ranks[i]) for i in range(space.n))
    assert not holds_table(space)
    assert validate_space(space) == []
    assert peak < ranks.nbytes // 4, peak


def test_tree_readers_build_no_table(monkeypatch):
    """Validation, balls, nearest points and the dendrogram read a history space's tree alone, not a row."""
    seqs = cantor_sequences(4)
    cases = [(seqs, dict(zip(seqs, seqs))), (["b", "a", "c"], {"a": "01", "b": "01", "c": "11"})]
    spaces = [UltrametricSpace.from_sequences(names, sequences) for names, sequences in cases]
    monkeypatch.setattr(UltrametricSpace, "row", refuse("row"))
    for space, (names, _) in zip(spaces, cases):
        validate_space(space)
        for eps in tree_grades(space):
            space.ball(names[0], eps)
            interior_mask(space, space.full_mask, eps)
        space.tree_balls()
        assert space.nearest_leaf(space.leaf(space.points[0]), space.full_mask) == 0
        dendrogram_dot(space)
        stability_degree(Model(space, {"p": names[:1]}), names[0], Atom("p"))
    monkeypatch.undo()
    for space, (names, sequences) in zip(spaces, cases):
        first, last = names[0], names[-1]
        assert space.dist(first, last) == sequence_distance(sequences[first], sequences[last])
        assert not holds_table(space)


def test_depth_14_truthset_allocates_no_table(tmp_path):
    """16,384 worlds: the rank table alone would take 256 MiB; load and truthset stay under 64 MiB."""
    seqs = cantor_sequences(14)
    names = [f"w{i}" for i in range(len(seqs))]
    path = tmp_path / "cantor14.json"
    path.write_text(json.dumps({"points": names, "distance": {"sequences": dict(zip(names, seqs))},
                                "valuation": {"p": names[::3]}}))
    tracemalloc.start()
    try:
        model = load_model(path)
        points = truthset(model, Atom("p")).points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == len(names[::3])
    assert peak < 64 * 2 ** 20, peak


# --- names in leaf order ------------------------------------------------------

def ref_names_of(space, mask):
    """The names of a leaf-order mask, one lookup per member, as ``names_of`` once read them."""
    return frozenset(map(space.points.__getitem__, space.leaves[space.members(mask)].tolist()))


def ref_ball(space, x, eps):
    """``ball`` as it once named a tree's run of leaves, one lookup per member; a table's row by ``ref_names_of``."""
    if space.tree is None:
        return ref_names_of(space, space.table_balls(space.rank_of(eps))[space.index(x)])
    start, end = space.ball_run(x, eps)
    return frozenset(map(space.points.__getitem__, space.leaves[start:end].tolist()))


def byte_boundary_spaces():
    """Trees and tables of 7, 8, 9, 63, 64 and 65 points, around the byte boundaries of a mask."""
    spaces = []
    for n in (7, 8, 9, 63, 64, 65):
        tree = random_ultrametric_space(random.Random(n), n)
        spaces += [(f"tree-{n}", tree), (f"table-{n}", held_as_table(tree))]
    return spaces


NAMED_SPACES = [(label, space) for label, space, _ in CASES] + EMPTY_SPACES + byte_boundary_spaces()


@pytest.mark.parametrize("label, space", NAMED_SPACES, ids=[label for label, _ in NAMED_SPACES])
def test_names_of_and_ball_match_one_lookup_per_member(label, space):
    """``names_of`` and ``ball`` against the lookup per member they replaced, on masks at every edge."""
    n, rng = space.n, random.Random(label)
    masks = {0, space.full_mask, *(1 << k for k in range(n)), *(rng.getrandbits(n) for _ in range(20))}
    if n:
        masks |= {1, 1 << (n - 1), 1 | 1 << (n - 1)}  # the first and the last leaf
    for mask in sorted(masks):
        assert space.names_of(mask) == ref_names_of(space, mask), mask
    for eps in tree_grades(space):
        for x in space.points:
            assert space.ball(x, eps) == ref_ball(space, x, eps), (x, eps)


def ref_mask_of(space, names):
    """The leaf-order mask of ``names``, one bit or-ed in per name given, at the leaf ``leaves`` puts its point."""
    index = {name: i for i, name in enumerate(space.points)}
    leaf = {i: k for k, i in enumerate(space.leaves.tolist())}
    mask = 0
    for name in names:
        mask |= 1 << leaf[index[name]]
    return mask


def mask_spaces():
    """Trees and tables of 0, 1, 7, 8, 9, 63, 64, 65, 511, 512 and 513 points, around byte and old size boundaries.

    Each tree is read from distinct random histories, so its leaf order is
    the histories' order and not the order its points are listed in.
    """
    spaces = list(EMPTY_SPACES)
    for n in (1, 7, 8, 9, 63, 64, 65, 511, 512, 513):
        rng = random.Random(n)
        names = [f"x{i}" for i in range(n)]
        histories = [format(k, "012b") for k in rng.sample(range(1 << 12), n)]
        tree = UltrametricSpace.from_sequences(names, dict(zip(names, histories)))
        assert n == 1 or tree.leaves.tolist() != list(range(n))
        spaces += [(f"tree-{n}", tree), (f"table-{n}", held_as_table(tree))]
    return spaces


MASK_SPACES = mask_spaces()


@pytest.mark.parametrize("label, space", MASK_SPACES, ids=[label for label, _ in MASK_SPACES])
def test_mask_of_matches_one_bit_per_name(label, space):
    """``mask_of`` against a bit or-ed in per name: every name, sets of 255-257 names, repeats and any order."""
    names, rng = list(space.points), random.Random(label)
    sets = [[], names, names[::-1], names[:1], names[-1:], rng.sample(names, len(names)), names + names[::2]]
    for size in (255, 256, 257):
        if size <= len(names):
            sets += [rng.sample(names, size), sorted(rng.sample(names, size))]
            repeated = rng.sample(names, size // 2)
            sets.append(rng.sample(repeated * 2, len(repeated) * 2))
    for chosen in sets:
        assert space.mask_of(chosen) == space.mask_of(iter(chosen)) == ref_mask_of(space, chosen), chosen
    for chosen in (["zz"], names + ["zz", "yy"], ["yy", *names, "zz"]):
        with pytest.raises(UnknownPointError) as caught:
            space.mask_of(chosen)
        assert caught.value.args == (next(name for name in chosen if name not in names),)


def test_the_names_in_leaf_order_are_read_only_and_built_once():
    space = UltrametricSpace.from_sequences(["b", "c", "a"], {"a": "00", "b": "10", "c": "01"})
    assert space._names is None
    assert space.names_of(0b011) == {"a", "c"}
    names = space._names
    assert names.tolist() == ["a", "c", "b"] and names.dtype == object
    assert not names.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        names[0] = "z"
    assert space.ball("b", Fraction(1, 4)) == {"b"} and space.names_of(space.full_mask) == {"a", "b", "c"}
    assert space._names is names
