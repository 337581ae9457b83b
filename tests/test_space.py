import random
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from umlogic.constructions import PointMap, epsilon_subspace, scale_space
from umlogic.formula import Atom, Box, Diamond, GradeError, Implies, as_grade
from umlogic.generators import formula_grades, random_ultrametric_space
from umlogic.semantics import (
    _row_step,
    closure_eps,
    closure_mask,
    interior_eps,
    interior_mask,
    truthset,
)
from umlogic.space import (
    Model,
    UltrametricSpace,
    UnknownPointError,
    cantor_sequences,
    cantor_space,
    read_rational,
    sequence_distance,
    validate_space,
)
from umlogic.validity import valid_in_model

from conftest import point_mask, w_named_space


def first_diff_distance(a: str, b: str) -> Fraction:
    # Independent transcription of the history metric, used as the oracle.
    for i, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return Fraction(1, 2 ** i)
    return Fraction(0)


class TestCantorSpace:
    def test_depth3_sibling_distance(self):
        s = cantor_space(3)
        assert s.dist("111", "110") == Fraction(1, 8)

    def test_depth3_cousin_distances(self):
        s = cantor_space(3)
        assert s.dist("111", "101") == Fraction(1, 4)
        assert s.dist("111", "100") == Fraction(1, 4)

    def test_depth3_far_half(self):
        s = cantor_space(3)
        for other in ("011", "010", "001", "000"):
            assert s.dist("111", other) == Fraction(1, 2)

    def test_event_tree_leaf_order(self):
        assert cantor_sequences(2) == ["11", "10", "01", "00"]
        assert cantor_space(3).points[0] == "111"

    def test_matches_first_difference_oracle(self):
        s = cantor_space(4)
        for a in s.points:
            for b in s.points:
                assert s.dist(a, b) == first_diff_distance(a, b)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            cantor_space(0)

    def test_sequence_distance_requires_equal_length(self):
        with pytest.raises(ValueError):
            sequence_distance("10", "101")

    def test_w_named_distance_table(self):
        # Eight-leaf tree: sibling pairs at 1/8, cousins at 1/4, far half at 1/2.
        s = w_named_space(3)
        eighth = Fraction(1, 8)
        for a, b in (("w0", "w1"), ("w2", "w3"), ("w4", "w5"), ("w6", "w7")):
            assert s.dist(a, b) == eighth
        assert s.dist("w0", "w2") == s.dist("w0", "w3") == Fraction(1, 4)
        for far in ("w4", "w5", "w6", "w7"):
            assert s.dist("w0", far) == Fraction(1, 2)


class TestValidation:
    def test_cantor_depths_validate(self):
        for depth in range(1, 11):
            assert validate_space(cantor_space(depth)) == []

    def test_triangle_violation_witness(self, triangle_space):
        report = validate_space(triangle_space)
        assert [v.condition for v in report] == ["strong-triangle"]
        assert report[0].witness == ("a", "c", "b")

    def test_zero_distance_between_distinct_points(self):
        s = UltrametricSpace.from_pairs(["a", "b"], {("a", "b"): 0})
        assert [v.condition for v in validate_space(s)] == ["identity-of-indiscernibles"]

    def test_negative_and_asymmetric_and_diagonal(self):
        s = UltrametricSpace(["a", "b"], [[0, Fraction(-1)], [1, Fraction(1, 2)]])
        conditions = {v.condition for v in validate_space(s)}
        assert conditions == {"nonnegativity", "symmetry", "zero-self-distance"}

    def test_valid_space_has_empty_report(self):
        s = UltrametricSpace.from_pairs(
            ["a", "b", "c"],
            {("a", "b"): Fraction(1, 4), ("b", "c"): Fraction(1, 2), ("a", "c"): Fraction(1, 2)},
        )
        assert validate_space(s) == []


class TestBalls:
    def test_depth3_small_ball(self):
        s = cantor_space(3)
        # Oracle: collect points within 1/8 by the first-difference formula.
        expected = {y for y in s.points if first_diff_distance("111", y) <= Fraction(1, 8)}
        assert expected == {"111", "110"}
        assert s.ball("111", Fraction(1, 8)) == expected

    def test_zero_ball_is_singleton(self):
        s = cantor_space(3)
        for x in s.points:
            assert s.ball(x, Fraction(0)) == {x}

    def test_unit_ball_is_everything(self):
        s = cantor_space(3)
        assert s.ball("010", Fraction(1)) == set(s.points)

    def test_unknown_point(self):
        with pytest.raises(UnknownPointError):
            cantor_space(2).ball("2", Fraction(1))

    def test_every_point_in_a_ball_is_its_center(self):
        rng = random.Random(11)
        spaces = [cantor_space(3)] + [random_ultrametric_space(rng, 6) for _ in range(10)]
        for s in spaces:
            assert validate_space(s) == []
            for eps in s.realized_distances():
                for x in s.points:
                    ball = s.ball(x, eps)
                    for y in ball:
                        assert s.ball(y, eps) == ball

    def test_intersecting_balls_are_nested(self):
        rng = random.Random(12)
        spaces = [cantor_space(2)] + [random_ultrametric_space(rng, 7) for _ in range(10)]
        for s in spaces:
            balls = {s.ball(x, eps) for x in s.points for eps in s.realized_distances()}
            for u in balls:
                for v in balls:
                    if u & v:
                        assert u <= v or v <= u

    def test_closed_balls_are_open_at_the_next_radius(self):
        # A closed ball equals the open ball of any radius strictly between
        # its own and the next realized distance.
        rng = random.Random(13)
        for s in [cantor_space(3)] + [random_ultrametric_space(rng, 6) for _ in range(5)]:
            realized = s.realized_distances()
            for r, r_next in zip(realized, realized[1:]):
                mid = (r + r_next) / 2
                for x in s.points:
                    open_ball = {y for y in s.points if s.dist(x, y) < mid}
                    assert open_ball == s.ball(x, r)


class TestRealizedDistances:
    def test_depth3(self):
        assert cantor_space(3).realized_distances() == [
            Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2),
        ]

    def test_single_point(self):
        s = UltrametricSpace(["only"], [[0]])
        assert s.realized_distances() == [Fraction(0)]


class TestFromTree:
    """``from_tree`` takes each adjacent pair's distance as an index into any list of exact distances.

    The list may be out of order, repeat entries or hold entries no pair
    uses; the space keeps the distances in use and 0, ascending, and a
    broken tree is refused before any space is built.
    """

    #: a and b at 1/2, b and c at 1/4, so a and c at 1/2: the tree a-b-c with heights 1/2, 1/4.
    MATRIX = UltrametricSpace(list("abc"), [[0, "1/2", "1/2"], ["1/2", 0, "1/4"], ["1/2", "1/4", 0]])

    def test_out_of_order_distances_give_the_matrix_s_distances_and_balls(self):
        space = UltrametricSpace.from_tree(list("abc"), [Fraction(0), Fraction(1, 2), Fraction(1, 4)],
                                           [0, 1, 2], [1, 2])
        assert space.realized_distances() == self.MATRIX.realized_distances()
        for x in "abc":
            for eps in [Fraction(-1), *self.MATRIX.realized_distances(), Fraction(1, 3), Fraction(1)]:
                assert space.ball(x, eps) == self.MATRIX.ball(x, eps), (x, eps)
            for y in "abc":
                assert space.dist(x, y) == self.MATRIX.dist(x, y)
        assert space.ball("b", Fraction(1, 4)) == {"b", "c"}

    def test_duplicate_and_unused_entries_are_not_realized(self):
        # Index 1 (1/3) and index 5 are never used; 1/4 and 1/2 each appear twice.
        distances = ["1/4", Fraction(1, 3), Fraction(1, 4), 0, "1/2", Fraction(1, 2)]
        space = UltrametricSpace.from_tree(list("abcd"), distances, [2, 0, 3, 1], [0, 4, 2])
        quarter, half = Fraction(1, 4), Fraction(1, 2)
        assert space.realized_distances() == [0, quarter, half]
        assert all(type(d) is Fraction for d in space.realized_distances())
        assert formula_grades(space) == [0, quarter, half, 1]
        assert [space.dist("c", y) for y in "abcd"] == [quarter, half, 0, half]
        assert space.ball("d", quarter) == {"b", "d"}

    def test_adjacent_may_be_the_read_only_uint8_array_of_a_tree(self):
        source = cantor_space(3)
        leaves, adjacent = source.tree
        assert adjacent.dtype == np.uint8 and not adjacent.flags.writeable
        # The same distances as text, with an unused entry after them.
        text = [str(d) for d in source.realized_distances()] + ["5"]
        space = UltrametricSpace.from_tree(source.points, text, leaves, adjacent)
        assert space.realized_distances() == source.realized_distances()
        assert [part.tolist() for part in space.tree] == [part.tolist() for part in source.tree]
        assert all(space.dist(x, y) == source.dist(x, y) for x in source.points for y in source.points)

    def test_any_order_of_a_generated_space_s_distances_gives_the_same_space(self):
        rng = random.Random(27)
        for _ in range(40):
            source = random_ultrametric_space(rng, rng.randint(1, 9))
            realized = source.realized_distances()
            # Each distance listed twice, shuffled, with an unused 7 among them.
            listed = realized * 2 + [Fraction(7)]
            rng.shuffle(listed)
            adjacent = [listed.index(realized[r]) for r in source.tree[1].tolist()]
            space = UltrametricSpace.from_tree(source.points, listed, source.tree[0], adjacent)
            assert space.realized_distances() == realized
            assert [space.row(i).tolist() for i in range(space.n)] == [source.row(i).tolist() for i in range(source.n)]

    @pytest.mark.parametrize("distances, leaves, adjacent, error", [
        ([0, -1], [0, 1], [1], ValueError),
        ([0, 0.5], [0, 1], [1], TypeError),
        ([0, "1/2"], [0, 0], [1], ValueError),
        ([0, "1/2"], [1, 2], [1], ValueError),
        ([0, "1/2"], [0, 1], [2], ValueError),
        ([0, "1/2"], [0, 1], [-1], ValueError),
    ], ids=["negative-height", "float-height", "repeated-leaf", "leaf-out-of-range", "index-past-the-list",
            "negative-index"])
    def test_a_broken_tree_is_refused_before_a_space_is_built(self, distances, leaves, adjacent, error):
        with mock.patch.object(UltrametricSpace, "_setup") as setup, pytest.raises(error):
            UltrametricSpace.from_tree(["a", "b"], distances, leaves, adjacent)
        assert not setup.called


class TestConstruction:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            UltrametricSpace(["a", "a"], [[0, 1], [1, 0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            UltrametricSpace(["a", "b"], [[0, 1]])

    def test_from_pairs_requires_total_cover(self):
        with pytest.raises(ValueError, match="every unordered pair"):
            UltrametricSpace.from_pairs(["a", "b", "c"], {("a", "b"): 1})

    def test_from_pairs_unknown_point(self):
        with pytest.raises(UnknownPointError):
            UltrametricSpace.from_pairs(["a", "b"], {("a", "z"): 1})

    def test_from_sequences_rejects_non_binary(self):
        with pytest.raises(ValueError, match="binary"):
            UltrametricSpace.from_sequences(["a"], {"a": "102"})

    def test_from_sequences_rejects_ragged(self):
        with pytest.raises(ValueError, match="same length"):
            UltrametricSpace.from_sequences(["a", "b"], {"a": "10", "b": "1"})

    def test_from_sequences_of_no_points_realizes_no_distance(self):
        assert UltrametricSpace.from_sequences([], {}).realized_distances() == []

    @pytest.mark.parametrize("build", [
        lambda text: UltrametricSpace(["a"], [[text]]),
        lambda text: UltrametricSpace.from_pairs(["a", "b"], {("a", "b"): text}),
        lambda text: PointMap({}, text),
    ], ids=["matrix", "pairs", "point-map"])
    def test_exponent_notation_rejected_at_once(self, build):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent notation"):
            build("1e999999999")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("text", ["1_0/20", "1/2_0", "0.1_25", "١/٢", "１/２", "0.５"])
    def test_only_ascii_text_without_underscores_is_read(self, text):
        with pytest.raises(ValueError, match="not a plain rational"):
            read_rational(text)

    @pytest.mark.parametrize("text, value", [("1/2", Fraction(1, 2)), (" 3/8 ", Fraction(3, 8)),
                                             ("0.125", Fraction(1, 8)), ("-2", Fraction(-2)), ("+1/4", Fraction(1, 4))])
    def test_plain_text_is_still_read(self, text, value):
        assert read_rational(text) == value

    @pytest.mark.parametrize("value", [0.5, True, None], ids=["float", "bool", "none"])
    @pytest.mark.parametrize("build", [
        lambda value: UltrametricSpace(["a"], [[value]]),
        lambda value: UltrametricSpace.from_pairs(["a", "b"], {("a", "b"): value}),
        lambda value: PointMap({}, value),
        lambda value: scale_space(cantor_space(1), value),
        as_grade,
        lambda value: Box(value, Atom("p")),
        lambda value: Diamond(value, Atom("p")),
    ], ids=["matrix", "pairs", "point-map", "scale", "as-grade", "box", "diamond"])
    def test_inexact_numbers_refused_by_the_one_reader(self, build, value):
        # Grade readers wrap the reader's TypeError in a GradeError.
        with pytest.raises((TypeError, GradeError)) as info:
            build(value)
        refusal = info.value if isinstance(info.value, TypeError) else info.value.__cause__
        assert isinstance(refusal, TypeError)
        assert "is not an exact rational" in str(refusal)

    # a and b 3/10 apart as a table, whose c breaks the strong triangle
    # inequality so that no tree is built; 1/4 apart as a tree, from histories.
    RADIUS_SPACES = {
        "table": lambda: UltrametricSpace.from_pairs(
            ["a", "b", "c"], {("a", "b"): "3/10", ("b", "c"): "3/10", ("a", "c"): "1"}),
        "tree": lambda: UltrametricSpace.from_sequences(["a", "b"], {"a": "00", "b": "01"}),
    }
    RADIUS_READERS = {
        "ball": lambda s, r: s.ball("a", r),
        "ball-run": lambda s, r: s.ball_run("a", r),
        # A batch's step takes the rank its radius resolves to.
        "row-step": lambda s, r: _row_step(s, np.arange(1, s.n + 1, dtype=np.uint64)[:, None], s.rank_of(r), False,
                                           np.empty((s.n, 1), dtype=np.uint64)),
        "interior-mask": lambda s, r: interior_mask(s, 1, r),
        "closure-mask": lambda s, r: closure_mask(s, 1, r),
        "interior-eps": lambda s, r: interior_eps(s, ["a"], r),
        "closure-eps": lambda s, r: closure_eps(s, ["a"], r),
        "epsilon-subspace": lambda s, r: epsilon_subspace(Model(s), "a", r).space.points,
    }

    @pytest.mark.parametrize("value", [0.3, True, None], ids=["float", "bool", "none"])
    @pytest.mark.parametrize("shape", RADIUS_SPACES)
    @pytest.mark.parametrize("reader", RADIUS_READERS)
    def test_inexact_radii_refused_by_the_one_reader(self, reader, shape, value):
        space = self.RADIUS_SPACES[shape]()
        with pytest.raises(TypeError, match="is not an exact rational"):
            self.RADIUS_READERS[reader](space, value)

    @pytest.mark.parametrize("shape", RADIUS_SPACES)
    @pytest.mark.parametrize("reader", RADIUS_READERS)
    def test_radius_as_text_is_the_exact_radius(self, reader, shape):
        space = self.RADIUS_SPACES[shape]()
        exact = space.dist("a", "b")
        read = self.RADIUS_READERS[reader]
        if reader in ("epsilon-subspace", "ball-run") and shape == "table":
            # Leaf bounds and constructions take only trees; the radius is read before the refusal.
            with pytest.raises(ValueError, match="the space breaks a metric law"):
                read(space, str(exact))
            return
        result = read(space, str(exact))
        assert result is not None and np.array_equal(result, read(space, exact))
        assert np.array_equal(read(space, 1), read(space, Fraction(1)))

    def test_float_radius_is_refused_not_rounded(self):
        # 0.3 as a float is slightly below 3/10, so its ball would miss b.
        space = self.RADIUS_SPACES["table"]()
        assert space.tree is None
        assert space.ball("a", Fraction(3, 10)) == {"a", "b"}
        with pytest.raises(TypeError):
            space.ball("a", 0.3)

    def test_text_grade_is_read(self):
        assert Box("1/2", Atom("p")) == Box(Fraction(1, 2), Atom("p"))

    def test_float_grade_is_refused_not_rounded(self):
        # 0.3 as a float is slightly below 3/10, so [0.3]p would miss b.
        s = UltrametricSpace.from_pairs(["a", "b"], {("a", "b"): "3/10"})
        p = Atom("p")
        assert truthset(Model(s, {"p": ["a"]}), Box(Fraction(3, 10), p)).points == frozenset()
        assert not valid_in_model(s, Implies(p, Box(Fraction(3, 10), p))).valid
        with pytest.raises(GradeError):
            truthset(Model(s, {"p": ["a"]}), Box(0.3, p))
        with pytest.raises(GradeError):
            valid_in_model(s, Implies(p, Box(0.3, p)))


class TestModel:
    def test_missing_atoms_are_empty(self, w_model):
        assert w_model.atom_set("r") == frozenset()

    def test_valuation_normalized_to_frozensets(self, w_model):
        assert w_model.atom_set("p") == frozenset({"w0", "w1"})

    def test_valuation_point_must_exist(self):
        with pytest.raises(UnknownPointError):
            Model(cantor_space(1), {"p": ["nope"]})

    @pytest.mark.parametrize("names", [["zz1", "zz2", "zz3"], ["zz3", "zz2", "zz1"], ["11", "zz2", "10", "zz1"]])
    def test_first_unknown_point_in_the_given_order_is_named(self, names):
        with pytest.raises(UnknownPointError) as info:
            Model(cantor_space(2), {"q": ["11"], "p": names})
        assert info.value.args == (next(name for name in names if name.startswith("zz")),)

    def test_masks_count_each_point_once(self):
        """Repeated names, few (bits set one by one) or many (bits packed by numpy)."""
        space = cantor_space(9)
        names = list(space.points[::3])
        expected = sum(1 << space.leaf(name) for name in names)
        assert space.mask_of(iter(names + names[::-1] + names[:70])) == expected
        assert space.mask_of(names[:5] * 3) == sum(1 << space.leaf(name) for name in names[:5])
        assert point_mask(space, space.mask_of(["111111111", "111111111", "111111110"])) == 0b11
        model = Model(space, {"p": names * 2, "q": (name for name in names[:5] * 3)})
        assert model.leaf_mask("p") == expected and model.atom_set("p") == frozenset(names)
        assert model.leaf_mask("q") == space.mask_of(names[:5]) and model.atom_set("q") == frozenset(names[:5])
