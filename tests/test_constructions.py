import random
from fractions import Fraction

import pytest

from conftest import dense_table
from umlogic.constructions import (
    BilipschitzReport,
    PointMap,
    bilipschitz_bounds,
    check_bounded_morphism,
    check_frame_morphism,
    disjoint_union,
    epsilon_subspace,
    load_point_map,
    scale_space,
    union_point,
)
from umlogic.generators import random_model, random_ultrametric_space
from umlogic.modelio import ModelFormatError
from umlogic.space import Model, UltrametricSpace, UnknownPointError, cantor_space, validate_space


def oracle_frame_conditions(src, tgt, f, k):
    """Direct transcription of the forward and back conditions: each one's first failing pair in point order."""
    forward = next(
        ((w, v) for i, w in enumerate(src.points) for v in src.points[i + 1:]
         if tgt.dist(f[w], f[v]) > k * src.dist(w, v)),
        None,
    )
    back = next(
        ((w, v2) for w in src.points for v2 in tgt.points
         if not any(f[v] == v2 and src.dist(w, v) <= tgt.dist(f[w], v2) / k for v in src.points)),
        None,
    )
    return forward, back


def oracle_bilipschitz(src, tgt, f, k):
    """The report on a bijection by a loop over every pair's distances, in point order."""
    tightest = Fraction(1)
    for i, w in enumerate(src.points):
        for v in src.points[i + 1:]:
            d, d2 = src.dist(w, v), tgt.dist(f[w], f[v])
            if d == 0 or d2 == 0:
                return BilipschitzReport(ok=False, reason=f"degenerate zero distance on pair ({w}, {v})")
            tightest = max(tightest, d2 / d, d / d2)
    return BilipschitzReport(ok=True, tightest_k=tightest, satisfied_by_supplied_k=k >= tightest)


class TestDisjointUnion:
    def test_two_singletons_sit_at_two(self):
        a = Model(UltrametricSpace(["a"], [[0]]), {"p": ["a"]})
        b = Model(UltrametricSpace(["a"], [[0]]), {})
        union = disjoint_union([a, b])
        assert union.space.points == ("0:a", "1:a")
        assert union.space.dist("0:a", "1:a") == 2
        assert union.atom_set("p") == {"0:a"}

    def test_single_component_is_an_isomorphic_copy(self):
        m = Model(cantor_space(2), {"p": ["11", "10"]})
        union = disjoint_union([m])
        assert union.space.points == tuple(union_point(0, p) for p in m.space.points)
        assert dense_table(union.space) == dense_table(m.space)
        assert union.atom_set("p") == {"0:11", "0:10"}

    def test_two_depth1_components_realized_distances(self):
        models = [Model(cantor_space(1)), Model(cantor_space(1))]
        union = disjoint_union(models)
        assert union.space.realized_distances() == [Fraction(0), Fraction(1, 2), Fraction(2)]

    def test_union_passes_validation(self):
        rng = random.Random(41)
        for _ in range(10):
            models = [
                random_model(rng, random_ultrametric_space(rng, rng.randint(1, 4)), ("p",))
                for _ in range(rng.randint(1, 3))
            ]
            assert validate_space(disjoint_union(models).space) == []

    def test_valuations_merge_by_atom(self):
        a = Model(cantor_space(1), {"p": ["1"]})
        b = Model(cantor_space(1), {"p": ["0"], "q": ["1"]})
        union = disjoint_union([a, b])
        assert union.atom_set("p") == {"0:1", "1:0"}
        assert union.atom_set("q") == {"1:1"}

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            disjoint_union([])

    def test_component_distance_above_two_refused(self):
        wide = Model(UltrametricSpace(["a", "b"], [[0, 3], [3, 0]]), {"p": ["a"]})
        single = Model(UltrametricSpace(["c"], [[0]]))
        with pytest.raises(ValueError, match="^component distance 3 is above the union distance 2$"):
            disjoint_union([single, wide])
        # Alone, or beside empty components, nothing sits at distance 2.
        empty = Model(UltrametricSpace([], []))
        assert disjoint_union([empty, wide, empty]).space.realized_distances() == [0, 3]
        at_two = Model(UltrametricSpace(["a", "b"], [[0, 2], [2, 0]]))
        assert validate_space(disjoint_union([at_two, single]).space) == []

    def test_a_space_without_a_tree_is_refused(self, triangle_space):
        with pytest.raises(ValueError, match="component 1 breaks a metric law"):
            disjoint_union([Model(cantor_space(1)), Model(triangle_space)])
        with pytest.raises(ValueError, match="the space breaks a metric law"):
            epsilon_subspace(Model(triangle_space), "a", Fraction(1, 2))
        with pytest.raises(ValueError, match="the space breaks a metric law"):
            scale_space(triangle_space, 2)


class TestEpsilonSubspace:
    def test_depth3_eighth_ball(self):
        m = Model(cantor_space(3), {"p": ["111", "101"]})
        sub = epsilon_subspace(m, "111", Fraction(1, 8))
        assert sub.space.points == ("111", "110")
        assert sub.space.dist("111", "110") == Fraction(1, 8)
        assert sub.atom_set("p") == {"111"}

    def test_zero_ball_is_the_trivial_model(self):
        m = Model(cantor_space(3), {"p": ["111"]})
        sub = epsilon_subspace(m, "111", Fraction(0))
        assert sub.space.points == ("111",)
        assert sub.space.realized_distances() == [Fraction(0)]

    def test_unit_ball_is_everything(self):
        m = Model(cantor_space(2), {"q": ["00"]})
        sub = epsilon_subspace(m, "11", Fraction(1))
        assert sub.space.points == m.space.points
        assert dense_table(sub.space) == dense_table(m.space)

    def test_subspaces_validate(self):
        rng = random.Random(42)
        for _ in range(10):
            space = random_ultrametric_space(rng, 6)
            model = random_model(rng, space, ("p",))
            center = rng.choice(space.points)
            eps = rng.choice(space.realized_distances())
            assert validate_space(epsilon_subspace(model, center, eps).space) == []

    def test_unknown_center(self):
        with pytest.raises(UnknownPointError):
            epsilon_subspace(Model(cantor_space(1)), "nope", Fraction(1))


class TestFrameMorphisms:
    def test_identity_accepted(self):
        s = cantor_space(2)
        check = check_frame_morphism(s, s, PointMap({p: p for p in s.points}))
        assert check.ok

    def test_last_bit_truncation_accepted(self):
        src, tgt = cantor_space(4), cantor_space(3)
        mapping = {p: p[:3] for p in src.points}
        assert oracle_frame_conditions(src, tgt, mapping, Fraction(1)) == (None, None)
        check = check_frame_morphism(src, tgt, PointMap(mapping))
        assert check.ok

    def test_zero_padding_embedding_fails_back_condition(self):
        # Depth-2 histories embedded as depth-3 ones by appending a quiet
        # step: distances are preserved, but points ending in 1 have no
        # preimage, so the back condition must fail.
        src, tgt = cantor_space(2), cantor_space(3)
        mapping = {p: p + "0" for p in src.points}
        assert oracle_frame_conditions(src, tgt, mapping, Fraction(1)) == (None, ("11", "111"))
        check = check_frame_morphism(src, tgt, PointMap(mapping))
        assert not check.ok
        assert check.forward_witness is None
        assert check.back_witness == ("11", "111")

    def test_constant_map_onto_singleton(self):
        src = cantor_space(1)
        tgt = UltrametricSpace(["t"], [[0]])
        check = check_frame_morphism(src, tgt, PointMap({p: "t" for p in src.points}))
        assert check.ok

    def test_half_scaling_identity_is_a_half_morphism(self):
        src = cantor_space(3)
        tgt = scale_space(src, Fraction(1, 2))
        pm = PointMap({p: p for p in src.points}, Fraction(1, 2))
        assert check_frame_morphism(src, tgt, pm).ok
        assert not check_frame_morphism(src, tgt, PointMap({p: p for p in src.points}, Fraction(1, 4))).ok

    def test_non_total_map_rejected(self):
        s = cantor_space(1)
        with pytest.raises(ValueError, match="total"):
            check_frame_morphism(s, s, PointMap({"1": "1"}))

    def test_image_must_exist(self):
        s = cantor_space(1)
        with pytest.raises(UnknownPointError):
            check_frame_morphism(s, s, PointMap({"1": "2", "0": "0"}))

    def test_random_maps_agree_with_oracle(self):
        rng, bijections = random.Random(43), random.Random(44)
        for _ in range(40):
            src = random_ultrametric_space(rng, rng.randint(2, 5), prefix="s")
            tgt = random_ultrametric_space(rng, rng.randint(1, 4), prefix="t")
            mapping = {p: rng.choice(tgt.points) for p in src.points}
            k = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
            check = check_frame_morphism(src, tgt, PointMap(mapping, k))
            forward, back = oracle_frame_conditions(src, tgt, mapping, k)
            assert (check.forward_witness, check.back_witness) == (forward, back)
            assert check.ok == (forward is None and back is None)
            # A bijection onto copies of a random space's points; repeated copies are twins, at distance 0.
            base, n = random_ultrametric_space(bijections, src.n, prefix="b"), src.n
            picks = bijections.sample(range(n), n) if bijections.random() < 0.5 else [
                bijections.randrange(n) for _ in range(n)]
            copies = UltrametricSpace([f"c{i}" for i in range(n)], [
                [base.dist(base.points[a], base.points[b]) for b in picks] for a in picks])
            onto = dict(zip(src.points, bijections.sample(copies.points, n)))
            pm = PointMap(onto, k)
            assert bilipschitz_bounds(src, copies, pm) == oracle_bilipschitz(src, copies, onto, k)


class TestBoundedMorphisms:
    def test_atom_agreement_witness(self):
        s = cantor_space(1)
        src = Model(s, {"p": ["1"]})
        tgt = Model(UltrametricSpace(["t"], [[0]]), {"p": []})
        check = check_bounded_morphism(src, tgt, PointMap({"1": "t", "0": "t"}))
        assert not check.ok
        assert check.atom_witness == ("p", "1")
        assert "atom agreement" in " ".join(check.failures())

    def test_identity_on_model_accepted(self, w_model):
        pm = PointMap({p: p for p in w_model.space.points})
        assert check_bounded_morphism(w_model, w_model, pm).ok


class TestBilipschitz:
    def test_identity_is_an_isometry(self):
        s = cantor_space(2)
        report = bilipschitz_bounds(s, s, PointMap({p: p for p in s.points}))
        assert report.ok
        assert report.tightest_k == 1
        assert report.satisfied_by_supplied_k

    def test_first_bit_swap_is_an_isometry(self):
        s = cantor_space(2)
        swap = {p: ("1" if p[0] == "0" else "0") + p[1:] for p in s.points}
        report = bilipschitz_bounds(s, s, PointMap(swap))
        assert report.ok and report.tightest_k == 1

    def test_truncation_rejected_as_non_bijective(self):
        src, tgt = cantor_space(4), cantor_space(3)
        report = bilipschitz_bounds(src, tgt, PointMap({p: p[:3] for p in src.points}))
        assert not report.ok
        assert "bijection" in report.reason

    def test_half_scaling_needs_k_two(self):
        src = cantor_space(3)
        tgt = scale_space(src, Fraction(1, 2))
        pm = PointMap({p: p for p in src.points}, Fraction(2))
        report = bilipschitz_bounds(src, tgt, pm)
        assert report.ok
        assert report.tightest_k == 2
        assert report.satisfied_by_supplied_k


class TestPointMapIO:
    def test_load(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"k": "1/1", "map": {"a": "b"}}')
        pm = load_point_map(path)
        assert pm.k == 1
        assert pm.mapping == {"a": "b"}

    def test_default_k_is_one(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"map": {}}')
        assert load_point_map(path).k == 1

    def test_nonpositive_k_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"k": "0", "map": {}}')
        with pytest.raises(ModelFormatError, match="positive"):
            load_point_map(path)

    def test_float_k_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"k": 0.5, "map": {}}')
        with pytest.raises(ModelFormatError, match="float"):
            load_point_map(path)

    def test_point_map_validates_k(self):
        with pytest.raises(ValueError):
            PointMap({}, Fraction(-1))


class TestScaleSpace:
    def test_scaling_multiplies_distances(self):
        s = cantor_space(2)
        doubled = scale_space(s, Fraction(2))
        assert doubled.dist("11", "00") == 1
        assert validate_space(doubled) == []

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            scale_space(cantor_space(1), Fraction(0))
