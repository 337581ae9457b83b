import random
from fractions import Fraction

import pytest

import umlogic.harness as harness
from test_rank_table import LEAF_CASES, PERTURBED_CASES, ref_distinct_balls
from umlogic.constructions import PointMap, scale_space
from umlogic.generators import formula_grades, random_formula, random_model, random_ultrametric_space
from umlogic.harness import (
    HarnessConfig,
    axiom_instances,
    check_morphism_transfer,
    check_subspace_validity,
    check_union_invariance,
    check_union_invariance_exhaustive,
    check_union_validity,
    preservation_harness,
    report_to_dict,
)
from umlogic.parser import parse
from umlogic.space import Model, cantor_space


def two_models(seed: int, n: int = 4):
    rng = random.Random(seed)
    return [
        random_model(rng, random_ultrametric_space(rng, n, prefix=f"c{i}_"), ("p", "q"))
        for i in range(2)
    ]


class TestUnionInvariance:
    def test_random_formulas_find_no_discrepancy(self):
        models = two_models(81)
        rng = random.Random(82)
        grades = formula_grades(models[0].space) + formula_grades(models[1].space)
        formulas = [random_formula(rng, ("p", "q"), grades, 3) for _ in range(100)]
        report = check_union_invariance(models, formulas)
        assert report.ok
        assert report.samples == 100 * 8

    def test_exhaustive_depth3(self):
        report = check_union_invariance_exhaustive(two_models(83), max_depth=3)
        assert report.ok
        assert report.samples > 50

    def test_exhaustive_closure_saturates(self):
        # With one atom over tiny components the signature space closes
        # well before any depth bound.
        models = [
            Model(cantor_space(1), {"p": ["1"]}),
            Model(cantor_space(1), {"p": ["0"]}),
        ]
        deep = check_union_invariance_exhaustive(models, max_depth=9, atom_names=("p",))
        shallow = check_union_invariance_exhaustive(models, max_depth=4, atom_names=("p",))
        assert deep.ok
        assert deep.samples == shallow.samples


class TestUnionValidity:
    def test_axioms_stay_valid_on_unions(self):
        models = two_models(84)
        report = check_union_validity([m.space for m in models], [f for _, f in axiom_instances()])
        assert report.ok

    def test_invalid_component_formula_is_reported(self):
        models = two_models(85)
        report = check_union_validity([m.space for m in models], [parse("p")])
        assert not report.ok
        assert "invalid on component" in report.first_witness


class TestSubspaceValidity:
    def test_axioms_stay_valid_on_ball_subspaces(self):
        report = check_subspace_validity(cantor_space(2), [f for _, f in axiom_instances()])
        assert report.ok

    @pytest.mark.parametrize("label, space, table", LEAF_CASES, ids=[label for label, _, _ in LEAF_CASES])
    def test_balls_are_visited_in_the_table_listing_order(self, label, space, table, monkeypatch):
        """Each distinct ball once, by radius and then first centre, as ``ref_distinct_balls`` lists the table's."""
        visited, real = [], harness.epsilon_subspace

        def recorder(model, center, eps):
            sub = real(model, center, eps)
            visited.append((center, eps, sub.space.points))
            return sub

        monkeypatch.setattr(harness, "epsilon_subspace", recorder)
        check_subspace_validity(space, [])
        points = space.points
        assert visited == [(points[i], radius, tuple(p for j, p in enumerate(points) if mask >> j & 1))
                           for i, radius, mask in ref_distinct_balls(table)]

    def test_a_space_without_a_tree_is_refused(self):
        space = next(space for _, space, _ in PERTURBED_CASES if space.tree is None)
        with pytest.raises(ValueError, match="the space breaks a metric law"):
            check_subspace_validity(space, [])


class TestMorphismTransfer:
    def test_identity_transfers_everything(self):
        model = two_models(86)[0]
        rng = random.Random(87)
        formulas = [
            random_formula(rng, ("p", "q"), formula_grades(model.space), 3) for _ in range(50)
        ]
        identity = PointMap({p: p for p in model.space.points})
        report = check_morphism_transfer(model, model, identity, formulas)
        assert report.ok

    def test_half_scaling_transfers_rescaled_diamonds(self):
        model = two_models(88)[0]
        target = Model(scale_space(model.space, Fraction(1, 2)), model.valuation)
        pm = PointMap({p: p for p in model.space.points}, Fraction(1, 2))
        rng = random.Random(89)
        formulas = [
            random_formula(rng, ("p", "q"), formula_grades(model.space), 2) for _ in range(50)
        ]
        report = check_morphism_transfer(model, target, pm, formulas)
        assert report.ok
        assert report.samples > 0

    def test_rejects_non_morphisms(self):
        model = two_models(90)[0]
        other = two_models(91)[1]
        mapping = {p: other.space.points[0] for p in model.space.points}
        with pytest.raises(ValueError, match="bounded morphism"):
            check_morphism_transfer(model, other, PointMap(mapping), [parse("p")])


class TestHarness:
    def test_runs_clean_and_deterministically(self):
        config = HarnessConfig(seed=92, samples=40)
        first = report_to_dict(preservation_harness(config))
        second = report_to_dict(preservation_harness(config))
        assert first == second
        assert first["ok"]
        assert {p["name"] for p in first["properties"]} == {
            "union-invariance",
            "union-invariance-exhaustive",
            "union-validity",
            "subspace-validity",
            "morphism-transfer",
        }
        assert all(p["discrepancies"] == 0 for p in first["properties"])
        assert first["notes"]

    def test_different_seeds_vary_inputs(self):
        a = report_to_dict(preservation_harness(HarnessConfig(seed=93, samples=10)))
        b = report_to_dict(preservation_harness(HarnessConfig(seed=94, samples=10)))
        assert a != b
