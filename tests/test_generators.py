import random
from fractions import Fraction

import pytest
from conftest import dense_table
from umlogic.axioms import match_axiom
from umlogic.formula import And, Box, Diamond, Formula, Implies, Not, Or, grade_set
from umlogic.generators import (
    LEVEL_POOL,
    formula_grades,
    random_formula,
    random_model,
    random_schema_instance,
    random_ultrametric_space,
)
from umlogic.space import validate_space


def height(f: Formula) -> int:
    if isinstance(f, (Not, Box, Diamond)):
        return 1 + height(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return 1 + max(height(f.left), height(f.right))
    return 0


class TestRandomSpaces:
    def test_always_validate(self):
        rng = random.Random(61)
        for _ in range(60):
            space = random_ultrametric_space(rng, rng.randint(1, 9))
            assert validate_space(space) == []

    def test_requested_levels_are_respected(self):
        rng = random.Random(62)
        levels = [Fraction(1, 2), Fraction(1, 4)]
        space = random_ultrametric_space(rng, 6, levels=levels)
        assert set(space.realized_distances()) <= {Fraction(0), *levels}

    @pytest.mark.parametrize("n_points, levels, message", [
        (0, None, "at least one point"),
        (3, [Fraction(1, 2), 0], "positive"),
        (2, [], "must not be empty"),
        (5, [], "must not be empty"),
    ])
    def test_bad_requests_are_refused_before_any_draw(self, n_points, levels, message):
        rng = random.Random(65)
        state = rng.getstate()
        with pytest.raises(ValueError, match=message):
            random_ultrametric_space(rng, n_points, levels=levels)
        assert rng.getstate() == state

    def test_one_point_needs_no_levels(self):
        space = random_ultrametric_space(random.Random(66), 1, levels=[])
        assert space.points == ("x0",) and space.realized_distances() == [Fraction(0)]

    def test_deterministic_per_seed(self):
        a = random_ultrametric_space(random.Random(63), 7)
        b = random_ultrametric_space(random.Random(63), 7)
        assert a.points == b.points
        assert dense_table(a) == dense_table(b)

    def test_distances_drawn_from_pool(self):
        rng = random.Random(64)
        space = random_ultrametric_space(rng, 8)
        assert set(space.realized_distances()) <= {Fraction(0), *LEVEL_POOL}


class TestRandomModels:
    def test_valuation_points_belong_to_space(self):
        rng = random.Random(65)
        space = random_ultrametric_space(rng, 5)
        model = random_model(rng, space, ("p", "q"))
        for members in model.valuation.values():
            assert members <= set(space.points)


class TestRandomFormulas:
    def test_height_is_bounded(self):
        rng = random.Random(66)
        grades = [Fraction(1, 2)]
        for depth in (0, 1, 2, 3, 4):
            for _ in range(50):
                assert height(random_formula(rng, ("p",), grades, depth)) <= depth

    def test_grades_come_from_the_pool(self):
        rng = random.Random(67)
        grades = [Fraction(1, 3), Fraction(1, 16)]
        for _ in range(100):
            f = random_formula(rng, ("p", "q"), grades, 4)
            assert grade_set(f) <= set(grades)

    def test_deterministic_per_seed(self):
        grades = [Fraction(1, 2), Fraction(1)]
        a = [random_formula(random.Random(68), ("p", "q"), grades, 3) for _ in range(5)]
        b = [random_formula(random.Random(68), ("p", "q"), grades, 3) for _ in range(5)]
        assert a == b

    def test_seeded_draws_are_pinned(self):
        """One seed's formulas, as drawn when each kind was a name: the harness and the bench rely on these draws."""
        rng = random.Random(5)
        grades = [Fraction(1, 2), Fraction(1)]
        assert [str(random_formula(rng, ("p", "q"), grades, 3)) for _ in range(6)] == [
            "[1]p & <1>p -> [1/2]~p",
            "(<1/2>q | (p -> p)) & p",
            "~q & ~p | ~(q -> p)",
            "~p",
            "~<1/2>~p",
            "~p & ~p & (p & q | (p | p))",
        ]


class TestFormulaGrades:
    def test_includes_endpoints_and_drops_sentinel(self):
        rng = random.Random(69)
        space = random_ultrametric_space(rng, 5)
        grades = formula_grades(space)
        assert Fraction(0) in grades and Fraction(1) in grades
        assert all(0 <= g <= 1 for g in grades)


class TestRandomInstances:
    def test_instances_match_their_schema(self):
        rng = random.Random(70)
        grades = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
        for name in ("K", "T", "UM1", "TI", "UM2", "UM3", "D", "UM4"):
            for _ in range(20):
                instance, _ = random_schema_instance(rng, name, ("p", "q"), grades)
                assert name in [n for n, _ in match_axiom(instance)]
