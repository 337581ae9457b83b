import random
from itertools import product

import pytest

from umlogic.formula import Box, Implies, atoms, format_formula
from umlogic.generators import (
    formula_grades,
    random_formula,
    random_schema_instance,
    random_ultrametric_space,
)
from umlogic.parser import parse
from umlogic.semantics import truth_mask
from umlogic.space import Model, cantor_space, validate_space
from umlogic.validity import EnumerationCapExceeded, valid_in_model


def brute_valid(space, f):
    """Oracle: enumerate valuations as explicit dicts and evaluate each."""
    names = sorted(atoms(f))
    points = space.points
    subsets = [frozenset(p for i, p in enumerate(points) if m >> i & 1)
               for m in range(1 << len(points))]
    # product varies its last slot fastest; putting the first atom there
    # mirrors the checker's documented low-bits-first candidate order.
    for choice in product(subsets, repeat=len(names)):
        valuation = dict(zip(reversed(names), choice))
        model = Model(space, valuation)
        mask = truth_mask(model, f)
        if mask != space.full_mask:
            world = next(x for x in points if not mask >> space.leaf(x) & 1)
            return False, valuation, world
    return True, None, None


class TestValidInModel:
    def test_reflexivity_instance_everywhere(self):
        f = parse("[1/4]p -> p")
        rng = random.Random(31)
        spaces = [cantor_space(d) for d in (1, 2, 3)] + [
            random_ultrametric_space(rng, 5) for _ in range(5)
        ]
        for s in spaces:
            assert validate_space(s) == []
            assert valid_in_model(s, f).valid

    def test_box_strengthening_fails_with_least_witness(self):
        result = valid_in_model(cantor_space(3), parse("p -> [1/4]p"))
        assert not result.valid
        assert result.witness.valuation == {"p": frozenset({"111"})}
        assert result.witness.world == "111"
        assert result.valuations_checked == 2

    def test_excluded_middle(self):
        for d in (1, 2, 3):
            assert valid_in_model(cantor_space(d), parse("p | ~p")).valid

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            valid_in_model(cantor_space(3), parse("p -> p"), cap=255)

    def test_ceiling_above_any_cap(self):
        f = parse("p -> q")  # 2^64 valuations on 32 points
        with pytest.raises(EnumerationCapExceeded, match=r"^2\^64 valuations exceed the enumeration ceiling 2\^62, "):
            valid_in_model(cantor_space(5), f, cap=1 << 80)
        with pytest.raises(EnumerationCapExceeded, match=f"^2\\^64 valuations exceed the enumeration cap {1 << 62}$"):
            valid_in_model(cantor_space(5), f, cap=1 << 62)

    def test_deterministic_witness(self):
        s = cantor_space(2)
        f = parse("<1/4>p -> p")
        first = valid_in_model(s, f)
        second = valid_in_model(s, f)
        assert not first.valid
        assert first.witness == second.witness

    def test_agrees_with_explicit_enumeration(self):
        rng = random.Random(32)
        for _ in range(25):
            s = random_ultrametric_space(rng, 3)
            f = random_formula(rng, ("p", "q"), formula_grades(s), 2)
            expected_valid, expected_val, expected_world = brute_valid(s, f)
            result = valid_in_model(s, f)
            assert result.valid == expected_valid
            if not result.valid:
                assert result.witness.world == expected_world
                assert result.witness.valuation == expected_val

    def test_composition_schema_needs_the_strong_triangle(self, triangle_space):
        # On a plain metric space the grade-composition law has
        # counterexamples, so it separates ultrametric validity.
        f = parse("[1/2]p -> [1/2][1/2]p")
        result = valid_in_model(triangle_space, f)
        assert not result.valid
        assert result.witness.valuation == {"p": frozenset({"a", "b"})}
        assert result.witness.world == "a"
        for s in (cantor_space(2), cantor_space(3)):
            assert valid_in_model(s, f).valid


class TestSoundness:
    def test_random_schema_instances_are_valid(self):
        rng = random.Random(33)
        spaces = [random_ultrametric_space(rng, rng.randint(2, 5)) for _ in range(6)]
        for name in ("K", "T", "UM1", "TI", "UM2", "UM3", "D", "UM4"):
            for i in range(12):
                space = spaces[i % len(spaces)]
                instance, _ = random_schema_instance(
                    rng, name, ("p", "q"), formula_grades(space)
                )
                result = valid_in_model(space, instance)
                assert result.valid, (name, format_formula(instance), result.witness)

    def test_necessitation_preserves_validity(self):
        rng = random.Random(34)
        space = random_ultrametric_space(rng, 4)
        grades = formula_grades(space)
        for _ in range(10):
            instance, _ = random_schema_instance(rng, "T", ("p",), grades)
            assert valid_in_model(space, instance).valid
            assert valid_in_model(space, Box(rng.choice(grades), instance)).valid

    def test_modus_ponens_preserves_validity(self):
        rng = random.Random(35)
        space = random_ultrametric_space(rng, 4)
        grades = formula_grades(space)
        for _ in range(10):
            f, _ = random_schema_instance(rng, "UM4", ("p",), grades)
            g, _ = random_schema_instance(rng, "UM1", ("q",), grades)
            assert valid_in_model(space, f).valid
            assert valid_in_model(space, Implies(f, g)).valid
            assert valid_in_model(space, g).valid
