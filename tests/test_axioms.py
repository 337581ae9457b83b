import random
from fractions import Fraction

import pytest

from umlogic.axioms import (
    SCHEMA_NAMES,
    SCHEMAS,
    SchemaError,
    instantiate_axiom,
    match_axiom,
)
from umlogic.formula import And, Atom, Box, Formula, Or, desugar, format_formula
from umlogic.generators import random_schema_instance
from umlogic.parser import parse

P, Q = Atom("p"), Atom("q")
HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


class TestMatch:
    def test_reflexivity_instance(self):
        assert match_axiom(parse("[1/2]p -> p")) == [("T", {"eps": HALF, "phi": P})]

    def test_composition_biconditional(self):
        got = match_axiom(parse("[1/2][1/4]p <-> [1/2]p"))
        assert got == [("TI", {"gamma": HALF, "delta": QUARTER, "phi": P})]

    def test_monotonicity_side_condition_blocks_wrong_direction(self):
        assert match_axiom(parse("[1/4]p -> [1/2]p")) == []

    def test_monotonicity_accepts_descending_grades(self):
        got = match_axiom(parse("[1/2](p & q) -> [1/4](p & q)"))
        assert got == [("UM3", {"gamma": HALF, "delta": QUARTER, "phi": And(P, Q)})]

    def test_composition_single_direction(self):
        got = match_axiom(parse("[1/2][1/4]p -> [1/2]p"))
        assert [name for name, _ in got] == ["TI-ltr"]
        got = match_axiom(parse("[1/2]p -> [1/2][1/4]p"))
        assert [name for name, _ in got] == ["TI-rtl"]

    def test_composition_outer_grade_must_be_max(self):
        assert match_axiom(parse("[1/2][1/4]p <-> [1/4]p")) == []

    def test_duality_matches_both_spellings(self):
        # A diamond and its box unfolding desugar identically, so both
        # directions of the duality schema recognise either spelling.
        for text in ("<1/2>p -> ~[1/2]~p", "~[1/2]~p -> <1/2>p"):
            names = [name for name, _ in match_axiom(parse(text))]
            assert names == ["D-ltr", "D-rtl"]

    def test_non_instance(self):
        assert match_axiom(parse("p -> q")) == []

    def test_formula_matching_two_schemas(self):
        # Reading the nested box as one unit it is a reflexivity instance;
        # reading it as a composition it is the left-to-right collapse.
        got = match_axiom(parse("[1/2][1/2]p -> [1/2]p"))
        assert got == [
            ("T", {"eps": HALF, "phi": Box(HALF, P)}),
            ("TI-ltr", {"gamma": HALF, "delta": HALF, "phi": P}),
        ]

    def test_bindings_are_desugared(self):
        instance = instantiate_axiom("T", {"eps": HALF, "phi": Or(P, Q)})
        (name, bindings), = match_axiom(instance)
        assert name == "T"
        assert bindings["phi"] == desugar(Or(P, Q))


class TestInstantiate:
    def test_reflexivity_with_unit_grade(self):
        assert format_formula(instantiate_axiom("T", {"eps": 1, "phi": Q})) == "[1]q -> q"

    def test_recovery_schema(self):
        got = instantiate_axiom("UM4", {"eps": Fraction(1, 8), "phi": P})
        assert format_formula(got) == "p -> [1/8]<1/8>p"

    def test_monotonicity_over_conjunction(self):
        got = instantiate_axiom("UM3", {"gamma": QUARTER, "delta": Fraction(1, 8), "phi": And(P, Q)})
        assert format_formula(got) == "[1/4](p & q) -> [1/8](p & q)"

    def test_composition_computes_outer_max(self):
        got = instantiate_axiom("TI", {"gamma": QUARTER, "delta": HALF, "phi": P})
        assert format_formula(got) == "([1/4][1/2]p -> [1/2]p) & ([1/2]p -> [1/4][1/2]p)"

    def test_monotonicity_side_condition(self):
        with pytest.raises(SchemaError, match="gamma >= delta"):
            instantiate_axiom("UM3", {"gamma": QUARTER, "delta": HALF, "phi": P})

    def test_unknown_schema(self):
        with pytest.raises(SchemaError, match="unknown"):
            instantiate_axiom("S4", {"eps": HALF, "phi": P})

    def test_missing_formula_binding(self):
        with pytest.raises(SchemaError, match="phi"):
            instantiate_axiom("T", {"eps": HALF})

    def test_missing_grade_binding(self):
        with pytest.raises(SchemaError, match="eps"):
            instantiate_axiom("K", {"phi": P, "psi": Q})

    def test_grade_out_of_range(self):
        for eps in ("3/2", Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(SchemaError, match="outside"):
                instantiate_axiom("T", {"eps": eps, "phi": P})

    def test_grade_strings_accepted(self):
        assert instantiate_axiom("T", {"eps": "0.5", "phi": P}) == parse("[1/2]p -> p")


class TestRoundTrip:
    def test_every_schema_matches_its_own_instances(self):
        rng = random.Random(21)
        grades = [Fraction(0), QUARTER, HALF, Fraction(1)]
        names = [s.name for s in SCHEMAS]
        for name in names:
            for _ in range(25):
                # Bindings in desugared form make the round trip exact.
                _, bindings = random_schema_instance(rng, name, ("p", "q"), grades)
                normalized = {
                    k: desugar(v) if isinstance(v, Formula) else v for k, v in bindings.items()
                }
                instance = instantiate_axiom(name, normalized)
                assert (name, normalized) in match_axiom(instance)

    def test_schema_names_cover_the_axiom_list(self):
        assert SCHEMA_NAMES == ("K", "T", "UM1", "TI", "UM2", "UM3", "D", "UM4")
