import random
from fractions import Fraction

import pytest

from umlogic.formula import (
    And,
    Atom,
    Box,
    Diamond,
    GradeError,
    Implies,
    Not,
    Or,
    as_grade,
    atoms,
    desugar,
    format_formula,
    grade_set,
    subformulas,
)
from umlogic.generators import random_formula
from umlogic.parser import MAX_DEPTH, MAX_NODES, ParseError, parse
from umlogic.semantics import truth_mask
from umlogic.space import Model

from conftest import w_named_space

P, Q = Atom("p"), Atom("q")


class TestParse:
    def test_single_atom(self):
        assert parse("p") == P

    def test_two_modalities(self):
        got = parse("[1/8]p & [1/4]q")
        assert got == And(Box(Fraction(1, 8), P), Box(Fraction(1, 4), Q))

    def test_precedence_with_diamond(self):
        got = parse("<0.5>~p -> q")
        assert got == Implies(Diamond(Fraction(1, 2), Not(P)), Q)
        assert format_formula(got) == "<1/2>~p -> q"

    def test_decimal_grades_normalize(self):
        assert parse("[0.125]p") == parse("[1/8]p")

    def test_iff_is_both_implications(self):
        assert parse("p <-> q") == And(Implies(P, Q), Implies(Q, P))

    def test_implies_right_associative(self):
        assert parse("p -> q -> p") == Implies(P, Implies(Q, P))

    def test_and_binds_tighter_than_or(self):
        assert parse("p | q & p") == Or(P, And(Q, P))

    def test_grade_out_of_range_rejected(self):
        with pytest.raises(ParseError, match=r"outside \[0, 1\]"):
            parse("[3/2]p")
        with pytest.raises(ParseError):
            parse("<2>p")

    def test_error_carries_position_and_expected(self):
        with pytest.raises(ParseError) as info:
            parse("p & ")
        assert info.value.line == 1
        assert info.value.column == 5
        assert info.value.expected

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("p q")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError, match="expected"):
            parse("(p & q")


class TestPrint:
    def test_box_grade_as_fraction(self):
        assert format_formula(Box(Fraction(1, 8), P)) == "[1/8]p"

    def test_diamond_integer_grade(self):
        assert format_formula(Diamond(Fraction(1), Q)) == "<1>q"

    def test_negated_conjunction_parenthesized(self):
        assert format_formula(Not(And(P, Q))) == "~(p & q)"

    def test_right_nested_and_keeps_parens(self):
        f = And(P, And(Q, P))
        assert format_formula(f) == "p & (q & p)"
        assert parse(format_formula(f)) == f

    def test_left_nested_implication_keeps_parens(self):
        f = Implies(Implies(P, Q), P)
        assert format_formula(f) == "(p -> q) -> p"
        assert parse(format_formula(f)) == f

    # Every binary connective nested in every other, on the left and on the
    # right, with the text printed when each connective's strength was spelled
    # out in the printer and again in the parser.
    NESTED = [
        (Implies, Implies, "(p -> q) -> r", "p -> q -> r"),
        (Implies, Or, "p | q -> r", "p -> q | r"),
        (Implies, And, "p & q -> r", "p -> q & r"),
        (Or, Implies, "(p -> q) | r", "p | (q -> r)"),
        (Or, Or, "p | q | r", "p | (q | r)"),
        (Or, And, "p & q | r", "p | q & r"),
        (And, Implies, "(p -> q) & r", "p & (q -> r)"),
        (And, Or, "(p | q) & r", "p & (q | r)"),
        (And, And, "p & q & r", "p & (q & r)"),
    ]

    @pytest.mark.parametrize("outer, inner, left_text, right_text", NESTED,
                             ids=[f"{o.__name__}-{i.__name__}" for o, i, *_ in NESTED])
    def test_nested_binary_connectives_round_trip(self, outer, inner, left_text, right_text):
        r = Atom("r")
        for f, text in ((outer(inner(P, Q), r), left_text), (outer(P, inner(Q, r)), right_text)):
            assert format_formula(f) == text
            assert parse(text) == f
            assert format_formula(Not(f)) == f"~({text})" and parse(f"~({text})") == Not(f)

    def test_roundtrip_random_formulas(self):
        rng = random.Random(91)
        grades = [Fraction(0), Fraction(1), Fraction(1, 8), Fraction(2, 3)]
        for _ in range(400):
            f = random_formula(rng, ("p", "q", "r_1"), grades, max_depth=4)
            assert parse(format_formula(f)) == f


class TestDesugar:
    def test_diamond_unfolds_to_negated_box(self):
        assert desugar(Diamond(Fraction(1, 3), P)) == Not(Box(Fraction(1, 3), Not(P)))

    def test_or_unfolds(self):
        assert desugar(Or(P, Q)) == Not(And(Not(P), Not(Q)))

    def test_implies_unfolds(self):
        assert desugar(Implies(P, Q)) == Not(And(P, Not(Q)))

    def test_core_connectives_are_fixpoints(self):
        for f in (P, Box(Fraction(1, 2), P), Not(P), And(P, Q)):
            assert desugar(f) == f

    def test_output_is_core_only(self):
        rng = random.Random(17)
        grades = [Fraction(1, 2), Fraction(1, 4)]
        for _ in range(200):
            f = desugar(random_formula(rng, ("p", "q"), grades, max_depth=4))
            assert all(
                isinstance(g, (Atom, Not, And, Box)) for g in subformulas(f)
            )


class TestSubformulas:
    def test_atom(self):
        assert subformulas(P) == [P]

    def test_children_before_parents(self):
        f = Box(Fraction(1, 2), And(P, Q))
        got = subformulas(f)
        assert got == [P, Q, And(P, Q), f]

    def test_duplicates_listed_once(self):
        f = Not(Not(P))
        assert subformulas(f) == [P, Not(P), f]
        assert subformulas(And(P, P)) == [P, And(P, P)]


class TestGrades:
    def test_grade_set_of_modalities(self):
        assert grade_set(parse("[1/8]p & [1/4]q")) == {Fraction(1, 8), Fraction(1, 4)}

    def test_grade_set_empty_without_modalities(self):
        assert grade_set(parse("p & q")) == set()

    def test_endpoint_grades(self):
        assert grade_set(parse("[0][1]p")) == {Fraction(0), Fraction(1)}

    def test_atoms(self):
        assert atoms(parse("[1/2](p -> q) & ~r")) == {"p", "q", "r"}

    def test_as_grade_forms(self):
        assert as_grade("1/8") == as_grade("0.125") == Fraction(1, 8)
        assert as_grade(1) == Fraction(1)
        with pytest.raises(GradeError):
            as_grade("5/4")
        with pytest.raises(GradeError):
            as_grade("-1/2")
        with pytest.raises(GradeError):
            as_grade("nope")

    def test_box_constructor_validates_grade(self):
        with pytest.raises(GradeError):
            Box(Fraction(3, 2), P)

    def test_comparison_is_exact_cross_multiplication(self):
        # a = p/q <= b = r/s exactly when p*s <= r*q; no tolerance anywhere.
        rng = random.Random(5)
        for _ in range(500):
            p, q = rng.randint(0, 40), rng.randint(1, 40)
            r, s = rng.randint(0, 40), rng.randint(1, 40)
            assert (Fraction(p, q) <= Fraction(r, s)) == (p * s <= r * q)


class TestNestingCap:
    """Formulas at the cap survive every recursive pass; one level more is a ParseError."""

    #: Shape name -> text of that shape nested exactly ``depth`` levels deep.
    SHAPES = {
        # And over Implies over a right-nested chain of depth - 3 arrows.
        "iff": lambda depth: " -> ".join(["p"] * (depth - 2)) + " <-> q",
        "implies": lambda depth: " -> ".join(["p"] * depth),
        "diamond": lambda depth: "<1/2>" * (depth - 1) + "p",
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_at_the_cap_every_pass_runs(self, shape):
        text = self.SHAPES[shape](MAX_DEPTH)
        f = parse(text)
        core = desugar(f)
        assert not set(format_formula(core)) & set("|-<>")  # only ~, & and [g] remain
        assert format_formula(f).count("p") == text.count("p") * (2 if shape == "iff" else 1)
        model = Model(w_named_space(2), {"p": ["w0", "w1"], "q": ["w2"]})
        assert 0 <= truth_mask(model, f) <= model.space.full_mask

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_one_level_past_the_cap_is_rejected(self, shape):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH}"):
            parse(self.SHAPES[shape](MAX_DEPTH + 1))

    def test_parentheses_count_as_levels(self):
        parse("(" * (MAX_DEPTH - 1) + "p" + ")" * (MAX_DEPTH - 1))
        with pytest.raises(ParseError, match="deeper"):
            parse("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH)

    def test_flat_chains_are_capped_without_recursion(self):
        for op in ("&", "|", "<->"):
            with pytest.raises(ParseError, match="deeper"):
                parse(f" {op} ".join(["p"] * 3000))


def tree_size(f):
    """Nodes of ``f`` counted as a tree: a subformula shared by two parents counts twice."""
    stack, count = [f], 0
    while stack:
        g = stack.pop()
        count += 1
        if isinstance(g, (Not, Box, Diamond)):
            stack.append(g.sub)
        elif isinstance(g, (And, Or, Implies)):
            stack += [g.left, g.right]
    return count


def balanced_and(leaves):
    """A parenthesised conjunction of ``leaves`` (a list of texts) of logarithmic depth."""
    if len(leaves) == 1:
        return leaves[0]
    half = len(leaves) // 2
    return f"({balanced_and(leaves[:half])}) & ({balanced_and(leaves[half:])})"


def biconditionals(levels):
    """``[1/2]p <-> ~(...)`` nested ``levels`` deep: each level doubles the expanded tree."""
    text = "p"
    for _ in range(levels):
        text = f"[1/2]p <-> ~({text})"
    return text


class TestNodeCap:
    """The expanded tree may have MAX_NODES nodes; one more is a ParseError."""

    def test_exactly_the_cap_parses(self):
        wide = biconditionals(13)
        rest = MAX_NODES - 1 - tree_size(parse(wide))
        leaves = ["p"] * ((rest + 1) // 2)
        if rest % 2 == 0:
            leaves[0] = "~p"
        text = f"({wide}) & ({balanced_and(leaves)})"
        assert tree_size(parse(text)) == MAX_NODES
        with pytest.raises(ParseError, match=f"more than {MAX_NODES} nodes"):
            parse(text.replace("& (p", "& (~p", 1))

    def test_biconditionals_count_their_expansion(self):
        """Each level doubles the expansion; parse accepts exactly the levels that fit."""
        built, levels = P, 0
        while tree_size(built) <= MAX_NODES:
            assert parse(biconditionals(levels)) == built
            left, right = Box(Fraction(1, 2), P), Not(built)
            built = And(Implies(left, right), Implies(right, left))
            levels += 1
        with pytest.raises(ParseError, match=f"more than {MAX_NODES} nodes"):
            parse(biconditionals(levels))
        assert levels == 14  # thirteen levels fit, the fourteenth does not
