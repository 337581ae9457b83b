import gc
import random
from fractions import Fraction

import pytest

from umlogic import semantics
from umlogic.formula import And, Atom, Box, Diamond, Implies, Not, Or, desugar
from umlogic.generators import formula_grades, random_formula, random_model, random_ultrametric_space
from umlogic.parser import parse
from umlogic.semantics import (
    closure_eps,
    holds,
    interior_eps,
    plausibility_degree,
    stability_degree,
    truth_mask,
    truthset,
)
from umlogic.space import Model, UnknownPointError, cantor_space, validate_space
from umlogic.validity import valid_in_model


def brute_interior(space, members, eps):
    # Direct transcription of the universal ball condition.
    members = set(members)
    return frozenset(
        x for x in space.points
        if all(y in members for y in space.points if space.dist(x, y) <= eps)
    )


def brute_closure(space, members, eps):
    members = set(members)
    return frozenset(
        x for x in space.points
        if any(y in members for y in space.points if space.dist(x, y) <= eps)
    )


class TestInteriorClosure:
    def test_zero_interior_is_identity(self):
        rng = random.Random(3)
        s = cantor_space(3)
        for _ in range(20):
            members = frozenset(p for p in s.points if rng.random() < 0.5)
            assert interior_eps(s, members, Fraction(0)) == members

    def test_depth3_small_interior(self):
        s = cantor_space(3)
        members = {"111", "110"}
        assert interior_eps(s, members, Fraction(1, 8)) == {"111", "110"}

    def test_depth3_interior_collapses_at_quarter(self):
        s = cantor_space(3)
        members = {"111", "110"}
        assert brute_interior(s, members, Fraction(1, 4)) == frozenset()
        assert interior_eps(s, members, Fraction(1, 4)) == frozenset()

    def test_closure_of_empty(self):
        s = cantor_space(3)
        for eps in s.realized_distances():
            assert closure_eps(s, (), eps) == frozenset()

    def test_closure_is_inflationary(self):
        rng = random.Random(4)
        s = cantor_space(3)
        for _ in range(20):
            members = frozenset(p for p in s.points if rng.random() < 0.5)
            for eps in s.realized_distances():
                assert members <= closure_eps(s, members, eps)

    def test_depth3_singleton_closure(self):
        s = cantor_space(3)
        assert brute_closure(s, {"111"}, Fraction(1, 8)) == {"111", "110"}
        assert closure_eps(s, {"111"}, Fraction(1, 8)) == {"111", "110"}

    def test_agree_with_brute_force(self):
        rng = random.Random(5)
        for _ in range(10):
            s = random_ultrametric_space(rng, 7)
            for _ in range(20):
                members = frozenset(p for p in s.points if rng.random() < 0.5)
                eps = rng.choice(s.realized_distances())
                assert interior_eps(s, members, eps) == brute_interior(s, members, eps)
                assert closure_eps(s, members, eps) == brute_closure(s, members, eps)


def all_subsets(points):
    masks = range(1 << len(points))
    return [frozenset(p for i, p in enumerate(points) if m >> i & 1) for m in masks]


class TestGradedIdentities:
    """The nine interactions of graded interior and closure."""

    def spaces(self):
        rng = random.Random(6)
        out = [cantor_space(2)]
        out.append(random_ultrametric_space(rng, 5))
        out.append(random_ultrametric_space(rng, 5))
        for s in out:
            assert validate_space(s) == []
        return out

    def test_identities_exhaustively_on_small_spaces(self):
        for s in self.spaces():
            grades = s.realized_distances()
            subsets = all_subsets(s.points)
            full = frozenset(s.points)
            for a in subsets:
                interiors = {g: interior_eps(s, a, g) for g in grades}
                closures = {g: closure_eps(s, a, g) for g in grades}
                complement_interiors = {g: interior_eps(s, full - a, g) for g in grades}
                for e in grades:
                    # monotone in the grade
                    for g in grades:
                        if e >= g:
                            assert interiors[e] <= interiors[g]
                        # composition collapses to the larger grade
                        assert interior_eps(s, interiors[g], e) == interiors[max(e, g)]
                    assert interiors[Fraction(0)] == a
                    assert interiors[e] <= a
                    assert a <= closures[e]
                    assert closures[e] <= interior_eps(s, closures[e], e)
                    assert full - complement_interiors[e] == closures[e]
                    assert a <= interior_eps(s, closures[e], e)

    def test_intersection_distributes(self):
        for s in self.spaces():
            grades = s.realized_distances()
            subsets = all_subsets(s.points)
            rng = random.Random(7)
            for _ in range(60):
                a, b = rng.choice(subsets), rng.choice(subsets)
                for e in grades:
                    assert interior_eps(s, a & b, e) == interior_eps(s, a, e) & interior_eps(s, b, e)

    def test_composition_fails_without_strong_triangle(self, triangle_space):
        # On the (1/2, 1/2, 1) triangle the collapse law breaks: iterating
        # the half-radius interior of {a, b} strictly shrinks it.
        s = triangle_space
        half = Fraction(1, 2)
        members = frozenset({"a", "b"})
        once = interior_eps(s, members, half)
        twice = interior_eps(s, once, half)
        assert once == {"a"}
        assert twice == frozenset()
        assert twice != interior_eps(s, members, max(half, half))


class TestTruthsets:
    def test_worked_box_truths(self, w_model):
        assert "w0" in truthset(w_model, parse("[1/8]p")).points
        assert "w0" in truthset(w_model, parse("[1/4]q")).points

    def test_contradiction_is_empty(self, w_model):
        assert truthset(w_model, parse("p & ~p")).points == frozenset()

    def test_truthset_by_brute_interior(self, w_model):
        assert truthset(w_model, parse("[1/8]p")).points == brute_interior(
            w_model.space, w_model.atom_set("p"), Fraction(1, 8)
        )

    def test_holds_examples(self, w_model):
        assert holds(w_model, "w0", parse("[1/8]p"))
        assert not holds(w_model, "w0", parse("[1/4]p"))

    def test_zero_box_is_propositional_truth(self, w_model):
        for w in w_model.space.points:
            assert holds(w_model, w, parse("[0]p")) == (w in w_model.atom_set("p"))

    def test_unknown_world(self, w_model):
        with pytest.raises(UnknownPointError):
            holds(w_model, "w9", parse("p"))

    def test_diamond_box_duality(self):
        rng = random.Random(8)
        for _ in range(15):
            space = random_ultrametric_space(rng, 6)
            model = random_model(rng, space, ("p", "q"))
            grades = formula_grades(space)
            for _ in range(15):
                f = random_formula(rng, ("p", "q"), grades, 3)
                eps = rng.choice(grades)
                for w in space.points:
                    assert holds(model, w, Diamond(eps, f)) == (
                        not holds(model, w, Box(eps, Not(f)))
                    )

    def test_desugaring_preserves_truth(self):
        rng = random.Random(9)
        for _ in range(15):
            space = random_ultrametric_space(rng, 6)
            model = random_model(rng, space, ("p", "q"))
            grades = formula_grades(space)
            for _ in range(15):
                f = random_formula(rng, ("p", "q"), grades, 3)
                assert truthset(model, f).points == truthset(model, desugar(f)).points

    def test_agrees_with_naive_recursive_evaluation(self):
        # Oracle: clause-by-clause recursion with no masks and no sharing.
        def naive(model, w, f):
            if isinstance(f, Atom):
                return w in model.atom_set(f.name)
            if isinstance(f, Not):
                return not naive(model, w, f.sub)
            if isinstance(f, And):
                return naive(model, w, f.left) and naive(model, w, f.right)
            if isinstance(f, Or):
                return naive(model, w, f.left) or naive(model, w, f.right)
            if isinstance(f, Implies):
                return not naive(model, w, f.left) or naive(model, w, f.right)
            near = [v for v in model.space.points if model.space.dist(w, v) <= f.grade]
            if isinstance(f, Box):
                return all(naive(model, v, f.sub) for v in near)
            return any(naive(model, v, f.sub) for v in near)

        rng = random.Random(14)
        for _ in range(10):
            space = random_ultrametric_space(rng, 5)
            model = random_model(rng, space, ("p", "q"))
            grades = formula_grades(space)
            for _ in range(20):
                f = random_formula(rng, ("p", "q"), grades, 3)
                for w in space.points:
                    assert holds(model, w, f) == naive(model, w, f)


class TestDegrees:
    def test_stability_of_p_at_w0(self, w_model):
        report = stability_degree(w_model, "w0", parse("p"))
        assert (report.threshold, report.attained) == (Fraction(1, 4), False)

    def test_stability_of_q_at_w0(self, w_model):
        report = stability_degree(w_model, "w0", parse("q"))
        assert (report.threshold, report.attained) == (Fraction(1, 2), False)

    def test_stability_none_where_formula_fails(self, w_model):
        report = stability_degree(w_model, "w4", parse("p"))
        assert report.threshold is None

    def test_stability_attained_on_tautology(self, w_model):
        report = stability_degree(w_model, "w0", parse("p | ~p"))
        assert (report.threshold, report.attained) == (Fraction(1), True)

    def test_plausibility_of_p_at_w4(self, w_model):
        report = plausibility_degree(w_model, "w4", parse("p"))
        assert (report.threshold, report.attained) == (Fraction(1, 2), True)
        assert report.level == Fraction(1, 2)

    def test_plausibility_zero_where_formula_holds(self, w_model):
        report = plausibility_degree(w_model, "w1", parse("p"))
        assert report.threshold == Fraction(0)
        assert report.level == Fraction(1)

    def test_plausibility_none_for_unsatisfiable(self, w_model):
        assert plausibility_degree(w_model, "w0", parse("p & ~p")).threshold is None

    def test_degree_reports_predict_modal_truth(self):
        rng = random.Random(10)
        for _ in range(10):
            space = random_ultrametric_space(rng, 6)
            model = random_model(rng, space, ("p", "q"))
            grades = formula_grades(space)
            for _ in range(10):
                f = random_formula(rng, ("p", "q"), grades, 3)
                for w in space.points:
                    stab = stability_degree(model, w, f)
                    plaus = plausibility_degree(model, w, f)
                    for eps in grades:
                        expect_box = stab.threshold is not None and (
                            stab.attained or eps < stab.threshold
                        )
                        assert holds(model, w, Box(eps, f)) == expect_box
                        expect_dia = plaus.threshold is not None and eps >= plaus.threshold
                        assert holds(model, w, Diamond(eps, f)) == expect_dia


def test_queries_leave_no_reference_cycles():
    """Warm queries free everything they make by reference counting, with nothing left for the collector."""
    space = cantor_space(5)
    model = Model(space, {"p": space.points[::3], "q": space.points[::2]})
    f = parse("[1/4]<1/8>p -> <1/2>[1/16]q")
    calls = {
        "truth_mask": lambda: truth_mask(model, f),
        "first truth_mask of a fresh formula": lambda: truth_mask(model, parse("[1/4]<1/8>p -> <1/2>[1/16]q")),
        "holds": lambda: holds(model, space.points[1], f),
        "stability_degree": lambda: stability_degree(model, space.points[0], f),
        "plausibility_degree": lambda: plausibility_degree(model, space.points[0], f),
        "valid_in_model": lambda: valid_in_model(cantor_space(2), parse("[1/2](p -> q) -> ([1/2]p -> [1/2]q)")),
    }
    for call in calls.values():
        call()
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_a_formula_is_compiled_once(monkeypatch):
    """The slot program is cached on the formula: later queries, on any model, never walk it again."""
    space = cantor_space(4)
    model = Model(space, {"p": space.points[::3], "q": space.points[::2]})
    f = parse("[1/4]<1/8>p -> <1/2>[1/16]q & ~<1/8>p | [1/4]<1/8>p")
    walks = []
    walk = semantics.subformulas

    def walk_once(g):
        if walks:
            raise AssertionError(f"walked {g} again")
        walks.append(g)
        return walk(g)

    monkeypatch.setattr(semantics, "subformulas", walk_once)
    first = truth_mask(model, f)
    assert truth_mask(model, f) == first and walks == [f]
    holds(model, space.points[1], f)
    stability_degree(model, space.points[0], f)
    plausibility_degree(model, space.points[0], f)
    valid_in_model(cantor_space(1), f)
    assert walks == [f]


@pytest.mark.parametrize("f", ["p", Not("p"), And(Atom("p"), 3)], ids=["text", "text-child", "int-child"])
def test_a_non_formula_node_is_refused(f):
    space = cantor_space(2)
    model = Model(space, {"p": space.points[:1]})
    for _ in range(2):  # a refused formula keeps no half-built program
        with pytest.raises(TypeError, match="not a formula: "):
            truth_mask(model, f)
