"""Property-based tests of the partition semantics, the evaluator, the printer, formula hashing and read-only models.

Spaces are generated two ways: by ``random_ultrametric_space`` driven by a
Hypothesis-controlled random source, which makes a rank table held as its
Prim single-linkage tree (nodes of any arity), and from sets of distinct
binary histories, which makes a binary tree by sorting.  Grades are realized distances of the space or
arbitrary rationals in [0, 1].  The identities (i)-(ix) are those of the
graded interior and closure that ``test_acceptance`` checks exhaustively
on small spaces over realized grades.
The evaluator runs on formulas as parsed, all seven constructors
included, and must agree with the same formulas after ``desugar``.
Truth at a world of a component is truth at its copy in a disjoint union.
Arbitrary JSON read as a proof or as a model raises nothing the CLI
would not report as an input error.  The stability and plausibility
thresholds predict the truth of the box and diamond at every grade, and
generated command lines, over every subcommand and small files some of
them broken, exit only with 0, 1 or 2.
"""
import contextlib
import copy
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import held_as_table, point_mask
import umlogic
from umlogic import cli
from umlogic.constructions import disjoint_union, union_point
from umlogic.formula import And, Atom, Box, Diamond, Implies, Not, Or, desugar, format_formula
from umlogic.parser import MAX_DEPTH, parse
from umlogic.proofs import check_proof, proof_from_json
from umlogic.generators import random_ultrametric_space
from umlogic.modelio import model_from_dict, model_to_dict
from umlogic.semantics import (
    _ball_step,
    closure_mask,
    holds,
    interior_mask,
    plausibility_degree,
    stability_degree,
    truth_mask,
)
from umlogic.space import Model, UltrametricSpace, cantor_space, validate_space
from umlogic.validity import valid_in_model

SETTINGS = settings(max_examples=150, deadline=None)

fractions01 = st.builds(
    Fraction, st.integers(0, 64), st.integers(1, 64)).filter(lambda g: g <= 1)
#: Any rational in [0, 1], denominators unbounded.
rationals01 = st.fractions(min_value=0, max_value=1)


@st.composite
def spaces(draw, max_points=12):
    if draw(st.booleans()):
        return random_ultrametric_space(draw(st.randoms(use_true_random=False)),
                                        draw(st.integers(1, max_points)))
    length = draw(st.integers(1, 6))
    histories = sorted(draw(st.sets(
        st.text("01", min_size=length, max_size=length), min_size=1, max_size=max_points)))
    names = [f"h{i}" for i in range(len(histories))]
    return UltrametricSpace.from_sequences(names, dict(zip(names, histories)))


@st.composite
def space_grade_masks(draw):
    """A valid space, a grade, and two subsets of its points as bitmasks."""
    space = draw(spaces())
    grade = draw(st.one_of(st.sampled_from(space.realized_distances()), fractions01))
    masks = st.integers(0, space.full_mask)
    return space, grade, draw(masks), draw(masks)


def formulas(grades=fractions01, names=("p", "q", "r")):
    leaves = st.sampled_from([Atom(name) for name in names])
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Box, grades, sub),
        st.builds(Diamond, grades, sub),
    ), max_leaves=24)


def height(f):
    if isinstance(f, Atom):
        return 0
    if isinstance(f, (Not, Box, Diamond)):
        return 1 + height(f.sub)
    return 1 + max(height(f.left), height(f.right))


def rebuild(f):
    """An equal formula made of new nodes, none of which has been hashed."""
    if isinstance(f, Atom):
        return Atom(str(f.name))
    if isinstance(f, Not):
        return Not(rebuild(f.sub))
    if isinstance(f, (Box, Diamond)):
        return type(f)(Fraction(f.grade.numerator, f.grade.denominator), rebuild(f.sub))
    return type(f)(rebuild(f.left), rebuild(f.right))


@SETTINGS
@given(space_grade_masks())
def test_generated_spaces_are_ultrametric(case):
    space, grade, _, _ = case
    assert validate_space(space) == []
    for x in space.points:
        ball = space.ball(x, grade)
        # Every point of a ball is a centre of it.
        assert all(space.ball(y, grade) == ball for y in ball)
    # So too when each point's ball is read from its own row of the table, without the tree.
    table = held_as_table(space)
    balls = table.table_balls(table.rank_of(grade))
    for i, x in enumerate(space.points):
        assert table.names_of(balls[i]) == space.ball(x, grade)
        assert all(balls[j] == balls[i] for j in table.members(balls[i]).tolist())


@SETTINGS
@given(space_grade_masks())
def test_box_diamond_duality(case):
    """(viii): the closure is the complement of the interior of the complement.

    The box and diamond are also checked against the per-ball step on the
    same space held as a table, which shares no code with the leaf step.
    """
    space, grade, a, _ = case
    full, per_ball = space.full_mask, held_as_table(space)
    assert closure_mask(space, a, grade) == full ^ interior_mask(space, full ^ a, grade)
    model = Model(space, {"p": space.names_of(a)})
    rank, points = per_ball.rank_of(grade), point_mask(space, a)
    assert point_mask(space, truth_mask(model, Diamond(grade, Atom("p")))) == _ball_step(per_ball, points, rank, True)
    assert point_mask(space, truth_mask(model, Box(grade, Atom("p")))) == _ball_step(per_ball, points, rank, False)


@SETTINGS
@given(space_grade_masks(), fractions01)
def test_interior_composes_to_the_larger_grade(case, other):
    """(ii): I_e I_g A = I_max(e, g) A, which needs the strong triangle inequality."""
    space, grade, a, _ = case
    inner = interior_mask(space, a, other)
    assert interior_mask(space, inner, grade) == interior_mask(space, a, max(grade, other))


@SETTINGS
@given(space_grade_masks())
def test_interior_distributes_over_intersection(case):
    """(v): I_e (A & B) = I_e A & I_e B."""
    space, grade, a, b = case
    assert interior_mask(space, a & b, grade) == interior_mask(space, a, grade) & interior_mask(space, b, grade)


@st.composite
def space_grades_mask(draw):
    """A valid space, two grades realized or arbitrary in [0, 1], and a subset of its points as a bitmask."""
    space = draw(spaces())
    grades = st.one_of(st.sampled_from(space.realized_distances()), rationals01)
    return space, draw(grades), draw(grades), draw(st.integers(0, space.full_mask))


@SETTINGS
@given(space_grades_mask())
def test_interior_shrinks_as_the_grade_grows(case):
    """(i): I_e A is inside I_g A when e >= g."""
    space, e, g, a = case
    e, g = max(e, g), min(e, g)
    assert interior_mask(space, a, e) & ~interior_mask(space, a, g) == 0


@SETTINGS
@given(space_grades_mask())
def test_interior_of_grade_zero_is_the_set(case):
    """(iii): I_0 A = A, which needs identity of indiscernibles."""
    space, _, _, a = case
    assert interior_mask(space, a, Fraction(0)) == a


@SETTINGS
@given(space_grades_mask())
def test_interior_is_inside_the_set(case):
    """(iv): I_e A is inside A."""
    space, e, _, a = case
    assert interior_mask(space, a, e) & ~a == 0


@SETTINGS
@given(space_grades_mask())
def test_set_is_inside_its_closure(case):
    """(vi): A is inside C_e A."""
    space, e, _, a = case
    assert a & ~closure_mask(space, a, e) == 0


@SETTINGS
@given(space_grades_mask())
def test_closure_is_open_at_its_grade(case):
    """(vii) and (ix): C_e A, and so A, is inside I_e C_e A."""
    space, e, _, a = case
    closure = closure_mask(space, a, e)
    interior_of_closure = interior_mask(space, closure, e)
    assert closure & ~interior_of_closure == 0
    assert a & ~interior_of_closure == 0


@SETTINGS
@given(spaces(), st.data())
def test_truth_sets_agree_with_the_desugared_formula(space, data):
    """The evaluator on a formula as parsed matches it on ``desugar``'s core form."""
    grades = st.one_of(st.sampled_from(space.realized_distances()), fractions01)
    f = data.draw(formulas(grades))
    valuation = {name: data.draw(st.sets(st.sampled_from(space.points))) for name in ("p", "q", "r")}
    model = Model(space, valuation)
    assert truth_mask(model, f) == truth_mask(model, desugar(f))


@settings(max_examples=60, deadline=None)
@given(spaces(max_points=5), st.data())
def test_validity_agrees_with_the_desugared_formula(space, data):
    """Verdict, witness and ``valuations_checked`` do not depend on desugaring."""
    grades = st.one_of(st.sampled_from(space.realized_distances()), fractions01)
    f = data.draw(formulas(grades, names=("p", "q")))
    assert valid_in_model(space, f) == valid_in_model(space, desugar(f))


@SETTINGS
@given(formulas().filter(lambda f: 2 * height(f) < MAX_DEPTH))
def test_printed_formulas_parse_back(f):
    """Each level adds at most one node and one pair of parentheses, so these stay under the cap."""
    assert parse(format_formula(f)) == f


@SETTINGS
@given(formulas())
def test_cached_hash_equals_a_fresh_equal_formula(f):
    first = hash(f)
    assert hash(f) == first
    twin = rebuild(f)
    assert twin == f
    assert hash(twin) == first


@SETTINGS
@given(formulas())
def test_cached_hash_is_not_carried_by_pickles_or_copies(f):
    space = cantor_space(2)
    model = Model(space, {"p": space.points[:1], "q": space.points[1:3]})
    mask = truth_mask(model, f)
    assert "_hash" in vars(f) and "_program" in vars(f)
    for twin in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert twin == f
        assert "_hash" not in vars(twin) and "_program" not in vars(twin)
        assert hash(twin) == hash(f)
        assert truth_mask(model, twin) == mask


def uncached_desugar(f):
    """``desugar`` without its cache: a new tree on every call."""
    if isinstance(f, Not):
        return Not(uncached_desugar(f.sub))
    if isinstance(f, And):
        return And(uncached_desugar(f.left), uncached_desugar(f.right))
    if isinstance(f, Or):
        return Not(And(Not(uncached_desugar(f.left)), Not(uncached_desugar(f.right))))
    if isinstance(f, Implies):
        return Not(And(uncached_desugar(f.left), Not(uncached_desugar(f.right))))
    if isinstance(f, Box):
        return Box(f.grade, uncached_desugar(f.sub))
    if isinstance(f, Diamond):
        return Not(Box(f.grade, Not(uncached_desugar(f.sub))))
    return f


def nodes(f):
    """Every node of ``f``, shared ones as often as they occur."""
    result = [f]
    for name in f.__match_args__:
        value = getattr(f, name)
        if hasattr(value, "__match_args__"):
            result += nodes(value)
    return result


@SETTINGS
@given(formulas())
def test_cached_desugar_equals_an_uncached_one(f):
    f = rebuild(f)
    got = desugar(f)
    assert got == uncached_desugar(f)
    assert desugar(f) is got
    for node in nodes(f):
        if isinstance(node, Atom):
            assert desugar(node) is node and "_desugared" not in vars(node)
        else:
            assert vars(node)["_desugared"] == uncached_desugar(node)
    # A desugared tree is desugared again into an equal copy.
    assert desugar(got) == got


@SETTINGS
@given(formulas())
def test_the_desugar_cache_leaves_no_reference_cycle(f):
    """With the collector off, dropping a desugared formula frees every node: none refers back to itself."""
    import gc
    import weakref

    gc.disable()
    try:
        f = rebuild(f)
        result = desugar(f)
        refs = [weakref.ref(node) for node in nodes(f) + nodes(result)]
        del f, result
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


@SETTINGS
@given(formulas())
def test_cached_desugaring_is_not_carried_by_pickles_or_copies(f):
    f = rebuild(f)
    result = desugar(f)
    assert ("_desugared" in vars(f)) != isinstance(f, Atom)
    # A shallow copy shares the children, and with them their caches.
    for twin, deep in ((pickle.loads(pickle.dumps(f)), True), (copy.copy(f), False), (copy.deepcopy(f), True)):
        assert twin == f
        assert all("_desugared" not in vars(node) for node in (nodes(twin) if deep else [twin]))
        assert desugar(twin) == result


def test_unpickled_formula_hashes_as_one_built_in_the_new_process():
    """String hashes are seeded per process, so a pickle must not carry the cached hash."""
    text = "[1/2](p -> q) & <1/4>~r"
    f = parse(text)
    hash(f)
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(Path(umlogic.__file__).parents[1]))
    child = (
        "import pickle, sys\n"
        "from umlogic.parser import parse\n"
        "f = pickle.loads(sys.stdin.buffer.read())\n"
        f"fresh = parse({text!r})\n"
        "print(hash(f) == hash(fresh), {fresh: 1}.get(f))\n"
    )
    result = subprocess.run([sys.executable, "-c", child], input=pickle.dumps(f),
                            capture_output=True, env=env, timeout=60)
    assert result.stdout.decode().split() == ["True", "1"], result.stderr.decode()


@st.composite
def components(draw):
    """One to three models of at most four points, with random valuations of p, q and r."""
    models = []
    for _ in range(draw(st.integers(1, 3))):
        space = draw(spaces(max_points=4))
        masks = st.integers(0, space.full_mask)
        models.append(Model(space, {name: space.names_of(draw(masks)) for name in ("p", "q", "r")}))
    return models


@SETTINGS
@given(components(), st.data())
def test_union_keeps_truth_at_every_component_world(models, data):
    union = disjoint_union(models)
    realized = [g for g in union.space.realized_distances() if g <= 1]
    f = data.draw(formulas(st.one_of(st.sampled_from(realized), fractions01)))
    in_union = truth_mask(union, f)
    for i, model in enumerate(models):
        mask = truth_mask(model, f)
        for w in model.space.points:
            assert mask >> model.space.leaf(w) & 1 == in_union >> union.space.leaf(union_point(i, w)) & 1, (i, w)


@SETTINGS
@given(spaces(), st.data())
def test_model_valuation_is_read_only(space, data):
    held = data.draw(st.sets(st.sampled_from(space.points)))
    model = Model(space, {"p": held})
    assert model.leaf_mask("p") == space.mask_of(held)
    assert model.valuation == {"p": frozenset(held)}
    with pytest.raises(AttributeError):
        model.valuation = {}
    with pytest.raises(TypeError):
        model.valuation["p"] = frozenset()
    with pytest.raises(AttributeError):
        model.space = space
    assert model.leaf_mask("p") == space.mask_of(held)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda sub: st.lists(sub, max_size=4) | st.dictionaries(st.text(max_size=6), sub, max_size=4),
    max_leaves=12,
)
formula_texts = st.text(alphabet="pq_~&|()[]<>/-.019 \n$", max_size=30)
justifications = st.one_of(
    st.sampled_from(["premise", "axiom:T", "axiom:K", "axiom:UM3", "axiom:X", "mp:1,2", "nec:1:1/2"]),
    st.builds("{}{}".format, st.sampled_from(["axiom:", "mp:", "nec:", "nec:1:", "mp:1,"]), formula_texts),
    json_values,
)
proof_entries = st.fixed_dictionaries(
    {"n": st.integers(-1, 6) | json_values, "formula": formula_texts | json_values, "by": justifications},
    optional={"bind": st.dictionaries(st.sampled_from(["phi", "psi", "eps", "gamma", "delta", "zeta"]),
                                      formula_texts | json_values, max_size=4) | json_values},
)


@SETTINGS
@given(st.one_of(json_values, st.lists(proof_entries | json_values, max_size=6)))
def test_proof_input_raises_only_reported_errors(data):
    """Any JSON value as a proof file fails, if at all, with an error the CLI reports with exit 2."""
    try:
        proof = proof_from_json(data)
    except cli._ERRORS:
        return
    try:
        check_proof(proof)
    except cli._ERRORS:
        pass


point_names = st.sampled_from(["a", "b", "c"])
distances = st.sampled_from(["0", "1/2", "1/4", "1", "-1/2", "1/0", "0.5", "x", 0, 1, -1, 0.5, True, None, []])


@st.composite
def model_dicts(draw):
    """Model files well formed in shape, with at most one field replaced by arbitrary JSON."""
    points = draw(st.lists(point_names, min_size=1, max_size=3))
    n = len(points)
    square = st.lists(st.lists(distances, min_size=n, max_size=n), min_size=n, max_size=n)
    histories = st.dictionaries(point_names, st.sampled_from(["0", "1", "01", "10", "", "x", 1, None]), max_size=3)
    data = {
        "points": points,
        "distance": draw(st.builds(dict, matrix=square) | st.builds(dict, sequences=histories)),
        "valuation": draw(st.dictionaries(st.text(max_size=2), st.lists(point_names, max_size=3), max_size=2)),
    }
    broken = draw(st.sampled_from([None, *data]))
    if broken:
        data[broken] = draw(json_values)
    return data


@SETTINGS
@given(json_values | model_dicts(), st.booleans())
def test_model_input_raises_only_reported_errors(data, validate):
    """Any JSON value as a model file fails, if at all, with an error the CLI reports with exit 2."""
    try:
        model_from_dict(data, validate=validate)
    except cli._ERRORS:
        pass


@settings(max_examples=80, deadline=None)
@given(spaces(), st.data())
def test_degree_thresholds_predict_modal_truth(space, data):
    """[g]f holds at w iff g is under the stability threshold or it is attained; <g>f iff g reaches plausibility."""
    realized = space.realized_distances()
    grades = sorted({g for g in realized + [(a + b) / 2 for a, b in zip(realized, realized[1:])]
                     + [Fraction(0), Fraction(1)] if g <= 1})
    f = data.draw(formulas(st.sampled_from(grades)))
    model = Model(space, {name: data.draw(st.sets(st.sampled_from(space.points))) for name in ("p", "q", "r")})
    world = data.draw(st.sampled_from(space.points))
    stability = stability_degree(model, world, f)
    plausibility = plausibility_degree(model, world, f)
    for g in grades:
        assert holds(model, world, Box(g, f)) == (
            stability.threshold is not None and (stability.attained or g < stability.threshold)), g
        assert holds(model, world, Diamond(g, f)) == (
            plausibility.threshold is not None and g >= plausibility.threshold), g


# --- the exit-code contract of the command line -------------------------------

NAMES = ["x0", "x1", "h0", "h1", "a", "w0", "0:x0", "zz", ""]


@st.composite
def good_models(draw):
    """A model file of at most three points, in matrix form or as histories that may repeat."""
    space = draw(spaces(max_points=3))
    masks = st.integers(0, space.full_mask)
    data = model_to_dict(Model(space, {name: space.names_of(draw(masks)) for name in ("p", "q")}))
    if draw(st.booleans()):
        length = draw(st.integers(1, 3))
        names = data["points"] = [f"h{i}" for i in range(space.n)]
        data["distance"] = {"sequences": {name: draw(st.text("01", min_size=length, max_size=length))
                                          for name in names}}
        data["valuation"] = {atom: [f"h{space.index(x)}" for x in held] for atom, held in data["valuation"].items()}
    return data


#: JSON for a model, proof, valuation or point-map file, or text that is not JSON.
file_contents = st.one_of(
    good_models().map(json.dumps),
    model_dicts().map(json.dumps),
    st.lists(proof_entries | json_values, max_size=6).map(json.dumps),
    st.dictionaries(st.sampled_from(["p", "q"]), st.lists(st.sampled_from(["w0", "w1", "a", "w9"]), max_size=3))
    .map(json.dumps),
    st.fixed_dictionaries({"map": st.dictionaries(st.sampled_from(NAMES), st.sampled_from(NAMES))},
                          optional={"k": st.sampled_from(["1", "1/2", "2", "0", "-1", "x", 1, 0.5])}).map(json.dumps),
    json_values.map(json.dumps),
    st.sampled_from(["", "{", "[" * 100_000, "\xff", "NaN", "1" * 5000]),
)
formula_args = st.sampled_from(["p", "[1/2]p -> p", "<1/4>(p & q)", "[1]q", "~p | r", "p & ~p", "[p",
                                "[2]p", "<1e9>p", "", "(" * 300 + "p" + ")" * 300]) | formula_texts
world_args = st.sampled_from(NAMES)
grade_args = st.sampled_from(["0", "1/2", "1/4", "1", "2", "-1", "x", "1/0", "1e9", ""])
COMMANDS = {
    "check": {"--model": "file", "--formula": formula_args, "--world": world_args},
    "truthset": {"--model": "file", "--formula": formula_args},
    "stability": {"--model": "file", "--formula": formula_args, "--world": world_args},
    "plausibility": {"--model": "file", "--formula": formula_args, "--world": world_args},
    "cantor": {"--depth": st.sampled_from(["-1", "0", "1", "3", "17", "x"]), "--valuation": "file"},
    "valid": {"--model": "file", "--formula": formula_args, "--cap": st.sampled_from(["-1", "0", "64", "4096", "x"])},
    "axiom": {"--formula": formula_args},
    "prove": {"--proof": "file"},
    "union": {"--model": "files"},
    "ball": {"--model": "file", "--world": world_args, "--grade": grade_args},
    "subspace": {"--model": "file", "--world": world_args, "--grade": grade_args},
    "morphism": {"--model": "files", "--map": "file", "--frame": None, "--bilipschitz": None},
    "harness": {"--seed": st.sampled_from(["0", "7", "-3", "x"]),
                "--samples": st.sampled_from(["-1", "0", "5", "10001"]),
                "--depth": st.sampled_from(["-1", "0", "2", "13"]),
                "--points": st.sampled_from(["0", "1", "2", "7"])},
    "dot": {"--model": "file"},
    "validate-model": {"--model": "file"},
}


@st.composite
def command_lines(draw, directory):
    """An argv for one subcommand: each option kept or dropped, its files written under ``directory``."""
    count = itertools.count()

    def file_arg():
        path = directory / f"f{next(count)}.json"
        kind = draw(st.sampled_from(["written", "written", "written", "missing", "directory"]))
        if kind == "written":
            path.write_text(draw(file_contents))
        return str(directory if kind == "directory" else path)

    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag, value in COMMANDS[command].items():
        if draw(st.integers(0, 9)) == 9:
            continue
        if value is None:
            argv.append(flag)
        elif value == "file":
            argv += [flag, file_arg()]
        elif value == "files":
            for _ in range(draw(st.integers(1, 3))):
                argv += [flag, file_arg()]
        else:
            argv += [flag, draw(value)]
    extra = draw(st.sampled_from([[], [], [], ["--out", str(directory / "out.json")], ["--out", str(directory)],
                                  ["--bogus"], ["--help"]]))
    if draw(st.integers(0, 9)) == 9:
        argv = draw(st.sampled_from([[], ["nope"], ["--version"]]))
    return argv + extra


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_command_line_exits_only_with_0_1_or_2(data):
    """Generated argv over every subcommand, with small files some of them broken, exits 0, 1 or 2."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(command_lines(Path(tmp)), label="argv")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
