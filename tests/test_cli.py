import argparse
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from umlogic import cli
from umlogic.cli import main
from umlogic.generators import random_ultrametric_space
from umlogic.harness import _BOUNDS
from umlogic.parser import MAX_NODES
from umlogic.modelio import dump_model, load_model, save_model
from umlogic.space import MAX_CANTOR_DEPTH, MAX_HISTORY_LENGTH, Model

DATA = Path(__file__).parent / "data"


@pytest.fixture
def tree_model(tmp_path):
    """Depth-3 event-tree model file with the rain/thunderstorm valuation."""
    valuation = tmp_path / "val.json"
    valuation.write_text(json.dumps({"p": ["w0", "w1"], "q": ["w0", "w1", "w2", "w3"]}))
    model = tmp_path / "model.json"
    assert main(["cantor", "--depth", "3", "--valuation", str(valuation), "--out", str(model)]) == 0
    return model


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_holds(self, capsys, tree_model):
        code, out, _ = run(capsys, ["check", "--model", str(tree_model), "--formula", "[1/8]p", "--world", "w0"])
        assert code == 0
        assert json.loads(out) == {"holds": True}

    def test_fails(self, capsys, tree_model):
        code, out, _ = run(capsys, ["check", "--model", str(tree_model), "--formula", "[1/4]p", "--world", "w0"])
        assert code == 1
        assert json.loads(out) == {"holds": False}

    def test_malformed_formula(self, capsys, tree_model):
        code, _, err = run(capsys, ["check", "--model", str(tree_model), "--formula", "[p", "--world", "w0"])
        assert code == 2
        assert "error" in json.loads(err)

    def test_unknown_world(self, capsys, tree_model):
        code, _, err = run(capsys, ["check", "--model", str(tree_model), "--formula", "p", "--world", "w9"])
        assert code == 2
        assert "w9" in json.loads(err)["error"]

    def test_missing_model_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["check", "--model", str(tmp_path / "nope.json"), "--formula", "p", "--world", "w0"])
        assert code == 2


class TestTruthsetAndDegrees:
    def test_truthset_sorted(self, capsys, tree_model):
        code, out, _ = run(capsys, ["truthset", "--model", str(tree_model), "--formula", "q"])
        assert code == 0
        assert json.loads(out)["points"] == ["w0", "w1", "w2", "w3"]

    def test_truthset_empty(self, capsys, tree_model):
        code, out, _ = run(capsys, ["truthset", "--model", str(tree_model), "--formula", "p & ~p"])
        assert json.loads(out)["points"] == []

    def test_stability(self, capsys, tree_model):
        code, out, _ = run(capsys, ["stability", "--model", str(tree_model), "--formula", "p", "--world", "w0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold"] == "1/4"
        assert payload["attained"] is False

    def test_stability_none(self, capsys, tree_model):
        _, out, _ = run(capsys, ["stability", "--model", str(tree_model), "--formula", "p", "--world", "w7"])
        assert json.loads(out)["threshold"] == "none"

    def test_plausibility(self, capsys, tree_model):
        code, out, _ = run(capsys, ["plausibility", "--model", str(tree_model), "--formula", "p", "--world", "w4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold"] == "1/2"
        assert payload["level"] == "1/2"


class TestCantor:
    def test_emits_sequences_form(self, capsys):
        code, out, _ = run(capsys, ["cantor", "--depth", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == ["w0", "w1"]
        assert payload["distance"]["sequences"] == {"w0": "1", "w1": "0"}

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, ["cantor", "--depth", "3"])
        _, second, _ = run(capsys, ["cantor", "--depth", "3"])
        assert first == second

    def test_depth_zero_rejected(self, capsys):
        code, _, err = run(capsys, ["cantor", "--depth", "0"])
        assert code == 2

    def test_depth_past_bound_rejected(self, capsys):
        code, out, err = run(capsys, ["cantor", "--depth", str(MAX_CANTOR_DEPTH + 1)])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"depth must be between 1 and {MAX_CANTOR_DEPTH}, not {MAX_CANTOR_DEPTH + 1}"}

    def test_valuation_with_unknown_point(self, capsys, tmp_path):
        val = tmp_path / "val.json"
        val.write_text(json.dumps({"p": ["w8"]}))
        code, _, err = run(capsys, ["cantor", "--depth", "2", "--valuation", str(val)])
        assert code == 2
        assert "w8" in json.loads(err)["error"]

    def test_output_reloads(self, capsys, tree_model):
        code, out, _ = run(capsys, ["validate-model", "--model", str(tree_model)])
        assert code == 0
        assert json.loads(out)["valid"] is True


class TestValid:
    def test_valid_formula(self, capsys, tree_model):
        code, out, _ = run(capsys, ["valid", "--model", str(tree_model), "--formula", "[1/2]p -> p"])
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_invalid_formula_with_witness(self, capsys, tree_model):
        code, out, _ = run(capsys, ["valid", "--model", str(tree_model), "--formula", "p -> [1/2]p"])
        assert code == 1
        payload = json.loads(out)
        assert payload["witness"] == {"valuation": {"p": ["w0"]}, "world": "w0"}

    def test_cap_exceeded(self, capsys, tree_model):
        code, _, err = run(capsys, ["valid", "--model", str(tree_model), "--formula", "p -> p", "--cap", "100"])
        assert code == 2
        assert "cap" in json.loads(err)["error"]

    def test_cap_exceeded_on_a_big_model(self, capsys, tmp_path):
        # 2^(128 * 120) has 4,624 decimal digits, past the interpreter's
        # limit for converting an int to text.
        model = tmp_path / "model.json"
        assert main(["cantor", "--depth", "7", "--out", str(model)]) == 0
        # Twelve parenthesised groups of ten, to stay below the nesting cap.
        formula = " & ".join(
            "(" + " & ".join(f"a{i}" for i in range(k, k + 10)) + ")" for k in range(0, 120, 10))
        code, out, err = run(capsys, ["valid", "--model", str(model), "--formula", formula])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == f"2^15360 valuations exceed the enumeration cap {1 << 26}"

    def test_the_ceiling_is_named_when_the_cap_is_above_it(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        assert main(["cantor", "--depth", "5", "--out", str(model)]) == 0
        argv = ["valid", "--model", str(model), "--formula", "p -> q", "--cap"]  # 2^64 valuations
        code, out, err = run(capsys, argv + ["999999999999999999999999"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "2^64 valuations exceed the enumeration ceiling 2^62, which no cap raises"
        # A cap at or below the ceiling is the one named.
        code, out, err = run(capsys, argv + [str(1 << 62)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == f"2^64 valuations exceed the enumeration cap {1 << 62}"

    def test_valid_at_the_enumeration_cap(self, capsys, tmp_path):
        """2^26 valuations, the default cap: one atom on 26 points.

        On a 2-vCPU x86-64 VM the bit-sliced enumeration took 0.26 s here,
        and one table lookup per valuation 2.5 s.
        """
        model = tmp_path / "model.json"
        save_model(Model(random_ultrametric_space(random.Random(2), 26)), model)
        started = time.perf_counter()
        code, out, err = run(capsys, ["valid", "--model", str(model), "--formula", "[1/2]p -> p"])
        elapsed = time.perf_counter() - started
        assert (code, json.loads(out), err) == (0, {"valid": True, "valuations_checked": 1 << 26}, "")
        assert elapsed < 2, elapsed


class TestAxiom:
    def test_match(self, capsys):
        code, out, _ = run(capsys, ["axiom", "--formula", "[1/2]p -> p"])
        assert code == 0
        assert json.loads(out)["matches"] == [
            {"schema": "T", "bindings": {"eps": "1/2", "phi": "p"}}
        ]

    def test_no_match(self, capsys):
        code, out, _ = run(capsys, ["axiom", "--formula", "p -> q"])
        assert code == 1
        assert json.loads(out)["matches"] == []


DEEP_FORMULAS = {
    "tildes": "~" * 5000 + "p",
    "parentheses": "(" * 3000 + "p" + ")" * 3000,
    "boxes": "[1/2]" * 498 + "p",
    "flat-and": " & ".join(["p"] * 3000),
    "implies-chain": " -> ".join(["p"] * 3000),
}


class TestDeepFormulas:
    """Nesting past the parser's cap is an operational error, never a traceback."""

    @pytest.mark.parametrize("shape", sorted(DEEP_FORMULAS))
    def test_axiom_exits_2(self, capsys, shape):
        code, out, err = run(capsys, ["axiom", "--formula", DEEP_FORMULAS[shape]])
        assert code == 2
        assert out == ""
        assert "deeper than" in json.loads(err)["error"]

    @pytest.mark.parametrize("shape", sorted(DEEP_FORMULAS))
    def test_check_exits_2(self, capsys, tree_model, shape):
        argv = ["check", "--model", str(tree_model), "--formula", DEEP_FORMULAS[shape], "--world", "w0"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "deeper than" in json.loads(err)["error"]


def nested_iff(levels):
    """``p <-> (p <-> (...))``: short text whose expanded tree has about 2^levels leaves."""
    text = "p"
    for _ in range(levels - 1):
        text = f"p <-> ({text})"
    return text


class TestExpandedSize:
    """Nested ``<->`` past the parser's node cap exits 2 before anything walks the expansion."""

    @pytest.mark.parametrize("command", ["axiom", "check"])
    def test_thirty_nested_biconditionals_exit_2(self, capsys, tree_model, command):
        argv = [command, "--formula", nested_iff(30)]
        if command == "check":
            argv += ["--model", str(tree_model), "--world", "w0"]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert f"more than {MAX_NODES} nodes" in json.loads(err)["error"]

    def test_nested_biconditionals_under_the_cap_still_run(self, capsys, tree_model):
        argv = ["check", "--model", str(tree_model), "--formula", nested_iff(8), "--world", "w0"]
        code, _, err = run(capsys, argv)
        assert code in (0, 1)
        assert err == ""


class TestParserReuse:
    """``main`` builds its argument parser once; one call's values never reach the next."""

    def test_appended_models_and_defaults_stay_per_call(self, capsys, tmp_path, tree_model):
        one = tmp_path / "one.json"
        assert main(["cantor", "--depth", "1", "--out", str(one)]) == 0
        code, out, _ = run(capsys, ["union", "--model", str(one), "--model", str(tree_model)])
        assert code == 0
        assert len(json.loads(out)["points"]) == 2 + 8
        code, out, _ = run(capsys, ["union", "--model", str(one)])
        assert code == 0
        assert len(json.loads(out)["points"]) == 2
        code, _, err = run(capsys, ["morphism", "--model", str(one), "--map", str(one)])
        assert code == 2
        assert "exactly two" in json.loads(err)["error"]

        formula = ["--model", str(tree_model), "--formula", "p -> p"]
        code, _, err = run(capsys, ["valid", *formula, "--cap", "100"])
        assert code == 2
        assert "cap" in json.loads(err)["error"]
        code, out, _ = run(capsys, ["valid", *formula])
        assert code == 0
        assert json.loads(out)["valuations_checked"] == 256


class TestExplicitDashes:
    """``--opt=--`` gives the option the value ``--`` on every Python; argparse before 3.13 read it as []."""

    def test_formula_of_two_dashes_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, ["axiom", "--formula=--"])
        assert (code, json.loads(err)) == (2, {"error": "unexpected character '-' at line 1, column 1"})

    @pytest.mark.parametrize("argv", [
        ["check", "--model=--", "--formula=p", "--world=w0"],
        ["union", "--model=--"],
        ["morphism", "--model=--", "--model=--", "--map=--"],
    ], ids=["single", "repeated", "repeated-twice"])
    def test_model_named_two_dashes_is_a_missing_file(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "'--'" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv", [
        ["cantor", "--depth=--"],
        ["harness", "--seed=--"],
        ["valid", "--model=m.json", "--formula=p", "--cap=--"],
    ], ids=["cantor", "harness", "valid"])
    def test_int_option_of_two_dashes_exits_2(self, capsys, argv):
        """The subcommand's parser reports it, in the words it uses for any value that is not a number."""
        def stderr_of(args):
            with pytest.raises(SystemExit) as info:
                main(args)
            assert info.value.code == 2
            return capsys.readouterr().err

        err = stderr_of(argv)
        assert err == stderr_of([arg.replace("=--", "=zz") for arg in argv]).replace("'zz'", "'--'")
        assert err.startswith(f"usage: umlogic {argv[0]} ")
        assert f"\numlogic {argv[0]}: error: argument --" in err and err.endswith("invalid int value: '--'\n")


class TestProve:
    def test_bundled_derivation(self, capsys):
        code, out, _ = run(capsys, ["prove", "--proof", str(DATA / "stability_chain.json")])
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_rejected_proof(self, capsys, tmp_path):
        bad = json.loads((DATA / "stability_chain.json").read_text())
        bad[3]["by"] = "axiom:K"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, ["prove", "--proof", str(path)])
        assert code == 1
        assert json.loads(out)["failed_line"] == 4

    def test_malformed_proof_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('[{"n": 1}]')
        code, _, err = run(capsys, ["prove", "--proof", str(path)])
        assert code == 2

    @pytest.mark.parametrize("by, formula, rule", [
        ("mp:²,1", "p", "modus ponens"),
        ("nec:¹:1/2", "[1/2]p", "necessitation"),
        ("mp:١,١", "p", "modus ponens"),
        ("nec:١:1/2", "[1/2]p", "necessitation"),
    ])
    def test_superscript_line_numbers_are_malformed(self, capsys, tmp_path, by, formula, rule):
        """Superscript digits pass ``str.isdigit`` but not ``int``; the entry is named, not the int error.

        Other scripts' decimal digits pass ``str.isdecimal`` and ``int``, but a
        line number is ASCII digits only.
        """
        path = tmp_path / "superscript.json"
        path.write_text(json.dumps([{"n": 1, "formula": "p", "by": "premise"},
                                    {"n": 2, "formula": formula, "by": by}]))
        code, out, err = run(capsys, ["prove", "--proof", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"entry 1: malformed {rule} justification {by!r}"}


class TestDeepJson:
    """A JSON file nested too deeply to decode is a format error with exit 2, never a traceback."""

    @pytest.mark.parametrize("command", ["valid", "prove", "cantor", "morphism"])
    def test_exits_2(self, capsys, tree_model, tmp_path, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        argv = {
            "valid": ["valid", "--model", str(deep), "--formula", "p"],
            "prove": ["prove", "--proof", str(deep)],
            "cantor": ["cantor", "--depth", "2", "--valuation", str(deep)],
            "morphism": ["morphism", "--model", str(tree_model), "--model", str(tree_model),
                         "--map", str(deep)],
        }[command]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "recursion" in json.loads(err)["error"]


class TestHugeJsonInteger:
    """A JSON integer past the interpreter's 4,300-digit limit is a format error naming the file."""

    @pytest.mark.parametrize("command", ["check", "valid", "prove", "cantor", "morphism"])
    def test_exits_2_naming_the_file(self, capsys, tree_model, tmp_path, command):
        huge = "9" * 4301
        model = tmp_path / "huge-model.json"
        model.write_text('{"points": ["a", "b"], "distance": {"matrix": [["0", %s], ["1", "0"]]}}' % huge)
        other = tmp_path / "huge.json"
        other.write_text('{"k": %s, "map": {}}' % huge)
        argv, path = {
            "check": (["check", "--model", str(model), "--formula", "p", "--world", "a"], model),
            "valid": (["valid", "--model", str(model), "--formula", "p"], model),
            "prove": (["prove", "--proof", str(other)], other),
            "cantor": (["cantor", "--depth", "2", "--valuation", str(other)], other),
            "morphism": (["morphism", "--model", str(tree_model), "--model", str(tree_model),
                          "--map", str(other)], other),
        }[command]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        message = json.loads(err)["error"]
        assert message.startswith(f"{path}: ") and "4300 digits" in message


class TestConstructions:
    def test_union_emits_loadable_model(self, capsys, tmp_path):
        one = tmp_path / "one.json"
        assert main(["cantor", "--depth", "1", "--out", str(one)]) == 0
        out_path = tmp_path / "union.json"
        code = main(["union", "--model", str(one), "--model", str(one), "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert "2" in {d for row in payload["distance"]["matrix"] for d in row}
        assert main(["validate-model", "--model", str(out_path)]) == 0

    def test_union_past_distance_two_exits_2(self, capsys, tmp_path):
        wide, single = tmp_path / "wide.json", tmp_path / "single.json"
        wide.write_text(json.dumps({"points": ["a", "b"], "distance": {"matrix": [["0", "3"], ["3", "0"]]}}))
        single.write_text(json.dumps({"points": ["c"], "distance": {"matrix": [["0"]]}}))
        code, out, err = run(capsys, ["union", "--model", str(wide), "--model", str(single)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "component distance 3 is above the union distance 2"

    def test_ball_extraction(self, capsys, tree_model, tmp_path):
        out_path = tmp_path / "ball.json"
        code = main(["ball", "--model", str(tree_model), "--world", "w0",
                     "--grade", "1/8", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["points"] == ["w0", "w1"]
        assert payload["valuation"]["p"] == ["w0", "w1"]
        assert main(["validate-model", "--model", str(out_path)]) == 0

    def test_subspace_alias(self, capsys, tree_model):
        code, out, _ = run(capsys, ["subspace", "--model", str(tree_model), "--world", "w0", "--grade", "0"])
        assert code == 0
        assert json.loads(out)["points"] == ["w0"]

    def test_morphism_identity(self, capsys, tree_model, tmp_path):
        pm = tmp_path / "map.json"
        pm.write_text(json.dumps({"k": "1", "map": {f"w{i}": f"w{i}" for i in range(8)}}))
        code, out, _ = run(capsys, ["morphism", "--model", str(tree_model),
                                    "--model", str(tree_model), "--map", str(pm)])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_morphism_bilipschitz(self, capsys, tree_model, tmp_path):
        pm = tmp_path / "map.json"
        pm.write_text(json.dumps({"k": "1", "map": {f"w{i}": f"w{i}" for i in range(8)}}))
        code, out, _ = run(capsys, ["morphism", "--model", str(tree_model), "--model",
                                    str(tree_model), "--map", str(pm), "--bilipschitz"])
        assert code == 0
        assert json.loads(out)["tightest_k"] == "1"

    def test_morphism_bilipschitz_past_the_digit_limit(self, capsys, tmp_path):
        # Each file prints, but the ratio of their distances, (10^4300 - 1)^2,
        # has 8,600 digits.
        digits = sys.int_info.default_max_str_digits
        nines = "9" * digits
        models = []
        for name, d in (("a.json", "1/" + nines), ("b.json", nines)):
            models += ["--model", str(tmp_path / name)]
            (tmp_path / name).write_text(json.dumps(
                {"points": ["x", "y"], "distance": {"matrix": [["0", d], [d, "0"]]}}))
        pm = tmp_path / "map.json"
        pm.write_text(json.dumps({"map": {"x": "x", "y": "y"}}))
        code, out, err = run(capsys, ["morphism", *models, "--map", str(pm), "--bilipschitz"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == (
            f"tightest_k has more than {digits} digits, the limit for printing an integer")

    def test_morphism_needs_two_models(self, capsys, tree_model, tmp_path):
        pm = tmp_path / "map.json"
        pm.write_text(json.dumps({"map": {}}))
        code, _, err = run(capsys, ["morphism", "--model", str(tree_model), "--map", str(pm)])
        assert code == 2


class TestDotAndValidate:
    def test_dot_depth2(self, capsys, tmp_path):
        model = tmp_path / "c2.json"
        assert main(["cantor", "--depth", "2", "--out", str(model)]) == 0
        code, out, _ = run(capsys, ["dot", "--model", str(model)])
        assert code == 0
        assert out.startswith("digraph balls {")
        assert out.count("->") == 6

    def test_validate_reports_violations(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "points": ["a", "b", "c"],
            "distance": {"matrix": [["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]]},
        }))
        code, out, _ = run(capsys, ["validate-model", "--model", str(path)])
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["violations"][0]["condition"] == "strong-triangle"
        assert payload["violations"][0]["witness"] == ["a", "c", "b"]

    def test_invalid_model_rejected_by_other_commands(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "points": ["a", "b"],
            "distance": {"matrix": [["0", "0"], ["0", "0"]]},
        }))
        code, _, err = run(capsys, ["truthset", "--model", str(path), "--formula", "p"])
        assert code == 2


class TestHarnessCommand:
    def test_runs_clean(self, capsys):
        code, out, _ = run(capsys, ["harness", "--seed", "5", "--samples", "20"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, ["harness", "--seed", "6", "--samples", "10"])
        _, second, _ = run(capsys, ["harness", "--seed", "6", "--samples", "10"])
        assert first == second


HUGE = "1e999999999"


class TestExponentNotation:
    """Rational text in exponent notation exits 2 at once instead of computing 10^999999999."""

    def run_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "unreadable" in json.loads(err)["error"]

    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_matrix_entry(self, capsys, tmp_path):
        model = self.write(tmp_path, "m.json", {"points": ["a", "b"],
                                                "distance": {"matrix": [["0", HUGE], [HUGE, "0"]]}})
        self.run_fast(capsys, ["validate-model", "--model", model])

    def test_map_scaling_constant(self, capsys, tree_model, tmp_path):
        names = [f"w{i}" for i in range(8)]
        point_map = self.write(tmp_path, "map.json", {"k": HUGE, "map": dict(zip(names, names))})
        self.run_fast(capsys, ["morphism", "--model", str(tree_model), "--model", str(tree_model),
                               "--map", point_map])

    def test_proof_binding(self, capsys, tmp_path):
        proof = self.write(tmp_path, "p.json", [
            {"n": 1, "formula": "[1/2]p -> p", "by": "axiom:T", "bind": {"eps": HUGE, "phi": "p"}}])
        self.run_fast(capsys, ["prove", "--proof", proof])

    def test_necessitation_grade(self, capsys, tmp_path):
        proof = self.write(tmp_path, "p.json", [{"n": 1, "formula": "p", "by": "premise"},
                                                {"n": 2, "formula": "[1]p", "by": f"nec:1:{HUGE}"}])
        self.run_fast(capsys, ["prove", "--proof", proof])

    def test_subspace_grade(self, capsys, tree_model):
        self.run_fast(capsys, ["subspace", "--model", str(tree_model), "--world", "w0", "--grade", HUGE])


class TestPlainRationals:
    """Rational text is ASCII ``p/q`` or a finite decimal: ``_`` separators and other scripts' digits exit 2."""

    TEXTS = ["1_0/20", "١/٢"]

    def refused(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": message}

    @pytest.mark.parametrize("text", TEXTS)
    def test_matrix_entry(self, capsys, tmp_path, text):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"points": ["a", "b"], "distance": {"matrix": [["0", text], [text, "0"]]}}))
        self.refused(capsys, ["validate-model", "--model", str(model)], f"unreadable distance {text!r}")

    @pytest.mark.parametrize("text", TEXTS)
    def test_grade_flag(self, capsys, tree_model, text):
        self.refused(capsys, ["ball", "--model", str(tree_model), "--world", "w0", "--grade", text],
                     f"unreadable grade {text!r}")

    @pytest.mark.parametrize("text", ["١/٢", "1/٢"])
    def test_formula_grade(self, capsys, tree_model, text):
        self.refused(capsys, ["truthset", "--model", str(tree_model), "--formula", f"[{text}]p"],
                     f"unreadable grade {text!r} at line 1, column 2")

    @pytest.mark.parametrize("text", TEXTS)
    def test_necessitation_grade(self, capsys, tmp_path, text):
        proof = tmp_path / "p.json"
        proof.write_text(json.dumps([{"n": 1, "formula": "p", "by": "premise"},
                                     {"n": 2, "formula": "[1/2]p", "by": f"nec:1:{text}"}]))
        self.refused(capsys, ["prove", "--proof", str(proof)], f"entry 1: unreadable grade {text!r}")


class TestHarnessBounds:
    """A harness size one past its bound exits 2 before anything is built."""

    @pytest.mark.parametrize("flag, field", [("--points", "component_points"), ("--samples", "samples"),
                                             ("--depth", "formula_depth")])
    def test_one_past_the_bound_exits_2(self, capsys, flag, field):
        low, high = _BOUNDS[field]
        start = time.perf_counter()
        code, out, err = run(capsys, ["harness", flag, str(high + 1)])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == f"{field} must be between {low} and {high}, not {high + 1}"


def history_file(tmp_path, name, histories, valuation=None):
    path = tmp_path / name
    path.write_text(json.dumps({"points": list(histories), "distance": {"sequences": histories},
                                "valuation": valuation or {}}))
    return str(path)


# Several groups of equal histories; the first group in sorted history order
# ({d, f} at 000) is not the one holding the first pair in point order.
DUPLICATE_HISTORIES = [
    {"a": "110", "b": "011", "c": "110", "d": "000", "e": "011", "f": "000", "g": "110"},
    {"f": "101", "e": "000", "d": "101", "c": "000", "b": "111", "a": "101"},
    {"x": "1", "y": "0", "z": "0"},
]


class TestDuplicateHistories:
    """A history file is checked only for equal histories, with the report of the law-by-law check."""

    @pytest.mark.parametrize("histories", DUPLICATE_HISTORIES)
    def test_report_matches_the_matrix_form(self, capsys, tmp_path, histories):
        path = history_file(tmp_path, "h.json", histories)
        twin = tmp_path / "m.json"
        twin.write_text(dump_model(load_model(path, validate=False)))
        for argv in (["validate-model"], ["check", "--formula", "p", "--world", next(iter(histories))]):
            results = [run(capsys, [argv[0], "--model", str(model), *argv[1:]]) for model in (path, twin)]
            assert results[0] == results[1]
            assert results[0][0] == (1 if argv[0] == "validate-model" else 2)

    def test_first_pair_in_point_order(self, capsys, tmp_path):
        path = history_file(tmp_path, "h.json", DUPLICATE_HISTORIES[0])
        detail = "distinct points a, c at distance 0"
        code, out, err = run(capsys, ["validate-model", "--model", path])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"valid": False, "violations": [
            {"condition": "identity-of-indiscernibles", "witness": ["a", "c"], "detail": detail}]}
        assert run(capsys, ["check", "--model", path, "--formula", "p", "--world", "a"]) == (
            2, "", json.dumps({"error": detail}) + "\n")


class TestHistoryLengthBound:
    """Histories up to MAX_HISTORY_LENGTH events load and print their distances; longer ones exit 2."""

    COMMANDS = (["check", "--formula", "p", "--world", "a"], ["stability", "--formula", "p", "--world", "a"],
                ["plausibility", "--formula", "p", "--world", "b"], ["dot"],
                ["subspace", "--world", "a", "--grade", "1"], ["validate-model"])

    def two_points(self, tmp_path, length):
        return history_file(tmp_path, f"h{length}.json", {"a": "0" * length, "b": "0" * (length - 1) + "1"},
                            {"p": ["a"]})

    def test_every_distance_at_the_bound_prints(self, capsys, tmp_path):
        path = self.two_points(tmp_path, MAX_HISTORY_LENGTH)
        smallest = str(Fraction(1, 2 ** MAX_HISTORY_LENGTH))
        for argv in self.COMMANDS:
            code, out, err = run(capsys, [argv[0], "--model", path, *argv[1:]])
            assert (code, err) == (0, ""), argv
        assert json.loads(run(capsys, ["stability", "--model", path, "--formula", "p", "--world", "a"])[1]) == {
            "kind": "stability", "threshold": smallest, "attained": False}
        assert smallest in run(capsys, ["dot", "--model", path])[1]

    def test_one_event_past_the_bound_exits_2(self, capsys, tmp_path):
        path = self.two_points(tmp_path, MAX_HISTORY_LENGTH + 1)
        for argv in self.COMMANDS:
            code, out, err = run(capsys, [argv[0], "--model", path, *argv[1:]])
            assert (code, out) == (2, ""), argv
            assert json.loads(err) == {"error": f"sequence for 'a' is longer than {MAX_HISTORY_LENGTH} events"}

    def test_the_bound_is_the_longest_printable_denominator(self):
        digits = sys.int_info.default_max_str_digits
        assert 2 ** MAX_HISTORY_LENGTH < 10 ** digits <= 2 ** (MAX_HISTORY_LENGTH + 1)


class TestExitCodes:
    def test_memory_error_exits_2(self, capsys, monkeypatch, tree_model):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "valid_in_model", exhausted)
        code, out, err = run(capsys, ["valid", "--model", str(tree_model), "--formula", "p"])
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "MemoryError"}


def valid_invocations(tmp_path, model):
    """One invocation of every command that succeeds or gives a verdict, keyed by command."""
    proof = tmp_path / "proof.json"
    proof.write_text(json.dumps([{"n": 1, "formula": "p", "by": "premise"}]))
    identity = tmp_path / "map.json"
    identity.write_text(json.dumps({"k": "1", "map": {f"w{i}": f"w{i}" for i in range(8)}}))
    query = ["--model", str(model), "--formula", "<1/2>p", "--world", "w0"]
    return {
        "check": query,
        "truthset": query[:4],
        "stability": query,
        "plausibility": query,
        "cantor": ["--depth", "2"],
        "valid": ["--model", str(model), "--formula", "p -> p"],
        "axiom": ["--formula", "[1]q -> q"],
        "prove": ["--proof", str(proof)],
        "union": ["--model", str(model), "--model", str(model)],
        "ball": ["--model", str(model), "--world", "w0", "--grade", "1/4"],
        "subspace": ["--model", str(model), "--world", "w0", "--grade", "1/4"],
        "morphism": ["--model", str(model), "--model", str(model), "--map", str(identity)],
        "harness": ["--seed", "1", "--samples", "2"],
        "dot": ["--model", str(model)],
        "validate-model": ["--model", str(model)],
    }


COMMANDS = ["check", "truthset", "stability", "plausibility", "cantor", "valid", "axiom", "prove", "union", "ball",
            "subspace", "morphism", "harness", "dot", "validate-model"]


class TestOutputContract:
    def test_every_command_is_covered(self, tmp_path, tree_model):
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(subparsers.choices) == COMMANDS == list(valid_invocations(tmp_path, tree_model))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_into_a_missing_directory_exits_2(self, capsys, tmp_path, tree_model, command):
        """The handler's payload is written by ``main``; a failed write is an operational error."""
        argv = [command, *valid_invocations(tmp_path, tree_model)[command]]
        code, _, _ = run(capsys, argv)
        assert code in (0, 1)
        code, out, err = run(capsys, [*argv, "--out", str(tmp_path / "missing" / "out.txt")])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and set(json.loads(err)) == {"error"}
        assert not (tmp_path / "missing").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # The subprocess does not inherit pytest's pythonpath setting.
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "umlogic.cli", "cantor", "--depth", "1"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["points"] == ["w0", "w1"]

    def test_console_script_if_installed(self):
        exe = shutil.which("umlogic")
        if exe is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run([exe, "axiom", "--formula", "[1]q -> q"], capture_output=True, text=True)
        assert result.returncode == 0

    def test_console_script_target(self, capsys, monkeypatch):
        """The ``[project.scripts]`` target, called as an installed script calls it: no arguments, argv from sys.argv."""
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
        module, _, name = project["scripts"]["umlogic"].partition(":")
        entry = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(sys, "argv", ["umlogic", "axiom", "--formula", "[1]q -> q"])
        assert entry() == 0
        out = capsys.readouterr().out
        assert json.loads(out)["matches"][0]["schema"] == "T"
