import json
from fractions import Fraction

import pytest

from conftest import dense_table
from umlogic import modelio
from umlogic.cli import main
from umlogic.modelio import (
    InvalidSpaceError,
    ModelFormatError,
    dump_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from umlogic.space import MAX_HISTORY_LENGTH, Model, cantor_space

SEQUENCE_MODEL = {
    "points": ["w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"],
    "distance": {
        "sequences": {
            "w0": "111", "w1": "110", "w2": "101", "w3": "100",
            "w4": "011", "w5": "010", "w6": "001", "w7": "000",
        }
    },
    "valuation": {"p": ["w0", "w1"], "q": ["w0", "w1", "w2", "w3"]},
}


class TestLoading:
    def test_sequences_form(self):
        model = model_from_dict(SEQUENCE_MODEL)
        assert model.space.dist("w0", "w1") == Fraction(1, 8)
        assert model.space.dist("w0", "w2") == Fraction(1, 4)
        assert model.space.dist("w0", "w7") == Fraction(1, 2)
        assert model.atom_set("p") == {"w0", "w1"}

    def test_matrix_form(self):
        data = {
            "points": ["a", "b"],
            "distance": {"matrix": [["0", "1/8"], ["1/8", "0"]]},
            "valuation": {"p": ["a"]},
        }
        model = model_from_dict(data)
        assert model.space.dist("a", "b") == Fraction(1, 8)

    def test_integer_entries_allowed(self):
        data = {"points": ["a", "b"], "distance": {"matrix": [[0, 2], [2, 0]]}}
        assert model_from_dict(data).space.dist("a", "b") == 2

    def test_floats_rejected(self):
        data = {"points": ["a", "b"], "distance": {"matrix": [[0, 0.125], [0.125, 0]]}}
        with pytest.raises(ModelFormatError, match="float"):
            model_from_dict(data)

    def test_invalid_space_rejected_with_report(self):
        data = {
            "points": ["a", "b", "c"],
            "distance": {"matrix": [
                ["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"],
            ]},
        }
        with pytest.raises(InvalidSpaceError) as info:
            model_from_dict(data)
        assert [v.condition for v in info.value.violations] == ["strong-triangle"]

    def test_validation_can_be_skipped(self):
        data = {"points": ["a", "b"], "distance": {"matrix": [["0", "0"], ["0", "0"]]}}
        model = model_from_dict(data, validate=False)
        assert model.space.dist("a", "b") == 0

    def test_valuation_with_unknown_point(self):
        data = dict(SEQUENCE_MODEL, valuation={"p": ["w9"]})
        with pytest.raises(ModelFormatError, match="w9"):
            model_from_dict(data)

    def test_first_unknown_point_in_file_order_is_named(self):
        """Not the first in set order, which moves with the string hash seed."""
        data = dict(SEQUENCE_MODEL, valuation={"p": ["zz", "yy", "xx", "ww", "vv"]})
        with pytest.raises(ModelFormatError, match="unknown point 'zz'$"):
            model_from_dict(data)

    def test_each_distinct_entry_is_read_once(self, monkeypatch):
        """Six points in two blocks: 36 entries, of which four are distinct by type and value."""
        calls = []

        def counting(value, **kwargs):
            calls.append(value)
            return parse_rational(value, **kwargs)

        parse_rational = modelio.parse_rational
        monkeypatch.setattr(modelio, "parse_rational", counting)
        names = [f"p{i}" for i in range(6)]
        matrix = [["0" if i == j else "1/2" if i // 3 == j // 3 else 1 if i < j else "1"
                   for j in range(6)] for i in range(6)]
        space = model_from_dict({"points": names, "distance": {"matrix": matrix}}).space
        assert calls == ["0", "1/2", 1, "1"]
        assert space.realized_distances() == [0, Fraction(1, 2), 1]
        assert space.dist("p0", "p5") == space.dist("p5", "p0") == 1

    @pytest.mark.parametrize("matrix, message", [
        ([[0, 1], [True, 0]], "distance True must be an exact-rational string, not a float/bool"),
        ([[True, 1], [1, 0]], "distance True must be an exact-rational string, not a float/bool"),
        ([["0", "x"], ["y", "0"]], "unreadable distance 'x'"),
        ([["0", "x"], [["1"], "0"]], "unreadable distance 'x'"),
        ([["0", ["1"]], ["x", "0"]], r"unreadable distance \['1'\]"),
        ([["0", "1"], ["1e3", 0.5]], "unreadable distance '1e3'"),
        ([["0", {}], [0.5, "0"]], "unreadable distance {}"),
    ], ids=["bool-beside-1", "bool-first", "text", "text-then-list", "list-first", "exponent", "dict"])
    def test_first_bad_entry_in_row_major_order_is_named(self, matrix, message):
        with pytest.raises(ModelFormatError, match=f"^{message}$"):
            model_from_dict({"points": ["a", "b"], "distance": {"matrix": matrix}})

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("points"),
            lambda d: d.update(points=[]),
            lambda d: d.pop("distance"),
            lambda d: d.update(distance={}),
            lambda d: d.update(distance={"matrix": [["0"]], "sequences": {"w0": "1"}}),
            lambda d: d.update(distance={"matrix": [["0", "1"]]}),
            lambda d: d.update(valuation={"p": "w0"}),
        ],
    )
    def test_structural_errors(self, mutate):
        data = json.loads(json.dumps(SEQUENCE_MODEL))
        mutate(data)
        with pytest.raises(ModelFormatError):
            model_from_dict(data)

    def test_missing_sequence_for_point(self):
        data = json.loads(json.dumps(SEQUENCE_MODEL))
        del data["distance"]["sequences"]["w7"]
        with pytest.raises(ModelFormatError, match="w7"):
            model_from_dict(data)

    def test_sequence_for_unknown_point(self, tmp_path, capsys):
        data = {"points": ["a", "b"], "distance": {"sequences": {"a": "0", "b": "1", "c": "1"}}}
        with pytest.raises(ModelFormatError, match="sequences name unknown point 'c'"):
            model_from_dict(data)
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(data))
        assert main(["valid", "--model", str(path), "--formula", "p -> p"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {"error": "sequences name unknown point 'c'"}

    def test_not_an_object(self):
        with pytest.raises(ModelFormatError):
            model_from_dict([1, 2])

    def test_history_length_bound(self):
        def two_points(length):
            histories = {"a": "0" * length, "b": "0" * (length - 1) + "1"}
            return {"points": ["a", "b"], "distance": {"sequences": histories}}

        space = model_from_dict(two_points(MAX_HISTORY_LENGTH)).space
        assert [str(d) for d in space.realized_distances()] == ["0", f"1/{2 ** MAX_HISTORY_LENGTH}"]
        with pytest.raises(ModelFormatError, match=f"longer than {MAX_HISTORY_LENGTH} events"):
            model_from_dict(two_points(MAX_HISTORY_LENGTH + 1))


class TestRoundTrip:
    def test_dump_and_reload(self, tmp_path):
        model = Model(cantor_space(2), {"p": ["11", "00"]})
        path = tmp_path / "m.json"
        save_model(model, path)
        again = load_model(path)
        assert again.space.points == model.space.points
        assert dense_table(again.space) == dense_table(model.space)
        assert again.valuation == model.valuation

    def test_dump_is_deterministic(self):
        model = Model(cantor_space(2), {"b": ["10"], "a": ["11", "00"]})
        assert dump_model(model) == dump_model(model)

    def test_rationals_cross_as_strings(self):
        payload = model_to_dict(Model(cantor_space(1)))
        assert payload["distance"]["matrix"] == [["0", "1/2"], ["1/2", "0"]]

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ModelFormatError):
            load_model(path)
