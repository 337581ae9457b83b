"""JSON model files: load with validation, save in canonical form.

A model file is an object with "points" (ordered array of names),
"distance" (one of "matrix": row-major exact-rational strings, or
"sequences": point -> binary history, distances derived from the first
differing position), and an optional "valuation" (atom -> point names).
Rationals cross the file boundary as strings like "1/8"; floats are
rejected to keep the arithmetic exact, and exponent notation ("1e9") so
that reading a number stays cheap.  A space built from sequences is an
ultrametric by construction, and a matrix that satisfies the laws up to
identity of indiscernibles is held as its single-linkage tree alone;
either is validated in O(n), where only points at distance 0 can make it
invalid.  A matrix that breaks another law keeps its table and is
validated law by law.  Output writes the matrix one row of the space
(:meth:`~umlogic.space.UltrametricSpace.row`) at a time.  Histories longer
than ``space.MAX_HISTORY_LENGTH`` are a format error.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .space import Model, UltrametricSpace, UnknownPointError, Violation, read_rational, validate_space


class ModelFormatError(ValueError):
    """Structurally bad model/valuation/map file."""


class InvalidSpaceError(ValueError):
    """The file parsed, but its distance table breaks the metric laws."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(v.detail for v in violations))


def parse_rational(value, *, what: str = "distance") -> Fraction:
    """A file's rational through :func:`~umlogic.space.read_rational`; every failure is a format error."""
    if isinstance(value, (bool, float)):
        raise ModelFormatError(f"{what} {value!r} must be an exact-rational string, not a float/bool")
    try:
        return read_rational(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ModelFormatError(f"unreadable {what} {value!r}") from None


def _parse_points(data: dict) -> list[str]:
    points = data.get("points")
    if not isinstance(points, list) or not points or not all(isinstance(p, str) for p in points):
        raise ModelFormatError('"points" must be a nonempty array of strings')
    return points


def parse_valuation(valuation, points: list[str]) -> dict[str, list[str]]:
    """Check that ``valuation`` maps atoms to arrays of the given point names."""
    if not isinstance(valuation, dict):
        raise ModelFormatError('"valuation" must be an object mapping atoms to point arrays')
    known = set(points)
    for atom, members in valuation.items():
        if not isinstance(members, list) or not all(isinstance(p, str) for p in members):
            raise ModelFormatError(f'valuation of "{atom}" must be an array of point names')
        for p in members:
            if p not in known:
                raise ModelFormatError(f"valuation names unknown point {p!r}")
    return valuation


def model_from_dict(data, *, validate: bool = True) -> Model:
    """Build a model from parsed JSON; rejects invalid spaces unless told not to."""
    if not isinstance(data, dict):
        raise ModelFormatError("model file must be a JSON object")
    points = _parse_points(data)
    distance = data.get("distance")
    if not isinstance(distance, dict) or len(distance.keys() & {"matrix", "sequences"}) != 1:
        raise ModelFormatError('"distance" must be an object with exactly one of "matrix" or "sequences"')

    if "matrix" in distance:
        matrix = distance["matrix"]
        if not isinstance(matrix, list) or len(matrix) != len(points) or not all(
            isinstance(row, list) and len(row) == len(points) for row in matrix
        ):
            raise ModelFormatError(f'"matrix" must be a {len(points)}x{len(points)} array')
        try:
            space = UltrametricSpace(points, matrix, read=parse_rational)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
    else:
        sequences = distance["sequences"]
        if not isinstance(sequences, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in sequences.items()
        ):
            raise ModelFormatError('"sequences" must map point names to binary strings')
        try:
            space = UltrametricSpace.from_sequences(points, sequences)
        except UnknownPointError as exc:
            raise ModelFormatError(f"no sequence given for point {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
        unknown = next((name for name in sequences if name not in space), None)
        if unknown is not None:
            raise ModelFormatError(f"sequences name unknown point {unknown!r}")

    model = Model(space, parse_valuation(data.get("valuation", {}), points))
    if validate:
        violations = validate_space(space)
        if violations:
            raise InvalidSpaceError(violations)
    return model


def read_json(path: str | Path, error: type[ValueError] = ModelFormatError):
    """Decode a JSON file; text that cannot be decoded raises ``error`` naming the file.

    That covers malformed text, nesting too deep to decode and an integer
    longer than the interpreter converts (4,300 digits by default), which
    ``json`` reports as a plain ValueError.
    """
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from None


def load_model(path: str | Path, *, validate: bool = True) -> Model:
    return model_from_dict(read_json(path), validate=validate)


def model_to_dict(model: Model) -> dict:
    """Canonical matrix-form dictionary; point order preserved, sets sorted."""
    space = model.space
    texts = [str(d) for d in space.realized_distances()]
    return {
        "points": list(space.points),
        "distance": {"matrix": [[texts[r] for r in space.row(i).tolist()] for i in range(space.n)]},
        "valuation": {atom: sorted(members) for atom, members in model.valuation.items()},
    }


def dump_model(model: Model) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n"


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(dump_model(model))
