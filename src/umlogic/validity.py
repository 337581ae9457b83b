"""Brute-force validity checking over finite spaces.

A formula is valid in a space when it holds at every world under every
valuation of its atoms.  Only atoms occurring in the formula are
enumerated; each candidate valuation is an integer whose bit layout is
documented at :func:`valid_in_model`.  Evaluation runs vectorised over
chunks of candidates, one ``uint64`` bitmask per candidate, through the
same evaluator as single truth sets (:func:`umlogic.semantics.evaluate`)
on the formula as parsed: a box or diamond takes one numpy pass per
distinct ball of its grade.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formula import Formula, atoms
from .semantics import evaluate
from .space import UltrametricSpace

DEFAULT_CAP = 1 << 26
_CHUNK = 1 << 18


class EnumerationCapExceeded(Exception):
    """The valuation space is larger than the configured cap.

    ``needed`` is a power of two, 2^(points * atoms), and is reported as
    such: in decimal it could pass the interpreter's limit on the digits
    of an integer converted to text.
    """

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(f"2^{needed.bit_length() - 1} valuations exceed the enumeration cap {cap}")


@dataclass
class Counterexample:
    valuation: dict[str, frozenset[str]]
    world: str


@dataclass
class ValidityResult:
    valid: bool
    witness: Counterexample | None
    valuations_checked: int

    def __bool__(self) -> bool:
        return self.valid


def valid_in_model(space: UltrametricSpace, f: Formula, cap: int = DEFAULT_CAP) -> ValidityResult:
    """Exhaustively check ``f`` at every world under every valuation of its atoms.

    Candidate valuations are encoded as integers: atom j (in sorted name
    order) owns bits [j*n, (j+1)*n) and bit i of its slice puts point i in
    the atom's set.  Candidates are scanned in ascending order and worlds
    in point order, so the reported counterexample is the least one under
    that encoding.  Raises :class:`EnumerationCapExceeded` when there are
    more than ``cap`` candidates.
    """
    names = sorted(atoms(f))
    n = space.n
    total = 1 << (n * len(names))
    # Candidates are packed into uint64, so 62 index bits is a hard ceiling
    # regardless of how generous the configured cap is.
    if total > min(cap, 1 << 62):
        raise EnumerationCapExceeded(total, min(cap, 1 << 62))

    full = space.full_mask
    point_bits = np.uint64(full)

    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.uint64)
        atom_arrays = {
            name: (idx >> np.uint64(j * n)) & point_bits for j, name in enumerate(names)
        }
        result = evaluate(space, f, atom_arrays.__getitem__, point_bits)
        bad = np.nonzero(result != point_bits)[0]
        if bad.size:
            encoded = int(idx[bad[0]])
            held = int(result[bad[0]])
            valuation = {
                name: space.names_of(encoded >> (j * n) & full) for j, name in enumerate(names)
            }
            world = next(space.points[i] for i in range(n) if not held >> i & 1)
            return ValidityResult(False, Counterexample(valuation, world), start + int(bad[0]) + 1)
    return ValidityResult(True, None, total)
