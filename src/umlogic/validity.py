"""Brute-force validity checking over finite spaces.

A formula is valid in a space when it holds at every world under every
valuation of its atoms.  Only atoms occurring in the formula are
enumerated; each candidate valuation is an integer whose bit layout is
documented at :func:`valid_in_model`.  Evaluation runs vectorised over
chunks of candidates through the same evaluator as single truth sets
(:func:`umlogic.semantics.evaluate`) on the formula as parsed.  A chunk
holds one bitmask per candidate in the narrowest unsigned type that holds
the n points' bits (``uint8`` up to 8 points, ``uint16`` up to 16, ...).
While 2^n <= :data:`umlogic.semantics.CHUNK`, a box or diamond is one
lookup per candidate in a table of its step over all 2^n masks; on
larger spaces it takes one numpy pass per distinct ball of its grade.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formula import Formula, atoms
from .semantics import CHUNK, evaluate
from .space import UltrametricSpace

DEFAULT_CAP = 1 << 26


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
    # An atom's slice of a candidate is held in at most a uint64, so 62
    # index bits is a hard ceiling regardless of how generous the cap is.
    if total > min(cap, 1 << 62):
        raise EnumerationCapExceeded(total, min(cap, 1 << 62))

    full = space.full_mask
    dtype = np.min_scalar_type(full)
    point_bits = dtype.type(full)
    size = min(CHUNK, total)

    for start in range(0, total, size):
        atom_arrays = {name: _atom_batch(start, size, j * n, n, dtype) for j, name in enumerate(names)}
        result = evaluate(space, f, atom_arrays.__getitem__, point_bits)
        bad = np.nonzero(result != point_bits)[0]
        if bad.size:
            encoded = start + int(bad[0])
            held = int(result[bad[0]])
            valuation = {
                name: space.names_of(encoded >> (j * n) & full) for j, name in enumerate(names)
            }
            world = next(space.points[i] for i in range(n) if not held >> i & 1)
            return ValidityResult(False, Counterexample(valuation, world), encoded + 1)
    return ValidityResult(True, None, total)


def _atom_batch(start: int, size: int, shift: int, n: int, dtype: np.dtype) -> np.ndarray:
    """Bits [shift, shift + n) of the candidates start .. start + size - 1, as ``dtype``.

    ``size`` is a power of two and ``start`` a multiple of it, so a
    candidate's bits below log2(size) are its offset in the chunk and the
    rest are those of ``start``.  The slice is then a run of consecutive
    masks, each repeated 2^shift times, and the run is tiled over the chunk.
    """
    base = start >> shift & ((1 << n) - 1)
    steps = size >> shift
    if not steps:
        return np.full(size, base, dtype=dtype)
    run = np.arange(min(steps, 1 << n), dtype=dtype) | dtype.type(base)
    return np.tile(np.repeat(run, 1 << shift), steps // len(run))
