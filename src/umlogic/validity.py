"""Brute-force validity checking over finite spaces.

A formula is valid in a space when it holds at every world under every
valuation of its atoms.  Only atoms occurring in the formula are
enumerated, in blocks of candidate valuations (encoded as documented at
:func:`valid_in_model`) run bit-sliced through the evaluator of single
truth sets (:func:`umlogic.semantics.evaluate`): a value is one
``uint64`` row per point, in the space's leaf order, where bit t of word
w is candidate ``start + 64 * w + t``.  Connectives act on 64 candidates
per word and a box or diamond ANDs or ORs whole rows per ball.  Atom j's
row for leaf k is bit ``j * n + leaves[k]`` of the candidates: a fixed
word below bit 6, and runs of all-ones and all-zero words above.  Every
block is written into the same rows, one array per call with n rows of
the block's words for each step that is not an atom
(:func:`umlogic.semantics.batch_rows`), so the enumeration loop neither
allocates nor frees a step's value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formula import Formula, atoms
from .semantics import batch_rows, evaluate
from .space import UltrametricSpace

DEFAULT_CAP = 1 << 26
#: No enumeration runs past 2^62 valuations, whatever the cap: even at 10^9
#: a second, several times the rates measured, that would take 146 years.
CEILING = 1 << 62
#: Bit b of the candidates 64w .. 64w + 63, for b below 6, as one word.
_LOW_BITS = np.array([sum(1 << t for t in range(64) if t >> b & 1) for b in range(6)], dtype=np.uint64)


class EnumerationCapExceeded(Exception):
    """The valuation space is larger than the configured cap, or than :data:`CEILING` when the cap is above it.

    ``needed`` is a power of two, 2^(points * atoms), and is reported as
    such: in decimal it could pass the interpreter's limit on the digits
    of an integer converted to text.
    """

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        limit = f"cap {cap}" if cap <= CEILING else "ceiling 2^62, which no cap raises"
        super().__init__(f"2^{needed.bit_length() - 1} valuations exceed the enumeration {limit}")


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
    the atom's set.  The counterexample is the least candidate, at its first
    world in point order.  Raises :class:`EnumerationCapExceeded` when there
    are more than ``cap`` candidates, or more than :data:`CEILING`.
    """
    names = sorted(atoms(f))
    n = space.n
    bits = n * len(names)
    total = 1 << bits
    if total > min(cap, CEILING):
        raise EnumerationCapExceeded(total, cap)

    ones = np.uint64(np.iinfo(np.uint64).max)
    words = min(_block_words(n), max(total >> 6, 1))
    inner = 5 + words.bit_length()  # candidate bits from here up are those of the block's start
    order = (np.arange(len(names))[:, None] * n + space.leaves).ravel().astype(np.uint64)  # candidate bit of each row
    candidates = _candidate_rows(words, order)
    atom = {name: candidates[j * n:(j + 1) * n] for j, name in enumerate(names)}.__getitem__
    outer = np.flatnonzero(order >= inner)  # the rows each block refreshes
    out = batch_rows(f, n, words)
    for start in range(0, total, 64 * words):
        candidates[outer] = -(np.uint64(start) >> order[outer, None] & np.uint64(1))
        rows = evaluate(space, f, atom, ones, out)
        # Below 64 candidates, bit t of the one word is candidate t mod total,
        # so its lowest zero bit is still a real candidate.
        held = np.bitwise_and.reduce(rows, axis=0)
        bad = np.flatnonzero(held != ones)
        if bad.size:
            w = int(bad[0])
            t = (~int(held[w]) & int(held[w]) + 1).bit_length() - 1
            encoded = start + 64 * w + t
            points = space.points
            valuation = {a: frozenset(x for i, x in enumerate(points) if encoded >> j * n + i & 1)
                         for j, a in enumerate(names)}
            world = next(x for x in points if not int(rows[space.leaf(x), w]) >> t & 1)
            return ValidityResult(False, Counterexample(valuation, world), encoded + 1)
    return ValidityResult(True, None, total)


def _block_words(n: int) -> int:
    """Words per row of a block, a power of two: n rows come to 64-128 KiB, 1,024 words at 10 points.

    At 10 points, 2,048 words ran about as fast but peaked 2 MiB higher,
    and 512 words about a third slower.
    """
    return 1 << max((16384 // max(n, 1)).bit_length() - 1, 0)


def _candidate_rows(words: int, bits: np.ndarray) -> np.ndarray:
    """Row r holds bit ``bits[r]`` of the candidates 0 .. 64 * words - 1, or zeros for a bit past those.

    From bit 6 up, bit b of candidate ``64 * w + t`` is bit b - 6 of w; ``words`` is a power of two.
    """
    rows = np.zeros((len(bits), words), dtype=np.uint64)
    low, mid = bits < 6, (bits >= 6) & (bits < 5 + words.bit_length())
    rows[low] = _LOW_BITS[bits[low].astype(np.intp), None]
    rows[mid] = -(np.arange(words, dtype=np.uint64) >> (bits[mid] - np.uint64(6))[:, None] & np.uint64(1))
    return rows
