"""Seeded inputs for the benchmark workloads, made without the program.

Formulas are nested tuples, rendered fully parenthesised for the CLI and
evaluated directly by :mod:`reference`:

    ("atom", name) | ("not", f) | ("and"|"or"|"imp", f, g)
    | ("box"|"dia", grade, f)

Grades are :class:`fractions.Fraction` values in [0, 1].
"""
from __future__ import annotations

import random
from fractions import Fraction

_BINARY_SYMBOL = {"and": "&", "or": "|", "imp": "->"}


def render(f) -> str:
    """Concrete syntax with every binary connective in parentheses."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "~" + render(f[1])
    if kind == "box":
        return f"[{f[1]}]" + render(f[2])
    if kind == "dia":
        return f"<{f[1]}>" + render(f[2])
    return f"({render(f[1])} {_BINARY_SYMBOL[kind]} {render(f[2])})"


def random_formula(rng: random.Random, size: int, modal: int, atoms, grades):
    """A formula with ``size`` connectives, ``modal`` of them modalities with distinct grades.

    Fixing the number of modalities and of distinct grades fixes how many
    ball indexes and interiors an evaluation builds, so an operation
    costs about the same whatever the seed.
    """
    kinds = [rng.choice(("box", "dia")) for _ in range(modal)]
    kinds += [rng.choice(("not", "and", "or", "imp")) for _ in range(size - modal)]
    rng.shuffle(kinds)
    modal_grades = rng.sample(list(grades), modal)

    def build(n):
        if n == 0:
            return ("atom", rng.choice(atoms))
        kind = kinds.pop()
        if kind == "not":
            return ("not", build(n - 1))
        if kind in ("box", "dia"):
            return (kind, modal_grades.pop(), build(n - 1))
        left = rng.randint(0, n - 1)
        return (kind, build(left), build(n - 1 - left))

    return build(size)


def cantor_histories(d: int) -> list[str]:
    """Histories of the depth-d event tree in the order ``umlogic cantor`` names w0, w1, ..."""
    return [format(i, f"0{d}b") for i in range(2 ** d - 1, -1, -1)]


def random_valuation(rng: random.Random, names, atoms) -> dict[str, list[str]]:
    return {a: sorted((x for x in names if rng.random() < 0.5), key=names.index) for a in atoms}


def cantor_grades(d: int) -> list[Fraction]:
    """Realized distances of the depth-d tree and values that fall between them."""
    realized = [Fraction(1, 2 ** k) for k in range(1, d + 1)]
    between = [Fraction(1, 3), Fraction(3, 4), Fraction(1, 5), Fraction(3, 16), Fraction(1, 100)]
    return realized + between + [Fraction(0), Fraction(1)]


# --- small general ultrametric models (validity) -------------------------

#: Distance levels, loosest first; the last level separates every point.
MODEL_LEVELS = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 8))


def laminar_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Distance table of a random ultrametric on n points.

    The points split into 2 or 3 blocks at each level; two points first
    separated at level r lie at distance r.  With n > 3 some block of the
    top split holds two points, so some pair lies within 1/2.
    """
    table = [[Fraction(0)] * n for _ in range(n)]

    def split(group, levels):
        if len(group) < 2:
            return
        if len(levels) == 1:
            blocks = [[i] for i in group]
        else:
            labels = [rng.randrange(min(3, len(group))) for _ in group]
            labels[0], labels[-1] = 0, 1
            blocks = [[i for i, lab in zip(group, labels) if lab == b] for b in range(3)]
            blocks = [b for b in blocks if b]
        for a, block_a in enumerate(blocks):
            for block_b in blocks[a + 1:]:
                for i in block_a:
                    for j in block_b:
                        table[i][j] = table[j][i] = levels[0]
        for block in blocks:
            split(block, levels[1:])

    split(list(range(n)), MODEL_LEVELS)
    return table


# --- axiom-schema instances ------------------------------------------------

def _box(g, f):
    return ("box", g, f)


def _dia(g, f):
    return ("dia", g, f)


def _imp(a, b):
    return ("imp", a, b)


def _iff(a, b):
    return ("and", _imp(a, b), _imp(b, a))


def schema_instance(name: str, phi, psi, gamma: Fraction, delta: Fraction):
    """The named schema with its metavariables replaced (eps is gamma)."""
    e = gamma
    if name == "K":
        return _imp(_box(e, _imp(phi, psi)), _imp(_box(e, phi), _box(e, psi)))
    if name == "T":
        return _imp(_box(e, phi), phi)
    if name == "UM1":
        return _imp(_box(e, phi), _dia(e, phi))
    if name == "TI":
        return _iff(_box(gamma, _box(delta, phi)), _box(max(gamma, delta), phi))
    if name == "UM2":
        return _imp(_dia(e, phi), _box(e, _dia(e, phi)))
    if name == "UM3":
        return _imp(_box(max(gamma, delta), phi), _box(min(gamma, delta), phi))
    if name == "D":
        return _iff(_dia(e, phi), ("not", _box(e, ("not", phi))))
    if name == "UM4":
        return _imp(phi, _box(e, _dia(e, phi)))
    raise ValueError(name)


SCHEMAS = ("K", "T", "UM1", "TI", "UM2", "UM3", "D", "UM4")

_TWO_ATOM_SHAPES = (
    ("and", ("atom", "p"), ("atom", "q")),
    ("or", ("atom", "p"), ("not", ("atom", "q"))),
    ("imp", ("atom", "q"), ("atom", "p")),
    ("and", ("not", ("atom", "p")), ("atom", "q")),
)


def two_atom_instance(name: str, shape: int, gamma: Fraction, delta: Fraction):
    """An instance of ``name`` in which both atoms p and q occur; ``shape`` picks phi (and psi)."""
    if name == "K":
        phi, psi = _TWO_ATOM_SHAPES[shape][1:]
        return schema_instance(name, phi, psi, gamma, delta)
    return schema_instance(name, _TWO_ATOM_SHAPES[shape], None, gamma, delta)


# --- Hilbert derivations ---------------------------------------------------

def derivation(rng: random.Random, blocks: int, grades) -> tuple[list[dict], list[int]]:
    """A derivation of ``blocks`` ten-line blocks and its theorem line numbers.

    Each block starts from a premise phi and uses every justification kind:
    axioms with and without bindings, modus ponens and necessitation.  A
    line is a theorem when it depends on no premise.
    """
    lines: list[dict] = []
    theorems: list[int] = []

    def add(formula, by, bind=None, theorem=True) -> int:
        n = len(lines) + 1
        entry = {"n": n, "formula": render(formula), "by": by}
        if bind is not None:
            entry["bind"] = bind
        lines.append(entry)
        if theorem:
            theorems.append(n)
        return n

    for _ in range(blocks):
        phi = random_formula(rng, 3, 1, ("p", "q", "r"), grades)
        e, g = rng.choice(grades), rng.choice(grades)
        hi, lo = max(e, g), min(e, g)
        p = add(phi, "premise", theorem=False)
        um4 = add(_imp(phi, _box(e, _dia(e, phi))), "axiom:UM4")
        add(_box(e, _dia(e, phi)), f"mp:{p},{um4}", theorem=False)
        t = add(_imp(_box(e, phi), phi), "axiom:T", {"eps": str(e), "phi": render(phi)})
        nec = add(_box(g, _imp(_box(e, phi), phi)), f"nec:{t}:{g}")
        k = add(_imp(_box(g, _imp(_box(e, phi), phi)), _imp(_box(g, _box(e, phi)), _box(g, phi))),
                "axiom:K", {"eps": str(g), "phi": render(_box(e, phi)), "psi": render(phi)})
        add(_imp(_box(g, _box(e, phi)), _box(g, phi)), f"mp:{nec},{k}")
        add(_imp(_box(hi, phi), _box(lo, phi)), "axiom:UM3",
            {"gamma": str(hi), "delta": str(lo), "phi": render(phi)})
        add(_iff(_dia(e, phi), ("not", _box(e, ("not", phi)))), "axiom:D")
        add(_box(e, phi), f"nec:{p}:{e}", theorem=False)
    return lines, theorems
