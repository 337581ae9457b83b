"""Reference semantics written straight from the definitions, independent of umlogic.

Point sets are int bitmasks over a list of world names.  ``[g]f`` holds
at x when f holds at every y with d(x, y) <= g, and ``<g>f`` when f holds
at some such y.  Two ball geometries are provided:

* :class:`PrefixGeometry`, for binary-history (``cantor``) models: the
  distance between two histories is 2^-n for the 1-based position n of
  their first difference, so x and y lie within grade g > 0 exactly when
  they share the first m - 1 events, m the least integer with 2^-m <= g.
* :class:`TableGeometry`, for a general model: balls come from explicit
  comparisons against the distance table.
"""
from __future__ import annotations

from fractions import Fraction


class TableGeometry:
    def __init__(self, names, table):
        self.names = list(names)
        self.table = table

    def distance(self, i: int, j: int) -> Fraction:
        return self.table[i][j]

    def balls(self, g: Fraction) -> list[int]:
        return [sum(1 << j for j, d in enumerate(row) if d <= g) for row in self.table]


class PrefixGeometry:
    def __init__(self, names, histories):
        self.names = list(names)
        self.histories = list(histories)
        self.depth = len(self.histories[0])

    def distance(self, i: int, j: int) -> Fraction:
        a, b = self.histories[i], self.histories[j]
        for pos, (x, y) in enumerate(zip(a, b), start=1):
            if x != y:
                return Fraction(1, 2 ** pos)
        return Fraction(0)

    def shared_prefix(self, g: Fraction) -> int:
        """Events two worlds must share to lie within grade g."""
        if g == 0:
            return self.depth
        m = 0
        while Fraction(1, 2 ** m) > g:
            m += 1
        return min(max(m - 1, 0), self.depth)

    def balls(self, g: Fraction) -> list[int]:
        length = self.shared_prefix(g)
        groups: dict[str, int] = {}
        for i, h in enumerate(self.histories):
            groups[h[:length]] = groups.get(h[:length], 0) | 1 << i
        return [groups[h[:length]] for h in self.histories]


class Evaluator:
    """Truth sets of tuple formulas (see :mod:`gen`) on one model."""

    def __init__(self, geometry, valuation: dict[str, list[str]]):
        self.geo = geometry
        index = {name: i for i, name in enumerate(geometry.names)}
        self.atoms = {a: sum(1 << index[x] for x in members) for a, members in valuation.items()}
        self.full = (1 << len(geometry.names)) - 1
        self._balls: dict[Fraction, list[int]] = {}

    def _ball_list(self, g: Fraction) -> list[int]:
        if g not in self._balls:
            self._balls[g] = self.geo.balls(g)
        return self._balls[g]

    def mask(self, f) -> int:
        kind = f[0]
        if kind == "atom":
            return self.atoms.get(f[1], 0)
        if kind == "not":
            return self.full ^ self.mask(f[1])
        if kind in ("box", "dia"):
            inner = self.mask(f[2])
            balls = self._ball_list(f[1])
            if kind == "box":
                return sum(1 << x for x, ball in enumerate(balls) if ball & inner == ball)
            return sum(1 << x for x, ball in enumerate(balls) if ball & inner)
        left, right = self.mask(f[1]), self.mask(f[2])
        if kind == "and":
            return left & right
        if kind == "or":
            return left | right
        return (self.full ^ left) | right

    def truth_set(self, f) -> set[str]:
        m = self.mask(f)
        return {x for i, x in enumerate(self.geo.names) if m >> i & 1}

    def nearest(self, world: str, m: int) -> Fraction | None:
        """Distance from ``world`` to the nearest world in mask m, None if m is empty."""
        w = self.geo.names.index(world)
        dists = [self.geo.distance(w, i) for i in range(len(self.geo.names)) if m >> i & 1]
        return min(dists) if dists else None

    def stability(self, world: str, f) -> dict:
        """Expected ``umlogic stability`` payload: distance to the nearest falsifying world."""
        m = self.mask(f)
        if not m >> self.geo.names.index(world) & 1:
            return {"kind": "stability", "threshold": "none", "attained": False}
        if m == self.full:
            return {"kind": "stability", "threshold": "1", "attained": True}
        return {"kind": "stability", "threshold": str(self.nearest(world, self.full ^ m)),
                "attained": False}

    def plausibility(self, world: str, f) -> dict:
        """Expected ``umlogic plausibility`` payload: distance to the nearest satisfying world."""
        t = self.nearest(world, self.mask(f))
        if t is None:
            return {"kind": "plausibility", "threshold": "none", "attained": False, "level": "none"}
        return {"kind": "plausibility", "threshold": str(t), "attained": True, "level": str(1 - t)}


def core_size(f) -> int:
    """Distinct subformulas of f once or, -> and diamond are unfolded into ~, & and box."""
    seen = set()

    def core(g):
        kind = g[0]
        if kind == "atom":
            out = g
        elif kind == "not":
            out = ("not", core(g[1]))
        elif kind == "and":
            out = ("and", core(g[1]), core(g[2]))
        elif kind == "or":
            out = ("not", ("and", ("not", core(g[1])), ("not", core(g[2]))))
        elif kind == "imp":
            out = ("not", ("and", core(g[1]), ("not", core(g[2]))))
        elif kind == "box":
            out = ("box", g[1], core(g[2]))
        else:
            out = ("not", ("box", g[1], ("not", core(g[2]))))
        return out

    def walk(g):
        if g in seen:
            return
        seen.add(g)
        for part in g[1:]:
            if isinstance(part, tuple):
                walk(part)

    walk(core(f))
    return len(seen)


def check_dot(text: str, names, histories) -> str | None:
    """Compare DOT output with the prefix tree of a full binary-history model.

    A depth-d model has one ball per history prefix of length 0..d, so
    2^(d+1) - 1 balls, each joined to the ball of its prefix one event
    shorter: 2^(d+1) - 2 edges.  Returns a description of the first
    mismatch, or None.
    """
    d = len(histories[0])
    prefix_members: dict[str, frozenset[str]] = {}
    for length in range(d + 1):
        for name, h in zip(names, histories):
            prefix_members[h[:length]] = prefix_members.get(h[:length], frozenset()) | {name}
    by_members = {members: prefix for prefix, members in prefix_members.items()}

    nodes: dict[str, str] = {}
    edges = set()
    for line in text.splitlines():
        line = line.strip()
        if "[label=" in line:
            node, label = line.split(" [label=", 1)
            label = label[1:-3]
            if label.startswith("{"):
                body, radius = label.split("} r=")
                members = frozenset(body[1:].split(","))
            else:
                members, radius = frozenset([label]), None
            prefix = by_members.get(members)
            if prefix is None:
                return f"node {node} is no ball of the prefix tree"
            expected = None if len(prefix) == d else str(Fraction(1, 2 ** (len(prefix) + 1)))
            if radius != expected:
                return f"node {node} has radius {radius}, expected {expected}"
            nodes[node] = prefix
        elif "->" in line:
            parent, child = line.rstrip(";").split(" -> ")
            edges.add((parent, child))
    if len(nodes) != 2 ** (d + 1) - 1 or len(set(nodes.values())) != len(nodes):
        return f"{len(nodes)} balls, expected {2 ** (d + 1) - 1} distinct"
    if len(edges) != 2 ** (d + 1) - 2:
        return f"{len(edges)} edges, expected {2 ** (d + 1) - 2}"
    for parent, child in edges:
        if parent not in nodes or child not in nodes or nodes[child][:-1] != nodes[parent]:
            return f"edge {parent} -> {child} does not join a prefix to its extension"
    return None
