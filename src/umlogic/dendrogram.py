"""Dendrogram of ball nesting, with DOT export.

In a valid ultrametric space any two intersecting balls are nested, so
the distinct closed balls form a tree under containment: singletons at
the leaves, the whole space at the root, one layer per realized radius.
Every space that satisfies the laws up to identity of indiscernibles is
held as that tree already: its balls are runs of leaves, each with its
parent, as :meth:`UltrametricSpace.tree_balls` lists them, so no ball is
searched for.  A space that breaks a law lists its balls as point
bitmasks from :meth:`UltrametricSpace.distinct_balls`, takes diameters
from its rank table and looks each parent up among all the balls.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .space import UltrametricSpace


@dataclass(frozen=True)
class BallNode:
    """One distinct ball: its members in point order and its diameter."""

    members: tuple[str, ...]
    radius: Fraction
    parent: int | None


def ball_tree(space: UltrametricSpace) -> list[BallNode]:
    """All distinct closed balls as a containment tree.

    Nodes are sorted by (size, members); each node's radius is the
    smallest radius generating it, which for a valid space is the set's
    diameter.  The parent is the index of the smallest strictly larger
    ball.
    """
    if space.tree is not None:
        return _tree_balls(space)
    points = space.points
    balls = []
    for _, _, mask in space.distinct_balls():
        members = space.members(mask)
        names = tuple(points[i] for i in members.tolist())
        balls.append((len(names), names, mask, members))
    balls.sort(key=lambda ball: ball[:2])

    ranks, distances = space.ranks, space.realized_distances()
    nodes = []
    for j, (_, names, mask, members) in enumerate(balls):
        # The empty set is a ball only when some self-distance is positive.
        diameter = distances[ranks[members[:, None], members].max()] if members.size else Fraction(0)
        # Balls are sorted by size, so the first strict superset is a smallest one.
        parent = next((k for k, ball in enumerate(balls) if k != j and ball[2] & mask == mask), None)
        nodes.append(BallNode(names, diameter, parent))
    return nodes


def _tree_balls(space: UltrametricSpace) -> list[BallNode]:
    """:func:`ball_tree` of a tree, from its runs of leaves and their nesting."""
    points, distances, leaves = space.points, space.realized_distances(), space.tree[0].tolist()
    balls = []
    for j, (start, end, rank, parent) in enumerate(space.tree_balls()):
        names = tuple(map(points.__getitem__, sorted(leaves[start:end])))
        balls.append((len(names), names, j, rank, parent))
    # Balls of one size are disjoint, so (size, members) never ties and the rest is not compared.
    balls.sort()
    place = [0] * len(balls)
    for i, ball in enumerate(balls):
        place[ball[2]] = i
    return [BallNode(names, distances[rank], None if parent is None else place[parent])
            for _, names, _, rank, parent in balls]


def dendrogram_dot(space: UltrametricSpace) -> str:
    """DOT text for the ball-nesting tree; deterministic node order."""
    nodes = ball_tree(space)
    lines = ["digraph balls {"]
    for i, node in enumerate(nodes):
        if len(node.members) == 1:
            label = node.members[0]
        else:
            label = "{" + ",".join(node.members) + "} r=" + str(node.radius)
        label = label.replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i, node in enumerate(nodes):
        if node.parent is not None:
            lines.append(f"  n{node.parent} -> n{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
