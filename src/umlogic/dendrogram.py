"""Dendrogram of ball nesting, with DOT export.

In a valid ultrametric space any two intersecting balls are nested, so
the distinct closed balls form a tree under containment: singletons at
the leaves, the whole space at the root, one layer per realized radius.
Balls travel as point bitmasks from :meth:`UltrametricSpace.distinct_balls`
and diameters come from the space's rank table.
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
    ball.  Any superset of a ball contains its first member, so the
    parent is looked up among the balls through that point only.
    """
    points = space.points
    balls = []
    for _, _, mask in space.distinct_balls():
        members = space.members(mask)
        names = tuple(points[i] for i in members.tolist())
        balls.append((len(names), names, mask, members))
    balls.sort(key=lambda ball: ball[:2])

    through: list[list[int]] = [[] for _ in points]
    for j, ball in enumerate(balls):
        for i in ball[3].tolist():
            through[i].append(j)

    ranks, distances = space.ranks, space.realized_distances()
    nodes = []
    for j, (_, names, mask, members) in enumerate(balls):
        if members.size:
            candidates = through[members[0]]
            diameter = distances[ranks[members[:, None], members].max()]
        else:
            # The empty set is a ball only when some self-distance is
            # positive; it lies inside every other ball.
            candidates, diameter = range(len(balls)), Fraction(0)
        parent = next((k for k in candidates if k != j and balls[k][2] & mask == mask), None)
        nodes.append(BallNode(names, diameter, parent))
    return nodes


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
