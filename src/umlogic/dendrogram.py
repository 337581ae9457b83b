"""Dendrogram of ball nesting, with DOT export.

In a valid ultrametric space any two intersecting balls are nested, so
the distinct closed balls form a tree under containment: singletons at
the leaves, the whole space at the root, one layer per realized radius.
Every space that satisfies the laws up to identity of indiscernibles is
held as that tree already: its balls are runs of leaves, each with its
parent, as :meth:`UltrametricSpace.tree_balls` lists them, so no ball is
searched for.  A space that breaks another law has no such tree, because
its balls can overlap without nesting, and raises ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .space import UltrametricSpace, required_tree


@dataclass(frozen=True)
class BallNode:
    """One distinct ball: its members in point order and its diameter."""

    members: tuple[str, ...]
    radius: Fraction
    parent: int | None


def ball_tree(space: UltrametricSpace) -> list[BallNode]:
    """All distinct closed balls as a containment tree, from the space's runs of leaves and their nesting.

    Nodes are sorted by (size, members); each node's radius is the set's
    diameter, the smallest radius generating it.  The parent is the index
    of the smallest strictly larger ball.  A space without a tree raises
    ValueError.
    """
    leaves = required_tree(space)[0].tolist()
    points, distances = space.points, space.realized_distances()
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
