"""Dendrogram of ball nesting, with DOT export.

In a valid ultrametric space any two intersecting balls are nested, so
the distinct closed balls form a tree under containment: singletons at
the leaves, the whole space at the root, one layer per realized radius.
Every space that satisfies the laws up to identity of indiscernibles is
held as that tree already: its balls are runs of leaves, each with its
parent, as :meth:`UltrametricSpace.tree_balls` lists them, so no ball is
searched for.  A space that breaks another law has no such tree, because
its balls can overlap without nesting, and raises ValueError.

Nodes come in order of (size, members in point order), that is of (size,
name of the least-index point as text, ``"w10" < "w2"``), since balls of one
size are disjoint.  Each point, in index order, joins every ball up its chain,
so no ball is sorted and :func:`dendrogram_dot` costs O(n + output).
"""
from __future__ import annotations

from .space import UltrametricSpace, required_tree


def _ordered_balls(space: UltrametricSpace, names: list[str]) -> tuple[list[list[str]], list[int], list]:
    """Parallel lists in node order: each ball's members' ``names`` in point order, rank and parent's place."""
    leaves, balls = required_tree(space)[0].tolist(), space.tree_balls()
    parents = [ball[3] for ball in balls]
    # Each point's chain starts at its ball of diameter 0: the point alone, or its twins.
    smallest = {i: j for j, (start, end, rank, _) in enumerate(balls) if not rank for i in leaves[start:end]}
    members: list[list[str]] = [[] for _ in balls]
    for i, name in enumerate(names):
        j = smallest[i]
        while j is not None:
            members[j].append(name)
            j = parents[j]
    point_name = dict(zip(names, space.points))
    by_size: dict[int, list[int]] = {}
    for j in sorted(range(len(balls)), key=[point_name[held[0]] for held in members].__getitem__):
        by_size.setdefault(len(members[j]), []).append(j)
    order = [j for size in sorted(by_size) for j in by_size[size]]
    place = {j: k for k, j in enumerate(order)}
    return [members[j] for j in order], [balls[j][2] for j in order], [place.get(parents[j]) for j in order]


def dendrogram_dot(space: UltrametricSpace) -> str:
    """DOT text for the ball-nesting tree; O(n + output).

    Nodes come in the order the module docstring gives, each labelled by its
    point or by its members and diameter, the smallest radius generating it;
    each edge runs from the smallest strictly larger ball.  A space without
    a tree raises ValueError.
    """
    names = [p.replace("\\", "\\\\").replace('"', '\\"') for p in space.points]
    members, ranks, parents = _ordered_balls(space, names)
    radii = list(map(str, space.realized_distances()))
    ids = list(map(str, range(len(members))))
    nodes = (f'  n{k} [label="{held[0] if len(held) == 1 else "{" + ",".join(held) + "} r=" + radii[rank]}"];'
             for k, held, rank in zip(ids, members, ranks))
    edges = (f"  n{ids[parent]} -> n{k};" for k, parent in zip(ids, parents) if parent is not None)
    return "\n".join(["digraph balls {", *nodes, *edges, "}", ""])
