"""Ball trees and their DOT text, against the writer they replaced.

``ref_tree_balls``, ``ref_ball_tree`` and ``ref_dot`` restate the earlier
code: the runs of leaves found with a stack of pair indexes, each ball's
member names sorted by point index, the balls sorted by (size, members),
one ``Node`` each, and the labels formatted and escaped one by one.
The DOT writer now walks each point up its chain of balls and sorts the
balls by (size, name of the least-index point); the two must agree byte
for byte wherever no name holds a backslash, which the earlier writer
left unescaped.  ``dot_tree`` reads the tree back from the DOT text, so
the shape of the tree ``dot`` draws is checked on its own too.
"""
import random
import re
from fractions import Fraction
from typing import NamedTuple

import pytest

from umlogic.constructions import disjoint_union, epsilon_subspace
from umlogic.dendrogram import dendrogram_dot
from umlogic.generators import random_ultrametric_space
from umlogic.space import Model, UltrametricSpace, cantor_space, required_tree


class Node(NamedTuple):
    """One distinct ball: its members in point order, its diameter and its parent's place."""

    members: tuple[str, ...]
    radius: Fraction
    parent: int | None


def ref_tree_balls(space):
    """(start, end, rank, parent) of each run of leaves, as the stack of open pairs found them."""
    heights, n = space.tree[1].tolist(), space.n
    runs, run_of, open_pairs = [], [0] * len(heights), []
    for k, height in enumerate(heights):
        while open_pairs and heights[open_pairs[-1]] < height:
            runs[run_of[open_pairs.pop()]][1] = k + 1
        if open_pairs and heights[open_pairs[-1]] == height:
            run_of[k] = run_of[open_pairs[-1]]
            open_pairs[-1] = k
        else:
            run_of[k] = len(runs)
            runs.append([open_pairs[-1] + 1 if open_pairs else 0, n, height])
            open_pairs.append(k)
    runs += ([p, p + 1, 0] for p in range(n)
             if not (p and not heights[p - 1] or p < n - 1 and not heights[p]))
    balls = []
    for start, end, rank in runs:
        if not start and end == n:
            parent = None
        elif end == n or start and heights[start - 1] <= heights[end - 1]:
            parent = run_of[start - 1]
        else:
            parent = run_of[end - 1]
        balls.append((start, end, rank, parent))
    return balls


def ref_ball_tree(space):
    leaves = required_tree(space)[0].tolist()
    points, distances = space.points, space.realized_distances()
    balls = []
    for j, (start, end, rank, parent) in enumerate(ref_tree_balls(space)):
        names = tuple(map(points.__getitem__, sorted(leaves[start:end])))
        balls.append((len(names), names, j, rank, parent))
    balls.sort()
    place = [0] * len(balls)
    for i, ball in enumerate(balls):
        place[ball[2]] = i
    return [Node(names, distances[rank], None if parent is None else place[parent])
            for _, names, _, rank, parent in balls]


def ref_dot(space):
    nodes = ref_ball_tree(space)
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


def renamed(space, names):
    """The space with its points renamed, point for point, and its tree kept."""
    return UltrametricSpace.from_tree(names, space.realized_distances(), *space.tree)


def matrix_space(rng, n):
    """A generated table read back as a matrix, so its tree is Prim's, with its points shuffled."""
    space = random_ultrametric_space(rng, n)
    order = rng.sample(range(n), n)
    rows = [space.row(i) for i in order]
    distances = space.realized_distances()
    return UltrametricSpace([space.points[i] for i in order],
                            [[distances[r] for r in rows[a][order].tolist()] for a in range(n)])


def differential_spaces():
    rng = random.Random(18)
    spaces = [(f"cantor-{d}", cantor_space(d)) for d in range(1, 9)]
    spaces += [(f"generated-{seed}", random_ultrametric_space(random.Random(seed), 1 + seed % 23))
               for seed in range(50)]
    spaces += [(f"matrix-{k}", matrix_space(rng, n)) for k, n in enumerate((5, 9, 14, 20, 31))]
    twins = [format(rng.randrange(8), "03b") for _ in range(24)]
    names = [f"t{i}" for i in range(24)]
    spaces.append(("twins", UltrametricSpace.from_sequences(names, dict(zip(names, twins)))))
    spaces.append(("twin-table", UltrametricSpace(list("abcd"), [[0, 0, 1, 1], [0, 0, 1, 1],
                                                                 [1, 1, 0, 0], [1, 1, 0, 0]])))
    parts = [Model(random_ultrametric_space(rng, n, prefix=f"c{n}_")) for n in (3, 12, 1, 7)]
    spaces.append(("union", disjoint_union(parts).space))
    spaces.append(("union-of-cantor", disjoint_union([Model(cantor_space(3)), Model(cantor_space(2))]).space))
    big = Model(cantor_space(6))
    spaces += [(f"ball-{eps}", epsilon_subspace(big, "101101", Fraction(1, eps)).space) for eps in (2, 8, 64)]
    spaces.append(("ball-of-union", epsilon_subspace(disjoint_union(parts), "1:c12_3", Fraction(1)).space))
    # Text order against index order: "w10" < "w2", reversed and shuffled names, and quotes.
    spaces.append(("names-w", renamed(cantor_space(5), [f"w{i}" for i in range(32)])))
    spaces.append(("names-reversed", renamed(cantor_space(4), [f"p{i:02d}" for i in range(16)][::-1])))
    spaces.append(("names-shuffled", renamed(matrix_space(rng, 17), [f"s{i}" for i in rng.sample(range(17), 17)])))
    spaces.append(("names-quoted", renamed(cantor_space(3), ['"a"', 'b"', "c d", "", "e,f", "{g}", "h=1", "'i'"])))
    spaces.append(("empty", UltrametricSpace.from_sequences([], {})))
    return spaces


DIFFERENTIAL = differential_spaces()


@pytest.mark.parametrize("label, space", DIFFERENTIAL, ids=[label for label, _ in DIFFERENTIAL])
def test_matches_the_earlier_writer(label, space):
    assert space.tree is not None
    assert space.tree_balls() == ref_tree_balls(space)
    assert dendrogram_dot(space) == ref_dot(space)


def test_the_cases_cover_leaf_orders_that_are_not_point_order():
    spaces = dict(DIFFERENTIAL)
    for label in ("matrix-2", "union", "names-shuffled", "ball-8"):
        leaves = spaces[label].tree[0].tolist()
        assert leaves != sorted(leaves), label
    assert any(end - start > 1 and not rank for start, end, rank, _ in ref_tree_balls(spaces["twins"]))
    assert sorted(spaces["names-w"].points) != list(spaces["names-w"].points)


QUOTED = re.compile(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)"\];\n', re.DOTALL)
EDGE = re.compile(r"  n(\d+) -> n(\d+);\n")


def read_labels(text):
    """Each node's label, read as DOT reads a quoted string: ``\\"`` is a quote and ``\\\\`` a backslash."""
    labels = [(int(node), re.sub(r'\\(["\\])', r"\1", body)) for node, body in QUOTED.findall(text)]
    assert [node for node, _ in labels] == list(range(len(labels)))
    return [label for _, label in labels]


def dot_tree(space):
    """The nodes ``dendrogram_dot`` draws, read back from its text; no name may hold a comma or ``"} r="``."""
    text = dendrogram_dot(space)
    parents = {int(child): int(parent) for parent, child in EDGE.findall(text)}
    nodes = []
    for k, label in enumerate(read_labels(text)):
        members, radius = label[1:].split("} r=") if label.startswith("{") else (label, "0")
        nodes.append(Node(tuple(members.split(",")), Fraction(radius), parents.get(k)))
    return nodes


def test_names_with_backslashes_quotes_and_newlines_are_escaped():
    names = ["a\\", 'b"', "c\nd", '\\"', "e\\\\f", 'g\\"h', "plain", 'q"\\']
    space = renamed(cantor_space(3), names)
    text = dendrogram_dot(space)
    expected = [node.members[0] if len(node.members) == 1 else
                "{" + ",".join(node.members) + "} r=" + str(node.radius) for node in ref_ball_tree(space)]
    assert read_labels(text) == expected
    assert text.endswith("}\n") and text.count(" -> ") == len(expected) - 1
    # Without a backslash, the text is the earlier writer's.
    plain = renamed(cantor_space(3), [name.replace("\\", "/") for name in names])
    assert dendrogram_dot(plain) == ref_dot(plain)


class TestBallTree:
    """The tree of balls as ``dot`` draws it."""

    def test_depth2_has_three_levels_and_four_leaves(self):
        nodes = dot_tree(cantor_space(2))
        assert len(nodes) == 7
        leaves = [n for n in nodes if len(n.members) == 1]
        assert len(leaves) == 4
        assert {n.radius for n in nodes} == {Fraction(0), Fraction(1, 4), Fraction(1, 2)}

    def test_single_point(self):
        nodes = dot_tree(UltrametricSpace(["only"], [[0]]))
        assert len(nodes) == 1
        assert nodes[0].parent is None

    def test_depth3_is_the_full_binary_hierarchy(self):
        nodes = dot_tree(cantor_space(3))
        assert len(nodes) == 15
        by_size = {}
        for n in nodes:
            by_size.setdefault(len(n.members), []).append(n)
        assert {size: len(ns) for size, ns in by_size.items()} == {1: 8, 2: 4, 4: 2, 8: 1}
        # Every internal node has exactly two children: the event tree branches binarily.
        children = {}
        for i, n in enumerate(nodes):
            if n.parent is not None:
                children.setdefault(n.parent, []).append(i)
        for i, n in enumerate(nodes):
            if len(n.members) > 1:
                assert len(children[i]) == 2

    def test_parents_are_immediate_supersets(self):
        rng = random.Random(51)
        for _ in range(10):
            space = random_ultrametric_space(rng, 7)
            nodes = dot_tree(space)
            root = max(nodes, key=lambda n: len(n.members))
            for i, n in enumerate(nodes):
                if n.parent is None:
                    assert set(n.members) == set(root.members)
                else:
                    parent = nodes[n.parent]
                    assert set(n.members) < set(parent.members)
                    # no ball strictly between child and parent
                    for other in nodes:
                        if set(n.members) < set(other.members) < set(parent.members):
                            raise AssertionError("containment edge is not immediate")


class TestDot:
    def test_deterministic(self):
        s = cantor_space(2)
        assert dendrogram_dot(s) == dendrogram_dot(s)

    def test_depth2_shape(self):
        text = dendrogram_dot(cantor_space(2))
        assert text.startswith("digraph balls {")
        assert text.count("->") == 6
        assert '[label="11"]' in text
        assert '[label="{11,10} r=1/4"]' in text
        assert '[label="{11,10,01,00} r=1/2"]' in text

    def test_single_point_has_no_edges(self):
        text = dendrogram_dot(UltrametricSpace(["w"], [[0]]))
        assert "->" not in text
