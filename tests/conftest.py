from fractions import Fraction
from itertools import combinations, permutations

import pytest

from discrepancy import Graph

F = Fraction

# The 11 isomorphism classes of simple graphs on 4 vertices, by edge count.
GRAPHS_N4 = {
    "empty": [],
    "one-edge": [(1, 2)],
    "matching": [(1, 2), (3, 4)],
    "path3+iso": [(1, 2), (1, 3)],
    "star": [(1, 2), (1, 3), (1, 4)],
    "path4": [(1, 2), (2, 3), (3, 4)],
    "triangle+iso": [(1, 2), (1, 3), (2, 3)],
    "C4": [(1, 2), (2, 3), (3, 4), (1, 4)],
    "paw": [(1, 2), (1, 3), (2, 3), (1, 4)],
    "diamond": [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)],
    "K4": [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
}

GRAPHS_N3 = {
    "empty": [],
    "one-edge": [(1, 2)],
    "path": [(1, 2), (2, 3)],
    "triangle": [(1, 2), (2, 3), (1, 3)],
}

GRAPHS_N2 = {
    "empty": [],
    "edge": [(1, 2)],
}


def _classes_on(n):
    """One edge list per isomorphism class of simple graphs on n vertices,
    by brute force over all edge subsets as bitmasks.  Masks are visited in
    increasing order; an unseen mask starts a new class, and its images under
    every vertex relabelling are marked seen, so each class is represented
    by its smallest mask.  Ordered by edge count, then edge list."""
    pairs = list(combinations(range(1, n + 1), 2))
    bit = {e: 1 << i for i, e in enumerate(pairs)}
    seen, classes = set(), []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        edges = [e for e in pairs if mask & bit[e]]
        classes.append(edges)
        for perm in permutations(range(1, n + 1)):
            seen.add(sum(bit[tuple(sorted((perm[u - 1], perm[v - 1])))] for u, v in edges))
    return sorted(classes, key=lambda edges: (len(edges), edges))


# The 34 isomorphism classes of simple graphs on 5 vertices.
GRAPHS_N5 = {f"e{len(e)}-{i}": e for i, e in enumerate(_classes_on(5))}
assert len(GRAPHS_N5) == 34


def graphs_up_to(n):
    """(name, Graph) pairs for every isomorphism class with <= n vertices."""
    out = []
    if n >= 2:
        out += [(f"n2-{name}", Graph.make(2, e)) for name, e in GRAPHS_N2.items()]
    if n >= 3:
        out += [(f"n3-{name}", Graph.make(3, e)) for name, e in GRAPHS_N3.items()]
    if n >= 4:
        out += [(f"n4-{name}", Graph.make(4, e)) for name, e in GRAPHS_N4.items()]
    if n >= 5:
        out += [(f"n5-{name}", Graph.make(5, e)) for name, e in GRAPHS_N5.items()]
    return out


@pytest.fixture
def k3():
    return Graph.make(3, [(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def single_edge():
    return Graph.make(2, [(1, 2)])


@pytest.fixture
def empty2():
    return Graph.make(2, [])
