"""Connected components: components labels each node of int maps with its
block, breadth-first, counting each block's nodes; graph_components groups by it.
UnionFind (canonical minimum representatives) has one user: bench/tracing.py.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)


class UnionFind:
    def __init__(self, items: Iterable[T]):
        self.parent: dict[T, T] = {x: x for x in items}

    def find(self, x: T) -> T:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: T, y: T) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        # keep the smaller item as root so blocks get canonical reps
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx

    def blocks(self) -> list[list[T]]:
        """Blocks sorted by representative, members sorted within."""
        grouped: dict[T, list[T]] = {}
        for x in self.parent:
            grouped.setdefault(self.find(x), []).append(x)
        return [sorted(grouped[rep]) for rep in sorted(grouped)]


def components(size: int, maps: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Each node of range(size) labeled with its block under the maps,
    blocks numbered by their smallest node, and each block's node count.
    Every map must be a permutation of range(size): its inverse is one of
    its powers, so edges k -> m[k] followed forward reach k's whole block."""
    label = [-1] * size
    counts: list[int] = []
    for start in range(size):
        if label[start] < 0:
            count = label[start] = len(counts)
            block = [start]
            for k in block:
                for m in maps:
                    if label[j := m[k]] < 0:
                        label[j] = count
                        block.append(j)
            counts.append(len(block))
    return label, counts


def graph_components(nodes: Iterable[T], edges: Sequence[tuple[T, T]]) -> list[list[T]]:
    """Components of a graph with one edge per (node, generator), listed
    generator by generator: each run of len(nodes) (src, dst) pairs is a
    permutation of the nodes.  Blocks and their members are in node order.
    Raises ValueError on an edge count that is not a multiple of
    len(nodes), on an endpoint that is not a node, or on a run that does
    not name every node once as a source and once as a target."""
    order = sorted(nodes)
    index = {x: k for k, x in enumerate(order)}
    n = len(order)
    maps = [[-1] * n for _ in range(0, len(edges), n or 1)]
    if n * len(maps) != len(edges):
        raise ValueError(f"{len(edges)} edges are not runs of {n} nodes")
    try:
        for i, (x, y) in enumerate(edges):
            maps[i // n][index[x]] = index[y]
    except KeyError as missing:
        raise ValueError(f"edge endpoint {missing.args[0]!r} is not a node") from None
    identity = list(range(n))
    for k, m in enumerate(maps, start=1):
        if sorted(m) != identity:
            raise ValueError(f"edge run {k} does not name each node once as source and target")
    label, counts = components(n, maps)
    blocks: list[list[T]] = [[] for _ in counts]
    for x, c in zip(order, label):
        blocks[c].append(x)
    return blocks
