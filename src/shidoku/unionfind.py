"""Union-find with canonical minimum representatives.

Representatives are the minimum of each block, so the resulting partition
is independent of union order.
"""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

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


def components(items: Iterable[T], pairs: Iterable[tuple[T, T]]) -> list[list[T]]:
    """Blocks of the finest partition of items that joins every pair,
    sorted as UnionFind.blocks sorts them."""
    uf = UnionFind(items)
    for x, y in pairs:
        uf.union(x, y)
    return uf.blocks()
