"""The action of symmetry elements and groups on the board set.

A symmetry element (x, rel) sends board B to the board whose cell x(i)
holds rel(B[i]): cells move first, values are renamed second.  With the
right-factor-first composition convention this is a left action:
apply(a * b, board) == apply(a, apply(b, board)).

Orbits are labeled on a quotient.  The relabel-only kernel
K = {sigma : (1, sigma) in G}, which G keeps from its closure, is normal
in G, and relabelings act freely, so the K-orbits are blocks of |K| boards
each (for K = S4, the 12 value nests) and G's orbits are the components
of its generators acting on those blocks; generators in K fix every block
and are skipped.  One pass, for every kernel, labels each board with its
block's component and sizes each orbit, |K| boards per block it counts; a
group is complete iff its orbits are the full group's, and an orbit count
alone is burnside.burnside_orbit_count's, which labels nothing.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Hashable, Iterable, NamedTuple

from .board import Board, board_number, enumerate_all
from .group import (
    RELABELINGS, SymmetryGroup, _kernel_blocks, element_number, factor_tables, full_group, image
)
from .perm import Perm, SymmetryElement, apply_values, perm_label, standard_name
from .unionfind import components, graph_components


def apply(e: SymmetryElement, b: Board) -> Board:
    """Act on a board: move cells by e.pos, then rename values by e.rel."""
    return Board(apply_values(e, b.values))


def position_apply(x: Perm, values: tuple[int, ...]) -> tuple[int, ...]:
    """Apply a bare cell permutation (no relabeling)."""
    return apply_values(SymmetryElement.from_position(x), values)


def is_position_symmetry(x: Perm) -> bool:
    """True iff x maps every valid board to a valid board, that is, x is
    one of the 128 elements of H4.  A predicate only: group.element_number
    is what rejects a cell permutation outside H4."""
    return x in factor_tables()[0].numbers


class OrbitPartition(NamedTuple):
    """Partition of the 288 boards into orbits: labels[k] is the index of
    board k's orbit, orbits numbered by their smallest board, orbit_sizes[c]
    orbit c's board count; two partitions are equal iff their labels are.
    blocks groups the boards by label, each orbit's in board order."""

    labels: tuple[int, ...]
    orbit_sizes: tuple[int, ...]

    @property
    def blocks(self) -> tuple[tuple[Board, ...], ...]:
        blocks = [[] for _ in self.orbit_sizes]
        for b, c in zip(enumerate_all(), self.labels):
            blocks[c].append(b)
        return tuple(map(tuple, blocks))

    @property
    def block_count(self) -> int:
        return len(self.orbit_sizes)

    def sizes(self) -> tuple[int, ...]:
        return self.orbit_sizes

    def block_of(self, b: Board) -> int:
        """Index of the block holding b; ValueError unless b is a valid board."""
        return self.labels[board_number(b)]


@lru_cache(maxsize=1)
def _orbits(generators: tuple[int, ...], kernel: frozenset[int]) -> OrbitPartition:
    """The orbits of the group with these generator numbers and kernel K:
    each board labeled with its K-block's component under the generators
    with a position part, and each orbit sized, |K| boards per block.  The
    last partition is kept, for is_complete right after orbits; keyed by
    generators and kernel, not the group, it does not keep the group alive."""
    label, count, smallest, _ = _kernel_blocks(kernel)
    position, relabel = factor_tables()
    maps = [
        itemgetter(*itemgetter(*smallest(position.images[p]))(relabel.images[r]))(label)
        for p, r in (divmod(n, RELABELINGS) for n in generators if n >= RELABELINGS)
    ]
    labels, counts = components(count, maps)
    return OrbitPartition(itemgetter(*label)(labels), tuple(c * len(kernel) for c in counts))


def orbits(g: SymmetryGroup) -> OrbitPartition:
    """Orbit partition of the 288 boards under g, labeled on its
    relabel-kernel blocks (_orbits)."""
    return _orbits(g.generator_numbers, g.kernel)


@lru_cache(maxsize=1)
def full_partition() -> OrbitPartition:
    """Orbit partition of the full symmetry group: the Type 1 / Type 2 split."""
    return orbits(full_group())


def is_complete(g: SymmetryGroup) -> bool:
    """True iff g induces the same action as the full group, that is,
    has the same orbits."""
    return orbits(g) == full_partition()


class Edge(NamedTuple):
    """One generator move src -> dst, undirected for an involution.

    `aux` is the symmetry a nest graph needs to return the moved
    representative to canonical form: a relabeling on position-generator
    edges, a position symmetry on relabeling-generator edges; None when
    no correction is needed.
    """

    src: Hashable
    dst: Hashable
    label: str
    directed: bool
    aux: Perm | None = None


class Graph(NamedTuple):
    """Labeled multigraph of generator moves: one edge per (node,
    generator) pair, self-loops included, listed generator by generator."""

    nodes: tuple[Hashable, ...]
    edges: tuple[Edge, ...]

    def components(self) -> list[list]:
        return graph_components(self.nodes, [(e.src, e.dst) for e in self.edges])

    @property
    def component_count(self) -> int:
        return len(self.components())


def orbit_graph(gens: Iterable[SymmetryElement]) -> Graph:
    """Graph with one node per board and one edge per (board, generator),
    read off the generator's board image and labeled element_label(g);
    a generator outside H4 x S4 raises element_number's ValueError."""
    boards = enumerate_all()
    edges = []
    for e in gens:
        label, directed = element_label(e), not (e * e).is_identity
        moved = image(element_number(e))
        edges.extend(Edge(b, boards[k], label, directed) for b, k in zip(boards, moved))
    return Graph(boards, tuple(edges))


def element_label(e: SymmetryElement) -> str:
    """Default edge label: perm_label of a relabel-only element or of a
    standard position generator, the full pos/rel form otherwise."""
    if e.pos.is_identity:
        return perm_label(e.rel)
    name = standard_name(e.pos) if e.rel.is_identity else None
    return name or str(e)
