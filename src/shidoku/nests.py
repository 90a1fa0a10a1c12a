"""Nests: board orbits under one symmetry factor, and the quotient graphs
induced on them by the other factor.

The nests are the factor groups' orbits, labeled by the pinned
representative each holds: twelve relabeling-orbits A-L, whose
canonical forms have the upper-left block 1,2 / 3,4, and six position
orbits a-f (in lexicographic order), whose canonical forms have 1s on
cells 1, 7, 10, 16, the cell-6 value <= the cell-11 value, and the cell-2
value < the cell-5 value.  The canonicalizers check those forms.  A
nest-graph edge's aux, back to its nest's representative, is read off
the relabel board images (S4) or h4_canonicalize_with_transform (H4),
which runs once per board (_h4_transform).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .board import Board, block_of, board_numbers, coords, enumerate_all
from .perm import Perm, SymmetryElement, gen_r2, gen_t, grid_perm, perm_label
from .group import SymmetryGroup, element_number, factor_tables, image, position_group, relabel_group
from .action import Edge, Graph, apply_values, full_partition, orbits, position_apply

#: Canonical representatives of the twelve relabeling-orbits (S4-nests).
S4_REPRESENTATIVES: dict[str, str] = {
    "A": "1234341241232341",
    "B": "1234341221434321",
    "C": "1243341221344321",
    "D": "1243342141322314",
    "E": "1234342121434312",
    "F": "1243342121344312",
    "G": "1234341243212143",
    "H": "1243341243212134",
    "I": "1234341223414123",
    "J": "1234342143122143",
    "K": "1243342143122134",
    "L": "1243342123144132",
}

#: Canonical representatives of the six position-orbits (H4-nests).
H4_REPRESENTATIVES: dict[str, str] = {
    "a": "1234341221434321",
    "b": "1234431221433421",
    "c": "1243431221343421",
    "d": "1324421331422431",
    "e": "1342421321343421",
    "f": "1342421331242431",
}

class Nest(NamedTuple):
    label: str
    representative: Board
    members: tuple[Board, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class NestGraph(NamedTuple):
    """A quotient graph whose nodes are the labels of its nests: a Graph
    that also holds the nests."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    nests: tuple[Nest, ...]

    components = Graph.components
    component_count = Graph.component_count

    def nest(self, label: str) -> Nest:
        for n in self.nests:
            if n.label == label:
                return n
        raise KeyError(label)


def s4_canonicalize(b: Board) -> Board:
    """The unique relabeling of b whose upper-left block reads 1,2 / 3,4."""
    image = [0] * 4
    for cell, target in ((1, 1), (2, 2), (5, 3), (6, 4)):
        image[b.value_at(cell) - 1] = target
    return Board(apply_values(SymmetryElement.from_relabeling(Perm(tuple(image))), b.values))


def _ones_configuration_transform(b: Board) -> Perm:
    """Band-preserving row/column swaps moving b's 1s to cells 1, 7, 10, 16."""
    by_block: dict[int, tuple[int, int]] = {}
    for cell in b.cells_with(1):
        by_block[block_of(cell)] = coords(cell)
    if sorted(by_block) != [1, 2, 3, 4]:
        raise ValueError("board has no one-per-block configuration of 1s")
    (r1, c1), (r2, c2), (r3, c3), (r4, c4) = (by_block[k] for k in (1, 2, 3, 4))
    row_image = [0] * 4
    for row, target in ((r1, 1), (r2, 2), (r3, 3), (r4, 4)):
        row_image[row - 1] = target
    col_image = [0] * 4
    for col, target in ((c1, 1), (c3, 2), (c2, 3), (c4, 4)):
        col_image[col - 1] = target
    return grid_perm(Perm(tuple(row_image)), Perm(tuple(col_image)))


def h4_canonicalize_with_transform(b: Board) -> tuple[Board, Perm]:
    """(canonical board, x) where x is the position symmetry applied.

    Constructive: row/column swaps place the 1s on cells 1, 7, 10, 16,
    a half-turn then forces value(cell 6) <= value(cell 11), and a
    transpose forces value(cell 2) < value(cell 5).  Each step preserves
    what the previous steps established.
    """
    transform = _ones_configuration_transform(b)
    values = position_apply(transform, b.values)
    if values[5] > values[10]:
        transform = gen_r2() * transform
        values = position_apply(gen_r2(), values)
    if values[1] > values[4]:
        transform = gen_t() * transform
        values = position_apply(gen_t(), values)
    return Board(values), transform


@lru_cache(maxsize=288)
def _h4_transform(k: int) -> Perm:
    """The position symmetry taking board number k to its canonical form;
    keyed by the number, so one entry per board."""
    return h4_canonicalize_with_transform(enumerate_all()[k])[1]


def h4_canonicalize(b: Board) -> Board:
    """Canonical representative of b's position-orbit."""
    return h4_canonicalize_with_transform(b)[0]


def _nests(
    group: SymmetryGroup, canonical: Callable[[Board], Board], table: dict[str, str], what: str
) -> tuple[Nest, ...]:
    """group's orbits, each labeled by the one representative from the
    pinned table it holds, which must be its own canonical form."""
    labels = {Board.from_text(text): label for label, text in table.items()}
    blocks = orbits(group).blocks
    reps = [[b for b in block if b in labels] for block in blocks]
    if len(blocks) != len(table) or any(len(r) != 1 or canonical(r[0]) != r[0] for r in reps):
        raise AssertionError(f"computed {what}-orbit representatives changed")
    nests = (Nest(labels[rep], rep, block) for [rep], block in zip(reps, blocks))
    return tuple(sorted(nests, key=lambda n: n.label))


@lru_cache(maxsize=1)
def s4_nests() -> tuple[Nest, ...]:
    """The twelve relabeling-orbits, labeled A-L by S4_REPRESENTATIVES,
    each of size 24."""
    return _nests(relabel_group(), s4_canonicalize, S4_REPRESENTATIVES, "relabeling")


@lru_cache(maxsize=1)
def h4_nests() -> tuple[Nest, ...]:
    """The six position-orbits, labeled a-f by H4_REPRESENTATIVES (which
    follow lexicographic order of the representatives)."""
    return _nests(position_group(), h4_canonicalize, H4_REPRESENTATIVES, "position")


def s4_nest_of(b: Board) -> str:
    """The label of the value nest holding b."""
    for n in s4_nests():
        if b in n.members:
            return n.label
    raise ValueError(f"not a valid Shidoku board: {b.text}")


def _named(gens: Iterable, degree: int) -> tuple[tuple[str, Perm], ...]:
    """Normalize generators to (name, perm) pairs of the wanted degree."""
    named = tuple((perm_label(g), g) if isinstance(g, Perm) else (g[0], g[1]) for g in gens)
    for name, p in named:
        if p.degree != degree:
            raise ValueError(f"generator {name!r} has degree {p.degree}, want {degree}")
    return named


def _nest_graph(
    gens: Iterable,
    degree: int,
    nests: tuple[Nest, ...],
    element: Callable[[Perm], SymmetryElement],
    correction: Callable[[int, Nest], Perm],
) -> NestGraph:
    """Induced action of one factor's generators on the other factor's
    nests: each representative moves by element(g)'s board image to a
    board k in nest n; correction(k, n), returning k to n's representative,
    is the edge's aux.  element_number rejects a generator outside H4 x S4."""
    numbers = board_numbers()
    nest_of = {numbers[b.values]: n for n in nests for b in n.members}
    edges = []
    for name, g in _named(gens, degree):
        directed = not (g * g).is_identity
        moved = image(element_number(element(g)))
        for n in nests:
            k = moved[numbers[n.representative.values]]
            fix = correction(k, nest_of[k])
            aux = None if fix.is_identity else fix
            edges.append(Edge(n.label, nest_of[k].label, name, directed, aux))
    return NestGraph(tuple(n.label for n in nests), tuple(edges), nests)


def _s4_correction(k: int, nest: Nest) -> Perm:
    """The relabeling whose board image sends board k to nest's
    representative; relabelings act freely, so there is one."""
    relabel, rep = factor_tables()[1], board_numbers()[nest.representative.values]
    return next(p for p, moved in zip(relabel.elements, relabel.images) if moved[k] == rep)


def s4_nest_graph(gens: Iterable) -> NestGraph:
    """Induced action of position generators on the twelve value nests.

    Each edge records the relabeling needed to return the moved
    representative to canonical form.
    """
    return _nest_graph(gens, 16, s4_nests(), SymmetryElement.from_position, _s4_correction)


def h4_nest_graph(gens: Iterable) -> NestGraph:
    """Induced action of relabeling generators on the six position nests.

    Each edge records the position symmetry needed to return the moved
    representative to canonical form.
    """
    return _nest_graph(
        gens, 4, h4_nests(), SymmetryElement.from_relabeling, lambda k, _: _h4_transform(k)
    )


def completeness_via_nests(gens: Iterable) -> bool:
    """Completeness read off a nest graph.

    Degree-16 generators are taken as position generators acting on the
    value nests (testing <gens> x all-relabelings); degree-4 generators
    act on the position nests (testing all-position-symmetries x <gens>).
    True iff the graph has exactly two components whose member unions are
    the Type 1 and Type 2 classes.
    """
    gens = list(gens)
    if not gens:
        return False
    degrees = {g.degree if isinstance(g, Perm) else g[1].degree for g in gens}
    if degrees == {16}:
        graph = s4_nest_graph(gens)
    elif degrees == {4}:
        graph = h4_nest_graph(gens)
    else:
        raise ValueError("generators must be all degree 16 or all degree 4")
    unions = {
        frozenset(b for label in comp for b in graph.nest(label).members)
        for comp in graph.components()
    }
    full = {frozenset(block) for block in full_partition().blocks}
    return unions == full
