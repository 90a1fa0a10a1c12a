"""Nests: board orbits under one symmetry factor, and the quotient graphs
induced on them by the other factor.

The nests are the factor groups' orbits, labeled by the pinned
representative each holds: twelve relabeling-orbits A-L, whose
canonical forms have the upper-left block 1,2 / 3,4, and six position
orbits a-f (in lexicographic order), whose canonical forms have 1s on
cells 1, 7, 10, 16, the cell-6 value <= the cell-11 value, and the cell-2
value < the cell-5 value.  A nest-graph edge follows one rule for both
factors: the generator moves a nest's representative to a board, the
edge's target is the nest represented by that board's canonical form,
and its aux is the transform the canonicalizer applied, run once per
board (_s4_canonical, _h4_canonical).  So the graphs read the
canonicalizers and not the orbits' tables; the tests check the two
against each other.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .board import Board, block_of, board_numbers, coords, enumerate_all
from .perm import Perm, SymmetryElement, gen_r2, gen_t, grid_perm, perm_label
from .group import SymmetryGroup, element_number, image, position_group, relabel_group
from .action import Edge, Graph, apply_values, orbits, position_apply

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


def s4_canonicalize_with_transform(b: Board) -> tuple[Board, Perm]:
    """(canonical board, sigma) where sigma is the relabeling applied, the
    one making the upper-left block read 1,2 / 3,4.  ValueError unless
    that block holds the values 1-4."""
    block = b.values[0:2] + b.values[4:6]
    if sorted(block) != [1, 2, 3, 4]:
        raise ValueError(f"upper-left block of {b.text} does not hold the values 1-4")
    sigma = Perm(block).inverse()
    return Board(apply_values(SymmetryElement.from_relabeling(sigma), b.values)), sigma


@lru_cache(maxsize=288)
def _s4_canonical(k: int) -> tuple[Board, Perm]:
    """s4_canonicalize_with_transform of board number k, once per board."""
    return s4_canonicalize_with_transform(enumerate_all()[k])


def s4_canonicalize(b: Board) -> Board:
    """The unique relabeling of b whose upper-left block reads 1,2 / 3,4."""
    return s4_canonicalize_with_transform(b)[0]


def _ones_configuration_transform(b: Board) -> Perm:
    """Band-preserving row/column swaps moving b's 1s to cells 1, 7, 10, 16."""
    by_block: dict[int, tuple[int, int]] = {}
    for cell in b.cells_with(1):
        by_block[block_of(cell)] = coords(cell)
    if sorted(by_block) != [1, 2, 3, 4]:
        raise ValueError("board has no one-per-block configuration of 1s")
    (r1, c1), (r2, c2), (r3, c3), (r4, c4) = (by_block[k] for k in (1, 2, 3, 4))
    # row r_i goes to row i, and column c1, c3, c2, c4 to column 1, 2, 3, 4
    return grid_perm(Perm((r1, r2, r3, r4)).inverse(), Perm((c1, c3, c2, c4)).inverse())


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
def _h4_canonical(k: int) -> tuple[Board, Perm]:
    """h4_canonicalize_with_transform of board number k, once per board."""
    return h4_canonicalize_with_transform(enumerate_all()[k])


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
    """The label of the value nest holding b: that of its canonical form."""
    if (k := board_numbers().get(b.values)) is None:
        raise ValueError(f"not a valid Shidoku board: {b.text}")
    form = _s4_canonical(k)[0]
    return next(n.label for n in s4_nests() if n.representative == form)


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
    factor_nests: Callable[[], tuple[Nest, ...]],
    element: Callable[[Perm], SymmetryElement],
    canonical: Callable[[int], tuple[Board, Perm]],
) -> NestGraph:
    """Induced action of one factor's generators on the other factor's
    nests, factor_nests(): each representative moves by element(g)'s
    board image to a board k, and canonical(k) = (form, fix) gives the
    edge's target, the nest that form represents, and its aux, fix.
    element_number rejects a generator outside H4 x S4."""
    nests = factor_nests()
    reps = [board_numbers()[n.representative.values] for n in nests]
    label = {n.representative: n.label for n in nests}
    edges = []
    for name, g in _named(gens, degree):
        directed = not (g * g).is_identity
        moved = image(element_number(element(g)))
        for n, rep in zip(nests, reps):
            form, fix = canonical(moved[rep])
            aux = None if fix.is_identity else fix
            edges.append(Edge(n.label, label[form], name, directed, aux))
    return NestGraph(tuple(n.label for n in nests), tuple(edges), nests)


def s4_nest_graph(gens: Iterable) -> NestGraph:
    """Induced action of position generators on the twelve value nests.

    Each edge records the relabeling needed to return the moved
    representative to canonical form.
    """
    return _nest_graph(gens, 16, s4_nests, SymmetryElement.from_position, _s4_canonical)


def h4_nest_graph(gens: Iterable) -> NestGraph:
    """Induced action of relabeling generators on the six position nests.

    Each edge records the position symmetry needed to return the moved
    representative to canonical form.
    """
    return _nest_graph(gens, 4, h4_nests, SymmetryElement.from_relabeling, _h4_canonical)


def completeness_via_nests(gens: Iterable) -> bool:
    """Completeness read off a nest graph.

    Degree-16 generators are taken as position generators acting on the
    value nests (testing <gens> x all-relabelings); degree-4 generators
    act on the position nests (testing all-position-symmetries x <gens>).
    True iff the graph has exactly two components: its components are
    the orbits of a subgroup of the full group, gathered into nests, so
    they refine the full group's two orbits, the Type 1 and Type 2
    classes, and two components are those classes.
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
    return len(graph.components()) == 2
