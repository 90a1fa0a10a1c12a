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
board and factor (_canonical).  A nest graph is a plain action.Graph
whose nodes are the nest labels; the nests themselves are s4_nests()'s
and h4_nests()'s.  So the graphs read the canonicalizers and not the
orbits' tables; the tests check the two against each other.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .board import Board, block_of, board_number, coords, enumerate_all
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


def s4_canonicalize_with_transform(b: Board) -> tuple[Board, Perm]:
    """(canonical board, sigma) where sigma is the relabeling applied, the
    one making the upper-left block read 1,2 / 3,4.  ValueError unless
    that block holds the values 1-4."""
    block = b.values[0:2] + b.values[4:6]
    if sorted(block) != [1, 2, 3, 4]:
        raise ValueError(f"upper-left block of {b.text} does not hold the values 1-4")
    sigma = Perm(block).inverse()
    return Board(apply_values(SymmetryElement.from_relabeling(sigma), b.values)), sigma


def s4_canonicalize(b: Board) -> Board:
    """The unique relabeling of b whose upper-left block reads 1,2 / 3,4."""
    return s4_canonicalize_with_transform(b)[0]


def _ones_configuration_transform(b: Board) -> Perm:
    """Band-preserving row/column swaps moving b's 1s to cells 1, 7, 10, 16.
    ValueError unless b holds four 1s, one per row, column and block."""
    ones = [(*coords(cell), block_of(cell)) for cell in b.cells_with(1)]
    if len(ones) != 4 or any(len(set(axis)) != 4 for axis in zip(*ones)):
        raise ValueError(f"the 1s of {b.text} are not one per row, column and block")
    by_block = {k: (r, c) for r, c, k in ones}
    (r1, c1), (r2, c2), (r3, c3), (r4, c4) = (by_block[k] for k in (1, 2, 3, 4))
    # row r_i goes to row i, and column c1, c3, c2, c4 to column 1, 2, 3, 4
    return grid_perm(Perm((r1, r2, r3, r4)).inverse(), Perm((c1, c3, c2, c4)).inverse())


def h4_canonicalize_with_transform(b: Board) -> tuple[Board, Perm]:
    """(canonical board, x) where x is the position symmetry applied.

    Constructive: row/column swaps place the 1s on cells 1, 7, 10, 16,
    a half-turn then forces value(cell 6) <= value(cell 11), and a
    transpose forces value(cell 2) < value(cell 5).  Each step preserves
    what the previous steps established.  ValueError unless b's 1s are
    one per row, column and block.
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


def h4_canonicalize(b: Board) -> Board:
    """Canonical representative of b's position-orbit."""
    return h4_canonicalize_with_transform(b)[0]


@lru_cache(maxsize=2 * 288)
def _canonical(canonicalize: Callable[[Board], tuple[Board, Perm]], k: int) -> tuple[Board, Perm]:
    """canonicalize(board number k), once per board and canonicalizer."""
    return canonicalize(enumerate_all()[k])


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
    """The label of the value nest holding b: that of its canonical form;
    ValueError unless b is a valid board."""
    form = _canonical(s4_canonicalize_with_transform, board_number(b))[0]
    return next(n.label for n in s4_nests() if n.representative == form)


def _nest_graph(
    gens: Iterable[Perm],
    factor_nests: Callable[[], tuple[Nest, ...]],
    element: Callable[[Perm], SymmetryElement],
    canonicalize: Callable[[Board], tuple[Board, Perm]],
) -> Graph:
    """Induced action of one factor's generators on the other factor's
    nests, factor_nests(), as a Graph whose nodes are their labels, in
    factor_nests() order: each representative moves by element(g)'s board
    image to a board k, and _canonical(canonicalize, k) = (form, fix)
    gives the edge's target, the nest that form represents, and its aux,
    fix; the edge's label is perm_label(g).  element (SymmetryElement's
    from_position or from_relabeling) rejects a generator of the other
    degree, and element_number one outside H4 x S4."""
    nests = factor_nests()
    reps = [board_number(n.representative) for n in nests]
    label = {n.representative: n.label for n in nests}
    edges = []
    for g in gens:
        name, directed = perm_label(g), not (g * g).is_identity
        moved = image(element_number(element(g)))
        for n, rep in zip(nests, reps):
            form, fix = _canonical(canonicalize, moved[rep])
            aux = None if fix.is_identity else fix
            edges.append(Edge(n.label, label[form], name, directed, aux))
    return Graph(tuple(n.label for n in nests), tuple(edges))


def s4_nest_graph(gens: Iterable[Perm]) -> Graph:
    """Induced action of position generators on the twelve value nests.

    Each edge records the relabeling needed to return the moved
    representative to canonical form.
    """
    return _nest_graph(
        gens, s4_nests, SymmetryElement.from_position, s4_canonicalize_with_transform
    )


def h4_nest_graph(gens: Iterable[Perm]) -> Graph:
    """Induced action of relabeling generators on the six position nests.

    Each edge records the position symmetry needed to return the moved
    representative to canonical form.
    """
    return _nest_graph(
        gens, h4_nests, SymmetryElement.from_relabeling, h4_canonicalize_with_transform
    )


def completeness_via_nests(gens: Iterable[Perm]) -> bool:
    """Completeness read off a nest graph.

    The generators are bare Perms, and the first one's degree picks the
    graph.  Degree-16 ones are taken as position generators acting on
    the value nests (testing <gens> x all-relabelings), degree-4 ones act
    on the position nests (testing all-position-symmetries x <gens>), a
    mix raises SymmetryElement's ValueError, and none gives False.  True
    iff the graph has exactly two components: its components are the
    orbits of a subgroup of the full group, gathered into nests, so they
    refine the full group's two orbits, the Type 1 and Type 2 classes,
    and two components are those classes.
    """
    gens = list(gens)
    nest_graph = s4_nest_graph if gens and gens[0].degree == 16 else h4_nest_graph
    return bool(gens) and len(nest_graph(gens).components()) == 2
