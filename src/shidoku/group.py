"""Finite symmetry groups: generator closure, direct products and
conjugacy classes.

Every group is a subgroup of H4 x S4 (order 3072), so its elements are
numbered: position symmetry x and relabeling sigma by their places in
sorted order, the element (x, sigma) as x * 24 + sigma, so numbers sort
as SymmetryElements do.  Only this module turns elements into numbers
and back.  Other modules split a number into its factor places,
divmod(n, RELABELINGS), themselves (action._orbits, burnside's fixed and
invariant counts), and read everything else through this module's
tables: factor_tables() multiplies numbers and moves board numbers,
image(n) moves board numbers as element n does, _kernel_blocks(K)
gives each board's orbit under a relabel-only kernel K and the
relabeling in K taking the orbit's smallest board to it (for K = S4,
the boards' value-nest coordinates), and cocycle() tables from these
how each position symmetry moves the value nests, x(b_i) = rho(b_j).
Closure walks position parts only (at most 128), one coset of the
relabel-only kernel each, and grows that kernel by memoised joins on
S4's 30 subgroups, one per Schreier generator not already in it.
A group keeps that closure, a relabel part over each position part and
the kernel, and its generators' numbers; order, the factor tests, direct
products, the action's orbit quotient and burnside's orbit counts read
it, and the element numbers are built only when read, once per group.
A hand-built SymmetryGroup must be generated by its generators or, if
given none, by its elements: anything else raises ValueError.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .board import Board, board_numbers, enumerate_all
from .perm import (
    RELABEL_GENERATOR_NAMES,
    Perm,
    SymmetryElement,
    apply_batch,
    relabeling,
    standard_position_generators,
)
from .unionfind import graph_components

#: The relabel factor's order: element (x, sigma) is x * RELABELINGS + sigma.
RELABELINGS = 24


class FactorTable(NamedTuple):
    """One factor's sorted elements, each numbered by its index, with
    products[a][b] the number of elements[a] * elements[b], inverses[a]
    the number of elements[a]^-1 and images[a][k] the number of board k
    moved by elements[a]; the identity is number 0."""

    elements: tuple[Perm, ...]
    numbers: dict[Perm, int]
    products: tuple[tuple[int, ...], ...]
    inverses: tuple[int, ...]
    images: tuple[tuple[int, ...], ...]


def _factor_table(gens: list[Perm], element: Callable[[Perm], SymmetryElement]) -> FactorTable:
    """The factor gens generate, closed breadth-first.  Only the
    generators are multiplied out and applied to the boards: the product
    row and board image of an element g * p are p's, moved by g's."""
    identity = Perm.identity(gens[0].degree)
    parents = {identity: (0, identity)}  # element -> (generator index, parent)
    queue = [identity]
    for p in queue:
        for k, g in enumerate(gens):
            if (q := g * p) not in parents:
                parents[q] = (k, p)
                queue.append(q)
    elements = tuple(sorted(parents))
    numbers = {p: n for n, p in enumerate(elements)}
    left = [[numbers[g * p] for p in elements] for g in gens]
    boards = [b.values for b in enumerate_all()]
    moved = [[board_numbers()[values] for values in apply_batch(element(g), boards)] for g in gens]
    rows = {identity: tuple(range(len(elements)))}
    images = {identity: tuple(range(len(board_numbers())))}
    for q in queue[1:]:
        k, p = parents[q]
        rows[q] = itemgetter(*rows[p])(left[k])
        images[q] = itemgetter(*images[p])(moved[k])
    products = tuple(rows[p] for p in elements)
    inverses = tuple(row.index(0) for row in products)
    return FactorTable(elements, numbers, products, inverses, tuple(images[p] for p in elements))


@lru_cache(maxsize=1)
def factor_tables() -> tuple[FactorTable, FactorTable]:
    """H4 from r, s, t and S4 from the four standard transpositions."""
    named = dict(standard_position_generators())
    position = [named[g] for g in _POSITION_FACTORS["H4"]]
    relabel = [relabeling(g) for g in _RELABEL_FACTORS["S4"]]
    return (
        _factor_table(position, SymmetryElement.from_position),
        _factor_table(relabel, SymmetryElement.from_relabeling),
    )


def element_number(e: SymmetryElement) -> int:
    """e's number; ValueError naming e unless e.pos is in H4."""
    position, relabel = factor_tables()
    if (p := position.numbers.get(e.pos)) is None:
        # H4 is every cell permutation that keeps all boards valid
        boards = [b.values for b in enumerate_all()]
        moved = next(v for v in apply_batch(e, boards) if v not in board_numbers())
        raise ValueError(f"symmetry {e} moves a board to {Board(moved)}, not a valid board")
    return p * RELABELINGS + relabel.numbers[e.rel]


def element(n: int) -> SymmetryElement:
    """The element numbered n."""
    position, relabel = factor_tables()
    p, r = divmod(n, RELABELINGS)
    return SymmetryElement._trusted(position.elements[p], relabel.elements[r])


def image(n: int) -> tuple[int, ...]:
    """Element number n as a map on board numbers (board.board_numbers):
    entry k numbers the element applied to board k, its position part's
    image read through its relabeling's (cells move first)."""
    position, relabel = factor_tables()
    p, r = divmod(n, RELABELINGS)
    return itemgetter(*position.images[p])(relabel.images[r])


@lru_cache(maxsize=None)  # keyed by a subgroup of S4, of which there are 30
def _kernel_blocks(kernel: frozenset[int]) -> tuple[tuple[int, ...], int, itemgetter, tuple[int, ...]]:
    """The orbits of the relabel-only kernel K, given by its relabelings'
    numbers, numbered by smallest board: each board's orbit index, the
    orbit count, a gather of the orbits' smallest boards, and for each
    board the number of the one relabeling in K taking its orbit's
    smallest board to it (relabelings act freely).  For K = S4 these
    are the boards' value-nest coordinates."""
    images = factor_tables()[1].images
    label, tau, smallest = [-1] * len(images[0]), [0] * len(images[0]), []
    for k, index in enumerate(label):
        if index < 0:
            for r in kernel:
                m = images[r][k]
                label[m], tau[m] = len(smallest), r
            smallest.append(k)
    return tuple(label), len(smallest), itemgetter(*smallest), tuple(tau)


@lru_cache(maxsize=1)
def cocycle() -> tuple[tuple, tuple, tuple[int, ...], tuple[int, ...]]:
    """How position symmetries move the value nests, read off the value-nest
    coordinates (_kernel_blocks of S4): moves[p][i] = (j, rho) when
    x_p(b_i) = rho(b_j), b_i nest i's smallest board; fixed[p], the rho of
    each nest x_p fixes (j = i); and for each relabeling, its conjugacy
    class in S4, numbered by smallest member, and centralizer order."""
    position, relabel = factor_tables()
    nest, _, smallest, tau = _kernel_blocks(frozenset(range(RELABELINGS)))
    moves = tuple(tuple((nest[m], tau[m]) for m in smallest(images)) for images in position.images)
    fixed = tuple(tuple(rho for i, (j, rho) in enumerate(row) if i == j) for row in moves)
    rows, inverses = relabel.products, relabel.inverses
    conjugates = [
        {rows[row[r]][inverse] for row, inverse in zip(rows, inverses)} for r in range(RELABELINGS)
    ]
    return moves, fixed, tuple(map(min, conjugates)), tuple(RELABELINGS // len(c) for c in conjugates)


def _product(a: int, b: int) -> int:
    position, relabel = factor_tables()
    (ap, ar), (bp, br) = divmod(a, RELABELINGS), divmod(b, RELABELINGS)
    return position.products[ap][bp] * RELABELINGS + relabel.products[ar][br]


def _inverse(a: int) -> int:
    position, relabel = factor_tables()
    p, r = divmod(a, RELABELINGS)
    return position.inverses[p] * RELABELINGS + relabel.inverses[r]


@lru_cache(maxsize=None)  # keyed by (subgroup of S4, relabeling): at most 30 x 24 keys
def _join(kernel: frozenset[int], s: int) -> frozenset[int]:
    """The subgroup of S4 that kernel and relabeling s generate, closed
    in the 24 x 24 table."""
    relabel = factor_tables()[1].products
    joined = [0]
    for k in joined:
        joined += {relabel[g][k] for g in (s, *kernel)}.difference(joined)
    return frozenset(joined)


def _closure(gens: Iterable[int]) -> tuple[dict[int, int], frozenset[int]]:
    """The group G that element numbers gens generate, as (section, K):
    breadth-first search over position parts p gives G's position
    projection, the keys of section, with one relabel part section[p]
    over each; reaching a seen p with relabel part t gives
    section[p]^-1 t, a Schreier generator of K = {sigma : (1, sigma) in G},
    and K, a subgroup of S4 from the start, is joined with each one not
    already in it.  G is every (p, section[p] * k), k in K."""
    tables = factor_tables()
    position, relabel, inverses = tables[0].products, tables[1].products, tables[1].inverses
    rows = [(position[p], relabel[r]) for p, r in (divmod(g, RELABELINGS) for g in gens)]
    section, queue, kernel = {0: 0}, [0], frozenset({0})
    for p in queue:
        for position_row, relabel_row in rows:
            q, t = position_row[p], relabel_row[section[p]]
            if q not in section:
                section[q] = t
                queue.append(q)
            elif (s := relabel[inverses[section[q]]][t]) not in kernel:
                kernel = _join(kernel, s)
    return section, kernel


def _numbers(section: dict[int, int], kernel: frozenset[int]) -> frozenset[int]:
    """The element numbers of the group with this closure."""
    relabel = factor_tables()[1].products
    return frozenset(
        [p * RELABELINGS + relabel[u][k] for p, u in section.items() for k in kernel]
    )


class SymmetryGroup:
    """A subgroup G of H4 x S4, stored as its closure and its generators'
    numbers: section maps each position part p of G to one relabel part
    over it, and kernel is K = {sigma : (1, sigma) in G}, so G is every
    (p, section[p] * k), k in K.  Its element numbers are built when first
    read, and its generators are decoded each time they are read.

    Built by hand, it raises ValueError unless the generators generate
    exactly the given elements; with no generators given, its sorted
    elements are its generators and must be closed under products.
    generate and direct_product skip that check.
    """

    __slots__ = ("section", "kernel", "generator_numbers", "_numbers")

    def __init__(self, elements: Iterable[SymmetryElement], generators: Iterable[SymmetryElement]):
        numbers = frozenset(map(element_number, elements))
        self.generator_numbers = tuple(map(element_number, generators)) or tuple(sorted(numbers))
        self.section, self.kernel = _closure(self.generator_numbers)
        self._numbers = _numbers(self.section, self.kernel)
        if self._numbers != numbers:
            raise ValueError(
                f"generators generate {len(self._numbers)} elements, not the {len(numbers)} given"
            )

    @classmethod
    def _trusted(
        cls, section: dict[int, int], kernel: frozenset[int], generators: tuple[int, ...]
    ) -> "SymmetryGroup":
        """Unchecked group, for closures and products."""
        g = object.__new__(cls)
        g.section, g.kernel, g.generator_numbers, g._numbers = section, kernel, generators, None
        return g

    @property
    def generators(self) -> tuple[SymmetryElement, ...]:
        return tuple(map(element, self.generator_numbers))

    @property
    def numbers(self) -> frozenset[int]:
        if self._numbers is None:
            self._numbers = _numbers(self.section, self.kernel)
        return self._numbers

    @property
    def order(self) -> int:
        return len(self.section) * len(self.kernel)

    @property
    def elements(self) -> frozenset[SymmetryElement]:
        return frozenset(map(element, self.numbers))

    def __contains__(self, e: SymmetryElement) -> bool:
        return e.pos in factor_tables()[0].numbers and element_number(e) in self.numbers

    def sorted_elements(self) -> list[SymmetryElement]:
        return [element(n) for n in sorted(self.numbers)]

    def is_position_only(self) -> bool:
        return self.kernel == {0} and not any(self.section.values())

    def is_relabel_only(self) -> bool:
        return self.section == {0: 0}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetryGroup):
            return NotImplemented
        return self.numbers == other.numbers

    def __hash__(self) -> int:
        return hash(self.numbers)


def generate(gens: Iterable[SymmetryElement]) -> SymmetryGroup:
    """Closure of the generators under composition.  Raises ValueError,
    as element_number does, on a generator outside H4 x S4."""
    numbers = tuple(map(element_number, gens))
    return SymmetryGroup._trusted(*_closure(numbers), numbers)


def generate_position(perms: Iterable[Perm]) -> SymmetryGroup:
    """Group of position-only elements generated by cell permutations."""
    return generate(map(SymmetryElement.from_position, perms))


def generate_relabel(perms: Iterable[Perm]) -> SymmetryGroup:
    """Group of relabel-only elements generated by value permutations."""
    return generate(map(SymmetryElement.from_relabeling, perms))


def trivial_group() -> SymmetryGroup:
    return generate(())


def direct_product(h: SymmetryGroup, s: SymmetryGroup) -> SymmetryGroup:
    """Product of a position-only group and a relabel-only group.

    Elements are all (pos, rel) pairs; order is |h| * |s|.  Its closure
    is read off the factors': h's position parts, each with the identity
    relabeling over it, and s's relabelings as the kernel.  Mixed-factor
    inputs are rejected.
    """
    if not h.is_position_only():
        raise ValueError("left factor must contain only position-only elements")
    if not s.is_relabel_only():
        raise ValueError("right factor must contain only relabel-only elements")
    generators = h.generator_numbers + s.generator_numbers
    return SymmetryGroup._trusted(dict.fromkeys(h.section, 0), s.kernel, generators)


def conjugacy_classes(g: SymmetryGroup) -> tuple[frozenset[SymmetryElement], ...]:
    """Conjugacy classes of g as sets of elements, ordered by minimal
    element, which represents its class (min(cls)).  The classes are the
    components of conjugation by g's generators on g."""
    conjugators = [(c, _inverse(c)) for c in g.generator_numbers]
    edges = [(x, _product(_product(c, x), cinv)) for c, cinv in conjugators for x in g.numbers]
    return tuple(frozenset(map(element, block)) for block in graph_components(g.numbers, edges))


#: Factor shorthands: position factors by standard generator names,
#: relabel factors by generating cycles.
_POSITION_FACTORS = {
    "H4": ("r", "s", "t"),
    "st": ("s", "t"),
    "rs": ("r", "s"),
    "rt": ("r", "t"),
    "r2st": ("r2", "s", "t"),
}
_RELABEL_FACTORS = {"S4": RELABEL_GENERATOR_NAMES, "c123": ("(1 2 3)",)}

#: The single-name group shorthands, in the order error messages list them.
GROUP_SHORTHANDS = ("full", "trivial", *_POSITION_FACTORS, *_RELABEL_FACTORS)


@lru_cache(maxsize=None)
def _factor(name: str) -> SymmetryGroup:
    """The group of a factor shorthand, built once per name."""
    if name in _POSITION_FACTORS:
        table = dict(standard_position_generators())
        return generate_position(table[g] for g in _POSITION_FACTORS[name])
    return generate_relabel(relabeling(g) for g in _RELABEL_FACTORS[name])


def position_group() -> SymmetryGroup:
    """The full position symmetry group, generated by rotation, the
    third/fourth row swap, and transpose (order 128)."""
    return _factor("H4")


def relabel_group() -> SymmetryGroup:
    """All 24 relabelings, generated by the four standard transpositions."""
    return _factor("S4")


@lru_cache(maxsize=1)
def full_group() -> SymmetryGroup:
    """The full symmetry group: position_group() x relabel_group(), order 3072."""
    return direct_product(position_group(), relabel_group())


def named_group(spec: str) -> SymmetryGroup | None:
    """The group a shorthand names, or None if spec is not one.

    Shorthands are GROUP_SHORTHANDS and products `<position>x<relabel>`
    of a position factor (H4, st, rs, rt, r2st) and a relabel factor
    (S4, c123), e.g. `stxS4` or `r2stxc123`.
    """
    if spec == "full":
        return full_group()
    if spec == "trivial":
        return trivial_group()
    if spec in _POSITION_FACTORS or spec in _RELABEL_FACTORS:
        return _factor(spec)
    left, _, right = spec.partition("x")
    if left in _POSITION_FACTORS and right in _RELABEL_FACTORS:
        return direct_product(_factor(left), _factor(right))
    return None


def parse_group_description(text: str) -> list[SymmetryElement]:
    """Parse the group description file format:

        generators:
        pos=<cycles>; rel=<cycles>
        ...

    Empty cycle strings denote identities.  Raises ValueError on
    malformed input.  A position part outside H4 parses; generate rejects
    it with element_number's one-line ValueError.
    """
    lines = [line.strip() for line in text.split("\n")]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines or lines[0] != "generators:":
        raise ValueError("group description must start with a 'generators:' line")
    gens: list[SymmetryElement] = []
    for line in lines[1:]:
        pos_part, _, rel_part = (half.strip() for half in line.partition(";"))
        if not pos_part.startswith("pos=") or not rel_part.startswith("rel="):
            raise ValueError(f"bad generator line (want 'pos=...; rel=...'): {line!r}")
        pos = Perm.from_cycles(pos_part[len("pos=") :], 16)
        rel = Perm.from_cycles(rel_part[len("rel=") :], 4)
        gens.append(SymmetryElement(pos, rel))
    return gens

