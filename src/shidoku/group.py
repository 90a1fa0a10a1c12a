"""Finite symmetry groups: generator closure, direct products and
conjugacy classes.

Every group is a subgroup of H4 x S4 (order 3072), so its elements are
numbered: position symmetry x and relabeling sigma by their places in
sorted order, the element (x, sigma) as x * 24 + sigma, so numbers sort
as SymmetryElements do.  Only this module reads the numbering: closure,
products, conjugacy classes and membership multiply numbers through
factor_tables(), and image(n) moves board numbers as element n does.
Closure walks position parts only (at most 128), one coset of the
relabel-only kernel each, and closes that kernel in the 24 x 24 table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from .board import Board, board_numbers, enumerate_all
from .perm import (
    RELABEL_GENERATOR_NAMES,
    Perm,
    SymmetryElement,
    position_elements,
    relabel_elements,
    relabeling,
    standard_position_generators,
)
from .unionfind import graph_components

#: The relabel factor's order: element (x, sigma) is x * RELABELINGS + sigma.
RELABELINGS = 24


class FactorTable(NamedTuple):
    """One factor's sorted elements, each numbered by its index, with
    products[a][b] the number of elements[a] * elements[b] and images[a][k]
    the number of board k moved by elements[a]; the identity is number 0."""

    elements: tuple[Perm, ...]
    numbers: dict[Perm, int]
    products: tuple[tuple[int, ...], ...]
    images: tuple[tuple[int, ...], ...]


def _applied(e: SymmetryElement) -> Iterator[tuple[int, ...]]:
    """e applied to the values of each board, in board order."""
    from .action import apply_values  # action imports this module

    return (apply_values(e, b.values) for b in enumerate_all())


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
    moved = [[board_numbers()[values] for values in _applied(element(g))] for g in gens]
    rows = {identity: tuple(range(len(elements)))}
    images = {identity: tuple(range(len(board_numbers())))}
    for q in queue[1:]:
        k, p = parents[q]
        rows[q] = tuple([left[k][b] for b in rows[p]])
        images[q] = tuple([moved[k][j] for j in images[p]])
    return FactorTable(
        elements, numbers, tuple(rows[p] for p in elements), tuple(images[p] for p in elements)
    )


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
        moved = next(values for values in _applied(e) if values not in board_numbers())
        raise ValueError(f"symmetry {e} moves a board to {Board(moved)}, not a valid board")
    return p * RELABELINGS + relabel.numbers[e.rel]


def element(n: int) -> SymmetryElement:
    """The element numbered n."""
    position, relabel = factor_tables()
    p, r = divmod(n, RELABELINGS)
    return SymmetryElement._trusted(position.elements[p], relabel.elements[r])


def image(n: int) -> list[int]:
    """Element number n as a map on board numbers (board.board_numbers):
    entry k numbers the element applied to board k, its position part's
    image read through its relabeling's (cells move first)."""
    position, relabel = factor_tables()
    p, r = divmod(n, RELABELINGS)
    rename = relabel.images[r]
    return [rename[k] for k in position.images[p]]


def _product(a: int, b: int) -> int:
    position, relabel = factor_tables()
    (ap, ar), (bp, br) = divmod(a, RELABELINGS), divmod(b, RELABELINGS)
    return position.products[ap][bp] * RELABELINGS + relabel.products[ar][br]


def _inverse(a: int) -> int:
    position, relabel = factor_tables()
    p, r = divmod(a, RELABELINGS)
    return position.products[p].index(0) * RELABELINGS + relabel.products[r].index(0)


def _closure(gens: Iterable[int]) -> frozenset[int]:
    """The numbers of the group G that element numbers gens generate, by
    breadth-first search over position parts p, one relabel part
    section[p] over each: reaching a seen p with relabel part t gives
    section[p]^-1 t, a Schreier generator of K = {sigma : (1, sigma) in G},
    and G is every (p, section[p] * k), k in K closed in the 24 x 24 table."""
    position, relabel = (table.products for table in factor_tables())
    rows = [(position[p], relabel[r]) for p, r in (divmod(g, RELABELINGS) for g in gens)]
    section, queue, schreier = {0: 0}, [0], set()
    for p in queue:
        for position_row, relabel_row in rows:
            q, t = position_row[p], relabel_row[section[p]]
            if q not in section:
                section[q] = t
                queue.append(q)
            elif section[q] != t:
                schreier.add(relabel[section[q]].index(t))
    kernel = [0]
    for k in kernel:
        kernel += {relabel[s][k] for s in schreier}.difference(kernel)
    return frozenset(
        [p * RELABELINGS + relabel[u][k] for p, u in section.items() for k in kernel]
    )


class SymmetryGroup:
    """A subgroup of H4 x S4, stored as its element numbers, remembering
    the generators it was built from.

    Built by hand, it raises ValueError unless the generators generate
    exactly the given elements; generate and direct_product skip that
    check.  A group with no generators is taken as given: orbits and
    conjugacy_classes then move by all of its elements.
    """

    __slots__ = ("numbers", "generators")

    def __init__(self, elements: Iterable[SymmetryElement], generators: Iterable[SymmetryElement]):
        self.numbers = frozenset(map(element_number, elements))
        self.generators = tuple(generators)
        if self.generators:
            reached = _closure(map(element_number, self.generators))
            if reached != self.numbers:
                raise ValueError(
                    f"generators generate {len(reached)} elements, not the {len(self.numbers)} given"
                )

    @classmethod
    def _trusted(
        cls, numbers: frozenset[int], generators: tuple[SymmetryElement, ...]
    ) -> "SymmetryGroup":
        """Unchecked group, for closures and products."""
        g = object.__new__(cls)
        g.numbers, g.generators = numbers, generators
        return g

    @property
    def order(self) -> int:
        return len(self.numbers)

    @property
    def elements(self) -> frozenset[SymmetryElement]:
        return frozenset(map(element, self.numbers))

    def __contains__(self, e: SymmetryElement) -> bool:
        return e.pos in factor_tables()[0].numbers and element_number(e) in self.numbers

    def sorted_elements(self) -> list[SymmetryElement]:
        return [element(n) for n in sorted(self.numbers)]

    def is_position_only(self) -> bool:
        return all(n % RELABELINGS == 0 for n in self.numbers)

    def is_relabel_only(self) -> bool:
        return all(n < RELABELINGS for n in self.numbers)

    def position_parts(self) -> tuple[Perm, ...]:
        """Sorted distinct position parts; a group when self is a product."""
        return tuple(sorted({element(n).pos for n in self.numbers}))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetryGroup):
            return NotImplemented
        return self.numbers == other.numbers

    def __hash__(self) -> int:
        return hash(self.numbers)


def generate(gens: Iterable[SymmetryElement]) -> SymmetryGroup:
    """Closure of the generators under composition.  Raises ValueError,
    as element_number does, on a generator outside H4 x S4."""
    gens = tuple(gens)
    return SymmetryGroup._trusted(_closure(map(element_number, gens)), gens)


def generate_position(perms: Iterable[Perm]) -> SymmetryGroup:
    """Group of position-only elements generated by cell permutations."""
    return generate(position_elements(perms))


def generate_relabel(perms: Iterable[Perm]) -> SymmetryGroup:
    """Group of relabel-only elements generated by value permutations."""
    return generate(relabel_elements(perms))


def trivial_group() -> SymmetryGroup:
    return generate(())


def direct_product(h: SymmetryGroup, s: SymmetryGroup) -> SymmetryGroup:
    """Product of a position-only group and a relabel-only group.

    Elements are all (pos, rel) pairs; order is |h| * |s|.  Mixed-factor
    inputs are rejected.
    """
    if not h.is_position_only():
        raise ValueError("left factor must contain only position-only elements")
    if not s.is_relabel_only():
        raise ValueError("right factor must contain only relabel-only elements")
    # (x, id) numbers x * RELABELINGS and (id, sigma) numbers sigma
    numbers = frozenset(x + sigma for x in h.numbers for sigma in s.numbers)
    return SymmetryGroup._trusted(numbers, h.generators + s.generators)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: SymmetryElement
    members: frozenset[SymmetryElement]

    @property
    def size(self) -> int:
        return len(self.members)


def conjugacy_classes(g: SymmetryGroup) -> tuple[ConjugacyClass, ...]:
    """Conjugacy classes of g, ordered by minimal element; the
    representative of each class is its minimal element.  The classes
    are the components of conjugation by g's generators on g."""
    conjugators = [
        (c, _inverse(c))
        for c in (map(element_number, g.generators) if g.generators else g.numbers)
    ]
    edges = [(x, _product(_product(c, x), cinv)) for c, cinv in conjugators for x in g.numbers]
    return tuple(
        ConjugacyClass(element(block[0]), frozenset(map(element, block)))
        for block in graph_components(g.numbers, edges)
    )


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
    malformed input.  Callers feeding user input should additionally
    check each position part with action.is_position_symmetry.
    """
    lines = [line.strip() for line in text.split("\n")]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines or lines[0] != "generators:":
        raise ValueError("group description must start with a 'generators:' line")
    gens: list[SymmetryElement] = []
    for line in lines[1:]:
        if ";" not in line:
            raise ValueError(f"bad generator line (want 'pos=...; rel=...'): {line!r}")
        pos_part, rel_part = (half.strip() for half in line.split(";", 1))
        if not pos_part.startswith("pos=") or not rel_part.startswith("rel="):
            raise ValueError(f"bad generator line (want 'pos=...; rel=...'): {line!r}")
        pos = Perm.from_cycles(pos_part[len("pos=") :], 16)
        rel = Perm.from_cycles(rel_part[len("rel=") :], 4)
        gens.append(SymmetryElement(pos, rel))
    return gens

