"""Finite symmetry groups: generator closure, direct products, conjugacy
classes, and subgroup queries.

Groups are plain element sets with generator provenance.  Everything is
small (at most the full group of order 3072), so closure is breadth-first
multiplication with no stabilizer-chain machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .perm import (
    RELABEL_GENERATOR_NAMES,
    Perm,
    SymmetryElement,
    position_elements,
    relabel_elements,
    relabeling,
    standard_position_generators,
)


@dataclass(frozen=True)
class SymmetryGroup:
    """A set of symmetry elements closed under composition and inverse,
    remembering the generators it was built from.

    Nothing checks that the generators generate the elements.  orbits,
    is_complete and conjugacy_classes trust them to, so build groups with
    generate or direct_product, not by hand.
    """

    elements: frozenset[SymmetryElement]
    generators: tuple[SymmetryElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, e: SymmetryElement) -> bool:
        return e in self.elements

    def sorted_elements(self) -> list[SymmetryElement]:
        return sorted(self.elements)

    def is_position_only(self) -> bool:
        return all(e.rel.is_identity for e in self.elements)

    def is_relabel_only(self) -> bool:
        return all(e.pos.is_identity for e in self.elements)

    def position_parts(self) -> tuple[Perm, ...]:
        """Sorted distinct position parts; a group when self is a product."""
        return tuple(sorted({e.pos for e in self.elements}))

    def relabel_parts(self) -> tuple[Perm, ...]:
        return tuple(sorted({e.rel for e in self.elements}))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetryGroup):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)


def generate(gens: Iterable[SymmetryElement]) -> SymmetryGroup:
    """Closure of the generators under composition (BFS).

    Inverses come for free in a finite group, so multiplying by the
    generators alone suffices.
    """
    gens = tuple(gens)
    identity = SymmetryElement.identity()
    elements = {identity}
    frontier = [identity]
    while frontier:
        new: list[SymmetryElement] = []
        for e in frontier:
            for g in gens:
                prod = g * e
                if prod not in elements:
                    elements.add(prod)
                    new.append(prod)
        frontier = new
    return SymmetryGroup(frozenset(elements), gens)


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
    elements = frozenset(
        SymmetryElement(he.pos, se.rel) for he in h.elements for se in s.elements
    )
    return SymmetryGroup(elements, h.generators + s.generators)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: SymmetryElement
    members: frozenset[SymmetryElement]

    @property
    def size(self) -> int:
        return len(self.members)


def conjugacy_classes(g: SymmetryGroup) -> tuple[ConjugacyClass, ...]:
    """Conjugacy classes of g, ordered by minimal element; the
    representative of each class is its minimal element."""
    conjugators = g.generators if g.generators else tuple(g.elements)
    inverses = [c.inverse() for c in conjugators]
    remaining = set(g.elements)
    classes: list[ConjugacyClass] = []
    while remaining:
        seed = min(remaining)
        members = {seed}
        frontier = [seed]
        while frontier:
            new: list[SymmetryElement] = []
            for x in frontier:
                for c, cinv in zip(conjugators, inverses):
                    y = c * x * cinv
                    if y not in members:
                        members.add(y)
                        new.append(y)
            frontier = new
        remaining -= members
        classes.append(ConjugacyClass(min(members), frozenset(members)))
    return tuple(sorted(classes, key=lambda k: k.representative))


def is_subgroup(a: SymmetryGroup, b: SymmetryGroup) -> bool:
    return a.elements <= b.elements


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


def format_group_description(gens: Iterable[SymmetryElement]) -> str:
    lines = ["generators:"]
    for e in gens:
        lines.append(f"pos={e.pos.cycle_notation()}; rel={e.rel.cycle_notation()}")
    return "".join(line + "\n" for line in lines)
