"""Fixed-point counting and orbit counts via the averaging lemma.

A board B is invariant under a cell permutation x when some relabeling
sigma undoes it: sigma(x(B)) = B.  Relabelings act freely on valid
boards (the first row carries every value), so that sigma is unique when
it exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .board import Board, REGIONS, enumerate_all
from .group import ConjugacyClass, SymmetryGroup, conjugacy_classes
from .perm import Perm, SymmetryElement
from .action import apply_values, position_apply


def relabel_recovery(x: Perm, b: Board) -> Perm | None:
    """The unique relabeling sigma with sigma(x(b)) = b, or None.

    Reads the required value map off the moved board; inconsistencies or
    a non-bijective map mean no relabeling can undo x on this board.
    """
    moved = position_apply(x, b.values)
    mapping = [0] * 5
    for mv, bv in zip(moved, b.values):
        if mapping[mv] == 0:
            mapping[mv] = bv
        elif mapping[mv] != bv:
            return None
    image = tuple(mapping[1:])
    if sorted(image) != [1, 2, 3, 4]:
        return None
    return Perm(image)


def invariant_count(x: Perm) -> int:
    """Number of boards invariant under x up to relabeling."""
    return sum(1 for b in enumerate_all() if relabel_recovery(x, b) is not None)


def fixed_points(e: SymmetryElement) -> int:
    """Number of boards b with apply(e, b) == b."""
    return sum(1 for b in enumerate_all() if apply_values(e, b.values) == b.values)


def burnside_orbit_count(g: SymmetryGroup) -> int:
    """Orbit count as the average fixed-point count over g.

    Sums fixed_points over every element (the reference slow path) and
    divides by |g|; raises ValueError if the sum is not divisible, which
    would indicate an action bug or a non-group input.
    """
    total = sum(fixed_points(e) for e in g.elements)
    if total % g.order != 0:
        raise ValueError(
            f"fixed-point total {total} not divisible by group order {g.order}"
        )
    return total // g.order


@dataclass(frozen=True)
class InvarianceTable:
    """Per-conjugacy-class invariant board counts for a position-only group."""

    group: SymmetryGroup
    rows: tuple[tuple[ConjugacyClass, int], ...]

    def total_fixed_points(self) -> int:
        """Sum of |class| * count: the full-relabeling-factor fixed-point
        total of group x (all 24 relabelings)."""
        return sum(cls.size * count for cls, count in self.rows)


def invariance_table(h: SymmetryGroup) -> InvarianceTable:
    """One row per conjugacy class of a position-only group.

    The count is taken on the class representative: it is a class
    function, which the test suite checks on every member of every class
    of the full position group.
    """
    if not h.is_position_only():
        raise ValueError("invariance table wants a position-only group")
    rows = tuple((cls, invariant_count(cls.representative.pos)) for cls in conjugacy_classes(h))
    return InvarianceTable(h, rows)


def check_fixing_lemmas(x: Perm, b: Board) -> bool:
    """Check the three fixing rules for a board invariant under x.

    With sigma the recovered relabeling:
      1. a value sitting in a cell fixed by x must be fixed by sigma;
      2. if x fixes some region pointwise, sigma is the identity;
      3. a value fixed by sigma must travel to cells of the same value:
         sigma(n) = n and b[i] = n imply b[x(i)] = n.

    Raises ValueError when b is not invariant under x (the rules are
    conditional on invariance).
    """
    sigma = relabel_recovery(x, b)
    if sigma is None:
        raise ValueError("board is not invariant under x; fixing rules do not apply")
    for i in range(1, 17):
        if x(i) == i and sigma(b.value_at(i)) != b.value_at(i):
            return False
    for region in REGIONS:
        if all(x(c) == c for c in region) and not sigma.is_identity:
            return False
    for n in (1, 2, 3, 4):
        if sigma(n) != n:
            continue
        for i in range(1, 17):
            if b.value_at(i) == n and b.value_at(x(i)) != n:
                return False
    return True

