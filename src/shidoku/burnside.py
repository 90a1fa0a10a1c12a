"""Fixed-point counting and orbit counts via the averaging lemma.

A fixed-point count reads the boards that an element's board image
(group.image) maps to themselves.  A board B is fixed by (x, sigma)
exactly when sigma undoes the cell move x: sigma(x(B)) = B.  Relabelings
act freely on valid boards (the first row carries every value), so a
sigma that undoes x on B is unique when it exists; relabel_recovery
finds it, for invariance tables and the fixing rules.
"""

from __future__ import annotations

from itertools import count
from operator import eq
from typing import NamedTuple

from .board import VALUES, Board, REGIONS, enumerate_all
from .group import ConjugacyClass, SymmetryGroup, conjugacy_classes, element_number, image
from .perm import Perm, SymmetryElement


def relabel_recovery(x: Perm, b: Board) -> Perm | None:
    """The unique relabeling sigma with sigma(x(b)) = b, or None.

    sigma must send b[i] to b[x(i)], and a 0 (never renamed) onto a 0.
    Raises ValueError unless x has degree 16.
    """
    values, cells = b.values, x.image
    if len(cells) != 16:
        raise ValueError(f"not a cell permutation: degree {len(cells)}")
    sigma = {0: 0}
    put = sigma.setdefault
    for v, j in zip(values, cells):
        w = values[j - 1]
        if put(v, w) != w:
            return None
    image = tuple(map(sigma.get, VALUES))
    return Perm._trusted(image) if set(image) == {1, 2, 3, 4} else None


def invariant_count(x: Perm) -> int:
    """Number of boards invariant under x up to relabeling."""
    return sum(1 for b in enumerate_all() if relabel_recovery(x, b) is not None)


def _fixed_count(n: int) -> int:
    """Number of boards k that element number n maps to k."""
    return sum(map(eq, image(n), count()))


def fixed_points(e: SymmetryElement) -> int:
    """Number of boards b with apply(e, b) == b."""
    return _fixed_count(element_number(e))


def burnside_orbit_count(g: SymmetryGroup) -> int:
    """Orbit count as the average fixed-point count over g's elements,
    each read off the board images.  Raises ValueError if the total is
    not divisible by |g| (an action bug or a non-group input).
    """
    total = sum(map(_fixed_count, g.numbers))
    if total % g.order != 0:
        raise ValueError(f"fixed-point total {total} not divisible by group order {g.order}")
    return total // g.order


class InvarianceTable(NamedTuple):
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


def _fixing_rules(x: Perm, b: Board, sigma: Perm) -> bool:
    """The three fixing rules for b and the relabeling sigma that undoes x on it:
      1. a value sitting in a cell fixed by x must be fixed by sigma;
      2. if x fixes some region pointwise, sigma is the identity;
      3. a value fixed by sigma must travel to cells of the same value:
         sigma(n) = n and b[i] = n imply b[x(i)] = n.
    """
    v, pos = b.values, x.image
    s = (0,) + sigma.image  # s[n] = sigma(n); a 0 is never renamed
    fixed = {i for i, j in enumerate(pos, start=1) if i == j}
    return (
        all(s[v[i - 1]] == v[i - 1] for i in fixed)
        and (sigma.is_identity or not any(map(fixed.issuperset, REGIONS)))
        and all(v[j - 1] == n for n, j in zip(v, pos) if s[n] == n)
    )
