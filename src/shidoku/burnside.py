"""Fixed-point counting and orbit counts via the averaging lemma.

Fixed-point counts are read off the factors' board images
(group.factor_tables): board k is fixed by (x, sigma) exactly when
sigma undoes the cell move x, that is, when x sends k where sigma^-1
does.  Relabelings act freely on valid boards (the first row carries
every value), so a sigma that undoes x on a board is unique when it
exists: x's invariant count is the sum of the fixed counts of (x, sigma)
over the 24 sigma.  relabel_recovery finds that sigma on one board, for
the fixing rules and verify.
"""

from __future__ import annotations

from operator import eq
from typing import NamedTuple

from .board import VALUES, Board, REGIONS
from .group import (
    RELABELINGS,
    ConjugacyClass,
    SymmetryGroup,
    _inverse,
    conjugacy_classes,
    element_number,
    factor_tables,
)
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
    """Number of boards invariant under x up to relabeling: the fixed
    counts of (x, sigma) summed over all 24 sigma, exact because at most
    one sigma fixes a board.  Raises element_number's ValueError unless x
    is in H4."""
    n = element_number(SymmetryElement.from_position(x))
    return sum(map(_fixed_count, range(n, n + RELABELINGS)))


def _fixed_count(n: int) -> int:
    """Number of boards k that element number n = (x, sigma) maps to k:
    those that x moves where sigma^-1 does."""
    position, relabel = factor_tables()
    p, r = divmod(n, RELABELINGS)
    return sum(map(eq, position.images[p], relabel.images[_inverse(r)]))


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
