"""Fixed-point counts and orbit counts via the averaging lemma.

Relabelings act freely on valid boards (the first row carries every
value) and commute with cell moves.  So with board k = tau(b_i) in
value-nest coordinates and x(b_i) = rho(b_j) from group.cocycle,
(x, sigma) sends k to sigma tau rho(b_j): it fixes boards only in the
nests x fixes, and there the tau(b_i) with sigma = tau rho^-1 tau^-1,
|C(sigma)| boards if sigma is conjugate to rho, else none.  Fixed counts,
invariant counts and a group's Burnside total, summed over the cosets of
its relabel-only kernel (_coset_fixed), are sums over fixed nests.  So a
general group's orbit count (burnside_orbit_count) sums over its
position parts, while a product h x s's is a dot product of two factor
rows, h's position_tally of fixed nests by rho and s's relabel_weights
(product_orbit_count), each found once per factor by search.
undo_row(p) names, board by board, the relabeling that undoes x_p, read
off the coordinates and not the cocycle, for verify's fixing-rules
check; relabel_recovery finds it on one board from its cells.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import eq, itemgetter, mul
from typing import Iterable

from .board import VALUES, Board, REGIONS
from .group import (
    RELABELINGS,
    SymmetryGroup,
    _kernel_blocks,
    cocycle,
    conjugacy_classes,
    element_number,
    factor_tables,
)
from .perm import Perm, SymmetryElement


def relabel_recovery(x: Perm, b: Board) -> Perm | None:
    """The unique relabeling sigma with sigma(x(b)) = b, or None.

    sigma must send b[i] to b[x(i)], and a 0 (never renamed) onto a 0.
    Raises ValueError unless x is a cell permutation (of degree 16).
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


def undo_row(p: int) -> bytes:
    """Entry k is 1 + the number of the relabeling sigma for which
    (x, sigma) fixes board k, x the position symmetry numbered p, or 0
    if none does: tau_k tau_m^-1 when x moves board k to m in k's nest."""
    nest, _, _, tau = _kernel_blocks(frozenset(range(RELABELINGS)))
    position, relabel = factor_tables()
    moved, products, inverses = position.images[p], relabel.products, relabel.inverses
    row = bytearray(len(moved))
    for k in compress(range(len(moved)), map(eq, nest, itemgetter(*moved)(nest))):
        row[k] = products[tau[k]][inverses[tau[moved[k]]]] + 1
    return bytes(row)


def invariant_count(x: Perm) -> int:
    """Number of boards invariant under x up to relabeling: the 24 boards
    of each value nest x maps to itself.  Raises element_number's
    ValueError unless x is in H4."""
    p = element_number(SymmetryElement.from_position(x)) // RELABELINGS
    return RELABELINGS * len(cocycle()[1][p])


@lru_cache(maxsize=None)  # keyed by a subgroup of S4, of which there are 30
def _coset_fixed(kernel: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """Entry [u][rho] is |C(rho)| x |uK meets rho's class|: the fixed
    points of the elements (x, sigma), sigma in the coset uK, on a value
    nest that x fixes with cocycle value rho."""
    (_, _, classes, centralizers), relabel = cocycle(), factor_tables()[1].products
    rows = []
    for u in range(RELABELINGS):
        hits = [0] * RELABELINGS  # by class
        for k in kernel:
            hits[classes[relabel[u][k]]] += 1
        rows.append(tuple(map(mul, centralizers, map(hits.__getitem__, classes))))
    return tuple(rows)


def _fixed_total(cosets: Iterable[tuple[int, int]], kernel: frozenset[int]) -> int:
    """The fixed points of the elements (x_p, u * k), (p, u) in cosets and
    k in the relabel-only kernel K: a sum over the nests each x_p fixes."""
    fixed, weights = cocycle()[1], _coset_fixed(kernel)
    return sum(weights[u][rho] for p, u in cosets for rho in fixed[p])


def fixed_points(e: SymmetryElement) -> int:
    """Number of boards b with apply(e, b) == b: |C(sigma)| in each value
    nest x fixes with its rho conjugate to sigma, for e = (x, sigma)."""
    return _fixed_total([divmod(element_number(e), RELABELINGS)], frozenset({0}))


def _average(total: int, order: int) -> int:
    if total % order != 0:
        raise ValueError(f"fixed-point total {total} not divisible by group order {order}")
    return total // order


def burnside_orbit_count(g: SymmetryGroup) -> int:
    """Orbit count as the average fixed-point count over g's elements,
    summed over the cosets of its relabel-only kernel, one over each
    position part.  Raises ValueError if the total is not divisible by
    |g| (an action bug or a non-group input).
    """
    return _average(_fixed_total(g.section.items(), g.kernel), g.order)


def position_tally(h: SymmetryGroup) -> list[int]:
    """Entry rho counts the pairs (x, value nest that x fixes with cocycle
    value rho), x in the position-only group h."""
    if not h.is_position_only():
        raise ValueError("position tally wants a position-only group")
    fixed, tally = cocycle()[1], [0] * RELABELINGS
    for p in h.section:
        for rho in fixed[p]:
            tally[rho] += 1
    return tally


def relabel_weights(s: SymmetryGroup) -> tuple[int, ...]:
    """Entry rho is the fixed points of the elements (x, sigma), sigma in
    s's relabel-only kernel (s itself if s is relabel-only), on a value
    nest that x fixes with cocycle value rho."""
    return _coset_fixed(s.kernel)[0]


def product_orbit_count(tally: list[int], weights: tuple[int, ...], order: int) -> int:
    """burnside_orbit_count of h x s, given h's position_tally, s's
    relabel_weights and the order |h| |s|: its fixed-point total is the
    tally dotted with the weights.  Raises the same ValueError."""
    return _average(sum(map(mul, tally, weights)), order)


def invariance_table(h: SymmetryGroup) -> tuple[tuple[frozenset[SymmetryElement], int], ...]:
    """One (class, count) row per conjugacy class of a position-only group,
    in conjugacy_classes order.

    The count is taken on the class's minimal element, min(cls): it is a
    class function, which the test suite checks on every member of every
    class of the full position group.
    """
    if not h.is_position_only():
        raise ValueError("invariance table wants a position-only group")
    return tuple((cls, invariant_count(min(cls).pos)) for cls in conjugacy_classes(h))


@lru_cache(maxsize=128)
def _fixed_cells(x: Perm) -> tuple[tuple[int, ...], bool]:
    """The cells x fixes, as 0-based indices, and whether they cover some
    region: facts of x alone, found once per position symmetry."""
    fixed = {i for i, j in enumerate(x.image, start=1) if i == j}
    return tuple(i - 1 for i in sorted(fixed)), any(map(fixed.issuperset, REGIONS))


def _fixing_rules(x: Perm, b: Board, sigma: Perm) -> bool:
    """The three fixing rules for b and the relabeling sigma that undoes x on it:
      1. a value sitting in a cell fixed by x must be fixed by sigma;
      2. if x fixes some region pointwise, sigma is the identity;
      3. a value fixed by sigma must travel to cells of the same value:
         sigma(n) = n and b[i] = n imply b[x(i)] = n.
    x's fixed cells and region flag come from _fixed_cells.
    """
    v, pos = b.values, x.image
    s = (0,) + sigma.image  # s[n] = sigma(n); a 0 is never renamed
    fixed, fixes_region = _fixed_cells(x)
    return (
        all(s[v[i]] == v[i] for i in fixed)
        and (not fixes_region or sigma.is_identity)
        and all(v[j - 1] == n for n, j in zip(v, pos) if s[n] == n)
    )
