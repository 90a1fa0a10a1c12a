"""Search over product-form subgroups for complete symmetry groups.

Candidates are direct products <P> x <R> for P, R subsets of finite
generator pools; the default pools are the rotation/half-turn/row-swap/
transpose position generators and the four standard transpositions plus
one 3-cycle of relabelings.  Products' orbits are counted by Burnside's
lemma, not labeled: from each position factor's tally and each relabel
factor's weights (burnside.product_orbit_count), one dot product per
product; other groups' orbits are counted by burnside_orbit_count.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, NamedTuple

from .group import direct_product, generate
from .perm import (
    RELABEL_GENERATOR_NAMES,
    Perm,
    SymmetryElement,
    relabeling,
    standard_position_generators,
)
from .action import full_partition
from .burnside import position_tally, product_orbit_count, relabel_weights

NamedPerm = tuple[str, Perm]


def default_position_pool() -> tuple[NamedPerm, ...]:
    return standard_position_generators()


def default_relabel_pool() -> tuple[NamedPerm, ...]:
    names = (*RELABEL_GENERATOR_NAMES, "(1 2 3)")
    return tuple((name, relabeling(name)) for name in names)


def minimal_order() -> int:
    """Lower bound for the order of any complete group: the largest orbit
    of the full group (a complete group acts transitively on it)."""
    return max(full_partition().sizes())


class SearchResult(NamedTuple):
    position_names: tuple[str, ...]
    relabel_names: tuple[str, ...]
    order: int
    orbit_count: int
    complete: bool

    @property
    def minimal(self) -> bool:
        """Complete at the least possible order, minimal_order() (192).
        Not the same as minimal by inclusion: some complete groups of
        larger order have no complete proper subgroup (the order-384 group
        in test_a_complete_group_of_order_384_is_minimal_by_inclusion)."""
        return self.complete and self.order == minimal_order()

    @property
    def label(self) -> str:
        pos = ",".join(self.position_names) or "-"
        rel = ",".join(self.relabel_names) or "-"
        return f"<{pos}> x <{rel}>"


def _subsets(pool: tuple[NamedPerm, ...]):
    """All subsets, smallest first so deduplication keeps minimal generator sets."""
    for size in range(len(pool) + 1):
        yield from combinations(pool, size)


def _subset_groups(pool: tuple[NamedPerm, ...], make: Callable[[Perm], SymmetryElement]):
    """(names, group) for every subset of the pool, in _subsets order, each
    pool entry made a SymmetryElement once."""
    made = tuple((name, make(p)) for name, p in pool)
    for subset in _subsets(made):
        yield tuple(name for name, _ in subset), generate(e for _, e in subset)


def search_products(
    position_pool: tuple[NamedPerm, ...] | None = None,
    relabel_pool: tuple[NamedPerm, ...] | None = None,
) -> tuple[SearchResult, ...]:
    """Evaluate every (position subset, relabel subset) pair as a direct
    product.  Each distinct product is built once and its orbits counted
    from its factors by product_orbit_count: every position subgroup's
    tally and every relabel subgroup's weights are found once, so a
    product costs one dot product.  As a subgroup's orbits refine the
    full group's, it is complete iff it has as many.  No orbit is labeled.

    Results are deduplicated by the underlying element sets, which the
    factors' position parts and relabel kernel determine (the first,
    smallest generating subsets win), and sorted by (order, label).
    """
    if position_pool is None:
        position_pool = default_position_pool()
    if relabel_pool is None:
        relabel_pool = default_relabel_pool()

    position_groups = [
        (names, group, position_tally(group))
        for names, group in _subset_groups(position_pool, SymmetryElement.from_position)
    ]
    relabel_groups = [
        (names, group, relabel_weights(group))
        for names, group in _subset_groups(relabel_pool, SymmetryElement.from_relabeling)
    ]

    full_count = full_partition().block_count
    seen: set[tuple[frozenset[int], frozenset[int]]] = set()
    results: list[SearchResult] = []
    for pos_names, pos_group, tally in position_groups:
        positions = frozenset(pos_group.section)
        for rel_names, rel_group, weights in relabel_groups:
            key = (positions, rel_group.kernel)
            if key in seen:
                continue
            seen.add(key)
            order = direct_product(pos_group, rel_group).order
            count = product_orbit_count(tally, weights, order)
            results.append(SearchResult(pos_names, rel_names, order, count, count == full_count))
    return tuple(sorted(results, key=lambda res: (res.order, res.label)))


def parse_pool_file(text: str, degree: int) -> tuple[NamedPerm, ...]:
    """Parse a generator pool file: one 'name=<cycles>' entry per line.

    Blank lines and '#' comments are ignored; a name may appear once, and
    may not be '-' or hold a ',', as a search row reads '-' as the empty
    subset and ',' between names.
    """
    pool: dict[str, Perm] = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad pool line (want 'name=<cycles>'): {line!r}")
        name, cycles = (part.strip() for part in line.split("=", 1))
        if not name or name == "-" or "," in name:
            raise ValueError(f"bad pool line (name empty, '-' or holding ','): {line!r}")
        if name in pool:
            raise ValueError(f"bad pool line (repeated name {name!r}): {line!r}")
        pool[name] = Perm.from_cycles(cycles, degree)
    if not pool:
        raise ValueError("pool file defines no generators")
    return tuple(pool.items())
