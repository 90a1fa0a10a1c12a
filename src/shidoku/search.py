"""Search over product-form subgroups for complete symmetry groups.

Candidates are direct products <P> x <R> for P, R subsets of finite
generator pools; the default pools are the rotation/half-turn/row-swap/
transpose position generators and the four standard transpositions plus
one 3-cycle of relabelings.  Products' orbits are counted by Burnside's
lemma (burnside_orbit_count), not labeled.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .group import direct_product, generate_position, generate_relabel
from .perm import RELABEL_GENERATOR_NAMES, Perm, relabeling, standard_position_generators
from .action import full_partition
from .burnside import burnside_orbit_count

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


def search_products(
    position_pool: tuple[NamedPerm, ...] | None = None,
    relabel_pool: tuple[NamedPerm, ...] | None = None,
) -> tuple[SearchResult, ...]:
    """Evaluate every (position subset, relabel subset) pair as a direct
    product.  Each distinct product is built once and its orbits counted
    by burnside_orbit_count; as a subgroup's orbits refine the full
    group's, it is complete iff it has as many.  No orbit is labeled.

    Results are deduplicated by the underlying element sets, which the
    factors' position parts and relabel kernel determine (the first,
    smallest generating subsets win), and sorted by (order, label).
    """
    if position_pool is None:
        position_pool = default_position_pool()
    if relabel_pool is None:
        relabel_pool = default_relabel_pool()

    position_groups = [
        (subset, generate_position(p for _, p in subset))
        for subset in _subsets(position_pool)
    ]
    relabel_groups = [
        (subset, generate_relabel(p for _, p in subset))
        for subset in _subsets(relabel_pool)
    ]

    full_count = full_partition().block_count
    seen: set[tuple[frozenset[int], frozenset[int]]] = set()
    results: list[SearchResult] = []
    for pos_subset, pos_group in position_groups:
        positions = frozenset(pos_group.section)
        for rel_subset, rel_group in relabel_groups:
            key = (positions, rel_group.kernel)
            if key in seen:
                continue
            seen.add(key)
            product = direct_product(pos_group, rel_group)
            count = burnside_orbit_count(product)
            results.append(
                SearchResult(
                    position_names=tuple(name for name, _ in pos_subset),
                    relabel_names=tuple(name for name, _ in rel_subset),
                    order=product.order,
                    orbit_count=count,
                    complete=count == full_count,
                )
            )
    return tuple(sorted(results, key=lambda res: (res.order, res.label)))


def parse_pool_file(text: str, degree: int) -> tuple[NamedPerm, ...]:
    """Parse a generator pool file: one 'name=<cycles>' entry per line.

    Blank lines and '#' comments are ignored; a name may appear once.
    """
    pool: dict[str, Perm] = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad pool line (want 'name=<cycles>'): {line!r}")
        name, cycles = (part.strip() for part in line.split("=", 1))
        if not name:
            raise ValueError(f"bad pool line (empty name): {line!r}")
        if name in pool:
            raise ValueError(f"bad pool line (repeated name {name!r}): {line!r}")
        pool[name] = Perm.from_cycles(cycles, degree)
    if not pool:
        raise ValueError("pool file defines no generators")
    return tuple(pool.items())
