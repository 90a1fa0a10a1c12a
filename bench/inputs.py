"""Seeded inputs of the benchmark workloads.

The seed is the benchmark's `--seed` argument; the program only ever sees
the generators made here.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from itertools import combinations

from oracle import (
    HALF_TURN,
    ID4,
    ID16,
    ROTATION,
    ROW_SWAP,
    TRANSPOSE,
    closure,
    cycles_to_image,
    position_group,
    relabel_group,
)

#: The paper's default generator pools of `search_products`.
DEFAULT_POSITION_POOL = (("r", ROTATION), ("r2", HALF_TURN), ("s", ROW_SWAP), ("t", TRANSPOSE))
DEFAULT_RELABEL_POOL = tuple(
    (name, cycles_to_image(name, 4)) for name in ("(1 2)", "(2 3)", "(3 4)", "(1 4)", "(1 2 3)")
)

#: (distinct subgroups, their total order) over all subsets of a seeded
#: pool.  The extra generator is drawn among those giving this shape, so
#: every seed searches the same 17 x 15 = 255 distinct products of the same
#: total order; 12 of the 128 position symmetries and 6 of the 24
#: relabelings qualify.
POSITION_POOL_SHAPE = (17, 443)
RELABEL_POOL_SHAPE = (15, 83)

#: Elements of H4 x S4 are numbered position index * 24 + relabel index.
GROUP_ORDER = 3072


def cycle_name(image: tuple[int, ...]) -> str:
    """Cycle notation of a permutation image, fixed points omitted."""
    seen: set[int] = set()
    out = []
    for start in range(1, len(image) + 1):
        if start in seen or image[start - 1] == start:
            continue
        cycle = [start]
        seen.add(start)
        nxt = image[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = image[nxt - 1]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out)


def pool_shape(pool, identity) -> tuple[int, int]:
    groups = {
        closure([p for _, p in subset], identity)
        for size in range(len(pool) + 1)
        for subset in combinations(pool, size)
    }
    return len(groups), sum(len(g) for g in groups)


def search_pools(seed: int):
    """Default pools plus one seeded H4 element ("x") and one seeded S4
    element (named by its cycles), each drawn uniformly among the elements
    that give the fixed pool shape."""
    rng = random.Random(f"search:{seed}")
    while True:
        x = rng.choice(position_group())
        position_pool = DEFAULT_POSITION_POOL + (("x", x),)
        if pool_shape(position_pool, ID16) == POSITION_POOL_SHAPE:
            break
    while True:
        y = rng.choice(relabel_group())
        relabel_pool = DEFAULT_RELABEL_POOL + ((cycle_name(y), y),)
        if pool_shape(relabel_pool, ID4) == RELABEL_POOL_SHAPE:
            break
    return position_pool, relabel_pool


def element(k: int):
    """Element number k of H4 x S4 as (position image, relabel image)."""
    return position_group()[k // 24], relabel_group()[k % 24]


#: Share of queries with one generator; the rest have two.  One-element
#: queries (cyclic groups) are fast and two-element ones slow, so an even
#: mix would put the median latency on the gap between the two, where it
#: jumps with the exact share; a quarter keeps it inside the slow mode.
ONE_ELEMENT_SHARE = 0.25


def query_stream(seed: int):
    """Endless stream of subgroup queries: each is 1 or 2 element numbers
    drawn uniformly from H4 x S4 (so mixed elements are the rule)."""
    rng = random.Random(f"queries:{seed}")
    while True:
        size = 1 if rng.random() < ONE_ELEMENT_SHARE else 2
        yield [rng.randrange(GROUP_ORDER) for _ in range(size)]
