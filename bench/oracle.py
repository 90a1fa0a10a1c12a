"""Independent slow oracle for the benchmark's correctness checks.

Everything here is rebuilt from the definitions and imports nothing from
shidoku: boards by backtracking, the position group by closing the
rotation, row swap and transpose written from coordinates, the action by
its definition (the value in cell i moves to cell pos(i), then every value
v is renamed to rel(v)), and orbits by plain breadth-first search over
16-tuples of values.

Permutations are 1-based image tuples, as in the program: image[i-1] is
where i goes.  A symmetry element is a pair (pos, rel) of a 16-image and
a 4-image.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

Image = tuple[int, ...]
Element = tuple[Image, Image]


def _cell(row: int, col: int) -> int:
    """1-based cell number of a 1-based (row, col)."""
    return (row - 1) * 4 + col


def _grid_map(move) -> Image:
    """Cell permutation sending (row, col) to move(row, col)."""
    return tuple(_cell(*move(r, c)) for r in range(1, 5) for c in range(1, 5))


ROTATION = _grid_map(lambda r, c: (c, 5 - r))
ROW_SWAP = _grid_map(lambda r, c: ({3: 4, 4: 3}.get(r, r), c))
TRANSPOSE = _grid_map(lambda r, c: (c, r))
HALF_TURN = _grid_map(lambda r, c: (5 - r, 5 - c))
ID16: Image = tuple(range(1, 17))
ID4: Image = (1, 2, 3, 4)


def compose(a: Image, b: Image) -> Image:
    """a after b: (a * b)(i) = a(b(i))."""
    return tuple(a[j - 1] for j in b)


def cycles_to_image(text: str, degree: int) -> Image:
    """Image of a permutation written as cycles, e.g. '(1 2 3)'."""
    image = list(range(1, degree + 1))
    for body in text.replace(")", "").split("(")[1:]:
        elems = [int(tok) for tok in body.split()]
        for a, b in zip(elems, elems[1:] + elems[:1]):
            image[a - 1] = b
    return tuple(image)


def closure(gens, identity: Image) -> frozenset[Image]:
    """All products of the generators, by breadth-first multiplication."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                p = compose(g, e)
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        frontier = new
    return frozenset(seen)


@lru_cache(maxsize=1)
def position_group() -> tuple[Image, ...]:
    """The 128 position symmetries, sorted."""
    return tuple(sorted(closure((ROTATION, ROW_SWAP, TRANSPOSE), ID16)))


@lru_cache(maxsize=1)
def relabel_group() -> tuple[Image, ...]:
    """The 24 relabelings, sorted."""
    return tuple(permutations(ID4))


@lru_cache(maxsize=1)
def boards() -> tuple[tuple[int, ...], ...]:
    """The valid boards, sorted: every row, column and 2x2 block holds 1..4."""
    rows = list(permutations(ID4))
    out = []
    for r1 in rows:
        for r2 in rows:
            if any(r1[c] == r2[c] for c in range(4)) or {r1[0], r1[1], r2[0], r2[1]} != set(ID4):
                continue
            for r3 in rows:
                if any(r3[c] in (r1[c], r2[c]) for c in range(4)):
                    continue
                r4 = tuple(10 - r1[c] - r2[c] - r3[c] for c in range(4))
                if sorted(r4) == list(ID4) and {r3[0], r3[1], r4[0], r4[1]} == set(ID4):
                    out.append(r1 + r2 + r3 + r4)
    return tuple(sorted(out))


def act(element: Element, board: tuple[int, ...]) -> tuple[int, ...]:
    """The value in cell i moves to cell pos(i), then v is renamed rel(v)."""
    pos, rel = element
    out = [0] * 16
    for i, value in enumerate(board):
        out[pos[i] - 1] = rel[value - 1]
    return tuple(out)


def orbit_blocks(gens) -> list[frozenset]:
    """Orbits of <gens> on the boards, ordered by each orbit's minimum."""
    blocks = []
    seen: set = set()
    for start in boards():
        if start in seen:
            continue
        block = {start}
        frontier = [start]
        while frontier:
            new = []
            for b in frontier:
                for g in gens:
                    moved = act(g, b)
                    if moved not in block:
                        block.add(moved)
                        new.append(moved)
            frontier = new
        seen |= block
        blocks.append(frozenset(block))
    return blocks


def full_generators() -> tuple[Element, ...]:
    return tuple((p, ID4) for p in (ROTATION, ROW_SWAP, TRANSPOSE)) + tuple(
        (ID16, r) for r in relabel_group()
    )


@lru_cache(maxsize=1)
def full_partition() -> frozenset[frozenset]:
    return frozenset(orbit_blocks(full_generators()))


def orbit_answer(gens) -> tuple[tuple[int, ...], bool]:
    """(orbit sizes, complete): complete iff the partition equals the full one."""
    blocks = orbit_blocks(gens)
    return tuple(len(b) for b in blocks), frozenset(blocks) == full_partition()


class ElementIndex:
    """H4 x S4 numbered 0..3071 (position index * 24 + relabel index), with
    multiplication tables, so that generating a subgroup is a cheap
    closure over integers."""

    def __init__(self) -> None:
        positions, relabels = position_group(), relabel_group()
        self.pos_index = {p: k for k, p in enumerate(positions)}
        self.rel_index = {r: k for k, r in enumerate(relabels)}
        self.pos_mul = [[self.pos_index[compose(a, b)] for b in positions] for a in positions]
        self.rel_mul = [[self.rel_index[compose(a, b)] for b in relabels] for a in relabels]

    def index(self, e: Element) -> int:
        return self.pos_index[e[0]] * 24 + self.rel_index[e[1]]

    def closure(self, gens) -> frozenset[int]:
        """Numbers of the elements of <gens>."""
        split = [divmod(self.index(g), 24) for g in gens]
        start = self.index((ID16, ID4))
        seen = {start}
        frontier = [start]
        while frontier:
            new = []
            for e in frontier:
                ep, er = divmod(e, 24)
                for gp, gr in split:
                    p = self.pos_mul[gp][ep] * 24 + self.rel_mul[gr][er]
                    if p not in seen:
                        seen.add(p)
                        new.append(p)
            frontier = new
        return frozenset(seen)


def expected_search(position_pool, relabel_pool) -> list[dict]:
    """The product search's result rows, computed from the definitions.

    Every (position subset, relabel subset) pair, subsets smallest first,
    is one candidate <P> x <R>; candidates with equal element sets keep the
    first.  Rows are sorted by (order, label) like the program's.
    """

    def subsets(pool):
        for size in range(len(pool) + 1):
            yield from combinations(pool, size)

    pos_groups = [(s, closure([p for _, p in s], ID16)) for s in subsets(position_pool)]
    rel_groups = [(s, closure([p for _, p in s], ID4)) for s in subsets(relabel_pool)]
    seen = set()
    rows = []
    for ps, pg in pos_groups:
        for rs, rg in rel_groups:
            if (pg, rg) in seen:
                continue
            seen.add((pg, rg))
            gens = [(p, ID4) for _, p in ps] + [(ID16, r) for _, r in rs]
            sizes, complete = orbit_answer(gens)
            order = len(pg) * len(rg)
            rows.append(
                {
                    "position_gens": [n for n, _ in ps],
                    "relabel_gens": [n for n, _ in rs],
                    "order": order,
                    "orbits": len(sizes),
                    "complete": complete,
                    "minimal": complete and order == 192,
                }
            )

    def label(row):
        pos = ",".join(row["position_gens"]) or "-"
        rel = ",".join(row["relabel_gens"]) or "-"
        return f"<{pos}> x <{rel}>"

    return sorted(rows, key=lambda row: (row["order"], label(row)))
