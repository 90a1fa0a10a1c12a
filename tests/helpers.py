"""Independent oracle implementations shared by the tests, the tests'
reader of exported DOT text, their board file format and their check of
the fixing rules on one invariant board.

The oracles deliberately avoid the production code paths: the action
oracle writes values into destination cells directly from the
definition, the orbit oracle searches over Boards moved by that action
oracle instead of over board numbers and factor-table images, the
component oracle follows edge pairs both ways instead of numbered
permutation maps, the recovery oracle tries all 24 relabelings, the
fixed-point oracle applies an element to every board, the product
oracle composes each part point by point, the closure oracle multiplies
SymmetryElements instead of element numbers, and the position-nest
oracle scans a board's whole position orbit.
"""

from __future__ import annotations

import re
from itertools import permutations
from typing import Iterable

from shidoku.action import position_apply
from shidoku.board import Board, enumerate_all, validate
from shidoku.burnside import _fixing_rules, relabel_recovery
from shidoku.group import SymmetryGroup
from shidoku.perm import Perm, SymmetryElement, gen_r, gen_s, gen_t


def oracle_apply(e: SymmetryElement, values: tuple[int, ...]) -> tuple[int, ...]:
    """Definition-level action: the value in cell i lands in cell pos(i),
    then every value v is renamed rel(v); a 0 (an empty cell) stays 0."""
    out = [0] * 16
    for i in range(16):
        v = values[i]
        out[e.pos.image[i] - 1] = e.rel.image[v - 1] if v else 0
    return tuple(out)


def oracle_product(a: SymmetryElement, b: SymmetryElement) -> SymmetryElement:
    """a * b componentwise from the definition, right factor first: each
    part sends i to a's part of b's part of i, built through the
    validating constructors."""

    def compose(p: Perm, q: Perm) -> Perm:
        return Perm(tuple(p(q(i)) for i in range(1, q.degree + 1)))

    return SymmetryElement(compose(a.pos, b.pos), compose(a.rel, b.rel))


def oracle_orbits(
    elements, boards: tuple[Board, ...]
) -> set[frozenset[Board]]:
    """Orbit partition by BFS over the given symmetry elements."""
    elements = tuple(elements)
    remaining = set(boards)
    blocks: set[frozenset[Board]] = set()
    while remaining:
        seed = remaining.pop()
        block = {seed}
        frontier = [seed]
        while frontier:
            new = []
            for b in frontier:
                for e in elements:
                    moved = Board(oracle_apply(e, b.values))
                    if moved not in block:
                        block.add(moved)
                        new.append(moved)
            frontier = new
        remaining -= block
        blocks.add(frozenset(block))
    return blocks


def oracle_recoveries(x: Perm, b: Board) -> list[Perm]:
    """All relabelings sigma with sigma(x(b)) = b, by trying every one."""
    found = []
    for image in permutations((1, 2, 3, 4)):
        sigma = Perm(image)
        e = SymmetryElement(x, sigma)
        if oracle_apply(e, b.values) == b.values:
            found.append(sigma)
    return found


def check_fixing_lemmas(x: Perm, b: Board) -> bool:
    """Check the three fixing rules for a board invariant under x.

    Raises ValueError when b is not invariant under x (the rules are
    conditional on invariance).
    """
    sigma = relabel_recovery(x, b)
    if sigma is None:
        raise ValueError("board is not invariant under x; fixing rules do not apply")
    return _fixing_rules(x, b, sigma)


def oracle_fixed_points(e: SymmetryElement) -> int:
    """Number of boards b with e(b) == b, by applying e to every board."""
    return sum(1 for b in enumerate_all() if oracle_apply(e, b.values) == b.values)


def oracle_closure(gens: Iterable[SymmetryElement]) -> frozenset[SymmetryElement]:
    """The group the generators generate, by breadth-first multiplication
    of SymmetryElements."""
    gens = tuple(gens)
    identity = SymmetryElement.identity()
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                prod = g * e
                if prod not in elements:
                    elements.add(prod)
                    new.append(prod)
        frontier = new
    return frozenset(elements)


def is_subgroup(a: SymmetryGroup, b: SymmetryGroup) -> bool:
    return a.elements <= b.elements


def position_parts(g: SymmetryGroup) -> tuple[Perm, ...]:
    """Sorted distinct position parts of g's elements; a group when g is
    a product."""
    return tuple(sorted({e.pos for e in g.elements}))


def relabel_parts(g: SymmetryGroup) -> tuple[Perm, ...]:
    """Sorted distinct relabel parts of g's elements."""
    return tuple(sorted({e.rel for e in g.elements}))


def format_group_description(gens: Iterable[SymmetryElement]) -> str:
    """The group description file format that group.parse_group_description reads."""
    lines = ["generators:"]
    for e in gens:
        lines.append(f"pos={e.pos.cycle_notation()}; rel={e.rel.cycle_notation()}")
    return "".join(line + "\n" for line in lines)


def matches_h4_representative_form(b: Board) -> bool:
    """The defining predicate for position-nest representatives."""
    v = b.values
    return (
        v[0] == 1
        and v[6] == 1
        and v[9] == 1
        and v[15] == 1
        and v[5] <= v[10]
        and v[1] < v[4]
    )


def h4_orbit_canonical(b: Board) -> Board:
    """Definitional canonicalization: scan b's whole position-orbit for
    the unique member in representative form, independent of the
    constructive nests.h4_canonicalize."""
    gens = (gen_r(), gen_s(), gen_t())
    orbit = {b.values}
    frontier = [b.values]
    while frontier:
        new = []
        for values in frontier:
            for g in gens:
                moved = position_apply(g, values)
                if moved not in orbit:
                    orbit.add(moved)
                    new.append(moved)
        frontier = new
    matches = [values for values in orbit if matches_h4_representative_form(Board(values))]
    if len(matches) != 1:
        raise AssertionError(
            f"expected exactly one representative-form member, got {len(matches)}"
        )
    return Board(matches[0])


def boards_to_file_text(boards: Iterable[Board]) -> str:
    """Newline-delimited board file: sorted lexicographically, trailing newline."""
    lines = sorted(b.text for b in boards)
    return "".join(line + "\n" for line in lines)


def boards_from_file_text(text: str) -> tuple[Board, ...]:
    return tuple(Board.from_text(line) for line in text.split("\n") if line.strip())


def enumerate_by_row_products() -> list[Board]:
    """Exhaustive scan oracle for enumeration: every 16-tuple whose four
    rows are permutations of 1..4, filtered by the validator.

    Complete because any tuple outside this restricted space already
    violates a row constraint.
    """
    rows = list(permutations((1, 2, 3, 4)))
    found = []
    for r1 in rows:
        for r2 in rows:
            for r3 in rows:
                for r4 in rows:
                    values = r1 + r2 + r3 + r4
                    if validate(values):
                        found.append(Board(values))
    return found


_NODE_RE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)";$')
_EDGE_RE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)" \[(.*)\];$')


def _unquote(s: str) -> str:
    return s.replace('\\"', '"').replace("\\\\", "\\")


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Parse DOT text produced by shidoku.graphio back into node ids and
    edge endpoint pairs.  Raises ValueError on anything outside that subset."""
    lines = text.split("\n")
    stripped = [line for line in lines if line.strip()]
    if not stripped or not stripped[0].startswith("digraph ") or stripped[-1] != "}":
        raise ValueError("not a digraph document produced by shidoku.graphio")
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    for line in stripped[1:-1]:
        m = _NODE_RE.match(line)
        if m:
            nodes.append(_unquote(m.group(1)))
            continue
        m = _EDGE_RE.match(line)
        if m:
            edges.append((_unquote(m.group(1)), _unquote(m.group(2))))
            continue
        raise ValueError(f"unparseable DOT line: {line!r}")
    known = set(nodes)
    for u, v in edges:
        if u not in known or v not in known:
            raise ValueError(f"edge endpoint not declared as node: {(u, v)!r}")
    return nodes, edges


def oracle_components(nodes, edges) -> list[list]:
    """Weakly connected components of a graph given as node ids and
    (src, dst) pairs, by BFS over both directions of every edge; sorted
    by least node, nodes sorted within."""
    neighbours = {node: set() for node in nodes}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    remaining = set(neighbours)
    blocks = []
    while remaining:
        block = {remaining.pop()}
        frontier = list(block)
        while frontier:
            frontier = [v for u in frontier for v in neighbours[u] if v in remaining]
            remaining.difference_update(frontier)
            block.update(frontier)
        blocks.append(sorted(block))
    return sorted(blocks)


def dot_component_count(text: str) -> int:
    """Weakly connected component count of a parsed DOT document."""
    return len(oracle_components(*parse_dot(text)))


# Pinned boards used across the tests (row strings joined row-major).
TYPE1_TEXT = "1234341221434321"
TYPE2_TEXT = "1234341223414123"
INVARIANT_UNDER_TRANSPOSE_TEXT = "1243342143122134"  # its transpose relabels back via (2 3)
