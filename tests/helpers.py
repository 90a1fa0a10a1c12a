"""The tests' adapters over the benchmark's slow oracle, their reader of
exported DOT text, their writer of group description files, their check
of the fixing rules on one invariant board, their record of the
functions a call runs, and the boards they pin.

bench/oracle.py is the one slow oracle: it rebuilds the boards, the
position group, the action, closure and orbits from the definitions and
imports nothing from shidoku (test_oracle.py guards that), so it shares
no code with what it checks.  The adapters here only convert
SymmetryElements and Boards to and from its image tuples.  The
component oracle, over DOT and nest-graph edges, follows edge pairs both
ways instead of numbered permutation maps.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from shidoku.board import Board
from shidoku.burnside import _fixing_rules, relabel_recovery
from shidoku.group import SymmetryGroup
from shidoku.perm import Perm, SymmetryElement

ORACLE_PATH = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def _load_oracle():
    """bench/oracle.py by path, so that no other bench module becomes importable."""
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


def _act(pos: tuple[int, ...], rel: tuple[int, ...], values: tuple[int, ...]) -> tuple[int, ...]:
    """oracle.act, with an empty cell kept empty: the oracle renames v as
    rel[v - 1], so the appended 0 is what a 0 reads."""
    return oracle.act((pos, rel + (0,)), values)


def oracle_apply(e: SymmetryElement, values: tuple[int, ...]) -> tuple[int, ...]:
    """Definition-level action: the value in cell i lands in cell pos(i),
    then every value v is renamed rel(v); a 0 (an empty cell) stays 0."""
    return _act(e.pos.image, e.rel.image, values)


def oracle_product(a: SymmetryElement, b: SymmetryElement) -> SymmetryElement:
    """a * b componentwise, right factor first, built through the
    validating constructors."""
    return SymmetryElement(
        Perm(oracle.compose(a.pos.image, b.pos.image)),
        Perm(oracle.compose(a.rel.image, b.rel.image)),
    )


def oracle_orbits(elements: Iterable[SymmetryElement]) -> set[frozenset[Board]]:
    """Orbit partition of all boards under the given symmetry elements."""
    gens = [(e.pos.image, e.rel.image) for e in elements]
    return {frozenset(map(Board, block)) for block in oracle.orbit_blocks(gens)}


def oracle_recoveries(x: Perm, b: Board) -> list[Perm]:
    """All relabelings sigma with sigma(x(b)) = b, by trying every one."""
    return [
        Perm(rel) for rel in oracle.relabel_group() if _act(x.image, rel, b.values) == b.values
    ]


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
    return sum(_act(e.pos.image, e.rel.image, b) == b for b in oracle.boards())


@lru_cache(maxsize=1)
def _element_index():
    return oracle.ElementIndex()


def oracle_closure(gens: Iterable[SymmetryElement]) -> frozenset[SymmetryElement]:
    """The group the generators generate, closed over the oracle's
    numbering of H4 x S4 and decoded back into SymmetryElements."""
    positions, relabels = oracle.position_group(), oracle.relabel_group()
    numbers = _element_index().closure((e.pos.image, e.rel.image) for e in gens)
    return frozenset(
        SymmetryElement(Perm(positions[n // 24]), Perm(relabels[n % 24])) for n in numbers
    )


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
    orbit = {_act(x, oracle.ID4, b.values) for x in oracle.position_group()}
    matches = [values for values in orbit if matches_h4_representative_form(Board(values))]
    if len(matches) != 1:
        raise AssertionError(
            f"expected exactly one representative-form member, got {len(matches)}"
        )
    return Board(matches[0])


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


def called_codes(run):
    """The code objects of every Python function that run() calls."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


# Pinned boards used across the tests (row strings joined row-major).
TYPE1_TEXT = "1234341221434321"
TYPE2_TEXT = "1234341223414123"
INVARIANT_UNDER_TRANSPOSE_TEXT = "1243342143122134"  # its transpose relabels back via (2 3)
