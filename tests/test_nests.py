import re
from itertools import combinations

import pytest

from shidoku import action, group
from shidoku import nests as nests_module
from shidoku.board import Board, enumerate_all
from shidoku.perm import Perm, gen_r, gen_r2, gen_s, gen_t, perm_label, relabeling
from shidoku.group import generate_position, relabel_group
from shidoku.action import Graph, apply, full_partition, position_apply
from shidoku.perm import SymmetryElement
from shidoku.search import default_position_pool, default_relabel_pool
from shidoku.nests import (
    H4_REPRESENTATIVES,
    S4_REPRESENTATIVES,
    completeness_via_nests,
    h4_canonicalize,
    h4_canonicalize_with_transform,
    h4_nest_graph,
    h4_nests,
    s4_canonicalize,
    s4_canonicalize_with_transform,
    s4_nest_graph,
    s4_nest_of,
    s4_nests,
)
from helpers import (
    INVARIANT_UNDER_TRANSPOSE_TEXT,
    TYPE1_TEXT,
    TYPE2_TEXT,
    called_codes,
    h4_orbit_canonical,
    matches_h4_representative_form,
    oracle_apply,
    oracle_components,
)


def test_s4_canonicalize_fixes_canonical_boards():
    for text in S4_REPRESENTATIVES.values():
        b = Board.from_text(text)
        assert s4_canonicalize(b) == b
    assert s4_canonicalize(Board.from_text(INVARIANT_UNDER_TRANSPOSE_TEXT)).text == INVARIANT_UNDER_TRANSPOSE_TEXT


def test_s4_canonicalize_constant_on_relabeling_orbits():
    for text in S4_REPRESENTATIVES.values():
        rep = Board.from_text(text)
        for e in relabel_group().sorted_elements():
            assert s4_canonicalize(apply(e, rep)) == rep


def test_s4_canonicalize_transform_is_the_relabeling_that_works():
    for b in enumerate_all():
        canon, sigma = s4_canonicalize_with_transform(b)
        assert oracle_apply(SymmetryElement.from_relabeling(sigma), b.values) == canon.values
        assert canon.values[:2] + canon.values[4:6] == (1, 2, 3, 4)


@pytest.mark.parametrize("text", ["2100030000000000", "1123341221434321"])
def test_s4_canonicalize_rejects_an_upper_left_block_without_the_values_1_to_4(text):
    # an empty cell there must not be renamed as if it held a 4
    with pytest.raises(ValueError, match=f"^upper-left block of {text} does not hold the values 1-4$"):
        s4_canonicalize(Board.from_text(text))


def test_s4_nests_golden():
    nests = s4_nests()
    assert [n.label for n in nests] == list("ABCDEFGHIJKL")
    assert {n.label: n.representative.text for n in nests} == S4_REPRESENTATIVES
    union = {b for n in nests for b in n.members}
    assert union == set(enumerate_all())
    for n in nests:
        assert n.representative in n.members


def test_s4_nest_graph_components():
    graph = s4_nest_graph([gen_s(), gen_t()])
    components = {frozenset(c) for c in graph.components()}
    assert components == {
        frozenset("ACDEHIJL"),
        frozenset("BFGK"),
    }
    assert s4_nest_graph(()).component_count == 12


def test_s4_nest_graph_well_defined_on_all_members():
    # the induced move must not depend on which member the generator hits
    for gen in (gen_r(), gen_s(), gen_t()):
        graph = s4_nest_graph([gen])
        targets = {e.src: e.dst for e in graph.edges}
        for nest in s4_nests():
            for member in nest.members:
                moved = Board(position_apply(gen, member.values))
                assert s4_nest_of(moved) == targets[nest.label]


def test_h4_form_predicate_and_canonical_fixed_points():
    for text in H4_REPRESENTATIVES.values():
        b = Board.from_text(text)
        assert matches_h4_representative_form(b)
        assert h4_canonicalize(b) == b


def test_h4_canonicalize_half_turn_returns():
    a = Board.from_text(H4_REPRESENTATIVES["a"])
    rotated = Board(position_apply(gen_r2(), a.values))
    assert h4_canonicalize(rotated) == a


def test_type1_board_is_nest_a():
    assert h4_canonicalize(Board.from_text(TYPE1_TEXT)).text == H4_REPRESENTATIVES["a"]
    assert TYPE1_TEXT == H4_REPRESENTATIVES["a"]


def test_h4_canonicalize_agrees_with_orbit_scan_on_all_boards():
    # constructive path vs the definitional unique-orbit-member path
    for b in enumerate_all():
        assert h4_canonicalize(b) == h4_orbit_canonical(b)


def test_h4_canonicalize_transform_is_a_position_symmetry_that_works():
    h4 = generate_position([gen_r(), gen_s(), gen_t()])
    for b in enumerate_all():
        canon, transform = h4_canonicalize_with_transform(b)
        assert SymmetryElement.from_position(transform) in h4
        assert Board(position_apply(transform, b.values)) == canon


def test_h4_canonicalize_accepts_exactly_the_boards_whose_1s_are_a_transversal():
    # all 65,536 boards of 0s and 1s: accepted iff the 1s are four, one per
    # row, column and block, and then moved onto cells 1, 7, 10, 16 by a
    # position symmetry; any other is rejected by one line naming it
    h4 = generate_position([gen_r(), gen_s(), gen_t()])

    def transversal(values):
        places = [(i // 4, i % 4) for i, v in enumerate(values) if v == 1]
        regions = ({r for r, _ in places}, {c for _, c in places}, {(r // 2, c // 2) for r, c in places})
        return len(places) == 4 and all(len(region) == 4 for region in regions)

    accepted = 0
    for bits in range(1 << 16):
        b = Board(tuple(bits >> (15 - i) & 1 for i in range(16)))
        try:
            canon, transform = h4_canonicalize_with_transform(b)
        except ValueError as exc:
            assert not transversal(b.values)
            assert str(exc) == f"the 1s of {b.text} are not one per row, column and block"
        else:
            assert transversal(b.values)
            assert SymmetryElement.from_position(transform) in h4
            assert canon.values == oracle_apply(SymmetryElement.from_position(transform), b.values)
            assert canon.cells_with(1) == {1, 7, 10, 16}
            accepted += 1
    assert accepted == 16


def test_h4_nests_golden():
    nests = h4_nests()
    assert {n.label: n.representative.text for n in nests} == H4_REPRESENTATIVES
    # labels follow lexicographic order of the representatives
    reps = [n.representative for n in nests]
    assert reps == sorted(reps)


def test_nests_are_the_canonical_forms_classes():
    # nests come from the factor groups' orbits; the canonicalizers are
    # the oracle: every member names its nest's representative
    for nests, canonical in ((s4_nests(), s4_canonicalize), (h4_nests(), h4_canonicalize)):
        for n in nests:
            assert {canonical(b) for b in n.members} == {n.representative}
        members = [b for n in nests for b in n.members]
        assert sorted(members) == list(enumerate_all())


@pytest.mark.parametrize(
    "name, label, text",
    [
        # nest A's representative relabeled: in its orbit, not canonical
        ("S4", "A", "2143432132141432"),
        # B's representative in nest A's orbit, so that orbit holds two
        ("S4", "B", S4_REPRESENTATIVES["A"]),
        # a thirteenth label, on no valid board
        ("S4", "M", "1234341221434312"),
        # nest a's representative moved by a position symmetry
        ("H4", "a", "1234341243212143"),
    ],
)
def test_nests_reject_a_wrong_pinned_table(monkeypatch, name, label, text):
    table = f"{name}_REPRESENTATIVES"
    monkeypatch.setattr(nests_module, table, {**getattr(nests_module, table), label: text})
    what = {"S4": "relabeling", "H4": "position"}[name]
    nests = {"S4": s4_nests, "H4": h4_nests}[name]
    with pytest.raises(AssertionError, match=f"^computed {what}-orbit representatives changed$"):
        nests.__wrapped__()


def test_h4_nest_graph_components():
    full = h4_nest_graph([relabeling(n) for n in ("(1 2)", "(2 3)", "(3 4)", "(1 4)")])
    assert {frozenset(c) for c in full.components()} == {
        frozenset("acf"),
        frozenset("bde"),
    }
    assert h4_nest_graph(()).component_count == 6


def test_nest_graph_components_match_oracle_in_order():
    graphs = [
        s4_nest_graph(gens)
        for gens in ([gen_r(), gen_s(), gen_t()], [gen_s(), gen_t()], [gen_r(), gen_t()], [gen_r2()])
    ] + [
        h4_nest_graph([relabeling(n) for n in names])
        for names in (("(1 2)", "(2 3)"), ("(1 2 3)",), ("(3 4)",), ("(1 4)", "(3 4)"))
    ]
    # the same generator twice, under one label, still gives two maps
    graphs.append(s4_nest_graph([gen_s(), gen_t(), gen_s()]))
    graphs.append(h4_nest_graph([relabeling("(1 2)"), relabeling("(2 3)"), relabeling("(1 2)")]))
    nest_labels = {tuple(n.label for n in nests()) for nests in (s4_nests, h4_nests)}
    for graph in graphs:
        # the nodes are the nests' labels, in nest order
        assert graph.nodes in nest_labels
        want = oracle_components(list(graph.nodes), [(e.src, e.dst) for e in graph.edges])
        assert graph.components() == want
        # blocks by least label, labels sorted within, whatever the nest order
        shuffled = Graph(graph.nodes[::-1], graph.edges)
        assert shuffled.components() == want


def test_nest_graph_whose_nodes_miss_its_edges_raises_value_error():
    graph = s4_nest_graph([gen_s(), gen_t()])
    with pytest.raises(ValueError, match="24 edges are not runs of 11 nodes"):
        Graph(graph.nodes[:-1], graph.edges).components()
    with pytest.raises(ValueError, match="endpoint 'L' is not a node"):
        Graph(graph.nodes[:-1] + ("Z",), graph.edges).components()


def test_nest_graph_with_a_repeated_source_raises_value_error():
    graph = s4_nest_graph([gen_s(), gen_t()])
    first, second = graph.edges[:2]
    edges = (first, second._replace(src=first.src), *graph.edges[2:])
    with pytest.raises(ValueError, match="^edge run 1 does not name each node once"):
        Graph(graph.nodes, edges).components()


def test_h4_nest_graph_three_cycle():
    graph = h4_nest_graph([relabeling("(1 2 3)")])
    moves = {e.src: e.dst for e in graph.edges}
    assert moves == {"a": "c", "c": "f", "f": "a", "b": "e", "e": "d", "d": "b"}
    assert all(e.directed for e in graph.edges)


def test_h4_nest_graph_well_defined_on_all_members():
    for name in ("(1 2)", "(1 2 3)"):
        sigma = relabeling(name)
        graph = h4_nest_graph([sigma])
        targets = {e.src: e.dst for e in graph.edges}
        index = {n.representative: n.label for n in h4_nests()}
        for nest in h4_nests():
            for member in nest.members:
                moved = apply(SymmetryElement.from_relabeling(sigma), member)
                assert index[h4_canonicalize(moved)] == targets[nest.label]


def test_every_nest_graph_aux_returns_the_moved_representative():
    # each edge is a witness: the generator, then the aux, takes the
    # source representative to the destination's, by the oracle's action
    position_gens = [gen_r(), gen_r2(), gen_s(), gen_t()]
    relabel_gens = [
        relabeling(name) for name in ("(1 2)", "(2 3)", "(3 4)", "(1 4)", "(1 2 3)", "(1 2 3 4)")
    ]
    cases = [
        (s4_nest_graph(position_gens), position_gens, SymmetryElement.from_position,
         SymmetryElement.from_relabeling, 4),
        (h4_nest_graph(relabel_gens), relabel_gens, SymmetryElement.from_relabeling,
         SymmetryElement.from_position, 16),
    ]
    nests = {n.label: n for n in (*s4_nests(), *h4_nests())}
    for graph, gens, move, correct, aux_degree in cases:
        by_name = {perm_label(g): g for g in gens}
        for edge in graph.edges:
            aux = edge.aux or Perm.identity(aux_degree)
            moved = oracle_apply(move(by_name[edge.label]), nests[edge.src].representative.values)
            assert oracle_apply(correct(aux), moved) == nests[edge.dst].representative.values
    assert [len(graph.edges) for graph, *_ in cases] == [4 * 12, 6 * 6]


def test_completeness_via_nests():
    assert completeness_via_nests([]) is False


def test_completeness_component_unions_match_type_split():
    graph = s4_nest_graph([gen_s(), gen_t()])
    nests = {n.label: n for n in s4_nests()}
    unions = {
        frozenset(b for label in comp for b in nests[label].members)
        for comp in graph.components()
    }
    assert unions == {frozenset(block) for block in full_partition().blocks}


def test_nest_graph_components_lie_inside_full_orbits():
    # over every subset of the quotient-consistency check's two pools, a
    # component's boards are an orbit of a subgroup of the full group, so
    # they lie inside one full orbit: with two full orbits, exactly two
    # components are those orbits, and the count decides completeness
    orbit_of = {b: c for c, block in enumerate(full_partition().blocks) for b in block}
    nests = {n.label: n for n in (*s4_nests(), *h4_nests())}
    verdicts = set()
    cases = ((default_position_pool(), s4_nest_graph), (default_relabel_pool(), h4_nest_graph))
    for pool, nest_graph in cases:
        for subset in (s for size in range(len(pool) + 1) for s in combinations(pool, size)):
            graph = nest_graph([p for _, p in subset])
            for component in graph.components():
                boards = [b for label in component for b in nests[label].members]
                assert len({orbit_of[b] for b in boards}) == 1
            if subset:
                verdict = completeness_via_nests([p for _, p in subset])
                assert verdict == (graph.component_count == 2)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_nest_graphs_read_neither_the_kernel_blocks_nor_the_cocycle():
    # check 10 holds nest-graph verdicts against is_complete, so with the
    # nests built the graphs must not read the value-nest tables that
    # is_complete and the Burnside counts rest on; the caches are emptied
    # so that any call runs, and shows, the function's body
    s4_nests(), h4_nests()
    tables = (group._kernel_blocks, action._orbits, group.cocycle)
    for table in tables:
        table.cache_clear()
    cases = ((default_position_pool(), s4_nest_graph), (default_relabel_pool(), h4_nest_graph))

    def build():
        for pool, nest_graph in cases:
            for subset in (s for size in range(len(pool) + 1) for s in combinations(pool, size)):
                nest_graph([p for _, p in subset])

    called = called_codes(build)
    assert nests_module._nest_graph.__code__ in called
    assert not called & {table.__wrapped__.__code__ for table in tables}


@pytest.mark.parametrize("cycle", ["(1 2)", "(2 3)"])
def test_nest_graph_rejects_a_cell_permutation_outside_h4(cycle):
    x = Perm.from_cycles(cycle, 16)
    want = rf"^symmetry pos={re.escape(cycle)}; rel= moves a board to \d{{16}}, not a valid board$"
    for call in (s4_nest_graph, completeness_via_nests):
        with pytest.raises(ValueError, match=want):
            call([x])


def test_nest_graph_rejects_mixed_or_wrong_degree():
    # SymmetryElement's own degree check is the only one on this path
    want = r"^symmetry element wants \(degree-16, degree-4\) parts$"
    with pytest.raises(ValueError, match=want):
        completeness_via_nests([gen_s(), relabeling("(1 2)")])
    with pytest.raises(ValueError, match=want):
        completeness_via_nests([relabeling("(1 2)"), gen_s()])
    with pytest.raises(ValueError, match=want):
        s4_nest_graph([relabeling("(1 2)")])
    with pytest.raises(ValueError, match=want):
        h4_nest_graph([gen_s()])


def test_nest_lookup_helpers():
    assert s4_nest_of(Board.from_text(TYPE1_TEXT)) == "B"
    h4 = {n.label: n.members for n in h4_nests()}
    assert Board.from_text(TYPE1_TEXT) in h4["a"]
    assert Board.from_text(TYPE2_TEXT) in h4["d"]  # one of the size-64 nests
    assert sorted(b for members in h4.values() for b in members) == list(enumerate_all())
    # on every board the lookup names the nest that holds it
    holder = {b: n.label for n in s4_nests() for b in n.members}
    assert {b: s4_nest_of(b) for b in enumerate_all()} == holder
    with pytest.raises(ValueError, match="not a valid Shidoku board"):
        s4_nest_of(Board.from_text("1234341221434312"))
