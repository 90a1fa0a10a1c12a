import re

import pytest

from shidoku import nests as nests_module
from shidoku.board import Board, enumerate_all
from shidoku.perm import Perm, gen_r, gen_r2, gen_s, gen_t, relabeling
from shidoku.group import generate_position, relabel_group
from shidoku.action import apply, full_partition, position_apply
from shidoku.perm import SymmetryElement
from shidoku.nests import (
    H4_REPRESENTATIVES,
    NestGraph,
    S4_REPRESENTATIVES,
    completeness_via_nests,
    h4_canonicalize,
    h4_canonicalize_with_transform,
    h4_nest_graph,
    h4_nests,
    s4_canonicalize,
    s4_nest_graph,
    s4_nest_of,
    s4_nests,
)
from helpers import (
    INVARIANT_UNDER_TRANSPOSE_TEXT,
    TYPE1_TEXT,
    TYPE2_TEXT,
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
    for name, gen in (("r", gen_r()), ("s", gen_s()), ("t", gen_t())):
        graph = s4_nest_graph([(name, gen)])
        targets = {e.src: e.dst for e in graph.edges}
        for nest in graph.nests:
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
    # two generators under one label still give two maps
    graphs.append(s4_nest_graph([("x", gen_s()), ("x", gen_t())]))
    graphs.append(h4_nest_graph([("y", relabeling("(1 2)")), ("y", relabeling("(2 3)"))]))
    for graph in graphs:
        labels = [n.label for n in graph.nests]
        want = oracle_components(labels, [(e.src, e.dst) for e in graph.edges])
        assert graph.components() == want
        # blocks by least label, labels sorted within, whatever the nest order
        shuffled = NestGraph(graph.nodes[::-1], graph.edges, graph.nests[::-1])
        assert shuffled.components() == want


def test_nest_graph_whose_nodes_miss_its_edges_raises_value_error():
    graph = s4_nest_graph([gen_s(), gen_t()])
    with pytest.raises(ValueError, match="24 edges are not runs of 11 nodes"):
        NestGraph(graph.nodes[:-1], graph.edges, graph.nests).components()
    with pytest.raises(ValueError, match="endpoint 'L' is not a node"):
        NestGraph(graph.nodes[:-1] + ("Z",), graph.edges, graph.nests).components()


def test_nest_graph_with_a_repeated_source_raises_value_error():
    graph = s4_nest_graph([gen_s(), gen_t()])
    first, second = graph.edges[:2]
    edges = (first, second._replace(src=first.src), *graph.edges[2:])
    with pytest.raises(ValueError, match="^edge run 1 does not name each node once"):
        NestGraph(graph.nodes, edges, graph.nests).components()


def test_h4_nest_graph_three_cycle():
    graph = h4_nest_graph([relabeling("(1 2 3)")])
    moves = {e.src: e.dst for e in graph.edges}
    assert moves == {"a": "c", "c": "f", "f": "a", "b": "e", "e": "d", "d": "b"}
    assert all(e.directed for e in graph.edges)


def test_h4_nest_graph_well_defined_on_all_members():
    for name in ("(1 2)", "(1 2 3)"):
        sigma = relabeling(name)
        graph = h4_nest_graph([(name, sigma)])
        targets = {e.src: e.dst for e in graph.edges}
        index = {n.representative: n.label for n in h4_nests()}
        for nest in graph.nests:
            for member in nest.members:
                moved = apply(SymmetryElement.from_relabeling(sigma), member)
                assert index[h4_canonicalize(moved)] == targets[nest.label]


def test_every_nest_graph_aux_returns_the_moved_representative():
    # each edge is a witness: the generator, then the aux, takes the
    # source representative to the destination's, by the oracle's action
    position_gens = [("r", gen_r()), ("r2", gen_r2()), ("s", gen_s()), ("t", gen_t())]
    relabel_gens = [
        (name, relabeling(name))
        for name in ("(1 2)", "(2 3)", "(3 4)", "(1 4)", "(1 2 3)", "(1 2 3 4)")
    ]
    cases = [
        (s4_nest_graph(position_gens), position_gens, SymmetryElement.from_position,
         SymmetryElement.from_relabeling, 4),
        (h4_nest_graph(relabel_gens), relabel_gens, SymmetryElement.from_relabeling,
         SymmetryElement.from_position, 16),
    ]
    for graph, gens, move, correct, aux_degree in cases:
        by_name = dict(gens)
        for edge in graph.edges:
            aux = edge.aux or Perm.identity(aux_degree)
            moved = oracle_apply(move(by_name[edge.label]), graph.nest(edge.src).representative.values)
            assert oracle_apply(correct(aux), moved) == graph.nest(edge.dst).representative.values
    assert [len(graph.edges) for graph, *_ in cases] == [4 * 12, 6 * 6]


def test_completeness_via_nests():
    assert completeness_via_nests([]) is False


def test_completeness_component_unions_match_type_split():
    graph = s4_nest_graph([gen_s(), gen_t()])
    unions = {
        frozenset(b for label in comp for b in graph.nest(label).members)
        for comp in graph.components()
    }
    assert unions == {frozenset(block) for block in full_partition().blocks}


@pytest.mark.parametrize("cycle", ["(1 2)", "(2 3)"])
def test_nest_graph_rejects_a_cell_permutation_outside_h4(cycle):
    x = Perm.from_cycles(cycle, 16)
    want = rf"^symmetry pos={re.escape(cycle)}; rel= moves a board to \d{{16}}, not a valid board$"
    for call in (s4_nest_graph, completeness_via_nests):
        with pytest.raises(ValueError, match=want):
            call([x])


def test_nest_graph_rejects_mixed_or_wrong_degree():
    with pytest.raises(ValueError):
        completeness_via_nests([gen_s(), relabeling("(1 2)")])
    with pytest.raises(ValueError):
        s4_nest_graph([relabeling("(1 2)")])
    with pytest.raises(ValueError):
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
    graph = s4_nest_graph(())
    with pytest.raises(KeyError):
        graph.nest("Z")
