import pytest

from shidoku.perm import gen_r, gen_s, gen_t, relabeling
from shidoku.group import direct_product, full_group, generate_position, relabel_group
from shidoku.action import named_generators, orbit_graph
from shidoku.graphio import export_nest_graph, export_orbit_graph
from shidoku.nests import h4_nest_graph, s4_nest_graph
from helpers import dot_component_count, parse_dot


def test_full_orbit_graph_dot():
    graph = orbit_graph(named_generators(full_group()))
    dot = export_orbit_graph(graph, "full")
    nodes, edges = parse_dot(dot)
    assert len(nodes) == 288
    assert len(edges) == 288 * 7
    assert dot_component_count(dot) == 2
    assert dot.startswith('digraph "full" {\n')
    assert dot.endswith("}\n")


def test_empty_orbit_graph_dot():
    dot = export_orbit_graph(orbit_graph(()), "empty")
    nodes, edges = parse_dot(dot)
    assert len(nodes) == 288 and edges == []
    assert dot_component_count(dot) == 288


def test_position_only_orbit_graph_has_six_components():
    h4 = generate_position([gen_r(), gen_s(), gen_t()])
    graph = orbit_graph(named_generators(h4))
    assert dot_component_count(export_orbit_graph(graph)) == graph.component_count


def test_five_component_orbit_graph():
    g = direct_product(generate_position([gen_r(), gen_t()]), relabel_group())
    graph = orbit_graph(named_generators(g))
    assert dot_component_count(export_orbit_graph(graph)) == graph.component_count


def test_orbit_graph_export_is_byte_stable():
    g = direct_product(generate_position([gen_s(), gen_t()]), relabel_group())
    graph = orbit_graph(named_generators(g))
    assert export_orbit_graph(graph) == export_orbit_graph(graph)


def test_involution_edges_are_arrowless():
    graph = orbit_graph(named_generators(full_group()))
    dot = export_orbit_graph(graph)
    for line in dot.splitlines():
        if "->" in line:
            assert ('label="r"' in line) != ("dir=none" in line)


def test_nest_graph_dot_components():
    dot = export_nest_graph(s4_nest_graph([gen_s(), gen_t()]), "value-nests[s,t]")
    nodes, edges = parse_dot(dot)
    assert len(nodes) == 12
    assert len(edges) == 24
    assert dot_component_count(dot) == 2


def test_nest_graph_dot_aux_attribute():
    dot = export_nest_graph(s4_nest_graph([gen_t()]))
    assert 'aux="(2 3)"' in dot
    dot = export_nest_graph(s4_nest_graph([gen_s()]))
    assert "aux=" not in dot


def test_three_cycle_nest_graph_dot_is_directed():
    dot = export_nest_graph(h4_nest_graph([relabeling("(1 2 3)")]))
    nodes, edges = parse_dot(dot)
    assert len(nodes) == 6 and len(edges) == 6
    assert "dir=none" not in dot
    assert dot_component_count(dot) == 2


def test_empty_nest_graph_dot():
    dot = export_nest_graph(h4_nest_graph(()))
    nodes, edges = parse_dot(dot)
    assert len(nodes) == 6 and edges == []
    assert dot_component_count(dot) == 6


def test_nest_graph_export_matches_native_components():
    for gens in ([gen_s(), gen_t()], [gen_r(), gen_t()], [gen_r(), gen_s(), gen_t()]):
        graph = s4_nest_graph(gens)
        assert dot_component_count(export_nest_graph(graph)) == graph.component_count


@pytest.mark.parametrize(
    "text",
    [
        "",
        "graph x {\n}\n",
        'digraph "x" {\n  junk\n}\n',
        'digraph "x" {\n  "a" -> "b" [label="t"];\n}\n',  # endpoints never declared
    ],
)
def test_parse_dot_rejects_foreign_documents(text):
    with pytest.raises(ValueError):
        parse_dot(text)


def test_quoting_roundtrip():
    # a quote, a line break in a label and one in the graph name: each
    # statement stays on its one line
    for label, name in [("odd\"name", "nests"), ("a\nb", "nests"), ("t", "n\nm")]:
        dot = export_nest_graph(s4_nest_graph([(label, gen_t())]), name)
        nodes, edges = parse_dot(dot)
        assert len(nodes) == 12
        assert len(edges) == 12 and dot.count("\n") == 1 + 12 + 12 + 1


def test_orbit_and_nest_graphs_share_one_writer():
    # both exporters write any graph the same way; only orbit edges lack aux
    orbit = orbit_graph(named_generators(generate_position([gen_r()])))
    nest = s4_nest_graph([gen_t()])
    for graph in (orbit, nest):
        assert export_orbit_graph(graph, "g") == export_nest_graph(graph, "g")
    assert all(e.aux is None for e in orbit.edges)
    assert "aux=" in export_orbit_graph(nest) and "aux=" not in export_nest_graph(orbit)
