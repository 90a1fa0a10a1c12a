"""DOT serialization for orbit graphs and nest graphs.

Output is byte-stable for identical inputs: nodes and edges are emitted
in a fixed order, one statement per line.  Figures are reproduced
structurally (nodes, labeled edges, components); layout is left to the
renderer.  Involution generators get arrowless edges (dir=none).
"""

from __future__ import annotations

from .action import Graph


def _quote(s: str) -> str:
    s = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")
    return f'"{s}"'


def _dot(graph: Graph, name: str) -> str:
    """Nodes sorted, node id str(node); edges sorted by (src, label, dst),
    each with its label, its aux when set and dir=none for an involution."""
    ids = {n: _quote(str(n)) for n in sorted(graph.nodes)}
    lines = [f"digraph {_quote(name)} {{", *(f"  {i};" for i in ids.values())]
    for e in sorted(graph.edges, key=lambda e: (e.src, e.label, e.dst)):
        attrs = [f"label={_quote(e.label)}"]
        if e.aux is not None:
            attrs.append(f"aux={_quote(e.aux.cycle_notation())}")
        if not e.directed:
            attrs.append("dir=none")
        lines.append(f"  {ids[e.src]} -> {ids[e.dst]} [{', '.join(attrs)}];")
    lines.append("}")
    return "".join(line + "\n" for line in lines)


def export_orbit_graph(graph: Graph, name: str = "orbits") -> str:
    """DOT text with one node per board (id = board string) and one edge
    per (board, generator) application, self-loops included."""
    return _dot(graph, name)


def export_nest_graph(graph: Graph, name: str = "nests") -> str:
    """DOT text with nest labels as node ids; edges carry the generator
    label and, when present, the correcting auxiliary symmetry."""
    return _dot(graph, name)
