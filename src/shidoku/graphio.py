"""DOT serialization for orbit graphs and nest graphs.

Output is byte-stable for identical inputs: nodes and edges are emitted
in a fixed order, one statement per line.  Figures are reproduced
structurally (nodes, labeled edges, components); layout is left to the
renderer.  Involution generators get arrowless edges (dir=none).
"""

from __future__ import annotations

from .action import OrbitGraph
from .nests import NestGraph


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_orbit_graph(graph: OrbitGraph, name: str = "orbits") -> str:
    """DOT text with one node per board (id = board string) and one edge
    per (board, generator) application, self-loops included."""
    lines = [f"digraph {_quote(name)} {{"]
    for b in sorted(graph.nodes):
        lines.append(f"  {_quote(b.text)};")
    for e in sorted(graph.edges, key=lambda e: (e.src, e.label, e.dst)):
        attrs = [f"label={_quote(e.label)}"]
        if not e.directed:
            attrs.append("dir=none")
        lines.append(f"  {_quote(e.src.text)} -> {_quote(e.dst.text)} [{', '.join(attrs)}];")
    lines.append("}")
    return "".join(line + "\n" for line in lines)


def export_nest_graph(graph: NestGraph, name: str = "nests") -> str:
    """DOT text with nest labels as node ids; edges carry the generator
    label and, when present, the correcting auxiliary symmetry."""
    lines = [f"digraph {_quote(name)} {{"]
    for n in graph.nests:
        lines.append(f"  {_quote(n.label)};")
    for e in sorted(graph.edges, key=lambda e: (e.src, e.label, e.dst)):
        attrs = [f"label={_quote(e.label)}"]
        if e.aux is not None:
            attrs.append(f"aux={_quote(e.aux.cycle_notation())}")
        if not e.directed:
            attrs.append("dir=none")
        lines.append(f"  {_quote(e.src)} -> {_quote(e.dst)} [{', '.join(attrs)}];")
    lines.append("}")
    return "".join(line + "\n" for line in lines)

