"""Shidoku boards and their symmetry groups.

Enumerates all 288 valid 4x4 boards, builds position/relabeling symmetry
groups by generator closure, computes orbits and Burnside counts, reduces
the action to nest quotient graphs, and searches for minimal complete
symmetry groups (order 192).
"""

from .board import Board, enumerate_all, count_with_ones_configuration, validate
from .perm import Perm, SymmetryElement, gen_r, gen_r2, gen_s, gen_t, relabeling
from .group import (
    ConjugacyClass,
    SymmetryGroup,
    conjugacy_classes,
    direct_product,
    full_group,
    generate,
    generate_position,
    generate_relabel,
    position_group,
    relabel_group,
    trivial_group,
)
from .action import apply, is_complete, is_position_symmetry, orbit_graph, orbits
from .burnside import (
    burnside_orbit_count,
    invariance_table,
    invariant_count,
    relabel_recovery,
)
from .nests import (
    Nest,
    completeness_via_nests,
    h4_canonicalize,
    h4_nest_graph,
    h4_nests,
    s4_canonicalize,
    s4_nest_graph,
    s4_nests,
)
from .search import minimal_order, search_products
from .graphio import export_nest_graph, export_orbit_graph

__all__ = [
    "Board",
    "ConjugacyClass",
    "Nest",
    "Perm",
    "SymmetryElement",
    "SymmetryGroup",
    "apply",
    "burnside_orbit_count",
    "completeness_via_nests",
    "conjugacy_classes",
    "count_with_ones_configuration",
    "direct_product",
    "enumerate_all",
    "export_nest_graph",
    "export_orbit_graph",
    "full_group",
    "gen_r",
    "gen_r2",
    "gen_s",
    "gen_t",
    "generate",
    "generate_position",
    "generate_relabel",
    "h4_canonicalize",
    "h4_nest_graph",
    "h4_nests",
    "invariance_table",
    "invariant_count",
    "is_complete",
    "is_position_symmetry",
    "minimal_order",
    "orbit_graph",
    "orbits",
    "position_group",
    "relabel_group",
    "relabel_recovery",
    "relabeling",
    "s4_canonicalize",
    "s4_nest_graph",
    "s4_nests",
    "search_products",
    "trivial_group",
    "validate",
]
