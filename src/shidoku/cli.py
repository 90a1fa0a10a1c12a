"""Command-line interface.

Subcommands: enumerate, orbits, burnside, nests, nest-graph, search,
export, verify.  All output is deterministic; exit codes are 0 (success),
1 (verification failure), 2 (usage or parse error).

Group specs are shorthand names (`full`, `trivial`, `H4`, `S4`, `st`,
`rs`, `rt`, `r2st`, `c123`), a product `<position>x<relabel>` of factor
shorthands (e.g. `stxS4`, `r2stxc123`), or a path to a group description
file (`generators:` header, then `pos=<cycles>; rel=<cycles>` lines).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Iterable

from .board import enumerate_all
from .perm import Perm, perm_label, standard_position_generators
from .group import (
    GROUP_SHORTHANDS,
    SymmetryGroup,
    generate,
    generate_position,
    named_group,
    parse_group_description,
)
from .action import element_label, is_position_symmetry, orbit_graph, orbits
from .burnside import burnside_orbit_count, invariance_table
from .graphio import export_nest_graph, export_orbit_graph
from .nests import h4_nest_graph, h4_nests, s4_nest_graph, s4_nests
from .search import parse_pool_file, search_products


class CliError(Exception):
    """Usage or parse error: exits with status 2."""


def _check_position_symmetries(source: str, perms: Iterable[Perm]) -> None:
    """Reject any cell permutation from source that breaks some board."""
    for p in perms:
        if not p.is_identity and not is_position_symmetry(p):
            raise CliError(
                f"{source}: {p.cycle_notation()} is not a valid position "
                "symmetry (it breaks some board)"
            )


def resolve_group(spec: str) -> SymmetryGroup:
    group = named_group(spec)
    if group is not None:
        return group
    path = Path(spec)
    if spec and path.exists():
        try:
            gens = parse_group_description(path.read_text())
        except ValueError as exc:
            raise CliError(f"{spec}: {exc}") from exc
        _check_position_symmetries(spec, (e.pos for e in gens))
        return generate(gens)
    raise CliError(
        f"unknown group spec {spec!r}; use one of {', '.join(GROUP_SHORTHANDS)}, a "
        "<position>x<relabel> product, or a group description file path"
    )


def _parse_relabel_token(token: str) -> Perm:
    """The relabeling a cycle token names; digits may be packed, e.g. '(123)' == '(1 2 3)'.
    Only a token of whole packed cycles is unpacked: any other goes to
    Perm.from_cycles as given, which rejects malformed notation."""
    text = token.strip()
    if re.fullmatch(r"(\([0-9]*\))+", text):
        text = "".join("(" + " ".join(part) + ")" for part in re.findall(r"\(([0-9]*)\)", text))
    try:
        return Perm.from_cycles(text, 4)
    except ValueError as exc:
        raise CliError(f"bad relabeling token {token!r}: {exc}") from exc


def _parse_position_token(token: str) -> Perm:
    standard = dict(standard_position_generators())
    if token not in standard:
        raise CliError(f"unknown position generator {token!r}; use {', '.join(standard)}")
    return standard[token]


def _emit(args, payload: dict, lines: Iterable[str]) -> int:
    """Print the payload as JSON, or its text lines; the exit status."""
    if args.format == "json":
        import json  # here, so that text output never loads it

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def cmd_enumerate(args) -> int:
    boards = [b.text for b in enumerate_all()]
    return _emit(args, {"boards": boards}, boards)


def cmd_orbits(args) -> int:
    blocks = orbits(resolve_group(args.group)).blocks
    rows = [{"size": len(block), "min": block[0].text} for block in blocks]
    lines = (f"block {k}: size {r['size']}, min {r['min']}" for k, r in enumerate(rows, start=1))
    return _emit(args, {"blocks": rows}, lines)


def cmd_burnside(args) -> int:
    g = resolve_group(args.group)
    # the position parts of g's generators generate its position projection
    table = invariance_table(generate_position(e.pos for e in g.generators))
    rows = [
        {"size": len(cls), "rep": min(cls).pos.cycle_notation() or "()", "invariant": n}
        for cls, n in table
    ]
    payload = {
        "classes": rows,
        "order": g.order,
        "orbits_burnside": burnside_orbit_count(g),
        "orbits_direct": orbits(g).block_count,
    }
    lines = [
        f"class {k}: size {r['size']}, rep {r['rep']}, "
        f"invariant {r['invariant'] // 24}*4! ({r['invariant']})"
        for k, r in enumerate(rows, start=1)
    ] + [
        f"group order: {payload['order']}",
        f"orbit count (burnside): {payload['orbits_burnside']}",
        f"orbit count (direct): {payload['orbits_direct']}",
    ]
    return _emit(args, payload, lines)


def cmd_nests(args) -> int:
    # here and in cmd_nest_graph the nest functions are looked up on this
    # module at call time, so one rebound on it (by a tracer) is the one called
    nests = s4_nests() if args.factor == "s4" else h4_nests()
    rows = [{"label": n.label, "size": n.size, "rep": n.representative.text} for n in nests]
    lines = (f"nest {r['label']}: size {r['size']}, rep {r['rep']}" for r in rows)
    return _emit(args, {"nests": rows}, lines)


def cmd_nest_graph(args) -> int:
    s4 = args.factor == "s4"
    parse_token = _parse_position_token if s4 else _parse_relabel_token
    gens = [parse_token(token.strip()) for token in args.gens.split(",") if token.strip()]
    graph = (s4_nest_graph if s4 else h4_nest_graph)(gens)
    if args.dot is not None:
        name = f"{args.factor}-nests[{','.join(map(perm_label, gens))}]"
        Path(args.dot).write_text(export_nest_graph(graph, name))
    blocks = graph.components()
    payload = {"components": len(blocks), "blocks": blocks}
    return _emit(args, payload, [f"components: {len(blocks)}"])


def _read_pool(path: str | None, degree: int):
    if path is None:
        return None
    try:
        return parse_pool_file(Path(path).read_text(), degree)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_search(args) -> int:
    position_pool = _read_pool(args.position_pool, 16)
    relabel_pool = _read_pool(args.relabel_pool, 4)
    if position_pool is not None:
        _check_position_symmetries(args.position_pool, (p for _, p in position_pool))
    rows = [
        {
            "position_gens": list(res.position_names),
            "relabel_gens": list(res.relabel_names),
            "order": res.order,
            "orbits": res.orbit_count,
            "complete": res.complete,
            "minimal": res.minimal,
        }
        for res in search_products(position_pool, relabel_pool)
    ]
    rows = [r for r in rows if r["minimal"] or not args.minimal_only]
    yes = {True: "yes", False: "no"}
    lines = (
        f"pos={','.join(r['position_gens']) or '-'} rel={','.join(r['relabel_gens']) or '-'} "
        f"order={r['order']} orbits={r['orbits']} "
        f"complete={yes[r['complete']]} minimal={yes[r['minimal']]}"
        for r in rows
    )
    return _emit(args, {"results": rows}, lines)


def cmd_export(args) -> int:
    gens = resolve_group(args.group).generators
    name = f"orbits[{','.join(map(element_label, gens))}]"
    Path(args.dot).write_text(export_orbit_graph(orbit_graph(gens), name))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_checks  # here, so that no other subcommand loads it

    return 0 if run_checks(print) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shidoku",
        description="Enumerate Shidoku boards and analyze their symmetry groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, formats: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if formats:
            p.add_argument(
                "--format", choices=("text", "json"), default="text", help="output format"
            )
        return p

    add("enumerate", cmd_enumerate, "print all 288 boards in canonical order")

    p = add("orbits", cmd_orbits, "print the orbit report for a group")
    p.add_argument("--group", required=True, help="group spec (see --help)")

    p = add("burnside", cmd_burnside, "print the invariance table and orbit count")
    p.add_argument("--group", required=True, help="group spec (see --help)")

    p = add("nests", cmd_nests, "print the nest report for one factor")
    p.add_argument("--factor", choices=("s4", "h4"), required=True)

    p = add("nest-graph", cmd_nest_graph, "component count of an induced nest graph")
    p.add_argument("--factor", choices=("s4", "h4"), required=True)
    p.add_argument(
        "--gens",
        default="",
        help="comma-separated generators: r,r2,s,t for s4; cycles like (12),(123) for h4",
    )
    p.add_argument("--dot", help="also write the graph as DOT to this path")

    p = add("search", cmd_search, "search product-form subgroups for complete groups")
    p.add_argument("--position-pool", help="pool file of position generators")
    p.add_argument("--relabel-pool", help="pool file of relabeling generators")
    p.add_argument("--minimal-only", action="store_true", help="only order-192 complete results")

    p = add("export", cmd_export, "write a group's orbit graph as DOT", formats=False)
    p.add_argument("--group", required=True, help="group spec (see --help)")
    p.add_argument("--dot", required=True, help="output path")

    add("verify", cmd_verify, "run the full reproduction suite", formats=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        sys.stderr.close()
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
