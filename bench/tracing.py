"""Tracing for the benchmark's traced runs, installed from outside shidoku.

Coarse public entry points get spans (name, start, end, parent span, op
id); hot per-call functions get counters, because a span per call would
measure the tracer.  Modules bind each other's functions with
`from .x import f`, so every wrapper is installed at every binding site:
each shidoku module attribute that is the original function is replaced.

In a child process:  tracer = Tracer(); install(tracer); ...run...;
tracer.raw() gives additive sums that the parent adds up over children
and turns into per-layer metrics with metrics().
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

#: (module, function) -> span name.
SPANS = {
    ("board", "enumerate_all"): "board.enumerate",
    ("group", "generate"): "group.generate",
    ("group", "conjugacy_classes"): "group.conjugacy",
    ("group", "direct_product"): "group.direct_product",
    ("action", "orbits"): "action.orbits",
    ("action", "is_complete"): "action.is_complete",
    ("action", "orbit_graph"): "action.orbit_graph",
    ("burnside", "fixed_points"): "burnside.fixed_points",
    ("burnside", "burnside_orbit_count"): "burnside.burnside_count",
    ("burnside", "invariance_table"): "burnside.invariance_table",
    ("nests", "s4_nests"): "nests.nests",
    ("nests", "h4_nests"): "nests.nests",
    ("nests", "s4_nest_graph"): "nests.nest_graph",
    ("nests", "h4_nest_graph"): "nests.nest_graph",
    ("nests", "completeness_via_nests"): "nests.completeness_via_nests",
    ("search", "search_products"): "search.search_products",
    ("graphio", "export_orbit_graph"): "graphio.export",
    ("graphio", "export_nest_graph"): "graphio.export",
}

#: The action's entry points; a call made from inside another one is the
#: same application and is not counted again.
APPLY_FUNCTIONS = ("apply", "apply_values", "position_apply")

LAYERS = ("board", "group", "action", "burnside", "nests", "search", "graphio", "verify", "cli")

VERIFY_CHECKS = (
    "board-count",
    "group-orders",
    "full-group-orbits",
    "rotation-transpose-product",
    "complete-products",
    "swap-transpose-classes",
    "burnside-cross-check",
    "nests",
    "nest-graph-components",
    "quotient-consistency",
    "fixing-rules",
    "ones-configuration",
    "action-and-relations",
    "pinned-examples",
)

CLI_SUBCOMMANDS = ("enumerate", "orbits", "burnside", "nests", "nest-graph", "export")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.elements: set = set()
        self._apply_depth = 0

    def span(self, name: str, fn, after=None, op=None):
        """Wrap fn in a span; after(args, kwargs, result) runs on return,
        and a given op id is set when the span starts."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if op is not None:
                self.op = op
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def apply_counter(self, fn, element_of):
        def counted(first, *args, **kwargs):
            if self._apply_depth == 0:
                self.counts["action.apply"] += 1
                self.elements.add(element_of(first))
            self._apply_depth += 1
            try:
                return fn(first, *args, **kwargs)
            finally:
                self._apply_depth -= 1

        counted.__wrapped__ = fn
        return counted

    def union_counter(self, union, find):
        counts = self.counts

        def counted(uf, x, y):
            counts["unionfind.union"] += 1
            if find(uf, x) != find(uf, y):
                counts["unionfind.merged"] += 1
            return union(uf, x, y)

        counted.__wrapped__ = union
        return counted

    def raw(self) -> dict:
        """Additive sums over this process: inclusive time per span name
        (a span inside one of the same name is not added again), span
        counts, self time per layer, and the counters."""
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        self_time: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_time[name.split(".")[0]] += end - start - child_time[k]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                inclusive[name] += end - start
        return {
            "inclusive_s": dict(inclusive),
            "calls": dict(calls),
            "self_s": dict(self_time),
            "counts": dict(self.counts),
            "distinct_elements": len(self.elements),
            "spans": len(self.spans),
        }

    def write_spans(self, path: str) -> None:
        """One JSON list [name, start, end, parent, op] per line."""
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def _shidoku_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "shidoku" or name.startswith("shidoku.")]


def _rebind(original, wrapper) -> None:
    for module in _shidoku_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Install every span and counter at every binding site in shidoku."""
    import shidoku.cli  # noqa: F401  (loads every module, verify included)
    from shidoku import search, verify
    from shidoku.perm import Perm
    from shidoku.unionfind import UnionFind

    modules = {m.__name__.rpartition(".")[2]: m for m in _shidoku_modules()}
    default_sizes = (len(search.default_position_pool()), len(search.default_relabel_pool()))

    def closure_yield(args, kwargs, group):
        if group.generators:
            tracer.counts["group.closure_new"] += group.order - 1
            tracer.counts["group.closure_products"] += group.order * len(group.generators)

    def search_products(args, kwargs, results):
        pools = [
            args[k] if len(args) > k else kwargs.get(key)
            for k, key in enumerate(("position_pool", "relabel_pool"))
        ]
        sizes = [len(pool) if pool is not None else default for pool, default in zip(pools, default_sizes)]
        tracer.counts["search.products"] += len(results)
        tracer.counts["search.pairs"] += 2 ** sizes[0] * 2 ** sizes[1]

    def dot_bytes(args, kwargs, text):
        tracer.counts["graphio.dot_bytes"] += len(text.encode())

    after = {
        "group.generate": closure_yield,
        "search.search_products": search_products,
        "graphio.export": dot_bytes,
    }
    for (module, fn), name in SPANS.items():
        original = getattr(modules[module], fn)
        _rebind(original, tracer.span(name, original, after.get(name)))

    for check in verify.all_checks():
        _rebind(check.run, tracer.span(f"verify.{check.name}", check.run, op=check.number))

    def element_key(e):
        if isinstance(e, Perm):
            return e.image, (1, 2, 3, 4)
        return e.pos.image, e.rel.image

    for fn in APPLY_FUNCTIONS:
        original = getattr(modules["action"], fn)
        _rebind(original, tracer.apply_counter(original, element_key))
    _rebind(
        modules["burnside"].relabel_recovery,
        tracer.counter("burnside.relabel_recovery", modules["burnside"].relabel_recovery),
    )
    Perm.__mul__ = tracer.counter("perm.mul", Perm.__mul__)
    find = UnionFind.find
    UnionFind.union = tracer.union_counter(UnionFind.union, find)
    UnionFind.find = tracer.counter("unionfind.find", find)


def add_raw(total: dict, raw: dict) -> dict:
    """Sum two raw() results."""
    out = {}
    for key in set(total) | set(raw):
        a, b = total.get(key), raw.get(key)
        if isinstance(a, dict) or isinstance(b, dict):
            a, b = a or {}, b or {}
            out[key] = {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}
        else:
            out[key] = (a or 0) + (b or 0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from summed raw() results: name -> (value, unit)."""
    inc, calls, counts = raw.get("inclusive_s", {}), raw.get("calls", {}), raw.get("counts", {})
    self_s = raw.get("self_s", {})
    out = {
        "board.enumerate_s": (inc.get("board.enumerate", 0.0), "s"),
        "perm.mul_calls": (counts.get("perm.mul", 0), "count"),
        "group.generate_s": (inc.get("group.generate", 0.0), "s"),
        "group.generate_calls": (calls.get("group.generate", 0), "count"),
        "group.closure_yield": (
            _ratio(counts.get("group.closure_new", 0), counts.get("group.closure_products", 0)),
            "ratio",
        ),
        "group.conjugacy_s": (inc.get("group.conjugacy", 0.0), "s"),
        "group.direct_product_s": (inc.get("group.direct_product", 0.0), "s"),
        "action.apply_calls": (counts.get("action.apply", 0), "count"),
        "action.orbits_s": (inc.get("action.orbits", 0.0), "s"),
        "action.orbits_calls": (calls.get("action.orbits", 0), "count"),
        "action.is_complete_s": (inc.get("action.is_complete", 0.0), "s"),
        "action.orbit_graph_s": (inc.get("action.orbit_graph", 0.0), "s"),
        "action.distinct_elements": (raw.get("distinct_elements", 0), "count"),
        "unionfind.find_calls": (counts.get("unionfind.find", 0), "count"),
        "unionfind.union_calls": (counts.get("unionfind.union", 0), "count"),
        "unionfind.merge_ratio": (
            _ratio(counts.get("unionfind.merged", 0), counts.get("unionfind.union", 0)),
            "ratio",
        ),
        "burnside.fixed_points_s": (inc.get("burnside.fixed_points", 0.0), "s"),
        "burnside.fixed_points_calls": (calls.get("burnside.fixed_points", 0), "count"),
        "burnside.burnside_count_s": (inc.get("burnside.burnside_count", 0.0), "s"),
        "burnside.invariance_table_s": (inc.get("burnside.invariance_table", 0.0), "s"),
        "burnside.relabel_recovery_calls": (counts.get("burnside.relabel_recovery", 0), "count"),
        "nests.nests_s": (inc.get("nests.nests", 0.0), "s"),
        "nests.nest_graph_s": (inc.get("nests.nest_graph", 0.0), "s"),
        "nests.completeness_via_nests_s": (inc.get("nests.completeness_via_nests", 0.0), "s"),
        "search.search_products_s": (inc.get("search.search_products", 0.0), "s"),
        "search.products_evaluated": (counts.get("search.products", 0), "count"),
        "search.dedupe_ratio": (
            _ratio(counts.get("search.products", 0), counts.get("search.pairs", 0)),
            "ratio",
        ),
        "graphio.export_s": (inc.get("graphio.export", 0.0), "s"),
        "graphio.dot_bytes": (counts.get("graphio.dot_bytes", 0), "bytes"),
    }
    for check in VERIFY_CHECKS:
        out[f"verify.{check}_s"] = (inc.get(f"verify.{check}", 0.0), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return out
