#!/usr/bin/env python3
"""The shidoku benchmark.

Run from the root of a checkout (no install needed; shidoku is imported
from src/):

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md): reproduce, search, queries, cli.  Each
is a closed loop with one client, in single-threaded processes.  The run
repeats whole passes of the workload for about S seconds, checks every
answer against an independent oracle or a golden output, and prints one
line per metric followed by a last line of JSON:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run adds one traced pass on the same input and reports per-layer metrics.
Exit status is 0 when the run completed (even with wrong answers, which
show in "correct" and "failed"), 2 on a usage error or a checkout without
src/shidoku, 1 when the run could not finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracle
import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
WORKER = BENCH / "worker.py"

#: A run ends within this many seconds, or fails.
RUN_LIMIT_S = 170
#: set-up children per run, spread over the run; setup_s is their median.
SETUP_SAMPLES = 10
#: queries per pass of the queries workload, and per worker process.
QUERY_BLOCK = 100
QUERY_COUNT = 600

#: The cli workload's fixed mix, run in this order every round:
#: (name, arguments, whether a DOT path is appended).  `burnside` takes
#: about twice as long as the rest; as two of the eight invocations it
#: holds the slowest quarter of the ops, so op_p90_ms sits inside its
#: times instead of on the gap between them and the rest.
CLI_MIX = (
    ("enumerate", ["enumerate"], False),
    ("orbits-rtxS4", ["orbits", "--group", "rtxS4"], False),
    ("burnside-stxS4", ["burnside", "--group", "stxS4"], False),
    ("nests-s4", ["nests", "--factor", "s4"], False),
    ("nests-h4", ["nests", "--factor", "h4"], False),
    ("nest-graph-s4", ["nest-graph", "--factor", "s4", "--gens", "s,t", "--dot"], True),
    ("export-full", ["export", "--group", "full", "--dot"], True),
    ("burnside-stxS4-json", ["burnside", "--group", "stxS4", "--format", "json"], False),
)

#: The paper's three minimal complete groups, as generator names of the
#: default pools.
PAPER_MINIMAL = ((("s", "t"), None), (("r", "s"), ("(1 2 3)",)), (("r2", "s", "t"), ("(1 2 3)",)))


class RunFailed(Exception):
    """The run cannot finish: a child hung past the run's time limit, set-up
    failed, or the run was told to stop."""


def _on_alarm(signum, frame):
    raise RunFailed("a child process ran past the run's time limit")


def _on_term(signum, frame):
    raise RunFailed("stopped by a signal")


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    traced: bool
    tmp: Path
    deadline: float
    attempted: int = 0
    failed: int = 0
    #: every untraced pass's (wall, cpu) in nominal seconds (speed.py)
    passes: list[tuple[float, float]] = field(default_factory=list)
    #: every untraced op's nominal seconds
    latencies: list[float] = field(default_factory=list)
    #: the first untraced pass's wall time as measured (for `queries`, its
    #: first block's), beside the traced pass's
    first_wall: float = 0.0
    by_subcommand: dict[str, list[float]] = field(default_factory=dict)
    trace_raw: dict = field(default_factory=dict)
    trace_wall: float = 0.0
    import_s: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    peak_rss_kb: int = 0
    children: int = 0

    def child(self, args: list[str], stdout: Path | None = None) -> tuple[float, float, int, float]:
        """Run `python3 bench/worker.py ARGS` to its end: (wall s, cpu s, exit
        status, perf_counter() at the spawn)."""
        with open(stdout or self.tmp / "stdout", "wb") as out, open(self.tmp / "stderr", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=out, stderr=err, cwd=ROOT)
            try:
                signal.alarm(max(1, math.ceil(self.deadline - time.monotonic())))
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children += 1
        return wall, usage.ru_utime + usage.ru_stime, proc.returncode, start

    def peak_rss(self, kb: int) -> None:
        """A workload process's peak memory, as it reported it; the largest
        counts in peak_rss_mb."""
        self.peak_rss_kb = max(self.peak_rss_kb, kb)

    def add_pass(self, seconds: float, wall: float, cpu: float) -> None:
        """An untraced pass of `seconds` nominal seconds; `wall` and `cpu`
        as measured.  Its CPU time is scaled as its wall time was."""
        if not self.passes:
            self.first_wall = wall
        self.passes.append((seconds, cpu * seconds / wall))

    def sample_setup(self, upto: int) -> None:
        """Time fresh set-up children until there are `upto` samples; taken
        between passes, the samples spread over the run."""
        samples = self.tmp / "setup.speed"
        while len(self.setups) < min(upto, SETUP_SAMPLES):
            samples.unlink(missing_ok=True)
            wall, _, status, start = self.child(["setup", str(samples)])
            if status != 0:
                raise RunFailed("a set-up child failed")
            self.setups.append(speed.Timeline(json.loads(samples.read_text())).seconds(start, start + wall))

    def request(self, mode: str, request: dict) -> dict | None:
        """Run a search or queries worker on REQUEST; its reply, or None if it failed."""
        req, rep = self.tmp / f"{mode}-{self.children}.json", self.tmp / f"{mode}-{self.children}.reply"
        req.write_text(json.dumps(request))
        status = self.child([mode, str(req), str(rep)])[2]
        if status != 0 or not rep.exists():
            return None
        reply = json.loads(rep.read_text())
        self.import_s.append(reply["import_s"])
        self.peak_rss(reply["peak_rss_kb"])
        return reply

    def spans_path(self) -> str:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        return str(out / f"{self.workload}-seed{self.seed}-{self.children}.spans")

    def repeat(self, one_pass) -> None:
        """Untraced passes until the next one would end after `seconds`;
        then, in a traced run, one traced pass on the same input."""
        start, done = time.perf_counter(), 0
        while True:
            if not one_pass(False):
                break
            done += 1
            if not self.traced:
                self.sample_setup(math.ceil(SETUP_SAMPLES * (time.perf_counter() - start) / self.seconds))
            elapsed = time.perf_counter() - start
            if elapsed * (done + 1) / done > self.seconds:
                break
        if self.traced:
            one_pass(True)


def reproduce(run: Run) -> None:
    """A fresh `shidoku verify` per pass; one op is one check, from one
    output line to the next."""
    golden = (GOLDEN / "verify.out").read_bytes()
    expected = golden.decode().splitlines()

    def one_pass(traced: bool) -> bool:
        out, meta_path = run.tmp / "verify.out", run.tmp / "verify.meta"
        meta_path.unlink(missing_ok=True)
        args = ["cli", "--meta", str(meta_path)] + (["--trace"] if traced else []) + ["--", "verify"]
        wall, cpu, status, start = run.child(args, out)
        lines = out.read_text().splitlines()
        wrong = sum(1 for k, line in enumerate(expected) if k >= len(lines) or lines[k] != line)
        wrong = max(wrong, int(out.read_bytes() != golden))  # extra lines, line endings
        if not meta_path.exists():
            run.attempted += len(expected)
            run.failed += len(expected)
            return False
        meta = json.loads(meta_path.read_text())
        run.import_s.append(meta["import_s"])
        if traced:
            run.trace_wall = wall
            run.trace_raw = meta["trace"]
            os.replace(meta_path.with_name(meta_path.name + ".spans"), run.spans_path())
            return True
        run.attempted += len(expected)
        run.failed += wrong or (status != 0)
        run.peak_rss(meta["peak_rss_kb"])
        timeline = speed.Timeline(meta["speed"])
        marks = [meta["ready"], *meta["lines"]]
        run.latencies += [timeline.seconds(a, b) for a, b in zip(marks, marks[1:])]
        run.add_pass(timeline.seconds(start, start + wall), wall, cpu)
        return status == 0

    run.repeat(one_pass)


def _pool_json(pool) -> list:
    return [[name, list(image)] for name, image in pool]


def search(run: Run) -> None:
    """search_products over the default pools plus one seeded extra
    generator in each; every pass is a fresh process, timed around the call
    only.  One op is one distinct product, from one direct_product call to
    the next."""
    position_pool, relabel_pool = inputs.search_pools(run.seed)
    request = {"position_pool": _pool_json(position_pool), "relabel_pool": _pool_json(relabel_pool)}
    replies = []

    def one_pass(traced: bool) -> bool:
        spans = run.spans_path() if traced else None
        reply = run.request("search", {**request, "trace": traced, "spans": spans, "defaults": not replies})
        if reply is None:
            run.attempted += 1
            run.failed += 1
            return False
        if traced:
            run.trace_wall, run.trace_raw = reply["wall"], reply["trace"]
            return True
        replies.append(reply)
        timeline, stamps = speed.Timeline(reply["speed"]), reply["stamps"]
        run.latencies += [timeline.seconds(a[0], b[0]) for a, b in zip(stamps[1:], stamps[2:])]
        first, last = stamps[0], stamps[-1]
        run.add_pass(timeline.seconds(first[0], last[0]), last[0] - first[0], last[1] - first[1])
        return True

    run.repeat(one_pass)
    expected = oracle.expected_search(position_pool, relabel_pool)
    for reply in replies:
        run.attempted += len(expected)
        run.failed += _row_mismatches(reply["rows"], expected)
    if replies:
        defaults = replies[0]["default_rows"]
        expected = oracle.expected_search(inputs.DEFAULT_POSITION_POOL, inputs.DEFAULT_RELABEL_POOL)
        run.attempted += len(expected) + 1
        run.failed += _row_mismatches(defaults, expected) + (not _paper_minimal(defaults))


def _row_mismatches(rows: list[dict], expected: list[dict]) -> int:
    return sum(1 for a, b in zip(rows, expected) if a != b) + abs(len(rows) - len(expected))


def _paper_minimal(rows: list[dict]) -> bool:
    """True iff the minimal complete rows are exactly the paper's three groups."""
    positions = dict(inputs.DEFAULT_POSITION_POOL)
    relabels = dict(inputs.DEFAULT_RELABEL_POOL)

    def group(pos_names, rel_names):
        pos = oracle.closure([positions[n] for n in pos_names], oracle.ID16)
        rel = (
            frozenset(oracle.relabel_group())
            if rel_names is None
            else oracle.closure([relabels[n] for n in rel_names], oracle.ID4)
        )
        return pos, rel

    found = [group(r["position_gens"], r["relabel_gens"]) for r in rows if r["minimal"]]
    return len(found) == 3 and set(found) == {group(p, r) for p, r in PAPER_MINIMAL}


def queries(run: Run) -> None:
    """A warm stream of seeded subgroup queries: generate, orbits and
    is_complete on the group of 1-2 random elements.  Each worker process
    answers the same first QUERY_COUNT queries, so memory and cache growth
    do not depend on the machine's speed.  One op is one query; one pass
    is one worker's QUERY_COUNT queries, timed in blocks of QUERY_BLOCK
    (so that a traced pass of one block compares with the first)."""
    request = {"seed": run.seed, "block": QUERY_BLOCK, "count": QUERY_COUNT, "trace": False}
    replies = []

    def one_pass(traced: bool) -> bool:
        if traced:
            # only the first block, to compare with the first untraced pass
            reply = run.request("queries", {**request, "count": QUERY_BLOCK, "trace": True, "spans": run.spans_path()})
            if reply is not None:
                block = reply["passes"][0]
                run.trace_wall, run.trace_raw = block[1] - block[0], reply["trace"]
            return True
        reply = run.request("queries", request)
        if reply is None:
            run.attempted += 1
            run.failed += 1
            return False
        replies.append(reply)
        timeline, blocks = speed.Timeline(reply["speed"]), reply["passes"]
        run.latencies += [timeline.seconds(a, b) for a, b, _ in reply["op_times"]]
        seconds = sum(timeline.seconds(a, b) for a, b in blocks)
        run.add_pass(seconds, sum(b - a for a, b in blocks), sum(cpu for _, _, cpu in reply["op_times"]))
        if len(run.passes) == 1:
            run.first_wall = blocks[0][1] - blocks[0][0]
        return True

    run.repeat(one_pass)
    index = oracle.ElementIndex()
    known: dict[frozenset, tuple] = {}
    stream = inputs.query_stream(run.seed)
    expected = []
    for _ in range(QUERY_COUNT):
        gens = [inputs.element(k) for k in next(stream)]
        group = index.closure(gens)
        if group not in known:
            known[group] = oracle.orbit_answer(gens)
        expected.append([len(group), list(known[group][0]), known[group][1]])
    for reply in replies:
        run.attempted += len(expected)
        run.failed += _row_mismatches(reply["answers"], expected)


def cli(run: Run) -> None:
    """Rounds of the fixed CLI_MIX, each invocation a fresh interpreter.
    One op is one invocation, spawn to exit; one pass is one round."""

    def one_pass(traced: bool) -> bool:
        seconds = wall = cpu = 0.0
        for name, args, dot in CLI_MIX:
            out, dot_path, meta_path = run.tmp / f"{name}.out", run.tmp / f"{name}.dot", run.tmp / f"{name}.meta"
            for path in (dot_path, meta_path):
                path.unlink(missing_ok=True)
            options = ["--meta", str(meta_path)] + (["--trace"] if traced else [])
            child_wall, child_cpu, status, start = run.child(
                ["cli", *options, "--", *args, *([str(dot_path)] if dot else [])], out
            )
            wall, cpu = wall + child_wall, cpu + child_cpu
            if traced:
                if meta_path.exists():
                    meta = json.loads(meta_path.read_text())
                    run.import_s.append(meta["import_s"])
                    run.trace_raw = tracing.add_raw(run.trace_raw, meta["trace"])
                    os.replace(meta_path.with_name(meta_path.name + ".spans"), run.spans_path())
                continue
            right = meta_path.exists() and status == 0
            right = right and out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()
            if dot:
                right = right and dot_path.exists() and dot_path.read_bytes() == (GOLDEN / f"{name}.dot").read_bytes()
            run.attempted += 1
            run.failed += not right
            if not right:
                continue
            meta = json.loads(meta_path.read_text())
            run.peak_rss(meta["peak_rss_kb"])
            latency = speed.Timeline(meta["speed"]).seconds(start, start + child_wall)
            run.latencies.append(latency)
            seconds += latency
            run.by_subcommand.setdefault(args[0], []).append(child_wall)
        if traced:
            run.trace_wall = wall
        else:
            run.add_pass(seconds, wall, cpu)
        return True

    run.repeat(one_pass)


WORKLOADS = {"reproduce": reproduce, "search": search, "queries": queries, "cli": cli}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(run: Run) -> dict[str, tuple[float, str, str]]:
    """Times are in nominal seconds (speed.py)."""
    walls = [wall for wall, _ in run.passes]
    n = len(run.latencies)
    note = f"median of {len(walls)} passes"
    return {
        "wall_s": (statistics.median(walls), "s", note),
        "cpu_s": (statistics.median(cpu for _, cpu in run.passes), "s", note),
        "ops_per_s": (n / sum(walls), "1/s", f"{n} ops"),
        "op_p50_ms": (percentile(run.latencies, 50) * 1000, "ms", f"n={n}"),
        "op_p90_ms": (percentile(run.latencies, 90) * 1000, "ms", f"n={n}, {n - math.ceil(0.9 * n)} above"),
        "setup_s": (statistics.median(run.setups), "s", f"median of {len(run.setups)} fresh interpreters"),
        "peak_rss_mb": (run.peak_rss_kb / 1024, "MB", "largest workload process"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str, str]]:
    out = {name: (value, unit, "") for name, (value, unit) in tracing.metrics(run.trace_raw).items()}
    out["cli.import_s"] = (statistics.median(run.import_s) if run.import_s else 0.0, "s", "median")
    for sub in tracing.CLI_SUBCOMMANDS:
        samples = run.by_subcommand.get(sub, [])
        out[f"cli.{sub}_p50_ms"] = (statistics.median(samples) * 1000 if samples else 0.0, "ms", f"n={len(samples)}")
    untraced = run.first_wall
    out["trace.traced_wall_s"] = (run.trace_wall, "s", "one traced pass")
    out["trace.untraced_wall_s"] = (untraced, "s", "first untraced pass, same input")
    out["trace.overhead_s"] = (run.trace_wall - untraced, "s", "traced minus untraced")
    out["trace.spans"] = (run.trace_raw.get("spans", 0), "count", "")
    return out


def stamp() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shidoku").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or "none"
    return (
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"loadavg {os.getloadavg()[0]:.2f}, commit {commit}, src sha256 {digest.hexdigest()[:12]}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shidoku" / "__init__.py").is_file():
        print(f"error: no shidoku sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    missing = [p for p in ["verify.out", *(f"{n}.out" for n, _, _ in CLI_MIX)] if not (GOLDEN / p).is_file()]
    if missing:
        print(f"error: golden outputs missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), tmp, time.monotonic() + RUN_LIMIT_S)
    try:
        run.child(["cli", "--", "enumerate"])  # compiles bytecode before any timing
        WORKLOADS[args.workload](run)
        if not run.traced:
            run.sample_setup(SETUP_SAMPLES)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if run.failed:
            sys.stderr.write((tmp / "stderr").read_text()[-4000:])
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()
    if not run.passes:
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1
    if run.traced and not run.trace_raw:
        run.attempted += 1
        run.failed += 1

    metrics = per_layer(run) if run.traced else end_to_end(run)
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print(stamp())
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit:6s} {note}")
    error_rate = run.failed / run.attempted
    print(f"  {'error_rate':34s} {error_rate:14.6f} {'1':6s} {run.failed} failed of {run.attempted} attempted")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
