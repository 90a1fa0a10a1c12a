"""Child process of the shidoku benchmark; run.py starts it, one process
per fresh interpreter the workload needs.  Run from a checkout's root:

  python3 bench/worker.py setup SPEED
      import shidoku, build the board list and the full partition, write
      the speedometer's samples (speed.py) to SPEED, exit
  python3 bench/worker.py cli [--meta FILE [--trace]] -- ARGS...
      the launcher: run `shidoku ARGS` through shidoku.cli.main; --meta
      runs the speedometer (speed.py) and writes its samples, the import
      time, peak memory, when main was called and when each output line
      was written to FILE; --trace installs the tracer instead and adds
      its sums to FILE
  python3 bench/worker.py search REQUEST REPLY
  python3 bench/worker.py queries REQUEST REPLY
      time search_products / a stream of subgroup queries on the inputs
      in the REQUEST file and write answers, timings and, when not traced,
      the speedometer's samples to REPLY

shidoku is imported from the checkout's src/ directory, never from an
installed copy.  Timings use time.perf_counter, which on Linux is the
system-wide monotonic clock, so the parent can compare them with its own;
CPU times use time.process_time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def _import_cli() -> float:
    """Import shidoku.cli (and so every module) from SRC; returns the time."""
    start = time.perf_counter()
    import shidoku.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    _check_source()
    return elapsed


def _check_source() -> None:
    import shidoku

    if not Path(shidoku.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"shidoku imported from {shidoku.__file__}, not from {SRC}")


def _tracer(enabled):
    if not enabled:
        return None
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _finish_trace(tracer, spans_path: str | None) -> dict | None:
    if tracer is None:
        return None
    tracer.write_spans(spans_path)
    return tracer.raw()


def _peak_rss_kb() -> int:
    """This process's peak resident memory since it started the worker
    (VmHWM).  getrusage's maxrss would also count the parent's memory at
    the fork that started it."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def setup() -> None:
    import shidoku
    from shidoku.action import full_partition

    _check_source()
    shidoku.enumerate_all()
    full_partition()


def _stamp() -> list[float]:
    """[wall, cpu] now."""
    return [time.perf_counter(), time.process_time()]


class _LineTimes:
    """Stream proxy that records perf_counter() at every newline written."""

    def __init__(self, stream, times: list[float]):
        self._stream = stream
        self._times = times

    def write(self, text: str) -> int:
        written = self._stream.write(text)
        self._times.extend(time.perf_counter() for _ in range(text.count("\n")))
        return written

    def __getattr__(self, name):
        return getattr(self._stream, name)


def cli(argv: list[str]) -> int:
    options, args = argv[: argv.index("--")], argv[argv.index("--") + 1 :]
    meta_path = options[options.index("--meta") + 1] if "--meta" in options else None
    speedometer = speed.Speedometer() if meta_path is not None and "--trace" not in options else None
    if speedometer is not None:
        speedometer.start()
    import_s = _import_cli()
    import shidoku.cli

    tracer = _tracer("--trace" in options)
    main = shidoku.cli.main if tracer is None else tracer.span("cli.main", shidoku.cli.main)
    lines: list[float] = []
    if meta_path is not None:
        sys.stdout = _LineTimes(sys.stdout, lines)
    ready = time.perf_counter()
    status = main(args)
    sys.stdout.flush()
    if meta_path is not None:
        meta = {
            "import_s": import_s,
            "ready": ready,
            "lines": lines,
            "speed": speedometer.stop() if speedometer is not None else None,
            "peak_rss_kb": _peak_rss_kb(),
            "trace": _finish_trace(tracer, meta_path + ".spans"),
        }
        Path(meta_path).write_text(json.dumps(meta))
    return status


def search(request: dict) -> dict:
    from shidoku import search as search_module
    from shidoku.perm import Perm

    tracer = _tracer(request["trace"])
    setup()
    pools = [
        tuple((name, Perm(tuple(image))) for name, image in pool)
        for pool in (request["position_pool"], request["relabel_pool"])
    ]
    stamps: list[list[float]] = []
    direct_product = search_module.direct_product

    def timed_direct_product(*args):
        stamps.append(_stamp())
        if tracer is not None:
            tracer.op = len(stamps)
        return direct_product(*args)

    search_module.direct_product = timed_direct_product
    start = _stamp()
    results = search_module.search_products(*pools)
    end = _stamp()
    search_module.direct_product = direct_product
    reply = {
        "wall": end[0] - start[0],
        "stamps": [start, *stamps, end],
        "rows": _rows(results),
        "trace": _finish_trace(tracer, request.get("spans")),
    }
    if request.get("defaults"):
        reply["default_rows"] = _rows(search_module.search_products())
    return reply


def _rows(results) -> list[dict]:
    return [
        {
            "position_gens": list(res.position_names),
            "relabel_gens": list(res.relabel_names),
            "order": res.order,
            "orbits": res.orbit_count,
            "complete": res.complete,
            "minimal": res.minimal,
        }
        for res in results
    ]


def queries(request: dict) -> dict:
    """Answer the first `count` queries of the seeded stream, in blocks of
    `block` queries; every query and block is timed from its start to its
    end (for a query, with its CPU time)."""
    tracer = _tracer(request["trace"])
    from inputs import element, query_stream
    from shidoku.action import is_complete, orbits  # bound after the tracer is installed
    from shidoku.group import generate
    from shidoku.perm import Perm, SymmetryElement

    setup()
    stream = query_stream(request["seed"])
    block = request["block"]
    answers, latencies, passes = [], [], []
    while len(answers) < request["count"]:
        batch = [
            [SymmetryElement(Perm(pos), Perm(rel)) for pos, rel in map(element, next(stream))]
            for _ in range(block)
        ]
        start = time.perf_counter()
        for gens in batch:
            if tracer is not None:
                tracer.op = len(answers)
            t0 = _stamp()
            group = generate(gens)
            partition = orbits(group)
            complete = is_complete(group)
            t1 = _stamp()
            latencies.append([t0[0], t1[0], t1[1] - t0[1]])
            answers.append([group.order, list(partition.sizes()), complete])
        passes.append([start, time.perf_counter()])
    return {
        "passes": passes,
        "op_times": latencies,
        "answers": answers,
        "trace": _finish_trace(tracer, request.get("spans")),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        speedometer = speed.Speedometer()
        speedometer.start()
        setup()
        Path(argv[1]).write_text(json.dumps(speedometer.stop()))
        return 0
    if mode == "cli":
        return cli(argv[1:])
    request = json.loads(Path(argv[1]).read_text())
    speedometer = None if request["trace"] else speed.Speedometer()
    if speedometer is not None:
        speedometer.start()
    import_s = _import_cli()
    reply = {"search": search, "queries": queries}[mode](request)
    reply["speed"] = speedometer.stop() if speedometer is not None else None
    reply["import_s"] = import_s
    reply["peak_rss_kb"] = _peak_rss_kb()
    Path(argv[2]).write_text(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
