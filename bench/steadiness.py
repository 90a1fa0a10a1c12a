"""Steadiness record: run ten seeds per workload, twice, and compare.

  python3 bench/steadiness.py run OUT.json [--first-seed 11]
      ten --trace 0 runs per workload, one seed each; writes every run's
      end-to-end metrics and the machine's stamp to OUT.json
  python3 bench/steadiness.py table A.json B.json
      prints the record kept in bench/STEADINESS.md: for each workload and
      end-to-end metric, both sets' medians and spreads beside the bound,
      and how much worse set B's median is than set A's

The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.  Bounds and
run length come from BENCHMARK.json at the checkout's root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def run_set(spec: dict, out: Path, first_seed: int) -> None:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    seeds = list(range(first_seed, first_seed + RUNS))
    record = {
        "stamp": f"python {platform.python_version()}, nproc {os.cpu_count()}, commit "
        f"{commit.stdout.strip() or 'none'}, loadavg at start {os.getloadavg()[0]:.2f}, "
        f"{RUNS} runs of {spec['run_seconds']} s per workload, seeds {seeds[0]}..{seeds[-1]}",
        "runs": {},
    }
    started = time.time()
    for workload in (w["name"] for w in spec["workloads"]):
        runs = record["runs"][workload] = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds]
        record["end"] = f"loadavg at end {os.getloadavg()[0]:.2f}, {time.time() - started:.0f} s in all"
        out.write_text(json.dumps(record, indent=1))
        for m in spec["end_to_end"]:
            median, share = spread([r[m["name"]] for r in runs])
            print(f"{workload} {m['name']}: median {median:.4g}, spread {share:.3f}, bound {m['bound']}", flush=True)


def table(spec: dict, path_a: Path, path_b: Path) -> None:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    print(f"- set A (`{path_a.name}`): {a['stamp']}; {a['end']}")
    print(f"- set B (`{path_b.name}`): {b['stamp']}; {b['end']}")
    print()
    print("| workload | metric | A median | A spread | B median | B spread | bound | max spread / bound | B vs A |")
    print("|---|---|---|---|---|---|---|---|---|")
    over = []
    for workload in a["runs"]:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            ma, sa = spread([r[name] for r in a["runs"][workload]])
            mb, sb = spread([r[name] for r in b["runs"][workload]])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            print(f"| {workload} | {name} | {ma:.4g} | {sa:.3f} | {mb:.4g} | {sb:.3f} | {bound} "
                  f"| {max(sa, sb) / bound:.2f} | {worse:+.3f} |")
            if name != "setup_s" and max(sa, sb) > bound:
                over.append(f"{workload} {name} spread")
            if worse > bound:
                over.append(f"{workload} {name} B vs A")
    print()
    if over:
        print(f"Outside the bounds: {', '.join(over)}.")
    else:
        print("Every spread (setup_s aside) is within its bound, and every set B median is within its "
              "bound of set A's: the two sets agree.")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run")
    run.add_argument("out", type=Path)
    run.add_argument("--first-seed", type=int, default=1)
    compare = commands.add_parser("table")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    args = parser.parse_args()
    if args.command == "run":
        run_set(spec, args.out, args.first_seed)
    else:
        table(spec, args.a, args.b)


if __name__ == "__main__":
    main()
