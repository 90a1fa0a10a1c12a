"""Self-test of the benchmark itself (not of shidoku):

  python3 bench/selftest.py      # from the root of a checkout; exit 0 iff all pass

It checks that the same seed always gives the same inputs and different
seeds different ones, that the oracle reproduces the paper's basic
numbers, that a golden output exists for every invocation compared, that
nominal seconds scale with the speedometer's samples and leave them out,
and that the tracer replaces every traced function at every binding site.
"""

from __future__ import annotations

import sys
from itertools import islice

import inputs
import oracle
import run
import speed
import tracing

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def seeds() -> None:
    for seed in (1, 2, 17):
        check(inputs.search_pools(seed) == inputs.search_pools(seed), f"search pools repeat for seed {seed}")
        first = list(islice(inputs.query_stream(seed), 300))
        check(first == list(islice(inputs.query_stream(seed), 300)), f"query stream repeats for seed {seed}")
        position_pool, relabel_pool = inputs.search_pools(seed)
        check(
            inputs.pool_shape(position_pool, oracle.ID16) == inputs.POSITION_POOL_SHAPE
            and inputs.pool_shape(relabel_pool, oracle.ID4) == inputs.RELABEL_POOL_SHAPE,
            f"search pools of seed {seed} have the fixed shape",
        )
    pools = {repr(inputs.search_pools(seed)) for seed in range(1, 11)}
    check(len(pools) > 1, f"seeds 1..10 give {len(pools)} different search pool pairs")
    check(
        list(islice(inputs.query_stream(1), 50)) != list(islice(inputs.query_stream(2), 50)),
        "seeds 1 and 2 give different query streams",
    )


def oracle_numbers() -> None:
    check(len(oracle.boards()) == 288, "oracle enumerates 288 boards")
    check(len(oracle.position_group()) == 128, "oracle position group has order 128")
    check(len(oracle.relabel_group()) == 24, "oracle relabel group has order 24")
    check(sorted(len(b) for b in oracle.full_partition()) == [96, 192], "oracle full orbits are 96 + 192")
    index = oracle.ElementIndex()
    check(len(index.closure(oracle.full_generators())) == 3072, "oracle full group has order 3072")
    rows = oracle.expected_search(inputs.DEFAULT_POSITION_POOL, inputs.DEFAULT_RELABEL_POOL)
    check(len(rows) == 156, f"default pools give 156 distinct products (got {len(rows)})")
    check(run._paper_minimal(rows), "default pools give exactly the paper's three minimal complete groups")


def golden() -> None:
    names = ["verify.out"] + [f"{name}.out" for name, _, _ in run.CLI_MIX]
    names += [f"{name}.dot" for name, _, dot in run.CLI_MIX if dot]
    missing = [name for name in names if not (run.GOLDEN / name).is_file()]
    check(not missing, f"golden outputs present ({', '.join(missing) or 'none missing'})")


def binding_sites() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import shidoku.cli  # noqa: F401
    from shidoku.group import trivial_group

    originals = {
        id(getattr(sys.modules[f"shidoku.{module}"], fn))
        for module, fn in [*tracing.SPANS, *(("action", fn) for fn in tracing.APPLY_FUNCTIONS)]
    }
    tracer = tracing.Tracer()
    tracing.install(tracer)
    left = [
        f"{name}.{attr}"
        for name, module in sys.modules.items()
        if name.startswith("shidoku")
        for attr, value in vars(module).items()
        if id(value) in originals
    ]
    check(not left, f"no binding site keeps an untraced function ({', '.join(left) or 'none'})")
    from shidoku.action import orbits

    orbits(trivial_group())
    raw = tracer.raw()
    check(raw["calls"].get("action.orbits") == 1, "a call through a binding site records one span")
    check(raw["counts"].get("action.apply") == 288, "apply is counted once per board, nested calls not again")


def nominal_seconds() -> None:
    n = speed.NOMINAL_S
    for slower in (1, 2):
        d = slower * n
        timeline = speed.Timeline([0, d, 1, 1 + d, 2, 2 + d])
        got, want = timeline.seconds(0.5, 1.5), (1 - d) / slower
        message = f"a stretch at 1/{slower} speed over one sample: {got:.6f} nominal s, want {want:.6f}"
        check(abs(got - want) < 1e-12, message)
    got = speed.Timeline([1, 1 + n]).seconds(0, 3)
    check(abs(got - (3 - n)) < 1e-12, f"a stretch around the only sample: {got:.6f} nominal s, want {3 - n:.6f}")


def main() -> int:
    seeds()
    oracle_numbers()
    golden()
    nominal_seconds()
    binding_sites()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
