"""Write the golden outputs that the benchmark compares byte for byte:
bench/golden/verify.out and, for every invocation of the cli mix, its
standard output (<name>.out) and DOT file (<name>.dot).

  python3 bench/capture_golden.py     # from the root of a checkout

Capture once at a commit whose output is known right; later changes must
reproduce these bytes.
"""

from __future__ import annotations

import subprocess
import sys

from run import CLI_MIX, GOLDEN, ROOT, WORKER


def capture(args: list[str], name: str) -> None:
    with open(GOLDEN / f"{name}.out", "wb") as out:
        subprocess.run([sys.executable, str(WORKER), "cli", "--", *args], stdout=out, cwd=ROOT, check=True)


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    capture(["verify"], "verify")
    for name, args, dot in CLI_MIX:
        capture(args + ([str(GOLDEN / f"{name}.dot")] if dot else []), name)


if __name__ == "__main__":
    main()
