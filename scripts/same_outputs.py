"""Byte-identity, wall time and peak memory of the CLI's outputs between
a git ref and the working tree.

    python3 scripts/same_outputs.py --base REF

REF is unpacked with `git archive` into a temporary directory (under
$TMPDIR), as `scripts/bench.py` does.  Each command of `COMMANDS` runs as
`python3 -m superfock.cli` once on REF's src/ and once on the working
tree's, and its stdout, stderr and exit code are compared.  One line per
command reads SAME or DIFF (with the parts that differ), then, per side,
the wall time and the peak resident set of the process tree: `ru_maxrss`
from `os.wait4`, the largest resident set of the command and of the
children it reaped (the forked L(0) share among them), not their sum.
The command exits 1 on any DIFF.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from typing import Callable, Iterator, List, Tuple

from bench import ROOT, git, unpack

# every command whose output a behaviour-preserving change must keep; `all
# --window 0`, `delta --k 0 --terms 1`, `verify twisted --max-weight -1` and
# `calibrate n2 --window 3` (a table the truncation cannot complete) are
# configuration errors (exit 2), the corrupted quintic, `all --only delta`
# and `all --only twisted` (skipped suites), `verify vosa --max-weight 3` and
# `verify twisted --levels 1` (incomplete tables) exit 1; in `all --only
# twisted` and `all --only calibration,corollary2` one suite's parts run on
# both sides of the fork; the text forms of `verify twisted --window 1` and
# `verify vosa --max-weight 3` print each check's line, with its fields;
# `corollary2 --trunc 7` to `--trunc 11` check the character identity at
# 14 to 22 levels, where the L(0) spectra are split over two processes and
# time and memory grow with depth: their lines are the depth table
COMMANDS = [
    "all --json",
    "all",
    "all --window 3 --json",
    "all --window 0",
    "verify twisted --json",
    "verify twisted --window 1 --json",
    "verify twisted --window 3 --levels 15 --json",
    "verify vosa --json",
    "calibrate n2 --json",
    "character --space twisted --trunc 6 --json",
    "character --space ramond --trunc 5 --json",
    "character --space ramond --trunc 1 --json",
    "delta --k 2 --terms 3 --verify-order 10 --json",
    "verify algebra --name n2-mirror-twisted --window 4 --json",
    "character --space vosa --trunc 4 --dump-basis",
    "character --space ns-fermion --trunc 3 --json",
    "verify algebra --name virasoro-corrupted-quintic --window 3 --json",
    "verify algebra --name virasoro-rescaled-11 --window 3 --json",
    "all --only delta",
    "corollary2 --json",
    "delta --k 0 --terms 1",
    "calibrate n2 --window 3",
    "verify vosa --max-weight 3 --json",
    "verify twisted --levels 1 --json",
    "all --only twisted --json",
    "all --only calibration,corollary2 --allow-skip --json",
    "verify twisted --window 1",
    "verify vosa --max-weight 3",
    "verify twisted --max-weight -1",
    "corollary2 --trunc 7 --json",
    "corollary2 --trunc 8 --json",
    "corollary2 --trunc 9 --json",
    "corollary2 --trunc 10 --json",
    "corollary2 --trunc 11 --json",
]

# (exit code, stdout, stderr, wall seconds, peak resident set in MiB)
Output = Tuple[int, bytes, bytes, float, float]


def run_cli(tree: str, command: str) -> Output:
    """The Output of `python3 -m superfock.cli command` with the package
    taken from tree/src.  stdout and stderr go to temporary files, so no
    pipe can fill, and the process is reaped by `os.wait4`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "superfock.cli", *command.split()],
                                cwd=tree, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024


def compare(run: Callable[[str, str], Output], commands: List[str]) -> Iterator[str]:
    """One line per command, as soon as both of its runs are done: SAME, or
    DIFF with the parts that differ, then each side's wall time and peak
    resident set.  run(side, command) gives the Output of command on side
    "base" or "head", as `run_cli` does."""
    for command in commands:
        base, head = run("base", command), run("head", command)
        diff = [part for part, b, h in zip(("exit code", "stdout", "stderr"), base, head)
                if b != h]
        verdict = f"DIFF  {command}  ({', '.join(diff)})" if diff else f"SAME  {command}"
        sides = "  ".join(f"{side} {r[3]:.2f} s {r[4]:.1f} MiB"
                          for side, r in (("base", base), ("head", head)))
        yield f"{verdict}  {sides}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    args = parser.parse_args(argv)
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        unpack(base_commit, tmp)
        trees = {"base": tmp, "head": ROOT}
        same = True
        for line in compare(lambda side, command: run_cli(trees[side], command), COMMANDS):
            print(line, flush=True)
            same = same and line.startswith("SAME")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
