"""Byte-identity of the CLI's outputs between a git ref and the working tree.

    python3 scripts/same_outputs.py --base REF

REF is unpacked with `git archive` into a temporary directory (under
$TMPDIR), as `scripts/bench.py` does.  Each command of `COMMANDS` runs as
`python3 -m superfock.cli` once on REF's src/ and once on the working
tree's, and its stdout, stderr and exit code are compared.  One line per
command reads SAME or DIFF; the command exits 1 on any DIFF.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
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
# `corollary2 --trunc 9` reads L(0) spectra that two processes split at 18
# levels
COMMANDS = [
    "all --json",
    "all",
    "all --window 3 --json",
    "all --window 0",
    "verify twisted --json",
    "verify twisted --window 1 --json",
    "verify twisted --window 3 --levels 15 --json",
    "corollary2 --trunc 7 --json",
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
    "corollary2 --trunc 9 --json",
]

Output = Tuple[int, bytes, bytes]


def run_cli(tree: str, command: str) -> Output:
    """(exit code, stdout, stderr) of `python3 -m superfock.cli command`
    with the package taken from tree/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "superfock.cli", *command.split()],
                          cwd=tree, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def compare(run: Callable[[str, str], Output], commands: List[str]) -> Iterator[str]:
    """One line per command, as soon as both of its runs are done: SAME, or
    DIFF with the parts that differ.  run(side, command) gives the Output
    of command on side "base" or "head", as `run_cli` does."""
    for command in commands:
        base, head = run("base", command), run("head", command)
        diff = [part for part, b, h in zip(("exit code", "stdout", "stderr"), base, head)
                if b != h]
        yield f"DIFF  {command}  ({', '.join(diff)})" if diff else f"SAME  {command}"


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
