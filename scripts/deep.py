"""Byte-identity, wall time and peak memory of deep `corollary2` runs
between a git ref and the working tree.

    python3 scripts/deep.py REF N [N ...]

REF is unpacked with `git archive` into a temporary directory (under
$TMPDIR), as `scripts/bench.py` does.  For each N, `python3 -m
superfock.cli corollary2 --trunc N --json` runs once on REF's src/ and
then once on the working tree's.  One line per N reads SAME when the
exit codes and the sha256 of stdout match, DIFF otherwise, then N, the
digest and, per side, the wall time and the peak resident set of the
process tree: `ru_maxrss` from `os.wait4`, the largest resident set of
the command and of the children it reaped (the forked L(0) share among
them), not their sum.  The command exits 1 on any DIFF.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from typing import Callable, Iterator, List, Tuple

from bench import ROOT, git, unpack

# (exit code, sha256 of stdout, wall seconds, peak resident set in MiB)
Run = Tuple[int, str, float, float]


def run_deep(tree: str, trunc: int) -> Run:
    """One `corollary2 --trunc trunc --json` run with the package taken
    from tree/src; stderr is passed through."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "superfock.cli", "corollary2",
                             "--trunc", str(trunc), "--json"],
                            cwd=tree, env=env, stdout=subprocess.PIPE)
    with proc.stdout:
        digest = hashlib.sha256(proc.stdout.read()).hexdigest()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, digest, wall, usage.ru_maxrss / 1024


def compare(run: Callable[[str, int], Run], truncs: List[int]) -> Iterator[str]:
    """One line per trunc, as soon as both of its runs are done.
    run(side, trunc) gives the Run of side "base" or "head", as `run_deep`
    does."""
    for trunc in truncs:
        base, head = run("base", trunc), run("head", trunc)
        diff = [part for part, b, h in zip(("exit code", "stdout"), base, head) if b != h]
        verdict = f"DIFF ({', '.join(diff)})" if diff else "SAME"
        digests = head[1][:12] if base[1] == head[1] else f"{base[1][:12]} / {head[1][:12]}"
        sides = "  ".join(f"{side} {r[2]:.2f} s {r[3]:.1f} MiB"
                          for side, r in (("base", base), ("head", head)))
        yield f"{verdict}  --trunc {trunc}  sha256 {digests}  {sides}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref to compare against")
    parser.add_argument("truncs", type=int, nargs="+", metavar="N",
                        help="corollary2 truncations to run")
    args = parser.parse_args(argv)
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="deep-") as tmp:
        unpack(base_commit, tmp)
        trees = {"base": tmp, "head": ROOT}
        same = True
        for line in compare(lambda side, trunc: run_deep(trees[side], trunc), args.truncs):
            print(line, flush=True)
            same = same and line.startswith("SAME")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
