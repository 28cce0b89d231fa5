"""Alternating before/after benchmark of the working tree against a git ref.

    python3 scripts/bench.py --base REF --tag TAG [--rounds N] [--seed S]

The working tree must hold no uncommitted change to a tracked file, so that
the record's head commit names the code that ran; the command exits 2
otherwise.  REF is unpacked with `git archive` into a temporary directory
(under $TMPDIR), so the repository's branches, index and working tree are
left as they are.  Each round runs `perfbench/run.py --workload all
--trace 0` once on REF ("base") and once on the working tree ("head"),
alternating which side goes first, with perfbench's own run length, and
keeps the metrics of the JSON line the run prints last.  BENCH_<TAG>.json,
at the root of the repository, gets every round's metrics, the median and
quartiles of each metric per side, the number of rounds in which head read
lower than base (every end-to-end metric of the benchmark is better lower),
and the environment.  The command exits 1 when any run reported a failed
output, and 2 when REF names no commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from typing import Callable, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(ref: str, dest: str) -> None:
    """The committed files of ref, written under dest."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref],
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)


def run_perfbench(tree: str, seed: int) -> dict:
    """One `perfbench/run.py --workload all --trace 0` run of the checkout
    at tree: {"correct", "attempted", "failed", "metrics": {name: value}}."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", "all",
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench printed nothing in {tree}:\n{proc.stderr}")
    res = json.loads(lines[-1])
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: m["value"] for name, m in res["metrics"].items()}}


def bench(run_side: Callable[[str], dict], rounds: int) -> List[dict]:
    """rounds alternating pairs: round r runs base first when r is even.
    run_side(side) returns one run's result, as `run_perfbench` does."""
    out = []
    for r in range(rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        out.append({"order": list(order), **{side: run_side(side) for side in order}})
    return out


def summarize(rounds: List[dict]) -> dict:
    """For each metric that every run reported, its median and quartiles
    [q1, q3] per side and the number of rounds in which head read lower
    than base; and the failed outputs per side."""
    names = sorted(set.intersection(*(set(r[side]["metrics"])
                                      for r in rounds for side in SIDES)))

    def values(side: str, name: str) -> List[float]:
        return [r[side]["metrics"][name] for r in rounds]

    return {
        "median": {side: {n: statistics.median(values(side, n)) for n in names}
                   for side in SIDES},
        "quartiles": {side: {n: quartiles(values(side, n)) for n in names}
                      for side in SIDES},
        "head_lower": {n: sum(h < b for b, h in zip(values("base", n), values("head", n)))
                       for n in names},
        "failed": {side: sum(r[side]["failed"] for r in rounds) for side in SIDES},
    }


def quartiles(xs: List[float]) -> List[float]:
    """[q1, q3]: the medians of the lower and the upper half of xs, the
    middle value left out when their number is odd (one value is its own
    quartiles)."""
    xs = sorted(xs)
    half = len(xs) // 2
    if half == 0:
        return [xs[0], xs[0]]
    return [statistics.median(xs[:half]), statistics.median(xs[-half:])]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    try:
        base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"--base {args.base!r} names no commit")
    if git("status", "--porcelain", "--untracked-files=no"):
        parser.error("the working tree has uncommitted changes; commit them so that "
                     "the record names the code that ran")
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        unpack(base_commit, tmp)
        trees = {"base": tmp, "head": ROOT}
        rounds = bench(lambda side: run_perfbench(trees[side], args.seed), args.rounds)
    record = {
        "base": {"ref": args.base, "commit": base_commit},
        "head": {"commit": git("rev-parse", "HEAD")},
        "command": {"workload": "all", "seed": args.seed, "trace": 0,
                    "rounds": args.rounds},
        "environment": environment(),
        "rounds": rounds,
        **summarize(rounds),
    }
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    for name, head in record["median"]["head"].items():
        base = record["median"]["base"].get(name)
        if base is not None:
            q = {side: record["quartiles"][side][name] for side in SIDES}
            print(f"  {name:<32} {base:10.4f} ({q['base'][0]:.4f}-{q['base'][1]:.4f}) -> "
                  f"{head:10.4f} ({q['head'][0]:.4f}-{q['head'][1]:.4f})  "
                  f"(head lower in {record['head_lower'][name]}/{args.rounds})")
    return 0 if record["failed"] == {"base": 0, "head": 0} else 1


if __name__ == "__main__":
    sys.exit(main())
