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
The depth commands (`DEPTH`) run twice per side, in the order base, head,
head, base, and print both runs of each side.  Under the DIFF line of a
`--json` command whose stdout differs comes its check-level diff: each
check record added (+) or removed (-), each changed field of a record (~),
keyed by suite, or by command for a one-suite command, and check name,
and each other top-level key that changed.  The command exits 1 on any
DIFF, and 2 when REF names no commit.
"""

from __future__ import annotations

import argparse
import os
import json
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, Iterator, List, Tuple

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
# `corollary2 --trunc 7` to `--trunc 12` check the character identity at
# 14 to 24 levels, where the L(0) spectra are split over two processes and
# time and memory grow with depth: their lines are the depth table, and
# trunc 12, the deepest, shows first what a change to the column memos
# costs in memory; one run per side cannot show a 10-30% change in time on
# a 2-vCPU host, so each of them runs twice per side
DEPTH = [f"corollary2 --trunc {n} --json" for n in range(7, 13)]
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
    *DEPTH,
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


def _records(payload: dict) -> Dict[Tuple[str, str], dict]:
    """{(suite, check name): record} of a --json payload: the checks of each
    suite of `all`, and a one-suite command's checks under its command."""
    groups = [(suite["name"], suite["checks"]) for suite in payload.get("suites", [])]
    groups.append((payload.get("command"), payload.get("checks", [])))
    return {(group, check["name"]): check for group, checks in groups for check in checks}


def _shown(value) -> str:
    """A JSON value as the check-level diff prints it: lists and objects
    are only named."""
    return "..." if isinstance(value, (dict, list)) else json.dumps(value)


def check_diff(base: bytes, head: bytes) -> Iterator[str]:
    """The check-level diff of two --json stdouts, one indented line per
    record added or removed, per changed field of a record and per other
    top-level key that changed; nothing when either side is not JSON."""
    try:
        base_payload, head_payload = json.loads(base), json.loads(head)
    except ValueError:
        return
    old, new = _records(base_payload), _records(head_payload)
    for key in {**old, **new}:
        label = f"{key[0]} / {key[1]}"
        if key not in new or key not in old:
            sign, record = ("-", old[key]) if key not in new else ("+", new[key])
            fields = " ".join(f"{f}={_shown(v)}" for f, v in record.items()
                              if f not in ("name", "pass"))
            yield f"    {sign} {label}  {'PASS' if record['pass'] else 'FAIL'} {fields}".rstrip()
            continue
        for field in {**old[key], **new[key]}:
            if old[key].get(field) != new[key].get(field):
                yield (f"    ~ {label}  {field}: {_shown(old[key].get(field))} -> "
                       f"{_shown(new[key].get(field))}")
    for field in {**base_payload, **head_payload}:
        if field not in ("suites", "checks") and \
                base_payload.get(field) != head_payload.get(field):
            yield (f"    ~ {field}: {_shown(base_payload.get(field))} -> "
                   f"{_shown(head_payload.get(field))}")


def compare(run: Callable[[str, str], Output], commands: List[str]) -> Iterator[str]:
    """One line per command, as soon as its runs are done: SAME, or DIFF
    with the parts that differ, then each side's wall time and peak
    resident set, and under a DIFF line the check-level diff of a --json
    stdout.  run(side, command) gives the Output of command on side "base"
    or "head", as `run_cli` does.  A command of DEPTH runs twice per side,
    base first, then head first; the parts of every run are compared."""
    for command in commands:
        runs: Dict[str, List[Output]] = {"base": [], "head": []}
        orders = [("base", "head"), ("head", "base")] if command in DEPTH else [("base", "head")]
        for order in orders:
            for side in order:
                runs[side].append(run(side, command))
        outputs = runs["base"] + runs["head"]
        diff = [part for i, part in enumerate(("exit code", "stdout", "stderr"))
                if len({r[i] for r in outputs}) > 1]
        verdict = f"DIFF  {command}  ({', '.join(diff)})" if diff else f"SAME  {command}"
        sides = "  ".join(f"{side} " + " / ".join(f"{r[3]:.2f} s {r[4]:.1f} MiB" for r in rs)
                          for side, rs in runs.items())
        yield f"{verdict}  {sides}"
        if "stdout" in diff and "--json" in command.split():
            yield from check_diff(runs["base"][0][1], runs["head"][0][1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    args = parser.parse_args(argv)
    try:
        base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"--base {args.base!r} names no commit")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        unpack(base_commit, tmp)
        trees = {"base": tmp, "head": ROOT}
        same = True
        for line in compare(lambda side, command: run_cli(trees[side], command), COMMANDS):
            print(line, flush=True)
            same = same and not line.startswith("DIFF")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
