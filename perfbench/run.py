"""superfock benchmark: time to a verdict and peak memory per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all``, which rotates
through every workload on each repetition so that slow spells of the machine
fall on all of them alike.  Each repetition runs in a fresh child process
(child.py), one at a time: the package memoizes engines and coefficients per
process, and peak RSS must be the child's own.  Repetitions continue while
the next one fits in S seconds per workload; every run makes at least one.

With ``--trace 0`` the end-to-end metrics are reported:

* wall_s: from spawning the child to its verdict;
* setup_s: imports plus building the engines the workload needs; where
  set-up is cheap, set-up-only children add samples up to SETUP_SAMPLES;
* verify_s: from the end of set-up to the verdict;
* peak_rss_mb: the child's peak resident set, from os.wait4.

The three times are given at reference speed: each child samples the speed
of its core while it runs and scales its phases to the speed at which a
fixed snippet takes speed.REFERENCE_S (see speed.py).  On a shared 2-vCPU
host whose cores switch between a fast and a twice slower state every few
seconds, plain wall times of the same code spread by 20-40% between runs;
scaled, the spread drops to a few per cent.  The plain wall time and the
speed factor of every child are kept in perfbench/out/last-run.json.

Each metric is the median over the run's samples; the human lines add the
quartiles and the sample count.

With ``--trace 1`` every repetition is a pair, an untraced child and a traced
one; the per-layer metrics come from the traced children and
``trace.overhead_s`` is the mean traced wall_s minus the mean untraced
one.  The two children of a pair must reach identical verdicts.  Span
times are plain seconds of the traced child, not scaled to reference speed.

Every output is checked: its verdict (negative controls must fail) and its
checked/filtered counts and JSON digest against expected.json.  Failed
checks, with every check of a crashed child, make up ``failed``; the command
exits 1 when any check fails.  Human-readable lines with quartiles and sample
counts precede the last line, a JSON object with correct, attempted, failed
and metrics.  Samples and the environment are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
CHILD_DEADLINE_S = 175
SETUP_SAMPLES = 11

from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("verify_s", "s"),
              ("peak_rss_mb", "MiB"))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SUPERFOCK_THREADS", None)  # measure the default single-thread path
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "PYTHONHASHSEED": "0", "SUPERFOCK_THREADS": "unset",
            "seed": seed}


def run_child(workload: str, seed: int, mode: str, deadline: float):
    """One child; returns its sample, or None when the child failed."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, workload, str(seed), mode],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    reaped = False
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        timer.cancel()
        proc.stdout.close()
        if not reaped:
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"{workload}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        res = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"{workload}: child printed no result", file=sys.stderr)
        return None
    setup, verify = res["setup"], res["verify"]
    return {
        "wall_s": (res["t_start"] - t_spawn) * res["speed"]
        + setup["ref_s"] + verify["ref_s"],
        "setup_s": setup["ref_s"],
        "verify_s": verify["ref_s"],
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "raw_wall_s": res["t_verdict"] - t_spawn,
        "speed": res["speed"],
        "outputs": res["outputs"],
        "layers": res["layers"],
    }


def check_outputs(workload: str, sample, expected: dict) -> tuple[int, list[str]]:
    """(attempted, names of failed checks) for one child's outputs."""
    want = expected[workload]
    if sample is None:
        return len(want), [f"{workload}: {name} (crashed)" for name in want]
    got = {o["name"]: o for o in sample["outputs"]}
    failed = []
    for name, exp in want.items():
        o = got.get(name)
        if (o is None or o["pass"] != o["expect_pass"]
                or [o["checked"], o["filtered"], o["digest"]]
                != [exp["checked"], exp["filtered"], exp["digest"]]):
            failed.append(f"{workload}: {name}")
    failed += [f"{workload}: unexpected output {n}" for n in got if n not in want]
    return len(want), failed


def verdicts(sample):
    return [(o["name"], o["pass"], o["digest"]) for o in sample["outputs"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Tally:
    """Samples and check counts of one workload in one run."""

    def __init__(self):
        self.plain: list = []
        self.traced: list = []
        self.setup_only: list = []
        self.attempted = 0
        self.failed: list = []

    def add(self, workload, sample, expected, traced=False):
        attempted, failed = check_outputs(workload, sample, expected)
        self.attempted += attempted
        self.failed += failed
        if sample is not None:
            (self.traced if traced else self.plain).append(sample)

    def samples(self) -> dict:
        """Every end-to-end sample of the run, by metric."""
        out = {name: [s[name] for s in self.plain] for name, _ in END_TO_END}
        out["setup_s"] += [s["setup_s"] for s in self.setup_only]
        return out

    def per_layer(self) -> dict:
        names = self.traced[0]["layers"]
        out = {n: statistics.median(s["layers"][n] for s in self.traced) for n in names}
        out["trace.overhead_s"] = (statistics.fmean(s["wall_s"] for s in self.traced)
                                   - statistics.fmean(s["wall_s"] for s in self.plain))
        return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ns"):
        return "ns"
    if metric.endswith(("_share", ".reuse", "_ratio")):
        return "share"
    return "count"


def top_up_setup(name, seed, tally, allowance, deadline):
    """Repeat set-up alone until the run holds SETUP_SAMPLES set-up samples,
    where that costs no more than allowance seconds (cheap set-ups only)."""
    first = tally.plain[0]
    missing = SETUP_SAMPLES - 1
    if (first["wall_s"] - first["verify_s"]) * missing > allowance:
        return
    for _ in range(missing):
        sample = run_child(name, seed, "setup", deadline)
        tally.attempted += 1
        if sample is None:
            tally.failed.append(f"{name}: set-up crashed")
            return
        tally.setup_only.append(sample)


def run(names, seed: int, seconds: float, trace: bool):
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)
    tallies = {n: Tally() for n in names}
    budget = seconds * len(names)
    start = time.monotonic()
    deadline = start + CHILD_DEADLINE_S * len(names)
    rounds = 0
    while True:
        round_start = time.monotonic()
        for name in names[rounds % len(names):] + names[:rounds % len(names)]:
            tally = tallies[name]
            tally.add(name, run_child(name, seed, "plain", deadline), expected)
            if trace:
                traced = run_child(name, seed, "traced", deadline)
                tally.add(name, traced, expected, traced=True)
                tally.attempted += 1
                if not (traced and tally.plain
                        and verdicts(traced) == verdicts(tally.plain[-1])):
                    tally.failed.append(f"{name}: traced verdicts differ")
            elif rounds == 0 and tally.plain:
                top_up_setup(name, seed, tally, seconds / 5, deadline)
        rounds += 1
        if time.monotonic() - start + (time.monotonic() - round_start) > budget:
            break
    return tallies, rounds


def report(tallies, rounds, seed, trace):
    env = environment(seed)
    print("environment: " + json.dumps(env))
    metrics, record = {}, {"environment": env, "rounds": rounds, "workloads": {}}
    for name, tally in tallies.items():
        print(f"{name}: {len(tally.plain)} repetition(s)"
              + (f", {len(tally.traced)} traced" if trace else ""))
        samples = tally.samples()
        for metric, unit in END_TO_END:
            values = samples[metric]
            if values:
                median, (q1, q3) = statistics.median(values), quartiles(values)
                print(f"  {metric:<13} {median:12.4f} {unit:<5} (q1 {q1:.4f}, "
                      f"q3 {q3:.4f}, n={len(values)})")
                if not trace:
                    metrics[f"{name}.{metric}"] = {"value": median, "unit": unit}
        if tally.plain:
            raw = [s["raw_wall_s"] for s in tally.plain]
            speed = [s["speed"] for s in tally.plain]
            print(f"  {'plain wall':<13} {statistics.median(raw):12.4f} s     "
                  f"(at speed {statistics.median(speed):.3f} of reference)")
        share = len(tally.failed) / tally.attempted if tally.attempted else 1.0
        print(f"  {'failed_share':<13} {share:12.4f} share "
              f"({len(tally.failed)} of {tally.attempted} checks)")
        for line in tally.failed:
            print(f"  FAILED {line}")
        layers = tally.per_layer() if trace and tally.traced and tally.plain else {}
        for metric, value in layers.items():
            print(f"  {metric:<32} {value:16.6f} {unit_of(metric)}")
            metrics[f"{name}.{metric}"] = {"value": value, "unit": unit_of(metric)}
        record["workloads"][name] = {"samples": tally.plain, "traced": tally.traced,
                                     "setup_only": tally.setup_only,
                                     "attempted": tally.attempted,
                                     "failed": tally.failed}
    with open(os.path.join(OUT, "last-run.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "superfock", "__init__.py")):
        print(f"no superfock package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    tallies, rounds = run(names, args.seed, args.seconds, bool(args.trace))
    metrics = report(tallies, rounds, args.seed, bool(args.trace))
    if len(names) == 1:  # one workload: metric names without the prefix
        metrics = {k.split(".", 1)[1]: v for k, v in metrics.items()}
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(len(t.failed) for t in tallies.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
