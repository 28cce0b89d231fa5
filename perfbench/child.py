"""One repetition of one workload, in a process of its own.

    python3 perfbench/child.py WORKLOAD SEED MODE

MODE is ``plain``, ``traced`` or ``setup`` (stop after set-up).  Prints one
JSON line: monotonic timestamps for the start of the process body, the end
of set-up and the verdict, the set-up and verify phases at reference speed
(see speed.py) and the mean speed of the whole child, one summary per output
and, when traced, the per-layer metrics (spans go to
perfbench/out/trace-WORKLOAD.jsonl).
superfock must be importable, which run.py arranges through PYTHONPATH.
"""

import time

T_START = time.monotonic()

from speed import Sampler  # noqa: E402

SAMPLER = Sampler()
SAMPLER.start()

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv):
    workload = WORKLOADS[argv[0]]
    seed = int(argv[1])
    mode = argv[2]
    for name in workload.modules:
        importlib.import_module(name)
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer(f"{workload.name}-seed{seed}-pid{os.getpid()}")
        tracer.install()
    state = workload.build(seed)
    t_setup = time.monotonic()
    outputs = [] if mode == "setup" else workload.verify(state, seed)
    t_verdict = time.monotonic()
    SAMPLER.stop()
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(seed)
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        tracer.write_spans(os.path.join(out_dir, f"trace-{workload.name}.jsonl"))
    print(json.dumps({
        "t_start": T_START,
        "t_setup": t_setup,
        "t_verdict": t_verdict,
        "setup": SAMPLER.phase(T_START, t_setup),
        "verify": SAMPLER.phase(t_setup, t_verdict),
        "speed": SAMPLER.phase(T_START, t_verdict)["speed"],
        "outputs": [{"name": o.name, "pass": o.passed, "expect_pass": o.expect_pass,
                     "checked": o.checked, "filtered": o.filtered,
                     "digest": digest(o.payload)} for o in outputs],
        "layers": layers,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
