"""Record the outputs every workload must reproduce into expected.json.

    python3 perfbench/record.py

Runs each workload once in a fresh child and stores, per output, its
checked/filtered counts and the digest of its JSON.  Refuses to record an
output whose verdict is not the intended one.  Re-record only in a change
that means to alter the package's output, and say so there.
"""

import json
import sys
import time

from run import EXPECTED, WORKLOADS, run_child

if __name__ == "__main__":
    expected = {}
    for name in sorted(WORKLOADS):
        sample = run_child(name, 0, "plain", time.monotonic() + 600)
        if sample is None:
            sys.exit(f"{name}: child failed")
        expected[name] = {}
        for o in sample["outputs"]:
            if o["pass"] != o["expect_pass"]:
                sys.exit(f"{name}: {o['name']} has the wrong verdict")
            expected[name][o["name"]] = {k: o[k] for k in ("checked", "filtered", "digest")}
        print(f"{name}: {len(expected[name])} outputs, {sample['wall_s']:.2f} s")
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
