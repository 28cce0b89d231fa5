"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public entry points of each superfock
module with timing wrappers, at every place the name is looked up: each
loaded ``superfock`` module that bound the function under any name, and the
class attribute for methods.  Nothing under ``src/`` changes.

Layer calls become spans (name, start, end, parent span) kept in memory and
written out by ``write_spans``.  ``ExactScalar`` arithmetic is too fine-grained
for a span per call, so it is only counted and timed; its time still counts
as child time of the enclosing span, so an engine's self time excludes it.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

ENGINES = {"Vosa": "vosa", "TensorVosa": "tensor", "SigmaModule": "sigma",
           "MirrorModule": "mirror"}

# twisted.<key>_s <- function or method of superfock.twisted
TWISTED_REPORTS = {
    "sigma_virasoro": "sigma_virasoro_report",
    "sigma_ramond": "sigma_ramond_report",
    "sigma_jacobi": "sigma_twisted_jacobi_report",
    "mode_lattices": "MirrorModule.mode_lattice_report",
    "mirror_table": "mirror_table_report",
    "mirror_subtables": "mirror_subalgebra_reports",
    "mirror_jacobi": "mirror_twisted_jacobi_report",
    "mirror_equivariance": "mirror_equivariance_report",
    "corollary2": "corollary2_check",
    "graded_dimension": ("SigmaModule.graded_dimension",
                         "MirrorModule.graded_dimension"),
}

MICRO_OPS = 2000
MICRO_REPEATS = 5


def _mask(x) -> int:
    """Which of the four Q(i, sqrt2) components of an operand are nonzero."""
    if isinstance(x, (int, Fraction)):
        return 1 if x else 0
    if not hasattr(x, "d"):
        return -1
    return bool(x.a) | bool(x.b) << 1 | bool(x.c) << 2 | bool(x.d) << 3


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []       # (id, parent id, name, start, end)
        self._stack: list = []      # [span id, child seconds] per open span
        self._next_id = 0
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()  # outermost spans of a name only
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.mul_mix: Counter = Counter()
        self.sigma_dim = 0
        self._restore: list = []

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._depth[name] += 1
        return frame, parent, time.perf_counter()

    def _exit(self, name, frame, parent, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((frame[0], parent, name, t0, t1))
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += dur

    def span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            frame, parent, t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, parent, t0)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, fn, wrapper):
        """Rebind every module-level name in the package that holds fn."""
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "superfock"
                                   or mod_name.startswith("superfock.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{fn.__qualname__} is bound nowhere")

    def _patch(self, module, dotted: str, name: str, on_result=None):
        """Wrap a module function (everywhere it is bound) or a method."""
        if "." in dotted:
            cls_name, meth = dotted.split(".")
            cls = getattr(module, cls_name)
            self._set(cls, meth, self.span(name, cls.__dict__[meth], on_result))
        else:
            fn = getattr(module, dotted)
            self._patch_function(fn, self.span(name, fn, on_result))

    def install(self):
        import superfock.checks as checks
        import superfock.delta as delta
        import superfock.fock as fock
        import superfock.modes as modes
        import superfock.scalars as scalars
        import superfock.superalgebra as superalgebra
        import superfock.twisted as twisted
        import superfock.vosa as vosa

        def add_checked(report):
            self.counts["checks.checked"] += report.checked
            self.counts["checks.filtered"] += report.filtered

        def add_triples(report):
            self.counts["superalgebra.triples"] += report.triples_checked

        self._patch(fock, "mode_apply", "fock.mode_apply")
        self._patch(delta, "apply_delta", "delta.apply")
        self._patch(checks, "bracket_table_check", "checks.table", add_checked)
        self._patch(checks, "borcherds_check", "checks.borcherds", add_checked)
        self._patch(vosa, "calibrate_n2", "vosa.calibrate")
        for report in ("creation_report", "grading_report", "translation_report"):
            self._patch(vosa, report, "vosa.axioms")
        self._patch(superalgebra, "verify_algebra", "superalgebra.verify", add_triples)
        self._patch(superalgebra, "verify_automorphism", "superalgebra.automorphism")
        for key, targets in TWISTED_REPORTS.items():
            for dotted in (targets if isinstance(targets, tuple) else (targets,)):
                self._patch(twisted, dotted, f"twisted.{key}")
        self._install_modes(modes)
        self._install_sigma_dim(twisted)
        self._install_scalars(scalars.ExactScalar)

    def _install_modes(self, modes):
        from superfock.errors import TruncationOverflow

        orig = modes.Family.apply_basis
        tracer = self

        def apply_basis(fam, t, col):
            engine = ENGINES[type(fam.engine).__name__]
            name = f"modes.{engine}"
            key = (Fraction(t), col)
            known = key in fam._cols
            frame, parent, t0 = tracer._enter(name)
            try:
                result = orig(fam, t, col)
            except TruncationOverflow as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.counts[f"{name}.overflows"] += 1
                raise
            finally:
                tracer._exit(name, frame, parent, t0)
            if not known and key in fam._cols:
                tracer.counts[f"{name}.columns"] += 1
            return result

        self._set(modes.Family, "apply_basis", apply_basis)

    def _install_sigma_dim(self, twisted):
        orig = twisted.SigmaModule.__init__
        tracer = self

        def __init__(module, *args, **kwargs):
            orig(module, *args, **kwargs)
            tracer.sigma_dim = max(tracer.sigma_dim, module.space.dim)

        self._set(twisted.SigmaModule, "__init__", __init__)

    def _install_scalars(self, cls):
        calls, inclusive, mix = self.calls, self.inclusive, self.mul_mix
        stack = self._stack

        def timed(name, fn, record_mix):
            def wrapper(x, y):
                if record_mix:
                    mix[_mask(x), _mask(y)] += 1
                t0 = time.perf_counter()
                try:
                    return fn(x, y)
                finally:
                    dur = time.perf_counter() - t0
                    calls[name] += 1
                    inclusive[name] += dur
                    if stack:
                        stack[-1][1] += dur
            return wrapper

        # __radd__ and __rmul__ are aliases bound when the class was created,
        # so each is replaced on its own
        for attr, name, record in (("__mul__", "scalars.mul", True),
                                   ("__rmul__", "scalars.mul", True),
                                   ("__add__", "scalars.add", False),
                                   ("__radd__", "scalars.add", False)):
            self._set(cls, attr, timed(name, cls.__dict__[attr], record))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def micro_mul_ns(self, seed: int) -> float:
        """ns per ExactScalar multiply on operands drawn with the recorded
        component mix; call after uninstall()."""
        from superfock.scalars import ExactScalar

        rng = random.Random(seed)
        mix = self.mul_mix or Counter({(1, 1): 1})
        kinds = sorted(mix)
        weights = [mix[k] for k in kinds]

        def operand(mask):
            parts = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
                     if mask >> bit & 1 else 0 for bit in range(4)]
            return ExactScalar(*parts)

        pairs = [(operand(mx), operand(my))
                 for mx, my in rng.choices(kinds, weights, k=MICRO_OPS)]
        samples = []
        for _ in range(MICRO_REPEATS):
            t0 = time.perf_counter()
            for x, y in pairs:
                x * y
            samples.append((time.perf_counter() - t0) / MICRO_OPS * 1e9)
        return statistics.median(samples)

    def metrics(self, seed: int) -> dict:
        """Every per-layer metric, by the names BENCHMARK.json lists."""
        c, s, n = self.counts, self.inclusive, self.calls
        muls = n["scalars.mul"]
        rational = sum(v for (mx, my), v in self.mul_mix.items()
                       if 0 <= mx <= 1 and 0 <= my <= 1)
        out = {
            "scalars.mul_calls": muls,
            "scalars.mul_s": s["scalars.mul"],
            "scalars.add_calls": n["scalars.add"],
            "scalars.add_s": s["scalars.add"],
            "scalars.mul_rational_share": rational / muls if muls else 0.0,
            "scalars.micro_mul_ns": self.micro_mul_ns(seed),
            "fock.mode_apply_calls": n["fock.mode_apply"],
            "fock.mode_apply_s": s["fock.mode_apply"],
            "fock.sigma_dim": self.sigma_dim,
        }
        for engine in ENGINES.values():
            name = f"modes.{engine}"
            calls, cols = n[name], c[f"{name}.columns"]
            out[f"{name}.calls"] = calls
            out[f"{name}.columns"] = cols
            out[f"{name}.reuse"] = 1 - cols / calls if calls else 0.0
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.overflows"] = c[f"{name}.overflows"]
        checked, filtered = c["checks.checked"], c["checks.filtered"]
        out.update({
            "delta.apply_calls": n["delta.apply"],
            "delta.apply_s": s["delta.apply"],
            "vosa.calibrate_calls": n["vosa.calibrate"],
            "vosa.calibrate_s": s["vosa.calibrate"],
            "vosa.axioms_s": s["vosa.axioms"],
            "checks.table_calls": n["checks.table"],
            "checks.table_s": s["checks.table"],
            "checks.borcherds_calls": n["checks.borcherds"],
            "checks.borcherds_s": s["checks.borcherds"],
            "checks.checked": checked,
            "checks.filtered": filtered,
            "checks.useful_ratio": (checked / (checked + filtered)
                                    if checked + filtered else 0.0),
        })
        for key in TWISTED_REPORTS:
            out[f"twisted.{key}_s"] = s[f"twisted.{key}"]
        out.update({
            "superalgebra.verify_s": s["superalgebra.verify"],
            "superalgebra.triples": c["superalgebra.triples"],
            "superalgebra.automorphism_s": s["superalgebra.automorphism"],
        })
        return {k: float(v) if k.endswith(("_s", "_ns")) else v for k, v in out.items()}

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id,
                                 "fields": ["id", "parent", "name", "start", "end"]}))
            fh.write("\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span))
                fh.write("\n")
