"""Source hygiene that needs no linter: every top-level import of a package
module is used in that module, no handler under src/ or tests/ catches
every exception (a swallowed error must not let a check pass), the
reference mode action `fock.mode_apply` is used by no engine, so the tests
that compare the engines with it compare two independent computations,
no code under src/ hands the accumulate kernel `scalars.v_iadd` a
one-entry dict literal (a dict and a kernel call per term, where the term
can be stored or the terms gathered into one dict), `scalars` is the one
module that knows how an `ExactScalar` is stored (its `_v` ints and the
`_new`/`_set_v` constructors), every exception type in `errors` but the
base class is raised somewhere under src/, and `modes.Family` is the one
class that defines `apply_basis`, so every mode family shares one column
memo rule (a memo per family, skipped by the classes that set
`memo = False`: `VacuumFamily`, `vosa._TensorSlotFamily` and
`vosa._TensorMonoFamily`), `VacuumFamily(...)` is called only in `modes`, where
`Engine._family_by_index` builds the vacuum's family for every engine,
`cli` calls `TensorVosa`, `SigmaModule` and `MirrorModule` once each, in
its cached builders, so every command and suite shares one build of each,
`fork.both` makes the package's one forked child (one call of `os.fork`
under src/), `Engine.product_families` holds the one memoized function
nested in another under src/, so the product-state families of the component
identity are found in one place, `cli` is the one module that writes the
Ramond ground weight `Fraction(1, 16)`, as the expected value of its checks
(everywhere else it is computed, so it cannot return as configured data),
every name the benchmark's tracer
(`perfbench/tracer.py`) patches or reads still resolves in the package,
and the package's `__init__.py` imports nothing, so each name has one
import path (its own module) and importing the presentation layer
(`superalgebra`, `delta`) loads none of `fock`, `checks`, `vosa` and
`twisted`.

The trace rule: every function the package defines (`def`, nested ones and
methods included) is entered when `TRACED_COMMANDS` run in a fresh
interpreter under `sys.settrace`, or is listed in `NEVER_ENTERED` with one
of seven fixed reasons (error path, abstract base, immutability guard,
value semantics, test reference, named by perfbench, forked child).  Code
that no command runs and no reason keeps is deleted, and a test that needs
a second route to a result keeps it in tests/.  The allowlist cannot go
stale: an entry that names a missing function, or one the trace entered,
fails.  Every traced command is one that `scripts/same_outputs.py`
compares.  `python3 tests/test_hygiene.py` (with src/ on PYTHONPATH)
prints the trace as JSON."""

import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superfock"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}
ORACLE = "mode_apply"
KERNEL = "v_iadd"
SCALAR_FORMAT = "_v"
SCALAR_BUILDERS = {"_new", "_set_v"}
ERROR_BASE = "SuperfockError"
MEMOIZERS = {"cache", "lru_cache"}
VACUUM_FAMILY = "VacuumFamily"
# each engine class `cli` builds -> the cached builder that alone calls it
CLI_BUILDERS = {"TensorVosa": "_tensor", "SigmaModule": "_sigma",
                "MirrorModule": "_build_stack"}
RAMOND_GROUND = Fraction(1, 16)
PRESENTATION_LAYER = {"superfock", "superfock.errors", "superfock.scalars", "superfock.series",
                      "superfock.modes", "superfock.superalgebra", "superfock.delta"}


def _imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in _annotations(tree):
        # quoted forward references such as "TensorVosa"
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= {node.id for node in ast.walk(ast.parse(note.value, mode="eval"))
                     if isinstance(node, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_presentation_layer_loads_only_what_it_imports():
    probe = ("import sys, superfock.superalgebra, superfock.delta\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'superfock'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert set(out.split()) == PRESENTATION_LAYER


def _catch_all_handlers(tree: ast.Module):
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if caught is None or any(isinstance(n, ast.Name) and n.id in CATCH_ALL
                                 for n in names):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_handler_catches_everything(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = list(_catch_all_handlers(tree))
    assert not lines, f"{path.name} catches every exception at lines {lines}"


def test_catch_all_detector_sees_each_form():
    src = ("try:\n    pass\nexcept:\n    pass\n"
           "try:\n    pass\nexcept Exception:\n    pass\n"
           "try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n"
           "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert list(_catch_all_handlers(ast.parse(src))) == [3, 7, 11]


def _oracle_references(tree: ast.Module):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == ORACLE
                or isinstance(node, ast.Attribute) and node.attr == ORACLE
                or isinstance(node, ast.alias) and node.name == ORACLE
                or isinstance(node, ast.Constant) and node.value == ORACLE):
            yield node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fock.py"],
                         ids=lambda p: p.name)
def test_no_engine_refers_to_the_reference_mode_action(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(_oracle_references(tree))
    assert not lines, f"{path.name} refers to {ORACLE} at lines {lines}"


def test_oracle_detector_sees_each_form():
    src = ("from .fock import mode_apply\n"
           "import superfock.fock as fock\n"
           "fock.mode_apply(space, 'a', 1, st)\n"
           "f = getattr(fock, 'mode_apply')\n"
           "g = mode_apply\n"
           "mode_apply_calls = 'mode_apply_calls'\n")
    assert sorted(_oracle_references(ast.parse(src))) == [1, 3, 4, 5]


def _one_entry_dicts_to_kernel(tree: ast.Module):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != KERNEL:
            continue
        args = list(node.args) + [kw.value for kw in node.keywords]
        if any(isinstance(a, ast.Dict) and len(a.keys) == 1 and a.keys[0] is not None
               for a in args):
            yield node.lineno


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_one_entry_dict_goes_to_the_kernel(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = list(_one_entry_dicts_to_kernel(tree))
    assert not lines, f"{path.name} passes {KERNEL} a one-entry dict at lines {lines}"


def test_one_entry_dict_detector_sees_each_form():
    src = ("v_iadd(acc, {i: c}, 1)\n"
           "scalars.v_iadd(acc, vec={i: c})\n"
           "v_iadd(acc, {i: c, j: d})\n"
           "v_iadd(acc, {**other})\n"
           "v_iadd(acc, {i: c for i, c in pairs})\n"
           "v_scale({i: c}, 2)\n"
           "v_iadd(acc, v_scale({i: c}, 2))\n")
    assert list(_one_entry_dicts_to_kernel(ast.parse(src))) == [1, 2]


def _scalar_format_uses(tree: ast.Module):
    """The lines that read a scalar's stored ints or build a scalar from
    them: an attribute `._v`, or the name `_new`/`_set_v` however it is
    reached."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and (node.attr == SCALAR_FORMAT or node.attr in SCALAR_BUILDERS)
                or isinstance(node, ast.Name) and node.id in SCALAR_BUILDERS
                or isinstance(node, ast.alias) and node.name in SCALAR_BUILDERS):
            yield node.lineno


def test_only_scalars_knows_the_scalar_format():
    users = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "scalars.py"
             for line in _scalar_format_uses(ast.parse(path.read_text(), filename=str(path)))]
    assert not users, f"modules other than scalars.py use the scalar format: {users}"


def test_scalar_format_detector_sees_each_form():
    src = ("from .scalars import ExactScalar, _new, _set_v\n"
           "a, b, c, d, q = x._v\n"
           "out = _new(ExactScalar)\n"
           "scalars._set_v(out, (1, 0, 0, 0, 1))\n"
           "_v = x.a\n"
           "y = x.v\n")
    assert sorted(set(_scalar_format_uses(ast.parse(src)))) == [1, 2, 3, 4]


def _raised_names(tree: ast.Module):
    """The name of each exception a raise statement raises, as `raise X`,
    `raise X(...)` or `raise mod.X(...)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_type_is_raised():
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    defined = [node.name for node in errors.body
               if isinstance(node, ast.ClassDef) and node.name != ERROR_BASE]
    raised = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        raised.update(_raised_names(ast.parse(path.read_text(), filename=str(path))))
    unraised = [name for name in defined if name not in raised]
    assert not unraised, f"errors.py defines types nothing raises: {unraised}"


def test_raise_detector_sees_each_form():
    src = ("raise NoCalibration('x')\n"
           "raise errors.InvalidAlgebra('x')\n"
           "raise NonDiagonal\n"
           "raise\n"
           "err = UnsupportedK('x')\n")
    assert list(_raised_names(ast.parse(src))) == ["NoCalibration", "InvalidAlgebra",
                                                   "NonDiagonal"]


def _apply_basis_owners(tree: ast.Module):
    """The name of each class whose body defines `apply_basis`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "apply_basis"
                for item in node.body):
            yield node.name


def test_only_the_family_base_defines_apply_basis():
    owners = [(path.name, name) for path in MODULES
              for name in _apply_basis_owners(ast.parse(path.read_text(), filename=str(path)))]
    assert owners == [("modes.py", "Family")], owners


def test_apply_basis_detector_sees_each_form():
    src = ("class A:\n    def apply_basis(self, t2, col):\n        pass\n"
           "class B(A):\n    def apply(self, t2, vec):\n        return self.apply_basis(t2, 0)\n"
           "def apply_basis(t2, col):\n    pass\n")
    assert list(_apply_basis_owners(ast.parse(src))) == ["A"]


def _vacuum_family_calls(tree: ast.Module):
    """The line of each call of `VacuumFamily`, by its name or as an
    attribute of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == VACUUM_FAMILY:
                yield node.lineno


def test_only_modes_builds_the_vacuum_family():
    callers = [(path.name, line) for path in sorted((ROOT / "src").rglob("*.py"))
               if path.name != "modes.py"
               for line in _vacuum_family_calls(ast.parse(path.read_text(),
                                                          filename=str(path)))]
    assert not callers, f"modules other than modes.py build the vacuum family: {callers}"


def test_vacuum_family_detector_sees_each_form():
    src = ("fam = VacuumFamily(self)\n"
           "fam = modes.VacuumFamily(engine)\n"
           "from .modes import VacuumFamily\n"
           "isinstance(fam, VacuumFamily)\n"
           "cls = VacuumFamily\n"
           "fam = VacuumFamily(self) if k == vac else build(k)\n")
    assert list(_vacuum_family_calls(ast.parse(src))) == [1, 2, 6]


def _engine_builds(tree: ast.Module):
    """(class, builder) for each call of a class in CLI_BUILDERS, by its
    name or as an attribute of a module: the builder is the memoized
    top-level function that makes the call, or None anywhere else."""
    for node in tree.body:
        builder = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _memoizer_name(d) in MEMOIZERS for d in node.decorator_list):
            builder = node.name
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in CLI_BUILDERS:
                    yield name, builder


def test_cli_builds_each_engine_once_in_its_builder():
    builds = sorted(_engine_builds(ast.parse((PACKAGE / "cli.py").read_text())))
    assert builds == sorted(CLI_BUILDERS.items()), builds


def test_engine_build_detector_sees_each_form():
    src = ("@lru_cache(maxsize=None)\ndef _tensor():\n    return TensorVosa(Vosa(5), 5)\n"
           "@functools.cache\ndef _sigma(n):\n    return twisted.SigmaModule(V, levels=n)\n"
           "def _kappa():\n    return TensorVosa(Vosa(5), 5)\n"
           "STACK = MirrorModule(s, t, n2)\n"
           "class K:\n    @cache\n    def build(self):\n        return SigmaModule(V)\n"
           "def _stack():\n    @cache\n    def inner():\n        return MirrorModule(s, t, n2)\n"
           "isinstance(x, SigmaModule)\n"
           "cls = TensorVosa\n")
    assert list(_engine_builds(ast.parse(src))) == [
        ("TensorVosa", "_tensor"), ("SigmaModule", "_sigma"), ("TensorVosa", None),
        ("MirrorModule", None), ("SigmaModule", None), ("MirrorModule", None)]


def _fork_calls(tree: ast.Module):
    """The line of each call of `fork`, `os.fork` or any `*.fork` attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name == "fork":
                yield node.lineno


def test_the_package_forks_in_one_place():
    # every forked child is made, reaped and read by `fork.both`
    forks = {path.name: list(_fork_calls(ast.parse(path.read_text()))) for path in MODULES}
    assert {name: len(lines) for name, lines in forks.items() if lines} == {"fork.py": 1}
    assert list(_fork_calls(ast.parse("os.fork()\nfork()\nx.fork(1)\nfork\n"))) == [1, 2, 3]


def _constant_fraction(args):
    """The Fraction that constant arguments build, or None."""
    if not args or not all(isinstance(a, ast.Constant) for a in args):
        return None
    try:
        return Fraction(*(a.value for a in args))
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _ramond_ground_literals(tree: ast.Module):
    """The line of each call of `Fraction`, by its name or as an attribute
    of a module, on constants whose value is 1/16."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and not node.keywords:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Fraction" and _constant_fraction(node.args) == RAMOND_GROUND:
                yield node.lineno


def test_only_cli_writes_the_ramond_ground_weight():
    writers = [(path.name, line) for path in MODULES if path.name != "cli.py"
               for line in _ramond_ground_literals(ast.parse(path.read_text(),
                                                             filename=str(path)))]
    assert not writers, f"modules other than cli.py write the weight 1/16: {writers}"


def test_ramond_ground_detector_sees_each_form():
    src = ("RAMOND_OFFSET = Fraction(1, 16)\n"
           "off = fractions.Fraction(2, 32)\n"
           "ok = ground == Fraction('1/16')\n"
           "Fraction(1, 8)\n"
           "Fraction(n, 16)\n"
           "Fraction(1, 0)\n"
           "F(1, 16)\n")
    assert list(_ramond_ground_literals(ast.parse(src))) == [1, 2, 3]


def _memoizer_name(decorator) -> str:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr
    return getattr(decorator, "id", "")


def _memoized_nested_functions(node, scope=(), in_function=False):
    """The dotted path of each function defined inside another function and
    decorated with `cache` or `lru_cache`, however the decorator is
    reached or called."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path = scope + (child.name,)
            is_function = not isinstance(child, ast.ClassDef)
            if in_function and is_function and any(
                    _memoizer_name(d) in MEMOIZERS for d in child.decorator_list):
                yield ".".join(path)
            yield from _memoized_nested_functions(child, path, in_function or is_function)
        else:
            yield from _memoized_nested_functions(child, scope, in_function)


def test_only_product_families_memoizes_a_nested_function():
    found = [(path.name, name) for path in sorted((ROOT / "src").rglob("*.py"))
             for name in _memoized_nested_functions(ast.parse(path.read_text(),
                                                              filename=str(path)))]
    assert found == [("modes.py", "Engine.product_families.family")], found


def test_nested_memo_detector_sees_each_form():
    src = ("@cache\ndef top():\n    pass\n"
           "def outer():\n    @cache\n    def a():\n        pass\n"
           "    @functools.lru_cache(maxsize=8)\n    def b():\n        pass\n"
           "    if True:\n        @lru_cache\n        def c():\n            pass\n"
           "    @staticmethod\n    def d():\n        pass\n"
           "class K:\n    @cache\n    def method(self):\n        pass\n"
           "    def m(self):\n        @functools.cache\n        def e():\n            pass\n")
    assert list(_memoized_nested_functions(ast.parse(src))) == [
        "outer.a", "outer.b", "outer.c", "K.m.e"]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    """A refactor must not break the traced benchmark silently: each
    function the tracer wraps is bound in its module, each method it wraps
    is defined in its class's own body, the engine classes it names exist,
    and a family carries the `_cols` memo it reads."""
    tracer = _load_tracer()
    reports = [t for ts in tracer.TWISTED_REPORTS.values()
               for t in (ts if isinstance(ts, tuple) else (ts,))]
    targets = [("twisted", t) for t in reports] + [
        ("modes", "Family.apply_basis"), ("delta", "apply_delta"),
        ("twisted", "SigmaModule.__init__"), ("fock", "mode_apply"),
        ("checks", "bracket_table_check"), ("checks", "borcherds_check"),
        ("vosa", "calibrate_n2"), ("vosa", "creation_report"),
        ("vosa", "grading_report"), ("vosa", "translation_report"),
        ("superalgebra", "verify_algebra"), ("superalgebra", "verify_automorphism"),
    ] + [("scalars", f"ExactScalar.{op}")
         for op in ("__mul__", "__rmul__", "__add__", "__radd__")]
    missing = []
    for mod_name, dotted in targets:
        module = importlib.import_module(f"superfock.{mod_name}")
        if "." in dotted:
            cls_name, attr = dotted.split(".")
            found = attr in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, dotted, None))
        if not found:
            missing.append(f"{mod_name}.{dotted}")
    engines = [vars(importlib.import_module(f"superfock.{m}")) for m in ("vosa", "twisted")]
    missing += [name for name in tracer.ENGINES if not any(name in e for e in engines)]
    assert not missing, f"perfbench/tracer.py relies on missing names: {missing}"
    family = importlib.import_module("superfock.modes").Family(None, 0, 0)
    assert family._cols == {}


def test_workload_names_resolve():
    """A deletion must not break a benchmark workload silently: each name
    `perfbench/workloads.py` imports from the package, and each method or
    function it calls outside the tracer, still resolves."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    # `from superfock.vosa import Vosa` -> "vosa.Vosa", `from superfock import cli` -> "cli"
    names = [f"{node.module}.{alias.name}".partition(".")[2] for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "superfock"
             for alias in node.names]
    names += ["checks.CheckReport.to_json", "checks.TableReport.to_json",
              "superalgebra.AlgebraReport.to_json", "twisted.Corollary2Result.to_json",
              "superalgebra.Element.of", "superalgebra.Element.scale",
              "fock.TruncatedSpace.basis_dump", "delta.residual_for_coefficients",
              "superalgebra.mirror_map_on_generator",
              "superalgebra.corrupted_virasoro_quintic", "superalgebra.rescaled_virasoro"]
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        found = importlib.import_module(f"superfock.{module}")
        for attr in attrs:
            found = getattr(found, attr, None)
        if found is None:
            missing.append(name)
    assert not missing, f"perfbench/workloads.py relies on missing names: {missing}"


# the trace rule ------------------------------------------------------------------

# Run in one process with both sides of each fork in series, these commands
# enter every package function that the commands of scripts/same_outputs.py
# enter; each comes with its exit code.
TRACED_COMMANDS = [
    ("all --json", 0),
    ("verify vosa --max-weight 3 --json", 1),
    ("verify twisted --levels 1 --json", 1),
    ("calibrate n2 --json", 0),
    ("calibrate n2 --window 3", 2),
    ("character --space vosa --trunc 4 --dump-basis", 0),
    ("character --space ns-fermion --trunc 3 --json", 0),
    ("character --space ramond --trunc 5 --json", 0),
    ("character --space twisted --trunc 6 --json", 0),
    ("corollary2 --json", 0),
    ("delta --k 2 --terms 3 --verify-order 10 --json", 0),
    ("verify algebra --name virasoro-corrupted-quintic --window 3 --json", 1),
    ("verify algebra --name virasoro-rescaled-11 --window 3 --json", 0),
    ("all --window 0", 2),
    ("delta --k 0 --terms 1", 2),
]
# the trace entered 251 of the package's 267 functions
MIN_ENTERED = 240

ERROR_PATH = "error path: builds an exception that no command provokes"
ABSTRACT = "abstract base: every subclass overrides it"
GUARD = "immutability guard: refuses an assignment that no code makes"
VALUE = "value semantics: equality, hashing or display of a value"
TEST_REFERENCE = "test reference: the tests compare the engines with it"
PERFBENCH = "named by perfbench: the benchmark patches or calls it"
FORKED = "forked child: it runs the fork, which the trace replaces by a serial run"

# each package function that no traced command enters, with its reason
NEVER_ENTERED = {
    "modes._not_half_units": ERROR_PATH,
    "modes.Family._compute": ABSTRACT,
    "modes.Engine._build_family": ABSTRACT,
    "scalars.ExactScalar.__setattr__": GUARD,
    "series.Series.__setattr__": GUARD,
    "scalars.ExactScalar.__hash__": VALUE,
    "superalgebra.Element.__eq__": VALUE,
    "superalgebra.Element.__repr__": VALUE,
    "fock.mode_apply": TEST_REFERENCE,
    "fock.FockState.level": TEST_REFERENCE,
    "fock.FockState.parity": TEST_REFERENCE,
    "checks.CheckReport.to_json": PERFBENCH,
    "checks.CheckViolation.to_json": PERFBENCH,
    "fork.rebuilt_error": ERROR_PATH,
    "fork.both": FORKED,
    "fork._child": FORKED,
}


def _defined_functions(node, scope=()):
    """(dotted path, first line, name) of each function a module defines,
    methods and nested functions included.  The first line is that of the
    first decorator, as in the function's code object; a lambda has no name
    and is left out."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path = scope + (child.name,)
            if not isinstance(child, ast.ClassDef):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                yield ".".join(path), first, child.name
            yield from _defined_functions(child, path)
        else:
            yield from _defined_functions(child, scope)


def _entered_code(run) -> set:
    """The code object of every Python frame entered while run() runs."""
    codes = set()

    def tracer(frame, event, arg):
        # a global trace function sees each call; None asks for no line events
        codes.add(frame.f_code)

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return codes


def _code_keys(codes, directory: Path) -> set:
    """'module:first line:name' of each code object compiled from a module
    file in directory."""
    return {f"{Path(code.co_filename).stem}:{code.co_firstlineno}:{code.co_name}"
            for code in codes if Path(code.co_filename).parent == directory}


def _never_entered(modules: dict, keys: set) -> tuple:
    """The functions of modules ({name: source}) that no code key names, and
    the number that one does, each as 'module.dotted.path'."""
    defined = {f"{name}:{first}:{fn}": f"{name}.{path}" for name, source in modules.items()
               for path, first, fn in _defined_functions(ast.parse(source))}
    never = sorted(dotted for key, dotted in defined.items() if key not in keys)
    return never, len(defined) - len(never)


def _trace_cli():
    """Print, as JSON, the exit code of each of TRACED_COMMANDS and the code
    key of every package function they enter.  The trace starts before the
    CLI is imported, so import-time calls count, and the commands run in
    this process, both sides of each fork in series (the child's work,
    then that of the calling process: the forked parts of `all`, then its
    others, and the odd share of the L(0) spectra, then the even one): a
    forked child's calls would not reach this trace."""
    exits = []

    def run():
        from superfock import cli, fork

        fork.both = lambda child, here: (child(), here())
        for command, _ in TRACED_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                exits.append(cli.main(command.split()))

    keys = _code_keys(_entered_code(run), PACKAGE)
    print(json.dumps({"exits": exits, "entered": sorted(keys)}))


@pytest.fixture(scope="module")
def cli_trace():
    # a fresh interpreter: a warm one's module caches would hide calls
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                         text=True, check=True).stdout
    trace = json.loads(out)
    modules = {path.stem: path.read_text() for path in MODULES}
    return (trace["exits"], *_never_entered(modules, set(trace["entered"])))


def test_traced_commands_are_compared_by_same_outputs(monkeypatch):
    # the trace stands for the commands of scripts/same_outputs.py, so it
    # runs none that the byte-identity check leaves out
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    missing = [command for command, _ in TRACED_COMMANDS
               if command not in same_outputs.COMMANDS]
    assert not missing, f"traced commands that same_outputs.py does not compare: {missing}"


def test_traced_commands_run_to_their_exit_codes(cli_trace):
    exits, _, entered = cli_trace
    assert exits == [code for _, code in TRACED_COMMANDS]
    assert entered >= MIN_ENTERED


def test_every_package_function_is_entered_or_allowlisted(cli_trace):
    _, never, _ = cli_trace
    unexplained = [name for name in never if name not in NEVER_ENTERED]
    assert not unexplained, ("no traced command enters these package functions; "
                             f"delete them or allowlist them with a reason: {unexplained}")


def test_no_allowlist_entry_is_stale(cli_trace):
    _, never, _ = cli_trace
    stale = [name for name in NEVER_ENTERED if name not in never]
    assert not stale, f"allowlisted functions that are missing or entered: {stale}"
    assert set(NEVER_ENTERED.values()) <= {ERROR_PATH, ABSTRACT, GUARD, VALUE,
                                           TEST_REFERENCE, PERFBENCH, FORKED}


def test_trace_finder_sees_each_form(tmp_path):
    src = ("def top():\n    def inner():\n        pass\n    def spare():\n        pass\n"
           "    inner()\n"
           "class K:\n    @property\n    def prop(self):\n        return 1\n"
           "    def unused(self):\n        pass\n"
           "    class Nested:\n        @staticmethod\n        @cache\n"
           "        def method():\n            pass\n"
           "def never(f=lambda: 0):\n    return f\n"
           "def at_import():\n    return [x for x in (1,)]\n"
           "at_import()\n")
    code = compile(src, str(tmp_path / "synthetic.py"), "exec")

    def run():
        namespace = {"cache": lambda f: f}
        exec(code, namespace)
        namespace["top"]()
        assert namespace["K"]().prop == 1
        namespace["K"].Nested.method()
        namespace["never"].__defaults__[0]()

    keys = _code_keys(_entered_code(run), tmp_path)
    assert _never_entered({"synthetic": src}, keys) == (
        ["synthetic.K.unused", "synthetic.never", "synthetic.top.spare"], 5)
    assert [p for p, *_ in _defined_functions(ast.parse(src))] == [
        "top", "top.inner", "top.spare", "K.prop", "K.unused", "K.Nested.method",
        "never", "at_import"]


if __name__ == "__main__":
    _trace_cli()
