"""Source hygiene that needs no linter: every top-level import of a package
module is used in that module, and no handler under src/ or tests/ catches
every exception (a swallowed error must not let a check pass)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superfock"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}


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
