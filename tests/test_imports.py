"""Every name a module of the package imports is used in it."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "realisability"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """The names the module's imports bind, with their lines."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _used(tree: ast.AST) -> set:
    """The names the module reads, also inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    used |= _used(ast.parse(sub.value, mode="eval"))
    return used


def test_the_package_has_modules():
    assert {"cli.py", "ordinals.py", "syntax.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, "%s imports names it never uses: %s" % (
        path.name, ", ".join("%s (line %d)" % kv
                             for kv in sorted(unused.items())))


def test_an_unused_import_is_found():
    tree = ast.parse("from .notation import CnfSum, Eps, LimC\n"
                     "import weakref\n"
                     "x: 'Optional[Eps]' = LimC\n"
                     "def f(y: 'CnfSum'): return 'weakref'\n")
    assert set(_imported(tree)) - _used(tree) == {"weakref"}
