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


def _private_names(tree: ast.Module) -> dict:
    """The private names the module binds at its top level, with their
    lines: defined functions and classes, and assigned names."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _read(tree: ast.AST) -> set:
    """The names the module reads: loaded names, attribute names and the
    names it imports from other modules."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_name_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in MODULES}
    read = set().union(*map(_read, trees.values()))
    dead = ["%s:%d %s" % (module, line, name)
            for module, tree in trees.items()
            for name, line in _private_names(tree).items()
            if name not in read]
    assert not dead, "private names no module reads: %s" % ", ".join(dead)


def test_a_dead_private_name_is_found():
    a = ast.parse("_A, _B = 1, 2\n"
                  "_C: int = 3\n"
                  "def _f(): return _A\n"
                  "def _h(): return _f\n"
                  "def _i(): pass\n"
                  "class _K: _j = 0\n"
                  "__all__ = []\n")
    b = ast.parse("from .a import _i\n"
                  "import a\n"
                  "x = a._K\n")
    read = _read(a) | _read(b)
    assert set(_private_names(a)) - read == {"_B", "_C", "_h"}
