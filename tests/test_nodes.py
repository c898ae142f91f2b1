"""Syntax, program and proof nodes are plain records (`_record.record`
without `frozen`): cheap to build, unhashable, and never assigned a field
after construction.  The library keeps facts on nodes (free variables,
fold and base flags, check records, code floors) but never reassigns a
declared field; the guard below checks that on whole commands."""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from realisability import cli, extraction, syntax, vm
from realisability.extraction import Axiom, MP, Hyp
from realisability.ordinals import ti_proof_template
from realisability.syntax import parse_formula

ROOT = pathlib.Path(__file__).resolve().parent.parent

NODE_CLASSES = [c for m in (syntax, vm, extraction) for c in vars(m).values()
                if isinstance(c, type) and "_fields" in vars(c)
                and c.__module__ == m.__name__]


def _set_once(self, name, value):
    if name in self._fields and name in self.__dict__:
        raise AttributeError("%s.%s assigned again"
                             % (type(self).__name__, name))
    object.__setattr__(self, name, value)


@pytest.fixture
def guarded(monkeypatch):
    """Every node class raises when a declared field is assigned a
    second time."""
    for c in NODE_CLASSES:
        monkeypatch.setattr(c, "__setattr__", _set_once)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _expected(workload):
    with open(ROOT / "bench" / "expected" / ("%s.json" % workload)) as f:
        return json.load(f)["queries"]


def test_node_classes_are_the_plain_records():
    assert len(NODE_CLASSES) == 29
    # not frozen: __init__ assigns each field directly, and an instance
    # has no hash
    assert not any("__setattr__" in vars(c) for c in NODE_CLASSES)
    assert all(c.__hash__ is None for c in NODE_CLASSES)


def test_the_guard_catches_a_reassigned_field(guarded):
    a = syntax.Imp(syntax.bot(), syntax.bot())
    a._fv = frozenset()  # a kept record, not a field
    with pytest.raises(AttributeError):
        a.b = a.a
    with pytest.raises(AttributeError):
        vm.Value(0).fuel_used = 1


def test_nodes_are_never_reassigned(guarded, monkeypatch):
    monkeypatch.chdir(ROOT)
    corpus = _expected("corpus")
    shipped = sorted(k for k in corpus if "corpus/proofs/" in k
                     and json.loads(k)[-1] == "generated:0,3,8")
    ti = _expected("ti")
    notations = sorted(k for k in ti
                       if json.loads(k)[3:5] == ["--formula", "(= x x)"])
    assert len(shipped) == 24 and len(notations) == 18
    for key, want in [(k, corpus[k]) for k in shipped] + \
            [(k, ti[k]) for k in notations]:
        code, out = _run(json.loads(key))
        assert (code, _digest(out)) == (want["exit"], want["stdout_sha256"])
    goldens = sorted((ROOT / "tests" / "golden").glob("suite-*.json"))
    assert len(goldens) == 3
    for path in goldens:
        golden = json.loads(path.read_text())
        assert _run(golden["argv"]) == (golden["exit_code"], golden["stdout"])


def test_nodes_are_unhashable():
    a = parse_formula("(all y (= x y))")
    for node in (a, vm.Lam(vm.Var(0)), MP(Axiom("k", a), Hyp(a))):
        with pytest.raises(TypeError):
            hash(node)


def test_templates_share_what_subst_does_not_change(monkeypatch):
    a = parse_formula("(all y (= (+ x y) (+ x y)))")
    made = []

    def counting(init):
        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)
        return counted

    for c in NODE_CLASSES:
        monkeypatch.setattr(c, "__init__", counting(c.__init__))
    ti_proof_template("suc", a, var="x")
    ti_proof_template("zero", a, var="x")
    # a subst that rebuilds every implication and universal it passes
    # makes 244 nodes here
    assert len(made) <= 240
