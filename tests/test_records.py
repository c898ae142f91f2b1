"""The record classes of the library behave as the dataclasses they
replace: the same constructor, defaults and __post_init__ checks, the same
equality and repr, unhashable nodes, and frozen values that hash their
fields and refuse assignment."""

import pytest

from realisability import cli, extraction, notation, poles, semantics
from realisability import syntax, vm

ZERO_O = notation.ZeroO()
EQ00 = syntax.Eq(syntax.Num(0), syntax.Num(0))
X, V0 = syntax.TVar("x"), vm.Var(0)

# one instance of each node class, with its dataclass repr
NODES = [
    (X, "TVar(name='x')"),
    (syntax.Num(3), "Num(n=3)"),
    (syntax.Fn("+", (X, syntax.Num(1))),
     "Fn(name='+', args=(TVar(name='x'), Num(n=1)))"),
    (syntax.Eq(X, syntax.Num(0)), "Eq(l=TVar(name='x'), r=Num(n=0))"),
    (syntax.Imp(EQ00, syntax.Eq(syntax.Num(0), syntax.Num(1))),
     "Imp(a=Eq(l=Num(n=0), r=Num(n=0)), b=Eq(l=Num(n=0), r=Num(n=1)))"),
    (syntax.All("x", syntax.Eq(X, X)),
     "All(var='x', body=Eq(l=TVar(name='x'), r=TVar(name='x')))"),
    (syntax.InPole(syntax.Num(5)), "InPole(t=Num(n=5))"),
    (syntax.Fals(ZERO_O, syntax.Num(2), X),
     "Fals(level=ZeroO(), s=Num(n=2), t=TVar(name='x'))"),
    (syntax.Real(ZERO_O, X, syntax.Num(4)),
     "Real(level=ZeroO(), s=TVar(name='x'), t=Num(n=4))"),
    (syntax.Tru(ZERO_O, syntax.Num(9)), "Tru(level=ZeroO(), t=Num(n=9))"),
    (V0, "Var(index=0)"),
    (vm.Lam(V0), "Lam(body=Var(index=0))"),
    (vm.App(vm.Var(1), vm.Lit(2)), "App(fn=Var(index=1), arg=Lit(n=2))"),
    (vm.Lit(7), "Lit(n=7)"),
    (vm.Suc(V0), "Suc(p=Var(index=0))"),
    (vm.Pred(V0), "Pred(p=Var(index=0))"),
    (vm.IfZ(V0, vm.Lit(1), vm.Lit(2)),
     "IfZ(scrutinee=Var(index=0), zero=Lit(n=1), succ=Lit(n=2))"),
    (vm.Pair(vm.Lit(0), vm.Lit(1)), "Pair(l=Lit(n=0), r=Lit(n=1))"),
    (vm.Proj0(V0), "Proj0(p=Var(index=0))"),
    (vm.Proj1(V0), "Proj1(p=Var(index=0))"),
    (vm.Fix(V0), "Fix(body=Var(index=0))"),
    (vm.Prim(1, V0), "Prim(pid=1, arg=Var(index=0))"),
    (vm.Stuck(), "Stuck()"),
    (vm.Value(3), "Value(n=3, fuel_used=0)"),
    (vm.Diverged("fuel"), "Diverged(reason='fuel')"),
    (extraction.Axiom("refleq", EQ00),
     "Axiom(kind='refleq', formula=Eq(l=Num(n=0), r=Num(n=0)), data=())"),
    (extraction.MP(extraction.Hyp(EQ00), extraction.Hyp(EQ00)),
     "MP(major=Hyp(formula=Eq(l=Num(n=0), r=Num(n=0))), "
     "minor=Hyp(formula=Eq(l=Num(n=0), r=Num(n=0))))"),
    (extraction.Gen("x", extraction.Hyp(EQ00)),
     "Gen(var='x', sub=Hyp(formula=Eq(l=Num(n=0), r=Num(n=0))))"),
    (extraction.Hyp(EQ00), "Hyp(formula=Eq(l=Num(n=0), r=Num(n=0)))"),
]

# one instance of each frozen value class, with its dataclass repr
VALUES = [
    (ZERO_O, "ZeroO()"),
    (notation.Eps(ZERO_O), "Eps(sub=ZeroO())"),
    (notation.CnfSum(((ZERO_O, 2),)), "CnfSum(terms=((ZeroO(), 2),))"),
    (notation.ZeroC(), "ZeroC()"),
    (notation.SucC(ZERO_O), "SucC(pred=ZeroO())"),
    (notation.LimC(), "LimC()"),
    (poles.Empty(), "Empty()"),
    (poles.Full(), "Full()"),
    (poles.Generated([3, 0]),
     "Generated(seed=frozenset({0, 3}), chase_depth=64)"),
    (poles.Verdict("in"), "Verdict(kind='in', reason=None, witness=None)"),
    (semantics.Budget(), "Budget(fuel=1000000, samples=20, width=50)"),
    (semantics.RealVerdict(poles.Verdict("out", witness=5), 20),
     "RealVerdict(verdict=Verdict(kind='out', reason=None, witness=5), "
     "samples=20)"),
    (cli.RunConfig(poles.Empty(), semantics.Budget(fuel=10), ZERO_O),
     "RunConfig(pole=Empty(), budget=Budget(fuel=10, samples=20, "
     "width=50), gamma=ZeroO(), seed=0, report_path=None)"),
]


def _ids(table):
    return [type(x).__name__ for x, _ in table]


def test_every_record_class_is_covered():
    classes = {type(x) for x, _ in NODES + VALUES}
    assert len(classes) == len(NODES) + len(VALUES) == 29 + 13


def _names(x):
    """x's field names: its class's constructor parameters."""
    code = type(x).__init__.__code__
    return code.co_varnames[1:code.co_argcount]


def _fields(x):
    return [getattr(x, name) for name in _names(x)]


@pytest.mark.parametrize("x, text", NODES + VALUES, ids=_ids(NODES + VALUES))
def test_repr_and_equality_are_the_dataclass_ones(x, text):
    assert repr(x) == text
    # rebuilt from its fields, a record equals x and is no other object
    fields = _fields(x)
    y = type(x)(*fields)
    assert y == x and not y != x and y is not x
    assert repr(y) == text
    assert x != text and x != fields and x != tuple(fields)


def test_equality_needs_the_same_class():
    assert notation.ZeroC() != notation.LimC()
    assert poles.Empty() != poles.Full()
    assert vm.Lit(0) != vm.Var(0) and vm.Suc(V0) != vm.Pred(V0)
    assert vm.Proj0(V0) != vm.Proj1(V0)
    assert syntax.Fals(ZERO_O, X, X) != syntax.Real(ZERO_O, X, X)
    assert syntax.Num(0) != 0 and vm.Stuck() == vm.Stuck()


@pytest.mark.parametrize("x, _", NODES, ids=_ids(NODES))
def test_nodes_are_unhashable_and_plain(x, _):
    with pytest.raises(TypeError):
        hash(x)
    x._kept = 1  # a fact kept on a node, as the library does
    assert x._kept == 1


@pytest.mark.parametrize("x, text", VALUES, ids=_ids(VALUES))
def test_frozen_values_hash_their_fields_and_refuse_assignment(x, text):
    fields = tuple(_fields(x))
    assert hash(x) == hash(fields) == hash(type(x)(*fields))
    names = _names(x)
    for name in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text


def test_defaults_hold():
    assert vm.Value(0).fuel_used == 0
    assert poles.Generated([1]).chase_depth == 64
    assert extraction.Axiom("k", EQ00).data == ()
    assert poles.Verdict("in").reason is None
    assert semantics.Budget() == semantics.Budget(10**6, 20, 50)
    config = cli.RunConfig(poles.Full(), semantics.Budget(), ZERO_O)
    assert (config.seed, config.report_path) == (0, None)
    assert vm.Value(0, 5).fuel_used == 5
    assert vm.Value(n=1, fuel_used=2) == vm.Value(1, 2)


def test_post_init_still_runs():
    with pytest.raises(ValueError):
        semantics.Budget(fuel=0)
    with pytest.raises(ValueError):
        poles.Verdict(poles.UNKNOWN)
    with pytest.raises(ValueError):
        poles.Generated([])
    assert poles.Generated([1, 2]).seed == frozenset({1, 2})
    assert poles.Generated((2, 1, 2), 5) == poles.Generated([1, 2], 5)
