import math
import time

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from realisability.poles import Generated, _chase, _chase_key, member
from realisability.syntax import Fn, Num, eval_term
from realisability.vm import (
    FUEL, MEMO_SIZE, PV, App, Diverged, Fix, IfZ, Kernel, Lam, Lit, Pair,
    Pred, Prim, Proj0, Proj1, Stuck, StuckError, Suc, Value, Var, _close,
    _floor, decode, encode, pair, unpair, vbits, vint, vle, vnat, vpair,
    vunpair,
)


def cantor(x, y):
    # independent oracle: the closed formula, evaluated separately
    return (x + y) * (x + y + 1) // 2 + y


def test_pair_zero():
    assert pair(0, 0) == 0


def test_pair_matches_closed_formula():
    for x in range(0, 200, 7):
        for y in range(0, 200, 11):
            assert pair(x, y) == cantor(x, y)


def test_projection_laws():
    assert unpair(pair(7, 9)) == (7, 9)


def test_unpair_total_inverse():
    for z in range(5000):
        x, y = unpair(z)
        assert pair(x, y) == z


@hyp.given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_pair_bijection_property(x, y):
    assert unpair(pair(x, y)) == (x, y)


def test_sparse_values_agree_with_concrete():
    v = vpair(vpair(3, 4), vpair(5, vpair(6, 7)))
    assert vint(v) == pair(pair(3, 4), pair(5, pair(6, 7)))
    a, b = vunpair(v)
    assert a == pair(3, 4)
    assert vle(v, 10) is False
    assert vle(vpair(1, 2), 100) is True


def test_sparse_equality_mixed_representation():
    big = vpair(2**80, 3)
    assert big == vnat(pair(2**80, 3)) and vnat(pair(2**80, 3)) == big
    assert big != vpair(2**80, 4)
    # an int at or above 2^64 is not in canonical form: it equals no PV
    assert big != pair(2**80, 3) and pair(2**80, 3) != big


def _tower(depth, leaf, last=None):
    """x_{k+1} = <x_k, x_k> from the given leaf, built afresh; its
    rightmost leaf is replaced by last when that is given."""
    x = leaf
    y = leaf if last is None else last
    for _ in range(depth):
        x, y = vpair(x, x), vpair(x, y)
    return y


def test_equality_compares_shared_values_once():
    # each tower has 2^40 leaves but only about 80 distinct nodes
    start = time.perf_counter()
    a, b = _tower(40, 2**70), _tower(40, 2**70)
    assert a is not b and a == b and a == a and hash(a) == hash(b)
    c = _tower(40, 2**70, last=2**70 + 1)
    assert a != c and b != c
    assert time.perf_counter() - start < 0.5


def test_repr_of_a_shared_tower_is_short():
    t = _tower(40, 2**70)
    start = time.perf_counter()
    r = repr(t)
    assert time.perf_counter() - start < 0.1
    assert r.startswith("PV(PV(...), PV(...))[< 2^") and len(r) < 60, r
    assert repr(vpair(2**70, 3)) == "PV(PV(...), 3)[< 2^150]"


# ---------------------------------------------------------------------------
# programs and evaluation

K = Kernel()
IDENT = encode(Lam(Var(0)))


def kept_by(k, maker):
    """The entries of k's memo that maker makes, by key: a kept key
    starts with the function that makes its value."""
    return {key: v for key, v in k.facts.items()
            if type(key) is tuple and key[0] is maker}


def test_identity_program():
    r = K.apply(IDENT, 5, 1000)
    assert isinstance(r, Value) and r.n == 5


def test_encode_decode_roundtrip_examples():
    progs = [
        Lam(Var(0)),
        Lam(Lam(Pair(Proj0(Var(0)), Var(1)))),
        Fix(Lam(IfZ(Var(0), Lit(0), App(Var(1), Pred(Var(0)))))),
        Prim(3, Suc(Lit(7))),
        Stuck(),
    ]
    for p in progs:
        assert decode(encode(p)) == p


# one program of each class, with its code: <tag, fields>, the tag the
# class's position in Var, Lam, App, Lit, Suc, Pred, IfZ, Pair, Proj0,
# Proj1, Fix, Prim, Stuck, and the fields paired from the right
CLASS_CODES = [
    (Var(2), 5), (Lam(Var(0)), 1), (App(Var(0), Var(1)), 33), (Lit(7), 62),
    (Suc(Var(0)), 10), (Pred(Var(0)), 15),
    (IfZ(Var(0), Lit(1), Lit(2)), 4059590664), (Pair(Lit(1), Lit(2)), 93088),
    (Proj0(Var(0)), 36), (Proj1(Var(0)), 45), (Fix(Var(0)), 55),
    (Prim(3, Var(0)), 159), (Stuck(), 78),
]


@pytest.mark.parametrize("p, code", CLASS_CODES,
                         ids=[type(p).__name__ for p, _ in CLASS_CODES])
def test_each_class_keeps_its_code(p, code):
    assert encode(p) == code
    assert decode(code) == p


def test_a_code_with_a_pv_tag_or_primitive_id_is_stuck():
    assert decode(vpair(11, vpair(2**70, encode(Var(0))))) == Stuck()
    assert decode(vpair(vpair(2**70, 0), 0)) == Stuck()


def test_decode_total_on_arbitrary_codes():
    for n in range(2000):
        decode(n)  # must not raise


def test_invalid_code_is_stuck():
    bad = vpair(99, 5)
    assert decode(bad) == Stuck()
    r = K.apply(bad, 0, 100)
    assert r == Diverged("stuck")


def test_a_variable_code_with_a_pv_index_is_stuck_at_once():
    assert decode(vpair(0, vpair(2**70, 0))) == Stuck()
    # the index is a shared tower that would take seconds to expand
    start = time.perf_counter()
    assert K.apply(vpair(0, _tower(30, 2**70)), 0, 10) == Diverged("stuck")
    assert time.perf_counter() - start < 0.1


def test_continuation_constant_shape():
    # k_pi = \a.\b.<(b)0, a>
    k_pi = encode(Lam(Lam(Pair(Proj0(Var(0)), Var(1)))))
    r1 = K.apply(k_pi, 4, 10**4)
    assert isinstance(r1, Value)
    b = pair(11, 13)
    r2 = K.apply(r1.n, b, 10**4)
    assert isinstance(r2, Value)
    assert r2.n == pair(11, 4)


def test_fix_divergence():
    loop = encode(Fix(Var(0)))  # unfolds to itself forever
    r = K.apply(loop, 0, 10**4)
    assert r == Diverged("fuel")


def test_a_fixed_point_that_unfolds_to_itself_runs_o1_periods():
    # each period calls the primitive once, then gives back Var 0; the
    # whole periods are skipped, so only the first and the last partial
    # one run
    calls = []

    def count(_k, v):
        calls.append(v)
        # stepping every period would call it 10^12 / 8 times
        assert len(calls) <= 2, "a skipped period ran"
        return v

    k = Kernel()
    pid = k.register_primitive(5, count)
    loop = encode(Fix(App(Lam(Var(1)), Prim(pid, Lit(0)))))
    assert k.apply(loop, 0, 10**12) == Diverged("fuel")


def test_omega_exhausts_fuel_without_recursion_error():
    # 13 codes \x.xx; its self-application is a tail call
    assert decode(13) == Lam(App(Var(0), Var(0)))
    assert Kernel().apply(13, 13, 10**6) == Diverged("fuel")


def test_deep_recursion_runs_on_the_continuation_stack():
    # f(n) = if n=0 then 0 else f(n-1)+1 nests 20000 pending successors
    f = Fix(Lam(IfZ(Var(0), Lit(0), Suc(App(Var(1), Pred(Var(0)))))))
    r = Kernel().apply(encode(f), 20000, 10**6)
    assert isinstance(r, Value) and r.n == 20000


def test_fix_computes_recursion():
    # add-by-recursion: f(n) = if n=0 then 100 else f(n-1)+1
    f = Fix(Lam(IfZ(Var(0), Lit(100), Suc(App(Var(1), Pred(Var(0)))))))
    r = K.apply(encode(f), 7, 10**4)
    assert isinstance(r, Value) and r.n == 107


def test_fixpoint_unfolding_law_concrete():
    f = Fix(Lam(IfZ(Var(0), Lit(9), Suc(App(Var(1), Pred(Var(0)))))))
    # one-step unfolding: substitute the fixed point's own code for the
    # bound variable
    from test_kernel_diff import subst
    unfolded = subst(f.body, 0, encode(f))
    for n in [0, 1, 5]:
        a = K.apply(encode(f), n, 10**5)
        b = K.apply(encode(unfolded), n, 10**5)
        assert isinstance(a, Value) and isinstance(b, Value)
        assert a.n == b.n


def test_register_primitive():
    k = Kernel()
    k.register_primitive(1, lambda _k, v: vint(v) * 2)
    r = k.run(Prim(1, Lit(21)), 100)
    assert isinstance(r, Value) and r.n == 42
    try:
        k.register_primitive(1, lambda _k, v: v)
        assert False, "duplicate id must be rejected"
    except ValueError:
        pass


def test_a_primitive_is_called_with_its_kernel():
    seen = []

    def prim(kernel, v):
        seen.append(kernel)
        return kernel.kept((prim, v), vint, v) + 1

    k = Kernel()
    k.register_primitive(1, prim, cost=lambda v: 2)
    assert k.run(Prim(1, Lit(4)), 100) == Value(5, 4) and seen == [k]
    assert kept_by(k, prim) == {(prim, 4): 4}


# ---------------------------------------------------------------------------
# the kernel's one memo

def test_a_kept_value_is_made_once_even_when_it_is_none():
    k, calls = Kernel(), []

    def make(x):
        calls.append(x)

    for _ in range(3):
        assert k.kept((make, 1), make, 1) is None
    assert calls == [1] and kept_by(k, make) == {(make, 1): None}


def test_a_failed_make_keeps_nothing():
    k, calls = Kernel(), []

    def make(x):
        calls.append(x)
        raise StuckError()

    for _ in range(2):
        with pytest.raises(StuckError):
            k.kept((make, 1), make, 1)
    assert calls == [1, 1] and k.facts == {}


def test_the_memo_is_emptied_when_full_and_by_a_new_primitive():
    k = Kernel()
    for n in range(MEMO_SIZE):
        k.kept((vint, n), vint, n)
    assert len(k.facts) == MEMO_SIZE
    # the next entry finds the memo full: only it is kept
    assert k.kept((vint, -1), vint, 7) == 7
    assert k.facts == {(vint, -1): 7}
    k.closure(IDENT)  # an int code's closure goes in the same memo
    assert set(k.facts) == {(vint, -1), IDENT}
    k.register_primitive(9, lambda _k, v: v)  # a primitive changes runs
    assert k.facts == {}


def test_unregistered_primitive_is_stuck():
    r = K.run(Prim(77, Lit(0)), 100)
    assert r == Diverged("stuck")


def pair_tower(levels, top):
    """The code of Lam((Lam(... top))(Pair x x)), levels deep: on 2**70
    the innermost x is a PV of about 71 * 2**levels bits made of levels
    shared nodes."""
    body = top
    for _ in range(levels):
        body = App(Lam(body), Pair(Var(0), Var(0)))
    return encode(Lam(body))


def test_expanding_a_pair_is_charged_by_its_size():
    # Suc expands <2**70, 2**70>: vbits 144, so 3 units on top of the
    # application and the four nodes Suc, Pair, Var, Var
    x = vnat(2**70)
    r = K.apply(encode(Lam(Suc(Pair(Var(0), Var(0))))), x, 100)
    assert r == Value(vnat(pair(2**70, 2**70) + 1), 8)
    r = K.apply(encode(Lam(Pred(Pair(Var(0), Var(0))))), x, 100)
    assert r == Value(vnat(pair(2**70, 2**70) - 1), 8)
    assert K.apply(encode(Lam(Suc(Pair(Var(0), Var(0))))), x, 7) \
        == Diverged(FUEL)


def test_suc_and_pred_of_a_pair_tower_run_out_of_fuel_quickly():
    # expanding the 16-level tower would build a 4.65 Mbit int in seconds
    for top in (Suc(Var(0)), Pred(Var(0))):
        start = time.perf_counter()
        assert K.apply(pair_tower(16, top), vnat(2**70), 1000) \
            == Diverged(FUEL)
        assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# property tests

sparse_naturals = st.recursive(
    st.integers(0, 2**80).map(vnat),
    lambda vs: st.builds(vpair, vs, vs),
    max_leaves=12,
)


@hyp.given(sparse_naturals)
def test_vbits_bounds_the_bit_length(v):
    assert vint(v).bit_length() <= vbits(v)


def is_canonical(v, seen=None):
    """v is an int below 2^64 or a PV of canonical children whose value
    is at least 2^64; shared nodes are checked once."""
    if type(v) is int:
        return 0 <= v < 2**64
    if type(v) is not PV:
        return False
    seen = set() if seen is None else seen
    if id(v) in seen:
        return True
    seen.add(id(v))
    a, b = v.a, v.b
    return (is_canonical(a, seen) and is_canonical(b, seen)
            and (type(a) is PV or type(b) is PV or pair(a, b) >= 2**64))


naturals = st.one_of(st.integers(0, 2**70), st.integers(2**64 - 2, 2**64 + 2),
                     st.integers(0, 2**200))


@hyp.given(naturals, naturals)
@hyp.example(2**64 - 1, 0)
@hyp.example(2**64, 2**64)
def test_every_producer_of_naturals_gives_the_canonical_form(x, y):
    vx, vy = vnat(x), vnat(y)
    lit = Lit(vx)
    made = [
        (vnat(x), x), (vpair(x, y), pair(x, y)), (vpair(vx, y), pair(x, y)),
        (eval_term(Num(x)), x), (eval_term(Fn("s", (Num(vx),))), x + 1),
        (eval_term(Fn("+", (Num(vx), Num(vy)))), x + y),
        (eval_term(Fn("*", (Num(vx), Num(vy)))), x * y),
        (Kernel().run(Suc(lit), 100).n, x + 1),
        (Kernel().run(Pred(lit), 100).n, max(x - 1, 0)),
    ]
    for v, want in made:
        assert is_canonical(v) and vint(v) == want
        again = vnat(want)  # the same value, built separately
        assert v == again and hash(v) == hash(again)
        assert (v == vx) == (want == x)


programs = st.recursive(
    st.one_of(
        st.builds(Var, st.integers(0, 2)),
        st.builds(Lit, st.integers(0, 50)),
    ),
    lambda ps: st.one_of(
        st.builds(Lam, ps),
        st.builds(App, ps, ps),
        st.builds(Suc, ps),
        st.builds(Pred, ps),
        st.builds(IfZ, ps, ps, ps),
        st.builds(Pair, ps, ps),
        st.builds(Proj0, ps),
        st.builds(Proj1, ps),
        st.builds(Fix, ps),
    ),
    max_leaves=25,
)


@hyp.given(programs)
def test_encode_decode_roundtrip_property(p):
    assert decode(encode(p)) == p


@hyp.given(programs, st.integers(0, 20))
def test_determinism_and_monotonicity(p, m):
    e = encode(p)
    r1 = K.apply(e, m, 300)
    r2 = K.apply(e, m, 300)
    assert r1 == r2
    if isinstance(r1, Value):
        r3 = K.apply(e, m, 10**4)
        assert isinstance(r3, Value) and r3.n == r1.n


# ---------------------------------------------------------------------------
# closure codes, built when first read

def built(v):
    """Whether the children of the PV v have been built."""
    try:
        PV.a.__get__(v), PV.b.__get__(v)
    except AttributeError:
        return False
    return True


envs = st.lists(st.one_of(st.integers(0, 50), sparse_naturals), max_size=3)


@hyp.settings(deadline=None)
@hyp.given(st.one_of(st.builds(Lam, programs), st.builds(Fix, programs)),
           envs)
def test_a_closure_value_is_its_code(p, env):
    v = Kernel()._machine(p, tuple(env), None, None, [10])
    want = _close(p, tuple(env), 0)  # canonical: an int iff below 2^64
    assert (type(v) is int) == (type(want) is int)
    assert v == want and hash(v) == hash(want) and is_canonical(v)
    # the children are filled in once and stay
    if type(v) is PV:
        assert built(v) and v.clo == (p, tuple(env))
        assert (v.a, v.b) == (want.a, want.b)


def _programs_over(leaves):
    return st.recursive(leaves, lambda ps: st.one_of(
        st.builds(Lam, ps), st.builds(App, ps, ps), st.builds(Suc, ps),
        st.builds(IfZ, ps, ps, ps), st.builds(Pair, ps, ps),
        st.builds(Fix, ps), st.builds(Prim, st.integers(0, 30), ps)),
        max_leaves=12)


literals = st.builds(Lit, st.one_of(st.integers(0, 50), sparse_naturals))


@hyp.settings(deadline=None)
@hyp.given(_programs_over(literals),
           _programs_over(st.one_of(literals,
                                    st.builds(Var, st.integers(0, 3)))),
           envs)
def test_the_floor_is_the_code_capped_at_2_64(closed, p, env):
    # with no variable the floor is the code itself, capped: the
    # canonical code is an int exactly when it is below 2^64
    code = encode(closed)
    assert _floor(closed) == (code if type(code) is int else 2**64)
    # with variables it is a lower bound under any env
    code = _close(p, tuple(env), 0)
    assert type(code) is PV or _floor(p) <= code


@hyp.settings(deadline=None)
@hyp.given(programs, sparse_naturals, sparse_naturals)
def test_closures_of_one_program_in_different_envs_are_different_keys(
        body, x, y):
    hyp.assume(x != y)
    p = Lam(Pair(Var(1), body))  # reads its env's first value
    k = Kernel()
    pole = Generated(frozenset({0}), 2)
    for env in ((x,), (y,), (x,)):
        member(vpair(k.code(p, env), 0), pole, 50, k)
    # the third closure equals the first, so it finds the first's verdict
    assert len(kept_by(k, _chase)) == 2


@hyp.settings(deadline=None)
@hyp.given(programs, envs, st.one_of(st.integers(0, 20), sparse_naturals))
def test_applying_a_closure_does_not_build_its_code(body, env, m):
    big = vpair(2**70, 1)
    # Lit(big) makes the code at least 2^64 whatever the body
    p = Lam(Pair(Lit(big), body))
    v = K.code(p, tuple(env))
    assert type(v) is PV and not built(v)
    K.apply(v, m, 300)
    assert not built(v)
    # one made by the machine, applied by the machine
    maker = encode(Lam(Lam(Pair(Lit(big), Pair(Var(0), Var(1))))))
    r = K.apply(maker, m, 100)
    assert isinstance(r, Value) and not built(r.n)
    r2 = K.apply(r.n, 4, 100)
    assert r2 == Value(vpair(big, vpair(4, m)), r2.fuel_used)
    assert not built(r.n)
    # comparing it builds it
    prog, cenv = r.n.clo
    assert r.n == _close(prog, cenv, 0) and built(r.n)


# applied to anything, gives back its env's first value; its code is at
# least 2^64 (Lit of a PV), so its closures are lazy
BIG_BODY = Lam(Proj1(Pair(Lit(vpair(2**70, 1)), Var(1))))


def test_member_builds_no_closure_code():
    pole = Generated(frozenset({0}), 4)
    k = Kernel()
    t = k.code(BIG_BODY, (0,))
    assert member(vpair(t, 3), pole, 100, k).kind == "in"
    assert not built(t)
    # a closure of the same program in an equal env is an equal value,
    # and it finds the entry without being built either
    t2 = k.code(BIG_BODY, (0,))
    assert _chase_key(vpair(t2, 3)) == _chase_key(vpair(t, 3))
    assert member(vpair(t2, 3), pole, 100, k).kind == "in"
    assert len(kept_by(k, _chase)) == 1 and not built(t2)
    # in another env, or another program in the same env, it is another
    # value, and another key
    other = Lam(Proj1(Pair(Lit(vpair(2**70, 1)), Lit(5))))
    for t3 in (k.code(BIG_BODY, (5,)), k.code(other, (0,))):
        assert member(vpair(t3, 3), pole, 100, k).kind == "out"
    assert len(kept_by(k, _chase)) == 3


def _decoded(p):
    # a code that the kernel decodes when it applies it
    v = encode(p)
    K.closure(v)
    return v


# ways to make a value, each called twice below so that equal values are
# built apart: by vpair and vnat, by encode, by Kernel.code (lazily or at
# once; the program object is shared by both builds), by decoding, and
# pairs of those
value_makers = st.recursive(
    st.one_of(
        sparse_naturals.map(lambda v: lambda: vnat(vint(v))),
        programs.map(lambda p: lambda: encode(p)),
        st.builds(lambda p, env: lambda: K.code(p, tuple(env)),
                  st.one_of(st.builds(Lam, programs), st.builds(Fix, programs),
                            programs.map(lambda b: Lam(Pair(BIG_BODY, b)))),
                  envs),
        programs.map(lambda p: lambda: _decoded(p)),
    ),
    lambda ms: st.builds(lambda f, g: lambda: vpair(f(), g()), ms, ms),
    max_leaves=4,
)


@hyp.settings(deadline=None, max_examples=80)
@hyp.given(st.lists(value_makers, min_size=1, max_size=4),
           st.frozensets(st.integers(0, 20), min_size=1))
def test_equal_chase_keys_are_equal_values(makers, seed):
    vs = [make() for make in makers for _ in range(2)]
    keys = [_chase_key(v) for v in vs]
    for v, kv in zip(vs, keys):
        for w, kw in zip(vs, keys):
            if kv == kw:
                assert hash(kv) == hash(kw) and v == w
    # one kernel answers all, so equal keys share an entry; each
    # reference chase runs on a kernel of its own
    pole = Generated(seed, 3)
    k = Kernel()
    for v in vs:
        assert member(v, pole, 60, k) == _chase(v, pole, 60, Kernel())

