import gc
import weakref

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from realisability.poles import (
    Empty, FALSE, Full, Generated, IN, OUT, TRUE, UNKNOWN, V_IN, V_OUT,
    Verdict, _chase, agreement, member,
)
from realisability.vm import (
    MEMO_SIZE, PV, App, Fix, Kernel, Lam, Lit, Pair, Prim, Proj1, Suc, Value,
    Var, encode, pair, vnat, vpair,
)

from test_vm import kept_by

K = Kernel()
IDENT = encode(Lam(Var(0)))


def test_empty_pole_has_no_members():
    assert member(42, Empty(), 100, K).kind == OUT


def test_full_pole_has_all_members():
    assert member(42, Full(), 100, K).kind == IN


def test_generated_seed_membership():
    p = Generated(frozenset({0, 17}), 8)
    assert member(0, p, 1000, K).kind == IN
    assert member(17, p, 1000, K).kind == IN
    assert member(5, p, 1000, K).kind == OUT  # decodes to a stuck pair


def test_one_step_closure_chase():
    # <code(\x.x), 0>: (\x.x) . 0 = 0 which is in the seed
    p = Generated(frozenset({0}), 8)
    n = vpair(IDENT, 0)
    assert member(n, p, 1000, K).kind == IN


def test_two_step_closure_chase():
    p = Generated(frozenset({9}), 8)
    inner = vpair(IDENT, 9)
    outer = vpair(IDENT, inner)
    assert member(outer, p, 10**4, K).kind == IN


def test_divergence_gives_unknown_fuel():
    p = Generated(frozenset({0}), 8)
    loop = encode(Fix(Var(0)))
    n = vpair(loop, 0)
    v = member(n, p, 1000, K)
    assert v.kind == UNKNOWN and v.reason == "fuel"


def test_depth_exhaustion_gives_unknown_depth():
    # id applied to id applied to ... never reaches the seed within depth
    p = Generated(frozenset({3}), 2)
    n = vpair(IDENT, vpair(IDENT, vpair(IDENT, vpair(IDENT, 3))))
    v = member(n, p, 10**5, K)
    assert v.kind == UNKNOWN and v.reason == "depth"
    assert member(n, Generated(frozenset({3}), 10), 10**5, K).kind == IN


def test_generated_pole_rejects_an_empty_seed():
    # the empty seed generates the empty pole, which Empty() already names
    with pytest.raises(ValueError):
        Generated(frozenset(), 8)


def test_generated_pole_takes_seeds_below_2_64():
    # a seed element is an int of the canonical form, so a chase value
    # meets it by int membership
    assert Generated(frozenset({2**64 - 1}), 8).seed == {2**64 - 1}
    for bad in (-1, 2**64):
        with pytest.raises(ValueError):
            Generated(frozenset({0, bad}), 8)


small_programs = st.one_of(
    st.just(Lam(Var(0))),
    st.just(Lam(Suc(Var(0)))),
    st.just(Lam(Pair(Var(0), Lit(3)))),
    st.just(Lam(App(Lit(IDENT), Var(0)))),
)


@hyp.given(small_programs, st.integers(0, 30))
def test_closure_soundness(prog, m):
    # if e.m = v and v is In, then <e,m> is In: the converse-closure rule
    p = Generated(frozenset(range(25)), 16)
    e = encode(prog)
    r = K.apply(e, m, 10**4)
    assert isinstance(r, Value)
    if member(r.n, p, 10**4, K).kind == IN:
        assert member(vpair(e, m), p, 10**4, K).kind == IN


@hyp.given(st.integers(0, 400))
@hyp.example(364)  # <13, 13>: the chase applies omega = 13 to itself
def test_monotonicity_in_budgets(n):
    p_lo = Generated(frozenset({0, 17}), 4)
    p_hi = Generated(frozenset({0, 17}), 32)
    lo = member(n, p_lo, 100, K)
    hi = member(n, p_hi, 10**4, K)
    if lo.kind != UNKNOWN:
        assert hi.kind == lo.kind


# ---------------------------------------------------------------------------
# The kernel's chase memo

def test_chase_memo_keys_on_the_value():
    # x . 0 = 3, and the code x is built afresh each time
    def code():
        return encode(Lam(App(Lam(Lit(3)), Lit(vnat(2**70)))))

    assert isinstance(code(), PV) and code() is not code()
    p = Generated(frozenset({3}), 1)
    k = Kernel()
    for _ in range(2):
        assert member(vpair(code(), 0), p, 1000, k) == V_IN
        assert member(vpair(code(), 1), p, 1000, k) == V_IN
    assert len(kept_by(k, _chase)) == 2


def test_a_chase_key_keeps_its_program_alive():
    # the key holds the program it compares by identity, so no later
    # program can take its id while the entry lives
    k = Kernel()
    p = Lam(Proj1(Pair(Lit(vnat(2**70)), Lit(0))))
    ref = weakref.ref(p)
    t = k.code(p)
    assert type(t) is PV
    assert member(vpair(t, 3), Generated(frozenset({0}), 4), 100, k) == V_IN
    del p, t
    gc.collect()
    assert ref() is not None
    k.facts.clear()
    gc.collect()
    assert ref() is None


def test_chase_memo_keys_on_the_pole_and_the_fuel():
    k = Kernel()
    n = vpair(IDENT, vpair(IDENT, 3))  # two identity steps from 3
    for seed, depth, fuel, kind, reason in (
            ({3}, 8, 1, UNKNOWN, "fuel"), ({3}, 1, 1000, UNKNOWN, "depth"),
            ({3}, 8, 1000, IN, None), ({0}, 8, 1000, OUT, None)):
        v = member(n, Generated(frozenset(seed), depth), fuel, k)
        assert (v.kind, v.reason) == (kind, reason)


def test_register_primitive_empties_the_chase_memo():
    k = Kernel()
    p = Generated(frozenset({3}), 4)
    n = vpair(encode(Lam(Prim(70, Var(0)))), 0)
    assert member(n, p, 1000, k) == V_OUT  # primitive 70 is not there yet
    assert kept_by(k, _chase)
    k.register_primitive(70, lambda _k, _v: 3)
    assert not k.facts
    assert member(n, p, 1000, k) == V_IN


def test_chase_memo_stays_within_its_bound():
    k = Kernel()
    p = Generated(frozenset({0}), 4)
    for n in range(MEMO_SIZE + 100):
        member(n, p, 100, k)
        assert len(k.facts) <= MEMO_SIZE
    assert kept_by(k, _chase)


chase_codes = st.one_of(
    st.integers(0, 3000),
    st.builds(vpair, st.sampled_from([IDENT, 13, 55, encode(Lam(Suc(Var(0)))),
                                      encode(Lam(Pair(Var(0), Var(0))))]),
              st.integers(0, 2**70)),
    st.integers(2**64, 2**70).map(vnat),
)


@hyp.settings(deadline=None, max_examples=60)
@hyp.given(st.lists(chase_codes, min_size=1, max_size=8),
           st.lists(st.tuples(st.integers(0, 7), st.integers(1, 6),
                              st.sampled_from([30, 300])),
                    min_size=1, max_size=24),
           st.frozensets(st.integers(0, 20), min_size=1))
def test_memoised_member_agrees_with_the_chase(codes, queries, seed):
    # one kernel answers every query, repeats and all; each reference
    # chase runs on a kernel of its own
    k = Kernel()
    for i, depth, fuel in queries:
        n, p = codes[i % len(codes)], Generated(seed, depth)
        assert member(n, p, fuel, k) == _chase(n, p, fuel, Kernel())


def test_an_unknown_verdict_names_its_budget():
    with pytest.raises(ValueError):
        Verdict(UNKNOWN)
    assert Verdict(UNKNOWN, "depth").reason == "depth"


def test_agreement_compares_definite_answers_by_polarity():
    depth = Verdict(UNKNOWN, "depth")
    assert agreement(V_IN, Verdict(TRUE)) == "agree"
    assert agreement(V_OUT, Verdict(FALSE)) == "agree"
    assert agreement(V_IN, V_OUT) == "disagree"
    assert agreement(Verdict(FALSE), V_IN) == "disagree"
    assert agreement(depth, V_IN) == agreement(V_OUT, depth) == UNKNOWN
