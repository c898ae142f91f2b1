import random

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from realisability.notation import onat
from realisability.poles import (
    Empty, Full, Generated, IN, OUT, UNKNOWN, Verdict, agreement,
)
from realisability.semantics import (
    Budget, EmptySampleError, FALSE, TRUE, check_cr_axioms, realises,
    refutes, sample_refuters, truth,
)
from realisability.syntax import (
    All, Eq, Fn, Imp, InPole, Num, TVar, bot, parse_formula, subst,
)
from realisability.vm import Kernel, vpair

K = Kernel()
B = Budget(fuel=10**5, samples=10, width=30)
EQ00 = Eq(Num(0), Num(0))
EQ01 = bot()


def test_truth_empty_equations():
    assert truth(EQ00, Empty(), B, K).kind == TRUE
    assert truth(EQ01, Empty(), B, K).kind == FALSE
    t = truth(parse_formula("(= (+ 2 2) 4)"), Empty(), B, K)
    assert t.kind == TRUE


def test_truth_empty_implication_table():
    assert truth(Imp(EQ01, EQ01), Empty(), B, K).kind == TRUE
    assert truth(Imp(EQ00, EQ01), Empty(), B, K).kind == FALSE
    assert truth(Imp(EQ00, EQ00), Empty(), B, K).kind == TRUE


def test_truth_empty_false_universal_has_witness():
    t = truth(parse_formula("(all x (= x 3))"), Empty(), B, K)
    assert t.kind == FALSE and t.witness == 0


def test_truth_empty_true_universal_is_unknown():
    # a width-bounded scan cannot certify an unbounded universal
    t = truth(parse_formula("(all x (= (+ x 0) x))"), Empty(), B, K)
    assert t.kind == UNKNOWN


def test_truth_keeps_the_reason_of_an_unknown():
    # 13799629 = <id, <id, 100>> is in the pole, but not within one step
    pole = Generated(frozenset({0, 3, 8}), 1)
    deep = InPole(Num(13799629))
    for a in (Imp(deep, EQ01), Imp(EQ00, deep)):
        t = truth(a, pole, B, K, gamma=onat(1))
        assert (t.kind, t.reason) == (UNKNOWN, "depth")
    t = truth(parse_formula("(all x (= (+ x 0) x))"), Empty(), B, K)
    assert t.reason == "width"


def test_sampling_blocked_by_a_pole_atom_keeps_its_reason():
    a = Imp(EQ00, InPole(Num(10**6)))
    rv = realises(3, a, Generated(frozenset({0, 3, 8}), 1), Budget(), K,
                  gamma=onat(1))
    assert rv.verdict == Verdict(UNKNOWN, "depth")


def test_false_equation_refuted_by_every_small_number():
    for pole in (Empty(), Full(), Generated(frozenset({0}), 8)):
        for m in range(0, 101, 10):
            assert refutes(m, EQ01, pole, B, K).kind == IN


def test_true_equation_refuters_are_pole_members():
    assert refutes(5, EQ00, Empty(), B, K).kind == OUT
    assert refutes(5, EQ00, Full(), B, K).kind == IN
    g = Generated(frozenset({5}), 8)
    assert refutes(5, EQ00, g, B, K).kind == IN
    assert refutes(6, EQ00, g, B, K).kind == OUT


def test_universal_refuter_projects_to_instance():
    # <5, r> refutes (all x (= (+ x 0) x)) when r is in the pole,
    # because the instance at 5 is a true equation
    a = parse_formula("(all x (= (+ x 0) x))")
    r = 7
    g = Generated(frozenset({r}), 8)
    assert refutes(vpair(5, r), a, g, B, K).kind == IN
    assert refutes(vpair(5, r + 1), a, g, B, K).kind == OUT


def test_realises_exact_under_empty_pole():
    v = realises(0, EQ01, Empty(), B, K)
    assert v.verdict.kind == OUT and v.verdict.witness == 0
    assert realises(0, EQ00, Empty(), B, K).verdict.kind == IN
    assert realises(123, Imp(EQ01, EQ01), Empty(), B, K).verdict.kind == IN


def test_sample_refuters_empty_error():
    with pytest.raises(EmptySampleError):
        sample_refuters(EQ00, Empty(), 1, B, K, random.Random(0))


def test_sample_refuters_count_and_validity():
    g = Generated(frozenset({0, 3}), 16)
    a = parse_formula("(imp (= 0 0) (= 0 1))")
    ms = sample_refuters(a, g, 6, B, K, random.Random(1))
    assert len(ms) == 6
    for m in ms:
        assert refutes(m, a, g, B, K).kind == IN


def test_sampled_realiser_check_detects_failure():
    g = Generated(frozenset({0}), 16)
    # 9 does not realise 0=0: the refuter 0 is in the pole but <9,0>
    # is not (it decodes to a program application that gets stuck or
    # lands outside the seed)
    v = realises(9, EQ00, g, Budget(fuel=10**4, samples=4, width=10), K,
                 random.Random(0))
    assert v.verdict.kind in (OUT, UNKNOWN)


formulas = st.recursive(
    st.one_of(st.just(EQ00), st.just(EQ01),
              st.builds(Eq, st.builds(Num, st.integers(0, 5)),
                        st.builds(Num, st.integers(0, 5)))),
    lambda fs: st.builds(Imp, fs, fs),
    max_leaves=6,
)


@hyp.given(formulas)
@hyp.settings(deadline=None, max_examples=40)
def test_sampled_refuters_really_refute(a):
    g = Generated(frozenset({0, 2, 4}), 16)
    try:
        ms = sample_refuters(a, g, 4, B, K, random.Random(7))
    except EmptySampleError:
        return
    for m in ms:
        assert refutes(m, a, g, B, K).kind in (IN, UNKNOWN)


@hyp.given(formulas, st.integers(0, 60))
@hyp.settings(deadline=None, max_examples=60)
def test_empty_pole_collapse_to_truth(a, n):
    # under the empty pole, any n realises A exactly when A is true
    t = truth(a, Empty(), B, K)
    v = realises(n, a, Empty(), B, K)
    if t.kind == TRUE:
        assert v.verdict.kind == IN
    elif t.kind == FALSE:
        assert v.verdict.kind == OUT


def test_check_cr_axioms_report():
    corpus = [EQ00, EQ01, Imp(EQ00, EQ01), Imp(EQ01, EQ00),
              parse_formula("(all x (= x 3))"),
              parse_formula("(all x (= (+ x 0) x))")]
    g = Generated(frozenset({0, 1, 2}), 16)
    recs = check_cr_axioms(g, corpus, B, K, random.Random(3))
    assert recs
    for r in recs:
        assert r["verdict"] in ("agree", "unknown")
        assert set(r) == {"axiom", "instance", "verdict", "lhs", "rhs",
                          "samples"}


def test_term_regularity_agreement():
    template = Eq(Fn("+", (TVar("v"), Num(1))), Fn("s", (TVar("v"),)))
    s = parse_formula("(= (+ 1 1) 2)").l  # term (+ 1 1)
    t = Num(2)
    a_s, a_t = subst(template, "v", s), subst(template, "v", t)
    for pole in (Empty(), Full(), Generated(frozenset({0, 9}), 16)):
        for m in range(0, 60, 7):
            assert agreement(refutes(m, a_s, pole, B, K),
                             refutes(m, a_t, pole, B, K)) != "disagree"
