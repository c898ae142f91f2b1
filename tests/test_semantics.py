import random

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from realisability import ordinals, ramified, semantics, syntax
from realisability.notation import onat
from realisability.poles import (
    Empty, Full, Generated, IN, OUT, UNKNOWN, Verdict, _chase, agreement,
)
from realisability.semantics import (
    Budget, EmptySampleError, FALSE, TRUE, check_cr_axioms, realises,
    refutes, sample_refuters, truth,
)
from realisability.syntax import (
    All, Eq, Fals, Fn, Imp, InPole, Num, Real, Tru, TVar, bot, eval_term,
    explicit_realisation, explicit_refutation, godel, godel_term,
    parse_formula, subst,
)
from realisability.vm import MEMO_SIZE, Kernel, vpair
from test_vm import kept_by

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


GEN = Generated(frozenset({0, 3, 8}))


def test_a_fresh_kernel_holds_no_facts():
    assert Kernel().facts == {}


def test_facts_memo_stays_within_its_bound():
    # each subject s adds the unfolding of its atom; the decoded formula
    # is kept once, until the memo is emptied at MEMO_SIZE entries
    k = Kernel()
    code = Num(godel(EQ00))
    for s in range(MEMO_SIZE + 100):
        v = refutes(0, Fals(onat(0), Num(s), code), Empty(), B, k,
                    gamma=onat(1))
        assert v.kind == IN  # no pole element to refute the unfolding
        assert len(k.facts) <= MEMO_SIZE
    assert 0 < len(kept_by(k, explicit_refutation)) <= len(k.facts) <= 102


def test_unfoldings_are_kept_apart_by_class_level_and_subject():
    # the inner atom's code names a sentence below level 1 but not below
    # level 0; each verdict on a kernel that kept every unfolding before
    # it is the verdict on a fresh kernel
    inner = godel(Fals(onat(0), Num(2), Num(godel(EQ00))))
    atoms = [cls(onat(level), Num(s), Num(t)) for cls in (Fals, Real)
             for level in (0, 1) for t in (godel(EQ00), inner)
             for s in (0, 3, 7)]
    refuters = [0, vpair(1, 0), vpair(1, 5), vpair(vpair(3, 1), 5)]
    shared = Kernel()
    kinds = set()
    for a in atoms:
        for m in refuters:
            v = refutes(m, a, GEN, B, shared, gamma=onat(2))
            assert v == refutes(m, a, GEN, B, Kernel(), gamma=onat(2))
            kinds.add(v.kind)
    assert kinds == {IN, OUT}


def test_certified_realiser_run_is_kept_per_pole_and_fuel():
    k = Kernel()
    for a in (EQ00, EQ01, parse_formula("(imp (= 1 1) (pole 3))")):
        sample_refuters(Imp(a, EQ00), GEN, 4, B, k)
    assert len(kept_by(k, semantics._certified)) == 1
    sample_refuters(Imp(EQ00, EQ00), GEN, 4, Budget(fuel=10**4), k)
    sample_refuters(Imp(EQ00, EQ00), Generated(frozenset({3})), 4, B, k)
    assert len(kept_by(k, semantics._certified)) == 3
    k.register_primitive(70, lambda _k, _v: 3)  # a primitive changes runs
    assert not k.facts


def count_decodes(monkeypatch) -> list:
    """The codes of the top-level ungodel calls made from now on: every
    binding of ungodel is replaced by one counting wrapper, and ungodel
    reaches its own subformulas through its table, not a binding."""
    decoded = []
    decode = syntax.ungodel

    def counting(c):
        decoded.append(c)
        return decode(c)

    for module in (syntax, ramified, ordinals):
        monkeypatch.setattr(module, "ungodel", counting)
    return decoded


def test_atoms_about_one_code_decode_it_once(monkeypatch):
    # the formula of a code is kept under the code alone, so truth and
    # refutation, atoms of either class and level, and a truth atom about
    # the same code decode it once
    formulas = count_decodes(monkeypatch)
    k, c = Kernel(), godel(EQ00)
    fals = Fals(onat(1), Num(3), Num(c))
    truth(fals, GEN, B, k, gamma=onat(2))
    refutes(vpair(1, 0), fals, GEN, B, k, gamma=onat(2))
    for level in (0, 1):
        truth(Real(onat(level), Num(3), Num(c)), GEN, B, k, gamma=onat(2))
        refutes(0, Real(onat(level), Num(3), Num(c)), GEN, B, k,
                gamma=onat(2))
    truth(Tru(onat(1), Num(c)), GEN, B, k, gamma=onat(2))
    assert formulas == [c]


@pytest.mark.parametrize("cls, symbol, unfold", [
    (Fals, "memf", explicit_refutation), (Real, "memt", explicit_realisation)])
@pytest.mark.parametrize("atom_first", [True, False])
def test_an_atom_and_its_dot_membership_term_make_one_unfolding(
        cls, symbol, unfold, atom_first):
    # s F_1 |A| unfolds to the sentence memf(s, |A|) codes, and s T_1 |A|
    # to the one memt(s, |A|) codes: in either order, both read the one
    # unfolding the kernel keeps for (s, |A|)
    k, c = Kernel(), godel(All("y", Eq(TVar("y"), Num(3))))
    atom = cls(onat(1), Num(5), Num(c))
    if atom_first:
        refutes(vpair(1, 0), atom, GEN, B, k, gamma=onat(2))
    code = eval_term(Fn(symbol, (Num(5), Num(c))), k)
    refutes(vpair(1, 0), atom, GEN, B, k, gamma=onat(2))
    [f] = kept_by(k, unfold).values()
    assert f == unfold(Num(5), syntax.ungodel(c))
    assert semantics._unfold(atom, k) is f
    assert syntax._decoded(k, syntax.ungodel, code) is f


def test_dot_membership_values_are_kept_apart_by_symbol_and_arguments():
    # the sentence a memf or memt term codes is a function of the symbol
    # and both its arguments; each verdict on a kernel that kept every
    # value before it is the verdict on a fresh kernel.  The explicit
    # refutation by s of (all y (= y 3)) is (imp (= (p0 s) 3) (pole (p1
    # s))), so the verdicts differ with s and with the symbol.
    codes = (godel(All("y", Eq(TVar("y"), Num(3)))), godel(EQ00))
    subjects = (0, vpair(3, 0), vpair(2, 5))
    atoms = [cls(onat(1), Num(1), Fn(sym, (Num(s), Num(t))))
             for cls in (Fals, Real) for sym in ("memf", "memt")
             for t in codes for s in subjects]
    assert len(atoms) == 24
    shared = Kernel()
    verdicts = []
    for a in atoms:
        v = truth(a, GEN, B, shared, gamma=onat(2))
        assert v == truth(a, GEN, B, Kernel(), gamma=onat(2))
        verdicts.append(v)
        for m in (0, vpair(1, 0), vpair(vpair(3, 1), 5)):
            assert refutes(m, a, GEN, B, shared, gamma=onat(2)) == \
                refutes(m, a, GEN, B, Kernel(), gamma=onat(2))
    kept = {key: f for unfold in (explicit_refutation, explicit_realisation)
            for key, f in kept_by(shared, unfold).items()}
    assert {(unfold, s, t) for unfold in (explicit_refutation,
                                          explicit_realisation)
            for t in codes for s in subjects} <= kept.keys()
    assert all(f == unfold(Num(s), syntax.ungodel(t))
               for (unfold, s, t), f in kept.items())
    assert verdicts[:3] == [Verdict(FALSE), Verdict(TRUE), Verdict(FALSE)]
    assert verdicts[3:6] != verdicts[9:12]  # memf against memt


def test_a_code_of_no_formula_keeps_none_and_answers_as_before():
    c = godel_term(Num(3))  # a term's code, which codes no formula
    k = Kernel()
    for _ in range(2):
        atom = Fals(onat(1), Num(3), Num(c))
        assert truth(atom, GEN, B, k, gamma=onat(2)) == Verdict(FALSE)
        assert refutes(0, atom, GEN, B, k, gamma=onat(2)) == Verdict(OUT)
        assert eval_term(Fn("memf", (Num(1), Num(c))), k) == 0
        assert kept_by(k, syntax.ungodel) == {(syntax.ungodel, c): None}


def _chased(k: Kernel) -> set:
    return {key[3] for key in kept_by(k, _chase)}


def test_a_false_antecedent_decides_an_implication_alone():
    k = Kernel()
    v = truth(parse_formula("(imp (= 0 1) (pole 7))"), GEN, B, k)
    assert v == Verdict(TRUE)
    assert 7 not in _chased(k)


def test_a_realiser_out_on_the_antecedent_decides_a_refuter_alone():
    # 3 realises nothing true under this pole: <3, 0> runs to 6, which
    # is not in it
    k = Kernel()
    a = parse_formula("(imp (= 0 0) (pole 7))")
    assert refutes(vpair(3, 5), a, GEN, B, k) == Verdict(OUT)
    assert 7 not in _chased(k) and _chased(k) == {6}
    # an unknown first component decides nothing: 5 is still chased
    k = Kernel()
    a = parse_formula("(imp (pole 7) (= 0 0))")
    v = refutes(vpair(3, 5), a, Generated(frozenset({0, 3, 8}), 0), B, k)
    assert v == Verdict(UNKNOWN, "depth") and _chased(k) == {5, 7}
