"""End-to-end acceptance battery.

Nine checks covering the evaluator kernel, the combinator contracts,
extraction soundness over the shipped proof corpus, the empty-pole
collapse to classical truth, the trivialising translation, ordinal
arithmetic against brute-force oracles, well-ordering realisers, the
level-indexed layer, and report reproducibility.
"""

import itertools
import json
import pathlib
import random
import time

from realisability.cli import main as cli_main
from realisability.extraction import (
    check_proof, combinator, extract_value, parse_proof,
)
from realisability.notation import (
    CnfSum, Eps, LESS, LimC, O_ZERO, add, classify, compare, eps, fundseq,
    ocode, omega, omega_pow, omega_tower, onat, print_ord,
)
from realisability.ordinals import (
    build_TI, ordinal_kernel, ti_proof_template, wo_combinator,
    wo_realiser,
)
from realisability.poles import Empty, Generated, IN, OUT
from realisability.ramified import (
    check_model_equivalence, ram_corpus, rr_instance_corpus,
    tau_empty_code, tau_zero_code, translate_conservative, translate_empty,
    translate_zero,
)
from realisability.semantics import (
    Budget, FALSE, TRUE, certified_realiser, realises, sample_refuters,
    truth,
)
from realisability.syntax import All, Eq, Imp, Num, TVar, godel, subst
from realisability.vm import (
    App, Diverged, Fix, IfZ, Lam, Lit, Pair, Pred, Proj0, Proj1, Suc,
    Value, Var, encode, pair, unpair, vpair,
)

from test_kernel_diff import subst as vm_subst
from test_ordinals import brute_cmp, small_notations

KERNEL = ordinal_kernel()
POLES3 = [Generated(frozenset({0, 3, 8}), 64),
          Generated(frozenset({1, 4}), 64),
          Generated(frozenset({2, 5, 9}), 64)]

PROOF_DIR = pathlib.Path(__file__).resolve().parent.parent \
    / "corpus" / "proofs"


# ---------------------------------------------------------------------------
# 1. Kernel laws

def test_acceptance_1_kernel_laws():
    start = time.time()
    # pairing is a bijection: every code below 10^4 splits and rejoins
    for n in range(10**4 + 1):
        x, y = unpair(n)
        assert pair(x, y) == n
    # projection laws, exhaustive on a dense grid and sampled to 10^4
    for x in range(101):
        for y in range(101):
            assert unpair(pair(x, y)) == (x, y)
    rng = random.Random(1)
    for _ in range(2000):
        x, y = rng.randrange(10**4 + 1), rng.randrange(10**4 + 1)
        assert unpair(pair(x, y)) == (x, y)

    # determinism and fuel monotonicity on 10^3 random programs
    rng = random.Random(2)
    for _ in range(1000):
        p = _random_program(rng, 3)
        e = encode(p)
        m = rng.randrange(0, 30)
        r1 = KERNEL.apply(e, m, 200)
        r2 = KERNEL.apply(e, m, 200)
        assert r1 == r2
        if isinstance(r1, Value):
            r3 = KERNEL.apply(e, m, 5000)
            assert isinstance(r3, Value) and r3.n == r1.n

    # fixed-point unfolding law on 100 random bodies
    rng = random.Random(3)
    checked = 0
    while checked < 100:
        body = _random_program(rng, 2)
        f = Fix(Lam(body))
        unfolded = vm_subst(f.body, 0, encode(f))
        m = rng.randrange(0, 10)
        a = KERNEL.apply(encode(f), m, 10**4)
        b = KERNEL.apply(encode(unfolded), m, 10**4)
        if isinstance(a, Diverged) and a.reason == "fuel":
            continue  # out of budget before the law becomes observable
        if isinstance(a, Value):
            assert isinstance(b, Value) and a.n == b.n
        else:
            assert not isinstance(b, Value)
        checked += 1
    assert time.time() - start < 10.0


def _random_program(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice([Var(rng.randrange(0, 2)),
                           Lit(rng.randrange(0, 40))])
    kind = rng.randrange(0, 9)
    sub_p = lambda: _random_program(rng, depth - 1)
    if kind == 0:
        return Lam(sub_p())
    if kind == 1:
        return App(sub_p(), sub_p())
    if kind == 2:
        return Suc(sub_p())
    if kind == 3:
        return Pred(sub_p())
    if kind == 4:
        return IfZ(sub_p(), sub_p(), sub_p())
    if kind == 5:
        return Pair(sub_p(), sub_p())
    if kind == 6:
        return Proj0(sub_p())
    if kind == 7:
        return Proj1(sub_p())
    return Fix(sub_p())


# ---------------------------------------------------------------------------
# 2. Combinator contracts

def _sentence(rng, depth=1):
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        x = rng.randrange(0, 9)
        if rng.random() < 0.5:
            return Eq(Num(x), Num(x))
        return Eq(Num(x), Num(x + 1 + rng.randrange(0, 3)))
    if roll < 0.75:
        return Imp(_sentence(rng, depth - 1), _sentence(rng, depth - 1))
    return All("x", Imp(Eq(TVar("x"), Num(rng.randrange(0, 4))),
                        _sentence(rng, depth - 1)))


def _apply(e, m, fuel=10**6):
    r = KERNEL.apply(e, m, fuel)
    assert isinstance(r, Value), r
    return r.n


def test_acceptance_2_combinator_contracts():
    b = Budget(fuel=10**6, samples=100, width=30)
    rng = random.Random(4)
    pairs = [(_sentence(rng), _sentence(rng)) for _ in range(50)]
    i_c, u_c, s_c = combinator("i"), combinator("u"), combinator("s")
    kpi, kbot = combinator("k_pi"), combinator("k_bot")
    for pole in POLES3:
        # one certified realiser serves every sentence under this pole
        top = certified_realiser(Eq(Num(0), Num(1)), pole, b, KERNEL)
        fam = encode(Lam(Lit(top)))  # n |-> certified realiser
        seed_elt = min(pole.seed)
        for a_f, b_f in pairs:
            imp = Imp(a_f, b_f)
            # i: realiser-level modus ponens
            got = _apply(i_c, vpair(top, top))
            v = realises(got, b_f, pole, b, KERNEL, rng)
            assert v.verdict.kind != OUT, ("i", v)
            # u then s: build the universal, then instantiate it back
            forall = All("x", Imp(Eq(TVar("x"), TVar("x")), a_f))
            u_val = _apply(u_c, fam)
            v = realises(u_val, forall, pole, b, KERNEL, rng)
            assert v.verdict.kind != OUT, ("u", v)
            w = rng.randrange(0, 25)
            inst = subst(forall.body, "x", Num(w))
            s_val = _apply(s_c, vpair(u_val, w))
            v = realises(s_val, inst, pole, b, KERNEL, rng)
            assert v.verdict.kind != OUT, ("s", v)
            # k_pi: a saved refuter of A yields a realiser of A -> B
            ref = sample_refuters(a_f, pole, 1, b, KERNEL, rng)[0]
            kv = _apply(kpi, ref)
            v = realises(kv, imp, pole, b, KERNEL, rng)
            assert v.verdict.kind != OUT, ("k_pi", v)
            # k_bot: a pole element realises everything
            kb = _apply(kbot, seed_elt)
            for goal in (a_f, b_f, imp):
                v = realises(kb, goal, pole, b, KERNEL, rng)
                assert v.verdict.kind != OUT, ("k_bot", v)


# ---------------------------------------------------------------------------
# 3. Extraction soundness over the shipped corpus

def test_acceptance_3_extraction_soundness():
    start = time.time()
    paths = sorted(PROOF_DIR.glob("*.sexp"))
    assert len(paths) >= 20
    b = Budget(fuel=10**6, samples=100, width=20)
    rng = random.Random(5)
    for path in paths:
        proof = parse_proof(path.read_text())
        concl, value = extract_value(proof, KERNEL)
        for pole in POLES3:
            v = realises(value, concl, pole, b, KERNEL, rng)
            assert v.verdict.kind != OUT, (path.name, v)
    assert time.time() - start < 300.0


# ---------------------------------------------------------------------------
# 4. Empty-pole collapse

def _definite_corpus(rng, count, b):
    out = []
    while len(out) < count:
        f = _sentence(rng, 2)
        if truth(f, Empty(), b, KERNEL).definite():
            out.append(f)
    return out


def test_acceptance_4_empty_pole_collapse():
    b = Budget(fuel=10**5, samples=5, width=30)
    rng = random.Random(6)
    corpus = _definite_corpus(rng, 200, b)
    empty = Empty()

    def holds(f):
        return realises(0, f, empty, b, KERNEL).verdict.kind == IN

    for f in corpus:
        t = truth(f, Empty(), b, KERNEL)
        # realisability collapses to truth, exactly, for every subject
        for n in (0, 7, 1234):
            rv = realises(n, f, empty, b, KERNEL)
            assert (rv.verdict.kind == IN) == (t.kind == TRUE), f
        # compositional clauses of the collapsed realisability predicate
        if isinstance(f, Eq):
            assert holds(f) == (t.kind == TRUE)
        if isinstance(f, Imp):
            ta = truth(f.a, Empty(), b, KERNEL)
            tb = truth(f.b, Empty(), b, KERNEL)
            if ta.definite() and tb.definite():
                assert holds(f) == ((ta.kind != TRUE) or tb.kind == TRUE)
        if isinstance(f, All) and t.kind == FALSE:
            bad = subst(f.body, f.var, Num(t.witness))
            assert not holds(bad)
            assert not holds(f)


# ---------------------------------------------------------------------------
# 5. Trivialising translation of realisability axioms

def test_acceptance_5_translation_conservativity():
    b = Budget(width=40)
    insts = rr_instance_corpus(100, onat(2), random.Random(7))
    assert len(insts) == 100
    for kind, f in insts:
        t = truth(translate_conservative(f), Empty(), b, KERNEL)
        assert t.kind == TRUE, kind


# ---------------------------------------------------------------------------
# 6. Ordinal arithmetic against oracles

def test_acceptance_6_ordinal_facts():
    corpus = small_notations()
    table = {-1: "less", 0: "equal", 1: "greater"}
    for a, b_n in itertools.product(corpus, corpus):
        assert compare(a, b_n) == table[brute_cmp(a, b_n)], \
            (print_ord(a), print_ord(b_n))

    w = omega()
    eps0 = eps(O_ZERO)
    rng = random.Random(8)
    def no_eps(a):
        if isinstance(a, Eps):
            return False
        return all(no_eps(e) for e, _ in getattr(a, "terms", ()))

    eps_free = [a for a in corpus if no_eps(a)]
    limits = [a for a in eps_free if isinstance(classify(a), LimC)]
    for _ in range(1000):
        n = rng.randrange(1, 9)
        # [w]_n = n
        assert fundseq(w, n) == onat(n)
        # [w^(a+1)]_n = w^a * n
        a = rng.choice(corpus)
        base = omega_pow(a)
        assert fundseq(omega_pow(add(a, onat(1))), n) \
            == CnfSum(((base.terms[0][0], n),))
        # [eps_0]_n is the n-storey omega tower over 1
        assert fundseq(eps0, n) == omega_tower(onat(1), n)
        # [eps_{a+1}]_n towers over eps_a + 1
        a = rng.choice(eps_free)
        assert fundseq(eps(add(a, onat(1))), n) \
            == omega_tower(add(eps(a), onat(1)), n)
        # [eps_lam]_n = eps_{[lam]_n} for limit lam
        lam = rng.choice(limits)
        assert fundseq(eps(lam), n) == eps(fundseq(lam, n))

    for a in corpus:
        if not isinstance(classify(a), LimC):
            continue
        prev = None
        for n in range(21):
            cur = fundseq(a, n)
            assert compare(cur, a) == LESS, (a, n)
            if prev is not None and n > 1:
                assert compare(prev, cur) == LESS, (a, n)
            prev = cur


# ---------------------------------------------------------------------------
# 7. Well-ordering realisers

A_REFL = Eq(TVar("x"), TVar("x"))
A_CODE = godel(A_REFL)


def test_acceptance_7_well_ordering_realisers():
    start = time.time()
    for kind in ("zero", "suc", "omega", "lim"):
        check_proof(ti_proof_template(kind, A_REFL, omega() if kind == "lim"
                                      else None, var="x"))

    pole = POLES3[0]
    b = Budget(fuel=10**6, samples=50, width=20)
    rng = random.Random(9)
    ksuc = wo_combinator("k_suc")
    komega = wo_combinator("k_omega")

    # build each target ordinal along its combinator path
    e0 = wo_combinator("k0")
    e1 = _apply(ksuc, vpair(e0, ocode(O_ZERO)), 10**7)
    e2 = _apply(ksuc, vpair(e1, ocode(onat(1))), 10**7)
    ew = _apply(komega, vpair(e1, ocode(onat(1))), 10**7)      # w = w^1
    ew2pow = _apply(komega, vpair(e2, ocode(onat(2))), 10**7)  # w^2
    eww = _apply(komega, vpair(ew, ocode(omega())), 10**7)     # w^w
    wtimes2 = CnfSum(((onat(1), 2),))
    ewtimes2 = wo_realiser(wtimes2, KERNEL)  # a genuine limit: w*2
    cases = [
        (O_ZERO, e0), (onat(1), e1), (onat(2), e2), (omega(), ew),
        (wtimes2, ewtimes2),
        (omega_pow(onat(2)), ew2pow), (omega_pow(omega()), eww),
    ]
    for alpha, e in cases:
        r = _apply(e, A_CODE, 10**7)
        goal = build_TI(A_REFL, alpha, "x")
        v = realises(r, goal, pole, b, KERNEL, rng)
        assert v.verdict.kind != OUT, (print_ord(alpha), v)

    # the epsilon dispatcher at index 0 reaches transfinite induction
    # along the first epsilon number
    keps = wo_combinator("k_eps")
    reps = _apply(_apply(keps, ocode(O_ZERO), 10**7), A_CODE, 10**7)
    goal = build_TI(A_REFL, eps(O_ZERO), "x")
    v = realises(reps, goal, pole, b, KERNEL, rng)
    assert v.verdict.kind != OUT, v
    assert time.time() - start < 600.0


# ---------------------------------------------------------------------------
# 8. Level-indexed layer

def test_acceptance_8_ramified_layer():
    b = Budget(fuel=10**5, samples=10, width=40)
    gen = Generated(frozenset({0, 3, 8}), 64)
    for gamma in (onat(1), onat(2), omega()):
        corpus = ram_corpus(200, gamma, random.Random(10))
        for pole in (Empty(), gen):
            recs = check_model_equivalence(corpus, gamma, pole, b, KERNEL,
                                           random.Random(11))
            assert not any(r["verdict"] == "disagree" for r in recs)
            definite = sum(r["verdict"] == "agree" for r in recs)
            assert definite >= 0.9 * len(recs), (print_ord(gamma), pole)
        # code-level translations commute with the tree-level ones
        for s in corpus:
            assert (tau_empty_code(KERNEL, godel(s))
                    == godel(translate_empty(s)))
            t = translate_empty(s)
            assert tau_zero_code(KERNEL, godel(t)) == godel(translate_zero(t))

    insts = rr_instance_corpus(100, onat(2), random.Random(12))
    for kind, f in insts:
        t = truth(translate_conservative(f), Empty(), b, KERNEL)
        assert t.kind == TRUE, kind


# ---------------------------------------------------------------------------
# 9. Reproducibility

def test_acceptance_9_suite_reproducible(capsys):
    argv = ["suite", "--seed", "2026", "--pole", "generated:0,3,8"]
    code1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert code1 == code2 and code1 in (0, 2)
    rep = json.loads(out1)
    assert rep["seed"] == 2026
