"""Level-indexed layer: explicit builders, axiom instances, the three
translations with their code-level counterparts, and the model
evaluator, checked against independent unfoldings of the defining
clauses."""

import random
from collections import Counter

import pytest

from realisability.notation import omega, onat
from realisability.ordinals import ordinal_kernel
from realisability.poles import (
    Empty, Full, Generated, IN, OUT, UNKNOWN, _chase,
)
from realisability.ramified import (
    check_model_equivalence, check_rr_empty_properties, iff, ram_corpus,
    rr_axiom, rr_instance_corpus, rt_axiom,
    tau_empty_code, tau_zero_code, translate_conservative, translate_empty,
    translate_zero,
)
from realisability.semantics import (
    Budget, FALSE, TRUE, realises, refutes, sample_refuters, truth,
)
from realisability.syntax import (
    All, Eq, Fals, Fn, Imp, InPole, LevelError, Num, ONE, ParseError,
    REAL_SIDE, Real, TRUTH_SIDE, TVar, Tru, bot, conj,
    explicit_realisation, explicit_refutation, free_vars, godel, godel_term,
    in_language, max_level, parse_formula, print_formula, subst, subt,
    ungodel,
)
from realisability.vm import vpair, vunpair
from test_vm import kept_by

B = Budget(fuel=10**5, samples=10, width=40)
KERNEL = ordinal_kernel()
GEN = Generated(frozenset({0, 3, 8}), 64)
L0, L1, L2, LW = onat(0), onat(1), onat(2), omega()

TRUE_EQ = Eq(Num(0), Num(0))
FALSE_EQ = Eq(Num(0), Num(1))


# ---------------------------------------------------------------------------
# Explicit builders

def test_explicit_refutation_atomic_equation():
    got = explicit_refutation(TVar("s"), FALSE_EQ)
    assert got == Imp(FALSE_EQ, InPole(TVar("s")))


def test_explicit_refutation_pole_atom():
    got = explicit_refutation(TVar("s"), InPole(Num(3)))
    assert got == Imp(InPole(Num(3)), InPole(TVar("s")))


def test_explicit_refutation_fals_atom_uses_dot_membership():
    code = Num(godel(TRUE_EQ))
    got = explicit_refutation(TVar("s"), Fals(L0, TVar("a"), code))
    assert got == Fals(L0, TVar("s"), Fn("memf", (TVar("a"), code)))


def test_explicit_refutation_real_atom_uses_dot_membership():
    code = Num(godel(TRUE_EQ))
    got = explicit_refutation(TVar("s"), Real(L0, TVar("a"), code))
    assert got == Fals(L0, TVar("s"), Fn("memt", (TVar("a"), code)))


def test_explicit_refutation_implication_splits_the_pair():
    got = explicit_refutation(TVar("s"), Imp(TRUE_EQ, FALSE_EQ))
    # conj(x, y) is sugar for (x -> (y -> bot)) -> bot; unpack it
    assert isinstance(got, Imp) and got.b == bot()
    left, right = got.a.a, got.a.b.a
    assert right == explicit_refutation(Fn("p1", (TVar("s"),)), FALSE_EQ)
    # the left conjunct realises the antecedent at the first projection,
    # up to the choice of bound refuter variable
    assert isinstance(left, All)
    v = left.var
    s0 = Fn("p0", (TVar("s"),))
    assert left.body == Imp(explicit_refutation(TVar(v), TRUE_EQ),
                            InPole(Fn("pair", (s0, TVar(v)))))


def test_explicit_refutation_universal_instantiates_first_projection():
    a = All("x", Eq(TVar("x"), Num(0)))
    got = explicit_refutation(TVar("s"), a)
    want = explicit_refutation(
        Fn("p1", (TVar("s"),)), Eq(Fn("p0", (TVar("s"),)), Num(0)))
    assert got == want


def test_explicit_realisation_quantifies_a_fresh_refuter():
    got = explicit_realisation(TVar("s"), FALSE_EQ)
    assert isinstance(got, All)
    v = got.var
    assert v != "s"
    assert got.body == Imp(explicit_refutation(TVar(v), FALSE_EQ),
                           InPole(Fn("pair", (TVar("s"), TVar(v)))))


def test_explicit_refutation_rejects_truth_atoms():
    with pytest.raises(TypeError):
        explicit_refutation(TVar("s"), Tru(L0, Num(0)))


# ---------------------------------------------------------------------------
# Substitution and levels

def test_r_subst_capture_avoiding():
    a = All("x", Eq(TVar("x"), TVar("y")))
    got = subst(a, "y", TVar("x"))
    assert isinstance(got, All)
    assert got.var != "x"
    assert got.body == Eq(TVar(got.var), TVar("x"))


def test_r_subst_through_level_atoms():
    a = Fals(L1, TVar("s"), TVar("t"))
    assert subst(a, "s", Num(4)) == Fals(L1, Num(4), TVar("t"))
    assert free_vars(a) == {"s", "t"}


def test_max_level_and_language_membership():
    a = Imp(Fals(L1, Num(0), Num(1)), InPole(Num(2)))
    assert max_level(a) == L1
    assert in_language(a, L2, REAL_SIDE)
    assert not in_language(a, L1, REAL_SIDE)
    assert not in_language(a, L2, TRUTH_SIDE)
    t = Tru(L0, Num(5))
    assert in_language(t, L1, TRUTH_SIDE)
    assert not in_language(t, L1, REAL_SIDE)


# ---------------------------------------------------------------------------
# Coding and text round trips

def _sample_formulas():
    rng = random.Random(11)
    corpus = ram_corpus(40, L2, rng)
    corpus += [
        Tru(L1, Num(godel(TRUE_EQ))),
        All("x", Imp(InPole(TVar("x")), FALSE_EQ)),
        Fals(LW, Fn("+", (Num(1), Num(2))), Num(7)),
        explicit_realisation(Num(3), FALSE_EQ),
    ]
    return corpus


def test_code_roundtrip():
    for a in _sample_formulas():
        assert ungodel(godel(a)) == a, print_formula(a)


def test_code_rejects_garbage():
    assert ungodel(vpair(24, vpair(99, 0))) is None  # bad level
    assert ungodel(vpair(26, vpair(0, vpair(77, 0)))) is None


def test_text_roundtrip():
    for a in _sample_formulas():
        txt = print_formula(a)
        assert parse_formula(txt) == a, txt


def test_text_levels_use_ordinal_notation():
    a = parse_formula("(fals w^2+3 1 2)")
    assert isinstance(a, Fals)
    assert a.level == ram_level_w2p3()
    assert print_formula(a) == "(fals w^2+3 1 2)"


def ram_level_w2p3():
    from realisability.notation import add, omega_pow
    return add(omega_pow(onat(2)), onat(3))


def test_text_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("(fals notalevel 1 2)")
    with pytest.raises(ParseError):
        parse_formula("(pole 1 2)")


def test_r_sub_on_codes():
    a = Fals(L1, TVar("x"), Num(5))
    c = subt(godel(a), "x", godel_term(Num(9)))
    assert ungodel(c) == Fals(L1, Num(9), Num(5))
    with pytest.raises(ValueError):
        subt(12345, "x", godel_term(Num(0)))


# ---------------------------------------------------------------------------
# Axiom-instance generators

def test_rt2_is_a_disquotation_instance():
    inst = rt_axiom("RT2", L1, L2, a=TRUE_EQ)
    assert inst == iff(Tru(L1, Num(godel(TRUE_EQ))), TRUE_EQ)


def test_rt5_lowers_the_inner_level():
    inst = rt_axiom("RT5", L1, L2, low=L0, a=TRUE_EQ)
    inner = Tru(L0, Num(godel(TRUE_EQ)))
    assert inst == iff(Tru(L1, Num(godel(inner))), inner)


def test_rt_level_constraints():
    with pytest.raises(LevelError):
        rt_axiom("RT2", L2, L2, a=TRUE_EQ)  # beta must be below gamma
    with pytest.raises(LevelError):
        rt_axiom("RT5", L1, L2, low=L1, a=TRUE_EQ)  # low < beta
    with pytest.raises(LevelError):
        rt_axiom("RT6", L1, L2, low=L1, a=TRUE_EQ)  # low < beta


def test_rr5_unfolds_an_implication_code():
    inst = rr_axiom("RR5", L1, L2, a=4, sent=TRUE_EQ, sent2=FALSE_EQ)
    code = Num(godel(Imp(TRUE_EQ, FALSE_EQ)))
    want = iff(Fals(L1, Num(4), code),
               conj(Real(L1, Fn("p0", (Num(4),)), Num(godel(TRUE_EQ))),
                    Fals(L1, Fn("p1", (Num(4),)), Num(godel(FALSE_EQ)))))
    assert inst == want


def test_rr7_requires_a_strictly_lower_inner_level():
    inst = rr_axiom("RR7", L1, L2, a=4, b=2, low=L0, sent=FALSE_EQ)
    atom = Fals(L0, Num(2), Num(godel(FALSE_EQ)))
    assert inst == iff(Fals(L1, Num(4), Num(godel(atom))),
                       explicit_refutation(Num(4), atom))
    with pytest.raises(LevelError):
        rr_axiom("RR7", L1, L2, a=4, b=2, low=L1, sent=FALSE_EQ)


def test_rr9_rewrites_to_the_unfolded_code():
    inst = rr_axiom("RR9", L1, L2, a=4, b=2, low=L0, sent=FALSE_EQ)
    atom = Fals(L0, Num(2), Num(godel(FALSE_EQ)))
    unfolded = explicit_refutation(Num(2), FALSE_EQ)
    assert inst == iff(Fals(L1, Num(4), Num(godel(atom))),
                       Fals(L1, Num(4), Num(godel(unfolded))))


# the terms of a term-invariance instance: two codes of the value 4
TERMS = {"s": Num(4), "t": Fn("pair", (Num(1), Num(1)))}


def test_rt1_checks_its_template_as_rt4_does():
    tpl = Eq(TVar("x"), Num(2))
    ca = godel(tpl)
    inst = rt_axiom("RT1", L1, L2, a=tpl, var="x", **TERMS)
    left = Tru(L1, Num(subt(ca, "x", godel_term(TERMS["s"]))))
    right = Tru(L1, Num(subt(ca, "x", godel_term(TERMS["t"]))))
    assert inst == Imp(Eq(Fn("eqc", tuple(Num(godel_term(x))
                                          for x in TERMS.values())), ONE),
                       iff(left, right))
    # not below level 1; no variable; a variable that is not free; a
    # second free variable
    bad = ((Tru(L1, Fn("s", (TVar("x"),))), "x"), (tpl, None), (tpl, "y"),
           (Eq(TVar("x"), TVar("y")), "x"))
    for a, var in bad:
        with pytest.raises(LevelError):
            rt_axiom("RT1", L1, L2, a=a, var=var, **TERMS)
        with pytest.raises(LevelError):
            rt_axiom("RT4", L1, L2, a=a, var=var)


def test_rr3_checks_its_template_as_rr6_does():
    tpl = Eq(TVar("x"), Num(2))
    inst = rr_axiom("RR3", L1, L2, a=5, sent=tpl, var="x", **TERMS)
    assert isinstance(inst, Imp) and in_language(inst, L2, REAL_SIDE)
    # not below level 1; a truth atom; no variable; a variable that is
    # not free
    bad = ((Fals(L1, TVar("x"), Num(0)), "x"),
           (Tru(L0, Fn("s", (TVar("x"),))), "x"), (tpl, None), (tpl, "y"))
    for sent, var in bad:
        with pytest.raises(LevelError):
            rr_axiom("RR3", L1, L2, a=5, sent=sent, var=var, **TERMS)
        with pytest.raises(LevelError):
            rr_axiom("RR6", L1, L2, a=5, sent=sent, var=var)


def test_unknown_axiom_kinds_rejected():
    with pytest.raises(ValueError):
        rt_axiom("RT9", L1, L2, a=TRUE_EQ)
    with pytest.raises(ValueError):
        rr_axiom("RR0", L1, L2)


# ---------------------------------------------------------------------------
# Translations

def test_conservative_translation_collapses_atoms():
    triv = Eq(Num(0), Num(0))
    assert translate_conservative(InPole(Num(3))) == triv
    assert translate_conservative(Fals(L1, Num(1), Num(2))) == triv
    a = Imp(Real(L0, Num(1), Num(2)), FALSE_EQ)
    assert translate_conservative(a) == Imp(triv, FALSE_EQ)
    assert translate_conservative(FALSE_EQ) == FALSE_EQ


def test_empty_translation_clauses():
    assert translate_empty(InPole(Num(3))) == bot()
    got = translate_empty(Fals(L1, Num(2), Num(5)))
    assert got == Tru(L1, Fn("taue", (Fn("memf", (Num(2), Num(5))),)))
    got = translate_empty(Real(L1, Num(2), Num(5)))
    assert got == Tru(L1, Fn("taue", (Fn("memt", (Num(2), Num(5))),)))
    assert translate_empty(TRUE_EQ) == TRUE_EQ


def test_zero_translation_guards_truth_atoms():
    got = translate_zero(Tru(L1, Num(7)))
    assert isinstance(got, Imp)
    assert isinstance(got.b, Real) and got.b.s == Num(0)
    assert translate_zero(FALSE_EQ) == FALSE_EQ
    assert translate_zero(InPole(Num(1))) == InPole(Num(1))


def test_tau_empty_commutes_with_coding():
    for a in _closed_corpus(120):
        assert tau_empty_code(godel(a)) == godel(translate_empty(a)), \
            print_formula(a)


def test_tau_zero_commutes_with_coding():
    for a in _closed_corpus(120):
        t = translate_empty(a)  # a truth-side style formula with Tru atoms
        assert tau_zero_code(godel(t)) == godel(translate_zero(t)), \
            print_formula(t)


def test_tau_codes_are_zero_on_malformed_codes():
    # an equation's tag over a body that codes no pair of terms (no term
    # has tag 99), alone and as the antecedent of an implication
    eq = Eq(Num(0), Num(0))
    eq_tag, _ = vunpair(godel(eq))
    imp_tag, _ = vunpair(godel(Imp(eq, eq)))
    bad = vpair(eq_tag, vpair(vpair(99, 0), 0))
    assert ungodel(bad) is None
    for c in (bad, vpair(imp_tag, vpair(bad, godel(eq)))):
        assert tau_empty_code(c) == 0
        assert tau_zero_code(c) == 0


def _closed_corpus(n):
    rng = random.Random(5)
    return ram_corpus(n, L2, rng)


def test_conservative_translation_of_rr_instances_is_true():
    insts = rr_instance_corpus(100, L2, random.Random(7))
    for kind, f in insts:
        t = truth(translate_conservative(f), Empty(), B, KERNEL)
        assert t.kind == TRUE, (kind, print_formula(f))


# ---------------------------------------------------------------------------
# Model evaluation

def test_ram_refutes_pole_atom_clauses():
    # guard fails: everything refutes vacuously
    assert refutes(7, InPole(Num(3)), Empty(), B, KERNEL, gamma=L1).kind == IN
    # guard holds: refuters are exactly the pole elements
    assert refutes(0, InPole(Num(0)), GEN, B, KERNEL, gamma=L1).kind == IN
    # 2 is definitely outside the generated pole, so it cannot refute
    assert refutes(2, InPole(Num(0)), GEN, B, KERNEL, gamma=L1).kind == OUT
    assert refutes(5, InPole(Num(1)), Full(), B, KERNEL, gamma=L1).kind == IN


def test_ram_refutes_fals_atom_chases_the_explicit_formula():
    code = godel(FALSE_EQ)
    atom = Fals(L1, Num(9), Num(code))
    unfold = explicit_refutation(Num(9), FALSE_EQ)
    for m in [0, 1, vpair(3, 5), vpair(0, 0)]:
        v1 = refutes(m, atom, GEN, B, KERNEL, gamma=L2)
        v2 = refutes(m, unfold, GEN, B, KERNEL, gamma=L2)
        assert v1.kind == v2.kind


def test_ram_refutes_atom_about_garbage_code_has_no_refuters():
    atom = Fals(L1, Num(9), Num(999999))
    assert refutes(0, atom, GEN, B, KERNEL, gamma=L2).kind == OUT
    # a code at the same level is not a sentence strictly below it
    same = godel(Fals(L1, Num(0), Num(godel(TRUE_EQ))))
    assert refutes(0, Fals(L1, Num(9), Num(same)), L2_POLE, B, KERNEL,
                   gamma=L2).kind == OUT


L2_POLE = GEN


def test_ram_refutes_level_and_openness_errors():
    with pytest.raises(LevelError):
        refutes(0, Fals(L1, Num(0), Num(0)), GEN, B, KERNEL, gamma=L1)
    from realisability.semantics import OpenFormulaError
    with pytest.raises(OpenFormulaError):
        refutes(0, InPole(TVar("x")), GEN, B, KERNEL, gamma=L1)


def test_ram_truth_matches_base_truth_on_base_sentences():
    for a in [TRUE_EQ, FALSE_EQ, Imp(FALSE_EQ, TRUE_EQ),
              All("x", Imp(Eq(TVar("x"), Num(2)), TRUE_EQ))]:
        assert (truth(a, Empty(), B, KERNEL, gamma=L1).kind
                == truth(a, Empty(), B, KERNEL).kind)


def test_ram_truth_truth_atom_recurses_at_lower_level():
    inner = Tru(L0, Num(godel(TRUE_EQ)))
    assert truth(inner, Empty(), B, KERNEL, gamma=L1).kind == TRUE
    nested = Tru(L1, Num(godel(inner)))
    assert truth(nested, Empty(), B, KERNEL, gamma=L2).kind == TRUE
    # non-sentence codes make the atom false
    assert truth(Tru(L1, Num(424242)), Empty(), B, KERNEL,
                 gamma=L2).kind == FALSE


def test_ram_realises_empty_pole_is_exact():
    rv = realises(13, Imp(FALSE_EQ, FALSE_EQ), Empty(), B, KERNEL, gamma=L1)
    assert rv.verdict.kind == IN
    rv = realises(13, FALSE_EQ, Empty(), B, KERNEL, gamma=L1)
    assert rv.verdict.kind == OUT and rv.verdict.witness is not None


def test_ram_realises_vacuous_when_refuters_provably_absent():
    atom = Fals(L1, Num(9), Num(31337))  # garbage code: no refuters
    rv = realises(4, atom, GEN, B, KERNEL, gamma=L2)
    assert rv.verdict.kind == IN


def test_ram_sample_refuters_are_refuters():
    rng = random.Random(3)
    corpus = [FALSE_EQ, InPole(Num(0)),
              Fals(L1, Num(2), Num(godel(FALSE_EQ))),
              Imp(TRUE_EQ, FALSE_EQ)]
    for a in corpus:
        ms = sample_refuters(a, GEN, 6, B, KERNEL, rng, gamma=L2)
        assert len(ms) == 6
        for m in ms:
            assert refutes(m, a, GEN, B, KERNEL, gamma=L2).kind != OUT


def test_rt5_instances_hold_in_the_model():
    inst = rt_axiom("RT5", L1, L2, low=L0, a=TRUE_EQ)
    assert truth(inst, Empty(), B, KERNEL, gamma=L2).kind == TRUE
    inst = rt_axiom("RT2", L0, L1, a=FALSE_EQ)
    assert truth(inst, Empty(), B, KERNEL, gamma=L1).kind == TRUE


# ---------------------------------------------------------------------------
# Equivalence and empty-pole properties

@pytest.mark.parametrize("gamma", [L1, L2, LW], ids=["1", "2", "w"])
@pytest.mark.parametrize("pole", [Empty(), GEN], ids=["empty", "gen"])
def test_formal_explicit_equivalence(gamma, pole):
    corpus = ram_corpus(200, gamma, random.Random(1))
    recs = check_model_equivalence(corpus, gamma, pole, B, KERNEL,
                                   random.Random(2))
    counts = Counter(r["verdict"] for r in recs)
    assert counts.get("disagree", 0) == 0, \
        [r for r in recs if r["verdict"] == "disagree"][:3]
    assert counts.get("agree", 0) >= 0.9 * len(recs)


def test_rr_empty_properties_agree():
    corpus = ram_corpus(80, L2, random.Random(4))
    recs = check_rr_empty_properties(L2, corpus, B, KERNEL)
    counts = Counter(r["verdict"] for r in recs)
    assert counts.get("disagree", 0) == 0, \
        [r for r in recs if r["verdict"] == "disagree"][:3]
    assert counts.get("agree", 0) >= 0.8 * len(recs)


def test_rr_properties_under_nonempty_pole_never_assert_false():
    corpus = ram_corpus(30, L2, random.Random(4))
    recs = check_rr_empty_properties(L2, corpus, B, KERNEL, pole=GEN)
    # irrelevance is an empty-pole statement: nonempty-pole runs are
    # reported (both sides visible) but never asserted
    assert all(r["verdict"] == "unknown" for r in recs)
    assert all("lhs" in r and "rhs" in r for r in recs)


def test_realiser_irrelevance_under_empty_pole():
    rng = random.Random(9)
    for a in ram_corpus(40, L2, rng):
        v0 = realises(0, a, Empty(), B, KERNEL, gamma=L2).verdict.kind
        for x in (1, 17, 123456):
            vx = realises(x, a, Empty(), B, KERNEL, gamma=L2).verdict.kind
            assert vx == v0, print_formula(a)


def _ram_check_records(seed, kernel):
    """The records of `realis ram check --seed seed --count 5 --gamma 2
    --pole generated:0,3,8 --fuel 1000`, on the given kernel."""
    rng = random.Random(seed)
    gamma, budget = onat(2), Budget(fuel=1000)
    corpus = ram_corpus(5, gamma, rng)
    return (check_model_equivalence(corpus, gamma, GEN, budget, kernel, rng)
            + check_rr_empty_properties(gamma, corpus, budget, kernel,
                                        pole=GEN, rng=rng))


@pytest.mark.parametrize("seed", [1, 5, 22])
def test_ram_check_records_do_not_depend_on_a_warm_kernel(seed):
    warm = ordinal_kernel()
    for other in (0, 2, 24, 27, 34):
        _ram_check_records(other, warm)
    assert kept_by(warm, _chase) and kept_by(warm, explicit_refutation)
    assert _ram_check_records(seed, warm) == \
        _ram_check_records(seed, ordinal_kernel())
