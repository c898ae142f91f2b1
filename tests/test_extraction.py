import contextlib
import gc
import io
import json
import random
import weakref
from collections import Counter
from pathlib import Path

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from realisability import cli, extraction, ordinals, syntax
from realisability.extraction import (
    PID_EQCHECK, PID_EVALTERM, Axiom, Gen, Hyp, MP, ProofError, ax_defining,
    ax_exfalso, ax_induction, ax_k, ax_leibniz, ax_peirce, ax_refleq, ax_s,
    ax_univdist, ax_univinst, alpha_eq, check_proof, combinator, conclusion,
    deduce, defining_axioms, env_value, eq_cong, eq_sym, eq_trans,
    extract_value, fresh_kernel, imp_refl, inst_all, parse_proof,
    print_proof, prove_dne, prove_plus, prove_plus_comm, prove_suc_plus,
    prove_zero_plus,
)
from realisability.poles import Empty, Generated, IN, OUT
from realisability.semantics import Budget, realises, sample_refuters
from realisability.syntax import (
    All, Eq, Fn, Imp, InPole, Num, TVar, ZERO, bot, eval_term, free_vars,
    godel_term, parse_formula, parse_term, print_formula, subst, suc_t,
    ungodel_term,
)
from realisability.vm import (
    STUCK, Diverged, Kernel, Lam, Lit, Prim, StuckError, Value, vpair,
    vunpair,
)
from test_syntax import PROOF_DIR, Ref, subtrees
from test_vm import kept_by

K = fresh_kernel()
B = Budget(fuel=10**6, samples=8, width=20)
EQ00 = Eq(Num(0), Num(0))
POLE = Generated(frozenset({0, 3, 8}), 64)


def _apply(e, m, fuel=10**6):
    r = K.apply(e, m, fuel)
    assert isinstance(r, Value), r
    return r.n


# ---------------------------------------------------------------------------
# Combinators

def test_i_combinator_builds_triples():
    i = combinator("i")
    for a in range(0, 21, 5):
        for b in range(0, 21, 7):
            for c in (0, 9):
                v = _apply(_apply(i, vpair(a, b)), c)
                assert v == vpair(a, vpair(b, c))


def test_k_pi_pairs_head_with_saved_refuter():
    kpi = combinator("k_pi")
    v = _apply(_apply(kpi, 4), vpair(6, 1))
    assert v == vpair(6, 4)


def test_k_bot_discards():
    kbot = combinator("k_bot")
    assert _apply(_apply(kbot, 11), 999) == 11


def test_u_applies_to_witness():
    u = combinator("u")
    ident = combinator("i")  # any applicable code works; use identity-ish
    from realisability.vm import Lam, Var, encode
    idc = encode(Lam(Var(0)))
    v = _apply(_apply(u, idc), vpair(5, 7))
    assert v == vpair(5, 7)  # id . 5 = 5 paired with 7


def test_unknown_combinator():
    with pytest.raises(ValueError):
        combinator("j")


def test_combinators_are_encoded_once():
    for name in ("i", "s", "u", "k_pi", "k_bot"):
        assert combinator(name) is combinator(name)


# ---------------------------------------------------------------------------
# Proof checking

def test_refleq_proof_checks():
    assert check_proof(ax_refleq(Num(0))) == EQ00


def test_mp_mismatch_reports_path():
    bad = MP(ax_k(EQ00, bot()), ax_refleq(Num(1)))
    with pytest.raises(ProofError) as e:
        check_proof(bad)
    assert "mismatch" in str(e.value)


def test_axiom_schema_rejection():
    with pytest.raises(ProofError):
        check_proof(Axiom("k", Imp(EQ00, Imp(bot(), bot()))))
    with pytest.raises(ProofError):
        check_proof(Axiom("refleq", Eq(Num(0), Num(1))))
    with pytest.raises(ProofError):
        check_proof(Axiom("defining", parse_formula("(all x (= x x))")))
    # each instance differs from a well-formed one in a single place
    a, b, c = EQ00, bot(), parse_formula("(= 1 1)")
    x_is_0, refl_x = parse_formula("(= x 0)"), parse_formula("(= x x)")
    eq01 = Eq(Num(0), Num(1))
    induction = ax_induction("x", x_is_0).formula
    malformed = [
        Axiom("s", Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, b)))),
        Axiom("peirce", Imp(Imp(Imp(a, b), a), b)),
        Axiom("exfalso", Imp(a, c)),
        Axiom("univinst", Imp(All("x", x_is_0), Eq(Num(1), Num(0))),
              (Num(2),)),
        Axiom("univdist", Imp(All("x", Imp(x_is_0, a)),
                              Imp(x_is_0, All("x", a)))),
        Axiom("leibniz", Imp(eq01, Imp(a, a)), ("x", refl_x)),
        Axiom("induction", Imp(Eq(Num(1), Num(0)), induction.b)),
    ]
    for ax in malformed:
        with pytest.raises(ProofError,
                           match="does not match the %s schema" % ax.kind):
            check_proof(ax)
    well_formed = ax_univinst("x", x_is_0, Num(2))
    with pytest.raises(ProofError, match="needs the instantiating term"):
        check_proof(Axiom("univinst", well_formed.formula))
    well_formed = ax_leibniz("x", refl_x, Num(0), Num(1))
    with pytest.raises(ProofError, match=r"needs \(variable, template\)"):
        check_proof(Axiom("leibniz", well_formed.formula))
    with pytest.raises(ProofError, match="unknown axiom kind 'j'"):
        check_proof(Axiom("j", EQ00))


def test_defining_axioms_are_closed_equations():
    before = len(defining_axioms())
    with pytest.raises(ValueError, match="must be sentences"):
        extraction.register_defining_axiom(parse_formula("(= x 0)"))
    with pytest.raises(ValueError, match="must be quantified equations"):
        extraction.register_defining_axiom(
            parse_formula("(all x (imp (= x x) (= x x)))"))
    assert len(defining_axioms()) == before


def test_gen_over_hypothesis_variable_rejected():
    h = Hyp(Eq(TVar("x"), Num(0)))
    with pytest.raises(ProofError) as e:
        check_proof(Gen("x", h), allow_hypotheses=True)
    assert "free in hypothesis" in str(e.value)


def test_undischarged_hypothesis_rejected():
    with pytest.raises(ProofError):
        check_proof(Hyp(EQ00))


def test_deduction_transform():
    h = parse_formula("(= 2 2)")
    p = deduce(h, MP(ax_k(EQ00, h), ax_refleq(Num(0))))
    assert check_proof(p) == Imp(h, Imp(h, EQ00))


def test_imp_refl():
    a = parse_formula("(= 3 4)")
    assert check_proof(imp_refl(a)) == Imp(a, a)


def test_equality_derived_rules():
    p = inst_all(ax_defining(defining_axioms()[0]), Num(5))  # 5+0=5
    five = Fn("+", (Num(5), ZERO))
    assert check_proof(eq_sym(p)) == Eq(Num(5), five)
    q = eq_trans(p, eq_sym(p))
    assert check_proof(q) == Eq(five, five)
    r = eq_cong("z", Fn("s", (TVar("z"),)), p)
    assert check_proof(r) == Eq(Fn("s", (five,)), Num(6))


def test_prove_plus():
    assert check_proof(prove_plus(2, 2)) == parse_formula("(= (+ 2 2) 4)")
    assert check_proof(prove_plus(7, 5)) == parse_formula("(= (+ 7 5) 12)")


def test_big_proofs_check():
    assert check_proof(prove_zero_plus()) == parse_formula(
        "(all x (= (+ 0 x) x))")
    assert check_proof(prove_suc_plus()) == parse_formula(
        "(all x (all y (= (+ (s x) y) (s (+ x y)))))")
    assert check_proof(prove_plus_comm()) == parse_formula(
        "(all x (all y (= (+ x y) (+ y x))))")
    a = parse_formula("(= 4 4)")
    assert check_proof(prove_dne(a)) == Imp(Imp(Imp(a, bot()), bot()), a)


def test_proof_print_parse_roundtrip():
    proofs = [
        ax_refleq(Num(3)),
        ax_peirce(EQ00, bot()),
        ax_univinst("x", Eq(TVar("x"), TVar("x")), Num(2)),
        ax_leibniz("x", Eq(TVar("x"), Num(0)), Num(1), Num(2)),
        prove_plus(1, 2),
        prove_zero_plus(),
    ]
    for p in proofs:
        assert parse_proof(print_proof(p)) == p


# ---------------------------------------------------------------------------
# Realisers

def _axiom_realiser(ax):
    # the realiser of a one-axiom proof is its schema's realiser
    return extract_value(ax, K)[1]


def test_refleq_realiser_is_identity_on_refuters():
    r = _axiom_realiser(ax_refleq(Num(0)))
    for m in (0, 5, 40):
        assert _apply(r, m) == m


def test_exfalso_realiser_shape():
    r = _axiom_realiser(ax_exfalso(EQ00))
    v = _apply(r, vpair(9, 3))
    assert v == vpair(9, 0)


def test_defining_realiser_projects():
    d = defining_axioms()[0]
    r = _axiom_realiser(ax_defining(d))
    assert _apply(r, vpair(5, 77)) == 77


def test_peirce_extraction_shape():
    p = ax_peirce(EQ00, bot())
    _, e = extract_value(p, K)
    b = vpair(4, 7)
    v = _apply(e, b)
    head, tail = vunpair(v)
    assert tail == 7
    # head is i . <4, k_pi . 7>
    kpi_7 = _apply(combinator("k_pi"), 7)
    assert head == _apply(combinator("i"), vpair(4, kpi_7))


def _realise_ok(proof, pole=POLE, samples=8):
    _, e = extract_value(proof, K)
    c = check_proof(proof)
    v = realises(e, c, pole, Budget(fuel=10**6, samples=samples, width=20),
                 K, random.Random(5))
    assert v.verdict.kind != OUT, (print_formula(c), v)
    return v


def test_extracted_realisers_pass_sampled_checks():
    proofs = [
        ax_refleq(Num(0)),
        ax_exfalso(EQ00),
        ax_peirce(EQ00, bot()),
        ax_k(EQ00, bot()),
        ax_s(EQ00, bot(), EQ00),
        imp_refl(bot()),
        prove_plus(2, 2),
        ax_defining(defining_axioms()[0]),
        inst_all(ax_defining(defining_axioms()[0]), Num(9)),
    ]
    for p in proofs:
        _realise_ok(p)


def test_induction_proof_realises():
    _realise_ok(prove_zero_plus(), samples=6)


def test_double_induction_realises():
    _realise_ok(prove_suc_plus(), samples=5)
    _realise_ok(prove_plus_comm(), samples=5)


def test_empty_pole_agreement():
    # over the empty pole extraction agrees with truth
    for p in (ax_refleq(Num(2)), prove_plus(1, 3), ax_exfalso(EQ00)):
        _, e = extract_value(p, K)
        v = realises(e, check_proof(p), Empty(), B, K)
        assert v.verdict.kind == IN


def test_open_proof_environment():
    # proof of x+0=x with free x: realiser takes the value of x
    p = inst_all(ax_defining(defining_axioms()[0]), TVar("x"))
    c = check_proof(p)
    assert c == Eq(Fn("+", (TVar("x"), ZERO)), TVar("x"))
    for n in (0, 4, 11):
        _, e = extract_value(p, K, assignment={"x": n})
        inst = subst(c, "x", Num(n))
        v = realises(e, inst, POLE, B, K, random.Random(2))
        assert v.verdict.kind != OUT


# checked proofs of (= 0 0) that read a y no gen binds: in an axiom's
# formula, in a univinst term and in a leibniz equation
UNBOUND_PROOFS = [
    "(mp (mp (ax k (imp (= 0 0) (imp (= y y) (= 0 0)))) (ax refleq (= 0 0)))"
    " (ax refleq (= y y)))",
    "(mp (ax univinst (imp (all x (= 0 0)) (= 0 0)) y)"
    " (gen x (ax refleq (= 0 0))))",
    "(mp (mp (ax leibniz (imp (= y y) (imp (= 0 0) (= 0 0))) x (= 0 0))"
    " (ax refleq (= y y))) (ax refleq (= 0 0)))",
]


@pytest.mark.parametrize("text", UNBOUND_PROOFS,
                         ids=["axiom", "univinst", "leibniz"])
def test_a_variable_no_gen_binds_is_read_as_zero(text, tmp_path):
    path = tmp_path / "unbound.sexp"
    path.write_text(text)
    for argv in (["extract"], ["validate", "--pole", "empty"],
                 ["validate", "--pole", "full"],
                 ["validate", "--pole", "generated:0,3,8"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([argv[0], str(path)] + argv[1:]) == 0, argv
        rep = json.loads(out.getvalue())
        assert rep["conclusion"] == "(= 0 0)", argv
        assert rep.get("ok", True), argv
        assert rep.get("realises", {"kind": IN})["kind"] == IN, argv


def test_induction_realiser_clauses():
    # (k . b) . 0 = (b)0 and the successor clause compose i and s
    from realisability.extraction import _K_IND_CODE, _I_CODE
    b = vpair(21, vpair(33, vpair(2, 5)))
    kb = _apply(_K_IND_CODE, b)
    assert _apply(kb, 0) == 21
    lhs = _apply(kb, 2)
    s_part = _apply(combinator("s"), vpair(33, 1))
    rhs = _apply(_I_CODE, vpair(s_part, _apply(kb, 1)))
    assert lhs == rhs


sentence_pairs = st.tuples(
    st.sampled_from([EQ00, bot(), Eq(Num(2), Num(2)), Eq(Num(1), Num(3))]),
    st.sampled_from([EQ00, bot(), Eq(Num(5), Num(5))]),
)


@hyp.given(sentence_pairs)
@hyp.settings(deadline=None, max_examples=20)
def test_i_law_property(ab):
    # if a realises A->B and b realises A then i.<a,b> realises B
    a_f, b_f = ab
    imp = Imp(a_f, b_f)
    p_imp = MP(ax_k(imp, EQ00), Hyp(imp))  # placeholder: use axioms instead
    # build realisers from provable instances only
    proofs = {print_formula(imp): None}
    # use k_bot over the pole seed as a certified realiser of anything
    from realisability.semantics import certified_realiser, EmptySampleError
    try:
        ra = certified_realiser(imp, POLE, B, K)
        rb = certified_realiser(a_f, POLE, B, K)
        ms = sample_refuters(b_f, POLE, 4, B, K, random.Random(3))
    except EmptySampleError:
        return
    comp = _apply(combinator("i"), vpair(ra, rb))
    from realisability.poles import member
    for m in ms:
        assert member(vpair(comp, m), POLE, 10**6, K).kind != OUT


# ---------------------------------------------------------------------------
# Alpha equivalence

# k's conclusion keeps the free _b0 of its consequent, so the schema
# instance needs alpha_eq((all y (= y _b0)), (all y (= y y)))
CAPTURE_PROOF = (
    "(gen _b0 (mp (mp (ax k (imp (all y (= y y)) (imp (all y (= y y)) "
    "(all y (= y _b0))))) (gen y (ax refleq (= y y)))) "
    "(gen y (ax refleq (= y y)))))")


def test_alpha_eq_keeps_free_variables_apart_from_bound_ones():
    a = parse_formula("(all y (= y _b0))")
    b = parse_formula("(all y (= y y))")
    assert not alpha_eq(a, b) and not alpha_eq(b, a)
    assert alpha_eq(a, parse_formula("(all z (= z _b0))"))


@pytest.mark.parametrize("a, b, same", [
    ("(all x (all y (= x y)))", "(all y (all x (= y x)))", True),
    ("(all x (all y (= x y)))", "(all y (all x (= x y)))", False),
    ("(all x (all x (= x x)))", "(all y (all z (= z z)))", True),
    ("(all x (all x (= x x)))", "(all y (all z (= y z)))", False),
    ("(imp (all x (= x z)) (= x z))", "(imp (all y (= y z)) (= x z))", True),
    ("(imp (all x (= x z)) (= x z))", "(imp (all y (= y z)) (= y z))", False),
    ("(all x (= (pair x (s x)) 0))", "(all y (= (pair y (s y)) 0))", True),
])
def test_alpha_eq_examples(a, b, same):
    a, b = parse_formula(a), parse_formula(b)
    assert alpha_eq(a, b) == alpha_eq(b, a) == same


def test_capturing_proof_is_rejected():
    with pytest.raises(ProofError):
        check_proof(parse_proof(CAPTURE_PROOF))


def test_alpha_eq_folds_successor_numerals_under_binders():
    # subst folds (s 0) to 1, so an instance may differ from its source
    # there; outside every binder terms compare as written
    raw = All("x", Eq(Fn("s", (Num(0),)), TVar("x")))
    assert alpha_eq(raw, All("y", Eq(Num(1), TVar("y"))))
    assert alpha_eq(All("y", Eq(Num(1), TVar("y"))), raw)
    assert not alpha_eq(raw, All("y", Eq(Num(0), TVar("y"))))
    pv = All("x", Eq(Num(vpair(2**70, 3)), ZERO))
    one = All("x", Eq(Fn("s", (ZERO,)), ZERO))
    assert not alpha_eq(pv, one) and not alpha_eq(one, pv)
    assert not alpha_eq(Eq(Fn("s", (Num(0),)), ZERO), Eq(Num(1), ZERO))


def test_alpha_eq_rejects_atoms():
    with pytest.raises(TypeError):
        alpha_eq(InPole(Num(0)), InPole(Num(0)))
    with pytest.raises(TypeError):
        alpha_eq(All("x", EQ00), All("x", InPole(Num(0))))


def test_identity_is_alpha_equality_only_for_base_formulas(monkeypatch):
    x = InPole(Num(0))
    for _ in range(2):
        with pytest.raises(TypeError):
            alpha_eq(x, x)
    with pytest.raises(TypeError):
        check_proof(Axiom("k", Imp(x, Imp(EQ00, x))))
    a = parse_formula("(all y (imp (= y 0) (= (s y) 1)))")
    assert alpha_eq(a, a)
    walks = []
    real = extraction._alpha
    monkeypatch.setattr(extraction, "_alpha",
                        lambda *args: walks.append(args) or real(*args))
    assert alpha_eq(a, a) and not walks
    # a formula built around a base one is walked, and fails, afresh,
    # and a False answer establishes nothing
    for c in (Imp(a, x), Imp(x, a)):
        assert not alpha_eq(c, EQ00)
        with pytest.raises(TypeError):
            alpha_eq(c, c)


def test_a_shared_subformula_is_compared_in_its_context():
    # the same object under binders that bind its variables differently
    b = parse_formula("(= (+ x y) z)")
    assert not alpha_eq(All("x", All("y", b)), All("y", All("x", b)))
    assert not alpha_eq(All("x", b), All("w", b))
    assert not alpha_eq(All("x", Imp(b, b)), Imp(b, All("x", b)))
    assert alpha_eq(All("x", All("y", b)), All("x", All("y", b)))
    assert alpha_eq(All("w", b), All("v", b))
    # and so is a shared term
    t = parse_term("(+ x (s y))")
    assert not alpha_eq(All("x", Eq(t, ZERO)), All("y", Eq(t, ZERO)))
    assert not alpha_eq(All("x", All("y", Eq(t, ZERO))),
                        All("y", All("x", Eq(t, ZERO))))
    assert alpha_eq(All("x", Eq(t, ZERO)), All("x", Eq(t, ZERO)))
    # bound at the same depth under different names
    c = parse_formula("(all x (= x y))")
    assert alpha_eq(All("y", c), All("u", subst(c, "y", TVar("u"))))
    # a shared non-base subformula still raises
    x = InPole(Num(0))
    d = parse_formula("(= x z)")
    with pytest.raises(TypeError):
        alpha_eq(All("y", Imp(d, x)), All("u", Imp(d, x)))


def _canon(a, depth=0):
    # the substitution-based canonical form alpha_eq used to compare;
    # subst folds (s n) into n+1 under every binder, not outside them
    if isinstance(a, Eq):
        return a
    if isinstance(a, Imp):
        return Imp(_canon(a.a, depth), _canon(a.b, depth))
    if isinstance(a, All):
        name = "_b%d" % depth
        return All(name, _canon(subst(a.body, a.var, TVar(name)),
                                depth + 1))
    raise TypeError(a)


def _oracle(a, b):
    return _canon(a) == _canon(b)


NAMES = ("x", "y", "z", "w")

terms = st.recursive(
    st.one_of(st.sampled_from(NAMES).map(TVar),
              st.integers(0, 3).map(Num)),
    lambda t: st.one_of(
        t.map(suc_t),
        t.map(lambda u: Fn("s", (u,))),
        st.builds(lambda u, v: Fn("+", (u, v)), t, t),
        st.builds(lambda u, v: Fn("pair", (u, v)), t, t),
        st.builds(lambda u, v: Fn("f", (u, v)), t, t)),
    max_leaves=5)

formulas = st.recursive(
    st.builds(Eq, terms, terms),
    lambda f: st.one_of(
        st.builds(Imp, f, f),
        st.builds(All, st.sampled_from(NAMES), f)),
    max_leaves=6)


def _rename_term(t, x, y):
    if isinstance(t, TVar):
        return TVar(y) if t.name == x else t
    if isinstance(t, Num):
        return t
    # (s n) stays as it is: unlike subst, a renaming folds nothing
    return Fn(t.name, tuple(_rename_term(u, x, y) for u in t.args))


def _rename_free(a, x, y):
    """Replace the free x in a by y, capturing it where y is bound."""
    if isinstance(a, Eq):
        return Eq(_rename_term(a.l, x, y), _rename_term(a.r, x, y))
    if isinstance(a, Imp):
        return Imp(_rename_free(a.a, x, y), _rename_free(a.b, x, y))
    if a.var == x:
        return a
    return All(a.var, _rename_free(a.body, x, y))


def _rename_bound(a, names):
    """Rename every binder of a to the next of names, without checking
    for capture: a bound renaming when the names are fresh."""
    if isinstance(a, Eq):
        return a
    if isinstance(a, Imp):
        return Imp(_rename_bound(a.a, names), _rename_bound(a.b, names))
    y = next(names)
    return All(y, _rename_bound(_rename_free(a.body, a.var, y), names))


# a formula, an unrelated one, the names for renaming the binders of the
# first, which of its free variables to rename into which name (both
# renamings may capture) and whether to fold its numerals outside the
# binders of a name, as subst does
pairs = st.tuples(formulas, formulas,
                  st.lists(st.sampled_from(NAMES), min_size=12, max_size=12),
                  st.integers(0, 3), st.sampled_from(NAMES),
                  st.sampled_from((None,) + NAMES))


@hyp.given(pairs)
@hyp.settings(deadline=None, max_examples=300)
def test_alpha_eq_agrees_with_the_canonical_form(data):
    a, other, names, k, y, fold = data
    b = _rename_bound(a, iter(names))
    free = sorted(free_vars(b))
    if free:
        b = _rename_free(b, free[k % len(free)], y)
    if fold is not None:
        b = subst(b, fold, TVar(fold))
    for c in (other, b):
        assert alpha_eq(a, c) == _oracle(a, c)


@hyp.given(formulas, formulas)
@hyp.settings(deadline=None, max_examples=100)
def test_alpha_eq_is_reflexive_and_symmetric(a, b):
    assert alpha_eq(a, a)
    assert alpha_eq(a, b) == alpha_eq(b, a)


@hyp.given(formulas, formulas)
@hyp.settings(deadline=None, max_examples=100)
def test_alpha_eq_is_invariant_under_bound_renaming(a, c):
    fresh = iter("r%d" % i for i in range(100))
    b = _rename_bound(a, fresh)
    assert alpha_eq(a, b) and alpha_eq(b, a)
    assert alpha_eq(b, c) == alpha_eq(a, c)


# ---------------------------------------------------------------------------
# Check records: a node is checked once, and a record changes no verdict

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus"
                 / "proofs").glob("*.sexp"))


def _nodes(p, where=()):
    """Every node of p with the child selectors that lead to it."""
    yield where, p
    if isinstance(p, MP):
        yield from _nodes(p.major, where + ("major",))
        yield from _nodes(p.minor, where + ("minor",))
    elif isinstance(p, Gen):
        yield from _nodes(p.sub, where + ("sub",))


def _replace(p, where, new):
    if not where:
        return new
    sel, rest = where[0], where[1:]
    if sel == "major":
        return MP(_replace(p.major, rest, new), p.minor)
    if sel == "minor":
        return MP(p.major, _replace(p.minor, rest, new))
    return Gen(p.var, _replace(p.sub, rest, new))


def _mutate(p, rng):
    """p with one node changed: its MP premises swapped, wrapped in a
    Gen, or replaced by a stray hypothesis or by a false refleq axiom."""
    nodes = list(_nodes(p))
    where, n = rng.choice(nodes)
    how = rng.choice(("swap", "gen", "hyp", "refleq"))
    if how == "swap":
        mps = [(w, m) for w, m in nodes if isinstance(m, MP)]
        if mps:
            where, n = rng.choice(mps)
            return _replace(p, where, MP(n.minor, n.major))
    if how == "gen":
        return _replace(p, where, Gen(rng.choice(("x", "y", "z")), n))
    if how == "hyp":
        gens = [(w, m) for w, m in nodes if isinstance(m, Gen)]
        if gens and rng.random() < 0.5:
            # below a Gen, where the variable may be free in the hypothesis
            w, g = rng.choice(gens)
            u, n = rng.choice(list(_nodes(g))[1:])
            where = w + u
        try:
            f = conclusion(n)
        except ProofError:
            f = EQ00
        return _replace(p, where, Hyp(f))
    return _replace(p, where, Axiom("refleq", Eq(Num(0), Num(1))))


def _outcome(p, allow):
    try:
        return "ok", print_formula(check_proof(p, allow_hypotheses=allow))
    except ProofError as exc:
        return "error", str(exc), exc.path


def _precheck_some(p, rng):
    """Check a few sub-proofs of p, some below a Gen, so that their
    records hold paths relative to a node that is not the root."""
    nodes = [n for _, n in _nodes(p)]
    for n in rng.sample(nodes, min(5, len(nodes))):
        try:
            check_proof(rng.choice((n, Gen("w0", n))), allow_hypotheses=True)
        except ProofError:
            pass


def test_check_records_change_no_verdict_or_error():
    rng = random.Random(20261018)
    texts = [path.read_text() for path in CORPUS] + [
        print_proof(prove_dne(parse_formula("(= 2 2)")))]
    outcomes = Counter()
    for _ in range(240):
        p = parse_proof(rng.choice(texts))
        _precheck_some(p, rng)
        q = _mutate(p, rng)
        _precheck_some(q, rng)
        fresh = parse_proof(print_proof(q))
        assert fresh == q
        for allow in (False, True):
            got = _outcome(q, allow)
            assert got == _outcome(fresh, allow)
            assert got == _outcome(q, allow)  # and again, on a failure too
            outcomes[got[0], allow, got[1].split(" ")[0]] += 1
    # the mutations reach each kind of verdict, hypotheses included
    assert outcomes["error", False, "undischarged"]
    assert outcomes["error", True, "generalised"]
    assert outcomes["error", True, "modus"]
    assert outcomes["ok", True, "(imp"]


def test_undischarged_hypothesis_path_from_a_record():
    inner = MP(ax_k(EQ00, bot()), Hyp(EQ00))
    outer = Gen("x", MP(ax_k(Imp(bot(), EQ00), EQ00), inner))
    assert conclusion(outer)  # records inner below the root
    for p, at in ((outer, "/gen/mp-minor/mp-minor"),
                  (MP(ax_k(Imp(bot(), EQ00), bot()), inner),
                   "/mp-minor/mp-minor")):
        for _ in range(2):
            with pytest.raises(ProofError) as e:
                check_proof(p)
            assert e.value.path == at
            assert str(e.value) == ("undischarged hypothesis (= 0 0) "
                                    "(at %s)" % at)


def test_a_gen_nodes_conclusion_is_kept():
    g = Gen("x", ax_refleq(TVar("x")))
    assert conclusion(g) is conclusion(g) is check_proof(g)


def _axioms(p):
    return {id(n): n for _, n in _nodes(p) if isinstance(n, Axiom)}


@pytest.mark.parametrize("m", [0, 3])
def test_each_node_is_checked_once(monkeypatch, m):
    axioms_checked, node_checks = Counter(), []
    real_axiom, real_check = extraction._check_axiom, extraction._check

    def count_axiom(ax, path):
        axioms_checked[id(ax)] += 1
        return real_axiom(ax, path)

    def count_check(p, path, hyps_out):
        node_checks.append(p)
        return real_check(p, path, hyps_out)

    monkeypatch.setattr(extraction, "_check_axiom", count_axiom)
    monkeypatch.setattr(extraction, "_check", count_check)
    totals = []
    for n in (4, 8, 16):
        axioms_checked.clear()
        del node_checks[:]
        p = prove_plus(m, n)
        c, _ = extract_value(p, fresh_kernel())
        assert c == Eq(Fn("+", (Num(m), Num(n))), Num(m + n))
        # a built proof recognises only its defining axioms, once each:
        # the constructors' instances carry their records from birth
        defining = {i: ax for i, ax in _axioms(p).items()
                    if ax.kind == "defining"}
        assert defining and dict(axioms_checked) == dict.fromkeys(defining, 1)
        totals.append(len(node_checks))
        # and a read proof recognises each of its axioms once
        axioms_checked.clear()
        q = parse_proof(print_proof(p))
        assert extract_value(q, fresh_kernel())[0] == c
        assert dict(axioms_checked) == dict.fromkeys(_axioms(q), 1)
    # each step of n adds the same nodes, so the counts grow linearly
    assert totals[2] - totals[1] == 2 * (totals[1] - totals[0])


# A proof text's equal axiom texts read as one node

def _shares_no_result(monkeypatch, text, unshared):
    """Read text, check that each of its distinct axiom texts is checked
    once, and that its extraction gives what the unshared copy gives."""
    checked = []
    real = extraction._check_axiom

    def count(ax, path):
        checked.append(ax)
        return real(ax, path)

    monkeypatch.setattr(extraction, "_check_axiom", count)
    got = extract_value(parse_proof(text), fresh_kernel())
    distinct = {t for t in subtrees(text) if t[1] == "ax"}
    assert len(checked) == len({id(ax) for ax in checked}) == len(distinct)
    monkeypatch.setattr(extraction, "_check_axiom", real)
    assert got == extract_value(unshared, fresh_kernel())
    return len(checked), sum(t[1] == "ax" for t in subtrees(text))


def test_sharing_changes_no_plus_result(monkeypatch):
    counts = {}
    for m in range(12):
        for n in range(12):
            p = prove_plus(m, n)
            counts[m, n] = _shares_no_result(monkeypatch, print_proof(p), p)
    # 48 distinct axiom texts among the 68 axioms of 10 + 11
    assert counts[10, 11] == (48, 68)


def test_sharing_changes_no_shipped_result(monkeypatch):
    paths = sorted(PROOF_DIR.glob("*.sexp"))
    assert len(paths) == 24
    counts = {}
    for path in paths:
        text = path.read_text()
        unshared = Ref(text).read_all("p")
        counts[path.stem] = _shares_no_result(monkeypatch, text, unshared)
    assert counts["plus-comm"] == (86, 92)


def test_a_shared_axiom_is_extracted_in_each_context():
    # the univinst axiom and the refleq axiom each occur inside and
    # outside `gen y`, and their bodies hold the context's code
    inst = "(mp (ax univinst (imp (all x (= x x)) (= 0 0)) 0) " \
           "(gen x (ax refleq (= x x))))"
    text = ("(mp (mp (ax k (imp (= 0 0) (imp (all y (= 0 0)) (= 0 0)))) "
            "%s) (gen y %s))" % (inst, inst))
    assert extract_value(parse_proof(text), fresh_kernel()) == extract_value(
        Ref(text).read_all("p"), fresh_kernel())


# The deduction transform decides hypothesis use once per node

def _deduce_by_walks(h, p):
    """The deduction transform that walks the remaining sub-proof for h
    again at every MP and Gen: the oracle for deduce."""
    def uses(q):
        if isinstance(q, Hyp):
            return alpha_eq(q.formula, h)
        if isinstance(q, MP):
            return uses(q.major) or uses(q.minor)
        if isinstance(q, Gen):
            return uses(q.sub)
        return False

    if isinstance(p, Hyp) and alpha_eq(p.formula, h):
        return imp_refl(h)
    if isinstance(p, (Hyp, Axiom)) or not uses(p):
        return MP(ax_k(conclusion(p), h), p)
    if isinstance(p, MP):
        maj = conclusion(p.major)
        return MP(MP(ax_s(h, maj.a, maj.b), _deduce_by_walks(h, p.major)),
                  _deduce_by_walks(h, p.minor))
    if p.var in free_vars(h):
        raise ProofError("cannot discharge %s across generalisation over %s"
                         % (print_formula(h), p.var), "")
    return MP(ax_univdist(p.var, h, conclusion(p.sub)),
              Gen(p.var, _deduce_by_walks(h, p.sub)))


def _deduced(transform, h, p):
    try:
        return print_proof(transform(h, p))
    except ProofError as exc:
        return "error", str(exc)


def test_deduce_prints_as_the_walking_transform_on_the_corpus():
    rng = random.Random(6607)
    seen = Counter()
    for path in CORPUS:
        p = parse_proof(path.read_text())
        assert _deduced(deduce, EQ00, p) == _deduced(_deduce_by_walks,
                                                      EQ00, p)
        nodes = list(_nodes(p))
        for where, n in rng.sample(nodes, min(8, len(nodes))):
            # turn a sub-proof into a hypothesis of its conclusion and
            # discharge it again
            h = conclusion(n)
            q = _replace(p, where, Hyp(h))
            got = _deduced(deduce, h, q)
            assert got == _deduced(_deduce_by_walks, h, q)
            seen[got[0]] += 1
    assert seen["error"] and seen["("]


def test_deduce_prints_as_the_walking_transform_in_the_builders(
        monkeypatch):
    refl = parse_formula("(= x x)")
    jumped = subst(ordinals.jump_formula(refl, "x"), "oj", TVar("x"))
    builds = [
        lambda: prove_dne(parse_formula("(= 2 2)")),
        prove_zero_plus, prove_suc_plus, prove_plus_comm,
        lambda: ordinals.ti_proof_template("zero", refl, var="x"),
        lambda: ordinals.ti_proof_template("zero", jumped, var="x"),
        lambda: ordinals.ti_proof_template(
            "zero", parse_formula("(imp (= x 0) (= 0 x))"), var="x"),
    ]
    got = [print_proof(build()) for build in builds]
    monkeypatch.setattr(extraction, "deduce", _deduce_by_walks)
    monkeypatch.setattr(ordinals, "deduce", _deduce_by_walks)
    assert got == [print_proof(build()) for build in builds]


def _hyp_chain(d):
    """A chain of d MP nodes over Hyp((= 0 0)), each with a hypothesis
    (imp C_i C_i+1) as its major premise."""
    p, c = Hyp(EQ00), EQ00
    for i in range(d):
        nxt = Eq(Num(i + 1), Num(i + 1))
        p, c = MP(Hyp(Imp(c, nxt)), p), nxt
    return p, c


def test_deduce_decides_each_node_once(monkeypatch):
    calls = Counter()
    real_uses, real_alpha = extraction._uses_hyp, extraction.alpha_eq

    def count_uses(p, h, known):
        calls["uses"] += 1
        return real_uses(p, h, known)

    def count_alpha(a, b):
        calls["alpha"] += 1
        return real_alpha(a, b)

    monkeypatch.setattr(extraction, "_uses_hyp", count_uses)
    monkeypatch.setattr(extraction, "alpha_eq", count_alpha)
    totals = {"uses": [], "alpha": []}
    for d in (50, 100, 200):
        p, c = _hyp_chain(d)
        calls.clear()
        q = deduce(EQ00, p)
        for key in totals:
            totals[key].append(calls[key])
        assert check_proof(q, allow_hypotheses=True) == Imp(EQ00, c)
        assert print_proof(q) == print_proof(_deduce_by_walks(EQ00, p))
    # each step of d adds the same nodes, so the counts grow linearly
    for t in totals.values():
        assert 0 < t[0] and t[2] - t[1] == 2 * (t[1] - t[0]), totals


# ---------------------------------------------------------------------------
# The term primitives keep decoded codes per kernel

def _plain_kernel():
    """The reference for fresh_kernel: term primitives that decode their
    term and context codes afresh on every call."""
    def read_env(cc, env):
        out = {}
        while cc != 0:
            nc, cc = vunpair(cc)
            v, env = vunpair(env)
            name = syntax._name_decode(nc)
            if name is None:
                raise StuckError()
            out[name] = v
        return out

    def evalterm(_kernel, v):
        tc, rest = vunpair(v)
        cc, env = vunpair(rest)
        t = ungodel_term(tc)
        if t is None:
            raise StuckError()
        try:
            return eval_term(t, _kernel, read_env(cc, env))
        except (ValueError, TypeError):
            raise StuckError()

    def eqcheck(_kernel, v):
        sc, rest = vunpair(v)
        tc, rest2 = vunpair(rest)
        cc, env = vunpair(rest2)
        s, t = ungodel_term(sc), ungodel_term(tc)
        if s is None or t is None:
            raise StuckError()
        try:
            envd = read_env(cc, env)
            return 0 if (eval_term(s, _kernel, envd)
                         == eval_term(t, _kernel, envd)) else 1
        except (ValueError, TypeError):
            raise StuckError()

    kernel = Kernel()
    kernel.register_primitive(PID_EVALTERM, evalterm, cost=lambda _v: 4)
    kernel.register_primitive(PID_EQCHECK, eqcheck, cost=lambda _v: 4)
    return kernel


def test_each_kernel_decodes_its_codes_once(monkeypatch):
    calls = Counter()
    real_term, real_name = extraction.ungodel_term, extraction._name_decode

    def count_term(c):
        calls["term"] += 1
        return real_term(c)

    def count_name(c):
        calls["name"] += 1
        return real_name(c)

    monkeypatch.setattr(extraction, "ungodel_term", count_term)
    monkeypatch.setattr(extraction, "_name_decode", count_name)
    ctx = ["x", "y"]
    body = extraction._term_value_expr(parse_term("(+ x (s y))"), ctx)
    env = env_value(ctx, {"x": 2, "y": 3})
    seen = []
    for k in (fresh_kernel(), fresh_kernel()):
        code = k.code(Lam(body))
        for _ in range(3):
            assert k.apply(code, env, 100).n == 6
        seen.append(dict(calls))
    # one term and two names decoded by each kernel: the second kernel
    # finds nothing the first one kept
    assert seen == [{"term": 1, "name": 2}, {"term": 2, "name": 4}]


def test_a_fresh_kernel_is_freed_without_the_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        k = fresh_kernel()
        concl, r = extract_value(prove_plus_comm(), k)
        assert realises(r, concl, POLE, B, k).verdict.kind != OUT
        # the term primitives ran and kept what they decoded
        assert kept_by(k, ungodel_term) and kept_by(k, extraction._ctx_names)
        ref = weakref.ref(k)
        del k
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("pid, arg", [
    # a term code with no term's tag
    (PID_EVALTERM, vpair(99, vpair(0, 0))),
    # a context entry that codes no name
    (PID_EVALTERM, vpair(godel_term(TVar("x")), vpair(vpair(5, 0), 0))),
    # the second of two terms has no term's tag
    (PID_EQCHECK, vpair(godel_term(ZERO), vpair(vpair(99, 0), vpair(0, 0)))),
])
def test_a_code_that_decodes_to_nothing_is_stuck_each_time(pid, arg):
    k = fresh_kernel()
    code = k.code(Lam(Prim(pid, Lit(arg))))
    for _ in range(3):
        assert k.apply(code, 0, 100) == Diverged(STUCK)


def test_validate_is_the_same_with_plain_primitives(monkeypatch):
    runs = []
    real_apply = Kernel.apply

    def apply(self, e, m, fuel):
        r = real_apply(self, e, m, fuel)
        runs.append((type(r).__name__, getattr(r, "fuel_used", None)))
        return r

    monkeypatch.setattr(Kernel, "apply", apply)
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    proofs = sorted(Path("corpus/proofs").glob("*.sexp"))
    assert len(proofs) == 24
    outs = []
    for make in (fresh_kernel, _plain_kernel):
        monkeypatch.setattr(
            cli, "ordinal_kernel",
            lambda make=make: ordinals.install_ordinal_primitives(make()))
        runs.clear()
        out = []
        for path in proofs:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["validate", str(path),
                                 "--pole", "generated:0,3,8"])
            out.append((code, stdout.getvalue()))
        outs.append((out, list(runs)))
    # the same reports, and every kernel run, the extracted ones first
    # among them, used the same fuel
    assert outs[0] == outs[1]
    assert len(outs[0][1]) > 24
