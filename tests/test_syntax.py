import hypothesis as hyp
from hypothesis import strategies as st

from realisability.syntax import (
    Add, All, Eq, Imp, Mul, Num, PairT, Proj0T, Proj1T, SucT, TVar, bot,
    eq_check, eval_term, free_vars, fresh_var, godel, godel_term,
    parse_formula, parse_term, print_formula,
    print_term, subst, subt, suc_t, ungodel, ungodel_term,
)
from realisability.vm import pair, vint

names = st.sampled_from(["x", "y", "z", "w"])

terms = st.recursive(
    st.one_of(st.builds(TVar, names), st.builds(Num, st.integers(0, 30))),
    lambda ts: st.one_of(
        st.builds(suc_t, ts),
        st.builds(Add, ts, ts),
        st.builds(Mul, ts, ts),
        st.builds(PairT, ts, ts),
        st.builds(Proj0T, ts),
        st.builds(Proj1T, ts),
    ),
    max_leaves=12,
)

closed_terms = st.recursive(
    st.builds(Num, st.integers(0, 30)),
    lambda ts: st.one_of(
        st.builds(SucT, ts),
        st.builds(Add, ts, ts),
        st.builds(Mul, ts, ts),
        st.builds(PairT, ts, ts),
        st.builds(Proj0T, ts),
        st.builds(Proj1T, ts),
    ),
    max_leaves=12,
)

formulas = st.recursive(
    st.builds(Eq, terms, terms),
    lambda fs: st.one_of(
        st.builds(Imp, fs, fs),
        st.builds(All, names, fs),
    ),
    max_leaves=10,
)


def naive_eval(t):
    # independent big-step oracle, written without eval_term
    if isinstance(t, Num):
        return vint(t.n)
    if isinstance(t, SucT):
        return naive_eval(t.t) + 1
    if isinstance(t, Add):
        return naive_eval(t.l) + naive_eval(t.r)
    if isinstance(t, Mul):
        return naive_eval(t.l) * naive_eval(t.r)
    if isinstance(t, PairT):
        x, y = naive_eval(t.l), naive_eval(t.r)
        return (x + y) * (x + y + 1) // 2 + y
    if isinstance(t, Proj0T):
        z = naive_eval(t.t)
        w = 0
        while (w + 1) * (w + 2) // 2 <= z:
            w += 1
        return w - (z - w * (w + 1) // 2)
    if isinstance(t, Proj1T):
        z = naive_eval(t.t)
        w = 0
        while (w + 1) * (w + 2) // 2 <= z:
            w += 1
        return z - w * (w + 1) // 2
    raise TypeError(t)


def test_eval_term_basics():
    assert vint(eval_term(parse_term("(+ (s 0) (s 0))"))) == 2
    assert vint(eval_term(parse_term("(* 3 (s 3))"))) == 12
    assert vint(eval_term(parse_term("(p0 (pair 7 9))"))) == 7


@hyp.given(closed_terms)
def test_eval_term_matches_naive_oracle(t):
    assert vint(eval_term(t)) == naive_eval(t)


def test_numeral_normalization():
    assert suc_t(Num(4)) == Num(5)
    assert parse_term("(s (s 0))") == Num(2)


def test_eq_check():
    assert eq_check(godel_term(parse_term("(+ (s 0) (s 0))")),
                    godel_term(Num(2)))
    assert not eq_check(godel_term(Num(0)), godel_term(Num(1)))


def test_godel_roundtrip_example():
    a = Eq(Num(0), Num(0))
    assert ungodel(godel(a)) == a


@hyp.given(formulas)
def test_godel_roundtrip_property(a):
    assert ungodel(godel(a)) == a


@hyp.given(closed_terms)
def test_godel_term_roundtrip(t):
    assert ungodel_term(godel_term(t)) == t


def test_ungodel_flags_noncodes():
    assert ungodel(pair(99, 0)) is None


def num_code(n):
    return godel_term(Num(n))


def test_sub_examples():
    c = godel(parse_formula("(= x 0)"))
    assert subt(c, "x", num_code(3)) == godel(Eq(Num(3), Num(0)))
    c2 = godel(parse_formula("(all x (= x x))"))
    assert subt(c2, "x", num_code(5)) == c2
    c3 = godel(parse_formula("(all y (= x y))"))
    assert subt(c3, "x", num_code(2)) == godel(All("y", Eq(Num(2), TVar("y"))))


@hyp.given(formulas, names, st.integers(0, 40))
def test_substitution_lemma(a, x, n):
    assert subt(godel(a), x, num_code(n)) == godel(subst(a, x, Num(n)))


def test_subt_examples():
    c = godel(parse_formula("(= v 0)"))
    s = godel_term(parse_term("(+ (s 0) (s 0))"))
    assert subt(c, "v", s) == godel(Eq(parse_term("(+ (s 0) (s 0))"), Num(0)))
    c2 = godel(parse_formula("(all v (= v v))"))
    assert subt(c2, "v", godel_term(Num(0))) == c2


def test_subt_sub_commute_on_numerals():
    # a numeral's code substitutes as the numeral: the successor of the
    # numeral 4 folds to 5
    c = godel(parse_formula("(= v (s v))"))
    assert subt(c, "v", num_code(4)) == godel(Eq(Num(4), Num(5)))


def test_capture_avoidance():
    a = parse_formula("(all y (= x y))")
    b = subst(a, "x", TVar("y"))
    # the bound y must be renamed, not capture the substituted y
    assert isinstance(b, All) and b.var != "y"
    assert free_vars(b) == {"y"}


def test_fresh_names_are_the_first_not_in_use():
    assert fresh_var(set()) == "v1"
    assert fresh_var({"v1", "v3"}) == "v2"
    # the renamed binder avoids v1, free in the body, and v2, free in s
    a = parse_formula("(all y (= (+ v1 x) y))")
    b = subst(a, "x", Add(TVar("y"), TVar("v2")))
    assert b.var == "v3" and free_vars(b) == {"v1", "v2", "y"}


def test_parse_examples():
    f = parse_formula("(all x (= (+ x 0) x))")
    assert f == All("x", Eq(Add(TVar("x"), Num(0)), TVar("x")))
    g = parse_formula("(imp (= 0 1) (= 0 0))")
    assert g == Imp(bot(), Eq(Num(0), Num(0)))


def test_parse_error_position():
    try:
        parse_formula("(= 0")
        assert False
    except ValueError as err:
        assert "offset 4" in str(err)


def test_sugar_expansion():
    assert parse_formula("(not (= 0 0))") == Imp(Eq(Num(0), Num(0)), bot())
    assert parse_formula("(bot)") == bot()
    f = parse_formula("(ex x (= x 1))")
    assert not free_vars(f)


@hyp.given(formulas)
def test_parse_print_roundtrip(a):
    assert parse_formula(print_formula(a)) == a


@hyp.given(terms)
def test_parse_print_roundtrip_terms(t):
    assert parse_term(print_term(t)) == t
