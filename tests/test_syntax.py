import hashlib
import pathlib
import re
import sys

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from realisability import syntax
from realisability.extraction import (
    AXIOM_KINDS, MP, Axiom, Gen, Hyp, parse_proof, print_proof, prove_plus,
)
from realisability.notation import O_ZERO, OrdParseError, parse_ord
from realisability.syntax import (
    FN_ARITY, TRUTH_SIDE, All, Eq, Fals, Fn, Imp, InPole, Num, ParseError,
    Real, Tru, TVar, bot, conj, disj, eq_check, eval_term, ex, free_vars,
    fresh_var, godel, godel_term, in_language, neg, parse_base_formula,
    parse_formula, parse_term, print_formula, print_term, subst, subst_term,
    subt, suc_t, term_vars, ungodel, ungodel_term,
)
from realisability.vm import Kernel, pair, vint, vnat, vpair
from test_vm import kept_by

K = Kernel()

names = st.sampled_from(["x", "y", "z", "w"])


def fn(name):
    """The builder of name's terms from their arguments."""
    return lambda *args: Fn(name, args)


terms = st.recursive(
    st.one_of(st.builds(TVar, names), st.builds(Num, st.integers(0, 30))),
    lambda ts: st.one_of(
        st.builds(suc_t, ts),
        st.builds(fn("+"), ts, ts),
        st.builds(fn("*"), ts, ts),
        st.builds(fn("pair"), ts, ts),
        st.builds(fn("p0"), ts),
        st.builds(fn("p1"), ts),
    ),
    max_leaves=12,
)

closed_terms = st.recursive(
    st.builds(Num, st.integers(0, 30)),
    lambda ts: st.one_of(
        st.builds(fn("s"), ts),
        st.builds(fn("+"), ts, ts),
        st.builds(fn("*"), ts, ts),
        st.builds(fn("pair"), ts, ts),
        st.builds(fn("p0"), ts),
        st.builds(fn("p1"), ts),
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
    args = [naive_eval(a) for a in t.args]
    if t.name == "s":
        return args[0] + 1
    if t.name == "+":
        return args[0] + args[1]
    if t.name == "*":
        return args[0] * args[1]
    if t.name == "pair":
        x, y = args
        return (x + y) * (x + y + 1) // 2 + y
    if t.name == "p0":
        z = args[0]
        w = 0
        while (w + 1) * (w + 2) // 2 <= z:
            w += 1
        return w - (z - w * (w + 1) // 2)
    if t.name == "p1":
        z = args[0]
        w = 0
        while (w + 1) * (w + 2) // 2 <= z:
            w += 1
        return z - w * (w + 1) // 2
    raise TypeError(t)


def test_eval_term_basics():
    assert vint(eval_term(parse_term("(+ (s 0) (s 0))"), K)) == 2
    assert vint(eval_term(parse_term("(* 3 (s 3))"), K)) == 12
    assert vint(eval_term(parse_term("(p0 (pair 7 9))"), K)) == 7


@hyp.given(closed_terms)
def test_eval_term_matches_naive_oracle(t):
    assert vint(eval_term(t, K)) == naive_eval(t)


def test_a_symbol_is_called_with_its_kernel(monkeypatch):
    # as a primitive is (test_vm.test_a_primitive_is_called_with_its_kernel)
    monkeypatch.setattr(syntax, "FN_ARITY", dict(syntax.FN_ARITY))
    monkeypatch.setattr(syntax, "FN_SEMANTICS", dict(syntax.FN_SEMANTICS))
    seen = []

    def probe(kernel, v):
        seen.append(kernel)
        return kernel.kept((probe, v), vint, v) + 1

    syntax.register_fn("probe", 1, probe)
    k = Kernel()
    assert eval_term(Fn("probe", (Fn("+", (Num(1), Num(3))),)), k) == 5
    assert seen == [k] and kept_by(k, probe) == {(probe, 4): 4}


def test_numeral_normalization():
    assert suc_t(Num(4)) == Num(5)
    assert parse_term("(s (s 0))") == Num(2)


def test_eq_check():
    assert eq_check(godel_term(parse_term("(+ (s 0) (s 0))")),
                    godel_term(Num(2)), K)
    assert not eq_check(godel_term(Num(0)), godel_term(Num(1)), K)


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


def test_built_in_symbols_keep_their_codes():
    text = "(all x (= (+ (s x) (* 2 y)) (p0 (pair (p1 z) (s 3)))))"
    a = parse_formula(text)
    assert print_formula(a) == text.replace("(s 3)", "4")
    # the code each built-in symbol had as a term class of its own
    c = vint(godel(a))
    assert c.bit_length() == 6437
    assert hashlib.sha256(str(c).encode()).hexdigest() == (
        "249a4dbe3d92078a09dd362dc6703042e90f4e28babbf9a8acf266f5e81e6423")
    assert ungodel(godel(a)) == a
    # a built-in has that one code: the general function-symbol code
    # naming it decodes to nothing
    fn_s = vpair(syntax._T_FN, vpair(syntax._name_code("s"),
                                     vpair(1, vpair(num_code(0), 0))))
    assert ungodel_term(fn_s) is None and ungodel(fn_s) is None


# one formula of each class, with its text and its code: <tag, fields>,
# the tag 20 + the class's position in Eq, Imp, All, InPole, Fals, Real,
# Tru and the fields paired from the right; a code of 40 digits or more
# is pinned by the SHA-256 of its decimal
W = parse_ord("w")
CLASS_FORMATS = [
    (Eq(TVar("x"), Num(3)), "(= x 3)", 3136433196596921639751124815289),
    (Imp(Eq(Num(0), Num(0)), Eq(Num(0), Num(1))), "(imp (= 0 0) (= 0 1))",
     185853326981),
    (All("x", Eq(TVar("x"), TVar("x"))), "(all x (= x x))",
     "890c7aa9cb13e85fbe8abb13e73946c133ccfbabaf72c8be271efc55470d731a"),
    (InPole(Fn("pair", (TVar("y"), Num(5)))), "(pole (pair y 5))",
     "644b1c675c84f42f1d07dac514f162e57e0f4a02ecfa410a519132ca3901c19b"),
    (Fals(W, Num(2), TVar("x")), "(fals w 2 x)",
     "a8e78c1615eb033e4bded09160f636d25332167872f02f95a5a414479842fc1b"),
    (Real(parse_ord("2"), TVar("x"), Num(4)), "(real 2 x 4)",
     "b0a85e3492c67c8fa07b806dc7676221dcaa5b457aad9c859a8df950927b4b4c"),
    (Tru(parse_ord("w+1"), Num(9)), "(tru w+1 9)",
     13130932529347543636476308713),
]


@pytest.mark.parametrize("a, text, code", CLASS_FORMATS,
                         ids=[type(a).__name__ for a, _, _ in CLASS_FORMATS])
def test_each_class_keeps_its_text_and_code(a, text, code):
    c = godel(a)
    if isinstance(code, int):
        assert vint(c) == code
    else:
        assert hashlib.sha256(str(vint(c)).encode()).hexdigest() == code
    assert ungodel(c) == a
    assert print_formula(a) == text
    assert parse_formula(text) == a


# ---------------------------------------------------------------------------
# Codes kept on formula nodes

def table_godel(a):
    """godel as it was before it kept each node's code on the node: the
    walk of the _LAYOUT table, which codes every subformula it passes
    again.  The reference for godel."""
    tag, _, layout = syntax._LAYOUT[type(a)]
    code = None
    for name, code_of, _ in layout[::-1]:  # paired from the right
        x = getattr(a, name)
        x = table_godel(x) if code_of is godel else code_of(x)
        code = x if code is None else vpair(x, code)
    return vpair(tag, code)


levels = st.sampled_from([O_ZERO, parse_ord("2"), parse_ord("w+1")])

# every class, with subformulas shared by their parent
coded_formulas = st.recursive(
    st.one_of(
        st.builds(Eq, terms, terms),
        st.builds(InPole, terms),
        st.builds(Fals, levels, terms, terms),
        st.builds(Real, levels, terms, terms),
        st.builds(Tru, levels, terms),
    ),
    lambda fs: st.one_of(
        st.builds(Imp, fs, fs),
        st.builds(All, names, fs),
        st.builds(lambda a: Imp(a, All("x", a)), fs),
    ),
    max_leaves=8,
)


@hyp.given(coded_formulas)
def test_a_formula_keeps_the_code_the_table_walk_gives(a):
    want = table_godel(a)
    c = godel(a)
    assert c == want and godel(a) is c
    # an equal formula built apart has the same code, kept on its own
    # nodes
    apart = ungodel(want)
    assert apart == a and apart is not a
    assert godel(apart) == want and godel(apart) is not c


def test_a_shared_subformula_is_coded_once(monkeypatch):
    coded = []
    code = syntax._coded

    def counting(a):
        coded.append(a)
        return code(a)

    monkeypatch.setattr(syntax, "_coded", counting)
    eq = Eq(TVar("x"), Num(3))
    a = Imp(All("x", eq), Imp(eq, All("x", eq)))
    assert godel(a) == table_godel(a)
    assert len(coded) == 5 and len({id(b) for b in coded}) == 5
    coded.clear()
    godel(a), godel(eq)
    assert coded == []


def test_ungodel_decodes_formulas_only():
    assert ungodel(godel_term(Num(3))) is None
    assert ungodel(godel_term(TVar("x"))) is None
    assert ungodel_term(godel(Eq(Num(0), Num(0)))) is None


def test_a_name_at_the_bound_round_trips_and_a_longer_one_is_refused():
    # a name's code is below the numeral cap up to 1,784 bytes in UTF-8
    for ch in ("a", "\u00e9", "\U0001f600"):
        name = ch * (1784 // len(ch.encode()))
        a = parse_formula("(all %s (= %s 0))" % (name, name))
        assert ungodel(godel(a)) == a
    name = "a" * 1785
    assert syntax._name_decode(syntax._name_code(name)) is None
    for text in ("(all %s (= 0 0))", "(= %s 0)", "(= 0 (s %s))"):
        with pytest.raises(ParseError, match="variable name of more than "
                           "1784 bytes"):
            parse_formula(text % name)


any_names = st.text(max_size=6) | st.sampled_from(
    sorted(syntax._FORMULA_HEADS) + ["a b", "7", "(", "x", "v1", "+"])


@hyp.given(any_names)
@hyp.example("a b")
@hyp.example("7")
@hyp.example("imp")
@hyp.example("(")
def test_a_decoded_formula_prints_text_that_reads_back(name):
    a = ungodel(godel(All(name, Eq(TVar(name), Num(0)))))
    assert a is None or parse_formula(print_formula(a)) == a


@hyp.given(any_names)
def test_the_reader_and_the_decoder_take_the_same_names(name):
    a = All(name, Eq(TVar(name), Num(0)))
    try:
        read = parse_formula("(all %s (= %s 0))" % (name, name)) == a
    except ParseError:
        read = False
    assert read == (syntax._name_decode(syntax._name_code(name)) == name)


def test_a_formula_head_is_no_binder_and_no_term():
    for head in ("=", "imp", "all", "pole", "fals", "real", "tru", "not",
                 "and", "or", "ex", "bot"):
        for text in ("(all %s (= 0 0))", "(ex %s (= 0 0))", "(= %s 0)"):
            with pytest.raises(ParseError):
                parse_formula(text % head)
        for text in ("(gen %s (ax refleq (= 0 0)))",
                     "(ax leibniz (= 0 0) %s (= 0 0))"):
            with pytest.raises(ParseError, match="expected a variable name"):
                parse_proof(text % head)


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
    b = subst(a, "x", Fn("+", (TVar("y"), TVar("v2"))))
    assert b.var == "v3" and free_vars(b) == {"v1", "v2", "y"}


# ---------------------------------------------------------------------------
# subst against the substitution that rebuilds every formula it passes

def rebuild_subst(a, x, s):
    """subst as it was before it kept the subformulas it does not change:
    every formula it passes is rebuilt, and subst_term folds each (s n)
    it rebuilds.  The reference for subst."""
    if isinstance(a, Eq):
        return Eq(subst_term(a.l, x, s), subst_term(a.r, x, s))
    if isinstance(a, Imp):
        return Imp(rebuild_subst(a.a, x, s), rebuild_subst(a.b, x, s))
    if isinstance(a, All):
        if a.var == x:
            return a
        if a.var in term_vars(s) and x in free_vars(a.body):
            y = fresh_var(term_vars(s) | free_vars(a.body))
            renamed = rebuild_subst(a.body, a.var, TVar(y))
            return All(y, rebuild_subst(renamed, x, s))
        return All(a.var, rebuild_subst(a.body, x, s))
    if isinstance(a, InPole):
        return InPole(subst_term(a.t, x, s))
    if isinstance(a, Fals):
        return Fals(a.level, subst_term(a.s, x, s), subst_term(a.t, x, s))
    if isinstance(a, Real):
        return Real(a.level, subst_term(a.s, x, s), subst_term(a.t, x, s))
    return Tru(a.level, subst_term(a.t, x, s))


# successors built without suc_t, so that (s n) over a numeral occurs,
# and binders of the names that substituted terms hold, so that subst
# renames
raw_terms = st.recursive(
    st.one_of(st.builds(TVar, names), st.builds(Num, st.integers(0, 3))),
    lambda ts: st.one_of(
        st.builds(fn("s"), ts),
        st.builds(fn("+"), ts, ts),
        st.builds(fn("pair"), ts, ts),
        st.builds(fn("p0"), ts),
        st.builds(fn("memf"), ts, ts),
    ),
    max_leaves=4,
)

raw_formulas = st.recursive(
    st.one_of(
        st.builds(Eq, raw_terms, raw_terms),
        st.builds(InPole, raw_terms),
        st.builds(lambda s, t: Fals(O_ZERO, s, t), raw_terms, raw_terms),
        st.builds(lambda s, t: Real(O_ZERO, s, t), raw_terms, raw_terms),
        st.builds(lambda t: Tru(O_ZERO, t), raw_terms),
    ),
    lambda fs: st.one_of(
        st.builds(Imp, fs, fs),
        st.builds(All, names, fs),
    ),
    max_leaves=8,
)


@hyp.given(raw_formulas, names, raw_terms)
@hyp.settings(deadline=None, max_examples=400)
def test_subst_is_the_rebuilding_reference(a, x, s):
    out = subst(a, x, s)
    assert out == rebuild_subst(a, x, s)
    # "u" is bound nowhere, so substituting it rebuilds every node and
    # folds every (s n)
    folds = rebuild_subst(a, "u", s) != a
    if isinstance(a, (Imp, All)) and x not in free_vars(a) and not folds:
        # nothing to substitute and nothing to fold: a is kept, not copied
        assert out is a


def test_subst_keeps_the_subformulas_it_does_not_change():
    kept = parse_formula("(all y (= (+ x y) y))")
    f = Imp(kept, parse_formula("(all y (= z y))"))
    out = subst(f, "z", Num(1))
    assert out == parse_formula("(imp (all y (= (+ x y) y)) (all y (= 1 y)))")
    assert out.a is kept and subst(kept, "z", Num(1)) is kept
    # a successor of a numeral is folded wherever subst rebuilds, so a
    # formula holding one is rebuilt although z is not free in it
    folds = All("y", Eq(Fn("s", (Num(0),)), TVar("y")))
    assert subst(folds, "z", Num(1)) == parse_formula("(all y (= 1 y))")


def test_free_variables_are_kept_on_the_node(monkeypatch):
    calls = []
    real = syntax.free_vars
    monkeypatch.setattr(syntax, "free_vars",
                        lambda a: calls.append(a) or real(a))
    shared = parse_formula("(all y (= (+ x y) z))")
    f = Imp(shared, All("z", Imp(shared, Eq(TVar("w"), Num(0)))))
    fv = real(f)
    assert fv == {"x", "z", "w"} and isinstance(fv, frozenset)
    # the shared universal is asked twice and walked once
    assert [a is shared for a in calls].count(True) == 2
    assert [a is shared.body for a in calls].count(True) == 1
    del calls[:]
    assert real(f) is fv and real(shared) == {"x", "z"} and not calls
    # the kept set is not part of the formula's value
    assert f == Imp(shared, All("z", Imp(shared, Eq(TVar("w"), Num(0)))))
    with pytest.raises(TypeError):
        real(TVar("x"))


def test_parse_examples():
    f = parse_formula("(all x (= (+ x 0) x))")
    assert f == All("x", Eq(Fn("+", (TVar("x"), Num(0))), TVar("x")))
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
    a, b = Eq(Num(0), Num(0)), Eq(Num(0), Num(1))
    assert parse_formula("(and (= 0 0) (= 0 1))") == \
        Imp(Imp(a, Imp(b, bot())), bot())
    assert parse_formula("(or (= 0 0) (= 0 1))") == Imp(Imp(a, bot()), b)
    f = parse_formula("(ex x (= x 1))")
    assert not free_vars(f)


@hyp.given(formulas)
def test_parse_print_roundtrip(a):
    assert parse_formula(print_formula(a)) == a


@hyp.given(terms)
def test_parse_print_roundtrip_terms(t):
    assert parse_term(print_term(t)) == t


# ---------------------------------------------------------------------------
# The reader against its old character scanner

def scan(text):
    """The reader's old character scanner, kept as the oracle: the tokens
    of `text` as (token, offset) pairs."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            toks.append((ch, i))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "()":
            j += 1
        toks.append((text[i:j], i))
        i = j
    return toks


class Ref:
    """A reference reader over the oracle's tokens, written from the
    grammar: each argument sort is a letter (t term, f formula, b base
    formula, p proof, v variable, l level), and every error
    names the offset of the token it is about."""

    TERMS = {"s": (suc_t, "t"), "+": (fn("+"), "tt"), "*": (fn("*"), "tt"),
             "pair": (fn("pair"), "tt"), "p0": (fn("p0"), "t"),
             "p1": (fn("p1"), "t")}
    FORMULAS = {"=": (Eq, "tt"), "imp": (Imp, "ff"), "all": (All, "vf"),
                "not": (neg, "f"), "and": (conj, "ff"), "or": (disj, "ff"),
                "ex": (ex, "vf"), "bot": (bot, ""), "pole": (InPole, "t"),
                "fals": (Fals, "ltt"), "real": (Real, "ltt"),
                "tru": (Tru, "lt")}
    PROOFS = {"hyp": (Hyp, "b"), "mp": (MP, "pp"), "gen": (Gen, "vp")}
    AXIOM_DATA = {"univinst": "t", "leibniz": "vb"}
    NOUN = {"t": "term", "f": "formula", "b": "formula", "p": "proof"}

    def __init__(self, text):
        self.toks = scan(text) + [(None, len(text))]
        self.i = 0

    def next(self):
        tok, pos = self.toks[self.i]
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        self.i += 1
        return tok, pos

    def read_all(self, sort):
        out = self.read(sort)
        tok, pos = self.toks[self.i]
        if tok is not None:
            raise ParseError("trailing input %r" % tok, pos)
        return out

    def read(self, sort):
        tok, pos = self.next()
        if sort == "v":
            # a name is no bracket, numeral or formula head
            if tok in ("(", ")") or tok.isdigit() or tok in self.FORMULAS:
                raise ParseError("expected a variable name", pos)
            return tok
        if sort == "l":
            if tok in ("(", ")"):
                raise ParseError("expected an ordinal level", pos)
            try:
                return parse_ord(tok)
            except OrdParseError as exc:
                raise ParseError("bad level %r (%s)" % (tok, exc), pos)
        if sort == "t" and tok != "(":
            if tok.isdigit():
                return Num(vnat(int(tok)))
            if tok == ")" or tok in self.FORMULAS:
                raise ParseError("expected a term, found %r" % tok, pos)
            return TVar(tok)
        if tok != "(":
            raise ParseError("expected a %s, found %r"
                             % (self.NOUN[sort], tok), pos)
        head, hpos = self.next()
        if sort == "p" and head == "ax":
            kind, kpos = self.next()
            if kind not in AXIOM_KINDS:
                raise ParseError("unknown axiom kind %r" % kind, kpos)
            out = Axiom(kind, self.read("b"), tuple(
                self.read(s) for s in self.AXIOM_DATA.get(kind, "")))
        else:
            table = {"t": self.TERMS, "p": self.PROOFS}.get(sort,
                                                           self.FORMULAS)
            if sort == "t" and head in FN_ARITY and head not in table:
                table = {head: (lambda *a: Fn(head, a),
                                "t" * FN_ARITY[head])}
            if head not in table:
                raise ParseError("unknown %s head %r"
                                 % (self.NOUN[sort], head), hpos)
            make, sorts = table[head]
            out = make(*(self.read(s) for s in sorts))
        tok, cpos = self.next()
        if tok != ")":
            raise ParseError("expected %r, found %r" % (")", tok), cpos)
        if sort == "b" and not in_language(out, O_ZERO, TRUTH_SIDE):
            raise ParseError("level-indexed atom in a base formula", pos)
        return out


ENTRIES = [(parse_term, "t"), (parse_formula, "f"),
           (parse_base_formula, "b"), (parse_proof, "p")]


def outcome(read, text):
    try:
        return ("ok", read(text))
    except ParseError as exc:
        return ("error", str(exc), exc.pos)


def assert_reads_as_reference(text):
    for entry, sort in ENTRIES:
        assert outcome(entry, text) == outcome(
            lambda t: Ref(t).read_all(sort), text), (entry.__name__, text)


SEPARATORS = ["", " ", "\t", "\n", "\x1c", "\xa0", "  "]
HEADS = ["s", "+", "*", "pair", "p0", "p1", "=", "imp", "all", "not", "and",
         "or", "ex", "bot", "pole", "fals", "real", "tru", "memf", "foo",
         "hyp", "mp", "gen", "ax", "refleq", "univinst", "leibniz", "k"]
READER_TOKENS = ["(", ")", "0", "12", "x", "y", "w", "e[0]", "w^", "1.2"]
READER_TOKENS += HEADS
PROOF_DIR = pathlib.Path(__file__).resolve().parents[1] / "corpus" / "proofs"
PROOF = (PROOF_DIR / "add-zero.sexp").read_text()


def mutated(draw, base):
    """base with a few tokens deleted or put in, joined by mixed
    whitespace."""
    toks = [t for t, _ in scan(base)]
    for k, tok in draw(st.lists(st.tuples(
            st.integers(0, 10**6), st.none() | st.sampled_from(READER_TOKENS)),
            max_size=4)):
        k %= len(toks) + 1
        if tok is None:
            del toks[k:k + 1]
        else:
            toks.insert(k, tok)
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(toks) + 1,
                         max_size=len(toks) + 1))
    return seps[0] + "".join(t + s for t, s in zip(toks, seps[1:]))


@st.composite
def reader_texts(draw):
    """A valid term, formula or proof with a few tokens deleted or put
    in, or a short run of tokens, joined by mixed whitespace."""
    return mutated(draw, draw(st.one_of(
        terms.map(print_term), formulas.map(print_formula), st.just(PROOF),
        st.just(""))))


# proof and formula texts that restate their formulas, as the K and S
# schemas and modus ponens make proofs do, and proofs that restate their
# axioms, as the proofs of prove_plus do; a univinst or leibniz axiom
# also comes again with other data, which is no restatement
REPEATING = ["(imp {a} (imp {b} {a}))", "(all x (imp {a} (imp {a} {b})))",
             "(mp (ax k (imp {a} (imp {b} {a}))) (hyp {a}))",
             "(mp (mp (ax s (imp (imp {a} (imp {b} {a})) (imp (imp {a} {b}) "
             "(imp {a} {a})))) (ax k (imp {a} (imp {b} {a})))) (hyp {b}))",
             "(ax leibniz (imp (= 0 0) (imp {a} {a})) x {a})",
             "(mp (ax k (imp {a} (imp {b} {a}))) (mp (ax k (imp {a} (imp {b} "
             "{a}))) (hyp {a})))",
             "(mp (mp (ax refleq (= {t} {t})) (ax refleq (= {t} {t}))) "
             "(ax refleq (= {t} {t})))",
             "(mp (ax univinst (imp (all x {a}) {a}) {t}) "
             "(gen x (ax univinst (imp (all x {a}) {a}) {t})))",
             "(mp (ax univinst (imp (all x {a}) {a}) {t}) "
             "(ax univinst (imp (all x {a}) {a}) {u}))",
             "(mp (ax leibniz (imp (= {t} {u}) (imp {a} {b})) x {a}) "
             "(ax leibniz (imp (= {t} {u}) (imp {a} {b})) x {a}))",
             "(mp (ax leibniz (imp (= {t} {u}) (imp {a} {b})) x {a}) "
             "(ax leibniz (imp (= {t} {u}) (imp {a} {b})) y {b}))",
             # an axiom's text after `ax` restated as a formula, and the
             # reverse: neither may be read as the other
             "(mp (ax k (imp {a} (imp {b} {a}))) (hyp (k (imp {a} (imp {b} "
             "{a})))))",
             "(mp (hyp (imp {a} {b})) (ax imp {a} {b}))"]


@st.composite
def repeating_texts(draw):
    """A text that repeats formulas or axioms, valid or with a few tokens
    deleted or put in."""
    a, b = draw(formulas), draw(formulas)
    t, u = draw(terms), draw(terms)
    text = draw(st.sampled_from(REPEATING)).format(
        a=print_formula(a), b=print_formula(b), t=print_term(t),
        u=print_term(u))
    return text if draw(st.booleans()) else mutated(draw, text)


def test_token_regex_splits_where_isspace_does():
    # the reader splits its text with str.split and finds an error's
    # offset with _TOKEN, so both must split where str.isspace holds
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    assert every.split() == re.findall(r"\S+", every)


def read_tokens(text):
    """The tokens _read gives its parser, in the order of the text."""
    def take(toks):
        out = toks[::-1]
        del toks[:]
        return out
    return syntax._read(text, take)


@hyp.given(st.lists(st.sampled_from(
    ["(", ")", "0", "7", "42"] + HEADS + ["\t", "\n", "\x1c", "\xa0", " "]),
    max_size=40).map("".join) | st.text(max_size=40))
def test_tokens_match_the_character_scanner(text):
    want = [t for t, _ in scan(text)]
    assert read_tokens(text) == syntax._TOKEN.findall(text) == want
    assert [m.start() for m in syntax._TOKEN.finditer(text)] == [
        p for _, p in scan(text)]


@hyp.settings(deadline=None, max_examples=300)
@hyp.given(reader_texts())
def test_every_entry_reads_as_the_reference(text):
    assert_reads_as_reference(text)


@hyp.settings(deadline=None, max_examples=200)
@hyp.given(repeating_texts())
def test_a_sharing_read_gives_what_a_fresh_read_gives(text):
    # the reference builds a new node for every formula it reads; the
    # reader returns one node for each formula text, and its results,
    # error messages and offsets must be the reference's
    assert_reads_as_reference(text)


@pytest.mark.parametrize("first, second", [
    ("(ax univinst (imp (all x (= x x)) (= 0 0)) 0)",
     "(ax univinst (imp (all x (= x x)) (= 0 0)) (p0 0))"),
    ("(ax leibniz (imp (= 0 0) (imp (= 0 0) (= 0 0))) x (= x 0))",
     "(ax leibniz (imp (= 0 0) (imp (= 0 0) (= 0 0))) y (= y 0))"),
    ("(ax leibniz (imp (= 0 0) (imp (= 0 0) (= 0 0))) x (= x 0))",
     "(ax leibniz (imp (= 0 0) (imp (= 0 0) (= 0 0))) x (= 0 0))")])
def test_axioms_that_differ_only_in_their_data_read_apart(first, second):
    p = parse_proof("(mp %s %s)" % (first, second))
    assert p.major != p.minor
    assert (p.major, p.minor) == (parse_proof(first), parse_proof(second))


def test_a_text_cut_off_inside_a_shared_axiom_reads_as_the_reference():
    ax = "(ax k (imp (= x 0) (imp (= 0 0) (= x 0))))"
    text = "(mp %s (mp %s (hyp (= x 0))))" % (ax, ax)
    # the first axiom is read, and its copy is cut off at every offset
    for cut in range(text.rindex("(ax"), len(text)):
        with pytest.raises(ParseError):
            parse_proof(text[:cut])
        assert_reads_as_reference(text[:cut])
    assert_reads_as_reference(text)


def formula_nodes(p):
    """Every formula node of proof p, subformulas included, once per
    occurrence in p's text."""
    out, todo = [], [p]
    while todo:
        n = todo.pop()
        if isinstance(n, MP):
            todo += [n.major, n.minor]
        elif isinstance(n, Gen):
            todo.append(n.sub)
        elif isinstance(n, (Axiom, Hyp)):
            todo.append(n.formula)
            if isinstance(n, Axiom) and n.kind == "leibniz":
                todo.append(n.data[1])
        else:
            out.append(n)
            if isinstance(n, Imp):
                todo += [n.a, n.b]
            elif isinstance(n, All):
                todo.append(n.body)
    return out


def subtrees(text):
    """The parenthesised subtrees of text, one tuple of tokens each."""
    toks, opened, out = [t for t, _ in scan(text)], [], []
    for i, tok in enumerate(toks):
        if tok == "(":
            opened.append(i)
        elif tok == ")":
            out.append(tuple(toks[opened.pop():i + 1]))
    return out


def test_equal_formula_texts_read_as_one_object():
    text = (PROOF_DIR / "plus-comm.sexp").read_text()
    trees = subtrees(text)
    assert (len(trees), len(set(trees))) == (2140, 428)
    nodes = formula_nodes(parse_proof(text))
    objects: dict = {}
    for f in nodes:
        objects.setdefault(print_formula(f), set()).add(id(f))
    assert all(len(ids) == 1 for ids in objects.values())
    # one node is built for each distinct formula text, which is less
    # than half of the formulas the text holds
    assert 2 * len(objects) <= len(nodes)


def test_shipped_and_generated_proofs_print_back_to_their_text():
    texts = [path.read_text() for path in sorted(PROOF_DIR.glob("*.sexp"))]
    assert len(texts) == 24
    # every prove_plus proof the corpus benchmark can draw
    texts += [print_proof(prove_plus(m, n))
              for m in range(12) for n in range(12)]
    for text in texts:
        assert print_proof(parse_proof(text)) == text.strip()


def test_a_deep_formula_reads_in_one_frame_per_level():
    n = 60000
    a = parse_formula("(imp (= 0 0) " * n + "(= 0 0)" + ")" * n)
    eq = a.a
    assert eq == Eq(Num(0), Num(0))
    for _ in range(n):
        assert a.a is eq
        a = a.b
    assert a is eq


@pytest.mark.parametrize("entry, text, message", [
    (parse_formula, "(= 0", "unexpected end of input at offset 4"),
    (parse_term, "", "unexpected end of input at offset 0"),
    (parse_formula, "(= 0 0) x", "trailing input 'x' at offset 8"),
    (parse_term, "(s 0))", "trailing input ')' at offset 5"),
    (parse_term, "(foo 0)", "unknown term head 'foo' at offset 1"),
    (parse_formula, "(all x (nope))", "unknown formula head 'nope' at "
     "offset 8"),
    (parse_proof, "(mp (hyp (= 0 0)) (cut))", "unknown proof head 'cut' at "
     "offset 19"),
    (parse_proof, "(ax nope (= 0 0))", "unknown axiom kind 'nope' at "
     "offset 4"),
    (parse_formula, "(tru w^ 0)", "bad level 'w^' ("),
    (parse_formula, "(tru ( 0)", "expected an ordinal level at offset 5"),
    (parse_formula, "(= 0 0 0)", "expected ')', found '0' at offset 7"),
    (parse_formula, "(all 3 (= 0 0))", "expected a variable name at "
     "offset 5"),
    (parse_base_formula, "(imp (= 0 0) (tru 1 0))",
     "level-indexed atom in a base formula at offset 0"),
    (parse_proof, "(gen x  (hyp\t(imp (= x x) (pole x))))",
     "level-indexed atom in a base formula at offset 13"),
    # an axiom's text after `ax` as a formula, and a formula's text after
    # its bracket as an axiom's: the reader shares neither as the other
    (parse_proof, "(mp (ax k (imp (= 0 0) (imp (= 0 0) (= 0 0)))) "
     "(hyp (k (imp (= 0 0) (imp (= 0 0) (= 0 0))))))",
     "unknown formula head 'k' at offset 53"),
    (parse_proof, "(mp (hyp (imp (= 0 0) (= 0 0))) (ax imp (= 0 0) (= 0 0)))",
     "unknown axiom kind 'imp' at offset 36"),
])
def test_reader_errors(entry, text, message):
    with pytest.raises(ParseError) as err:
        entry(text)
    assert str(err.value).startswith(message)
    assert_reads_as_reference(text)


@pytest.mark.parametrize("text, message", [
    ("(= \u00b2 0)", "bad numeral '\u00b2' at offset 3"),
    ("(= 0 \u0663)", "bad numeral '\u0663' at offset 5"),
    ("(= %s 0)" % ("9" * 5000), "numeral of 5000 digits is too long at "
     "offset 3"),
])
def test_numerals_are_ascii_digits_within_the_int_limit(text, message):
    # str.isdigit also holds for superscripts and other scripts' digits
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == message
    assert parse_term("9" * 4000) == Num(vnat(int("9" * 4000)))


def test_numerals_past_the_digit_limit_print_as_pairs():
    # up to 4300 digits a numeral prints in decimal, as Python prints it;
    # past that, as (pair a b) over its sparse components, read back to
    # the same value
    assert print_term(Num(vnat(10**4300 - 1))) == "9" * 4300
    big = vnat(10**4300)
    text = print_term(Num(big))
    assert text.startswith("(pair (pair ")
    assert eval_term(parse_term(text), K) == big
    # 2^70 paired with 0, 1, ..., 39: 2659 digits after 7 pairings, 5317
    # after 8, and far too many to expand after 40
    v = vnat(2**70)
    for k in range(40):
        if k == 7:
            assert print_term(Num(v)) == str(vint(v))
        if k == 8:
            assert print_term(Num(v)).startswith("(pair ")
        v = vpair(v, k)
    text = print_formula(Eq(Num(v), TVar("x")))
    assert text == "(= %s42916700575 5675307424)%s x)" % (
        "(pair " * 41, "".join(" %d)" % k for k in range(40)))
    read = parse_formula(text)
    assert eval_term(read.l, K) == v and print_formula(read) == text


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    text = "(p0 " * 1000 + "0" + ")" * 1000
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 200)
    try:
        with pytest.raises(ParseError) as err:
            parse_term(text)
    finally:
        sys.setrecursionlimit(old)
    assert re.fullmatch(r"nesting too deep at offset \d+", str(err.value))
    assert text[err.value.pos:].startswith(("(", "p0"))
    assert parse_term(text).name == "p0"


def test_reader_passes_on_index_errors_it_did_not_raise(monkeypatch):
    def broken(_text):
        raise IndexError("not the token list")
    monkeypatch.setattr(syntax, "parse_ord", broken)
    for text in ("(tru 1 0)", "(tru 1"):
        with pytest.raises(IndexError, match="not the token list"):
            parse_formula(text)
