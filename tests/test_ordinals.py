import contextlib
import gc
import hashlib
import io
import itertools
import random
import re
import time
import weakref

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from realisability import cli, notation, ordinals, vm
from realisability.extraction import (
    ExtractionError, check_proof, combinator, extract_value, fresh_kernel,
    print_proof,
)
from realisability.notation import (
    NESTING_MAX, CnfSum, Eps, GREATER, LESS, EQUAL, LimC, O_ZERO,
    OrdParseError, SucC, ZeroC, ZeroO, add, classify, compare, eps, fundseq,
    is_normal, ocode, odecode, omega, omega_pow, omega_tower, onat,
    parse_ord, print_ord,
)
from realisability.ordinals import (
    PID_ORDFS, PID_TISUC, PID_WO, build_Prog, build_TI, jump_formula, olt,
    ordinal_kernel, ti_formula, ti_proof_template, wo_combinator,
    wo_realiser,
)
from realisability.poles import Generated, OUT, member
from realisability.semantics import Budget, realises
from realisability.syntax import (
    All, Eq, Fn, Imp, Num, TVar, free_vars, godel, parse_formula, subst,
    ungodel,
)
from realisability.vm import (
    Kernel, Lam, Lit, PV, Pair, Prim, StuckError, Value, Var, encode, vpair,
)
from test_vm import kept_by

K = ordinal_kernel()
POLE = Generated(frozenset({0, 3, 8}), 64)
B = Budget(fuel=10**6, samples=5, width=20)
A_REFL = parse_formula("(= x x)")
A_CODE = godel(A_REFL)

W = omega()
EPS0 = eps(O_ZERO)


# ---------------------------------------------------------------------------
# Corpus of small notations

def _osize(a):
    if isinstance(a, ZeroO):
        return 1
    if isinstance(a, Eps):
        return 1 + _osize(a.sub)
    return sum(_osize(e) + 1 for e, _c in a.terms)


def small_notations(max_size=4, rounds=4):
    seen = {O_ZERO, onat(1), onat(2), onat(3)}
    for _ in range(rounds):
        batch = list(seen)
        for a in batch:
            cands = [omega_pow(a), add(a, onat(1))]
            try:
                cands.append(eps(a))
            except ValueError:
                pass
            for b in batch:
                cands.append(add(a, b))
            for c in cands:
                if _osize(c) <= max_size:
                    seen.add(c)
    return sorted(seen, key=lambda a: (_osize(a), repr(a)))


CORPUS = small_notations()
LIMITS = [a for a in CORPUS if isinstance(classify(a), LimC)]


def test_corpus_is_normal_and_nontrivial():
    assert len(CORPUS) > 30
    assert W in CORPUS and EPS0 in CORPUS
    for a in CORPUS:
        assert is_normal(a), a


# ---------------------------------------------------------------------------
# Order: two independent oracles.
#
# Oracle 1 rebuilds the comparison from scratch as lexicographic
# comparison of omega-power sums, treating an epsilon atom as the sum
# it abbreviates.  Oracle 2 decides a < b by brute-force descent from b
# through predecessors and fundamental-sequence members; it is only
# tractable on low notations, so it runs on a restricted sub-corpus.

def brute_cmp(a, b):
    ta = [] if isinstance(a, ZeroO) else list(a.terms)
    tb = [] if isinstance(b, ZeroO) else list(b.terms)
    for (e1, c1), (e2, c2) in zip(ta, tb):
        r = _brute_exp(e1, e2)
        if r:
            return r
        if c1 != c2:
            return -1 if c1 < c2 else 1
    if len(ta) != len(tb):
        return -1 if len(ta) < len(tb) else 1
    return 0


def _brute_exp(e1, e2):
    if isinstance(e1, Eps) and isinstance(e2, Eps):
        return brute_cmp(e1.sub, e2.sub)
    if isinstance(e1, Eps):
        return -brute_cmp(e2, CnfSum(((e1, 1),)))
    if isinstance(e2, Eps):
        return brute_cmp(e1, CnfSum(((e2, 1),)))
    return brute_cmp(e1, e2)


def test_compare_matches_independent_comparator():
    table = {-1: LESS, 0: EQUAL, 1: GREATER}
    for a, b in itertools.product(CORPUS, CORPUS):
        assert compare(a, b) == table[brute_cmp(a, b)], (a, b)


def _height(a):
    if isinstance(a, ZeroO):
        return 0
    if isinstance(a, Eps):
        return 99
    return 1 + max(_height(e) for e, _c in a.terms)


def _low(a):
    # epsilon-free, exponents are naturals <= 3, coefficients <= 6:
    # small enough for exhaustive descent with branching 9
    if isinstance(a, ZeroO):
        return True
    if _height(a) > 2:
        return False
    for e, c in a.terms:
        if c > 6:
            return False
        if not isinstance(e, ZeroO) and e.terms[0][1] > 3:
            return False
    return True


LOW = [a for a in CORPUS if _low(a)]

_memo = {}


def naive_leq(a, b):
    """a <= b verified by descent: below a successor means at-or-below
    its predecessor; below a limit means at-or-below some member of its
    fundamental sequence."""
    if a == b:
        return True
    key = (a, b)
    if key in _memo:
        return _memo[key]
    _memo[key] = False  # cycles cannot witness a descent
    k = classify(b)
    if isinstance(k, ZeroC):
        out = False
    elif isinstance(k, SucC):
        out = naive_leq(a, k.pred)
    else:
        out = any(naive_leq(a, fundseq(b, n)) for n in range(9))
    _memo[key] = out
    return out


def test_compare_matches_descent_oracle_on_low_corpus():
    assert len(LOW) > 15
    for a, b in itertools.product(LOW, LOW):
        r = compare(a, b)
        if naive_leq(a, b):
            assert (r == EQUAL) == (a == b)
            assert r in (LESS, EQUAL), (a, b)
        else:
            assert r == GREATER, (a, b)


def test_compare_total_order_properties():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (rng.choice(CORPUS) for _ in range(3))
        ab, ba = compare(a, b), compare(b, a)
        assert ab == {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[ba]
        assert (ab == EQUAL) == (a == b)
        if ab == LESS and compare(b, c) == LESS:
            assert compare(a, c) == LESS


# ---------------------------------------------------------------------------
# Arithmetic

def test_add_absorption_and_units():
    assert add(onat(1), W) == W
    assert add(W, onat(1)) == CnfSum(((onat(1), 1), (O_ZERO, 1)))
    assert add(onat(2), onat(3)) == onat(5)
    for a in CORPUS[:40]:
        assert add(a, O_ZERO) == a
        assert add(O_ZERO, a) == a


def test_add_associative_and_monotone():
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = (rng.choice(CORPUS) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        if compare(b, c) == LESS:
            assert compare(add(a, b), add(a, c)) == LESS


def test_omega_pow_fixed_points_and_monotone():
    assert omega_pow(O_ZERO) == onat(1)
    assert omega_pow(onat(1)) == W
    assert omega_pow(EPS0) == EPS0
    assert omega_pow(eps(onat(2))) == eps(onat(2))
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.choice(CORPUS), rng.choice(CORPUS)
        if compare(a, b) == LESS:
            r = compare(omega_pow(a), omega_pow(b))
            assert r in (LESS, EQUAL)  # EQUAL only at epsilon collapses
            if r == EQUAL:
                assert omega_pow(b) == b and isinstance(
                    b.terms[0][0], Eps)


def test_classify_successor_roundtrip():
    for a in CORPUS[:60]:
        s = add(a, onat(1))
        k = classify(s)
        assert isinstance(k, SucC) and k.pred == a


# ---------------------------------------------------------------------------
# Fundamental sequences

def test_fundseq_omega_is_n():
    for n in range(10):
        assert fundseq(W, n) == onat(n)


def test_fundseq_successor_exponent():
    # [w^(a+1)]_n = w^a * n
    rng = random.Random(7)
    for _ in range(200):
        a = rng.choice(CORPUS)
        n = rng.randrange(1, 9)
        p = omega_pow(add(a, onat(1)))
        base = omega_pow(a)
        want = CnfSum(((base.terms[0][0], n),))
        assert fundseq(p, n) == want, (a, n)


def test_fundseq_spot_values():
    w2 = omega_pow(onat(2))
    assert fundseq(w2, 3) == CnfSum(((onat(1), 3),))  # [w^2]_3 = w*3
    assert fundseq(EPS0, 0) == omega_tower(onat(1), 0) == onat(1)
    assert fundseq(EPS0, 2) == omega_pow(W)  # w^w
    assert fundseq(eps(W), 3) == eps(onat(3))
    # tail coefficient peels off: [w*2]_n = w + n
    w2c = CnfSum(((onat(1), 2),))
    assert fundseq(w2c, 4) == add(W, onat(4))


def test_fundseq_eps_tower_identities():
    rng = random.Random(13)
    eps_free = [a for a in CORPUS if not any(
        isinstance(e, Eps) for e, _ in getattr(a, "terms", ()))]
    for _ in range(100):
        n = rng.randrange(0, 5)
        assert fundseq(EPS0, n) == omega_tower(onat(1), n)
        a = rng.choice(eps_free)
        try:
            e_suc = eps(add(a, onat(1)))
        except ValueError:
            continue
        assert fundseq(e_suc, n) == omega_tower(add(eps(a), onat(1)), n)
    # limit index: [eps_lambda]_n = eps_{[lambda]_n}
    for lam in (W, omega_pow(onat(2))):
        for n in range(1, 5):
            assert fundseq(eps(lam), n) == eps(fundseq(lam, n))


def test_fundseq_increasing_and_below():
    for a in LIMITS:
        prev = None
        for n in range(21):
            f = fundseq(a, n)
            assert compare(f, a) == LESS, (a, n)
            if prev is not None and n > 1:
                assert compare(prev, f) == LESS, (a, n)
            prev = f


def test_fundseq_rejects_non_limits():
    with pytest.raises(ValueError):
        fundseq(O_ZERO, 3)
    with pytest.raises(ValueError):
        fundseq(onat(4), 3)


# ---------------------------------------------------------------------------
# Codes and text

def test_ocode_roundtrip():
    for a in CORPUS:
        assert odecode(ocode(a)) == a


def test_odecode_rejects_garbage():
    bad = [vpair(3, 0), vpair(1, 0),
           vpair(1, vpair(vpair(0, 0), 0)),  # zero coefficient
           vpair(2, vpair(2, 0))]            # epsilon-nested index
    for v in bad:
        assert odecode(v) is None
    # non-normal: increasing exponents
    incr = vpair(1, vpair(vpair(0, 1),
                          vpair(vpair(ocode(onat(1)), 1), 0)))
    assert odecode(incr) is None


def test_print_parse_roundtrip():
    for a in CORPUS:
        assert parse_ord(print_ord(a)) == a
    assert print_ord(O_ZERO) == "0"
    assert print_ord(W) == "w"
    assert print_ord(EPS0) == "e[0]"
    assert parse_ord("w^w*2 + w + 3") == add(
        CnfSum(((W, 2),)), add(W, onat(3)))
    with pytest.raises(OrdParseError):
        parse_ord("w^")
    with pytest.raises(OrdParseError):
        parse_ord("q + 1")


def _reference_print(a):
    # the printer print_ord replaced, which scans each exponent's text
    # for + and * and copies it into the text around it
    if isinstance(a, ZeroO):
        return "0"
    if isinstance(a, Eps):
        return "e[%s]" % _reference_print(a.sub)
    parts = []
    for e, c in a.terms:
        if isinstance(e, Eps):
            base = _reference_print(e)
        elif isinstance(e, ZeroO):
            parts.append(str(c))
            continue
        elif e == onat(1):
            base = "w"
        else:
            inner = _reference_print(e)
            base = "w^(%s)" % inner if ("+" in inner or "*" in inner) \
                else "w^%s" % inner
        parts.append(base if c == 1 else "%s*%d" % (base, c))
    return " + ".join(parts)


def _doubled_ladder(n):
    # w^(w^(...(w*2)*2...)*2, n levels of w^(...)*2
    a = CnfSum(((onat(1), 2),))
    for _ in range(n):
        a = CnfSum(((a, 2),))
    return a


def test_print_ord_matches_the_reference_printer():
    rng = random.Random(7)
    texts = ["w^" * 200 + "1", "w^(" * 200 + "1" + ")" * 200,
             "e[" + "w^" * 199 + "1]",
             "w^(" * 200 + "w*2 + 1" + ")*3 + 1" * 200,
             "w^(e[w^2*3 + 1] + w)*2 + e[0]*4 + 5"]
    notations = list(CORPUS) + [parse_ord(t) for t in texts]
    notations += [add(rng.choice(CORPUS), rng.choice(CORPUS))
                  for _ in range(200)]
    notations += [fundseq(_doubled_ladder(n), 3) for n in (1, 2, 5, 50, 200)]
    for a in notations:
        assert print_ord(a) == _reference_print(a)


def test_print_ord_is_linear_in_its_output():
    # the reference printer took 17.7 s on this member of the sequence
    a = fundseq(_doubled_ladder(1600), 3)
    start = time.perf_counter()
    text = print_ord(a)
    assert time.perf_counter() - start < 3
    assert len(text) > 7 * 10**6 and text.startswith("w^(w^(")


@pytest.mark.parametrize("text, message", [
    ("\u00b2", "cannot parse summand"),
    ("w*\u00b2", "bad coefficient"),
    ("w + 9" + "9" * 5000, "numeral of 5001 digits is too long"),
    ("w*1" + "0" * 5000, "numeral of 5001 digits is too long"),
    ("e[e[0]]", "epsilon indices must be epsilon-free"),
    ("w + e[1 + e[0]]", "epsilon indices must be epsilon-free"),
])
def test_bad_notations_are_ord_parse_errors(text, message):
    with pytest.raises(OrdParseError, match=re.escape(message)):
        parse_ord(text)


# The parser as it was before it parsed index ranges: it splits and
# copies the remaining text at every level, so it is quadratic in the
# nesting depth.  Kept as the reference for results and error messages.

def _split_top_by_copying(text, sep):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise OrdParseError("unbalanced brackets in %r" % text)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise OrdParseError("unbalanced brackets in %r" % text)
    parts.append("".join(cur))
    return parts


def _parse_ord_by_copying(text):
    out = O_ZERO
    for chunk in _split_top_by_copying(text, "+"):
        chunk = chunk.strip()
        if not chunk:
            raise OrdParseError("empty summand in %r" % text)
        out = add(out, _summand_by_copying(chunk))
    return out


def _summand_by_copying(s):
    coeff = 1
    factors = _split_top_by_copying(s, "*")
    if len(factors) > 2:
        raise OrdParseError("too many factors in %r" % s)
    if len(factors) == 2:
        s, ctext = factors[0].strip(), factors[1].strip()
        coeff = notation._numeral(ctext) or 0
        if coeff < 1:
            raise OrdParseError("bad coefficient %r" % ctext)
    s = s.strip()
    n = notation._numeral(s)
    if n is not None:
        if coeff != 1:
            raise OrdParseError("numeral with coefficient")
        return onat(n)
    if s == "w":
        return CnfSum(((onat(1), coeff),))
    if s.startswith("e[") and s.endswith("]"):
        sub = _parse_ord_by_copying(s[2:-1])
        try:
            base = eps(sub)
        except ValueError as exc:
            raise OrdParseError("%s: %r" % (exc, s)) from None
        return CnfSum(((base.terms[0][0], coeff),))
    if s.startswith("w^"):
        e_text = s[2:]
        if e_text.startswith("(") and e_text.endswith(")"):
            e_text = e_text[1:-1]
        p = omega_pow(_parse_ord_by_copying(e_text))
        return CnfSum(((p.terms[0][0], coeff),))
    raise OrdParseError("cannot parse summand %r" % s)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except OrdParseError as exc:
        return "error", str(exc)


# pieces of notations, of malformed ones, and whitespace str.strip removes
_PIECES = ("w", "w", "w^", "w^(", "(", ")", "[", "]", "e[", "e[0]", "+",
           " + ", "*", "*2", "0", "1", "3", "10", "07", " ", "\t",
           "\u2003", "\u00b2", "x", "^", "e", "ww", "(w)")


def _mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    j = min(len(text), i + rng.randrange(3))
    return text[:i] + rng.choice(("",) + _PIECES) + text[j:]


def test_parse_ord_matches_the_copying_reference():
    rng = random.Random(20260)
    texts = ["", " ", "w^(1)(2)", "e[0][1]", "w^()", "e[]", "*2", "w^+1",
             "e[0)", "w^(0]", "w^ (1)", " w ^(1)", "w^(1) * 2 ", "3*2",
             "e[e[0]]", "w + e[1 + e[0]]", "w + 9" + "9" * 5000,
             "w*1" + "0" * 5000]
    texts += [print_ord(a) for a in CORPUS]
    for _ in range(3000):
        pick = rng.random()
        if pick < 0.4:
            text = "".join(rng.choice(_PIECES)
                           for _ in range(rng.randrange(1, 9)))
        else:
            text = print_ord(rng.choice(CORPUS))
            for _ in range(rng.randrange(0 if pick < 0.6 else 1, 4)):
                text = _mutate(rng, text)
        texts.append(text)
    outcomes = set()
    for text in texts:
        want = _outcome(_parse_ord_by_copying, text)
        assert _outcome(parse_ord, text) == want, text
        outcomes.add(want[0] if want[0] == "ok"
                     else want[1].split(" in ")[0].split(" %r")[0][:12])
    # both results and several kinds of error were compared
    assert len(outcomes) >= 8, outcomes


class _CountingText(str):
    """A text that counts the characters read from it; a slice counts
    its length."""
    reads = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            _CountingText.reads += len(range(*key.indices(len(self))))
        else:
            _CountingText.reads += 1
        return str.__getitem__(self, key)


def test_parse_ord_is_linear_in_nesting_depth():
    # each character is read a bounded number of times, however deep the
    # nesting: the quadratic parser re-read the rest of the text at every
    # level
    for n in (750, 1500, 3000):
        text = _CountingText("w^(" * n + "1" + ")" * n)
        _CountingText.reads = 0
        assert parse_ord(text) == omega_tower(onat(1), n)
        assert _CountingText.reads <= 2 * len(text), n


@pytest.mark.parametrize("shape", [
    lambda n: "w^" * n + "1", lambda n: "w^(" * n + "1" + ")" * n,
    lambda n: "e[" + "w^" * (n - 1) + "1]",
    lambda n: "w^(" * n + "w*2 + 1" + ")*3 + 1" * n])
def test_notations_nest_at_most_the_bound(shape):
    # an exponent or an epsilon index is one level deeper than the text
    # around it; past the bound the reader stops before the walks that
    # recurse per level run out of stack
    a = parse_ord(shape(NESTING_MAX))
    assert parse_ord(print_ord(a)) == a
    with pytest.raises(OrdParseError,
                       match="nested more than %d deep" % NESTING_MAX):
        parse_ord(shape(NESTING_MAX + 1))


# ---------------------------------------------------------------------------
# TI formulas and proof templates

def test_build_ti_shape():
    t = build_TI(A_REFL, W, "x")
    assert isinstance(t, Imp)
    assert free_vars(t) == set()
    prog = build_Prog(A_REFL, "x")
    assert isinstance(prog, All) and prog.var == "oa"
    inst = t.b
    assert inst == Eq(Num(ocode(W)), Num(ocode(W)))


def test_olt_is_an_equation():
    f = olt(Num(ocode(onat(1))), Num(ocode(W)))
    assert isinstance(f, Eq) and isinstance(f.l, Fn)


def test_templates_pass_the_checker():
    z = ti_proof_template("zero", A_REFL, var="x")
    assert check_proof(z) == build_TI(A_REFL, O_ZERO, "x")
    s = ti_proof_template("suc", A_REFL, var="x")
    cs = check_proof(s)
    assert isinstance(cs, All) and cs.var == "oa"
    co = check_proof(ti_proof_template("omega", A_REFL, var="x"))
    jumped = jump_formula(A_REFL, "x")
    assert isinstance(co, All) and free_vars(jumped) == {"oj"}
    lim = ti_proof_template("lim", A_REFL, W, var="x")
    cl = check_proof(lim)
    assert cl.b == build_TI(A_REFL, W, "x")
    with pytest.raises(ValueError):
        ti_proof_template("lim", A_REFL, onat(3), var="x")
    with pytest.raises(ValueError):
        ti_proof_template("up", A_REFL, var="x")


def test_zero_template_is_schematic():
    # the zero template needs no direct proof of A's instances
    a = parse_formula("(imp (= x 0) (= 0 x))")
    p = ti_proof_template("zero", a, var="x")
    assert check_proof(p) == build_TI(a, O_ZERO, "x")


# SHA-256 digests of the templates' proof text, and of the realiser code
# each template primitive returns, for (= x x) and for its jump A'(x): a
# rewrite of the templates or of their primitives that changes a proof
# or a code fails here.
PINNED_PROOFS = {
    ("refl", "zero"): "9cb82c7fbc9c109af1dd56877b568f0be92f54e4403c8d7b55d925c71655f0f9",
    ("refl", "suc"): "f11784f97086ac3ad51b9cc29de5fba0435d25cb06475e4ac47b88423ba2d0b7",
    ("refl", "omega"): "839f78dc9d0b861a49e091a9ecc97e1567f0cc11b7167f8a684c0a9e9eb41071",
    ("refl", "lim"): "840cb9247e7b5056838b74584c784e9cb41faccf2a6961da15d4885ba62185a4",
    ("jump", "zero"): "3cc09f6a75872492a1e4f06dda6c05907d52cd5ddfd5b313612818a072658c76",
    ("jump", "suc"): "296e977c87c66870505379a468582d4813dfda53be4d1bd3e63404a2ac18dc0b",
    ("jump", "omega"): "a1b996bca41fa0a626289878145b58c793a10524e467cf356962455e579a8cd5",
    ("jump", "lim"): "106466e39c55dcca7770dc4d098f7f3d0a3f04dbd419446003a775f19e5dd8b9",
}
PINNED_REALISERS = {
    ("refl", "ti0"): "afd6a7f3f74a05d9770644232284538a938cfe70c5882069c327472df512032e",
    ("refl", "tisuc"): "672a41649673e2a08f2d8658361fb5e52db136a7a702501442612f055e8521ee",
    ("refl", "tiomega"): "672a41649673e2a08f2d8658361fb5e52db136a7a702501442612f055e8521ee",
    ("refl", "tilim"): "812a6244e78bef7e89f9a5e177f14a206ce0fc18d4ff0bc6ec66db87e2f35f22",
    ("refl", "tidirect"): "60ead61f4ca048909f8bb04f42a349eaacb58bd4b454d094fad33221910b9a56",
    ("jump", "ti0"): "afd6a7f3f74a05d9770644232284538a938cfe70c5882069c327472df512032e",
    ("jump", "tisuc"): "86c70c28c7cc44abaab5f003bef4c63cc76362d339a7d955c706fd10edf235e0",
    ("jump", "tiomega"): "86c70c28c7cc44abaab5f003bef4c63cc76362d339a7d955c706fd10edf235e0",
    ("jump", "tilim"): "3a919bcadd52624c06968b588fc1f946e1041755c53a77a7f2348c5acd33d9a4",
    ("jump", "tidirect"): "8abfcfd9589b5e197006da3aeb13272ea5aee455d9cf479921573b9c330d5c07",
}
PINNED_FORMULAS = {
    "refl": A_REFL,
    "jump": subst(jump_formula(A_REFL, "x"), "oj", TVar("x")),
}
W_W = omega_pow(W)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _code_digest(v):
    """A digest of the natural v: of its decimal text below 2^64, else of
    its two children's digests; a shared node is digested once."""
    memo = {}

    def walk(v):
        if type(v) is not PV:
            return _sha("%d" % v)
        d = memo.get(id(v))
        if d is None:
            d = memo[id(v)] = _sha("(%s %s)" % (walk(v.a), walk(v.b)))
        return d

    return walk(v)


@pytest.mark.parametrize("name, kind", sorted(PINNED_PROOFS))
def test_template_proof_text_is_pinned(name, kind):
    p = ti_proof_template(kind, PINNED_FORMULAS[name],
                          W_W if kind == "lim" else None, var="x")
    assert _sha(print_proof(p)) == PINNED_PROOFS[name, kind]


@pytest.mark.parametrize("name, prim", sorted(PINNED_REALISERS))
def test_template_primitive_code_is_pinned(name, prim):
    a_code = godel(PINNED_FORMULAS[name])
    pid, arg = {
        "ti0": (ordinals.PID_TI0, a_code),
        "tisuc": (ordinals.PID_TISUC, vpair(a_code, ocode(W))),
        "tiomega": (ordinals.PID_TIOMEGA, vpair(a_code, ocode(W))),
        "tilim": (ordinals.PID_TILIM, vpair(a_code, ocode(W_W))),
        "tidirect": (ordinals.PID_TIDIRECT, vpair(a_code, ocode(W_W))),
    }[prim]
    r = ordinal_kernel().apply(encode(Lam(Prim(pid, Var(0)))), arg, 10**7)
    assert isinstance(r, Value), r
    assert _code_digest(r.n) == PINNED_REALISERS[name, prim]


def test_templates_accept_jumped_formulas():
    jumped = jump_formula(A_REFL, "x")
    j_x = subst(jumped, "oj", TVar("x"))
    p = ti_proof_template("suc", j_x, var="x")
    check_proof(p)


def test_zero_template_realises():
    p = ti_proof_template("zero", A_REFL, var="x")
    _, e = extract_value(p, K)
    v = realises(e, build_TI(A_REFL, O_ZERO, "x"), POLE, B, K,
                 random.Random(2))
    assert v.verdict.kind != OUT


def test_templates_take_unfolded_successor_numerals():
    # a decoded code keeps (s 0) where subst, building the template,
    # folds it to 1
    a = Imp(Eq(TVar("x"), TVar("x")),
            All("x", Eq(Fn("s", (Num(0),)), Fn("s", (Num(0),)))))
    assert ungodel(godel(a)) == a
    for kind in ("zero", "suc"):
        check_proof(ti_proof_template(kind, a, var="x"))
    r = K.apply(wo_realiser(onat(1), K), godel(a), 10**7)
    assert isinstance(r, Value), r


_TISUC = encode(Lam(Prim(PID_TISUC, Var(0))))


def _tisuc(kernel, a_code, alpha):
    r = kernel.apply(_TISUC, vpair(a_code, ocode(alpha)), 10**6)
    assert isinstance(r, Value), r
    return r.n


def _counting_extractions(monkeypatch, fail_first=False):
    calls = []

    def counting(p, kernel, fuel=10**7, assignment=None):
        calls.append(p)
        if fail_first and len(calls) == 1:
            raise ExtractionError("first extraction fails")
        return extract_value(p, kernel, fuel, assignment)

    monkeypatch.setattr(ordinals, "extract_value", counting)
    return calls


def test_template_memo_extracts_once_per_kernel(monkeypatch):
    calls = _counting_extractions(monkeypatch)
    k = ordinal_kernel()
    got = [_tisuc(k, A_CODE, alpha) for alpha in (onat(1), W)]
    assert len(calls) == 1
    _, univ = extract_value(ti_proof_template("suc", A_REFL, var="x"),
                            ordinal_kernel())
    for alpha, g in zip((onat(1), W), got):
        want = _app(combinator("s"), vpair(univ, ocode(alpha)))
        assert g == want
    # a fresh kernel starts with an empty memo
    _tisuc(ordinal_kernel(), A_CODE, W)
    assert len(calls) == 2


def test_template_memo_takes_large_numerals(monkeypatch):
    calls = _counting_extractions(monkeypatch)
    a = Imp(Eq(TVar("x"), Num(vpair(2**70, 3))), A_REFL)
    code = godel(a)
    assert isinstance(ungodel(code).a.r.n, PV)
    k = ordinal_kernel()
    first = _tisuc(k, code, onat(2))
    assert _tisuc(k, code, onat(2)) == first
    assert len(calls) == 1


def test_template_memo_tells_formulas_apart(monkeypatch):
    calls = _counting_extractions(monkeypatch)
    k = ordinal_kernel()
    codes = [A_CODE, godel(parse_formula("(= (s x) (s x))"))]
    codes += [godel(Imp(Eq(TVar("x"), Num(vpair(2**70, n))), A_REFL))
              for n in (3, 4)]
    for code in codes + codes:
        _tisuc(k, code, W)
    assert len(calls) == len(codes)


def test_template_memo_keeps_no_failure(monkeypatch):
    calls = _counting_extractions(monkeypatch, fail_first=True)
    k = ordinal_kernel()
    with pytest.raises(ExtractionError):
        _tisuc(k, A_CODE, W)
    _tisuc(k, A_CODE, W)
    assert len(calls) == 2


def _kept_templates(k):
    """The formula codes of the templates k's memo keeps."""
    return {key[2] for key in kept_by(k, ordinals._realiser)}


def test_template_memo_keeps_its_bound(monkeypatch):
    calls = _counting_extractions(monkeypatch)
    monkeypatch.setattr(vm, "MEMO_SIZE", 3)
    k = ordinal_kernel()
    codes = [godel(Imp(Eq(TVar("x"), Num(n)), A_REFL)) for n in range(4)]
    for code in codes:
        _tisuc(k, code, W)
        # the templates share the one bound with the kernel's closures
        assert len(k.facts) <= 3 and code in _kept_templates(k)
    assert len(calls) == 4
    # the memo was emptied on the way: the newest template is kept, the
    # first is extracted again
    assert codes[0] not in _kept_templates(k)
    _tisuc(k, codes[3], W)
    assert len(calls) == 4
    _tisuc(k, codes[0], W)
    assert len(calls) == 5


# The notations and formulas of the `ti` benchmark universe: its queries
# are `realis ti realise ALPHA --formula A --pole generated:0,3,8`.
BENCH_ALPHAS = ("0", "1", "2", "3", "5", "8", "w", "w+1", "w+3", "w*2",
                "w*3+2", "w^2", "w^2+w", "w^3", "w^w", "e[0]", "e[0]+1",
                "e[1]")
BENCH_FORMULAS = (
    "(= x x)", "(= (s x) (s x))", "(= (+ x 1) (+ x 1))",
    "(= (* x 2) (* x 2))", "(imp (= x 0) (= x x))",
    "(imp (= x x) (= x x))", "(imp (= x 1) (= (s x) (s x)))",
    "(imp (= 0 1) (= x x))", "(all y (= (+ x y) (+ x y)))",
    "(all y (= (* x y) (* x y)))", "(all y (= (+ y x) (+ y x)))",
    "(all y (imp (= y 0) (= x x)))")


def test_template_realisers_are_fresh_extractions(monkeypatch):
    # every template the ti benchmark universe extracts, in the kernel of
    # its query, has the realiser a fresh kernel extracts from it
    made = []

    def recording(p, kernel, fuel=10**7, assignment=None):
        c, r = extract_value(p, kernel, fuel, assignment)
        made.append((p, r))
        return c, r

    monkeypatch.setattr(ordinals, "extract_value", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        for alpha, a in itertools.product(BENCH_ALPHAS, BENCH_FORMULAS):
            assert cli.main(["ti", "realise", alpha, "--formula", a,
                             "--pole", "generated:0,3,8"]) == 0
    assert len(made) > len(BENCH_ALPHAS) * len(BENCH_FORMULAS)
    for p, r in made:
        assert r == extract_value(p, fresh_kernel())[1]


# ---------------------------------------------------------------------------
# Well-ordering combinators

def _app(code, arg, fuel=10**7):
    r = K.apply(code, arg, fuel)
    assert isinstance(r, Value), r
    return r.n


def test_wo_combinator_names():
    seen = []
    for name in ("k0", "k_suc", "k_omega", "k_lim", "k_eps0",
                 "k_epssuc", "k_eps"):
        c = wo_combinator(name)
        assert not any(c == o for o in seen)
        seen.append(c)
    with pytest.raises(ValueError):
        wo_combinator("k_up")


def test_k0_clause():
    _, want = extract_value(ti_proof_template("zero", A_REFL, var="x"), K)
    assert _app(wo_combinator("k0"), A_CODE) == want


def test_ksuc_clause():
    # (k_suc . <e, alpha>) . |A| = i . <step@alpha, e . |A|>
    from realisability.extraction import combinator
    e0 = wo_combinator("k0")
    alpha = ocode(O_ZERO)
    lhs = _app(_app(wo_combinator("k_suc"), vpair(e0, alpha)), A_CODE)
    _, univ = extract_value(ti_proof_template("suc", A_REFL, var="x"), K)
    step = _app(combinator("s"), vpair(univ, alpha))
    rhs = _app(combinator("i"), vpair(step, _app(e0, A_CODE)))
    assert lhs == rhs


def test_keps0_is_a_lim_package():
    # k_eps0 . |A| = (k_lim . <seq, eps0>) . |A| where seq iterates
    # k_suc then k_omega along the tower sequence
    lhs = _app(wo_combinator("k_eps0"), A_CODE)
    # independently rebuild: wo_realiser routes eps0 through k_eps
    e = wo_realiser(EPS0, K)
    rhs = _app(e, A_CODE)
    assert lhs == rhs


def test_wo_realiser_structure_cases():
    # zero is the bare k0 code
    assert wo_realiser(O_ZERO, K) == wo_combinator("k0")
    # successor goes through k_suc
    e1 = wo_realiser(onat(1), K)
    assert e1 == _app(wo_combinator("k_suc"), vpair(wo_combinator("k0"), 0))


def _wo_realiser_by_encoding(alpha, kernel):
    """wo_realiser as it was when it encoded each limit's sequence and
    the kernel decoded it again: the reference for the codes."""
    def app(code, arg):
        r = kernel.apply(code, arg, 10**7)
        if not isinstance(r, Value):
            raise StuckError()
        return r.n

    if isinstance(alpha, CnfSum) and len(alpha.terms) == 1 \
            and isinstance(alpha.terms[0][0], Eps) \
            and alpha.terms[0][1] == 1:
        return app(wo_combinator("k_eps"), ocode(alpha.terms[0][0].sub))
    k = classify(alpha)
    if isinstance(k, ZeroC):
        return wo_combinator("k0")
    if isinstance(k, SucC):
        return app(wo_combinator("k_suc"),
                   vpair(_wo_realiser_by_encoding(k.pred, kernel),
                         ocode(k.pred)))
    if len(alpha.terms) == 1 and alpha.terms[0][1] == 1:
        e = alpha.terms[0][0]
        return app(wo_combinator("k_omega"),
                   vpair(_wo_realiser_by_encoding(e, kernel), ocode(e)))
    seq = encode(Lam(Prim(PID_WO, Prim(PID_ORDFS,
                                       Pair(Lit(ocode(alpha)), Var(0))))))
    return app(wo_combinator("k_lim"), vpair(seq, ocode(alpha)))


def test_wo_realiser_codes_match_the_encoding_reference():
    for text in BENCH_ALPHAS:
        alpha = parse_ord(text)
        got = wo_realiser(alpha, ordinal_kernel())
        assert got == _wo_realiser_by_encoding(alpha, ordinal_kernel()), text


ALPHAS = [O_ZERO, onat(1), onat(2), W, CnfSum(((onat(1), 2),)),
          omega_pow(onat(2)), omega_pow(W)]


def test_wo_realisers_realise_ti():
    rng = random.Random(9)
    for alpha in ALPHAS:
        e = wo_realiser(alpha, K)
        r = _app(e, A_CODE)
        goal = build_TI(A_REFL, alpha, "x")
        v = realises(r, goal, POLE, B, K, rng)
        assert v.verdict.kind != OUT, (print_ord(alpha), v)


def test_wo_realisers_epsilon_family():
    rng = random.Random(10)
    for alpha in (EPS0, eps(onat(1)), eps(W), add(W, onat(2))):
        e = wo_realiser(alpha, K)
        r = _app(e, A_CODE)
        v = realises(r, build_TI(A_REFL, alpha, "x"), POLE, B, K, rng)
        assert v.verdict.kind != OUT, print_ord(alpha)


def test_klim_below_branches():
    # peel the packaged realiser apart and drive the bounded-universal
    # responder on both sides of the ordlt test
    from realisability.semantics import certified_realiser
    seq = wo_realiser(W, K)  # any e with the right shape for the pair
    packaged = _app(_app(wo_combinator("k_lim"),
                         vpair(seq, ocode(CnfSum(((onat(1), 2),))))),
                    A_CODE)
    m_pole = 3  # a seed element
    applied = _app(packaged, m_pole)
    _lim_inst, rest = (lambda v: __import__(
        "realisability.vm", fromlist=["vunpair"]).vunpair(v))(applied)
    from realisability.vm import vunpair
    below, _m = vunpair(rest)
    r_lt = certified_realiser(Eq(Num(0), Num(0)), POLE, B, K)
    # beta = omega < omega*2: the responder answers with a direct
    # realiser of TI(A, beta) paired with the tail refuter
    prog_r = certified_realiser(build_Prog(A_REFL, "x"), POLE, B, K)
    q_less = vpair(ocode(W), vpair(r_lt, vpair(prog_r, m_pole)))
    ans = _app(below, q_less)
    direct, tail = vunpair(ans)
    assert member(vpair(direct, tail), POLE, 10**6, K).kind != OUT
    # beta = omega*2 is not below omega*2: the saved refuter of the
    # false bound comes back with a dummy tail
    q_geq = vpair(ocode(CnfSum(((onat(1), 2),))), vpair(r_lt, 0))
    ans2 = vunpair(_app(below, q_geq))
    assert ans2[0] == r_lt and ans2[1] == 0


def _closed_over(fn) -> list:
    """The values fn's closure holds, and theirs, through every function
    it holds."""
    out, todo, seen = [], [fn], set()
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for cell in getattr(f, "__closure__", None) or ():
            v = cell.cell_contents
            out.append(v)
            if callable(v) and not isinstance(v, type):
                todo.append(v)
    return out


def test_no_primitive_closes_over_a_kernel():
    k = ordinal_kernel()
    assert len(k._prims) == 15
    for pid, (fn, cost) in k._prims.items():
        for v in _closed_over(fn) + _closed_over(cost):
            assert type(v) not in (Kernel, weakref.ProxyType,
                                   weakref.CallableProxyType,
                                   weakref.ReferenceType), (pid, v)


def test_kernels_are_freed_without_the_cyclic_collector(monkeypatch):
    made = []

    def recording_kernel():
        k = ordinal_kernel()
        made.append(weakref.ref(k))
        return k

    monkeypatch.setattr(cli, "ordinal_kernel", recording_kernel)
    enabled = gc.isenabled()
    gc.disable()
    try:
        k = ordinal_kernel()
        # the primitives run and fill the template memo
        assert isinstance(k.apply(wo_realiser(W, k), A_CODE, 10**7), Value)
        ref = weakref.ref(k)
        del k
        assert ref() is None
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["ti", "realise", "w+1", "--formula",
                             "(= x x)", "--pole", "generated:0,3,8"]) == 0
        assert len(made) == 1 and made[0]() is None
    finally:
        if enabled:
            gc.enable()
