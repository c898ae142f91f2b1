"""Each axiom schema is written once, as its constructor: the checker
recognises an axiom it reads by rebuilding it from the metavariables it
projects from it, and an axiom a constructor builds carries its check
record from birth.

The recognisers below, one shape test per schema, are the ones the
checker had before.  They are the oracle of a differential: neither a
rebuild nor a record may accept what they reject, and a rejection keeps
their error text and path."""

import random
from contextlib import contextmanager

import pytest

from realisability import extraction
from realisability.extraction import (
    Axiom, Gen, MP, ProofError, alpha_eq, ax_defining, ax_exfalso,
    ax_induction, ax_k, ax_peirce, ax_s, ax_univdist, check_proof,
    parse_proof, print_proof, prove_plus,
)
from realisability.notation import parse_ord
from realisability.ordinals import jump_formula, ti_proof_template
from realisability.syntax import (
    All, Eq, Fn, Imp, InPole, Num, ParseError, TVar, ZERO, bot, free_vars,
    parse_formula, print_formula, subst, suc_t,
)
from test_syntax import PROOF_DIR

ORACLE_KINDS = ("k", "s", "peirce", "exfalso", "univinst", "univdist",
                "refleq", "leibniz", "defining", "induction")


def _schema_error(kind, f, path):
    return ProofError("formula %s does not match the %s schema"
                      % (print_formula(f), kind), path)


def oracle_check_axiom(ax, path):
    kind, f, data = ax.kind, ax.formula, ax.data
    if kind not in ORACLE_KINDS:
        raise ProofError("unknown axiom kind %r" % kind, path)
    if kind == "k":
        if not (isinstance(f, Imp) and isinstance(f.b, Imp)
                and alpha_eq(f.a, f.b.b)):
            raise _schema_error(kind, f, path)
    elif kind == "s":
        ok = (isinstance(f, Imp) and isinstance(f.a, Imp)
              and isinstance(f.a.b, Imp) and isinstance(f.b, Imp)
              and isinstance(f.b.a, Imp) and isinstance(f.b.b, Imp))
        if ok:
            a, b, c = f.a.a, f.a.b.a, f.a.b.b
            ok = (alpha_eq(f.b.a.a, a) and alpha_eq(f.b.a.b, b)
                  and alpha_eq(f.b.b.a, a) and alpha_eq(f.b.b.b, c))
        if not ok:
            raise _schema_error(kind, f, path)
    elif kind == "peirce":
        ok = (isinstance(f, Imp) and isinstance(f.a, Imp)
              and isinstance(f.a.a, Imp))
        if not (ok and alpha_eq(f.a.b, f.b)
                and alpha_eq(f.a.a.a, f.b)):
            raise _schema_error(kind, f, path)
    elif kind == "exfalso":
        if not (isinstance(f, Imp) and f.a == bot()):
            raise _schema_error(kind, f, path)
    elif kind == "refleq":
        if not (isinstance(f, Eq) and f.l == f.r):
            raise _schema_error(kind, f, path)
    elif kind == "univinst":
        if len(data) != 1:
            raise ProofError("univinst needs the instantiating term", path)
        t = data[0]
        if not (isinstance(f, Imp) and isinstance(f.a, All)
                and alpha_eq(f.b, subst(f.a.body, f.a.var, t))):
            raise _schema_error(kind, f, path)
    elif kind == "univdist":
        ok = (isinstance(f, Imp) and isinstance(f.a, All)
              and isinstance(f.a.body, Imp) and isinstance(f.b, Imp)
              and isinstance(f.b.b, All))
        if ok:
            x, a, b = f.a.var, f.a.body.a, f.a.body.b
            ok = (alpha_eq(f.b.a, a) and x not in free_vars(a)
                  and alpha_eq(f.b.b, All(x, b)))
        if not ok:
            raise _schema_error(kind, f, path)
    elif kind == "leibniz":
        if len(data) != 2:
            raise ProofError("leibniz needs (variable, template)", path)
        x, template = data
        ok = (isinstance(f, Imp) and isinstance(f.a, Eq)
              and isinstance(f.b, Imp))
        if ok:
            s, t = f.a.l, f.a.r
            ok = (alpha_eq(f.b.a, subst(template, x, s))
                  and alpha_eq(f.b.b, subst(template, x, t)))
        if not ok:
            raise _schema_error(kind, f, path)
    elif kind == "defining":
        if not any(alpha_eq(f, d) for d in extraction._DEFINING):
            raise ProofError("%s is not a registered defining axiom"
                             % print_formula(f), path)
    elif kind == "induction":
        ok = (isinstance(f, Imp) and isinstance(f.b, Imp)
              and isinstance(f.b.a, All) and isinstance(f.b.a.body, Imp)
              and isinstance(f.b.b, All))
        if ok:
            x = f.b.a.var
            a = f.b.a.body.a
            ok = (alpha_eq(f.a, subst(a, x, ZERO))
                  and alpha_eq(f.b.a.body.b, subst(a, x, suc_t(TVar(x))))
                  and alpha_eq(f.b.b, All(x, a)))
        if not ok:
            raise _schema_error(kind, f, path)


# ---------------------------------------------------------------------------
# Helpers

def _axioms(p):
    """The axiom nodes of p, each once, in a walk that visits every
    shared node once."""
    seen, out, todo = set(), [], [p]
    while todo:
        n = todo.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, Axiom):
            out.append(n)
        elif isinstance(n, MP):
            todo += [n.major, n.minor]
        elif isinstance(n, Gen):
            todo.append(n.sub)
    return out


def _recognised(check_axiom, ax):
    """What check_axiom says of an unchecked copy of ax."""
    try:
        check_axiom(Axiom(ax.kind, ax.formula, ax.data), "/at")
    except ProofError as exc:
        return "error", str(exc), exc.path
    except TypeError:
        return "TypeError"
    return "ok"


def _same_recognition(ax):
    want = _recognised(oracle_check_axiom, ax)
    assert _recognised(extraction._check_axiom, ax) == want
    if getattr(ax, "_checked", None) is not None:
        # a record from birth vouches only for what the oracle accepts
        assert want == "ok" and ax._checked == (ax.formula, ())
    return want


@contextmanager
def _recognising_with(check_axiom):
    """The checker, in the block, with check_axiom as its recogniser."""
    real = extraction._check_axiom
    extraction._check_axiom = check_axiom
    try:
        yield
    finally:
        extraction._check_axiom = real


@contextmanager
def _recognitions():
    """The kinds of the axioms the checker recognises in the block."""
    real, kinds = extraction._check_axiom, []

    def counted(ax, path):
        kinds.append(ax.kind)
        return real(ax, path)

    with _recognising_with(counted):
        yield kinds


def _outcomes(text):
    """The whole-proof verdict on text, without and with hypotheses."""
    p = parse_proof(text)
    out = []
    for allow in (False, True):
        try:
            out.append(("ok", print_formula(check_proof(p, allow))))
        except ProofError as exc:
            out.append(("error", str(exc), exc.path))
    return out


def _same_verdicts(text):
    got = _outcomes(text)
    with _recognising_with(oracle_check_axiom):
        assert got == _outcomes(text)
    return got


SHIPPED = sorted(PROOF_DIR.glob("*.sexp"))


# ---------------------------------------------------------------------------
# The differential

def test_shipped_proofs_are_recognised_as_the_oracle_does():
    assert len(SHIPPED) == 24
    kinds = set()
    for path in SHIPPED:
        text = path.read_text()
        for ax in _axioms(parse_proof(text)):
            assert _same_recognition(ax) == "ok"
            kinds.add(ax.kind)
        assert _same_verdicts(text)[0][0] == "ok"
    assert kinds == set(ORACLE_KINDS)


def test_plus_proofs_built_and_read_are_recognised_as_the_oracle_does():
    for m in range(12):
        for n in range(12):
            with _recognitions() as kinds:
                p = prove_plus(m, n)
                check_proof(p)
            # the constructors' instances need no recognition
            assert set(kinds) == {"defining"}
            built = _axioms(p)
            text = print_proof(p)
            for ax in built + _axioms(parse_proof(text)):
                assert _same_recognition(ax) == "ok"
            assert _same_verdicts(text)[0] == (
                "ok", "(= (+ %d %d) %d)" % (m, n, m + n))


TI_FORMULAS = ("(= x x)", "(imp (= x 0) (= x x))", "(imp (= 0 1) (= x x))",
               "(all y (= (+ x y) (+ x y)))", "(= (s x) (s x))")


@pytest.mark.parametrize("text", TI_FORMULAS)
def test_ti_templates_are_recognised_as_the_oracle_does(text):
    a = parse_formula(text)
    with _recognitions() as kinds:
        proofs = [ti_proof_template(kind, a, var="x")
                  for kind in ("zero", "suc", "omega")]
        proofs += [ti_proof_template("lim", a, parse_ord(alpha), var="x")
                   for alpha in ("w", "w^2", "w^w", "e[0]")]
        proofs += [ti_proof_template("zero", jump_formula(a, "x"),
                                     var="oj")]
        for p in proofs:
            check_proof(p)
    assert set(kinds) == {"defining"}
    for p in proofs:
        for ax in _axioms(p):
            assert _same_recognition(ax) == "ok"
        c = print_formula(check_proof(p))
        assert _same_verdicts(print_proof(p)) == [("ok", c)] * 2


def _tokens(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _mutant(toks, rng):
    """toks with one seeded change to a word (a token other than a
    bracket): replaced by another word of the same text or, for a
    numeral, by its neighbour, swapped with another word, or, for the
    head of an axiom, made the head of a hypothesis."""
    toks = list(toks)
    words = [i for i, t in enumerate(toks) if t not in "()"]
    i, j = rng.choice(words), rng.choice(words)
    how = rng.randrange(4)
    if how == 0:
        toks[i] = toks[j]
    elif how == 1 and toks[i].isdigit():
        toks[i] = str(max(0, int(toks[i]) + rng.choice((-1, 1))))
    elif how == 2 and "ax" in toks:
        i = rng.choice([i for i in words if toks[i] == "ax"])
        toks[i:i + 2] = ["hyp"]
    else:
        toks[i], toks[j] = toks[j], toks[i]
    return " ".join(toks)


def test_token_mutants_get_the_oracles_verdicts():
    rng = random.Random(20261020)
    texts = [_tokens(path.read_text()) for path in SHIPPED]
    verdicts = {}
    for _ in range(6000):
        text = _mutant(rng.choice(texts), rng)
        if text in verdicts:
            continue
        try:
            p = parse_proof(text)
        except ParseError:
            continue
        for ax in _axioms(p):
            _same_recognition(ax)
        verdicts[text] = _same_verdicts(text)
    labels = {v[0] if v[0] == "ok" else v[1].split(" ")[0]
              for vs in verdicts.values() for v in vs}
    # the mutants reach acceptance and each kind of rejection
    assert len(verdicts) > 400
    assert labels >= {"ok", "formula", "modus", "undischarged",
                      "generalised"}


# ---------------------------------------------------------------------------
# Pinned cases

def test_an_induction_step_with_a_raw_successor_is_rejected():
    # the schema's step holds the numeral 3 where this one holds (s 2):
    # under the binder alpha_eq matches them, outside it they differ
    a = Eq(TVar("x"), Fn("s", (Num(2),)))
    step = All("x", Imp(a, Eq(Fn("s", (TVar("x"),)), Fn("s", (Num(2),)))))
    f = Imp(subst(a, "x", ZERO), Imp(step, All("x", a)))
    assert alpha_eq(f, ax_induction("x", a).formula)
    ax = Axiom("induction", f)
    assert _same_recognition(ax)[0] == "error"
    with pytest.raises(ProofError, match="does not match the induction"):
        check_proof(ax)


def test_a_univdist_whose_variable_is_free_in_a_is_rejected():
    ax = ax_univdist("x", parse_formula("(= x 0)"), parse_formula("(= x x)"))
    assert not hasattr(ax, "_checked")
    with pytest.raises(ProofError, match="does not match the univdist"):
        check_proof(ax)


def test_an_unregistered_defining_axiom_is_rejected():
    ax = ax_defining(parse_formula("(all x (= x 0))"))
    assert not hasattr(ax, "_checked")
    with pytest.raises(ProofError, match="is not a registered defining"):
        check_proof(ax)


@pytest.mark.parametrize("build", [
    lambda p, e: ax_k(p, e), lambda p, e: ax_k(e, p),
    lambda p, e: ax_peirce(e, p), lambda p, e: ax_s(e, p, e),
    lambda p, e: ax_exfalso(p), lambda p, e: Axiom("exfalso", Imp(p, e)),
])
def test_an_axiom_with_atoms_raises_type_error_when_checked(build):
    # the checker reads base formulas only; the oracle let an atom pass
    # where it never compared it (k's and peirce's B, exfalso's A)
    ax = build(InPole(Num(0)), Eq(Num(0), Num(0)))
    assert not hasattr(ax, "_checked")
    with pytest.raises(TypeError):
        check_proof(ax)
