"""Hilbert-style proofs over arithmetic and program extraction.

A proof is a tree of axiom instances, modus ponens, and generalisation
nodes (plus hypothesis leaves used only while building derivations; the
deduction helper discharges them).  Every checked proof of A yields a
program code e such that e applied to the iterated pair of the values
of A's free variables realises the corresponding closed instance of A,
relative to any pole.  Each axiom schema has a fixed realiser program;
modus ponens composes with the application combinator and
generalisation abstracts over the environment.

Proof nodes are checked once per object, as in LCF: the first successful
check of a node keeps its conclusion and open hypotheses on the node,
and every later check of a tree that contains it, such as the builders'
``conclusion`` calls and the final check in ``extract_value``, reads
them from there.  Proof and formula nodes are plain records
(``_record.record``, which spares every command the dataclasses import:
``import realisability.cli`` went 35 → 16 ms) that are never assigned a
field after they are built, so a check record kept on a node describes
it for as long as it lives.
"""

from __future__ import annotations

from typing import Optional, Union

from ._record import record
from .syntax import (
    All, ATerm, Eq, Fn, Formula, Imp, Num, TVar, ZERO, _CLOSE, _Misread,
    _is_base, _read, _name_code, _name_decode, _parse_base_formula,
    _parse_term, _parse_var, bot, free_vars, fresh_var, godel_term,
    parse_formula, print_formula, print_term, subst, subst_term, suc_t,
    term_vars, ungodel_term, eval_term,
)
from .vm import (
    App, Fix, IfZ, Kernel, Lam, Lit, Nat, Pair, Pred, Prim, Program, Proj0,
    Proj1, StuckError, Value, Var, _remember, encode, vpair, vunpair,
)


# ---------------------------------------------------------------------------
# Combinators

# application: i . <a, b> = \x. <a, <b, x>>; specialisation
# s . <a, n> = \c. <a, <n, c>> is the same program
_I = Lam(Lam(Pair(Proj0(Var(1)), Pair(Proj1(Var(1)), Var(0)))))
# generalisation: u . a = \x. <a . (x)0, (x)1>
_U = Lam(Lam(Pair(App(Var(1), Proj0(Var(0))), Proj1(Var(0)))))
# continuation constant: k_pi . a = \b. <(b)0, a>
_KPI = Lam(Lam(Pair(Proj0(Var(0)), Var(1))))

_I_CODE = encode(_I)
_U_CODE = encode(_U)
_KPI_CODE = encode(_KPI)

# encoded once, so a code keeps the closure the kernel decodes from it;
# k_bot is the discard constant k_bot . a = \b. a
_COMBINATORS = {"i": _I_CODE, "s": _I_CODE, "u": _U_CODE, "k_pi": _KPI_CODE,
                "k_bot": encode(Lam(Lam(Var(1))))}


def combinator(name: str) -> Nat:
    """Code of one of the fixed combinators i, u, s, k_pi, k_bot."""
    if name not in _COMBINATORS:
        raise ValueError("unknown combinator %r" % name)
    return _COMBINATORS[name]


# ---------------------------------------------------------------------------
# Registered primitives (term evaluation inside extracted programs)

PID_EVALTERM = 1
PID_EQCHECK = 2


def _ctx_names(ctx_code: Nat) -> Optional[list]:
    """The variable names a context code lists, or None when one of its
    entries codes no name."""
    names = []
    while ctx_code != 0:
        nc, ctx_code = vunpair(ctx_code)
        name = _name_decode(nc)
        if name is None:
            return None
        names.append(name)
    return names


def _decoded(memo: dict, decode, c: Nat):
    """decode(c), kept in memo by vm._remember; a code that decodes to
    None makes the run stuck, each time it is met."""
    out = memo[c] if c in memo else _remember(memo, c, decode(c))
    if out is None:
        raise StuckError()
    return out


def fresh_kernel() -> Kernel:
    """A kernel with the primitives extracted programs rely on.

    An extracted program passes the same few term and context codes on
    every call, so the primitives keep, per kernel, the term each term
    code decodes to and the names each context code lists."""
    terms: dict = {}
    contexts: dict = {}

    def env_of(cc: Nat, env: Nat) -> dict:
        out = {}
        for name in _decoded(contexts, _ctx_names, cc):
            v, env = vunpair(env)
            out[name] = v
        return out

    def p_evalterm(v: Nat) -> Nat:
        tc, rest = vunpair(v)
        cc, env = vunpair(rest)
        t = _decoded(terms, ungodel_term, tc)
        try:
            return eval_term(t, env_of(cc, env))
        except (ValueError, TypeError):
            raise StuckError()

    def p_eqcheck(v: Nat) -> Nat:
        sc, rest = vunpair(v)
        tc, rest2 = vunpair(rest)
        cc, env = vunpair(rest2)
        s = _decoded(terms, ungodel_term, sc)
        t = _decoded(terms, ungodel_term, tc)
        try:
            envd = env_of(cc, env)
            return 0 if eval_term(s, envd) == eval_term(t, envd) else 1
        except (ValueError, TypeError):
            raise StuckError()

    kernel = Kernel()
    kernel.register_primitive(PID_EVALTERM, p_evalterm, cost=lambda _v: 4)
    kernel.register_primitive(PID_EQCHECK, p_eqcheck, cost=lambda _v: 4)
    return kernel


# ---------------------------------------------------------------------------
# Proof trees

@record
class Axiom:
    kind: str
    formula: Formula
    data: tuple = ()


@record
class MP:
    major: "Proof"
    minor: "Proof"


@record
class Gen:
    var: str
    sub: "Proof"


@record
class Hyp:
    formula: Formula


Proof = Union[Axiom, MP, Gen, Hyp]

AXIOM_KINDS = ("k", "s", "peirce", "exfalso", "univinst", "univdist",
               "refleq", "leibniz", "defining", "induction")


class ProofError(ValueError):
    def __init__(self, message: str, path: str):
        super().__init__("%s (at %s)" % (message, path or "root"))
        self.path = path


# ---------------------------------------------------------------------------
# Alpha equivalence

# The walk dispatches on the exact class of each node: no node class has
# a subclass, and type identity is cheaper than isinstance.
def _alpha_term(s: ATerm, t: ATerm, da: dict, db: dict) -> bool:
    ts, tt = type(s), type(t)
    if ts is TVar:
        if tt is not TVar:
            return False
        i, j = da.get(s.name), db.get(t.name)
        return i == j and (i is not None or s.name == t.name)
    if da:
        # under a binder (da is not empty) a successor matches the
        # numeral one bigger, as subst folds (s n) to n+1 in the
        # instances the schemas are checked against
        if ts is Fn and tt is Num and s.name == "s":
            return (isinstance(t.n, int)
                    and _alpha_term(s.args[0], Num(t.n - 1), da, db))
        if ts is Num and tt is Fn and t.name == "s":
            return (isinstance(s.n, int)
                    and _alpha_term(Num(s.n - 1), t.args[0], da, db))
    if ts is not tt:
        return False
    if ts is Num:
        return s.n == t.n
    if ts is Fn:
        if s.name != t.name or len(s.args) != len(t.args):
            return False
        for u, v in zip(s.args, t.args):
            if not _alpha_term(u, v, da, db):
                return False
        return True
    raise TypeError(s)


def _alpha(a: Formula, b: Formula, da: dict, db: dict, depth: int) -> bool:
    # da/db map each bound name to the depth of its innermost binder
    if a is b and da == db and _is_base(a):
        # the same base formula on both sides, under binders that bind
        # the same names at the same depths: the walk would meet only
        # equal pairs
        return True
    ta, tb = type(a), type(b)
    if ta is not Eq and ta is not Imp and ta is not All:
        raise TypeError(a)
    if tb is not Eq and tb is not Imp and tb is not All:
        raise TypeError(b)
    if ta is not tb:
        return False
    if ta is Eq:
        return (_alpha_term(a.l, b.l, da, db)
                and _alpha_term(a.r, b.r, da, db))
    if ta is Imp:
        return (_alpha(a.a, b.a, da, db, depth)
                and _alpha(a.b, b.b, da, db, depth))
    x, y = a.var, b.var
    outer_x, outer_y = da.get(x), db.get(y)
    da[x] = db[y] = depth
    out = _alpha(a.body, b.body, da, db, depth + 1)
    for d, name, outer in ((da, x, outer_x), (db, y, outer_y)):
        if outer is None:
            del d[name]
        else:
            d[name] = outer
    return out


def alpha_eq(a: Formula, b: Formula) -> bool:
    """Whether a and b differ only in the names of bound variables.

    One walk over both formulas, linear in their size: a bound variable
    matches only the variable bound at the same binder depth on the
    other side, and free variables match by name (de Bruijn's nameless
    comparison, without building the nameless formulas).  Under a
    binder, (s n) matches the numeral n+1.  Raises TypeError on a node
    outside the base grammar.

    A subformula met on both sides as the same object, under binders
    that bind the same names at the same depths on both sides, is not
    walked when it is a base formula: most comparisons the checker
    makes are of such formulas.  Whether a formula is a base formula is
    found once and kept on it as its _base flag; a walk that answers
    True has reached every leaf of both sides or found them base, so it
    flags both."""
    if a is b and _is_base(a):
        return True
    if not _alpha(a, b, {}, {}, 0):
        return False
    a._base = b._base = True
    return True


# ---------------------------------------------------------------------------
# Defining axioms (universal closures of true defining equations)

_DEFINING: list = [parse_formula(s) for s in (
    "(all x (= (+ x 0) x))",
    "(all x (all y (= (+ x (s y)) (s (+ x y)))))",
    "(all x (= (* x 0) 0))",
    "(all x (all y (= (* x (s y)) (+ (* x y) x))))",
    "(all x (all y (= (p0 (pair x y)) x)))",
    "(all x (all y (= (p1 (pair x y)) y)))",
)]


def _strip_alls(a: Formula):
    names = []
    while isinstance(a, All):
        names.append(a.var)
        a = a.body
    return names, a


def register_defining_axiom(a: Formula) -> None:
    """Admit an additional universally closed equation as an axiom.

    The caller is responsible for the equation holding at every
    instance; the realiser for this schema projects straight to the
    refuter's pole component, which is only sound for true equations.
    """
    if free_vars(a):
        raise ValueError("defining axioms must be sentences")
    _, core = _strip_alls(a)
    if not isinstance(core, Eq):
        raise ValueError("defining axioms must be quantified equations")
    if not any(alpha_eq(a, d) for d in _DEFINING):
        _DEFINING.append(a)


def defining_axioms() -> list:
    return list(_DEFINING)


# ---------------------------------------------------------------------------
# Schema checking

def _schema_error(kind: str, f: Formula, path: str) -> ProofError:
    return ProofError("formula %s does not match the %s schema"
                      % (print_formula(f), kind), path)


def _check_axiom(ax: Axiom, path: str) -> None:
    kind, f, data = ax.kind, ax.formula, ax.data
    if kind not in AXIOM_KINDS:
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
        if not any(alpha_eq(f, d) for d in _DEFINING):
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


def _check(p: Proof, path: str, hyps_out: list) -> Formula:
    if isinstance(p, Hyp):
        hyps_out.append((p.formula, path))
        return p.formula
    rec = getattr(p, "_checked", None)
    if rec is not None:
        c, hyps = rec
        for hf, rel in hyps:
            hyps_out.append((hf, path + rel))
        return c
    before = len(hyps_out)
    if isinstance(p, Axiom):
        _check_axiom(p, path)
        c = p.formula
    elif isinstance(p, MP):
        fa = _check(p.major, path + "/mp-major", hyps_out)
        fb = _check(p.minor, path + "/mp-minor", hyps_out)
        if not (isinstance(fa, Imp) and alpha_eq(fa.a, fb)):
            raise ProofError(
                "modus ponens mismatch: major %s, minor %s"
                % (print_formula(fa), print_formula(fb)), path)
        c = fa.b
    elif isinstance(p, Gen):
        fb = _check(p.sub, path + "/gen", hyps_out)
        for hf, hpath in hyps_out[before:]:
            if p.var in free_vars(hf):
                raise ProofError(
                    "generalised variable %s is free in hypothesis %s"
                    % (p.var, print_formula(hf)), path)
        c = All(p.var, fb)
    else:
        raise ProofError("not a proof node: %r" % (p,), path)
    # the check record: the conclusion and the open hypotheses with their
    # paths relative to p.  Only a success is kept, and whether a node
    # checks depends on nothing but the node and _DEFINING, which only
    # grows, so a record never goes stale.
    n = len(path)
    p._checked = (c, tuple(
        (hf, hpath[n:]) for hf, hpath in hyps_out[before:]))
    return c


def check_proof(p: Proof, allow_hypotheses: bool = False) -> Formula:
    """Validate the proof and return its conclusion."""
    hyps: list = []
    c = _check(p, "", hyps)
    if hyps and not allow_hypotheses:
        raise ProofError("undischarged hypothesis %s"
                         % print_formula(hyps[0][0]), hyps[0][1])
    return c


def conclusion(p: Proof) -> Formula:
    return check_proof(p, allow_hypotheses=True)


# ---------------------------------------------------------------------------
# Axiom realiser programs

def _p1n(e: Program, k: int) -> Program:
    for _ in range(k):
        e = Proj1(e)
    return e


_M = Var(0)
_AX_K = Lam(Pair(Proj0(_M), Proj1(Proj1(_M))))
_AX_S = Lam(Pair(
    Proj0(_M),
    Pair(Proj0(Proj1(Proj1(_M))),
         Pair(App(Lit(_I_CODE), Pair(Proj0(Proj1(_M)),
                                     Proj0(Proj1(Proj1(_M))))),
              Proj1(Proj1(Proj1(_M)))))))
_AX_PEIRCE = Lam(Pair(
    App(Lit(_I_CODE), Pair(Proj0(_M), App(Lit(_KPI_CODE), Proj1(_M)))),
    Proj1(_M)))
_AX_EXFALSO = Lam(Pair(Proj0(_M), Lit(0)))
_AX_REFLEQ = Lam(_M)
_AX_UNIVDIST = Lam(Pair(
    Proj0(_M),
    Pair(Proj0(Proj1(Proj1(_M))),
         Pair(Proj0(Proj1(_M)), Proj1(Proj1(Proj1(_M)))))))

# v = value of the instantiating term; m = refuter <g, c>; the first
# component is s . <v, g>, and s is the program i
_UI_MAKER = Lam(Lam(Pair(App(Lit(_I_CODE), Pair(Proj0(Var(0)), Var(1))),
                         Proj1(Var(0)))))
_UI_MAKER_CODE = encode(_UI_MAKER)

# flag = 0 when the two instance terms have equal values
_LEIB_MAKER = Lam(Lam(IfZ(Var(1),
                          Pair(Proj0(Proj1(Var(0))), Proj1(Proj1(Var(0)))),
                          Pair(Proj0(Var(0)), Lit(0)))))
_LEIB_MAKER_CODE = encode(_LEIB_MAKER)

# induction: (k . b) . 0 = (b)0; (k . b) . (n+1) = i.<s.<((b)1)0, n>, (k.b).n>
_K_IND = Lam(Fix(Lam(IfZ(
    Var(0),
    Proj0(Var(2)),
    App(Lit(_I_CODE),
        Pair(App(Lit(_I_CODE), Pair(Proj0(Proj1(Var(2))), Pred(Var(0)))),
             App(Var(1), Pred(Var(0)))))))))
_K_IND_CODE = encode(_K_IND)
_AX_INDUCTION = Lam(Pair(App(Lit(_U_CODE), App(Lit(_K_IND_CODE), _M)),
                         Proj1(Proj1(_M))))

# the closed axiom realisers, encoded once so that each keeps its closure
_AXIOM_CODES = {kind: encode(p) for kind, p in (
    ("k", _AX_K), ("s", _AX_S), ("peirce", _AX_PEIRCE),
    ("exfalso", _AX_EXFALSO), ("refleq", _AX_REFLEQ),
    ("univdist", _AX_UNIVDIST), ("induction", _AX_INDUCTION))}


class ExtractionError(ValueError):
    """No realiser could be built.  When the extracted program's run
    diverged, reason is the kernel's Diverged reason."""

    def __init__(self, message: str, reason: Optional[str] = None):
        super().__init__(message)
        self.reason = reason


def _ctx_code(ctx: list) -> Nat:
    c: Nat = 0
    for name in reversed(ctx):
        c = vpair(_name_code(name), c)
    return c


def env_value(ctx: list, assignment: dict) -> Nat:
    """Iterated pair of the variables' values in context order."""
    v: Nat = 0
    for name in reversed(ctx):
        v = vpair(assignment[name], v)
    return v


def _term_value_expr(t: ATerm, ctx: list) -> Program:
    """Program computing the value of t from the environment (Var 0)."""
    return Prim(PID_EVALTERM,
                Pair(Lit(godel_term(t)), Pair(Lit(_ctx_code(ctx)), Var(0))))


def _axiom_body(ax: Axiom, ctx: list, kernel: Kernel) -> Program:
    """Body (environment free as Var 0) evaluating to the realiser."""
    kind, f = ax.kind, ax.formula
    if kind in _AXIOM_CODES:
        return Lit(_AXIOM_CODES[kind])
    if kind == "defining":
        names, _core = _strip_alls(f)
        return Lit(kernel.code(Lam(_p1n(Var(0), len(names)))))
    if kind == "univinst":
        t = ax.data[0]
        if not term_vars(t) <= set(ctx):
            raise ExtractionError(
                "term %s has variables outside the context" % print_term(t))
        return App(Lit(_UI_MAKER_CODE), _term_value_expr(t, ctx))
    if kind == "leibniz":
        assert isinstance(f, Imp) and isinstance(f.a, Eq)
        s, t = f.a.l, f.a.r
        if not (term_vars(s) | term_vars(t)) <= set(ctx):
            raise ExtractionError("equation terms escape the context")
        flag = Prim(PID_EQCHECK,
                    Pair(Lit(godel_term(s)),
                         Pair(Lit(godel_term(t)),
                              Pair(Lit(_ctx_code(ctx)), Var(0)))))
        return App(Lit(_LEIB_MAKER_CODE), flag)
    raise ExtractionError("no realiser for axiom kind %r" % kind)


def _extract_body(p: Proof, ctx: list, path: str,
                  kernel: Kernel) -> Program:
    if isinstance(p, Hyp):
        raise ExtractionError("cannot extract from a hypothesis at %s"
                              % (path or "root"))
    if isinstance(p, Axiom):
        if not free_vars(p.formula) <= set(ctx):
            raise ExtractionError(
                "free variables of %s are not all in scope at %s"
                % (print_formula(p.formula), path or "root"))
        return _axiom_body(p, ctx, kernel)
    if isinstance(p, MP):
        fa = _extract_body(p.major, ctx, path + "/mp-major", kernel)
        fb = _extract_body(p.minor, ctx, path + "/mp-minor", kernel)
        return App(Lit(_I_CODE), Pair(fa, fb))
    if isinstance(p, Gen):
        child = _extract_body(p.sub, [p.var] + ctx, path + "/gen", kernel)
        child_code = kernel.code(Lam(child))
        # g . w realises the instance at w; u . g realises the universal
        g = Lam(App(Lit(child_code), Pair(Var(0), Var(1))))
        return App(Lit(_U_CODE), g)
    raise TypeError(p)


def extract_value(p: Proof, kernel: Kernel, fuel: int = 10**7,
                  assignment: Optional[dict] = None) -> tuple:
    """Check the proof, run the extracted code on an environment and
    return the conclusion and the realiser."""
    c = check_proof(p)
    ctx = sorted(free_vars(c))
    env = env_value(ctx, assignment or {})
    # the kernel keeps the program as the code's closure, so it runs the
    # program without decoding the code
    code = kernel.code(Lam(_extract_body(p, ctx, "", kernel)))
    r = kernel.apply(code, env, fuel)
    if not isinstance(r, Value):
        raise ExtractionError("extracted program did not evaluate: %s"
                              % r.reason, r.reason)
    return c, r.n


# ---------------------------------------------------------------------------
# Axiom-instance constructors

def ax_k(a: Formula, b: Formula) -> Axiom:
    return Axiom("k", Imp(a, Imp(b, a)))


def ax_s(a: Formula, b: Formula, c: Formula) -> Axiom:
    return Axiom("s", Imp(Imp(a, Imp(b, c)),
                          Imp(Imp(a, b), Imp(a, c))))


def ax_peirce(a: Formula, b: Formula) -> Axiom:
    return Axiom("peirce", Imp(Imp(Imp(a, b), a), a))


def ax_exfalso(a: Formula) -> Axiom:
    return Axiom("exfalso", Imp(bot(), a))


def ax_refleq(t: ATerm) -> Axiom:
    return Axiom("refleq", Eq(t, t))


def ax_univinst(x: str, body: Formula, t: ATerm) -> Axiom:
    return Axiom("univinst", Imp(All(x, body), subst(body, x, t)), (t,))


def ax_univdist(x: str, a: Formula, b: Formula) -> Axiom:
    return Axiom("univdist", Imp(All(x, Imp(a, b)), Imp(a, All(x, b))))


def ax_leibniz(x: str, template: Formula, s: ATerm, t: ATerm) -> Axiom:
    return Axiom("leibniz",
                 Imp(Eq(s, t), Imp(subst(template, x, s),
                                   subst(template, x, t))),
                 (x, template))


def ax_defining(a: Formula) -> Axiom:
    return Axiom("defining", a)


def ax_induction(x: str, a: Formula) -> Axiom:
    return Axiom("induction",
                 Imp(subst(a, x, ZERO),
                     Imp(All(x, Imp(a, subst(a, x, suc_t(TVar(x))))),
                         All(x, a))))


# ---------------------------------------------------------------------------
# Derived rules and the deduction transform

def imp_refl(a: Formula) -> Proof:
    aa = Imp(a, a)
    return MP(MP(ax_s(a, aa, a), ax_k(a, aa)), ax_k(a, a))


def _uses_hyp(p: Proof, h: Formula, known: dict[int, bool]) -> bool:
    """Whether p has a hypothesis alpha-equal to h.  known keeps each
    node's answer by id, so a node is walked once."""
    r = known.get(id(p))
    if r is None:
        if isinstance(p, Hyp):
            r = alpha_eq(p.formula, h)
        elif isinstance(p, MP):
            r = _uses_hyp(p.major, h, known) or _uses_hyp(p.minor, h, known)
        else:
            r = isinstance(p, Gen) and _uses_hyp(p.sub, h, known)
        known[id(p)] = r
    return r


def deduce(h: Formula, p: Proof) -> Proof:
    """Discharge the hypothesis h: from a proof of B using h, a proof
    of h -> B.  Whether a node uses h is decided once per node, so the
    search for h is linear in the size of p."""
    known: dict[int, bool] = {}  # p's nodes, alive for the whole call

    def go(p: Proof) -> Proof:
        if isinstance(p, Hyp) and _uses_hyp(p, h, known):
            return imp_refl(h)
        if isinstance(p, (Hyp, Axiom)) or not _uses_hyp(p, h, known):
            c = conclusion(p)
            return MP(ax_k(c, h), p)
        if isinstance(p, MP):
            maj = conclusion(p.major)
            assert isinstance(maj, Imp)
            return MP(MP(ax_s(h, maj.a, maj.b), go(p.major)), go(p.minor))
        if isinstance(p, Gen):
            if p.var in free_vars(h):
                raise ProofError(
                    "cannot discharge %s across generalisation over %s"
                    % (print_formula(h), p.var), "")
            c = conclusion(p.sub)
            return MP(ax_univdist(p.var, h, c), Gen(p.var, go(p.sub)))
        raise TypeError(p)

    return go(p)


def eq_sym(p: Proof) -> Proof:
    """From a proof of s=t, a proof of t=s."""
    c = conclusion(p)
    assert isinstance(c, Eq)
    s, t = c.l, c.r
    x = fresh_var(term_vars(s) | term_vars(t))
    leib = ax_leibniz(x, Eq(TVar(x), s), s, t)
    return MP(MP(leib, p), ax_refleq(s))


def eq_trans(p1: Proof, p2: Proof) -> Proof:
    """From proofs of s=t and t=u, a proof of s=u."""
    c1, c2 = conclusion(p1), conclusion(p2)
    assert isinstance(c1, Eq) and isinstance(c2, Eq) and c1.r == c2.l
    x = fresh_var(term_vars(c1.l) | term_vars(c2.l) | term_vars(c2.r))
    leib = ax_leibniz(x, Eq(c1.l, TVar(x)), c2.l, c2.r)
    return MP(MP(leib, p2), p1)


def eq_cong(x: str, tx: ATerm, p: Proof) -> Proof:
    """From a proof of s=t, a proof of tx[s/x] = tx[t/x]."""
    c = conclusion(p)
    assert isinstance(c, Eq)
    s, t = c.l, c.r
    if x in term_vars(s) | term_vars(t):
        raise ValueError("congruence hole variable occurs in the equation")
    tx_s = subst_term(tx, x, s)
    leib = ax_leibniz(x, Eq(tx_s, tx), s, t)
    return MP(MP(leib, p), ax_refleq(tx_s))


def inst_all(p: Proof, t: ATerm) -> Proof:
    """From a proof of (all x A), a proof of A[t/x]."""
    c = conclusion(p)
    assert isinstance(c, All)
    return MP(ax_univinst(c.var, c.body, t), p)


def prove_plus(m: int, n: int) -> Proof:
    """A computational proof of m + n = m+n on numerals."""
    d1, d2 = _DEFINING[0], _DEFINING[1]
    if n == 0:
        return inst_all(ax_defining(d1), Num(m))
    step = inst_all(inst_all(ax_defining(d2), Num(m)), Num(n - 1))
    ih = prove_plus(m, n - 1)
    lifted = eq_cong("z", suc_t(TVar("z")), ih)  # s(m+(n-1)) = s(...)
    return eq_trans(step, lifted)


def prove_dne(a: Formula) -> Proof:
    """Double negation elimination: ((A->bot)->bot) -> A."""
    h = Imp(Imp(a, bot()), bot())
    g = Imp(a, bot())
    falsum = MP(Hyp(h), Hyp(g))
    a_from_g = MP(ax_exfalso(a), falsum)
    peirce_minor = deduce(g, a_from_g)  # (A->bot)->A
    a_proof = MP(ax_peirce(a, bot()), peirce_minor)
    return deduce(h, a_proof)


def prove_zero_plus() -> Proof:
    """(all x (= (+ 0 x) x)) by induction."""
    d1, d2 = _DEFINING[0], _DEFINING[1]
    a = Eq(Fn("+", (ZERO, TVar("x"))), TVar("x"))
    base = inst_all(ax_defining(d1), ZERO)
    step_eq = inst_all(inst_all(ax_defining(d2), ZERO), TVar("x"))
    lifted = eq_cong("z", suc_t(TVar("z")), Hyp(a))
    tr = eq_trans(step_eq, lifted)
    step = Gen("x", deduce(a, tr))
    return MP(MP(ax_induction("x", a), base), step)


def prove_suc_plus() -> Proof:
    """(all x (all y (= (+ (s x) y) (s (+ x y))))) by induction on y."""
    d1, d2 = _DEFINING[0], _DEFINING[1]
    x, y = TVar("x"), TVar("y")
    a = Eq(Fn("+", (suc_t(x), y)), suc_t(Fn("+", (x, y))))
    b1 = inst_all(ax_defining(d1), suc_t(x))
    b2 = inst_all(ax_defining(d1), x)
    b3 = eq_cong("z", suc_t(TVar("z")), eq_sym(b2))
    base = eq_trans(b1, b3)
    s1 = inst_all(inst_all(ax_defining(d2), suc_t(x)), y)
    s2 = eq_cong("z", suc_t(TVar("z")), Hyp(a))
    s3 = inst_all(inst_all(ax_defining(d2), x), y)
    s4 = eq_cong("z", suc_t(TVar("z")), eq_sym(s3))
    tr = eq_trans(eq_trans(s1, s2), s4)
    step = Gen("y", deduce(a, tr))
    return Gen("x", MP(MP(ax_induction("y", a), base), step))


def prove_plus_comm() -> Proof:
    """(all x (all y (= (+ x y) (+ y x)))) by double induction."""
    d1, d2 = _DEFINING[0], _DEFINING[1]
    x, y = TVar("x"), TVar("y")
    b = All("y", Eq(Fn("+", (x, y)), Fn("+", (y, x))))
    l1, l2 = prove_zero_plus(), prove_suc_plus()
    base = Gen("y", eq_trans(inst_all(l1, y),
                             eq_sym(inst_all(ax_defining(d1), y))))
    t1 = inst_all(inst_all(l2, x), y)
    t2 = eq_cong("z", suc_t(TVar("z")), inst_all(Hyp(b), y))
    t3 = inst_all(inst_all(ax_defining(d2), y), x)
    tr = eq_trans(eq_trans(t1, t2), eq_sym(t3))
    step = Gen("x", deduce(b, Gen("y", tr)))
    return MP(MP(ax_induction("x", b), base), step)


# ---------------------------------------------------------------------------
# Proof text format

def print_proof(p: Proof) -> str:
    if isinstance(p, Hyp):
        return "(hyp %s)" % print_formula(p.formula)
    if isinstance(p, MP):
        return "(mp %s %s)" % (print_proof(p.major), print_proof(p.minor))
    if isinstance(p, Gen):
        return "(gen %s %s)" % (p.var, print_proof(p.sub))
    if isinstance(p, Axiom):
        if p.kind == "univinst":
            return "(ax univinst %s %s)" % (print_formula(p.formula),
                                            print_term(p.data[0]))
        if p.kind == "leibniz":
            return "(ax leibniz %s %s %s)" % (print_formula(p.formula),
                                              p.data[0],
                                              print_formula(p.data[1]))
        return "(ax %s %s)" % (p.kind, print_formula(p.formula))
    raise TypeError(p)


def _parse_proof(toks: list) -> Proof:
    tok = toks.pop()
    if tok != "(":
        raise _Misread("expected a proof, found %r" % tok, len(toks))
    head = toks.pop()
    if head == "hyp":
        out: Proof = Hyp(_parse_base_formula(toks))
    elif head == "mp":
        out = MP(_parse_proof(toks), _parse_proof(toks))
    elif head == "gen":
        out = Gen(_parse_var(toks), _parse_proof(toks))
    elif head == "ax":
        kind = toks.pop()
        if kind not in AXIOM_KINDS:
            raise _Misread("unknown axiom kind %r" % kind, len(toks))
        f = _parse_base_formula(toks)
        if kind == "univinst":
            out = Axiom(kind, f, (_parse_term(toks),))
        elif kind == "leibniz":
            out = Axiom(kind, f,
                        (_parse_var(toks), _parse_base_formula(toks)))
        else:
            out = Axiom(kind, f)
    else:
        raise _Misread("unknown proof head %r" % head, len(toks))
    if (tok := toks.pop()) != ")":
        raise _Misread(_CLOSE % tok, len(toks))
    return out


def parse_proof(text: str) -> Proof:
    return _read(text, _parse_proof)
