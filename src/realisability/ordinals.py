"""Transfinite induction over ordinal notations: the object-language
function symbols on notation codes, transfinite-induction formulas and
proof templates, and the well-ordering realiser family.

The notations themselves live in ``notation``.  Their codes are
naturals, so ordinals appear inside arithmetic formulas through
registered function symbols (ordlt, ordsuc, ordadd, ordpow); the
transfinite-induction statement TI(A, alpha) is an ordinary arithmetic
formula about codes.
"""

from __future__ import annotations

from typing import Optional

from .extraction import (
    MP, Gen, Hyp, Proof, ax_k, ax_refleq, deduce, eq_sym, eq_trans,
    extract_value, fresh_kernel, inst_all, register_defining_axiom,
    ax_defining, ax_exfalso, combinator,
)
from .notation import (
    LESS, NESTING_MAX, LimC, O_ZERO, OrdNotation, SucC, ZeroC, _as_exp,
    _has_eps, _towers, add, classify, compare, eps, fundseq, ocode, odecode,
    omega_pow, onat,
)
from .syntax import (
    All, ATerm, Eq, Fn, Formula, Imp, Num, ONE, TVar, ZERO, _is_base,
    free_vars, godel, register_fn, subst, ungodel,
)
from .vm import (
    App, Fix, IfZ, Kernel, Lam, Lit, Nat, Pair, Pred, Prim, Proj0, Proj1,
    StuckError, Value, Var, encode, vle, vpair, vunpair,
)


# ---------------------------------------------------------------------------
# Object-language function symbols over codes

def _on_notations(fn):
    """fn over notations as a function symbol over codes: 0 when an
    argument codes no notation."""
    def on_codes(*codes: Nat) -> Nat:
        args = [odecode(c) for c in codes]
        return 0 if None in args else fn(*args)
    return on_codes


_fn_ordlt = _on_notations(lambda a, b: 1 if compare(a, b) == LESS else 0)
register_fn("ordlt", 2, _fn_ordlt)
register_fn("ordsuc", 1, _on_notations(lambda a: ocode(add(a, onat(1)))))
register_fn("ordadd", 2, _on_notations(lambda a, b: ocode(add(a, b))))
register_fn("ordpow", 1, _on_notations(lambda a: ocode(omega_pow(a))))

# nothing is below zero: a true equation schema usable as an axiom
_NOTHING_BELOW_ZERO = All("ob", Eq(Fn("ordlt", (TVar("ob"), Num(0))), ZERO))
register_defining_axiom(_NOTHING_BELOW_ZERO)


# ---------------------------------------------------------------------------
# TI / Prog formulas

def olt(s: ATerm, t: ATerm) -> Formula:
    return Eq(Fn("ordlt", (s, t)), ONE)


def _the_var(a: Formula, var: str) -> str:
    fv = free_vars(a)
    if not fv <= {var}:
        raise ValueError("unexpected free variables %r" % (fv - {var}))
    return var


def build_Prog(a: Formula, var: str) -> Formula:
    """Progressiveness: every code whose strict predecessors all satisfy
    A satisfies A."""
    x = _the_var(a, var)
    below = All("ob", Imp(olt(TVar("ob"), TVar("oa")),
                          subst(a, x, TVar("ob"))))
    return All("oa", Imp(below, subst(a, x, TVar("oa"))))


def ti_formula(a: Formula, t: ATerm, var: str) -> Formula:
    x = _the_var(a, var)
    return Imp(build_Prog(a, x), subst(a, x, t))


def build_TI(a: Formula, alpha: OrdNotation, var: str) -> Formula:
    return ti_formula(a, Num(ocode(alpha)), var)


# ---------------------------------------------------------------------------
# Proof templates

def _prove_outright(a: Formula) -> Proof:
    """A direct proof of a, available when a's positive core is a
    reflexive equation: reflexive equations themselves, implications
    into such formulas (by weakening), and universal closures.

    The templates' weakening step (_weakened) needs A's instances to be
    provable outright, which holds for the validation family
    A := (x = x) and is preserved by the jump construction."""
    if isinstance(a, Eq) and a.l == a.r:
        return ax_refleq(a.l)
    if isinstance(a, Imp):
        return MP(ax_k(a.b, a.a), _prove_outright(a.b))
    if isinstance(a, All):
        return Gen(a.var, _prove_outright(a.body))
    raise ValueError("no direct proof of %s available"
                     % a.__class__.__name__)


def check_ti_formula(a: Formula) -> None:
    """Raise ValueError unless a is in the family the well-ordering
    realisers support: its positive core must be a reflexive equation, so
    that the templates can prove every instance of a outright."""
    _prove_outright(a)


def _weakened(a: Formula, x: str, t: ATerm, prog: Formula,
              hyp: Optional[Formula] = None) -> Proof:
    """TI(A, t), proved by establishing A(t) outright and weakening it
    by Prog(A) = prog; given hyp, hyp -> TI(A, t), weakened once more."""
    inst = subst(a, x, t)
    ti_t = MP(ax_k(inst, prog), _prove_outright(inst))
    return ti_t if hyp is None else MP(ax_k(Imp(prog, inst), hyp), ti_t)


def ti_proof_template(kind: str, a: Formula,
                      alpha: Optional[OrdNotation] = None, *,
                      var: str) -> Proof:
    """A checker-accepted proof of the named transfinite-induction step.

    kind "zero": TI(A, 0), fully schematic in A.
    kind "suc": forall a (TI(A,a) -> TI(A, a+1)).
    kind "omega": forall a (TI(A',a) -> TI(A, w^a)), for the jump
    A' = jump_formula(A) with induction variable oj.
    kind "lim": (forall b < alpha, TI(A,b)) -> TI(A, alpha).
    The last three prove A's instance outright and weaken it.
    """
    x = _the_var(a, var)
    prog = build_Prog(a, x)
    oa = TVar("oa")
    if kind == "zero":
        # from Prog at 0: the bounded antecedent is vacuous because
        # nothing is below 0
        h_lt = olt(TVar("ob"), Num(0))  # ordlt(ob, 0) = 1, always false
        zero_eq = inst_all(ax_defining(_NOTHING_BELOW_ZERO), TVar("ob"))
        # from ordlt(ob,0)=0 and hyp ordlt(ob,0)=1 derive 0=1
        falsum = eq_trans(eq_sym(zero_eq), Hyp(h_lt))
        a_ob = MP(ax_exfalso(subst(a, x, TVar("ob"))), falsum)
        vacuous = Gen("ob", deduce(h_lt, a_ob))
        a_zero = MP(inst_all(Hyp(prog), Num(0)), vacuous)
        return deduce(prog, a_zero)
    if kind == "suc":
        return Gen("oa", _weakened(a, x, Fn("ordsuc", (oa,)), prog,
                                   ti_formula(a, oa, x)))
    if kind == "omega":
        return Gen("oa", _weakened(a, x, Fn("ordpow", (oa,)), prog,
                                   ti_formula(jump_formula(a, x), oa, "oj")))
    if kind == "lim":
        if alpha is None or not isinstance(classify(alpha), LimC):
            raise ValueError("lim template needs a limit notation")
        t_alpha = Num(ocode(alpha))
        below = All("ob", Imp(olt(TVar("ob"), t_alpha),
                              ti_formula(a, TVar("ob"), x)))
        return _weakened(a, x, t_alpha, prog, below)
    raise ValueError("unknown template kind %r" % kind)


def jump_formula(a: Formula, var: str) -> Formula:
    """A'(b): every A-closed initial segment extends by omega^b."""
    x = _the_var(a, var)
    og, od, oj = TVar("og"), TVar("od"), TVar("oj")
    seg = lambda bound: All("od", Imp(olt(od, bound), subst(a, x, od)))
    ext = Fn("ordadd", (og, Fn("ordpow", (oj,))))
    return All("og", Imp(seg(og), seg(ext)))


# ---------------------------------------------------------------------------
# Registered primitives for the well-ordering realisers

PID_ORDLT = 10
PID_ORDFS = 11
PID_ORDCLASS = 12
PID_ORDPRED = 13
PID_ORDEPS = 14
PID_TI0 = 15
PID_TISUC = 16
PID_TIOMEGA = 17
PID_JUMP = 18
PID_TILIM = 19
PID_TIDIRECT = 20
PID_WO = 21
PID_ORDSUCN = 22

_TEMPLATE_FUEL = 10**7


def _decode_sentence_with_x(code: Nat) -> Formula:
    a = ungodel(code)
    if not _is_base(a) or not free_vars(a) <= {"x"}:
        raise StuckError()
    return a


def _decode_ord(code: Nat) -> OrdNotation:
    a = odecode(code)
    if a is None:
        raise StuckError()
    return a


def _ordlt(kernel: Kernel, v: Nat) -> Nat:
    return _fn_ordlt(*vunpair(v))


def _ordfs(kernel: Kernel, v: Nat) -> Nat:
    ac, n = vunpair(v)
    a = _decode_ord(ac)
    # a tower of n exponents past the nesting bound is refused, as
    # `ord fs` refuses it: ocode would recurse once per exponent
    if not isinstance(classify(a), LimC) or not vle(n, 1 << 20) \
            or n > NESTING_MAX and _towers(a):
        raise StuckError()
    return ocode(fundseq(a, n))


def _ordclass(kernel: Kernel, v: Nat) -> Nat:
    k = classify(_decode_ord(v))
    return 0 if isinstance(k, ZeroC) else 1 if isinstance(k, SucC) else 2


def _ordpred(kernel: Kernel, v: Nat) -> Nat:
    k = classify(_decode_ord(v))
    if not isinstance(k, SucC):
        raise StuckError()
    return ocode(k.pred)


def _ordeps(kernel: Kernel, v: Nat) -> Nat:
    a = _decode_ord(v)
    if _has_eps(a):
        raise StuckError()
    return ocode(eps(a))


def _ordsucn(kernel: Kernel, v: Nat) -> Nat:
    return ocode(add(_decode_ord(v), onat(1)))


def _realiser(kernel: Kernel, kind: str, ac: Nat,
              alpha: Optional[OrdNotation]) -> Nat:
    """The realiser of kind's template for the formula ac codes, at alpha
    for lim and direct; stuck when there is none (lim at a non-limit)."""
    a = _decode_sentence_with_x(ac)
    try:
        proof = (_weakened(a, "x", Num(ocode(alpha)), build_Prog(a, "x"))
                 if kind == "direct"
                 else ti_proof_template(kind, a, alpha, var="x"))
    except ValueError:
        raise StuckError() from None
    return extract_value(proof, kernel, _TEMPLATE_FUEL)[1]


def _template(kernel: Kernel, kind: str, ac: Nat,
              alpha: Optional[OrdNotation] = None) -> Nat:
    """``_realiser``, kept by the kernel: a kept code has decoded."""
    return kernel.kept((_realiser, kind, ac, alpha),
                       _realiser, kernel, kind, ac, alpha)


def _ti0(kernel: Kernel, v: Nat) -> Nat:
    return _template(kernel, "zero", v)


def _instantiated(kind: str):
    """The primitive <|A|, alpha> |-> s . <r, alpha>, for r the realiser
    of kind's template, universal in its notation."""
    def prim(kernel: Kernel, v: Nat) -> Nat:
        ac, alphac = vunpair(v)
        _decode_ord(alphac)
        r = kernel.apply(combinator("s"),
                         vpair(_template(kernel, kind, ac), alphac),
                         _TEMPLATE_FUEL)
        if not isinstance(r, Value):
            raise StuckError()
        return r.n
    return prim


def _at_notation(kind: str):
    """The primitive <|A|, alpha> |-> the realiser of kind's template at
    the notation alpha."""
    def prim(kernel: Kernel, v: Nat) -> Nat:
        ac, alphac = vunpair(v)
        return _template(kernel, kind, ac, _decode_ord(alphac))
    return prim


def _jump(kernel: Kernel, v: Nat) -> Nat:
    a = _decode_sentence_with_x(v)
    return godel(subst(jump_formula(a, "x"), "oj", TVar("x")))


def _wo(kernel: Kernel, v: Nat) -> Nat:
    return wo_realiser(_decode_ord(v), kernel)


_PRIMITIVES = ((PID_ORDLT, _ordlt), (PID_ORDFS, _ordfs),
               (PID_ORDCLASS, _ordclass), (PID_ORDPRED, _ordpred),
               (PID_ORDEPS, _ordeps), (PID_TI0, _ti0),
               (PID_TISUC, _instantiated("suc")),
               (PID_TIOMEGA, _instantiated("omega")), (PID_JUMP, _jump),
               (PID_TILIM, _at_notation("lim")),
               (PID_TIDIRECT, _at_notation("direct")), (PID_WO, _wo),
               (PID_ORDSUCN, _ordsucn))


def install_ordinal_primitives(kernel: Kernel) -> Kernel:
    """Primitives the well-ordering combinators reduce through."""
    for pid, fn in _PRIMITIVES:
        kernel.register_primitive(pid, fn, cost=lambda _v: 50)
    return kernel


def ordinal_kernel() -> Kernel:
    return install_ordinal_primitives(fresh_kernel())


# ---------------------------------------------------------------------------
# Well-ordering combinators
#
# I0(e, alpha): for every one-variable formula code |A|, e . |A| realises
# TI(A, alpha).  Each combinator's defining reduction clause is written
# directly as a program; the template extractions are reached through the
# primitives above.

_I_CODE = combinator("i")

# k0 . |A| = the zero-template realiser
_K0 = Lam(Prim(PID_TI0, Var(0)))

# (k_suc . <e, alpha>) . |A| = i . <step-instance, e . |A|>
_KSUC = Lam(Lam(App(
    Lit(_I_CODE),
    Pair(Prim(PID_TISUC, Pair(Var(0), Proj1(Var(1)))),
         App(Proj0(Var(1)), Var(0))))))

# (k_omega . <e, alpha>) . |A| = i . <omega-instance, e . |A'|>
_KOMEGA = Lam(Lam(App(
    Lit(_I_CODE),
    Pair(Prim(PID_TIOMEGA, Pair(Var(0), Proj1(Var(1)))),
         App(Proj0(Var(1)), Prim(PID_JUMP, Var(0)))))))

# (k_lim . <e, alpha>) . |A| = i . <lim-step, below-realiser>; the
# below-realiser answers a refuter <beta, <r_lt, m>> of the bounded
# universal: when beta < alpha the direct realiser of TI(A,beta) pairs
# with m; otherwise beta < alpha is a false equation and r_lt pairs
# with anything.
_KLIM_BELOW = Lam(IfZ(
    Prim(PID_ORDLT, Pair(Proj0(Var(0)), Proj1(Var(2)))),
    Pair(Proj0(Proj1(Var(0))), Lit(0)),
    Pair(Prim(PID_TIDIRECT, Pair(Var(1), Proj0(Var(0)))),
         Proj1(Proj1(Var(0))))))
_KLIM = Lam(Lam(App(
    Lit(_I_CODE),
    Pair(Prim(PID_TILIM, Pair(Var(0), Proj1(Var(1)))), _KLIM_BELOW))))

_K0_CODE = encode(_K0)
_KSUC_CODE = encode(_KSUC)
_KOMEGA_CODE = encode(_KOMEGA)
_KLIM_CODE = encode(_KLIM)

_EPS0_CODE_LIT = Lit(ocode(eps(O_ZERO)))

# k . 0 = k_suc . <k0, 0>; k . (n+1) = k_omega . <k . n, [eps0]_n>
_KE0_SEQ = Fix(Lam(IfZ(
    Var(0),
    App(Lit(_KSUC_CODE), Pair(Lit(_K0_CODE), Lit(0))),
    App(Lit(_KOMEGA_CODE),
        Pair(App(Var(1), Pred(Var(0))),
             Prim(PID_ORDFS, Pair(_EPS0_CODE_LIT, Pred(Var(0)))))))))

# j . 0 = k_suc . <e, eps_a>; j . (n+1) = k_omega . <j . n, [eps_{a+1}]_n>
# k_epssuc . <e, a> = k_lim . <j, eps_{a+1}>
_KESUC_SEQ = Lam(Fix(Lam(IfZ(
    Var(0),
    App(Lit(_KSUC_CODE),
        Pair(Proj0(Var(2)), Prim(PID_ORDEPS, Proj1(Var(2))))),
    App(Lit(_KOMEGA_CODE),
        Pair(App(Var(1), Pred(Var(0))),
             Prim(PID_ORDFS,
                  Pair(Prim(PID_ORDEPS,
                            Prim(PID_ORDSUCN, Proj1(Var(2)))),
                       Pred(Var(0))))))))))
_KESUC_SEQ_CODE = encode(_KESUC_SEQ)

_KEPSSUC = Lam(App(
    Lit(_KLIM_CODE),
    Pair(App(Lit(_KESUC_SEQ_CODE), Var(0)),
         Prim(PID_ORDEPS, Prim(PID_ORDSUCN, Proj1(Var(0)))))))
_KEPSSUC_CODE = encode(_KEPSSUC)

_KE0_SEQ_CODE = encode(_KE0_SEQ)

# k_eps0 . |A| = (k_lim . <k, eps_0>) . |A| for the iterate sequence k
_KEPS0_PROG = Lam(App(
    App(Lit(_KLIM_CODE), Pair(Lit(_KE0_SEQ_CODE), _EPS0_CODE_LIT)),
    Var(0)))
_KEPS0_CODE = encode(_KEPS0_PROG)

# k_eps . a: dispatch on the class of the index a
#   zero -> k_eps0
#   suc  -> k_epssuc . <k_eps . (a-1), a-1>
#   lim  -> k_lim . <(n |-> k_eps . [a]_n), eps_a>
_KEPS = Fix(Lam(IfZ(
    Prim(PID_ORDCLASS, Var(0)),
    App(Lit(_KLIM_CODE), Pair(Lit(_KE0_SEQ_CODE), _EPS0_CODE_LIT)),
    IfZ(Pred(Prim(PID_ORDCLASS, Var(0))),
        App(Lit(_KEPSSUC_CODE),
            Pair(App(Var(1), Prim(PID_ORDPRED, Var(0))),
                 Prim(PID_ORDPRED, Var(0)))),
        App(Lit(_KLIM_CODE),
            Pair(Lam(App(Var(2),
                         Prim(PID_ORDFS, Pair(Var(1), Var(0))))),
                 Prim(PID_ORDEPS, Var(0))))))))
_KEPS_CODE = encode(_KEPS)

_WO_COMBINATORS = {
    "k0": _K0_CODE,
    "k_suc": _KSUC_CODE,
    "k_omega": _KOMEGA_CODE,
    "k_lim": _KLIM_CODE,
    "k_eps0": _KEPS0_CODE,
    "k_epssuc": _KEPSSUC_CODE,
    "k_eps": _KEPS_CODE,
}


def wo_combinator(name: str) -> Nat:
    """Code of a named well-ordering combinator (k0, k_suc, k_omega,
    k_lim, k_eps0, k_epssuc, k_eps)."""
    try:
        return _WO_COMBINATORS[name]
    except KeyError:
        raise ValueError("unknown well-ordering combinator %r" % name)


def wo_realiser(alpha: OrdNotation, kernel: Kernel,
                fuel: int = _TEMPLATE_FUEL) -> Nat:
    """A code e with I0(e, alpha): e . |A| realises TI(A, alpha) for
    every one-free-variable formula code |A| in the validation family.
    Built by structural recursion on the notation through the
    combinator programs; the kernel must carry the ordinal
    primitives."""
    def app(code: Nat, arg: Nat) -> Nat:
        r = kernel.apply(code, arg, fuel)
        if not isinstance(r, Value):
            raise StuckError()
        return r.n

    e = _as_exp(alpha)
    if e is not alpha:  # alpha = epsilon_i
        return app(_KEPS_CODE, ocode(e.sub))
    k = classify(alpha)
    if isinstance(k, ZeroC):
        return _K0_CODE
    if isinstance(k, SucC):
        return app(_KSUC_CODE,
                   vpair(wo_realiser(k.pred, kernel, fuel), ocode(k.pred)))
    if len(alpha.terms) == 1 and alpha.terms[0][1] == 1:
        e = alpha.terms[0][0]  # alpha = omega^e with e a notation value
        return app(_KOMEGA_CODE,
                   vpair(wo_realiser(e, kernel, fuel), ocode(e)))
    # the kernel keeps the program as the code's closure, so it runs the
    # sequence without decoding its code
    seq = kernel.code(Lam(Prim(PID_WO,
                               Prim(PID_ORDFS,
                                    Pair(Lit(ocode(alpha)), Var(0))))))
    return app(_KLIM_CODE, vpair(seq, ocode(alpha)))
