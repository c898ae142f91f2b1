"""Level-indexed truth and realisability theories: axioms, translations
and model harnesses.

The level-indexed languages themselves (the truth atom, the pole,
falsification and realisation atoms, their levels, coding, text and
explicit unfoldings) live in ``syntax``, and the one evaluator for all
of them lives in ``semantics``.  This module provides generators for
closed instances of the level-indexed axiom families (RT1-RT6 on the
truth side, RR1-RR10 on the realisability side), three translations
between the layers with code-level counterparts, and harnesses that
check formal atoms against their explicit unfoldings in the intended
model over an arbitrary pole.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .notation import (
    LESS, OrdNotation, add, compare, ocode, odecode, onat, print_ord,
)
from .poles import Empty, UNKNOWN, PoleSpec, agreement
from .semantics import Budget, realises, truth
from .syntax import (
    All, ATerm, Eq, Fals, Fn, Formula, Imp, InPole, LevelError,
    Num, ONE, REAL_SIDE, Real, TRUTH_SIDE, TVar, Tru,
    ZERO, _name_code, _name_decode, bot, conj, decode_sentence,
    eq_check, explicit_realisation, explicit_refutation, free_vars,
    fresh_var, godel, godel_term, in_language, max_level, print_formula,
    register_fn, subst, subt, ungodel,
)
from .vm import Kernel, Lam, Nat, Var, encode


def iff(a: Formula, b: Formula) -> Formula:
    return conj(Imp(a, b), Imp(b, a))


# ---------------------------------------------------------------------------
# Registered function symbols on codes

def tau_empty_code(c: Nat) -> Nat:
    """Code-level empty-pole translation; 0 on non-formula codes."""
    a = ungodel(c)
    return 0 if a is None else godel(translate_empty(a))


def tau_zero_code(c: Nat) -> Nat:
    """Code-level zero-realiser translation; 0 on non-formula codes."""
    a = ungodel(c)
    return 0 if a is None else godel(translate_zero(a))


def _fn_sentt(c: Nat, lc: Nat) -> Nat:
    beta = odecode(lc)
    if beta is None:
        return 0
    return 1 if decode_sentence(c, TRUTH_SIDE, beta) is not None else 0


def _fn_subv(c: Nat, nc: Nat, n: Nat) -> Nat:
    name = _name_decode(nc)
    a = ungodel(c)
    if name is None or a is None:
        return 0
    return godel(subst(a, name, Num(n)))


def _fn_eqc(cs: Nat, ct: Nat) -> Nat:
    try:
        return 1 if eq_check(cs, ct) else 0
    except ValueError:
        return 0


register_fn("taue", 1, tau_empty_code)
register_fn("tau0", 1, tau_zero_code)
register_fn("sentt", 2, _fn_sentt)
register_fn("subv", 3, _fn_subv)
register_fn("eqc", 2, _fn_eqc)


# ---------------------------------------------------------------------------
# Translations

def _translate(a: Formula, atom: Callable[[Formula], Formula]) -> Formula:
    """a with each level-indexed atom replaced by its image under atom."""
    if isinstance(a, Eq):
        return a
    if isinstance(a, Imp):
        return Imp(_translate(a.a, atom), _translate(a.b, atom))
    if isinstance(a, All):
        return All(a.var, _translate(a.body, atom))
    if isinstance(a, (InPole, Fals, Real, Tru)):
        return atom(a)
    raise TypeError(a)


def translate_conservative(a: Formula) -> Formula:
    """Collapse every level-indexed atom to a trivial truth."""
    return _translate(a, lambda _atom: Eq(ZERO, ZERO))


def _empty_atom(a: Formula) -> Formula:
    if isinstance(a, InPole):
        return bot()
    if isinstance(a, Fals):
        return Tru(a.level, Fn("taue", (Fn("memf", (a.s, a.t)),)))
    if isinstance(a, Real):
        return Tru(a.level, Fn("taue", (Fn("memt", (a.s, a.t)),)))
    return a


def translate_empty(a: Formula) -> Formula:
    """Empty-pole reading: pole membership is absurd, falsification and
    realisation become truth of the translated explicit formula."""
    return _translate(a, _empty_atom)


def _zero_atom(a: Formula) -> Formula:
    if isinstance(a, Tru):
        guard = Eq(Fn("sentt", (a.t, Num(ocode(a.level)))), ONE)
        return Imp(guard, Real(a.level, ZERO, Fn("tau0", (a.t,))))
    return a


def translate_zero(a: Formula) -> Formula:
    """Truth-to-realisability reading: a truth atom becomes guarded
    zero-realisation of the translated code."""
    return _translate(a, _zero_atom)


# ---------------------------------------------------------------------------
# Axiom-instance generators

RR_KINDS = ("RR1", "RR2", "RR3", "RR4", "RR5", "RR6", "RR7", "RR8",
            "RR9", "RR10")


def _need_below(low: OrdNotation, high: OrdNotation, what: str) -> None:
    if compare(low, high) != LESS:
        raise LevelError("%s requires %s < %s"
                         % (what, print_ord(low), print_ord(high)))


def _need_sentence(a: Formula, side: str, below: OrdNotation) -> None:
    if free_vars(a):
        raise LevelError("axiom data must be a sentence")
    if not in_language(a, below, side):
        raise LevelError("sentence exceeds level %s" % print_ord(below))


def _need_template(kind: str, a: Formula, var: Optional[str], side: str,
                   below: OrdNotation) -> Formula:
    """(all var a), a sentence of the side below the level with var free
    in a, or LevelError."""
    if var is None or var not in free_vars(a):
        raise LevelError("%s wants a formula with the named free var" % kind)
    closed = All(var, a)
    _need_sentence(closed, side, below)
    return closed


def rt_axiom(kind: str, beta: OrdNotation, gamma: OrdNotation, *,
             a: Optional[Formula] = None, a2: Optional[Formula] = None,
             var: Optional[str] = None,
             s: Optional[ATerm] = None, t: Optional[ATerm] = None,
             low: Optional[OrdNotation] = None) -> Formula:
    """A closed truth-side axiom instance at level beta, below gamma;
    RT5 and RT6 take the lower level low."""
    _need_below(beta, gamma, kind)
    if kind == "RT1":
        # term invariance: equal-valued terms substitute interchangeably
        _need_template(kind, a, var, TRUTH_SIDE, beta)
        ca = godel(a)
        cs, ct = godel_term(s), godel_term(t)
        guard = Eq(Fn("eqc", (Num(cs), Num(ct))), ONE)
        left = Tru(beta, Num(subt(ca, var, cs)))
        right = Tru(beta, Num(subt(ca, var, ct)))
        return Imp(guard, iff(left, right))
    if kind == "RT2":
        if not isinstance(a, Eq) or free_vars(a):
            raise LevelError("RT2 wants a closed equation")
        return iff(Tru(beta, Num(godel(a))), a)
    if kind == "RT3":
        _need_sentence(a, TRUTH_SIDE, beta)
        _need_sentence(a2, TRUTH_SIDE, beta)
        return iff(Tru(beta, Num(godel(Imp(a, a2)))),
                   Imp(Tru(beta, Num(godel(a))),
                       Tru(beta, Num(godel(a2)))))
    if kind == "RT4":
        closed = _need_template(kind, a, var, TRUTH_SIDE, beta)
        x = fresh_var(free_vars(a))
        inner = Tru(beta, Fn("subv", (Num(godel(a)),
                                      Num(_name_code(var)), TVar(x))))
        return iff(Tru(beta, Num(godel(closed))), All(x, inner))
    if kind == "RT5":
        _need_below(low, beta, "RT5")
        _need_sentence(a, TRUTH_SIDE, low)
        inner = Tru(low, Num(godel(a)))
        return iff(Tru(beta, Num(godel(inner))), inner)
    if kind == "RT6":
        _need_below(low, beta, "RT6")
        _need_sentence(a, TRUTH_SIDE, low)
        inner = Tru(low, Num(godel(a)))
        return iff(Tru(beta, Num(godel(inner))),
                   Tru(beta, Num(godel(a))))
    raise ValueError("unknown truth axiom kind %r" % kind)


def rr_axiom(kind: str, beta: OrdNotation, gamma: OrdNotation, *,
             a: Optional[Nat] = None, b: Optional[Nat] = None,
             sent: Optional[Formula] = None,
             sent2: Optional[Formula] = None,
             var: Optional[str] = None,
             s: Optional[ATerm] = None, t: Optional[ATerm] = None,
             low: Optional[OrdNotation] = None,
             r: Optional[Nat] = None) -> Formula:
    """A closed realisability-side axiom instance at level beta.

    Numeric slots: a (the subject) and b (an auxiliary subject); for
    the operational-closure instance, the program a, its input b and
    the result r of the run a . b.  RR7-RR10 take the lower level low.
    """
    _need_below(beta, gamma, kind)
    if kind == "RR1":
        # operational closure: a pole run result pulls the pair in
        return Imp(InPole(Num(r)), InPole(Fn("pair", (Num(a), Num(b)))))
    if kind == "RR2":
        _need_sentence(sent, REAL_SIDE, beta)
        code = Num(godel(sent))
        x = fresh_var(set())
        return iff(Real(beta, Num(a), code),
                   All(x, Imp(Fals(beta, TVar(x), code),
                              InPole(Fn("pair", (Num(a), TVar(x)))))))
    if kind == "RR3":
        _need_template(kind, sent, var, REAL_SIDE, beta)
        ca = godel(sent)
        cs, ct = godel_term(s), godel_term(t)
        guard = Eq(Fn("eqc", (Num(cs), Num(ct))), ONE)
        left = Fals(beta, Num(a), Num(subt(ca, var, cs)))
        right = Fals(beta, Num(a), Num(subt(ca, var, ct)))
        return Imp(guard, iff(left, right))
    if kind == "RR4":
        if not isinstance(sent, (Eq, InPole)) or free_vars(sent):
            raise LevelError("RR4 wants a closed atom")
        return iff(Fals(beta, Num(a), Num(godel(sent))),
                   Imp(sent, InPole(Num(a))))
    if kind == "RR5":
        _need_sentence(sent, REAL_SIDE, beta)
        _need_sentence(sent2, REAL_SIDE, beta)
        code = Num(godel(Imp(sent, sent2)))
        return iff(Fals(beta, Num(a), code),
                   conj(Real(beta, Fn("p0", (Num(a),)), Num(godel(sent))),
                        Fals(beta, Fn("p1", (Num(a),)), Num(godel(sent2)))))
    if kind == "RR6":
        closed = _need_template(kind, sent, var, REAL_SIDE, beta)
        inst = Fn("subv", (Num(godel(sent)), Num(_name_code(var)),
                           Fn("p0", (Num(a),))))
        return iff(Fals(beta, Num(a), Num(godel(closed))),
                   Fals(beta, Fn("p1", (Num(a),)), inst))
    if kind in ("RR7", "RR8"):
        _need_below(low, beta, kind)
        _need_sentence(sent, REAL_SIDE, low)
        atom = (Fals if kind == "RR7" else Real)(
            low, Num(b), Num(godel(sent)))
        return iff(Fals(beta, Num(a), Num(godel(atom))),
                   explicit_refutation(Num(a), atom))
    if kind in ("RR9", "RR10"):
        _need_below(low, beta, kind)
        _need_sentence(sent, REAL_SIDE, low)
        atom = (Fals if kind == "RR9" else Real)(
            low, Num(b), Num(godel(sent)))
        unfolded = (explicit_refutation if kind == "RR9"
                    else explicit_realisation)(Num(b), sent)
        return iff(Fals(beta, Num(a), Num(godel(atom))),
                   Fals(beta, Num(a), Num(godel(unfolded))))
    raise ValueError("unknown realisability axiom kind %r" % kind)


# ---------------------------------------------------------------------------
# Property harnesses

def check_model_equivalence(corpus: list, gamma: OrdNotation,
                            pole: PoleSpec, b: Budget, kernel: Kernel,
                            rng: Optional[random.Random] = None) -> list:
    """Formal atoms versus their explicit unfolding, both sides
    evaluated in the model; one record per corpus sentence.  The atoms
    are at level 1, or at gamma when the sentence reaches level 1."""
    rng = rng or random.Random(0)
    records = []
    for sent in corpus:
        lvl = onat(1)
        top = max_level(sent)
        if top is not None and compare(top, lvl) != LESS:
            lvl = gamma  # the atom level must strictly dominate the sentence
        code = godel(sent)
        s_val = rng.randrange(0, 40)
        lhs = truth(Fals(lvl, Num(s_val), Num(code)), pole, b, kernel,
                    gamma=_bump(gamma))
        rhs = truth(explicit_refutation(Num(s_val), sent), pole, b, kernel,
                    gamma=_bump(gamma))
        records.append({
            "instance": print_formula(sent), "subject": s_val,
            "verdict": agreement(lhs, rhs), "lhs": lhs.kind,
            "rhs": rhs.kind, "level": print_ord(lvl),
        })
    return records


def _bump(gamma: OrdNotation) -> OrdNotation:
    return add(gamma, onat(1))


def check_rr_empty_properties(gamma: OrdNotation, corpus: list, b: Budget,
                              kernel: Kernel,
                              pole: Optional[PoleSpec] = None,
                              rng: Optional[random.Random] = None) -> list:
    """Realiser irrelevance and the falsification-atom corollary,
    evaluated on both sides; exact under the empty pole, reported as
    unknown (never asserted) otherwise."""
    pole = pole if pole is not None else Empty()
    # the properties are empty-pole lemmas: under any other pole both
    # sides are still reported, but never asserted
    assertable = isinstance(pole, Empty)
    rng = rng or random.Random(0)
    wide = _bump(gamma)
    records = []
    for sent in corpus:
        code = godel(sent)
        x = rng.randrange(1, 60)
        # realiser irrelevance: x realises iff 0 realises
        vx = realises(x, sent, pole, b, kernel, rng, gamma=gamma).verdict
        v0 = realises(0, sent, pole, b, kernel, rng, gamma=gamma).verdict
        records.append({
            "property": "realiser-irrelevance",
            "instance": print_formula(sent), "subject": x,
            "verdict": agreement(vx, v0) if assertable else UNKNOWN,
            "lhs": vx.kind, "rhs": v0.kind,
        })
        # corollary: s realises the falsification atom iff the
        # dot-membership truth atom holds
        t_val = rng.randrange(0, 40)
        atom = Fals(gamma, Num(t_val), Num(code))
        lv = realises(x, atom, pole, b, kernel, rng, gamma=wide).verdict
        rt = truth(Real(gamma, Num(x), Fn("memf", (Num(t_val), Num(code)))),
                   pole, b, kernel, gamma=wide)
        records.append({
            "property": "falsification-corollary",
            "instance": print_formula(sent), "subject": x,
            "verdict": agreement(lv, rt) if assertable else UNKNOWN,
            "lhs": lv.kind, "rhs": rt.kind,
        })
    return records


def rr_instance_corpus(n: int, gamma: OrdNotation,
                       rng: random.Random) -> list:
    """n closed axiom instances cycling through every RR kind.

    Returns (kind, formula) pairs.  Operational-closure instances use
    the identity program, whose run result equals its input.
    """
    ident = encode(Lam(Var(0)))
    beta, low = onat(1), onat(0)
    if compare(beta, gamma) != LESS:
        raise LevelError("instance corpus needs gamma > 1")
    out = []
    i = 0
    while len(out) < n:
        kind = RR_KINDS[i % len(RR_KINDS)]
        i += 1
        a_val = rng.randrange(0, 50)
        b_val = rng.randrange(0, 50)
        sent = _gen_sentence(rng, [low], 1)
        if kind == "RR1":
            m_val = rng.randrange(0, 50)
            inst = rr_axiom(kind, beta, gamma, a=ident, b=m_val, r=m_val)
        elif kind == "RR2":
            inst = rr_axiom(kind, beta, gamma, a=a_val, sent=sent)
        elif kind == "RR3":
            tpl = Eq(TVar("x"), Num(rng.randrange(0, 6)))
            v = rng.randrange(0, 9)
            inst = rr_axiom(kind, beta, gamma, a=a_val, sent=tpl, var="x",
                            s=Num(v), t=Fn("pair", (Num(v), Num(v))))
        elif kind == "RR4":
            atom = (Eq(Num(0), Num(rng.randrange(0, 2)))
                    if rng.random() < 0.6
                    else InPole(Num(rng.randrange(0, 20))))
            inst = rr_axiom(kind, beta, gamma, a=a_val, sent=atom)
        elif kind == "RR5":
            sent2 = _gen_sentence(rng, [low], 1)
            inst = rr_axiom(kind, beta, gamma, a=a_val, sent=sent,
                            sent2=sent2)
        elif kind == "RR6":
            tpl = Imp(Eq(TVar("x"), Num(rng.randrange(0, 5))),
                      _gen_eq(rng))
            inst = rr_axiom(kind, beta, gamma, a=a_val, sent=tpl, var="x")
        else:  # RR7 - RR10
            flat = _gen_sentence(rng, [], 1)  # below level 0: level free
            inst = rr_axiom(kind, beta, gamma, a=a_val, b=b_val,
                            low=low, sent=flat)
        out.append((kind, inst))
    return out


# ---------------------------------------------------------------------------
# Corpus generation

# the nesting depth of a corpus sentence's implications and atoms
_CORPUS_DEPTH = 2


def ram_corpus(n: int, gamma: OrdNotation, rng: random.Random) -> list:
    """n closed realisability-side sentences with levels below gamma.

    Weighted toward shapes whose explicit unfolding evaluates
    definitely under the empty pole.
    """
    levels = [lv for lv in (onat(0), onat(1))
              if compare(lv, gamma) == LESS] or [onat(0)]
    out = []
    while len(out) < n:
        out.append(_gen_sentence(rng, levels, _CORPUS_DEPTH))
    return out


def _gen_eq(rng: random.Random) -> Eq:
    x = rng.randrange(0, 12)
    if rng.random() < 0.5:
        return Eq(Num(x), Num(x))
    return Eq(Num(x), Num(x + 1 + rng.randrange(0, 4)))


def _gen_sentence(rng: random.Random, levels: list, depth: int) -> Formula:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return _gen_eq(rng)
    if roll < 0.50:
        return InPole(Num(rng.randrange(0, 30)))
    if not levels:
        return Imp(_gen_eq(rng), _gen_eq(rng))
    if roll < 0.68:
        inner = _gen_sentence(rng, [], depth - 1)
        return Fals(rng.choice(levels), Num(rng.randrange(0, 20)),
                    Num(godel(inner)))
    if roll < 0.76:
        # realisation atoms stay definite when the inner sentence is
        # refutable, so bias toward false equations
        inner = Eq(Num(1), Num(2)) if rng.random() < 0.7 else _gen_eq(rng)
        return Real(rng.choice(levels), Num(rng.randrange(0, 20)),
                    Num(godel(inner)))
    if roll < 0.90:
        return Imp(_gen_eq(rng), _gen_sentence(rng, levels, depth - 1))
    x = "x"
    body = Imp(Eq(TVar(x), Num(rng.randrange(0, 5))), _gen_eq(rng))
    return All(x, body)
