"""Realisability semantics: truth, refuter and realiser checking against a
pole, for every level-indexed language.

A refuter of a false equation is any natural; of a true equation, any
pole element; of an implication, a pair of a realiser and a refuter; of
a universal sentence, a pair of a witness and a refuter of the instance.
The atoms of the realisability side are refuted through their explicit
unfoldings (``syntax.explicit_refutation``).  A realiser of A is a number
n with <n, m> in the pole for every refuter m of A.  Realiser checking is
sample based, except under the empty pole where realisability collapses
to truth in the intended model and the verdict is exact.

Every entry point takes the level gamma as a trailing keyword; its
default, level 0, is the base language of arithmetic.
"""

from __future__ import annotations

import random
from itertools import cycle, islice
from typing import Optional

from ._record import record
from .extraction import combinator
from .notation import LESS, O_ZERO, OrdNotation, compare, print_ord
from .poles import (
    Empty, FALSE, Full, IN, OUT, TRUE, UNKNOWN, PoleSpec, V_IN, V_OUT,
    Verdict, agreement, member, verdict_and,
)
from .syntax import (
    All, Eq, Fals, Formula, Imp, InPole, LevelError, Num, REAL_SIDE, Real,
    TRUTH_SIDE, Tru, decode_sentence, eval_term, explicit_realisation,
    explicit_refutation, free_vars, in_language, max_level, print_formula,
    subst,
)
from .vm import (
    Kernel, Lam, Nat, Value, Var, encode, vpair, vunpair,
)


@record(frozen=True)
class Budget:
    fuel: int = 10**6
    samples: int = 20
    width: int = 50

    def __post_init__(self):
        if self.fuel <= 0 or self.samples <= 0 or self.width <= 0:
            raise ValueError("budget components must be positive")


@record(frozen=True)
class RealVerdict:
    verdict: Verdict  # an out verdict's witness is the refuter it failed
    samples: int


class EmptySampleError(ValueError):
    """The refuter set of the sentence is provably empty."""


class OpenFormulaError(ValueError):
    pass


# realiser of everything, given a pole element: k_bot . a = \b. a
_K_BOT = combinator("k_bot")

# the reason of an unknown truth when no instance below --width falsified
# a universal
WIDTH = "width"

V_TRUE = Verdict(TRUE)
V_FALSE = Verdict(FALSE)

_DEPTH = 64


def _too_deep(depth: int) -> None:
    if depth <= 0:
        raise LevelError("level recursion exhausted its depth budget")


def _as_truth(v: Verdict) -> Verdict:
    if v.kind == IN:
        return V_TRUE
    if v.kind == OUT:
        return V_FALSE
    return v


def _check_sentence(a: Formula, gamma: OrdNotation) -> None:
    """a must be a sentence of the level-gamma realisability language."""
    if free_vars(a):
        raise OpenFormulaError(print_formula(a))
    if not in_language(a, gamma, REAL_SIDE):
        raise LevelError("not a realisability sentence below %s"
                         % print_ord(gamma))


# Each public entry point checks its sentence once.  The private helpers
# below recurse without checking again: every formula they reach is a
# sentence of the same side below the same level (instances of closed
# bodies, subformulas, and decoded sentences strictly below an atom's
# level, which is itself below gamma).

def truth(a: Formula, pole: PoleSpec, b: Budget, kernel: Kernel, *,
          gamma: OrdNotation = O_ZERO) -> Verdict:
    """Budgeted truth of a sentence with levels below gamma in the
    intended model; on atom-free sentences, classical truth over the
    standard model.

    Universal sentences are never reported true: without a syntactic
    bound the evaluator can only fail to falsify them, and reports
    unknown with reason WIDTH.  An implication that the definite sides do
    not decide keeps the reason of its first unknown side.
    """
    if free_vars(a):
        raise OpenFormulaError(print_formula(a))
    top = max_level(a)
    if top is not None and compare(top, gamma) != LESS:
        raise LevelError("formula level exceeds %s" % print_ord(gamma))
    return _truth(a, pole, b, kernel, _DEPTH)


def _truth(a: Formula, pole: PoleSpec, b: Budget, kernel: Kernel,
           depth: int) -> Verdict:
    _too_deep(depth)
    if isinstance(a, Eq):
        return V_TRUE if eval_term(a.l) == eval_term(a.r) else V_FALSE
    if isinstance(a, InPole):
        return _as_truth(member(eval_term(a.t), pole, b.fuel, kernel))
    if isinstance(a, (Fals, Real, Tru)):
        side = TRUTH_SIDE if isinstance(a, Tru) else REAL_SIDE
        sent = decode_sentence(eval_term(a.t), side, a.level)
        if sent is None:
            return V_FALSE
        if isinstance(a, Tru):
            return _truth(sent, pole, b, kernel, depth - 1)
        if isinstance(a, Fals):
            return _as_truth(_refutes(eval_term(a.s), sent, pole, b, kernel,
                                      depth - 1))
        return _as_truth(_realises(eval_term(a.s), sent, pole, b, kernel,
                                   random.Random(0), depth - 1).verdict)
    if isinstance(a, Imp):
        ta = _truth(a.a, pole, b, kernel, depth)
        tb = _truth(a.b, pole, b, kernel, depth)
        if ta.kind == FALSE or tb.kind == TRUE:
            return V_TRUE
        if ta.kind == TRUE and tb.kind == FALSE:
            return V_FALSE
        return ta if ta.kind == UNKNOWN else tb
    if isinstance(a, All):
        if a.var not in free_vars(a.body):
            # the quantifier is vacuous; the body decides the sentence
            t = _truth(a.body, pole, b, kernel, depth)
            return Verdict(FALSE, witness=0) if t.kind == FALSE else t
        for n in range(b.width):
            t = _truth(subst(a.body, a.var, Num(n)), pole, b, kernel, depth)
            if t.kind == FALSE:
                return Verdict(FALSE, witness=n)
        return Verdict(UNKNOWN, WIDTH)
    raise TypeError(a)


def _unfold(a: Formula) -> Optional[Formula]:
    """The explicit unfolding of the Fals or Real atom a, or None when its
    code names no sentence."""
    sent = decode_sentence(eval_term(a.t), REAL_SIDE, a.level)
    if sent is None:
        return None
    return (explicit_refutation if isinstance(a, Fals)
            else explicit_realisation)(Num(eval_term(a.s)), sent)


def refutes(m: Nat, a: Formula, pole: PoleSpec, b: Budget, kernel: Kernel,
            *, gamma: OrdNotation = O_ZERO) -> Verdict:
    """Whether m is a refuter of the sentence a."""
    _check_sentence(a, gamma)
    return _refutes(m, a, pole, b, kernel, _DEPTH)


def _refutes(m: Nat, a: Formula, pole: PoleSpec, b: Budget, kernel: Kernel,
             depth: int) -> Verdict:
    _too_deep(depth)
    if isinstance(a, Eq):
        if eval_term(a.l) != eval_term(a.r):
            return V_IN  # a false equation is refuted by every number
        return member(m, pole, b.fuel, kernel)
    if isinstance(a, InPole):
        v = member(eval_term(a.t), pole, b.fuel, kernel)
        if v.kind == OUT:
            return V_IN  # vacuous: the guard fails
        if v.kind == IN:
            return member(m, pole, b.fuel, kernel)
        return v
    if isinstance(a, (Fals, Real)):
        unfold = _unfold(a)
        if unfold is None:
            return V_OUT  # no refuters of an atom about a non-sentence
        return _refutes(m, unfold, pole, b, kernel, depth - 1)
    if isinstance(a, Imp):
        m0, m1 = vunpair(m)
        return verdict_and(
            _realises(m0, a.a, pole, b, kernel, random.Random(0),
                      depth).verdict,
            _refutes(m1, a.b, pole, b, kernel, depth))
    if isinstance(a, All):
        m0, m1 = vunpair(m)
        return _refutes(m1, subst(a.body, a.var, Num(m0)), pole, b, kernel,
                        depth)
    raise TypeError(a)


def realises(n: Nat, a: Formula, pole: PoleSpec, b: Budget, kernel: Kernel,
             rng: Optional[random.Random] = None, *,
             gamma: OrdNotation = O_ZERO) -> RealVerdict:
    """Whether n realises a; exact under the empty pole, else sampled."""
    _check_sentence(a, gamma)
    return _realises(n, a, pole, b, kernel, rng or random.Random(0), _DEPTH)


def _realises(n: Nat, a: Formula, pole: PoleSpec, b: Budget, kernel: Kernel,
              rng: random.Random, depth: int) -> RealVerdict:
    _too_deep(depth)
    if isinstance(pole, Empty):
        t = _truth(a, pole, b, kernel, depth)
        if t.kind == TRUE:
            return RealVerdict(V_IN, 0)
        if t.kind == FALSE:
            try:
                w = _sample_refuters(a, pole, 1, b, kernel, rng, depth)[0]
            except EmptySampleError:
                w = None
            return RealVerdict(Verdict(OUT, witness=w), 0)
        return RealVerdict(t, 0)
    try:
        refs = _sample_refuters(a, pole, b.samples, b, kernel, rng, depth)
    except EmptySampleError:
        return RealVerdict(V_IN, 0)  # refuter set provably empty
    except _SampleUnknown as exc:
        return RealVerdict(exc.args[0], 0)
    unknown = None
    for i, m in enumerate(refs):
        v = member(vpair(n, m), pole, b.fuel, kernel)
        if v.kind == OUT:
            return RealVerdict(Verdict(OUT, witness=m), i + 1)
        if v.kind == UNKNOWN:
            unknown = unknown or v
    return RealVerdict(unknown or V_IN, len(refs))


class _SampleUnknown(Exception):
    """Sampling blocked by an unknown pole membership, its argument."""


def certified_realiser(a: Formula, pole: PoleSpec, b: Budget,
                       kernel: Kernel, *,
                       gamma: OrdNotation = O_ZERO) -> Nat:
    """A number guaranteed to realise a, used to build refuter samples."""
    _check_sentence(a, gamma)
    return _certified(a, pole, b, kernel, _DEPTH)


def _certified(a: Formula, pole: PoleSpec, b: Budget, kernel: Kernel,
               depth: int) -> Nat:
    if isinstance(pole, Empty):
        t = _truth(a, pole, b, kernel, depth)
        if t.kind == TRUE:  # under the empty pole every number realises it
            return 0
        raise EmptySampleError(
            "no realiser of %r available under the empty pole"
            % print_formula(a))
    if isinstance(pole, Full):
        return 0
    r = kernel.apply(_K_BOT, min(pole.seed), b.fuel)
    if not isinstance(r, Value):
        raise EmptySampleError("continuation constant did not reduce")
    return r.n


def sample_refuters(a: Formula, pole: PoleSpec, k: int, b: Budget,
                    kernel: Kernel, rng: Optional[random.Random] = None, *,
                    gamma: OrdNotation = O_ZERO) -> list:
    """k certified refuters of a, structurally varied.

    Raises EmptySampleError when the refuter set is provably empty
    (e.g. a true equation under the empty pole).
    """
    _check_sentence(a, gamma)
    return _sample_refuters(a, pole, k, b, kernel, rng or random.Random(0),
                            _DEPTH)


def _sample_refuters(a: Formula, pole: PoleSpec, k: int, b: Budget,
                     kernel: Kernel, rng: random.Random, depth: int) -> list:
    out = _sample(a, pole, k, b, kernel, rng, depth)
    if not out:
        raise EmptySampleError(print_formula(a))
    # cycle when structure yields fewer than k
    return list(islice(cycle(out), k))


_WITNESS_BASE = [0, 1, 2, 3, 5, 7, 11, 17]


def _pole_elements(pole: PoleSpec, k: int, rng: random.Random) -> list:
    if isinstance(pole, Empty):
        raise EmptySampleError("the empty pole has no elements")
    if isinstance(pole, Full):
        return [rng.randrange(0, 10**6) for _ in range(k)]
    seed = sorted(pole.seed)
    return [seed[i % len(seed)] for i in range(k)]


def _any_numbers(k: int, rng: random.Random) -> list:
    base = list(range(min(k, 8)))
    while len(base) < k:
        base.append(rng.randrange(0, 10**6))
    return base[:k]


def _sample(a: Formula, pole: PoleSpec, k: int, b: Budget, kernel: Kernel,
            rng: random.Random, depth: int) -> list:
    _too_deep(depth)
    if isinstance(a, Eq):
        if eval_term(a.l) != eval_term(a.r):
            return _any_numbers(k, rng)
        return _pole_elements(pole, k, rng)
    if isinstance(a, InPole):
        v = member(eval_term(a.t), pole, b.fuel, kernel)
        if v.kind == OUT:  # vacuous guard: every number refutes
            return _any_numbers(k, rng)
        if v.kind == IN:
            return _pole_elements(pole, k, rng)
        raise _SampleUnknown(v)
    if isinstance(a, (Fals, Real)):
        unfold = _unfold(a)
        if unfold is None:
            raise EmptySampleError(
                "atom about a non-sentence code has no refuters")
        return _sample(unfold, pole, k, b, kernel, rng, depth - 1)
    if isinstance(a, Imp):
        r = _certified(a.a, pole, b, kernel, depth)
        subs = _sample(a.b, pole, k, b, kernel, rng, depth)
        return [vpair(r, m) for m in subs]
    if isinstance(a, All):
        witnesses = list(_WITNESS_BASE) + [rng.randrange(20, 200)]
        per: list = []
        for w in witnesses:
            inst = subst(a.body, a.var, Num(w))
            try:
                ms = _sample(inst, pole, max(1, k // len(witnesses) + 1),
                             b, kernel, rng, depth)
            except EmptySampleError:
                continue
            per.extend(vpair(w, m) for m in ms)
            if len(per) >= k:
                break
        if not per:
            raise EmptySampleError(
                "no refutable instance found for %s" % print_formula(a))
        return per[:k]
    raise TypeError(a)


# ---------------------------------------------------------------------------
# Axiom-level agreement harness

def _vstr(v: Verdict) -> str:
    return v.kind if v.reason is None else "%s(%s)" % (v.kind, v.reason)


def check_cr_axioms(pole: PoleSpec, corpus: list, b: Budget, kernel: Kernel,
                    rng: Optional[random.Random] = None) -> list:
    """Evaluate both sides of each compositional axiom on sampled
    instances drawn from the corpus; returns JSON-ready records."""
    rng = rng or random.Random(0)
    records = []

    def rec(axiom: str, instance: str, lhs: Verdict, rhs: Verdict,
            samples: int):
        records.append({"axiom": axiom, "instance": instance,
                        "verdict": agreement(lhs, rhs), "lhs": _vstr(lhs),
                        "rhs": _vstr(rhs), "samples": samples})

    # (Ax_pole): converse closure, via identity-style programs
    ident = encode(Lam(Var(0)))
    for base in [0, 3, 17]:
        n = vpair(ident, base)
        lhs = member(base, pole, b.fuel, kernel)
        rhs = member(n, pole, b.fuel, kernel)
        if lhs.kind == IN:
            rec("Ax_pole", "<id, %d>" % base, rhs, V_IN, 1)
        else:
            rec("Ax_pole", "<id, %d>" % base, V_IN, V_IN, 1)

    for a in corpus:
        text = print_formula(a)
        # (Ax_T): a T |A| iff every refuter pairs into the pole
        n = rng.randrange(0, 50)
        lhs_r = realises(n, a, pole, b, kernel, rng)
        try:
            ms = sample_refuters(a, pole, min(b.samples, 5), b, kernel, rng)
            rhs = verdict_and(*[member(vpair(n, m), pole, b.fuel, kernel)
                                for m in ms])
            rec("Ax_T", text, lhs_r.verdict, rhs, len(ms))
        except EmptySampleError:
            rec("Ax_T", text, V_IN if lhs_r.verdict.kind != OUT
                else lhs_r.verdict, V_IN, 0)

        if isinstance(a, Eq):
            true_eq = eval_term(a.l) == eval_term(a.r)
            for m in range(0, 101, 20):
                lhs = refutes(m, a, pole, b, kernel)
                if not true_eq:
                    rec("CR_=1", text, lhs, V_IN, 1)
                else:
                    rec("CR_=2", text, lhs, member(m, pole, b.fuel, kernel),
                        1)
        if isinstance(a, Imp):
            m0 = rng.randrange(0, 30)
            m1 = rng.randrange(0, 30)
            m = vpair(m0, m1)
            lhs = refutes(m, a, pole, b, kernel)
            rhs = verdict_and(realises(m0, a.a, pole, b, kernel,
                                       rng).verdict,
                              refutes(m1, a.b, pole, b, kernel))
            rec("CR_imp", text, lhs, rhs, 1)
        if isinstance(a, All):
            m0 = rng.randrange(0, 10)
            m1 = rng.randrange(0, 30)
            lhs = refutes(vpair(m0, m1), a, pole, b, kernel)
            rhs = refutes(m1, subst(a.body, a.var, Num(m0)), pole, b,
                          kernel)
            rec("CR_all", text, lhs, rhs, 1)
    return records
