"""Pole specifications and fuel-bounded membership.

A pole is a set of naturals conversely closed under computation: if
``e . m`` evaluates to an element of the pole then the pair ``<e, m>``
is in the pole.  The empty set and the full set satisfy this trivially;
a generated pole is the least superset of a finite seed closed under
the rule.  Membership in a generated pole is only semi-decidable, so
queries return a three-valued verdict.
"""

from __future__ import annotations

from typing import Optional, Union

from ._record import record
from .vm import (
    STUCK, Diverged, Kernel, Nat, Value, _remember, vunpair,
)


@record(frozen=True)
class Empty:
    pass


@record(frozen=True)
class Full:
    pass


@record(frozen=True)
class Generated:
    seed: frozenset  # finite seed of naturals below 2^64, so of ints
    chase_depth: int = 64

    def __post_init__(self):
        object.__setattr__(self, "seed", frozenset(int(x) for x in self.seed))
        if not self.seed:
            raise ValueError("a generated pole needs a non-empty seed "
                             "(the empty seed generates the empty pole)")
        if not all(0 <= x < 1 << 64 for x in self.seed):
            raise ValueError("a generated pole's seed holds naturals below "
                             "2^64")


PoleSpec = Union[Empty, Full, Generated]

IN = "in"
OUT = "out"
TRUE = "true"
FALSE = "false"
UNKNOWN = "unknown"

# the reason of an unknown membership when the chase reached its depth;
# the kernel's FUEL names the other budget a chase can run out of
DEPTH = "depth"


@record(frozen=True)
class Verdict:
    """A three-valued answer: IN or OUT for membership, refutation and
    realisation, TRUE or FALSE for truth, or UNKNOWN with the reason, the
    name of the budget that ran out.  A definite answer may carry a
    witness: a counterexample to a false universal, or a refuter that
    shows a number realises nothing."""

    kind: str
    reason: Optional[str] = None
    witness: Optional[Nat] = None

    def __post_init__(self):
        if self.kind == UNKNOWN and self.reason is None:
            raise ValueError("an unknown verdict names the budget that "
                             "ran out")

    def definite(self) -> bool:
        return self.kind != UNKNOWN


V_IN = Verdict(IN)
V_OUT = Verdict(OUT)


def diverged(reason: str) -> Verdict:
    """The verdict on a kernel run that diverged: a stuck run has no
    result, so out; any other ran out of its budget."""
    return V_OUT if reason == STUCK else Verdict(UNKNOWN, reason)


def verdict_and(*vs: Verdict) -> Verdict:
    unknown = None
    for v in vs:
        if v.kind == OUT:
            return V_OUT
        if v.kind == UNKNOWN:
            unknown = unknown or v
    return unknown or V_IN


AGREE = "agree"
DISAGREE = "disagree"


def agreement(lhs: Verdict, rhs: Verdict) -> str:
    """The record verdict on two answers to one question: UNKNOWN when
    either is unknown, else AGREE when both hold (in or true) or both
    fail, else DISAGREE."""
    if not (lhs.definite() and rhs.definite()):
        return UNKNOWN
    holds = (IN, TRUE)
    return AGREE if (lhs.kind in holds) == (rhs.kind in holds) else DISAGREE


class _Key:
    """The chase-memo key of a natural with a closure in it: a closure's
    program, compared by identity, with the keys of its env values; or,
    for a pair, None with the keys of its two children.  The hash is
    found once, from the parts' own kept hashes."""

    __slots__ = ("prog", "parts", "_hash")

    def __init__(self, prog, parts: tuple):
        self.prog = prog
        self.parts = parts
        self._hash = hash((id(prog), parts))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (type(other) is _Key and self.prog is other.prog
                and self.parts == other.parts)


# the kept key of a PV with no closure below it, which is its own key
_ITSELF = object()


def _chase_key(n: Nat):
    """The key of n in the chase memo, found without building the code of
    any closure in n.  An int is its own key.  A PV that carries a
    closure is keyed by its program and the keys of its env values; any
    other PV by the keys of its children, and one with no closure below
    it is its own key.  Equal keys imply equal values: one program object
    with equal envs has one code, and a decoded closure's program belongs
    to the one PV it was decoded from.  Equal values may have different
    keys (a closure and its code built apart), which costs only a miss.
    A key holds its program, so no id is reused while the key lives.
    Each PV keeps its key, so finding keys costs O(1) per node."""
    if type(n) is int:
        return n
    k = n.key
    if k is None:
        clo = n.clo
        if clo is not None:
            prog, env = clo
            k = _Key(prog, tuple([_chase_key(v) for v in env]))
        else:
            a, b = n.a, n.b
            ka, kb = _chase_key(a), _chase_key(b)
            k = _ITSELF if ka is a and kb is b else _Key(None, (ka, kb))
        n.key = k
    return n if k is _ITSELF else k


def member(n: Nat, pole: PoleSpec, fuel: int, kernel: Kernel) -> Verdict:
    """Three-valued membership test for n in the pole.  A chase's verdict
    depends only on n, the pole, the fuel and the kernel's primitives, so
    the kernel keeps it (see Kernel.chases), under n's ``_chase_key``, so
    that asking builds no closure's code."""
    if isinstance(pole, Empty):
        return V_OUT
    if isinstance(pole, Full):
        return V_IN
    chases = kernel.chases
    key = (pole, fuel, n if type(n) is int else _chase_key(n))
    v = chases.get(key)
    if v is None:
        v = _remember(chases, key, _chase(n, pole, fuel, kernel))
    return v


def _chase(n: Nat, pole: Generated, fuel: int, kernel: Kernel) -> Verdict:
    seed = pole.seed
    remaining = pole.chase_depth
    while True:
        if type(n) is int and n in seed:
            return V_IN
        if remaining <= 0:
            return Verdict(UNKNOWN, DEPTH)
        # n = <e, m>; chase the converse-closure rule backwards
        e, m = vunpair(n)
        r = kernel.apply(e, m, fuel)
        if isinstance(r, Diverged):
            # a stuck e . m is undefined, so n cannot enter the least
            # closure through this pair
            return diverged(r.reason)
        assert isinstance(r, Value)
        n = r.n
        remaining -= 1
