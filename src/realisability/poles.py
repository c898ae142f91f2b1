"""Pole specifications and fuel-bounded membership.

A pole is a set of naturals conversely closed under computation: if
``e . m`` evaluates to an element of the pole then the pair ``<e, m>``
is in the pole.  The empty set and the full set satisfy this trivially;
a generated pole is the least superset of a finite seed closed under
the rule.  Membership in a generated pole is only semi-decidable, so
queries return a three-valued verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .vm import Diverged, Kernel, Nat, Value, vint, vle, vunpair


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Full:
    pass


@dataclass(frozen=True)
class Generated:
    seed: frozenset  # finite decidable seed of small naturals
    chase_depth: int = 64

    def __post_init__(self):
        object.__setattr__(self, "seed", frozenset(int(x) for x in self.seed))
        if not self.seed:
            raise ValueError("a generated pole needs a non-empty seed "
                             "(the empty seed generates the empty pole)")


PoleSpec = Union[Empty, Full, Generated]

IN = "in"
OUT = "out"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    kind: str  # "in" | "out" | "unknown"
    reason: Optional[str] = None  # for unknown: "fuel" | "depth" | ...

    def definite(self) -> bool:
        return self.kind != UNKNOWN


V_IN = Verdict(IN)
V_OUT = Verdict(OUT)


def verdict_not(v: Verdict) -> Verdict:
    if v.kind == IN:
        return V_OUT
    if v.kind == OUT:
        return V_IN
    return v


def verdict_and(*vs: Verdict) -> Verdict:
    reason = None
    for v in vs:
        if v.kind == OUT:
            return v
        if v.kind == UNKNOWN:
            reason = reason or v.reason
    if reason is not None:
        return Verdict(UNKNOWN, reason)
    return V_IN


def member(n: Nat, pole: PoleSpec, fuel: int, kernel: Kernel,
           depth: Optional[int] = None) -> Verdict:
    """Three-valued membership test for n in the pole."""
    if isinstance(pole, Empty):
        return V_OUT
    if isinstance(pole, Full):
        return V_IN
    seed = pole.seed
    bound = max(seed)
    remaining = pole.chase_depth if depth is None else depth
    while True:
        if vle(n, bound) and vint(n) in seed:
            return V_IN
        if remaining <= 0:
            return Verdict(UNKNOWN, "depth")
        # n = <e, m>; chase the converse-closure rule backwards
        e, m = vunpair(n)
        r = kernel.apply(e, m, fuel)
        if isinstance(r, Diverged):
            if r.reason == "stuck":
                # e . m is definitely undefined, so n cannot enter the
                # least closure through this pair
                return V_OUT
            return Verdict(UNKNOWN, "fuel")
        assert isinstance(r, Value)
        n = r.n
        remaining -= 1
