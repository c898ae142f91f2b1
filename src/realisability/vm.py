"""Applicative kernel: programs coded as naturals and fuel-bounded application.

Programs are a small de Bruijn lambda calculus with numerals, pairing,
case analysis on zero, fixed points, and registered host primitives.
Every program has a numeric code, <tag, fields>: the tag is the class's
position in Var, Lam, App, Lit, Suc, Pred, IfZ, Pair, Proj0, Proj1, Fix,
Prim, Stuck, and the fields follow in declaration order, paired from the
right (<f1, <f2, f3>>, or 0 for none), a program by its code and a
natural as it is.  Application ``e . m`` runs the program ``e`` codes on
``m`` under a step budget.

A primitive registered with ``Kernel.register_primitive`` is called as
``fn(kernel, v)``, with the kernel that runs it, and charges ``cost(v)``.

The kernel is an environment machine.  Applying a code looks up its
closure, a (program, env) pair, so a code is decoded once: the closures
of ``int`` codes sit in the kernel's one memo (``Kernel.kept``), and a
``PV`` code keeps its closure in its ``clo`` slot for as long as the
code lives.  An argument is bound in the env, not substituted.  A Lam
or Fix evaluated as a value stands for the code a non-shifting
substitution followed by ``encode`` would give, and keeps (program,
env) as its closure (``Kernel.code``).  That code is built
only when something reads it: a value whose code is at least 2^64, as a
lower bound cached on the program shows, is a ``PV`` whose children are
filled in when first read (by ``vunpair``, ``==``, ``hash``, ``vint``,
``vbits`` or printing), and applying it runs its closure without
building them.  Only a code that may be below 2^64 is built at once,
so that it can be an ``int``.  Continuations are kept on an explicit
stack.  Fuel is one unit per program node evaluated, one per
application step, plus each primitive's cost, plus one unit per 64 bits
of ``vbits(v)`` where ``Suc`` or ``Pred`` expands a ``PV`` v into an
int, exactly as for decode-substitute-encode evaluation (the oracle of
the kernel's differential tests); building a code is not charged.

A fixed point whose body gives back that fixed point itself (the same
object) with the stack below untouched leaves the machine in the state
in which the fixed point was applied, c units later, where c >= 2: one
for the application step and at least one for a body node.  The
machine is deterministic and a primitive's result depends only on its
argument and the kernel's primitives, so the run repeats that period
until its fuel is gone.  The kernel skips the whole periods in one step,
keeping the remainder of its fuel modulo c, and runs the last partial
period, so the run runs out of fuel with exactly the fuel cell that
stepping every period would leave.  A
primitive inside a skipped period is not called again.

Naturals are represented sparsely: a value below 2^64 is a Python
``int``, and a value at or above 2^64 is a ``PV`` node standing for the
Cantor pair of two values, since deeply nested pairs have astronomically
many digits when written out.  The form is canonical (``vnat`` gives it
for any int, and ``vpair`` and the kernel keep it), so each natural has
one representation and ``==`` and ``hash`` are value equality.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Optional, Union

from ._record import record

# decoding, encoding and the sparse-natural helpers recurse along structure
if sys.getrecursionlimit() < 100000:
    sys.setrecursionlimit(100000)


# ---------------------------------------------------------------------------
# Cantor pairing on concrete naturals

def pair(x: int, y: int) -> int:
    """Cantor pair <x, y> = (x+y)(x+y+1)/2 + y."""
    if x < 0 or y < 0:
        raise ValueError("pair arguments must be naturals")
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    """Inverse of pair; total on naturals."""
    if z < 0:
        raise ValueError("unpair argument must be a natural")
    w = (math.isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    y = z - t
    x = w - y
    return x, y


# ---------------------------------------------------------------------------
# Sparse naturals

# Pairs whose concrete value stays below this bound are kept as plain ints.
_SMALL = 1 << 64


class PV:
    """The Cantor pair of two sparse naturals, kept unexpanded.  Only this
    module builds one, and only in canonical form: its value is at least
    2^64, and each child is an int below 2^64 or a PV.

    The code of a closure may be a PV whose children are not built yet
    (see ``Kernel.code``): then ``a`` and ``b`` are unset, and the first
    read of either fills both from ``clo``."""

    __slots__ = ("a", "b", "clo", "_hash", "key")

    def __init__(self, a: "Nat", b: "Nat"):
        self.a = a
        self.b = b
        self.clo = None  # the kernel's (program, env) for this code
        self._hash = None  # the structural hash, found when first asked
        self.key = None  # the pole-chase memo's key, found when first asked

    def __getattr__(self, name: str):
        # reached only when a slot is unset: a child of a closure's code
        # that has not been built
        if name not in ("a", "b") or self.clo is None:
            raise AttributeError(name)
        prog, env = self.clo
        code = _close(prog, env, 0)
        self.a = code.a
        self.b = code.b
        return code.a if name == "a" else code.b

    def __eq__(self, other: object) -> bool:
        if type(other) is PV:
            return _pv_eq(self, other)
        # a canonical int is below 2^64, so it is never equal to a PV
        return False if isinstance(other, int) else NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        return _pv_hash(self) if h is None else h

    def __repr__(self) -> str:
        # a shared tower has few nodes but exponentially many leaves, so
        # show one level and a bound on the size
        a, b = ("PV(...)" if type(c) is PV else repr(c)
                for c in (self.a, self.b))
        return "PV(%s, %s)[< 2^%d]" % (a, b, vbits(self))


Nat = Union[int, PV]


def _pv_eq(u: PV, v: PV) -> bool:
    """Value equality of two PVs: each pair of nodes is compared once, so
    values that share subtrees compare in time linear in their node
    count."""
    todo, seen = [(u, v)], set()
    while todo:
        a, b = todo.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        if type(a) is not PV or type(b) is not PV:
            if type(a) is not type(b) or a != b:
                return False
            continue
        seen.add((id(a), id(b)))
        todo += ((a.b, b.b), (a.a, b.a))
    return True


def _pv_hash(v: PV) -> int:
    """The hash of the pair of v's children, each an int or its hash;
    each node reached keeps its own, so shared nodes are hashed once."""
    a, b = v.a, v.b
    if type(a) is PV:
        a = _pv_hash(a) if a._hash is None else a._hash
    if type(b) is PV:
        b = _pv_hash(b) if b._hash is None else b._hash
    v._hash = h = hash((a, b))
    return h


def vnat(n: Nat) -> Nat:
    """The canonical form of the natural n: an int below 2^64 as it is,
    a larger int as the PV of its Cantor components.  A PV is returned
    as it is."""
    if type(n) is not int or n < _SMALL:
        return n
    a, b = unpair(n)
    return PV(vnat(a), vnat(b))


def vpair(a: Nat, b: Nat) -> Nat:
    if isinstance(a, int):
        if isinstance(b, int):
            z = pair(a, b)
            return z if z < _SMALL else PV(vnat(a), vnat(b))
        if a >= _SMALL:
            a = vnat(a)
    elif isinstance(b, int) and b >= _SMALL:
        b = vnat(b)
    return PV(a, b)


def vunpair(v: Nat) -> tuple[Nat, Nat]:
    if isinstance(v, int):
        return unpair(v)
    return v.a, v.b


def vint(v: Nat) -> int:
    """Concrete value of a sparse natural.  May be extremely large."""
    if isinstance(v, int):
        return v
    return pair(vint(v.a), vint(v.b))


def vbits(v: Nat) -> int:
    """An upper bound on the bit length of v, found without expanding it:
    bits <a, b> <= 2 max(bits a, bits b) + 2.  Shared nodes are bounded
    once, so the time is linear in v's node count."""
    known: dict[int, int] = {}

    def bound(v: Nat) -> int:
        if type(v) is not PV:
            return v.bit_length()
        b = known.get(id(v))
        if b is None:
            b = known[id(v)] = 2 * max(bound(v.a), bound(v.b)) + 2
        return b

    return bound(v)


def vle(v: Nat, n: int) -> bool:
    """Whether v <= n, for n below 2^64: a PV is at least 2^64."""
    return type(v) is int and v <= n


# ---------------------------------------------------------------------------
# Programs

@record
class Var:
    index: int  # de Bruijn index, 0 = innermost binder


@record
class Lam:
    body: "Program"


@record
class App:
    fn: "Program"
    arg: "Program"


@record
class Lit:
    n: Nat


@record
class Suc:
    p: "Program"


@record
class Pred:
    p: "Program"


@record
class IfZ:
    scrutinee: "Program"
    zero: "Program"
    succ: "Program"


@record
class Pair:
    l: "Program"
    r: "Program"


@record
class Proj0:
    p: "Program"


@record
class Proj1:
    p: "Program"


@record
class Fix:
    body: "Program"  # Var 0 in the body is the fixed point itself


@record
class Prim:
    pid: int
    arg: "Program"


@record
class Stuck:
    pass


Program = Union[Var, Lam, App, Lit, Suc, Pred, IfZ, Pair, Proj0, Proj1,
                Fix, Prim, Stuck]

# The code format of the module docstring, read by _close, _floor and
# decode: a class's tag is its position here, and each field's kind is P
# (a Program, by its code), N (a natural, as it is) or I (a natural that
# decodes only from an int: a PV there decodes to Stuck).
_FORMAT = ((Var, "I"), (Lam, "P"), (App, "PP"), (Lit, "N"), (Suc, "P"),
           (Pred, "P"), (IfZ, "PPP"), (Pair, "PP"), (Proj0, "P"),
           (Proj1, "P"), (Fix, "P"), (Prim, "IP"), (Stuck, ""))


class _Layout(dict):
    """Class -> its format; a class with none is a TypeError."""
    def __missing__(self, cls):
        raise TypeError("no format for %r" % (cls,))


# class -> (tag, ((field name, whether it is a Program), ...)), the fields
# last first, as the pairs nest
_LAYOUT = _Layout({
    cls: (tag, tuple((f, k == "P")
                     for f, k in zip(cls._fields, kinds, strict=True))[::-1])
    for tag, (cls, kinds) in enumerate(_FORMAT)})
_TAG_LIT = _LAYOUT[Lit][0]


def encode(p: Program) -> Nat:
    return _close(p, (), 0)


def _close(p: Program, env: tuple, d: int) -> Nat:
    """The code of p under d binders, reading Var(d+i) as Lit(env[i]).

    With an empty env this is plain encoding.  Otherwise it is the code
    a non-shifting substitution of env's values for the variables they
    bind would give, innermost first: indices past env are left as they
    are."""
    t = type(p)
    if t is Var and 0 <= p.index - d < len(env):
        return vpair(_TAG_LIT, env[p.index - d])
    tag, layout = _LAYOUT[t]
    if t is Lam or t is Fix:
        d += 1
    code = None
    for name, prog in layout:
        x = _close(getattr(p, name), env, d) if prog else getattr(p, name)
        code = x if code is None else vpair(x, code)
    return vpair(tag, 0 if code is None else code)


def _floor(p: Program) -> int:
    """A lower bound on the code of p under any binders and env, capped at
    2^64: a Var counts as 0, and pairing is monotone in each argument.
    A program node is never assigned a field after it is built, so the
    bound is kept on the node once found.  A pair is at least each of its
    components, so once the fields paired so far reach the cap the rest
    of the node is not walked."""
    f = getattr(p, "_floor", None)
    if f is not None:
        return f
    if type(p) is Var:
        return 0
    tag, layout = _LAYOUT[type(p)]
    code = None
    for name, prog in layout:
        x = getattr(p, name)
        x = _floor(x) if prog else x if type(x) is int else _SMALL
        code = x if code is None else pair(x, code)
        if code >= _SMALL:
            break
    p._floor = f = min(pair(tag, 0 if code is None else code), _SMALL)
    return f


def decode(v: Nat) -> Program:
    """Total decoding; codes outside the image become Stuck."""
    tag, rest = vunpair(v)
    if type(tag) is not int or tag >= len(_FORMAT):
        return Stuck()
    cls, kinds = _FORMAT[tag]
    args = []
    unpaired = len(kinds) - 1  # the last field is the rest itself
    for kind in kinds:
        if unpaired:
            x, rest = vunpair(rest)
            unpaired -= 1
        else:
            x = rest
        if kind == "P":
            x = decode(x)
        elif kind == "I" and type(x) is PV:
            return Stuck()
        args.append(x)
    return cls(*args)


# ---------------------------------------------------------------------------
# Evaluation

@record
class Value:
    n: Nat
    fuel_used: int = 0


# the reasons a run diverges: it ran out of fuel, or it is stuck, so
# its result is undefined
FUEL = "fuel"
STUCK = "stuck"


@record
class Diverged:
    reason: str  # FUEL | STUCK


EvalResult = Union[Value, Diverged]


class OutOfFuel(Exception):
    pass


class StuckError(Exception):
    pass


# How many entries a Kernel's memo holds before it is emptied.
MEMO_SIZE = 1 << 12
_MISSING = object()  # what the memo holds under a key that is not there


# Continuation frames of the machine, tagged by their first item.
_K_ARG = 0  # (_K_ARG, arg, env): evaluate an App's argument next
_K_CALL = 1  # (_K_CALL, vf): apply vf to the value
# (_K_UNFOLD, va, vf, left): apply the body's value to va; the fixed
# point vf was applied to va with left + 1 fuel
_K_UNFOLD = 2
_K_PAIR_R = 3  # (_K_PAIR_R, r, env): evaluate a Pair's right side next
_K_PAIRED = 4  # (_K_PAIRED, l): pair l with the value
_K_PRIM = 5  # (_K_PRIM, pid): run primitive pid on the value
_K_IFZ = 6  # (_K_IFZ, zero, succ, env): branch on the value
_PROJ0_FRAME = (7,)
_PROJ1_FRAME = (8,)
_SUC_FRAME = (9,)
_PRED_FRAME = (10,)


class Kernel:
    """Holds the primitive registry and one memo, and runs the
    environment machine described in the module docstring."""

    def __init__(self) -> None:
        self._prims: dict[int, tuple[Callable[["Kernel", Nat], Nat],
                                     Callable[[Nat], int]]] = {}
        # the one memo: int codes' closures, and what ``kept`` keeps
        self.facts: dict = {}

    def register_primitive(self, pid: int,
                           fn: Callable[["Kernel", Nat], Nat],
                           cost: Optional[Callable[[Nat], int]] = None) -> int:
        """Register fn as primitive pid: ``Prim(pid, p)`` charges cost(v)
        (1 by default) for p's value v, then gives ``fn(kernel, v)``, or
        is stuck when fn raises StuckError.  A new primitive changes what
        runs compute, so the memo is emptied."""
        if pid in self._prims:
            raise ValueError("primitive id %d already registered" % pid)
        self._prims[pid] = (fn, cost or (lambda _v: 1))
        self.facts.clear()
        return pid

    def kept(self, key: tuple, fn: Callable, *args):
        """fn(*args), a function of key and the primitives, kept under key:
        a tuple that starts with the function that makes the value, so
        layers cannot collide.  Neither key nor value may hold the kernel.
        Only a value fn returns is kept: an exception keeps nothing."""
        v = self.facts.get(key, _MISSING)
        if v is _MISSING:
            v = self._remember(key, fn(*args))
        return v

    def _remember(self, key, value):
        """facts[key] = value, emptying a full memo first; returns value."""
        facts = self.facts
        if len(facts) >= MEMO_SIZE:
            facts.clear()
        facts[key] = value
        return value

    def code(self, p: Program, env: tuple = ()) -> Nat:
        """The code of the Lam or Fix p with env read in, ``_close(p, env,
        0)``, with (p, env) kept as its closure.  When p's floor shows the
        code is at least 2^64 it is not built here: it is a PV whose
        children are filled in when first read."""
        if _floor(p) >= _SMALL:
            v = PV.__new__(PV)
            v._hash = v.key = None
            v.clo = (p, env)
            return v
        v = _close(p, env, 0)
        self._keep(v, (p, env))
        return v

    def closure(self, v: Nat) -> tuple[Program, tuple]:
        """The (program, env) pair the machine runs when v is applied:
        the one v was made from by ``code``, else v decoded."""
        clo = v.clo if type(v) is PV else self.facts.get(v)
        if clo is None:
            clo = (decode(v), ())
            self._keep(v, clo)
        return clo

    def _keep(self, v: Nat, clo: tuple[Program, tuple]) -> None:
        """Record clo as the closure of the code v."""
        if type(v) is PV:
            v.clo = clo
        else:
            self._remember(v, clo)

    def _machine(self, p: Optional[Program], env: tuple, vf: Nat, va: Nat,
                 fuel: list[int]) -> Nat:
        """Evaluate p in env, or apply vf to va when p is None, charging
        the cell fuel[0]."""
        left = fuel[0]
        memo = self.facts
        stack: list = []
        push = stack.append
        pop = stack.pop
        try:
            while True:
                if p is None:  # apply vf to va
                    left -= 1
                    if left < 0:
                        raise OutOfFuel()
                    if type(vf) is PV:
                        clo = vf.clo or self.closure(vf)
                    else:
                        clo = memo.get(vf) or self.closure(vf)
                    prog, cenv = clo
                    t = type(prog)
                    if t is Lam:
                        p = prog.body
                        env = (va,) + cenv
                    elif t is Fix:
                        # one-step unfolding: Var 0 is the fixed point
                        push((_K_UNFOLD, va, vf, left))
                        p = prog.body
                        env = (vf,) + cenv
                    else:
                        raise StuckError()
                left -= 1
                if left < 0:
                    raise OutOfFuel()
                t = type(p)
                if t is Var:
                    if not 0 <= p.index < len(env):
                        raise StuckError()
                    v = env[p.index]
                elif t is App:
                    push((_K_ARG, p.arg, env))
                    p = p.fn
                    continue
                elif t is Lit:
                    v = p.n
                elif t is Lam or t is Fix:
                    v = self.code(p, env)
                elif t is Prim:
                    push((_K_PRIM, p.pid))
                    p = p.arg
                    continue
                elif t is Pair:
                    push((_K_PAIR_R, p.r, env))
                    p = p.l
                    continue
                elif t is IfZ:
                    push((_K_IFZ, p.zero, p.succ, env))
                    p = p.scrutinee
                    continue
                elif t is Proj0:
                    push(_PROJ0_FRAME)
                    p = p.p
                    continue
                elif t is Proj1:
                    push(_PROJ1_FRAME)
                    p = p.p
                    continue
                elif t is Suc:
                    push(_SUC_FRAME)
                    p = p.p
                    continue
                elif t is Pred:
                    push(_PRED_FRAME)
                    p = p.p
                    continue
                else:
                    raise StuckError()
                # return v to the continuations until one has work to do
                while True:
                    if not stack:
                        return v
                    frame = pop()
                    k = frame[0]
                    if k == _K_ARG:
                        push((_K_CALL, v))
                        p = frame[1]
                        env = frame[2]
                        break
                    if k == _K_CALL:
                        vf = frame[1]
                        va = v
                        p = None
                        break
                    if k == _K_UNFOLD:
                        if v is frame[2]:
                            # the body gave back the fixed point itself
                            # and the stack below is untouched, so the
                            # run is back in the state the frame was
                            # pushed in, c = frame[3] + 1 - left >= 2
                            # units later; it repeats that period until
                            # its fuel is gone: skip the whole periods
                            left %= frame[3] + 1 - left
                        vf = v
                        va = frame[1]
                        p = None
                        break
                    if k == _K_PAIR_R:
                        push((_K_PAIRED, v))
                        p = frame[1]
                        env = frame[2]
                        break
                    if k == _K_PAIRED:
                        v = vpair(frame[1], v)
                    elif k == _K_PRIM:
                        entry = self._prims.get(frame[1])
                        if entry is None:
                            raise StuckError()
                        fn, cost = entry
                        left -= cost(v)
                        if left < 0:
                            raise OutOfFuel()
                        v = fn(self, v)
                    elif k == _K_IFZ:
                        p = frame[1] if v == 0 else frame[2]
                        env = frame[3]
                        break
                    elif frame is _PROJ0_FRAME:
                        v = vunpair(v)[0]
                    elif frame is _PROJ1_FRAME:
                        v = vunpair(v)[1]
                    else:  # Suc or Pred
                        if type(v) is PV:
                            # expanding v costs one unit per 64 bits
                            left -= (vbits(v) + 63) >> 6
                            if left < 0:
                                raise OutOfFuel()
                            v = vint(v)
                        if frame is _SUC_FRAME:
                            v += 1
                        else:
                            v = v - 1 if v > 0 else 0
                        if v >= _SMALL:
                            v = vnat(v)
        finally:
            fuel[0] = left

    def _apply_value(self, vf: Nat, va: Nat, fuel: list[int]) -> Nat:
        # apply's one call with its fuel cell, where bench/tracer.py reads
        # the cell
        return self._machine(None, (), vf, va, fuel)

    def apply(self, e: Nat, m: Nat, fuel: int) -> EvalResult:
        """Kleene application e . m under a step budget."""
        return self._result(fuel, self._apply_value, e, m)

    def run(self, p: Program, fuel: int) -> EvalResult:
        """Evaluate a closed program outright."""
        return self._result(fuel, self._machine, p, (), None, None)

    @staticmethod
    def _result(fuel: int, fn: Callable, *args) -> EvalResult:
        """fn(*args, cell) on a fuel cell holding fuel, as a Value with the
        fuel it used, or as Diverged when it ran out or was stuck."""
        if fuel <= 0:
            raise ValueError("fuel must be positive")
        cell = [fuel]
        try:
            return Value(fn(*args, cell), fuel - cell[0])
        except OutOfFuel:
            return Diverged(FUEL)
        except StuckError:
            return Diverged(STUCK)
