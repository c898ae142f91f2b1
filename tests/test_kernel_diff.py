"""Differential gate for the kernel: the environment machine must agree
with the substitution evaluator it replaced, value for value and fuel unit
for fuel unit."""

import pathlib
import random

from realisability.extraction import (
    extract_value, fresh_kernel, parse_proof,
)
from realisability.poles import Generated
from realisability.semantics import Budget, sample_refuters
from realisability.vm import (
    App, Diverged, Fix, IfZ, Kernel, Lam, Lit, OutOfFuel, PV, Pair, Pred,
    Prim, Proj0, Proj1, Stuck, StuckError, Suc, Value, Var, decode, encode,
    vbits, vint, vnat, vpair, vunpair,
)

PROOF_DIR = pathlib.Path(__file__).resolve().parent.parent \
    / "corpus" / "proofs"
FUELS = (1, 7, 60, 400, 3000)


def subst(p, depth, value):
    """Replace Var(depth) by Lit(value); only closed values are inserted."""
    if isinstance(p, Var):
        return Lit(value) if p.index == depth else p
    if isinstance(p, Lam):
        return Lam(subst(p.body, depth + 1, value))
    if isinstance(p, Fix):
        return Fix(subst(p.body, depth + 1, value))
    if isinstance(p, App):
        return App(subst(p.fn, depth, value), subst(p.arg, depth, value))
    if isinstance(p, Suc):
        return Suc(subst(p.p, depth, value))
    if isinstance(p, Pred):
        return Pred(subst(p.p, depth, value))
    if isinstance(p, IfZ):
        return IfZ(subst(p.scrutinee, depth, value),
                   subst(p.zero, depth, value),
                   subst(p.succ, depth, value))
    if isinstance(p, Pair):
        return Pair(subst(p.l, depth, value), subst(p.r, depth, value))
    if isinstance(p, Proj0):
        return Proj0(subst(p.p, depth, value))
    if isinstance(p, Proj1):
        return Proj1(subst(p.p, depth, value))
    if isinstance(p, Prim):
        return Prim(p.pid, subst(p.arg, depth, value))
    return p  # Lit, Stuck


class SubstKernel:
    """The substitution evaluator: decode the applied code, substitute the
    argument into its body, and encode every Lam or Fix value again.  It
    calls a primitive as the kernel does, fn(self, v), and keeps nothing:
    ``kept`` computes its value afresh each time."""

    def __init__(self, prims):
        self._prims = prims

    @staticmethod
    def kept(_key, fn, *args):
        return fn(*args)

    def _eval(self, p, fuel):
        fuel[0] -= 1
        if fuel[0] < 0:
            raise OutOfFuel()
        if isinstance(p, Lit):
            return p.n
        if isinstance(p, Lam) or isinstance(p, Fix):
            return encode(p)
        if isinstance(p, Var) or isinstance(p, Stuck):
            raise StuckError()
        if isinstance(p, Suc):
            return vnat(self._expand(self._eval(p.p, fuel), fuel) + 1)
        if isinstance(p, Pred):
            v = self._expand(self._eval(p.p, fuel), fuel)
            return vnat(v - 1 if v > 0 else 0)
        if isinstance(p, IfZ):
            v = self._eval(p.scrutinee, fuel)
            if v == 0:
                return self._eval(p.zero, fuel)
            return self._eval(p.succ, fuel)
        if isinstance(p, Pair):
            l = self._eval(p.l, fuel)
            r = self._eval(p.r, fuel)
            return vpair(l, r)
        if isinstance(p, Proj0):
            return vunpair(self._eval(p.p, fuel))[0]
        if isinstance(p, Proj1):
            return vunpair(self._eval(p.p, fuel))[1]
        if isinstance(p, App):
            vf = self._eval(p.fn, fuel)
            va = self._eval(p.arg, fuel)
            return self._apply_value(vf, va, fuel)
        if isinstance(p, Prim):
            va = self._eval(p.arg, fuel)
            entry = self._prims.get(p.pid)
            if entry is None:
                raise StuckError()
            fn, cost = entry
            fuel[0] -= cost(va)
            if fuel[0] < 0:
                raise OutOfFuel()
            return fn(self, va)
        raise StuckError()

    @staticmethod
    def _expand(v, fuel):
        """vint(v), charging one unit per 64 bits of vbits(v) for a PV."""
        if isinstance(v, PV):
            fuel[0] -= (vbits(v) + 63) // 64
            if fuel[0] < 0:
                raise OutOfFuel()
        return vint(v)

    def _apply_value(self, vf, va, fuel):
        while True:
            fuel[0] -= 1
            if fuel[0] < 0:
                raise OutOfFuel()
            prog = decode(vf)
            if isinstance(prog, Lam):
                return self._eval(subst(prog.body, 0, va), fuel)
            if isinstance(prog, Fix):
                vf = self._eval(subst(prog.body, 0, vf), fuel)
                continue
            raise StuckError()


def outcome(run, fuel):
    """(kind, value, fuel cell) of run(cell), kind a Diverged reason or
    "value"."""
    cell = [fuel]
    try:
        v = run(cell)
    except OutOfFuel:
        return "fuel", None, cell[0]
    except StuckError:
        return "stuck", None, cell[0]
    return "value", v, cell[0]


def assert_agree(kernel, oracle, e, m, fuel):
    new = outcome(lambda c: kernel._apply_value(e, m, c), fuel)
    old = outcome(lambda c: oracle._apply_value(e, m, c), fuel)
    assert new[0] == old[0] and new[2] == old[2], (e, m, fuel, new, old)
    if new[0] == "value":
        assert new[1] == old[1], (e, m, fuel)
    # the public result carries the same verdict
    r = kernel.apply(e, m, fuel)
    if new[0] == "value":
        assert isinstance(r, Value) and r.fuel_used == fuel - new[2]
        assert r.n == new[1]
    else:
        assert r == Diverged(new[0])
    return new


def assert_closure_agrees(kernel, code):
    """The closure the kernel keeps for code is the code's program, with
    its env substituted for the variables it binds."""
    prog, env = kernel.closure(code)
    for i, v in enumerate(env):
        prog = subst(prog, i, v)
    assert decode(code) == prog, code


def int_codes(k):
    """The int codes whose closures the kernel's memo keeps."""
    return [key for key in k.facts if type(key) is int]


def make_kernel():
    k = Kernel()
    k.register_primitive(1, lambda _k, v: vnat(vint(v) * 2))
    k.register_primitive(2, lambda _k, v: vpair(v, 5), cost=lambda v: 3)

    def half(_k, v):
        if vint(v) % 2:
            raise StuckError()
        return vnat(vint(v) // 2)

    k.register_primitive(3, half, cost=lambda v: vint(v) % 4)
    return k


LITS = (0, 1, 2, 3, 7, 13, 55, vnat(2**70), vpair(2**70, 3))


def random_program(rng, depth):
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return Var(rng.randrange(4))  # indices past the binders dangle
        return Lit(rng.choice(LITS) if rng.random() < 0.5
                   else rng.randrange(60))
    d = depth - 1
    kind = rng.randrange(14)
    if kind < 3:
        return Lam(random_program(rng, d))
    if kind < 5:
        return App(random_program(rng, d), random_program(rng, d))
    if kind == 5:
        return Fix(random_program(rng, d))
    if kind == 6:
        return IfZ(random_program(rng, d), random_program(rng, d),
                   random_program(rng, d))
    if kind == 7:
        return Pair(random_program(rng, d), random_program(rng, d))
    if kind == 8:
        return Proj0(random_program(rng, d))
    if kind == 9:
        return Proj1(random_program(rng, d))
    if kind == 10:
        return Suc(random_program(rng, d))
    if kind == 11:
        return Pred(random_program(rng, d))
    if kind == 12:
        return Prim(rng.choice((1, 2, 3, 9)), random_program(rng, d))
    return Stuck()


def test_random_int_codes_agree():
    rng = random.Random(1)
    k = make_kernel()
    oracle = SubstKernel(k._prims)
    for _ in range(6000):
        e = (rng.randrange(3000) if rng.random() < 0.7
             else rng.randrange(2**40))
        m = rng.choice(LITS) if rng.random() < 0.3 else rng.randrange(50)
        assert_agree(k, oracle, e, m, rng.choice(FUELS))
    for code in int_codes(k):
        assert_closure_agrees(k, code)


def test_random_programs_agree():
    rng = random.Random(2)
    k = make_kernel()
    oracle = SubstKernel(k._prims)
    kinds = set()
    for _ in range(5000):
        p = random_program(rng, rng.randrange(1, 7))
        if rng.random() < 0.8:
            p = Lam(p)
        e = encode(p)
        m = rng.choice(LITS) if rng.random() < 0.3 else rng.randrange(50)
        fuel = rng.choice(FUELS)
        kinds.add(assert_agree(k, oracle, e, m, fuel)[0])
        # run of a closed program: a Lam applied to a literal
        new = outcome(lambda c: k._machine(App(p, Lit(m)), (), None, None,
                                           c), fuel)
        old = outcome(lambda c: oracle._eval(App(p, Lit(m)), c), fuel)
        assert new[0] == old[0] and new[2] == old[2], (p, m, fuel)
        if new[0] == "value":
            assert new[1] == old[1]
    assert kinds == {"value", "stuck", "fuel"}
    for code in int_codes(k):
        assert_closure_agrees(k, code)


def test_closures_built_by_the_machine_agree_with_decode():
    k = Kernel()
    big = vpair(2**80, 1)
    # \a.\b.<b, a> applied to a large value: the result is a PV code whose
    # closure binds the large value in its env
    r = k.apply(encode(Lam(Lam(Pair(Var(0), Var(1))))), big, 100)
    assert isinstance(r, Value) and isinstance(r.n, PV)
    assert r.n.clo is not None and r.n.clo[1][0] == big
    assert_closure_agrees(k, r.n)
    r2 = k.apply(r.n, 4, 100)
    assert isinstance(r2, Value) and r2.n == vpair(4, big)
    # an int code built under a non-empty env, with a dangling index
    r = k.apply(encode(Lam(Lam(App(Var(1), Var(3))))), 6, 100)
    assert isinstance(r, Value) and isinstance(r.n, int)
    assert k.facts[r.n][1] == (6,)
    assert_closure_agrees(k, r.n)
    assert decode(r.n) == Lam(App(Lit(6), Var(3)))


def test_corpus_realisers_on_sampled_refuters_agree():
    k = fresh_kernel()
    oracle = SubstKernel(k._prims)
    pole = Generated(frozenset({0, 3, 8}), 64)
    b = Budget(fuel=20000, samples=3, width=20)
    rng = random.Random(3)
    paths = sorted(PROOF_DIR.glob("*.sexp"))
    assert len(paths) >= 20
    steps = 0
    for path in paths:
        proof = parse_proof(path.read_text())
        concl, realiser = extract_value(proof, k)
        for m in sample_refuters(concl, pole, b.samples, b, k, rng):
            # follow the pole chase from <realiser, m> for a few steps
            e = realiser
            for _ in range(4):
                kind, n, _left = assert_agree(k, oracle, e, m, b.fuel)
                steps += 1
                if kind != "value":
                    break
                e, m = vunpair(n)
    assert steps >= 100


# every fuel up to a few periods of each loop below, and some large ones
LOOP_FUELS = tuple(range(1, 121)) + (997, 1000, 3001, 10**5)


def self_loops():
    """Programs that apply a fixed point whose body gives back the fixed
    point itself, by what one period charges besides program nodes and
    application steps."""
    big = vpair(2**70, 3)

    def back(side):
        # in a Fix body: evaluate side, then give back Var 0, the fixed
        # point
        return App(Lam(Var(1)), side)

    return {
        "bare": Fix(Var(0)),
        "cost-3 primitive": Fix(back(Prim(2, Lit(0)))),
        "cost-0 primitive": Fix(back(Prim(3, Lit(4)))),
        "cost-2 primitive": Fix(back(Prim(3, Lit(2)))),
        "vbits of a PV": Fix(back(Suc(Lit(big)))),
        "PV code": Fix(back(Pair(Lit(big), Lit(1)))),
        "branch": Fix(IfZ(Prim(1, Lit(0)), Var(0), Lit(3))),
        # a fixed point built under a Lam, with a Suc of the Lam's
        # argument in its period
        "Fix under a Lam": Lam(App(Fix(back(Suc(Var(1)))), Var(0))),
        # a period that builds another fixed point under a Lam
        "Fix value in the period":
            Fix(App(Lam(App(Lam(Var(2)), Fix(Var(0)))), Lit(1))),
        # pending frames below the loop
        "frames below": Lam(Suc(Pair(Var(0), App(Fix(back(Var(1))),
                                                  Var(0))))),
        # two fixed points that give back each other, with halves of
        # equal and of unequal cost: no self-loop
        "two-step loop": Fix(Fix(Var(1))),
        "uneven two-step loop": Fix(Fix(App(Lam(Var(2)), Prim(2, Lit(0))))),
    }


def test_fixed_point_self_loops_agree_at_every_fuel():
    k = make_kernel()
    oracle = SubstKernel(k._prims)
    big = vpair(2**70, 3)
    for name, p in self_loops().items():
        e = encode(p)
        for m in (0, big):
            # the oracle steps every period: the largest fuel runs once
            fuels = LOOP_FUELS if m is big else LOOP_FUELS[:-1]
            kinds = {assert_agree(k, oracle, e, m, fuel)[0]
                     for fuel in fuels}
            assert kinds == {"fuel"}, (name, m)


def test_random_fixed_points_agree():
    rng = random.Random(4)
    k = make_kernel()
    oracle = SubstKernel(k._prims)
    kinds = set()
    for _ in range(3000):
        p = random_program(rng, rng.randrange(1, 6))
        if rng.random() < 0.3:
            p = App(Lam(Var(1)), p)  # then give back the fixed point
        p = Fix(p)
        if rng.random() < 0.3:
            p = Lam(App(p, Var(0)))
        m = rng.choice(LITS) if rng.random() < 0.3 else rng.randrange(50)
        fuel = rng.choice(FUELS + (997, 1000, 3001))
        kinds.add(assert_agree(k, oracle, encode(p), m, fuel)[0])
    assert kinds == {"value", "stuck", "fuel"}
