"""Command line surface: parsing, truth and realiser checking, proof
checking and extraction, ordinal arithmetic, well-ordering realisers,
the level-indexed layer, and a reproducible report suite.

Exit codes: 0 success / definite pass, 1 definite failure, 2 only
indefinite verdicts, 3 usage errors.  All reports are JSON with sorted
keys; every sampled computation draws from a single seeded generator,
so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Optional

from ._record import record
from .extraction import (
    ExtractionError, ProofError, check_proof, extract_value, parse_proof,
)
from .notation import (
    EQUAL, GREATER, LESS, NESTING_MAX, LimC, OrdNotation, OrdParseError,
    classify, compare, fundseq, omega, onat, parse_ord, print_ord,
)
from .ordinals import (
    build_TI, check_ti_formula, ordinal_kernel, ti_proof_template,
    wo_realiser,
)
from .poles import (
    AGREE, DISAGREE, Empty, FALSE, Full, Generated, IN, OUT, TRUE, UNKNOWN,
    PoleSpec, Verdict, diverged, member,
)
from .ramified import (
    check_model_equivalence, check_rr_empty_properties, ram_corpus,
    rr_axiom, rr_instance_corpus, rt_axiom, translate_conservative,
    translate_empty, translate_zero,
)
from .semantics import (
    Budget, EmptySampleError, OpenFormulaError, check_cr_axioms, realises,
    refutes, truth,
)
from .syntax import (
    All, Eq, Imp, LevelError, Num, ParseError, TVar, explicit_realisation,
    explicit_refutation, free_vars, godel, parse_base_formula,
    parse_formula, parse_term, print_formula,
)
from .vm import Diverged, Kernel, Value, vle, vnat, vpair, vunpair

SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


@record(frozen=True)
class RunConfig:
    pole: PoleSpec
    budget: Budget
    gamma: OrdNotation
    seed: int = 0
    report_path: Optional[str] = None

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def _natural(text: str) -> int:
    """The argparse type of an argument that names a natural: ASCII
    digits only, as every numeral is written."""
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:  # past the interpreter's digit limit
        pass
    raise argparse.ArgumentTypeError("not a natural: %r" % text)


def parse_pole(text: str) -> PoleSpec:
    if text == "empty":
        return Empty()
    if text == "full":
        return Full()
    if text.startswith("generated:"):
        parts = text.split(":")
        try:
            if len(parts) > 3:
                raise ValueError("more than one :depth")
            seed = frozenset(_natural(x) for x in parts[1].split(",")
                             if x != "")
            depth = _natural(parts[2]) if len(parts) > 2 else 64
            return Generated(seed, depth)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise UsageError("bad generated pole spec %r (%s)" % (text, exc))
    raise UsageError("unknown pole spec %r (empty | full | "
                     "generated:n,m[,..][:depth])" % text)


def _pole_text(pole: PoleSpec) -> str:
    if isinstance(pole, Empty):
        return "empty"
    if isinstance(pole, Full):
        return "full"
    return "generated:%s:%d" % (",".join(str(x) for x in sorted(pole.seed)),
                                pole.chase_depth)


def _config(args) -> RunConfig:
    try:
        pole = parse_pole(args.pole)
        gamma = parse_ord(args.gamma)
        budget = Budget(fuel=args.fuel, samples=args.samples,
                        width=args.width)
    except (OrdParseError, ValueError) as exc:
        raise UsageError(str(exc))
    return RunConfig(pole=pole, budget=budget, gamma=gamma, seed=args.seed,
                     report_path=getattr(args, "report", None))


def _nat_json(v):
    """A JSON-safe rendering of a possibly enormous natural."""
    return v if vle(v, 2**53) else "large"


def _verdict_json(v: Verdict) -> dict:
    return {"kind": v.kind, "reason": v.reason}


def _truth_json(t: Verdict) -> dict:
    return {"kind": t.kind, "reason": t.reason, "witness": t.witness}


def _exit(kinds) -> int:
    """The exit code of a report's verdict kinds: a failure beats an
    unknown, which beats a pass."""
    kinds = set(kinds)
    if kinds & {OUT, FALSE, DISAGREE}:
        return 1
    return 0 if kinds <= {IN, TRUE, AGREE} else 2


# ---------------------------------------------------------------------------
# Individual commands; each returns (exit-code, report)

def cmd_parse(args, cfg: RunConfig, kernel: Kernel):
    if args.ram:
        f = parse_formula(args.formula)
        return 0, {"formula": print_formula(f),
                   "free_vars": sorted(free_vars(f))}
    f = parse_base_formula(args.formula)
    return 0, {"formula": print_formula(f),
               "free_vars": sorted(free_vars(f)),
               "code": _nat_json(godel(f))}


def cmd_truth(args, cfg: RunConfig, kernel: Kernel):
    t = truth(parse_base_formula(args.formula), cfg.pole, cfg.budget, kernel)
    return _exit([t.kind]), {"truth": _truth_json(t)}


def cmd_pole_member(args, cfg: RunConfig, kernel: Kernel):
    v = member(vnat(args.n), cfg.pole, cfg.budget.fuel, kernel)
    code = 2 if v.kind == UNKNOWN else 0
    return code, {"member": _verdict_json(v), "n": args.n,
                  "pole": _pole_text(cfg.pole)}


def cmd_refutes(args, cfg: RunConfig, kernel: Kernel):
    f = parse_base_formula(args.formula)
    v = refutes(vnat(args.m), f, cfg.pole, cfg.budget, kernel)
    code = 2 if v.kind == UNKNOWN else 0
    return code, {"refutes": _verdict_json(v), "m": args.m,
                  "formula": print_formula(f)}


def cmd_realises(args, cfg: RunConfig, kernel: Kernel):
    f = parse_base_formula(args.formula)
    rv = realises(vnat(args.n), f, cfg.pole, cfg.budget, kernel, cfg.rng())
    rep = {"realises": _verdict_json(rv.verdict), "samples": rv.samples,
           "n": args.n, "formula": print_formula(f)}
    if rv.verdict.witness is not None:
        rep["witness"] = _nat_json(rv.verdict.witness)
    return _exit([rv.verdict.kind]), rep


def _load_proof(path: str):
    try:
        with open(path) as f:
            return parse_proof(f.read())
    except OSError as exc:
        raise UsageError(str(exc))
    except UnicodeDecodeError as exc:
        raise UsageError("%s: %s" % (path, exc))


def cmd_prove_check(args, cfg: RunConfig, kernel: Kernel):
    p = _load_proof(args.path)
    try:
        c = check_proof(p)
    except ProofError as exc:
        return 1, {"ok": False, "error": str(exc)}
    return 0, {"ok": True, "conclusion": print_formula(c)}


def _diverged(exc: ExtractionError) -> Verdict:
    """The verdict on an extracted program whose run diverged; any other
    extraction error goes on up."""
    if exc.reason is None:
        raise exc
    return diverged(exc.reason)


def cmd_extract(args, cfg: RunConfig, kernel: Kernel):
    try:
        c, value = extract_value(_load_proof(args.path), kernel,
                                 cfg.budget.fuel * 10)
    except ProofError as exc:
        return 1, {"ok": False, "error": str(exc)}
    except ExtractionError as exc:
        v = _diverged(exc)
        return _exit([v.kind]), {"ok": False, "reason": exc.reason}
    return 0, {"ok": True, "conclusion": print_formula(c),
               "realiser": _nat_json(value)}


def cmd_run(args, cfg: RunConfig, kernel: Kernel):
    r = kernel.apply(vnat(args.e), vnat(args.m), cfg.budget.fuel)
    if isinstance(r, Value):
        return 0, {"result": _nat_json(r.n)}
    return _exit([diverged(r.reason).kind]), {"diverged": r.reason}


def cmd_validate(args, cfg: RunConfig, kernel: Kernel):
    try:
        c, value = extract_value(_load_proof(args.path), kernel,
                                 cfg.budget.fuel * 10)
    except ProofError as exc:
        return 1, {"ok": False, "error": str(exc)}
    except ExtractionError as exc:
        v = _diverged(exc)
        return _exit([v.kind]), {"realises": _verdict_json(v),
                                 "pole": _pole_text(cfg.pole)}
    rv = realises(value, c, cfg.pole, cfg.budget, kernel, cfg.rng())
    rep = {"conclusion": print_formula(c),
           "realiser": _nat_json(value),
           "realises": _verdict_json(rv.verdict),
           "samples": rv.samples,
           "pole": _pole_text(cfg.pole)}
    return _exit([rv.verdict.kind]), rep


def cmd_ord_cmp(args, cfg: RunConfig, kernel: Kernel):
    a, b = parse_ord(args.a), parse_ord(args.b)
    return 0, {"a": print_ord(a), "b": print_ord(b),
               "result": compare(a, b)}


# the largest n `ord fs` takes: the n-th member of an epsilon's sequence
# is a tower of n exponents, so its text reads back as a notation
FS_MAX = NESTING_MAX


def cmd_ord_fs(args, cfg: RunConfig, kernel: Kernel):
    if args.n > FS_MAX:
        raise UsageError("ord fs takes n at most %d" % FS_MAX)
    a = parse_ord(args.a)
    if not isinstance(classify(a), LimC):
        return 1, {"error": "%s is not a limit notation" % print_ord(a)}
    return 0, {"a": print_ord(a), "n": args.n,
               "result": print_ord(fundseq(a, args.n))}


def _ti_data(args, var: str):
    f = parse_base_formula(args.formula)
    if free_vars(f) != {var}:
        raise UsageError("formula must have exactly one free variable, the "
                         "induction variable %r" % var)
    return f


def _ti_realised_formula(args):
    """The formula of a well-ordering realiser check, rejected before any
    kernel work when the realisers do not support it.  The realisers'
    primitives fix the induction variable to x."""
    f = _ti_data(args, "x")
    try:
        check_ti_formula(f)
    except ValueError as exc:
        raise UsageError("formula outside the family the well-ordering "
                         "realisers support (%s)" % exc)
    return f


def cmd_ti_prove(args, cfg: RunConfig, kernel: Kernel):
    f = _ti_data(args, args.var)
    alpha = parse_ord(args.alpha) if args.alpha else None
    try:
        out = ti_proof_template(args.kind, f, alpha, var=args.var)
    except ValueError as exc:
        raise UsageError(str(exc))
    jump = None
    if isinstance(out, tuple):
        out, jump = out
    try:
        c = check_proof(out)
    except ProofError as exc:
        return 1, {"ok": False, "error": str(exc)}
    rep = {"ok": True, "kind": args.kind, "conclusion": print_formula(c)}
    if jump is not None:
        rep["jump"] = print_formula(jump)
    return 0, rep


def _check_ti_realiser(alpha: OrdNotation, f, cfg: RunConfig,
                       kernel: Kernel, rng: random.Random):
    e = wo_realiser(alpha, kernel)
    r = kernel.apply(e, godel(f), cfg.budget.fuel * 10)
    if isinstance(r, Diverged):
        # when e . |A| is stuck it is undefined, so I0(e, alpha) fails
        v = diverged(r.reason)
        return {"alpha": print_ord(alpha), "verdict": v.kind,
                "reason": v.reason}
    goal = build_TI(f, alpha, "x")
    rv = realises(r.n, goal, cfg.pole, cfg.budget, kernel, rng)
    return {"alpha": print_ord(alpha),
            "goal": print_formula(goal),
            "verdict": rv.verdict.kind,
            "reason": rv.verdict.reason,
            "samples": rv.samples}


def cmd_ti_realise(args, cfg: RunConfig, kernel: Kernel):
    f = _ti_realised_formula(args)
    alpha = parse_ord(args.alpha)
    rec = _check_ti_realiser(alpha, f, cfg, kernel, cfg.rng())
    return _exit([rec["verdict"]]), rec


def cmd_ti_validate(args, cfg: RunConfig, kernel: Kernel):
    f = _ti_realised_formula(args)
    alphas = [parse_ord(t) for t in args.alphas.split(",")]
    rng = cfg.rng()
    recs = [_check_ti_realiser(a, f, cfg, kernel, rng) for a in alphas]
    return _exit(r["verdict"] for r in recs), {"results": recs}


def cmd_ram_explicit(args, cfg: RunConfig, kernel: Kernel):
    f = parse_formula(args.formula)
    s = parse_term(args.s)
    build = (explicit_realisation if args.side == "realise"
             else explicit_refutation)
    return 0, {"side": args.side, "formula": print_formula(f),
               "result": print_formula(build(s, f))}


def cmd_ram_translate(args, cfg: RunConfig, kernel: Kernel):
    f = parse_formula(args.formula)
    fn = {"conservative": translate_conservative,
          "empty": translate_empty,
          "zero": translate_zero}[args.mode]
    return 0, {"mode": args.mode, "formula": print_formula(f),
               "result": print_formula(fn(f))}


# the axiom kinds `ram axiom` prints; RT1 and RR3 also take two terms,
# which it has no option for
_RAM_AXIOM_KINDS = ({"RT%d" % i for i in range(2, 7)}
                    | {"RR%d" % i for i in range(1, 11)} - {"RR3"})


def cmd_ram_axiom(args, cfg: RunConfig, kernel: Kernel):
    if args.kind not in _RAM_AXIOM_KINDS:
        raise UsageError("axiom kind %r is not one of RT2-RT6, RR1, RR2, "
                         "RR4-RR10 (RT1 and RR3 take two terms, which `ram "
                         "axiom` has no option for)" % args.kind)
    beta = parse_ord(args.beta)
    low = parse_ord(args.low)
    sent = parse_formula(args.formula)
    sent2 = parse_formula(args.formula2)
    a, b = vnat(args.a), vnat(args.b)
    r = None
    if args.kind == "RR1":
        # the instance pulls <a, b> into the pole from the result of a . b;
        # a stuck run has no result, so there is no instance
        run = kernel.apply(a, b, cfg.budget.fuel)
        if isinstance(run, Diverged):
            return (_exit([diverged(run.reason).kind]),
                    {"ok": False, "reason": run.reason})
        r = run.n
    try:
        if args.kind.startswith("RT"):
            inst = rt_axiom(args.kind, beta, cfg.gamma, a=sent, a2=sent2,
                            var=args.var or None, low=low)
        else:
            inst = rr_axiom(args.kind, beta, cfg.gamma, a=a, b=b,
                            sent=sent, sent2=sent2, var=args.var or None,
                            low=low, r=r)
    except LevelError as exc:
        return 1, {"ok": False, "error": str(exc)}
    return 0, {"ok": True, "kind": args.kind,
               "instance": print_formula(inst)}


def cmd_ram_check(args, cfg: RunConfig, kernel: Kernel):
    rng = cfg.rng()
    corpus = ram_corpus(args.count, cfg.gamma, rng)
    eq_recs = check_model_equivalence(corpus, cfg.gamma, cfg.pole,
                                      cfg.budget, kernel, rng)
    prop_recs = check_rr_empty_properties(cfg.gamma, corpus, cfg.budget,
                                          kernel, pole=cfg.pole, rng=rng)
    recs = eq_recs + prop_recs
    return _exit(r["verdict"] for r in recs), {"equivalence": eq_recs,
                                               "properties": prop_recs}


def _default_corpus(rng: random.Random) -> list:
    xs = [Eq(Num(0), Num(0)), Eq(Num(2), Num(3)),
          Imp(Eq(Num(0), Num(1)), Eq(Num(1), Num(1))),
          Imp(Eq(Num(0), Num(0)), Eq(Num(0), Num(1))),
          All("x", Imp(Eq(TVar("x"), Num(1)), Eq(TVar("x"), TVar("x")))),
          All("x", Eq(TVar("x"), TVar("x")))]
    rng.shuffle(xs)
    return xs


def cmd_axioms_check(args, cfg: RunConfig, kernel: Kernel):
    rng = cfg.rng()
    recs = check_cr_axioms(cfg.pole, _default_corpus(rng), cfg.budget,
                           kernel, rng)
    return _exit(r["verdict"] for r in recs), {"records": recs}


# ---------------------------------------------------------------------------
# Suite

def _suite_kernel_section(cfg: RunConfig, kernel: Kernel,
                          rng: random.Random) -> dict:
    pair_ok = 0
    for _ in range(50):
        x, y = rng.randrange(0, 500), rng.randrange(0, 500)
        a, b = vunpair(vpair(x, y))
        pair_ok += int(a == x and b == y)
    det_ok = 0
    for _ in range(10):
        e = rng.randrange(0, 4000)
        m = rng.randrange(0, 50)
        r1 = kernel.apply(e, m, 20000)
        r2 = kernel.apply(e, m, 20000)
        det_ok += int(type(r1) == type(r2)
                      and getattr(r1, "n", None) == getattr(r2, "n", None)
                      or isinstance(r1, Diverged))
    return {"pairing": pair_ok, "determinism": det_ok}


def _suite_ordinal_section(rng: random.Random) -> dict:
    w = omega()
    ok = 0
    for _ in range(40):
        n = rng.randrange(1, 15)
        ok += int(fundseq(w, n) == onat(n))
    cmp_ok = int(compare(onat(3), w) == LESS
                 and compare(w, onat(3)) == GREATER
                 and compare(w, w) == EQUAL)
    return {"fundseq_omega": ok, "compare_spot": cmp_ok}


def _suite_ti_section(cfg: RunConfig, kernel: Kernel,
                      rng: random.Random) -> list:
    f = Eq(TVar("x"), TVar("x"))
    small = Budget(fuel=cfg.budget.fuel, samples=min(cfg.budget.samples, 5),
                   width=cfg.budget.width)
    scfg = RunConfig(pole=cfg.pole if not isinstance(cfg.pole, Empty)
                     else Generated(frozenset({0, 3, 8}), 64),
                     budget=small, gamma=cfg.gamma, seed=cfg.seed)
    return [_check_ti_realiser(a, f, scfg, kernel, rng)
            for a in (onat(0), onat(2), omega())]


def _suite_ram_section(cfg: RunConfig, kernel: Kernel,
                       rng: random.Random) -> dict:
    corpus = ram_corpus(30, onat(2), rng)
    eq_recs = check_model_equivalence(corpus, onat(2), cfg.pole,
                                      cfg.budget, kernel, rng)
    insts = rr_instance_corpus(20, onat(2), rng)
    true_count = sum(
        int(truth(translate_conservative(f), cfg.pole, cfg.budget,
                  kernel).kind == TRUE)
        for _, f in insts)
    return {"equivalence": eq_recs, "translated_true": true_count,
            "translated_total": len(insts)}


def cmd_suite(args, cfg: RunConfig, kernel: Kernel):
    rng = cfg.rng()
    report = {
        "schema": SCHEMA_VERSION,
        "seed": cfg.seed,
        "pole": _pole_text(cfg.pole),
        "gamma": print_ord(cfg.gamma),
        "kernel": _suite_kernel_section(cfg, kernel, rng),
        "axioms": check_cr_axioms(cfg.pole, _default_corpus(rng),
                                  cfg.budget, kernel, rng),
        "ordinals": _suite_ordinal_section(rng),
        "ti": _suite_ti_section(cfg, kernel, rng),
        "ramified": _suite_ram_section(cfg, kernel, rng),
    }
    recs = report["axioms"] + report["ti"] + report["ramified"]["equivalence"]
    return _exit(r["verdict"] for r in recs), report


# ---------------------------------------------------------------------------
# Argument wiring

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(3)


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fuel", type=_natural, default=10**6)
    p.add_argument("--samples", type=_natural, default=20)
    p.add_argument("--width", type=_natural, default=50)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--pole", default="empty")
    p.add_argument("--gamma", default="w")
    p.add_argument("--report", default=None,
                   help="also write the JSON report to this path")


@functools.cache
def build_parser() -> _Parser:
    """The `realis` parser, built on the first call and shared by every
    later query in the process: building it costs far more than most
    queries (argparse sizes the terminal on each `add_argument`), and
    parsing leaves no state on it, so each query still gets a fresh
    Namespace."""
    top = _Parser(prog="realis", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(group, name, fn):
        p = group.add_parser(name)
        _common(p)
        p.set_defaults(fn=fn)
        return p

    p = add(sub, "parse", cmd_parse)
    p.add_argument("formula")
    p.add_argument("--ram", action="store_true")

    p = add(sub, "truth", cmd_truth)
    p.add_argument("formula")

    pole_sub = sub.add_parser("pole").add_subparsers(dest="subcommand",
                                                     required=True)
    p = add(pole_sub, "member", cmd_pole_member)
    p.add_argument("n", type=_natural)

    p = add(sub, "refutes", cmd_refutes)
    p.add_argument("m", type=_natural)
    p.add_argument("formula")

    p = add(sub, "realises", cmd_realises)
    p.add_argument("n", type=_natural)
    p.add_argument("formula")

    p = add(sub, "prove-check", cmd_prove_check)
    p.add_argument("path")

    p = add(sub, "extract", cmd_extract)
    p.add_argument("path")

    p = add(sub, "run", cmd_run)
    p.add_argument("e", type=_natural)
    p.add_argument("m", type=_natural)

    p = add(sub, "validate", cmd_validate)
    p.add_argument("path")

    ord_sub = sub.add_parser("ord").add_subparsers(dest="subcommand",
                                                   required=True)
    p = add(ord_sub, "cmp", cmd_ord_cmp)
    p.add_argument("a")
    p.add_argument("b")
    p = add(ord_sub, "fs", cmd_ord_fs)
    p.add_argument("a")
    p.add_argument("n", type=_natural)

    ti_sub = sub.add_parser("ti").add_subparsers(dest="subcommand",
                                                 required=True)
    p = add(ti_sub, "prove", cmd_ti_prove)
    p.add_argument("kind", choices=["zero", "suc", "omega", "lim"])
    p.add_argument("--formula", default="(= x x)")
    p.add_argument("--var", default="x")
    p.add_argument("--alpha", default=None)
    p = add(ti_sub, "realise", cmd_ti_realise)
    p.add_argument("alpha")
    p.add_argument("--formula", default="(= x x)")
    p = add(ti_sub, "validate", cmd_ti_validate)
    p.add_argument("--alphas", default="0,1,2,w,w*2,w^2,w^w")
    p.add_argument("--formula", default="(= x x)")

    ram_sub = sub.add_parser("ram").add_subparsers(dest="subcommand",
                                                   required=True)
    p = add(ram_sub, "explicit", cmd_ram_explicit)
    p.add_argument("side", choices=["refute", "realise"])
    p.add_argument("s")
    p.add_argument("formula")
    p = add(ram_sub, "translate", cmd_ram_translate)
    p.add_argument("mode", choices=["conservative", "empty", "zero"])
    p.add_argument("formula")
    p = add(ram_sub, "axiom", cmd_ram_axiom)
    p.add_argument("kind")
    p.add_argument("--beta", default="1")
    p.add_argument("--low", default="0",
                   help="the lower level (alpha or delta) where required")
    p.add_argument("--formula", default="(= 0 0)")
    p.add_argument("--formula2", default="(= 0 0)")
    p.add_argument("--var", default="")
    p.add_argument("--a", type=_natural, default=0)
    p.add_argument("--b", type=_natural, default=0)
    p = add(ram_sub, "check", cmd_ram_check)
    p.add_argument("--count", type=_natural, default=60)

    add(sub, "axioms-check", cmd_axioms_check)
    add(sub, "suite", cmd_suite)
    return top


def main(argv: Optional[list] = None) -> int:
    top = build_parser()
    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config(args)
        kernel = ordinal_kernel()
        code, report = args.fn(args, cfg, kernel)
    except (UsageError, ParseError, OrdParseError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except (OpenFormulaError, EmptySampleError, LevelError, ProofError,
            ExtractionError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if cfg.report_path:
        try:
            with open(cfg.report_path, "w") as f:
                f.write(text)
        except OSError as exc:
            sys.stderr.write("error: %s\n" % exc)
            return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
