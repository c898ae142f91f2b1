"""The benchmark's workloads: the universe of `realis` queries each one
draws from, and the seeded plan of queries a run issues.

A workload's universe is finite and fixed, so that every query a plan can
contain has an expected exit code and stdout digest in
``bench/expected/<workload>.json``.  The benchmark seed chooses which
universe entries a pass issues and in which order.  Entries are grouped,
and each group is split into strata of queries with equal cost drivers
(the addend ``n`` of a ``prove_plus`` proof, the ordinal of a TI query, the
number of fuel-exhausted kernel runs of a ``ram check``).  A plan takes a
fixed quota from every group and spreads it over the group's strata in
proportion to their sizes, so two seeds issue different queries with the
same cost mix.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"

NAMES = ("corpus", "ramified", "ti")

# ---------------------------------------------------------------------------
# corpus: `realis validate` on shipped and generated proofs

CORPUS_POLES = ("generated:0,3,8", "generated:1,4", "generated:2,5,9")
PLUS_RANGE = range(12)  # prove_plus(m, n) for m, n in this range

# ---------------------------------------------------------------------------
# ramified: `realis ram check` over many seeds, with a small fuel budget

RAM_SEEDS = range(600)
RAM_ARGS = ("--count", "5", "--gamma", "2", "--pole", "generated:0,3,8",
            "--fuel", "1000")

# ---------------------------------------------------------------------------
# ti: `realis ti realise` over notations up to w^w and epsilon terms, for
# formulas of the one-variable family the well-ordering combinators support

TI_ALPHAS = ("0", "1", "2", "3", "5", "8", "w", "w+1", "w+3", "w*2",
             "w*3+2", "w^2", "w^2+w", "w^3", "w^w", "e[0]", "e[0]+1",
             "e[1]")
TI_FORMULAS = (
    "(= x x)",
    "(= (s x) (s x))",
    "(= (+ x 1) (+ x 1))",
    "(= (* x 2) (* x 2))",
    "(imp (= x 0) (= x x))",
    "(imp (= x x) (= x x))",
    "(imp (= x 1) (= (s x) (s x)))",
    "(imp (= 0 1) (= x x))",
    "(all y (= (+ x y) (+ x y)))",
    "(all y (= (* x y) (* x y)))",
    "(all y (= (+ y x) (+ y x)))",
    "(all y (imp (= y 0) (= x x)))",
)
TI_POLE = "generated:0,3,8"

# Queries per pass taken from each group.  The ramified plan holds 30%
# fuel-bound queries against about 10% in its universe, so that p90 falls
# inside the fuel-bound group and p50 inside the fast group, rather than
# either sitting on the boundary between them.
QUOTAS = {
    "corpus": {"plus": 72},
    "ramified": {"fast": 70, "fuel-bound": 30},
    "ti": {"ti": 108},
}
FIXED_GROUP = "fixed"  # entries issued by every pass of every seed

# Queries whose outcome is recorded by every run, outside the timing:
# a known robustness defect and a case reported as a disagree record.
PROBES = (
    ("ti", "realise", "1", "--formula", "(= (+ x 0) x)", "--pole", TI_POLE),
    ("ram", "check", "--seed", "0", "--count", "30", "--gamma", "2",
     "--pole", "generated:0,3,8", "--fuel", "3000"),
)


def plus_path(m: int, n: int) -> str:
    """Where the proof of m + n goes; bench/work/ is ignored by git."""
    return "bench/work/plus-%d-%d.sexp" % (m, n)


_PLUS_RE = re.compile(r"bench/work/plus-(\d+)-(\d+)\.sexp$")


def universe(name: str) -> list:
    """Every query of the workload as (argv, group, stratum).

    The ramified strata are measured, not given: make_expected.py fills
    them in from the number of fuel-exhausted kernel runs.
    """
    if name == "corpus":
        out = []
        for path in sorted((ROOT / "corpus" / "proofs").glob("*.sexp")):
            rel = path.relative_to(ROOT).as_posix()
            for pole in CORPUS_POLES:
                out.append((["validate", rel, "--pole", pole],
                            FIXED_GROUP, "shipped"))
        for n in PLUS_RANGE:
            for m in PLUS_RANGE:
                for pole in CORPUS_POLES:
                    out.append((["validate", plus_path(m, n), "--pole", pole],
                                "plus", "n=%d %s" % (n, pole)))
        return out
    if name == "ramified":
        return [(["ram", "check", "--seed", str(s), *RAM_ARGS], None, None)
                for s in RAM_SEEDS]
    if name == "ti":
        return [(["ti", "realise", a, "--formula", f, "--pole", TI_POLE],
                 "ti", "alpha=%s" % a)
                for a in TI_ALPHAS for f in TI_FORMULAS]
    raise ValueError("unknown workload %r" % name)


def query_key(argv: list) -> str:
    return json.dumps(argv)


def load_expected(name: str) -> dict:
    with open(EXPECTED_DIR / ("%s.json" % name)) as f:
        return json.load(f)


def _spread(quota: int, strata: dict) -> dict:
    """Split quota over strata in proportion to their sizes (largest
    remainder), never asking a stratum for more than it holds."""
    total = sum(len(v) for v in strata.values())
    if quota > total:
        raise ValueError("quota %d exceeds the %d entries of its group"
                         % (quota, total))
    shares = {s: quota * len(v) / total for s, v in strata.items()}
    out = {s: int(x) for s, x in shares.items()}
    order = sorted(strata, key=lambda s: (out[s] - shares[s], s))
    for s in order[:quota - sum(out.values())]:
        out[s] += 1
    return out


def plan(name: str, seed: int, expected: dict) -> list:
    """The argv lists one pass of the workload issues, for this seed."""
    rng = random.Random("%s:%d" % (name, seed))
    groups: dict = {}
    for key in sorted(expected["queries"]):
        entry = expected["queries"][key]
        groups.setdefault(entry["group"], {}) \
            .setdefault(entry["stratum"], []).append(json.loads(key))
    chosen = [argv for strata in groups.pop(FIXED_GROUP, {}).values()
              for argv in strata]
    for group, quota in sorted(QUOTAS[name].items()):
        strata = groups.get(group, {})
        for stratum, k in sorted(_spread(quota, strata).items()):
            chosen.extend(rng.sample(strata[stratum], k))
    rng.shuffle(chosen)
    return chosen


def proof_text(m: int, n: int) -> str:
    """The text of prove_plus(m, n), with its fresh variables renamed in
    order of first appearance.

    The library numbers fresh variables from a process-wide counter, so
    the raw text depends on what ran before; the renaming is a bijection
    on those names and keeps the proof valid.
    """
    from realisability.extraction import print_proof, prove_plus

    text = print_proof(prove_plus(m, n))
    names: dict = {}

    def rename(match):
        return names.setdefault(match.group(0), "v%d" % (len(names) + 1))

    return re.sub(r"\bv\d+\b", rename, text)


def materialise(argvs: list) -> None:
    """Write the generated proof files the queries name."""
    for argv in argvs:
        for arg in argv:
            match = _PLUS_RE.match(arg)
            if match is None:
                continue
            path = ROOT / arg
            text = proof_text(int(match.group(1)), int(match.group(2)))
            if not path.exists() or path.read_text() != text:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
