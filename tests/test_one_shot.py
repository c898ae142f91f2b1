"""`realis` as a user runs it: one query per fresh interpreter
(`python -m realisability.cli`), and the `ti` realisers run twice in one
process.  Each check here meets state that the in-process tests of
test_cli.py do not: an interpreter's first and only query, or the marks
a first pass leaves on module-level formulas for a second pass.  CI runs
this file on the oldest Python the package supports too."""

import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys
import time

import pytest

from realisability import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def realis(argv, **kwargs):
    """`realis argv` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "realisability.cli", *argv],
                          **kwargs)


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _ti_cases():
    """The 18 notations of the `ti` benchmark at the formula (= x x), with
    their expected exit codes and stdout digests."""
    with open(ROOT / "bench" / "expected" / "ti.json") as f:
        queries = json.load(f)["queries"]
    return [(json.loads(key), want) for key, want in sorted(queries.items())
            if json.loads(key)[3:5] == ["--formula", "(= x x)"]]


TI_CASES = _ti_cases()


@pytest.mark.parametrize("name", ["suite-seed0.json", "suite-seed42.json",
                                  "suite-seed42-gen.json"])
def test_one_shot_suite_matches_golden(name):
    golden = json.loads((GOLDEN / name).read_text())
    r = realis(golden["argv"], stdout=subprocess.PIPE, text=True)
    assert (r.returncode, r.stdout) == (golden["exit_code"], golden["stdout"])


PROOF_FILES = {
    "latin1.sexp": b"(ax refleq (= \xff 0))",
    "deep.sexp": b"(ax refleq (= " + b"(p0 " * 200000 + b"0"
                 + b")" * 200000 + b" 0))",
}

# Python 3.10 runs out of C stack reading the 200,000-deep file and dies
# with SIGSEGV; strict, so that the mark goes once it reads the file
DEEP_ON_310 = pytest.mark.xfail(
    sys.version_info < (3, 11), strict=True,
    reason="the reader overflows the C stack below Python 3.11 "
           "(ROADMAP item 9)")


@pytest.mark.parametrize("argv", [
    ["truth", "(= \u00b2 0)"],
    ["truth", "(= %s 0)" % ("9" * 5000)],
    ["ord", "cmp", "\u00b2", "1"],
    ["ord", "cmp", "w*\u00b2", "1"],
    ["ti", "realise", "e[e[0]]", "--formula", "(= x x)"],
    ["ord", "fs", "e[0]", "120000"],
    ["ord", "fs", "e[0]", "18446744073709551616"],
    ["ord", "cmp", "w^" * 30000 + "1", "w^" * 30000 + "1"],
    ["prove-check", "latin1.sexp"],
    pytest.param(["prove-check", "deep.sexp"], marks=DEEP_ON_310),
    ["truth", "(= 0 0)", "--report", "/nonexistent/x.json"],
    ["truth", "(all %s (= 0 0))" % ("a" * 1785)],
], ids=["superscript-numeral", "5000-digit-numeral", "superscript-ordinal",
        "superscript-in-product", "nested-epsilon-index", "deep-fs",
        "fs-past-2^64", "deep-notation", "latin1-proof", "deep-proof",
        "report-unwritable", "1785-byte-name"])
def test_bad_input_exits_3_without_a_traceback(argv, tmp_path):
    if argv[-1] in PROOF_FILES:
        path = tmp_path / argv[-1]
        path.write_bytes(PROOF_FILES[argv[-1]])
        argv = argv[:-1] + [str(path)]
    r = realis(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
               text=True)
    assert r.returncode == 3
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_a_fixed_point_that_unfolds_to_itself_runs_out_of_fuel_at_once():
    # code 55 is Fix(Var 0): stepping its 10^12 units of fuel one period
    # at a time would take days
    r = realis(["run", "55", "0", "--fuel", "1000000000000"],
               stdout=subprocess.PIPE, text=True, timeout=60)
    assert r.returncode == 2
    assert json.loads(r.stdout) == {"diverged": "fuel"}


START_UP = """
import sys
before = set(sys.modules)
import realisability.cli
from realisability.ordinals import ordinal_kernel
ordinal_kernel()
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # every query pays for its interpreter's imports; dataclasses brings
    # inspect, ast, dis and tokenize, which no command needs.  Modules
    # that site loaded before the import are not counted.
    r = subprocess.run([sys.executable, "-c", START_UP],
                       stdout=subprocess.PIPE, text=True, check=True)
    loaded = set(r.stdout.split())
    assert {"realisability.cli", "realisability.ordinals"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_a_name_code_past_the_cap_is_refused_at_once(capsys):
    # subv's name argument is a pair tower 40 deep, a value of some 10^12
    # digits: a decoder that expands it does not answer, so a child with
    # a time limit runs the query first
    tower = "99"
    for _ in range(40):
        tower = "(pair %s 99)" % tower
    argv = ["truth", "(= (subv 0 %s 0) 0)" % tower]
    r = realis(argv, stdout=subprocess.PIPE, text=True, timeout=30)
    assert r.returncode == 0
    assert json.loads(r.stdout)["truth"]["kind"] == "true"
    start = time.perf_counter()
    assert cli.main(argv) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["truth"]["kind"] == "true"


def test_corpus_generator_reproduces_the_shipped_proofs():
    spec = importlib.util.spec_from_file_location(
        "generate", ROOT / "corpus" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    shipped = ROOT / "corpus" / "proofs"
    # the same names: a diff of the written files misses a new proof that
    # is not shipped yet, and a shipped one the generator no longer writes
    assert sorted(p.name for p in shipped.iterdir()) == \
        sorted(name + ".sexp" for name in generate.PROOFS)
    for name, proof in generate.PROOFS.items():
        generate.check_proof(proof)
        assert generate.print_proof(proof) + "\n" == \
            (shipped / (name + ".sexp")).read_text(), name


def test_ti_realisers_twice_in_one_process(capsys):
    # the second pass meets the marks the first left on module-level
    # formulas (kept free variables, alpha-equality marks)
    assert len(TI_CASES) == 18
    want = [(w["exit"], w["stdout_sha256"]) for _, w in TI_CASES]
    for run in ("first", "second"):
        got = []
        for argv, _ in TI_CASES:
            code = cli.main(list(argv))
            got.append((code, _digest(capsys.readouterr().out.encode())))
        assert got == want, run


@pytest.mark.parametrize("argv, want", TI_CASES,
                         ids=[argv[2] for argv, _ in TI_CASES])
def test_one_shot_ti_realiser(argv, want):
    r = realis(argv, stdout=subprocess.PIPE)
    assert (r.returncode, _digest(r.stdout)) == \
        (want["exit"], want["stdout_sha256"])
