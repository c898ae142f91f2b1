"""Command line surface: argument handling, exit codes, JSON shape,
and reproducibility of the suite report."""

import argparse
import itertools
import json
import pathlib
import re
import subprocess
import sys

import pytest

from realisability import cli, extraction
from realisability.cli import main, parse_pole
from realisability.notation import NESTING_MAX, omega_tower, onat, parse_ord
from realisability.ordinals import ordinal_kernel, wo_realiser
from realisability.poles import FALSE, Empty, Full, Generated
from realisability.semantics import Budget, truth
from realisability.syntax import godel, parse_formula, print_formula
from realisability.vm import (
    Diverged, Kernel, Lam, Stuck, Suc, Var, encode, vpair,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
IDENT = encode(Lam(Var(0)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# ---------------------------------------------------------------------------
# Configuration parsing

def test_parse_pole_forms():
    assert parse_pole("empty") == Empty()
    assert parse_pole("full") == Full()
    g = parse_pole("generated:0,3,8")
    assert g == Generated(frozenset({0, 3, 8}), 64)
    assert parse_pole("generated:1:9") == Generated(frozenset({1}), 9)


def test_bad_pole_is_usage_error(capsys):
    code = main(["realises", "0", "(= 0 0)", "--pole", "sideways"])
    assert code == 3
    assert "unknown pole spec 'sideways'" in capsys.readouterr().err


def test_empty_generated_seed_is_usage_error(capsys):
    # the empty seed generates the empty pole, which `empty` names
    assert main(["realises", "0", "(= 0 0)", "--pole", "generated:"]) == 3
    assert main(["axioms-check", "--pole", "generated:"]) == 3
    assert main(["axioms-check", "--pole", "generated::8"]) == 3


def test_out_of_range_generated_seed_is_usage_error(capsys):
    for seed in ("-1", "0,18446744073709551616", "\u0663", "1_0", "+1",
                 "3:\u0663", "3:-9", "0,3,8:64:junk", "3:8:9"):
        assert main(["pole", "member", "0", "--pole",
                     "generated:" + seed]) == 3


def test_removed_knobs_are_usage_errors(capsys):
    assert main(["truth", "(= 0 0)", "--depth", "3"]) == 3
    # the realisers' primitives fix the induction variable to x
    assert main(["ti", "realise", "1", "--formula", "(= y y)"]) == 3
    assert main(["ti", "realise", "1", "--formula", "(= y y)",
                 "--var", "y"]) == 3
    assert main(["ti", "validate", "--alphas", "0,1", "--formula",
                 "(= y y)", "--var", "y"]) == 3


@pytest.mark.parametrize("argv", [
    ["run", "-1", "0"],
    ["pole", "member", "-1", "--pole", "generated:3"],
    ["refutes", "-1", "(= 0 0)", "--pole", "generated:3"],
    ["realises", "-5", "(= 0 0)", "--pole", "generated:3"],
    ["ord", "fs", "w", "-1"],
    ["ram", "axiom", "RR4", "--a", "-1"],
    ["ram", "axiom", "RR1", "--b", "-1"],
    ["ram", "check", "--count", "-1"],
    ["pole", "member", "\u0663", "--pole", "generated:3"],
    ["run", "1_0", "0"],
    ["run", "+1", "0"],
    ["run", "1", "0", "--fuel", "\u0661\u0660"],
    ["run", "1", "0", "--fuel", "-5"],
    ["realises", "0", "(= 0 0)", "--samples", "+2"],
    ["truth", "(= 0 0)", "--width", "\u0665"],
    ["realises", "0", "(= 0 0)", "--seed", "-1"],
], ids=["run", "pole-member", "refutes", "realises", "ord-fs",
        "ram-axiom-a", "ram-axiom-b", "ram-check", "arabic-indic-digit",
        "underscore", "sign", "fuel-digits", "fuel-negative",
        "samples-sign", "width-digit", "seed-negative"])
def test_negative_naturals_are_usage_errors(argv, capsys):
    assert main(argv) == 3
    assert "not a natural" in capsys.readouterr().err


def test_zero_budget_is_usage_error(capsys):
    for flag in ("--fuel", "--samples", "--width"):
        assert main(["realises", "0", "(= 0 0)", flag, "0"]) == 3
        assert "must be positive" in capsys.readouterr().err


def test_bad_subcommand_is_usage_error():
    assert main(["definitely-not-a-command"]) == 3


def test_bad_formula_is_usage_error(capsys):
    assert main(["truth", "(= 0"]) == 3
    assert main(["ord", "cmp", "wibble", "0"]) == 3


@pytest.mark.parametrize("argv", [
    ["truth", "(= \u00b2 0)"],
    ["truth", "(= %s 0)" % ("9" * 5000)],
    ["ord", "cmp", "\u00b2", "1"],
    ["ord", "cmp", "w*\u00b2", "1"],
    ["ord", "cmp", "e[e[0]]", "1"],
    ["ti", "realise", "e[e[0]]", "--formula", "(= x x)"],
])
def test_bad_numerals_and_notations_are_usage_errors(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# Atoms stay out of the base paths

ATOM_FORMULA = "(imp (pole 3) (= x x))"


@pytest.mark.parametrize("route", ["truth", "parse", "proof-file",
                                   "proof-file-axiom", "ti-primitive"])
def test_level_indexed_atoms_stay_out_of_base_paths(route, tmp_path,
                                                    capsys):
    if route in ("truth", "parse"):
        assert main([route, ATOM_FORMULA]) == 3
    elif route.startswith("proof-file"):
        path = tmp_path / "atom.sexp"
        path.write_text("(ax k (pole 3) (= 0 0))" if route == "proof-file"
                        else "(ax k (imp (pole 3) (imp (= 0 0) (pole 3))))")
        assert main(["validate", str(path)]) == 3
    else:
        k = ordinal_kernel()
        code = godel(parse_formula(ATOM_FORMULA))
        r = k.apply(wo_realiser(onat(1), k), code, 10**6)
        assert r == Diverged("stuck")


# ---------------------------------------------------------------------------
# Each command takes the shared flags it reads

SHARED = {"--pole": "full", "--fuel": "7", "--samples": "3", "--width": "4",
          "--seed": "5", "--gamma": "2"}
_REALISE = "--pole --fuel --samples --width --seed"
FLAG_TABLE = {
    "": ["parse", "prove-check", "ord cmp", "ord fs", "ti prove",
         "ram explicit", "ram translate"],
    "--width": ["truth"],
    "--fuel": ["extract", "run"],
    "--pole --fuel": ["pole member"],
    "--fuel --gamma": ["ram axiom"],
    "--pole --fuel --samples --width": ["refutes"],
    _REALISE: ["realises", "validate", "ti realise", "ti validate",
               "axioms-check"],
    _REALISE + " --gamma": ["ram check", "suite"],
}
TAKES = {command: flags.split() for flags, commands in FLAG_TABLE.items()
         for command in commands}
# arguments each command parses, besides the shared flags
ARGS = {"parse": ["(= 0 0)"], "truth": ["(= 0 0)"], "pole member": ["3"],
        "refutes": ["0", "(= 0 0)"], "realises": ["0", "(= 0 0)"],
        "prove-check": ["p.sexp"], "extract": ["p.sexp"], "run": ["1", "0"],
        "validate": ["p.sexp"], "ord cmp": ["1", "2"], "ord fs": ["w", "2"],
        "ti prove": ["zero"], "ti realise": ["1"], "ti validate": [],
        "ram explicit": ["refute", "s", "(= 0 1)"],
        "ram translate": ["empty", "(= 0 0)"], "ram axiom": ["RR4"],
        "ram check": [], "axioms-check": [], "suite": []}
DEFAULTS = {"pole": "empty", "fuel": Budget.fuel, "samples": Budget.samples,
            "width": Budget.width, "seed": 0, "gamma": "w"}


def _commands(parser, prefix=""):
    """Each command of the parser, with its own parser."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix.strip(): parser}
    out = {}
    for name, p in subs[0].choices.items():
        out.update(_commands(p, prefix + " " + name))
    return out


def test_every_command_is_in_the_flag_table():
    assert sorted(_commands(cli.build_parser())) == sorted(TAKES)
    assert len(TAKES) == 20


@pytest.mark.parametrize("command", sorted(TAKES))
def test_each_command_takes_exactly_its_flags(command, capsys):
    argv = command.split() + ARGS[command]
    args = cli.build_parser().parse_args(argv)
    # a flag a command does not take keeps its default
    assert {k: getattr(args, k) for k in DEFAULTS} == DEFAULTS
    for flag, value in SHARED.items():
        if flag in TAKES[command]:
            args = cli.build_parser().parse_args(argv + [flag, value])
            got = getattr(args, flag[2:])
            assert str(got) == value and type(got) is type(DEFAULTS[flag[2:]])
        else:
            assert main(argv + [flag, value]) == 3, flag
            assert "error: unrecognized arguments: %s %s\n" % (flag, value) \
                in capsys.readouterr().err
    args = cli.build_parser().parse_args(argv + ["--report", "r.json"])
    assert args.report == "r.json"


def test_readme_flag_table_is_the_parser_s():
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    head = "| Flags besides `--report` | Commands |"
    rows = readme[readme.index(head):].split("\n")[2:]
    table = {}
    for row in itertools.takewhile(lambda r: r.startswith("|"), rows):
        flags, commands = row.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            assert command not in table, command
            table[command] = re.findall(r"`([^`]+)`", flags)
    parsers = _commands(cli.build_parser())
    assert sorted(table) == sorted(parsers)
    for command, p in parsers.items():
        given = [o for a in p._actions for o in a.option_strings
                 if o in SHARED]
        assert table[command] == given, command


# ---------------------------------------------------------------------------
# Queries

def test_parse_reports_code_and_free_vars(capsys):
    code, rep = run_cli(capsys, "parse", "(imp (= x 0) (= 0 0))")
    assert code == 0
    assert rep["free_vars"] == ["x"]
    # closed numeral formulas have codes small enough to print exactly
    code, rep = run_cli(capsys, "parse", "(= 0 1)")
    assert isinstance(rep["code"], int)


def test_parse_ram_formula(capsys):
    code, rep = run_cli(capsys, "parse", "(fals 1 s 5)", "--ram")
    assert code == 0
    assert rep["formula"] == "(fals 1 s 5)"
    assert rep["free_vars"] == ["s"]


def test_truth_exit_codes(capsys):
    code, rep = run_cli(capsys, "truth", "(= 0 0)")
    assert code == 0 and rep["truth"]["reason"] is None
    code, rep = run_cli(capsys, "truth", "(= 0 1)")
    assert code == 1 and rep["truth"]["reason"] is None
    code, rep = run_cli(capsys, "truth", "(all x (= (+ x 0) x))",
                        "--width", "50")
    assert code == 2 and rep["truth"]["kind"] == "unknown"
    assert rep["truth"]["reason"] == "width"


def test_pole_member(capsys):
    code, rep = run_cli(capsys, "pole", "member", "3",
                        "--pole", "generated:0,3,8")
    assert code == 0 and rep["member"]["kind"] == "in"
    code, rep = run_cli(capsys, "pole", "member", "5", "--pole", "empty")
    assert code == 0 and rep["member"]["kind"] == "out"


def test_refutes_and_realises(capsys):
    code, rep = run_cli(capsys, "refutes", "7", "(= 0 1)")
    assert code == 0 and rep["refutes"]["kind"] == "in"
    assert run_cli(capsys, "realises", "0", "(= 0 0)")[0] == 0
    code, rep = run_cli(capsys, "realises", "0", "(= 0 1)")
    assert code == 1 and "witness" in rep


def test_run_applies_a_program(capsys):
    ident = encode(Lam(Var(0)))
    code, rep = run_cli(capsys, "run", str(ident), "9")
    assert code == 0 and rep["result"] == 9


def test_run_fuel_exhaustion_exits_2(capsys):
    # 55 codes Fix(Var 0), which unfolds to itself forever
    code, rep = run_cli(capsys, "run", "55", "0", "--fuel", "1000")
    assert code == 2 and rep["diverged"] == "fuel"
    # 13 codes \x.xx, so this is omega, run at the default fuel
    code, rep = run_cli(capsys, "run", "13", "13")
    assert code == 2 and rep["diverged"] == "fuel"


# ---------------------------------------------------------------------------
# Proof commands

PROOF = str(pathlib.Path(__file__).resolve().parent.parent
            / "corpus" / "proofs" / "dne.sexp")


def test_prove_check(capsys):
    code, rep = run_cli(capsys, "prove-check", PROOF)
    assert code == 0 and rep["ok"]
    assert rep["conclusion"].startswith("(imp")


def test_prove_check_rejects_bound_variable_capture(tmp_path, capsys):
    # the k instance holds only if the free _b0 were the bound y
    path = tmp_path / "capture.sexp"
    path.write_text(
        "(gen _b0 (mp (mp (ax k (imp (all y (= y y)) (imp (all y (= y y)) "
        "(all y (= y _b0))))) (gen y (ax refleq (= y y)))) "
        "(gen y (ax refleq (= y y)))))\n")
    code, rep = run_cli(capsys, "prove-check", str(path))
    assert code == 1 and not rep["ok"]
    assert "k schema" in rep["error"]


def test_prove_check_missing_file_is_usage_error(capsys):
    assert main(["prove-check", "/nonexistent/file.sexp"]) == 3


@pytest.mark.parametrize("cmd", [["prove-check"], ["validate"],
                                 ["extract"]])
def test_proof_file_not_in_utf8_is_usage_error(cmd, tmp_path, capsys):
    path = tmp_path / "latin1.sexp"
    path.write_bytes(b"(ax refleq (= \xff 0))")
    assert main(cmd + [str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s: 'utf-8' codec" % path)


def test_proof_nested_past_the_recursion_limit_is_usage_error(tmp_path,
                                                              capsys):
    path = tmp_path / "deep.sexp"
    path.write_text("(ax refleq (= " + "(p0 " * 2000 + "0" + ")" * 2000
                    + " 0))")
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 400)
    try:
        code = main(["prove-check", str(path)])
    finally:
        sys.setrecursionlimit(old)
    assert code == 3
    assert capsys.readouterr().err.startswith("error: nesting too deep at ")


@pytest.mark.parametrize("argv, code", [
    # a proof whose conclusion is open: extraction has no environment
    (["extract", "{open}"], 1),
    (["validate", "{open}"], 1),
    # the truth side has no explicit unfolding, wherever its atom sits
    (["ram", "explicit", "refute", "x", "(tru 1 0)"], 3),
    (["ram", "explicit", "realise", "x", "(tru 1 0)"], 3),
    (["ram", "explicit", "refute", "x",
      "(imp (fals 1 0 0) (all y (tru 1 y)))"], 3),
    # the corpus and the equivalence harness need level-1 atoms
    (["ram", "check", "--gamma", "0", "--count", "2"], 3),
    (["ti", "prove", "lim"], 3),
    (["ti", "realise", "w", "--formula", "(= x 0)"], 3),
    (["pole", "member", "5", "--pole", "generated:,"], 3),
])
def test_documented_errors_exit_with_one_line(argv, code, tmp_path, capsys):
    path = tmp_path / "open.sexp"
    path.write_text("(ax refleq (= x x))\n")
    assert main([a.format(open=path) for a in argv]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert err.count("\n") == 1


def test_report_path_that_cannot_be_opened_is_usage_error(tmp_path, capsys):
    code, rep = run_cli(capsys, "truth", "(= 0 0)")
    assert code == 0
    path = tmp_path / "missing" / "x.json"
    assert main(["truth", "(= 0 0)", "--report", str(path)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == rep
    assert captured.err.startswith("error: [Errno 2] ")
    assert not path.parent.exists()


def test_report_is_written_where_asked(tmp_path, capsys):
    path = tmp_path / "x.json"
    assert main(["truth", "(= 0 0)", "--report", str(path)]) == 0
    assert path.read_text() == capsys.readouterr().out


def test_extract_and_validate(capsys):
    code, rep = run_cli(capsys, "extract", PROOF)
    assert code == 0 and rep["ok"]
    code, rep = run_cli(capsys, "validate", PROOF,
                        "--pole", "generated:0,3,8", "--samples", "10")
    assert code == 0
    assert rep["realises"]["kind"] == "in"


def test_extract_and_validate_check_the_proof_once(monkeypatch):
    calls = []
    check = extraction.check_proof

    def counting(p, *args):
        calls.append(p)
        return check(p, *args)

    monkeypatch.setattr(extraction, "check_proof", counting)
    monkeypatch.setattr(cli, "check_proof", counting)
    for command in ("extract", "validate"):
        calls.clear()
        assert main([command, PROOF]) == 0
        assert len(calls) == 1, command


def test_repeated_queries_run_the_same_applications(monkeypatch, capsys):
    # each query's chase memo goes with its kernel, so the second of two
    # identical queries runs every application the first one ran
    calls = []
    apply_value = Kernel._apply_value

    def counting(self, *args):
        calls.append(None)
        return apply_value(self, *args)

    monkeypatch.setattr(Kernel, "_apply_value", counting)
    n = str(vpair(IDENT, vpair(IDENT, 3)))  # an int code, in the pole
    for argv in (["pole", "member", n, "--pole", "generated:3"],
                 ["validate", PROOF, "--pole", "generated:0,3,8"]):
        counts = []
        for _ in range(2):
            calls.clear()
            assert main(argv) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, argv


# ---------------------------------------------------------------------------
# Each exhausted budget exits 2 and names itself; stuck is definite

def test_realises_reports_exhausted_fuel(capsys):
    # 55 codes Fix(Var 0), so every chase from <55, m> runs out of fuel
    code, rep = run_cli(capsys, "realises", "55", "(= 0 0)",
                        "--pole", "generated:0,3,8", "--fuel", "1000")
    assert code == 2
    assert rep["realises"] == {"kind": "unknown", "reason": "fuel"}


def test_extract_and_validate_report_exhausted_fuel(capsys):
    code, rep = run_cli(capsys, "extract", PROOF, "--fuel", "1")
    assert code == 2 and rep == {"ok": False, "reason": "fuel"}
    code, rep = run_cli(capsys, "validate", PROOF, "--fuel", "1")
    assert code == 2
    assert rep["realises"] == {"kind": "unknown", "reason": "fuel"}
    assert capsys.readouterr().err == ""


def test_a_certified_realiser_run_out_of_fuel_is_unknown(capsys):
    # a refuter of an implication pairs the certified realiser of its
    # antecedent, the run k_bot . 0, which takes 2 fuel units
    query = ["realises", "5", "(imp (= 0 0) (= 0 1))",
             "--pole", "generated:0,3,8"]
    code, rep = run_cli(capsys, *query, "--fuel", "1")
    assert code == 2 and rep["samples"] == 0
    assert rep["realises"] == {"kind": "unknown", "reason": "fuel"}
    code, rep = run_cli(capsys, *query, "--fuel", "2")
    assert code == 1 and rep["realises"]["kind"] == "out"
    assert rep["witness"] == 595
    code, rep = run_cli(capsys, "axioms-check", "--pole", "generated:0,3,8",
                        "--fuel", "1")
    assert code == 2
    assert {(r["lhs"], r["rhs"]) for r in rep["records"]
            if r["axiom"] == "Ax_T" and r["instance"] == query[2]} == \
        {("unknown(fuel)", "unknown(fuel)")}


def test_pole_member_reports_exhausted_depth(capsys):
    # 13799629 is <id, <id, 100>>: in the pole, but not within one step
    code, rep = run_cli(capsys, "pole", "member", "13799629",
                        "--pole", "generated:0,3,8:1")
    assert code == 2
    assert rep["member"] == {"kind": "unknown", "reason": "depth"}


def test_realises_under_the_empty_pole_reports_exhausted_width(capsys):
    code, rep = run_cli(capsys, "realises", "0", "(all x (= x x))")
    assert code == 2
    assert rep["realises"] == {"kind": "unknown", "reason": "width"}


def test_ti_realise_reports_exhausted_fuel(capsys):
    code, rep = run_cli(capsys, "ti", "realise", "w", "--fuel", "1",
                        "--pole", "generated:0,3,8")
    assert code == 2
    assert rep == {"alpha": "w", "verdict": "unknown", "reason": "fuel"}


def test_ti_realise_with_a_stuck_realiser_is_out(capsys, monkeypatch):
    monkeypatch.setattr(cli, "wo_realiser",
                        lambda alpha, kernel: encode(Stuck()))
    code, rep = run_cli(capsys, "ti", "realise", "1",
                        "--pole", "generated:0,3,8")
    assert code == 1
    assert rep == {"alpha": "1", "verdict": "out", "reason": None}


# ---------------------------------------------------------------------------
# Ordinal and well-ordering commands

def test_ord_cmp(capsys):
    code, rep = run_cli(capsys, "ord", "cmp", "w^2", "w*5+1")
    assert code == 0 and rep["result"] == "greater"


def test_ord_fs_epsilon_zero(capsys):
    code, rep = run_cli(capsys, "ord", "fs", "e[0]", "2")
    assert code == 0
    assert rep["result"] == "w^w"


@pytest.mark.parametrize("n, code", [
    (str(cli.FS_MAX), 0), ("120000", 3), ("18446744073709551616", 3)])
def test_ord_fs_takes_n_up_to_its_limit(n, code):
    # the n-th member of e[0]'s sequence is a tower of n exponents: the
    # largest n allowed answers, and a larger one is refused before any
    # tower is built
    r = subprocess.run([sys.executable, "-m", "realisability.cli",
                        "ord", "fs", "e[0]", n],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == code
    if code:
        assert r.stderr == "error: ord fs takes n at most %d\n" % cli.FS_MAX
    else:
        result = json.loads(r.stdout)["result"]
        assert result == "^".join(["w"] * cli.FS_MAX)
        # the largest tower reads back as a notation
        assert parse_ord(result) == omega_tower(onat(1), cli.FS_MAX)


def test_a_notation_past_the_nesting_bound_exits_3():
    # 30,000 levels crashed Python 3.10 with SIGSEGV before the bound
    deep = "w^" * 30000 + "1"
    r = subprocess.run([sys.executable, "-m", "realisability.cli",
                        "ord", "cmp", deep, deep],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr == "error: notation nested more than %d deep\n" \
        % NESTING_MAX


def test_ord_fs_rejects_non_limits(capsys):
    code, rep = run_cli(capsys, "ord", "fs", "3", "2")
    assert code == 1


def test_ti_prove(capsys):
    code, rep = run_cli(capsys, "ti", "prove", "zero")
    assert code == 0 and rep["ok"]


def test_ti_prove_without_a_template_is_usage_error(capsys):
    assert main(["ti", "prove", "suc", "--formula", "(= (+ x 0) x)"]) == 3
    assert main(["ti", "prove", "lim", "--alpha", "3"]) == 3


def test_ti_realise(capsys):
    code, rep = run_cli(capsys, "ti", "realise", "w^2",
                        "--pole", "generated:0,3,8", "--samples", "5")
    assert code == 0
    assert rep["verdict"] == "in"


def test_ti_realise_rejects_formula_outside_family(capsys, monkeypatch):
    def no_kernel_work(*args):
        raise AssertionError("kernel work before the formula was checked")

    monkeypatch.setattr(Kernel, "apply", no_kernel_work)
    assert main(["ti", "realise", "1", "--formula", "(= (+ x 0) x)"]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert main(["ti", "realise", "1",
                 "--formula", "(= (+ x y) (+ x y))"]) == 3


def test_ti_validate_small_family(capsys):
    code, rep = run_cli(capsys, "ti", "validate", "--alphas", "0,1,w",
                        "--pole", "generated:0,3,8", "--samples", "5")
    assert code == 0
    assert [r["verdict"] for r in rep["results"]] == ["in"] * 3


# ---------------------------------------------------------------------------
# Level-indexed commands

def test_ram_explicit(capsys):
    code, rep = run_cli(capsys, "ram", "explicit", "refute", "s", "(= 0 1)")
    assert code == 0
    assert rep["result"] == "(imp (= 0 1) (pole s))"


def test_fresh_names_do_not_depend_on_earlier_queries(capsys):
    argv = ["ram", "explicit", "realise", "s", "(= 0 1)"]
    main(list(argv))
    first = capsys.readouterr().out
    main(list(argv))
    assert capsys.readouterr().out == first
    assert "(all v1 " in first


def test_ram_translate_modes(capsys):
    code, rep = run_cli(capsys, "ram", "translate", "conservative",
                        "(pole 3)")
    assert code == 0 and rep["result"] == "(= 0 0)"
    code, rep = run_cli(capsys, "ram", "translate", "empty", "(fals 1 2 5)")
    assert code == 0 and rep["result"] == "(tru 1 (taue (memf 2 5)))"
    code, rep = run_cli(capsys, "ram", "translate", "zero", "(tru 1 7)")
    assert code == 0 and rep["result"].startswith("(imp (= (sentt 7")


def test_ram_axiom_and_level_error(capsys):
    code, rep = run_cli(capsys, "ram", "axiom", "RR4",
                        "--formula", "(= 0 1)", "--a", "4")
    assert code == 0 and rep["ok"]
    code, rep = run_cli(capsys, "ram", "axiom", "RR7", "--beta", "0")
    assert code == 1 and not rep["ok"]


@pytest.mark.parametrize("kind", ["RT1", "RR3", "XX"])
def test_ram_axiom_kinds_it_cannot_print_are_usage_errors(kind, capsys):
    # RT1 and RR3 need two terms the CLI has no option for
    assert main(["ram", "axiom", kind]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("kind", ["RR9", "RR10"])
def test_ram_axiom_prints_numerals_past_the_digit_limit(kind, capsys):
    # the instance holds codes of millions of digits; they print as
    # (pair a b), and the instance reads back to the same text
    code, rep = run_cli(capsys, "ram", "axiom", kind, "--formula",
                        "(imp (= 0 0) (all x (= x x)))", "--beta", "1",
                        "--low", "0", "--gamma", "2")
    assert code == 0 and rep["ok"]
    assert "(pair (pair " in rep["instance"]
    assert print_formula(parse_formula(rep["instance"])) == rep["instance"]


def test_ram_axiom_rr1_pulls_back_the_run_of_a_on_b(capsys):
    code, rep = run_cli(capsys, "ram", "axiom", "RR1", "--a", str(IDENT),
                        "--b", "3")
    assert code == 0
    assert rep["instance"] == "(imp (pole 3) (pole (pair %d 3)))" % IDENT
    # 5 codes a program whose run is stuck, so it has no instance
    code, rep = run_cli(capsys, "ram", "axiom", "RR1", "--a", "5",
                        "--b", "3")
    assert code == 1 and rep == {"ok": False, "reason": "stuck"}
    # 13 codes \x.xx, so 13 . 13 runs until its fuel is gone
    code, rep = run_cli(capsys, "ram", "axiom", "RR1", "--a", "13",
                        "--b", "13", "--fuel", "1000")
    assert code == 2 and rep == {"ok": False, "reason": "fuel"}


def test_printed_rr1_instances_are_not_false(capsys):
    pole, kernel = Generated(frozenset({3})), ordinal_kernel()
    printed = 0
    for a in (IDENT, encode(Lam(Suc(Var(0)))), 5, 13, 40, 1000):
        for b in (0, 2, 3, 7):
            code, rep = run_cli(capsys, "ram", "axiom", "RR1", "--a",
                                str(a), "--b", str(b), "--fuel", "1000")
            if rep["ok"]:
                printed += 1
                inst = parse_formula(rep["instance"])
                assert truth(inst, pole, Budget(), kernel).kind != FALSE, \
                    rep["instance"]
    assert printed >= 8


def test_ram_check_small_corpus(capsys):
    code, rep = run_cli(capsys, "ram", "check", "--count", "20",
                        "--gamma", "2", "--pole", "generated:0,3,8")
    assert code in (0, 2)
    assert not any(r["verdict"] == "disagree" for r in rep["equivalence"])


def test_axioms_check(capsys):
    code, rep = run_cli(capsys, "axioms-check", "--pole", "generated:0,3,8")
    assert code in (0, 2)
    assert not any(r["verdict"] == "disagree" for r in rep["records"])


# ---------------------------------------------------------------------------
# Suite reproducibility

def test_suite_is_byte_identical(capsys):
    argv = ["suite", "--seed", "42", "--pole", "generated:0,3,8"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2
    assert code1 in (0, 2)
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["schema"] == 1
    assert not any(r["verdict"] == "disagree" for r in rep["axioms"])
    assert all(r["verdict"] == "in" for r in rep["ti"])


@pytest.mark.parametrize("name", ["suite-seed0.json", "suite-seed42.json",
                                  "suite-seed42-gen.json"])
def test_suite_matches_golden_output(name, capsys):
    golden = json.loads((GOLDEN / name).read_text())
    code = main(list(golden["argv"]))
    assert capsys.readouterr().out == golden["stdout"]
    assert code == golden["exit_code"]


def test_suite_exits_2_when_only_the_ti_section_is_unknown(capsys):
    code, rep = run_cli(capsys, "suite", "--fuel", "10",
                        "--pole", "generated:0,3,8")
    assert all(r["verdict"] == "agree" for r in rep["axioms"])
    assert all(r["verdict"] == "agree"
               for r in rep["ramified"]["equivalence"])
    assert [(r["verdict"], r["reason"]) for r in rep["ti"]] == \
        [("unknown", "fuel")] * 3
    assert code == 2


def test_suite_seed_changes_report(capsys):
    main(["suite", "--seed", "1"])
    out1 = capsys.readouterr().out
    main(["suite", "--seed", "2"])
    out2 = capsys.readouterr().out
    assert json.loads(out1)["seed"] == 1
    assert out1 != out2


def test_report_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "r.json"
    code = main(["ord", "cmp", "0", "w", "--report", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert path.read_text() == out


def test_console_script_entry_point():
    r = subprocess.run([sys.executable, "-m", "realisability.cli",
                        "ord", "fs", "e[0]", "2"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"] == "w^w"


def test_main_builds_the_parser_once(capsys, monkeypatch):
    main(["truth", "(= 0 0)"])
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kw):
        built.append(kw.get("prog"))
        init(self, *args, **kw)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main(["truth", "(= 0 1)"]) == 1
    assert main(["ord", "fs", "e[0]", "2"]) == 0
    assert built == []


def test_queries_share_no_parser_state(capsys, monkeypatch):
    # each answer must be the one a fresh interpreter gives, so no flag,
    # default or error from an earlier query carries over to a later one
    monkeypatch.setenv("COLUMNS", "80")
    query = ["realises", "1", "(= 0 0)", "--pole", "generated:0,3,8"]
    for argv, want in ((query + ["--samples", "1"], 0),
                       (query + ["--samples", "many"], 3),
                       (["--help"], 0),
                       (query, 0)):
        code = main(argv)
        got = capsys.readouterr()
        r = subprocess.run([sys.executable, "-m", "realisability.cli",
                            *argv], capture_output=True, text=True)
        assert code == r.returncode == want
        assert (got.out, got.err) == (r.stdout, r.stderr)
