"""Every query of the benchmark universes (`bench/expected/*.json`), run
in one process through `cli.main`: each gives its recorded exit code and
stdout digest.  Nothing is written under bench/: the `prove_plus` proofs
go to a temporary directory, and bench/workloads.py is loaded without
caching its bytecode."""

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from realisability import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("corpus", "ramified", "ti")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
    return module


def _local(argv, workloads, proofs):
    """argv with a `prove_plus` proof path moved to proofs, where its
    text is written, and a shipped proof's path made absolute."""
    out = []
    for arg in argv:
        match = workloads._PLUS_RE.match(arg)
        if match is not None:
            path = proofs / pathlib.Path(arg).name
            if not path.exists():
                path.write_text(workloads.proof_text(int(match.group(1)),
                                                     int(match.group(2))))
            arg = str(path)
        elif arg.endswith(".sexp"):
            arg = str(ROOT / arg)
        out.append(arg)
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_universe_query_gives_its_expected_output(name, workloads,
                                                        tmp_path, capsys):
    with open(BENCH / "expected" / ("%s.json" % name)) as f:
        queries = json.load(f)["queries"]
    assert len(queries) == {"corpus": 504, "ramified": 600, "ti": 216}[name]
    wrong = []
    for key, want in sorted(queries.items()):
        code = cli.main(_local(json.loads(key), workloads, tmp_path))
        out = capsys.readouterr().out.encode()
        got = (code, hashlib.sha256(out).hexdigest())
        if got != (want["exit"], want["stdout_sha256"]):
            wrong.append(key)
    assert not wrong
