#!/usr/bin/env python3
"""Write bench/expected/<workload>.json: the exit code and stdout digest of
every query in a workload's universe, with the group and stratum the plan
draws it from.

    python3 bench/make_expected.py [workload ...]

Run it only on a commit whose outputs are the reference, because the
benchmark fails every query whose output differs.  A ramified query's
stratum is the number of its kernel runs that exhaust their fuel, counted
by a traced second run whose output must equal the untraced one.
"""

from __future__ import annotations

import json
import os
import sys

import run
import tracer
import workloads
from workloads import EXPECTED_DIR, digest, query_key


def generate(name: str, cli) -> dict:
    entries = workloads.universe(name)
    workloads.materialise([argv for argv, _, _ in entries])
    tr = tracer.Tracer()
    queries = {}
    for argv, group, stratum in entries:
        outcome = run.issue(cli, argv)
        problems, _, _ = run.check(argv, outcome)
        if problems:
            raise SystemExit("%s: %s" % (" ".join(argv), "; ".join(problems)))
        if group is None:
            tr.reset()
            with tr:
                traced = run.issue(cli, argv)
            if (traced.code, traced.stdout) != (outcome.code, outcome.stdout):
                raise SystemExit("tracing changed the output of %s"
                                 % " ".join(argv))
            exhausted = tr.counts["vm.diverged_fuel"]
            group = "fuel-bound" if exhausted else "fast"
            stratum = "fuel-exhausted=%d" % exhausted
        queries[query_key(argv)] = {
            "exit": outcome.code, "stdout_sha256": digest(outcome.stdout),
            "group": group, "stratum": stratum,
        }
    machine = run.machine_record()
    return {"workload": name,
            "generated_from": {k: machine[k] for k in
                               ("git_commit", "source_sha256", "python")},
            "queries": queries}


def main(argv: list) -> int:
    os.chdir(workloads.ROOT)
    cli = run.import_cli()
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in argv or workloads.NAMES:
        data = generate(name, cli)
        path = EXPECTED_DIR / ("%s.json" % name)
        path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
        print("%s: %d queries -> %s" % (name, len(data["queries"]),
                                        path.relative_to(workloads.ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
