"""The workload plans: reproducible from the seed, drawn from the expected
universe with fixed quotas."""

import json
from collections import Counter

import pytest

import workloads


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_argv_lists(name):
    expected = workloads.load_expected(name)
    first = workloads.plan(name, 7, expected)
    assert first == workloads.plan(name, 7, expected)
    assert first != workloads.plan(name, 8, expected)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_plan_takes_the_quotas_from_the_expected_universe(name):
    expected = workloads.load_expected(name)["queries"]
    universe = {workloads.query_key(argv)
                for argv, _, _ in workloads.universe(name)}
    assert universe == set(expected)
    argvs = workloads.plan(name, 3, {"queries": expected})
    keys = [workloads.query_key(a) for a in argvs]
    assert len(set(keys)) == len(keys)
    groups = Counter(expected[k]["group"] for k in keys)
    fixed = sum(e["group"] == workloads.FIXED_GROUP
                for e in expected.values())
    assert groups.pop(workloads.FIXED_GROUP, 0) == fixed
    assert dict(groups) == workloads.QUOTAS[name]


def test_generated_proof_text_does_not_depend_on_history():
    from realisability.extraction import check_proof, parse_proof
    from realisability.syntax import print_formula

    text = workloads.proof_text(3, 4)
    workloads.proof_text(5, 6)
    assert workloads.proof_text(3, 4) == text
    assert print_formula(check_proof(parse_proof(text))) == \
        "(= (+ 3 4) 7)"


def test_every_plan_query_is_a_realis_command():
    for name in workloads.NAMES:
        for key in workloads.load_expected(name)["queries"]:
            argv = json.loads(key)
            assert argv[0] in ("validate", "ram", "ti")
