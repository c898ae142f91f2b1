"""The tracing wrappers change no output and leave no binding behind."""

import inspect

import pytest

import run
import tracer
import workloads

LIBRARY = ("realisability",) + tuple("realisability." + layer
                                     for layer in tracer.LAYERS)


def bindings():
    import importlib

    out = {}
    for name in LIBRARY:
        mod = importlib.import_module(name)
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
    from realisability.vm import Kernel
    for attr, value in vars(Kernel).items():
        out[("Kernel", attr)] = value
    return out


def sample(name, k=3):
    expected = workloads.load_expected(name)
    argvs = workloads.plan(name, 0, expected)
    cheap = [a for a in argvs
             if expected["queries"][workloads.query_key(a)]["group"]
             != "fuel-bound"]
    picked = cheap[:k]
    workloads.materialise(picked)
    return picked


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_outputs_are_byte_identical(name, cli, monkeypatch):
    monkeypatch.chdir(workloads.ROOT)
    argvs = sample(name)
    plain = [run.issue(cli, a) for a in argvs]
    before = bindings()
    tr = tracer.Tracer()
    with tr:
        assert cli.main is not before[("realisability.cli", "main")]
        traced = [run.issue(cli, a) for a in argvs]
        first = tr.deterministic_counts()
        tr.reset()
        [run.issue(cli, a) for a in argvs]
        again = tr.deterministic_counts()
    after = bindings()
    assert [(o.code, o.stdout) for o in traced] == \
        [(o.code, o.stdout) for o in plain]
    assert all(o.error is None for o in plain)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert first == again
    assert first["cli.main.calls"] == len(argvs)
    assert first["vm.apply.calls"] > 0


def test_layer_self_times_add_up_to_the_outermost_spans(cli, monkeypatch):
    monkeypatch.chdir(workloads.ROOT)
    tr = tracer.Tracer()
    with tr:
        for argv in sample("ti", 2):
            run.issue(cli, argv)
    m = tr.metrics()
    layers = sum(m["%s.self_s" % layer] for layer in tracer.LAYERS)
    assert layers == pytest.approx(tr.incl["cli.main"], rel=1e-9)
    assert m["ordinals.template_extractions"] > 0


def test_every_traced_function_is_public():
    tr = tracer.Tracer()
    with tr:
        for owner, name, original in tr._patches:
            assert inspect.isfunction(original)
            assert not name.startswith("_") or name == "_apply_value"
