"""The benchmark's tracer still finds every function it wraps.

perfbench/tracer.py replaces each function named in its TARGETS wherever
the package binds it, and refuses to install when one is missing, renamed
or held by another module as a stale copy. Installing it here makes such a
change fail the test suite rather than a traced benchmark run. Traced
certify and analyze runs then check the call paths the traced benchmark
counts on, that six small ops reach every function a workload must
record a call on (a fully symmetric one included), and that tracing leaves every report as it was.
"""

import importlib
import io
import itertools
import sys
from pathlib import Path

import pytest

from matroidalkit.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

K23 = "n=5; x1*x3, x1*x4, x1*x5, x2*x3, x2*x4, x2*x5"
# every variable lies in one swap orbit: criteria_check takes one colon
V53 = "n=5; " + ", ".join("*".join(f"x{i}" for i in c)
                          for c in itertools.combinations(range(1, 6), 3))
BLOCK_POWER = "n=5; " + ", ".join(f"{a}*x{c}" for a in ("x1^2", "x1*x2", "x2^2")
                                  for c in (3, 4, 5))


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("tracer")
    for name in dict.fromkeys(module_name for module_name, _ in module.TARGETS):
        importlib.import_module(f"{module.PACKAGE}.{name}")
    return module


def run(argv, stdin, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    return code, capsys.readouterr().out


def traced_run(tracer_module, argv, stdin, capsys, monkeypatch):
    """The report of one traced main() call, and its spans as (name, parent)."""
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        # main is looked up anew so the call goes through the wrapper
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = sys.modules["matroidalkit.cli"].main(argv)
    finally:
        tracer.restore()
    names = [tracer_module.SPAN_NAMES[i] for i in tracer.span_name]
    return (code, capsys.readouterr().out), list(zip(names, tracer.span_parent))


def test_every_target_is_wrapped_and_restored(tracer_module):
    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # raises TracerError on a missing, renamed or stale target
        targets = []
        for module_name, name in tracer_module.TARGETS:
            owner_name, _, attr = name.rpartition(".")
            owner = sys.modules[f"{tracer_module.PACKAGE}.{module_name}"]
            if owner_name:
                owner = getattr(owner, owner_name)
            targets.append((owner, attr, vars(owner)[attr].__wrapped__))
    finally:
        tracer.restore()
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, attr


def test_traced_certify_reduces_inside_radical_membership(tracer_module, capsys,
                                                          monkeypatch):
    argv = ["certify", "--json", "-"]
    plain = run(argv, K23, capsys, monkeypatch)
    traced, spans = traced_run(tracer_module, argv, K23, capsys, monkeypatch)
    assert traced == plain and plain[0] == 0
    inside = [name for name, parent in spans
              if name == "groebner.normal_form" and parent >= 0
              and spans[parent][0] == "groebner.radical_membership"]
    assert inside


def test_traced_analyze_decomposes_a_block_power(tracer_module, capsys, monkeypatch):
    argv = ["analyze", "--json", "--no-certify", "-"]
    plain = run(argv, BLOCK_POWER, capsys, monkeypatch)
    traced, spans = traced_run(tracer_module, argv, BLOCK_POWER, capsys, monkeypatch)
    assert traced == plain and plain[0] == 0
    called = {name for name, _ in spans}
    assert {"decomposition.associated_primes",
            "decomposition.irreducible_decomposition"} <= called


def test_small_ops_reach_every_expected_name(tracer_module, capsys, monkeypatch):
    # run.py fails a traced workload on which a name of TRACE_EXPECTED records
    # no call; a field-split name counts its .q and .gf spans together
    expected = importlib.import_module("workloads").TRACE_EXPECTED
    certify = ["certify", "--json", "--field"]
    analyze = ["analyze", "--json", "--no-certify", "--field"]
    ops = {"certify": [(certify + ["q", "-"], K23), (certify + ["gf:32003", "-"], K23)],
           "analyze": [(analyze + ["q", "-"], K23), (analyze + ["gf:2", "-"], K23),
                       (analyze + ["q", "-"], BLOCK_POWER), (analyze + ["q", "-"], V53)]}
    for workload, runs in ops.items():
        called = set()
        for argv, stdin in runs:
            (code, _), spans = traced_run(tracer_module, argv, stdin, capsys, monkeypatch)
            assert code == 0, argv
            called.update(name for name, _ in spans)
            if stdin == V53:
                assert "ideals.MonomialIdeal.colon" in {name for name, _ in spans}
        called |= {name.removesuffix(".q").removesuffix(".gf") for name in called}
        assert sorted(set(expected[workload]) - called) == [], workload
