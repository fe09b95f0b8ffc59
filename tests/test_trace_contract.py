"""The benchmark's tracer still finds every function it wraps.

perfbench/tracer.py replaces each function named in its TARGETS wherever
the package binds it, and refuses to install when one is missing, renamed
or held by another module as a stale copy. Installing it here makes such a
change fail the test suite rather than a traced benchmark run. Traced
certify and analyze runs then check the call paths the traced benchmark
counts on, and that tracing leaves every report as it was.
"""

import importlib
import io
import sys
from pathlib import Path

import pytest

from matroidalkit.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

K23 = "n=5; x1*x3, x1*x4, x1*x5, x2*x3, x2*x4, x2*x5"
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
