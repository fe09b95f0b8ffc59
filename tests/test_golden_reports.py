"""CLI reports compared byte for byte with a committed expected output.

Each case runs `main` in process on a fixed input and compares its exit
code and stdout with tests/golden_reports.json. A change that alters a
report, even by one byte, fails here; a deliberate change regenerates the
file with

    PYTHONPATH=src python tests/test_golden_reports.py

and shows the new reports in the diff.
"""

import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from matroidalkit import cli
from matroidalkit.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

K222 = "n=6; " + ", ".join(f"x{a}*x{b}*x{c}" for a in (1, 2) for b in (3, 4) for c in (5, 6))
V64 = "n=6; " + ", ".join(
    "*".join(f"x{i}" for i in range(1, 7) if i not in (a, b))
    for a in range(1, 7) for b in range(a + 1, 7))
K23 = "n=5; x1*x3, x1*x4, x1*x5, x2*x3, x2*x4, x2*x5"
K34 = "n=7; " + ", ".join(f"x{a}*x{b}" for a in (1, 2, 3) for b in (4, 5, 6, 7))
V73 = "n=7; " + ", ".join("*".join(f"x{i}" for i in c)
                          for c in itertools.combinations(range(1, 8), 3))
# the block power (x1, x2)^2 (x3, x4, x5): not square-free, with mixed heights
BLOCK_POWER = "n=5; " + ", ".join(f"{a}*x{c}" for a in ("x1^2", "x1*x2", "x2^2")
                                  for c in (3, 4, 5))
# mixed degrees and 35 irreducible components; the splitting recursion that
# once decomposed non-square-free input refused it past 512 leaves
MIXED_35 = ("n=6; x1^3*x2*x3*x4^3*x5^2*x6^2, x1^2*x2^2*x3^2*x4^4*x5*x6^3, "
            "x1*x2^3*x4*x5*x6^4, x2^2*x3^4*x4*x5^3*x6")

# Stanley-Reisner ideal of the 6-vertex RP^2: pd 4 over GF(2), 3 over Q
RP2_TRIANGLES = ({1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}, {1, 2, 6},
                 {2, 3, 5}, {2, 4, 5}, {2, 4, 6}, {3, 4, 6}, {3, 5, 6})
RP2 = "n=6; " + ", ".join("*".join(f"x{i}" for i in c)
                          for c in itertools.combinations(range(1, 7), 3)
                          if set(c) not in RP2_TRIANGLES)
# a seeded draw of 20 of the 3-subsets of [10] (random.Random(2019)); not
# matroidal and without linear quotients, so pd comes from Hochster's formula
RANDOM_10 = ("n=10; x1*x4*x9, x1*x4*x10, x1*x7*x8, x1*x7*x9, x2*x3*x5, x2*x3*x8, "
             "x2*x5*x9, x2*x9*x10, x3*x6*x8, x3*x6*x10, x3*x7*x10, x3*x8*x9, "
             "x3*x8*x10, x4*x7*x10, x5*x6*x7, x5*x6*x8, x5*x7*x10, x5*x8*x9, "
             "x6*x7*x9, x8*x9*x10")
# K_{16,16}: pd 31 from the linear quotients, with no table built; its
# layers would test 2^32 - 33 candidates, so MEMBER_BUDGET skips rank
K16_16 = "n=32; " + ", ".join(f"x{a}*x{b}" for a in range(1, 17) for b in range(17, 33))
# (x1, ..., x11) * x12 * ... * x40: pd 11, but its layers would test
# 1,221,246,132 candidates, over MEMBER_BUDGET
TAIL_40 = "n=40; " + ", ".join(f"x{i}*" + "*".join(f"x{k}" for k in range(12, 41))
                               for i in range(1, 12))

# name: (argv, stdin)
CASES = {
    "certify_k222_q": (["certify", "--json", "-"], K222),
    "certify_v64_gf32003": (["certify", "--json", "--field", "gf:32003", "-"], V64),
    "certify_k23_gf2": (["certify", "--json", "--field", "gf:2", "-"], K23),
    "analyze_k23_text": (["analyze", "-"], K23),
    "analyze_k23_json": (["analyze", "--json", "-"], K23),
    "witness_k23_json": (["witness", "--json", "-"], K23),
    # K_{3,4} and V(7,3) pin the order of terms and layers past K_{2,3}
    "witness_k34_json": (["witness", "--json", "-"], K34),
    "analyze_v73_text": (["analyze", "-"], V73),
    "analyze_block_power_text": (["analyze", "-"], BLOCK_POWER),
    "analyze_block_power_json": (["analyze", "--json", "-"], BLOCK_POWER),
    "analyze_mixed_35_text": (["analyze", "--no-certify", "-"], MIXED_35),
    # torsion in H~_1(RP^2) takes the homology route to a field-dependent pd
    "analyze_rp2_gf2_text": (["analyze", "--no-certify", "--field", "gf:2", "-"], RP2),
    "analyze_rp2_q_text": (["analyze", "--no-certify", "-"], RP2),
    "analyze_random_10_json": (["analyze", "--json", "--no-certify", "-"], RANDOM_10),
    "analyze_k16_16_text": (["analyze", "-"], K16_16),
    "analyze_tail_40_text": (["analyze", "-"], TAIL_40),
    "enumerate_4_2": (["enumerate", "4", "2"], ""),
    "reproduce_paper_4_2": (["reproduce-paper", "--max-n", "4", "--max-d", "2",
                             "--no-certify"], ""),
}


def run_case(argv, stdin, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    return {"exit": code, "stdout": capsys.readouterr().out}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, capsys, monkeypatch):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    argv, stdin = CASES[name]
    assert expected["argv"] == argv and expected["stdin"] == stdin
    got = run_case(argv, stdin, capsys, monkeypatch)
    assert got["exit"] == expected["exit"]
    assert got["stdout"] == expected["stdout"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_writer_matches_json_dumps(name, capsys, monkeypatch):
    # every case's payload, written by the CLI's writer and by json.dumps
    written = []
    write = cli._json_text

    def checked(payload):
        written.append(write(payload))
        assert written[-1] == json.dumps(payload, indent=2)
        return written[-1]
    monkeypatch.setattr(cli, "_json_text", checked)
    argv, stdin = CASES[name]
    argv = argv if "--json" in argv else [argv[0], "--json", *argv[1:]]
    run_case(argv, stdin, capsys, monkeypatch)
    assert len(written) == 1


def test_every_case_has_an_expected_report():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


def _regenerate():
    golden = {}
    for name, (argv, stdin) in sorted(CASES.items()):
        out, sys.stdin, sys.stdout = sys.stdout, io.StringIO(stdin), io.StringIO()
        try:
            code = main(list(argv))
            stdout = sys.stdout.getvalue()
        finally:
            sys.stdout, sys.stdin = out, sys.__stdin__
        golden[name] = {"argv": argv, "stdin": stdin, "exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
