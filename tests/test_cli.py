"""Parsing grammar, command dispatch, report contents, exit codes."""

import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from matroidalkit import (ParseError, make_ideal, parse_ideal, pd_depth,
                          transversal)
from matroidalkit import cli
from matroidalkit.cli import Config, main, run_command
from matroidalkit.parsing import MAX_VARIABLES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTextGrammar:
    def test_header_and_generators(self, two_blocks_n4):
        assert parse_ideal("n=4; x1*x3, x1*x4, x2*x3, x2*x4") == two_blocks_n4

    def test_inferred_ambient(self):
        ideal = parse_ideal("x1^2*x2, x1^2*x3")
        assert ideal.n == 3
        assert ideal == make_ideal(3, [(2, 1, 0), (2, 0, 1)])

    def test_header_only_zero_ideal(self):
        ideal = parse_ideal("n=2;")
        assert ideal.is_zero and ideal.n == 2

    def test_whitespace_insensitive(self):
        assert parse_ideal("n=3;\n  x1 * x2 ,\n x2*x3") == \
            parse_ideal("n=3;x1*x2,x2*x3")

    def test_repeated_variable_multiplies(self):
        assert parse_ideal("x1*x1*x2") == make_ideal(2, [(2, 1)])

    def test_minimalizes(self):
        assert parse_ideal("n=2; x1, x1*x2") == make_ideal(2, [(1, 0)])

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            parse_ideal("x1 x2")

    def test_variable_index_zero(self):
        with pytest.raises(ParseError):
            parse_ideal("x0*x1")

    def test_exponent_zero(self):
        with pytest.raises(ParseError):
            parse_ideal("x1^0")

    def test_exponent_overflow(self):
        with pytest.raises(ParseError):
            parse_ideal(f"x1^{2 ** 63}")
        parse_ideal(f"x1^{2 ** 63 - 1}")  # boundary is legal

    def test_trailing_comma(self):
        with pytest.raises(ParseError):
            parse_ideal("x1*x2,")

    def test_declared_n_too_small(self):
        with pytest.raises(ParseError):
            parse_ideal("n=2; x1*x3")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_ideal("   ")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_ideal("n=3;\nx1 & x2")
        assert info.value.line == 2

    def test_variable_count_limit(self):
        assert MAX_VARIABLES == 1024
        assert parse_ideal(f"n={MAX_VARIABLES};").n == MAX_VARIABLES
        assert parse_ideal(f"x{MAX_VARIABLES}").n == MAX_VARIABLES
        # each would otherwise build exponent vectors of length n
        for bad in (f"n={MAX_VARIABLES + 1};", f"n={MAX_VARIABLES + 1}; x1",
                    f"x{MAX_VARIABLES + 1}", "x5000000000", "n=1000000000;"):
            with pytest.raises(ParseError, match="limit"):
                parse_ideal(bad)


class TestJsonInput:
    def test_round_trip(self, two_blocks_n4):
        blob = json.dumps({"n": 4, "gens": [list(g.exponents)
                                            for g in two_blocks_n4.gens]})
        assert parse_ideal(blob) == two_blocks_n4

    def test_schema_errors(self):
        for bad in ('{"gens": []}',
                    '{"n": 2}',
                    '{"n": 2, "gens": [[1]]}',
                    '{"n": 2, "gens": [[1, -1]]}',
                    '{"n": "2", "gens": []}',
                    '{"n": 2, "gens": [[1, 1]'):
            with pytest.raises(ParseError):
                parse_ideal(bad)

    def test_variable_count_limit(self):
        assert parse_ideal(json.dumps({"n": MAX_VARIABLES, "gens": []})).n == MAX_VARIABLES
        for n in (MAX_VARIABLES + 1, 10 ** 9):
            with pytest.raises(ParseError, match="limit"):
                parse_ideal(json.dumps({"n": n, "gens": []}))

    def test_booleans_rejected(self):
        for bad in ('{"n": true, "gens": [[true]]}',
                    '{"n": 1, "gens": [[true]]}',
                    '{"n": 2, "gens": [[1, false]]}'):
            with pytest.raises(ParseError):
                parse_ideal(bad)


class TestParsedRows:
    def test_random_inputs_give_the_ideal_of_plain_tuples(self):
        # both parsers build their rows unchecked; make_ideal checks plain tuples
        from matroidalkit.parsing import MAX_EXPONENT
        rng = random.Random(4099)
        for _ in range(300):
            n = rng.randint(1, 8)
            rows = []
            for _ in range(rng.randint(1, 6)):
                row = [rng.choice((0, 0, 1, 2, 3, MAX_EXPONENT - rng.randrange(4)))
                       for _ in range(n)]
                row[rng.randrange(n)] = rng.randint(1, 3)
                rows.append(tuple(row))
            expected = make_ideal(n, rows)
            factors = []
            for row in rows:
                parts = []
                for i, e in enumerate(row, start=1):
                    while e:  # split an exponent across repeated factors
                        part = rng.randint(1, e) if rng.random() < 0.3 else e
                        parts.append(f"x{i}" if part == 1 and rng.random() < 0.5
                                     else f"x{i}^{part}")
                        e -= part
                rng.shuffle(parts)
                factors.append(" * ".join(parts) if rng.random() < 0.5 else "*".join(parts))
            text = f"n = {n};\n" + ", ".join(factors)
            blob = json.dumps({"n": n, "gens": [list(row) for row in rows]})
            for parsed in (parse_ideal(text), parse_ideal(blob)):
                assert parsed == expected, (text, blob)
                assert [g.exponents for g in parsed.gens] == [g.exponents for g in expected.gens]
                assert all(type(e) is int for g in parsed.gens for e in g.exponents)


class TestRunCommand:
    def test_analyze_matches_modules(self, two_blocks_n4):
        payload = run_command("analyze", Config(), ideal=two_blocks_n4)
        assert payload["summary"]["mu"] == two_blocks_n4.mu
        assert payload["matroidal"]["is_matroidal"] is True
        assert payload["decomposition"]["height"] == 2
        assert payload["decomposition"]["is_unmixed"] is True
        assert sorted(payload["decomposition"]["ass"]) == [[1, 2], [3, 4]]
        assert payload["partition"]["m"] == 2
        assert payload["criteria"]["c1_identity"] is True
        profile = pd_depth(two_blocks_n4)
        assert payload["homology"]["pd"] == profile.pd
        assert payload["homology"]["depth"] == profile.depth
        assert payload["homology"]["is_cm"] is False
        assert payload["rank"]["lower"] == 3 and payload["rank"]["upper"] == 3
        assert payload["certification"]["passed"] is True

    def test_analyze_skips_inapplicable_sections(self):
        ideal = make_ideal(4, [(1, 1, 0, 0), (0, 0, 1, 1)])
        payload = run_command("analyze", Config(), ideal=ideal)
        assert payload["matroidal"]["is_matroidal"] is False
        witness = payload["matroidal"]["failure_witness"]
        assert witness["u"] == "x1*x2" and witness["variable"] == 1
        assert "skipped" in payload["partition"]
        assert "skipped" in payload["rank"]

    def test_analyze_json_payload_round_trips(self, two_blocks_n5):
        payload = run_command("analyze", Config(), ideal=two_blocks_n5)
        blob = json.dumps({"n": payload["input"]["n"],
                           "gens": payload["input"]["gens"]})
        assert parse_ideal(blob) == two_blocks_n5

    def test_enumerate_census(self):
        payload = run_command("enumerate", Config(), n=3, d=2)
        assert payload["count"] == 4
        cm_rows = [row for row in payload["ideals"] if row["is_cm"]]
        assert len(cm_rows) == 1
        assert cm_rows[0]["display"] == "(x1*x2, x1*x3, x2*x3)"

    def test_no_certify(self, two_blocks_n4):
        payload = run_command("analyze", Config(certify=False),
                              ideal=two_blocks_n4)
        assert "skipped" in payload["certification"]


class TestMainExitCodes:
    def test_analyze_ok(self, capsys, tmp_path):
        source = tmp_path / "ideal.txt"
        source.write_text("n=4; x1*x3, x1*x4, x2*x3, x2*x4")
        code, out, err = run(capsys, "analyze", str(source))
        assert code == 0
        assert "pd: 3" in out and "is_unmixed: True" in out

    def test_parse_error_is_one(self, capsys, tmp_path):
        source = tmp_path / "bad.txt"
        source.write_text("x1 x2")
        code, out, err = run(capsys, "analyze", str(source))
        assert code == 1
        assert "parse error" in err and "line 1" in err

    def test_missing_file_is_one(self, capsys):
        code, out, err = run(capsys, "analyze", "/nonexistent/ideal.txt")
        assert code == 1

    def test_file_that_is_not_utf8_is_one(self, capsys, tmp_path):
        source = tmp_path / "bad.txt"
        source.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "analyze", str(source))
        assert code == 1 and out == ""
        assert err.startswith(f"parse error: cannot read {source}: not UTF-8 text")

    def test_domain_error_is_two(self, capsys, tmp_path):
        source = tmp_path / "pair.txt"
        source.write_text("x1*x2, x3*x4")
        code, out, err = run(capsys, "witness", str(source))
        assert code == 2
        assert "matroidal" in err

    def test_theorem_violation_is_three(self, capsys, monkeypatch):
        from matroidalkit import TheoremViolationError
        from matroidalkit import cli

        def boom(*args, **kwargs):
            raise TheoremViolationError("forced for the exit-code contract")

        monkeypatch.setattr(cli, "run_command", boom)
        code, out, err = run(capsys, "enumerate", "3", "2")
        assert code == 3
        assert "theorem violation" in err

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate"])  # missing n and d
        assert info.value.code == 1

    def test_bad_field_is_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "3", "2", "--field", "gf:4"])
        assert info.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["enumerate", "٣", "2"], ["enumerate", "3_0", "1"], ["enumerate", "3", "+2"],
        ["enumerate", " 3", "2"], ["enumerate", "3", "2", "--field", "gf:٣"],
        ["enumerate", "3", "2", "--field", "gf:0_7"], ["enumerate", "3", "2", "--field", "gf:+7"],
        ["enumerate", "3", "2", "--field", "gf: 7"], ["enumerate", "3", "2", "--field", "gf:"],
        ["reproduce-paper", "--max-n", "-5"], ["reproduce-paper", "--max-n", "٣"],
        ["reproduce-paper", "--max-d", "1_0"], ["reproduce-paper", "--max-d", "2 "],
    ], ids=repr)
    def test_counts_are_ascii_digits_only(self, capsys, monkeypatch, argv):
        # int() takes all of these; the input grammar refuses them, and so do the options
        monkeypatch.setattr(cli, "run_command", None)  # never reached
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: matroidalkit {argv[0]}") and "ASCII digits" in err

    @pytest.mark.parametrize("argv", [["enumerate", "3", "1" * 5000],
                                      ["enumerate", "3", "2", "--field", "gf:" + "7" * 5000]],
                             ids=["d", "field"])
    def test_count_past_int_string_limit_is_one(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "run_command", None)  # never reached
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert "int-string limit" in err and "5000 digits" in err
        assert "_count" not in err and "1" * 50 not in err and "7" * 50 not in err

    def test_oversized_enumeration_is_two(self, capsys):
        code, out, err = run(capsys, "enumerate", "7", "3")
        assert code == 2
        assert "2^35" in err and out == ""
        assert "over the limit ENUMERATION_MAX_LAYER = 20" in err

    def test_huge_variable_count_is_one(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("n=1000000000;"))
        code, out, err = run(capsys, "analyze")
        assert code == 1
        assert "parse error" in err and out == ""


# mutations of valid text and JSON input, each with the exit code it must
# give; a parse error that knows its place names line and column. Only ASCII
# digits are read: str.isdigit takes '²', which int() refuses, and reads '٣' as 3
MUTATED_INPUTS = [
    ("x1*x²", 1, "line 1, col 5"),
    ("x1^²", 1, "line 1, col 4"),
    ("x١*x٢", 1, "line 1, col 2"),
    ("n=٣; x1", 1, "line 1, col 3"),
    ("x0*x1", 1, "line 1, col 3"),
    ("x1^-1", 1, "line 1, col 4"),
    ("n=1e3; x1", 1, "line 1, col 4"),
    ("x1^1.5*x2", 1, "line 1, col 5"),
    ("x1.0", 1, "line 1, col 3"),
    ("n=2; x1*x3", 1, "exceeds declared n=2"),
    ("n=4; x1*x", 1, "line 1, col 10"),
    ("n=", 1, "line 1, col 3"),
    ("x1*", 1, "line 1, col 4"),
    ("n=3; x1*x2,", 1, "line 1, col 12"),
    ("x1*x2, x1*x2", 0, None),
    ('{"n": 2, "gens": [[1, 0.5]]}', 1, "bad exponent vector"),
    ('{"n": 2, "gens": [[1.0, 1]]}', 1, "bad exponent vector"),
    ('{"n": 2.0, "gens": [[1, 0]]}', 1, "positive integer"),
    ('{"n": 1e3, "gens": []}', 1, "positive integer"),
    ('{"n": true, "gens": [[1]]}', 1, "positive integer"),
    ('{"n": 2, "gens": [[true, false]]}', 1, "bad exponent vector"),
    ('{"n": {"n": 2}, "gens": []}', 1, "positive integer"),
    ('{"n": 2, "gens": [[[1], 0]]}', 1, "bad exponent vector"),
    ('{"n": 2, "gens": {"a": [1, 0]}}', 1, "list of exponent vectors"),
    ('{"n": 2, "gens": [null]}', 1, "bad exponent vector"),
    ('{"n": 2, "gens": [[1, 0, 1]]}', 1, "bad exponent vector"),
    ('{"n": 2, "gens": [[1, -1]]}', 1, "bad exponent vector"),
    ('{"n": ١, "gens": []}', 1, "line 1, col 7"),
    ('{"n": 2, "gens": [[1, 1]', 1, "line 1, col 25"),
    ('{"n": 2, "gens": [[1, 1], [1, 1]]}', 0, None),
    # past Python's int-string limit, and past the decoder's recursion limit
    ('{"n": 2, "gens": [[1' + "0" * 5000 + ', 0]]}', 1, "too many digits"),
    ('{"n": 2, "gens": ' + "[" * 100_000, 1, "nested too deeply"),
    # well-formed, but outside what certify, partition and witness are stated for
    ("x1*x2, x3", (0, 2, 2, 2), "error: "),
    ("x1^2*x2, x1*x2^2", (0, 2, 2, 2), "error: "),
]
# the commands each input goes through; a row's exit code is pinned for
# all of them, or given one per command in this order
MUTATION_COMMANDS = (["analyze", "--json"], ["certify"], ["partition", "--json"],
                     ["witness", "--json"])


class TestMutatedInput:
    # a long input is named by its first 60 characters
    @pytest.mark.parametrize("text, expected, where", MUTATED_INPUTS,
                             ids=[repr(text[:60]) + "..." * (len(text) > 60)
                                  for text, _, _ in MUTATED_INPUTS])
    def test_exit_code_without_an_escaped_exception(self, text, expected, where, capsys,
                                                    monkeypatch):
        if isinstance(expected, int):
            expected = (expected,) * len(MUTATION_COMMANDS)
        for argv, wanted in zip(MUTATION_COMMANDS, expected, strict=True):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, err = run(capsys, *argv)
            assert code in (0, 1, 2, 3)
            assert code == wanted, (argv, err)
            if code == 1:
                assert err.startswith("parse error: ") and where in err and out == ""
            elif code == 2:
                assert err.startswith(where) and out == ""
            elif "--json" in argv:
                json.loads(out)


class TestOutputs:
    def test_json_flag_emits_json(self, capsys, tmp_path):
        source = tmp_path / "ideal.txt"
        source.write_text("n=3; x1*x2, x1*x3, x2*x3")
        code, out, err = run(capsys, "analyze", str(source), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["homology"]["pd"] == 2

    def test_text_and_json_numeric_content_agree(self, capsys, tmp_path):
        source = tmp_path / "ideal.txt"
        source.write_text("n=4; x1*x3, x1*x4, x2*x3, x2*x4")
        _, json_out, _ = run(capsys, "analyze", str(source), "--json")
        payload = json.loads(json_out)
        _, text_out, _ = run(capsys, "analyze", str(source))
        for key in ("pd", "depth"):
            assert f"{key}: {payload['homology'][key]}" in text_out
        assert f"height: {payload['decomposition']['height']}" in text_out
        assert f"m: {payload['partition']['m']}" in text_out
        assert f"lower: {payload['rank']['lower']}" in text_out

    def test_partition_command(self, capsys, tmp_path):
        source = tmp_path / "ideal.txt"
        source.write_text("n=5; x1*x3, x1*x4, x1*x5, x2*x3, x2*x4, x2*x5")
        code, out, err = run(capsys, "partition", str(source), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["partition"]["blocks"] == [[1, 2], [3, 4, 5]]

    def test_certify_command_gf(self, capsys, tmp_path):
        source = tmp_path / "ideal.txt"
        source.write_text("x1*x2, x1*x3, x2*x3")
        code, out, err = run(capsys, "certify", str(source),
                             "--field", "gf:32003", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["certification"]["passed"] is True
        assert payload["certification"]["field"] == "gf:32003"

    def test_witness_degree_one(self, capsys, tmp_path):
        source = tmp_path / "ideal.txt"
        source.write_text("x1, x2, x3")
        code, out, err = run(capsys, "witness", str(source), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"]["sums"] == ["x1", "x2", "x3"]

    def test_reproduce_paper_small_caps(self, capsys):
        code, out, err = run(capsys, "reproduce-paper",
                             "--max-n", "3", "--max-d", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if l[:4] in ("PASS", "FAIL", "SKIP")]
        assert len(lines) == 15
        assert not any(l.startswith("FAIL") for l in lines)

    @pytest.mark.parametrize("caps, empty", [
        (["--max-n", "1", "--max-d", "0"], {"pd-formula-sweep", "block-identity-sweep",
                                            "colon-criterion-sweep", "sci-equivalence-sweep",
                                            "oracle-exchange", "linear-quotient-sweep"}),
        (["--max-n", "1"], {"pd-formula-sweep", "block-identity-sweep",
                            "colon-criterion-sweep", "sci-equivalence-sweep",
                            "oracle-exchange", "linear-quotient-sweep"}),
        (["--max-n", "0"], {"pd-formula-sweep", "block-identity-sweep",
                            "colon-criterion-sweep", "degree2-classification-sweep",
                            "sci-equivalence-sweep", "oracle-exchange",
                            "linear-quotient-sweep"}),
    ], ids=["n1-d0", "n1", "n0"])
    def test_reproduce_paper_skips_empty_sweeps(self, capsys, caps, empty):
        code, out, err = run(capsys, "reproduce-paper", *caps, "--no-certify")
        assert code == 0
        rows = {line.split()[1].rstrip(":"): line for line in out.splitlines()[:-1]}
        max_n = caps[1]
        for name in empty:
            assert rows[name].startswith("SKIP")
            assert "nothing to sweep under" in rows[name] and f"max_n={max_n}" in rows[name]
        assert not any(" on 0 " in line or line.startswith("FAIL") for line in rows.values())
        passes = sum(line.startswith("PASS") for line in rows.values())
        assert out.splitlines()[-1] == (f"{passes} of {passes} checks good, "
                                        f"{15 - passes} skipped")


class TestEdges:
    def test_boolean_json_exits_one(self, capsys, tmp_path):
        source = tmp_path / "ideal.json"
        source.write_text('{"n": true, "gens": [[true]]}')
        code, out, err = run(capsys, "analyze", str(source))
        assert code == 1
        assert "parse error" in err and out == ""

    def test_large_prime_field_certifies(self, capsys, tmp_path):
        source = tmp_path / "ideal.txt"
        source.write_text("x1*x2")
        start = time.perf_counter()
        code, out, err = run(capsys, "certify", str(source),
                             "--field", "gf:2305843009213693951", "--json")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        payload = json.loads(out)
        assert payload["certification"]["passed"] is True
        assert payload["certification"]["field"] == "gf:2305843009213693951"

    @pytest.mark.parametrize("p", [561, (2 ** 31 - 1) * (2 ** 61 - 1)])
    def test_composite_and_oversized_fields_rejected(self, capsys, p):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "3", "2", "--field", f"gf:{p}"])
        assert info.value.code == 1

    def test_broken_pipe_is_quiet(self):
        # the reader is gone before anything is written, as after `| head -1`
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        try:
            done = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from matroidalkit.cli import main; sys.exit(main())",
                 "enumerate", "3", "2"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == b""


# each is written by cli._json_text to the bytes of json.dumps(payload, indent=2)
EDGE_PAYLOADS = [
    {}, [], {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[]], [{}]], {"a": {"b": {"c": {}}}},
    [1, True, 2], [True], [False, 0], [True, False, None], [0, None, 1], [1, 2.5], ["a", 1],
    ["a", None], ["a", True], "é ü ☃ 𝄞", ["é", "\u2028", "𝄞"], {"ключ": "значение"},
    "\x00\x01\n\t\"\\\x7f\x1f/", ["\n", "\r\n", ""], [10 ** 40, -10 ** 40, 0, -1],
    10 ** 100, None, True, False, 0, 1.5, -0.0, "", [float("inf"), float("nan")],
    {"é\n": [1, 2], "": "", "x": None}, {"k": (1, "a")}, (1, 2), [(), ("a",)],
    {1: "int key", None: 2, True: 3}, {"outer": [{"variable": 1, "is_unmixed": True}]},
    [[1, 2], ["a", "b"], [], {}, [[1], ["b"]]],
]


def checked_json(monkeypatch):
    """Route main's --json output through a check against json.dumps; returns its texts."""
    written = []
    write = cli._json_text

    def checked(payload):
        text = write(payload)
        assert text == json.dumps(payload, indent=2)
        written.append(text)
        return text
    monkeypatch.setattr(cli, "_json_text", checked)
    return written


class TestJsonWriter:
    @pytest.mark.parametrize("payload", EDGE_PAYLOADS, ids=range(len(EDGE_PAYLOADS)))
    def test_edge_payloads(self, payload):
        assert cli._json_text(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize("workload", ["analyze", "certify"])
    def test_benchmark_corpus_payloads(self, workload, capsys, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        corpus = importlib.import_module("workloads").CORPORA[workload](1)
        written = checked_json(monkeypatch)
        for op in corpus.ops:
            monkeypatch.setattr("sys.stdin", io.StringIO(op.stdin))
            assert main(list(op.argv)) == 0
            assert capsys.readouterr().out == written[-1] + "\n"
        assert len(written) == len(corpus.ops) > 20


def run_python(*args, stdin=""):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, env=env, timeout=60)


class TestParserModule:
    def test_import_loads_neither_cli_nor_argparse(self):
        done = run_python("-c", "import sys, matroidalkit; "
                          "print('matroidalkit.cli' in sys.modules, 'argparse' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False"]

    def test_module_run_prints_no_warning(self):
        done = run_python("-m", "matroidalkit.cli", "analyze", "--json", "--no-certify",
                          stdin="n=4; x1*x3, x1*x4, x2*x3, x2*x4")
        assert done.returncode == 0
        assert done.stderr == ""
        assert json.loads(done.stdout)["decomposition"]["height"] == 2

    def test_cli_binds_the_parsing_function(self):
        from matroidalkit import cli, parsing
        assert cli.parse_ideal is parsing.parse_ideal is parse_ideal


# the options each command reads, from the command reference in the README
READ_FLAGS = {
    "analyze": {"--json", "--field", "--no-certify"},
    "partition": {"--json"},
    "witness": {"--json"},
    "certify": {"--json", "--field"},
    "enumerate": {"--json", "--field"},
    "reproduce-paper": {"--json", "--no-certify", "--max-n", "--max-d"},
}
FLAG_VALUES = {"--json": [], "--field": ["gf:2"], "--no-certify": [],
               "--max-n": ["3"], "--max-d": ["2"]}
POSITIONALS = {"enumerate": ["3", "2"], "reproduce-paper": []}


class TestOptionTable:
    def test_table_lists_the_read_flags(self):
        listed = {name: {o for o in options if o.startswith("--")}
                  for name, (_, options) in cli.COMMANDS.items()}
        assert listed == READ_FLAGS
        assert sum(map(len, listed.values())) == 13

    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @pytest.mark.parametrize("command", sorted(READ_FLAGS))
    def test_flag_accepted_iff_listed(self, capsys, command, flag):
        argv = [command, *POSITIONALS.get(command, ["-"]), flag, *FLAG_VALUES[flag]]
        if flag in READ_FLAGS[command]:
            cli._PARSER.parse_args(argv)
            return
        with pytest.raises(SystemExit) as info:
            main(argv)  # refused while parsing, before any work
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: matroidalkit") and "unrecognized arguments" in err
        assert err.startswith(f"usage: matroidalkit {command}")

    def test_back_to_back_field(self, capsys, monkeypatch):
        configs = []

        def recording(command, config, **kwargs):
            configs.append(config)
            return run_command(command, config, **kwargs)

        monkeypatch.setattr(cli, "run_command", recording)
        assert run(capsys, "enumerate", "3", "2", "--field", "gf:2", "--json")[0] == 0
        code, out, _ = run(capsys, "enumerate", "3", "2", "--json")
        assert code == 0
        assert [c.field for c in configs] == [2, None]
        assert json.loads(out) == run_command("enumerate", Config(), n=3, d=2)

    def test_back_to_back_certify(self, capsys, tmp_path):
        source = tmp_path / "ideal.txt"
        source.write_text("n=3; x1*x2, x1*x3, x2*x3")
        code, out, _ = run(capsys, "analyze", str(source), "--json", "--no-certify")
        assert code == 0 and "skipped" in json.loads(out)["certification"]
        code, out, _ = run(capsys, "analyze", str(source), "--json")
        assert code == 0 and json.loads(out)["certification"]["passed"] is True
