"""Adversarial inputs through cli.main: every command answers in time and within its contract.

Each family stresses one stage. Every input runs in process through
analyze (without certification), partition and witness, and the inputs
small enough to certify in time also through analyze with certification
and certify, each under a SIGALRM bound of TIME_LIMIT_S. Every run must:

- exit 0, 1, 2 or 3, with no exception escaping main;
- print JSON that parses, on exit 0;
- name a stage and a constant of the README's Limits table, at its
  value, in every limit it hits.

Where a family has a closed form, the report must meet it in every
section that ran, and such a section may be skipped only for a limit:
transversals (K_{a,b}, K_{a,b,c}) have the least block size as height
and pd = ara = n - d + 1, V(n, d) has height, pd and ara n - d + 1, a
matching of m edges height and pd m, whatever variables lie outside
it, and x1, ..., xn all three n.
"""

import contextlib
import io
import itertools
import json
import random
import re
import signal

import pytest
from test_limits import readme_limits

from matroidalkit import BudgetExceeded, squarefree_monomials, squarefree_veronese
from matroidalkit.cli import main
from matroidalkit.parsing import MAX_EXPONENT, MAX_VARIABLES

TIME_LIMIT_S = 2.0
LIMITS = {name: value for _, name, value in readme_limits()}
LIMIT_MESSAGE = re.compile(r"[\w-]+ stage: .+, over the limit (\w+) = (\d+)")


def text_of(n, masks):
    return f"n={n}; " + ", ".join("*".join(f"x{k + 1}" for k in range(n) if m >> k & 1)
                                  for m in masks)


def transversal(*sizes):
    blocks, start = [], 0
    for size in sizes:
        blocks.append([1 << k for k in range(start, start + size)])
        start += size
    return text_of(start, [sum(pick) for pick in itertools.product(*blocks)])


def transversal_case(sizes, certify=False):
    n = sum(sizes)
    ara = n - len(sizes) + 1
    return (f"K{sizes}", transversal(*sizes),
            {"height": min(sizes), "pd": ara, "ara": ara}, certify)


def veronese_case(n, d, certify=False):
    masks = [m.bitmask() for m in squarefree_monomials(n, d)]
    closed = dict.fromkeys(("height", "pd", "ara"), n - d + 1)
    return f"V({n},{d})", text_of(n, masks), closed, certify


def lattice_probe(k):
    """x1 and every x_i*x_j, 2 <= i < j <= k: about 2^k unions of generator supports."""
    return f"n={k}; x1, " + ", ".join(f"x{i}*x{j}" for i, j in
                                      itertools.combinations(range(2, k + 1), 2))


def cases():
    """(id, input text, closed form or {}, whether certification fits the bound)."""
    rng = random.Random(20240611)
    out = [transversal_case((2, 400)), transversal_case((1, 300)), transversal_case((16, 16)),
           transversal_case((11, 11)), transversal_case((2, 3, 40)),
           transversal_case((5, 6, 7)), transversal_case((3, 3, 3), certify=True),
           transversal_case((2, 3, 4), certify=True), transversal_case((2, 2, 2), certify=True)]
    out += [transversal_case((a, rng.randint(a, 4)), certify=True) for a in (2, 3)]
    out += [transversal_case((rng.randint(4, 7), rng.randint(4, 7)))]
    out += [veronese_case(10, 5, certify=True), veronese_case(9, 4, certify=True),
            veronese_case(rng.randint(12, 13), 2)]
    for n in (MAX_VARIABLES, rng.randint(3, 8)):
        text = ", ".join(f"x{i}" for i in range(1, n + 1))
        out.append((f"x1..x{n}", text, dict.fromkeys(("height", "pd", "ara"), n), n < 10))
    # the cover search goes one vertex deep per generator
    out.append(("squares-1000", ", ".join(f"x{i}^2" for i in range(1, 1001)), {}, False))
    # products of (x_{2b+1}^e, x_{2b+2}^e) over k blocks, e near MAX_EXPONENT
    for k in (2, 3):
        blocks = [range(1 + 2 * b, 3 + 2 * b) for b in range(k)]
        powers = [MAX_EXPONENT - rng.randrange(3) for _ in blocks]
        gens = ["*".join(f"x{v}^{e}" for v, e in zip(pick, powers))
                for pick in itertools.product(*blocks)]
        out.append((f"power-{k}-blocks", ", ".join(gens), {}, False))
    gens = [f"x1^{MAX_EXPONENT - a}*x2^{a}" for a in range(20)] + [f"x3^{MAX_EXPONENT}"]
    out.append(("power-near-max", ", ".join(gens), {}, False))
    for m in (6, 10, 24):
        masks = [3 << 2 * i for i in range(m)]
        out.append((f"matching-{m}", text_of(2 * m, masks), {"height": m, "pd": m}, False))
    # variables outside every edge leave height and pd alone
    for m, n in ((2, 40), (2, 1024), (11, 64)):
        masks = [3 << 2 * i for i in range(m)]
        out.append((f"matching-{m}-n{n}", text_of(n, masks), {"height": m, "pd": m}, False))
    for k in range(3):
        n = rng.randint(9, 12)
        masks = {sum(1 << k for k in rng.sample(range(n), rng.randint(2, 5)))
                 for _ in range(40)}
        out.append((f"dense-{k}-n{n}", text_of(n, sorted(masks)), {}, False))
    out.append(("lattice-probe-20", lattice_probe(20), {}, False))
    return out


CASES = cases()


class TimedOut(BaseException):
    """Raised by SIGALRM; a BaseException so that no handler inside main swallows it."""


def _expire(signum, frame):
    raise TimedOut


@contextlib.contextmanager
def time_limit(seconds, what):
    """Fail the test once the body runs past seconds of wall time."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimedOut:
        pytest.fail(f"{what} ran past {seconds} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run(argv, text, monkeypatch):
    """Exit code, stdout and stderr of main(argv) on text, within TIME_LIMIT_S."""
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stderr", err)
    with time_limit(TIME_LIMIT_S, argv):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_limit(message):
    """A message that names a limit names a Limits-table constant at its value."""
    named = [name for name in LIMITS if name in message]
    if "over the limit" in message or named:
        match = LIMIT_MESSAGE.fullmatch(message)
        assert match, message
        assert LIMITS.get(match[1]) == int(match[2]), message
        return True
    return False


def closed_form(report, expect):
    """What the analyze report shows of height, pd and ara."""
    sections = {"height": ("decomposition", "height"), "pd": ("homology", "pd"),
                "ara": ("rank", "upper")}
    for key, value in expect.items():
        title, field = sections[key]
        section = report[title]
        if "skipped" in section:
            assert check_limit(section["skipped"]), (key, section)
            continue
        assert section[field] == value, (key, section)
        if key == "ara":
            assert section["lower"] == value and section["exact"], section


@pytest.mark.parametrize("name, text, expect, certify", CASES, ids=[c[0] for c in CASES])
def test_every_command_meets_the_contract(name, text, expect, certify, monkeypatch):
    commands = [["analyze", "--no-certify"], ["partition"], ["witness"]]
    if certify:
        commands += [["analyze"], ["certify"]]
    for argv in commands:
        code, out, err = run(argv + ["--json"], text, monkeypatch)
        assert code in (0, 1, 2, 3), (argv, code, err)
        if code:
            prefixes = ("error: ", "parse error: ", "theorem violation: ")
            assert out == "" and err.startswith(prefixes), (argv, err)
            check_limit(err.split(": ", 1)[1].rstrip("\n"))
            continue
        report = json.loads(out)
        for section in report.values():
            if "skipped" in section:
                check_limit(section["skipped"])
        if argv[0] == "analyze":
            closed_form(report, expect)
        if argv == ["certify"]:
            assert report["certification"]["passed"], report["certification"]


def test_lattice_probe_names_its_limit(monkeypatch):
    code, out, _ = run(["analyze", "--no-certify", "--json"], lattice_probe(20), monkeypatch)
    assert code == 0
    assert json.loads(out)["homology"]["skipped"].endswith(
        "over the limit LATTICE_BUDGET = 65536")


def test_veronese_listing_is_refused_at_once():
    # the bound also stops a listing that walks the C(40, 20) subsets
    # before it takes much memory
    for listing in (squarefree_monomials, squarefree_veronese):
        with time_limit(0.5, listing.__name__), pytest.raises(BudgetExceeded) as info:
            listing(40, 20)
        assert (info.value.stage, info.value.limit) == ("rank", "MEMBER_BUDGET")
        assert "137846528820 square-free candidates (C(40, 20))" in str(info.value)
