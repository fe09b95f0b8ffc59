"""Work limits: one error, raised where the work is sized, and what each command does."""

import io
import itertools
import re
import time
from pathlib import Path

import pytest

from matroidalkit import (BudgetExceeded, DomainError, MonomialIdeal, PairBudgetExceeded,
                          ara_report, associated_primes, betti_table, certify_witness,
                          dedupe_up_to_relabeling, enumerate_matroidal,
                          irreducible_decomposition, make_ideal, pd_depth,
                          squarefree_veronese, transversal, verify_sv_conditions)
from matroidalkit import checks, decomposition, groebner, homology, ideals, matroids
from matroidalkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
MATCHING_48 = "n=48; " + ", ".join(f"x{2 * i + 1}*x{2 * i + 2}" for i in range(24))


def k23():
    return transversal(5, [{1, 2}, {3, 4, 5}])


# (x1, ..., x11) * x12 * ... * x40: 11 generators of degree 30 and pd 11,
# whose layers test sum_{k=30..40} C(40, k) = 1,221,246,132 candidates
TAIL_40 = "n=40; " + ", ".join(f"x{i}*" + "*".join(f"x{k}" for k in range(12, 41))
                               for i in range(1, 12))
# K_{16,16}: its Betti table has 4,294,836,225 entries, and its layers 2^32 - 33 candidates
K16_16 = "n=32; " + ", ".join(f"x{a}*x{b}" for a in range(1, 17) for b in range(17, 33))


def matching(n):
    return MonomialIdeal.from_supports(n, [{i, i + 1} for i in range(1, n, 2)])


def square_pairs(k):
    """(x1^2*x2, x3^2*x4, ...): k generators, 2^k irreducible components.

    Polarized, it is a matching of k two-vertex edges, so the cover search
    visits 2^(k+1) - 2 vertex sets.
    """
    n = 2 * k
    return make_ideal(n, [tuple(2 if v == 2 * i else int(v == 2 * i + 1) for v in range(n))
                          for i in range(k)])


def lattice_probe(k):
    """x1 and every x_i*x_j, 2 <= i < j <= k: 2^k - 2(k - 1) unions of generator supports."""
    return MonomialIdeal.from_supports(k, [{1}, *itertools.combinations(range(2, k + 1), 2)])


def certify_k23():
    ideal = k23()
    return certify_witness(ideal, ara_report(ideal).elements)


def tail_40():
    return MonomialIdeal.from_supports(40, [{i, *range(12, 41)} for i in range(1, 12)])


def verify_tail_40():
    ideal = tail_40()
    return verify_sv_conditions([ideal.gens], ideal)


# (stage, module, limit, the library calls that hit it at its shipped value,
# or after the monkeypatch in LOWERED)
LIMITS = [
    ("groebner", groebner, "PAIR_BUDGET", (certify_k23,)),
    ("homology", homology, "FACE_BUDGET",
     (lambda: pd_depth(matching(24)),)),
    ("homology", homology, "LATTICE_BUDGET", (lambda: pd_depth(lattice_probe(17)),)),
    ("linear-quotient", homology, "LINEAR_QUOTIENT_BUDGET",
     (lambda: betti_table(MonomialIdeal.maximal(21)),)),
    ("rank", ideals, "MEMBER_BUDGET",
     (lambda: ara_report(tail_40()), verify_tail_40, lambda: tail_40().squarefree_members(30),
      lambda: matroids.veronese(40, 20))),
    ("decomposition", decomposition, "COVER_BUDGET", (lambda: associated_primes(matching(48)),)),
    ("decomposition", decomposition, "LEAF_BUDGET",
     (lambda: associated_primes(square_pairs(10)),)),
    ("enumeration", matroids, "ENUMERATION_MAX_LAYER", (lambda: enumerate_matroidal(7, 3),)),
    ("enumeration", matroids, "ENUMERATION_MAX_N", (lambda: enumerate_matroidal(8, 1),)),
    ("relabeling", matroids, "ENUMERATION_MAX_N",
     (lambda: dedupe_up_to_relabeling([MonomialIdeal.maximal(8)]),)),
]
# the pair budget is lowered: no quick input needs a million pairs
LOWERED = {"PAIR_BUDGET": 1}


class TestOneError:
    @pytest.mark.parametrize("stage, module, limit, hits", LIMITS,
                             ids=[f"{stage}-{limit}" for stage, _, limit, _ in LIMITS])
    def test_each_limit_raises_budget_exceeded(self, stage, module, limit, hits,
                                               monkeypatch):
        if limit in LOWERED:
            monkeypatch.setattr(module, limit, LOWERED[limit])
        value = getattr(module, limit)
        for hit in hits:
            start = time.monotonic()
            with pytest.raises(BudgetExceeded) as info:
                hit()
            assert time.monotonic() - start < 1.0
            err = info.value
            assert isinstance(err, DomainError)
            assert (err.stage, err.limit, err.value) == (stage, limit, value)
            assert re.fullmatch(rf"{stage} stage: .+, over the limit {limit} = {value}",
                                str(err))

    def test_pair_budget_error_keeps_its_shape(self):
        err = PairBudgetExceeded(7)
        assert isinstance(err, BudgetExceeded) and err.budget == 7
        assert (err.stage, err.limit, err.value) == ("groebner", "PAIR_BUDGET", 7)

    def test_domain_limits_stay_plain(self):
        for n, d in ((0, 1), (3, 4)):
            with pytest.raises(DomainError) as info:
                enumerate_matroidal(n, d)
            assert not isinstance(info.value, BudgetExceeded)


class TestCoverBudget:
    def test_budget_is_exact(self, monkeypatch):
        # (x1*x2, ..., x7*x8) visits 2^5 - 2 = 30 vertex sets for its 16 primes
        assert associated_primes(matching(8)).stats.nodes == 30
        monkeypatch.setattr(decomposition, "COVER_BUDGET", 30)
        assert len(associated_primes(matching(8)).ass) == 16
        monkeypatch.setattr(decomposition, "COVER_BUDGET", 29)
        with pytest.raises(BudgetExceeded, match="more than 29 vertex sets"):
            associated_primes(matching(8))

    def test_largest_search_of_the_suite_fits_tenfold(self):
        # V(14,7) is the largest cover search the test suite runs
        stats = associated_primes(squarefree_veronese(14, 7)).stats
        assert stats.nodes == 6434 and 10 * stats.nodes <= decomposition.COVER_BUDGET

    def test_matching_is_refused_in_time(self):
        start = time.monotonic()
        with pytest.raises(BudgetExceeded, match="COVER_BUDGET = 65536"):
            associated_primes(matching(48))
        # measured at about 0.25 s on a 2-vCPU VM
        assert time.monotonic() - start < 1.0


class TestVeroneseBudget:
    def test_budget_is_exact_and_checked_before_any_monomial_is_built(self, monkeypatch):
        # C(59, 20), about 2.8e15 monomials of degree 20 in 40 variables
        start = time.monotonic()
        with pytest.raises(BudgetExceeded, match=r"^rank stage: the listing builds "
                                                 r"2794563003870330 monomials \(C\(59, 20\)\), "
                                                 r"over the limit MEMBER_BUDGET = 1048576$"):
            matroids.veronese(40, 20)
        assert time.monotonic() - start < 0.1
        cubics = [e for e in itertools.product(range(4), repeat=5) if sum(e) == 3]
        assert matroids.veronese(5, 3) == make_ideal(5, cubics)
        assert matroids.veronese(5, 3).mu == len(cubics) == 35
        monkeypatch.setattr(ideals, "MEMBER_BUDGET", 35)
        assert matroids.veronese(5, 3).mu == 35
        monkeypatch.setattr(ideals, "MEMBER_BUDGET", 34)
        with pytest.raises(BudgetExceeded, match=r"builds 35 monomials \(C\(7, 3\)\)"):
            matroids.veronese(5, 3)


def square_pairs_text(k):
    return f"n={2 * k}; " + ", ".join(f"x{2 * i + 1}^2*x{2 * i + 2}" for i in range(k))


class TestLeafBudget:
    def test_budget_is_exact(self, monkeypatch):
        ideal = square_pairs(3)
        monkeypatch.setattr(decomposition, "LEAF_BUDGET", 8)
        assert len(irreducible_decomposition(ideal)) == 8
        monkeypatch.setattr(decomposition, "LEAF_BUDGET", 7)
        with pytest.raises(BudgetExceeded, match="keeps 8 irreducible components, over the "
                                                 "limit LEAF_BUDGET = 7"):
            irreducible_decomposition(ideal)

    def test_largest_block_power_of_the_benchmark_fits_twice(self):
        # (x1, x2)^2 (x3, ..., x8) is the largest of the benchmark's block powers
        ideal = (make_ideal(8, [(2, 0) + (0,) * 6, (1, 1) + (0,) * 6, (0, 2) + (0,) * 6])
                 * MonomialIdeal.from_supports(8, [{v} for v in range(3, 9)]))
        components = irreducible_decomposition(ideal)
        assert [str(q) for q in components] == ["(x3, x4, x5, x6, x7, x8)", "(x1, x2^2)",
                                                "(x1^2, x2)"]
        assert 2 * len(components) <= decomposition.LEAF_BUDGET
        assert associated_primes(ideal).ass == {frozenset({1, 2}), frozenset(range(3, 9))}

    def test_square_pairs_are_refused_in_time(self, capsys, monkeypatch):
        start = time.monotonic()
        with pytest.raises(BudgetExceeded, match="LEAF_BUDGET = 512"):
            irreducible_decomposition(square_pairs(11))
        assert time.monotonic() - start < 1.0
        # analyze skips the primes and prints every other section
        start = time.monotonic()
        code, out, _ = run(capsys, monkeypatch, ["analyze", "--no-certify"],
                           square_pairs_text(11))
        assert code == 0 and time.monotonic() - start < 1.0
        assert sections(out)["decomposition"] == (
            "  skipped: decomposition stage: the minimal-cover search keeps 2048 irreducible "
            "components, over the limit LEAF_BUDGET = 512\n")

    @pytest.mark.parametrize("k, limit", [(14, "LEAF_BUDGET"), (16, "COVER_BUDGET")])
    def test_larger_square_pairs_are_refused_in_time(self, k, limit, capsys, monkeypatch):
        # 16,384 components in 32,766 vertex sets; 2^17 - 2 sets are past the search's limit
        start = time.monotonic()
        with pytest.raises(BudgetExceeded) as info:
            associated_primes(square_pairs(k))
        assert info.value.limit == limit and time.monotonic() - start < 1.0
        start = time.monotonic()
        code, out, _ = run(capsys, monkeypatch, ["analyze", "--no-certify"],
                           square_pairs_text(k))
        assert code == 0 and time.monotonic() - start < 1.0
        assert sections(out)["decomposition"].endswith(
            f"over the limit {limit} = {getattr(decomposition, limit)}\n")


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sections(text):
    """analyze's text report, split into its titled blocks."""
    return dict(re.findall(r"^(\w+):\n((?:  .*\n)*)", text, flags=re.M))


K23_TEXT = "n=5; x1*x3, x1*x4, x1*x5, x2*x3, x2*x4, x2*x5"


class TestCommandsAtLimits:
    def test_analyze_skips_only_certification_at_the_pair_budget(self, capsys, monkeypatch):
        code, full, _ = run(capsys, monkeypatch, ["analyze"], K23_TEXT)
        assert code == 0
        monkeypatch.setattr(groebner, "PAIR_BUDGET", 1)
        code, out, err = run(capsys, monkeypatch, ["analyze"], K23_TEXT)
        assert code == 0 and err == ""
        expected, got = sections(full), sections(out)
        assert list(got) == list(expected)
        assert got.pop("certification") == ("  skipped: groebner stage: Buchberger took "
                                             "2 pairs, over the limit "
                                             "PAIR_BUDGET = 1\n")
        expected.pop("certification")
        assert got == expected

    def test_certify_exits_two_at_the_pair_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(groebner, "PAIR_BUDGET", 1)
        code, out, err = run(capsys, monkeypatch, ["certify"], K23_TEXT)
        assert code == 2 and out == ""
        assert err.startswith("error: groebner stage") and "PAIR_BUDGET = 1" in err

    def test_analyze_skips_the_cover_search_in_time(self, capsys, monkeypatch):
        start = time.monotonic()
        code, out, _ = run(capsys, monkeypatch, ["analyze"], MATCHING_48)
        elapsed = time.monotonic() - start
        assert code == 0
        blocks = sections(out)
        for title in ("decomposition", "homology"):
            assert blocks[title].startswith("  skipped: decomposition stage: the "
                                            "minimal-cover search"), title
            assert blocks[title].endswith("over the limit COVER_BUDGET = 65536\n"), title
        assert "is_polymatroidal: False" in blocks["matroidal"]
        # two refused searches, measured at about 0.55 s on a 2-vCPU VM
        assert elapsed < 1.0, f"analyze on the n = 48 matching took {elapsed:.2f}s"

    @pytest.mark.parametrize("text, limit", [(K16_16, "MEMBER_BUDGET"),
                                             (TAIL_40, "MEMBER_BUDGET")],
                             ids=["k16_16", "tail_40"])
    def test_rank_section_is_refused_in_time(self, text, limit, capsys, monkeypatch):
        # the rank section runs pd_depth, then sizes its layers, before listing any
        for argv in (["analyze"], ["analyze", "--no-certify"], ["witness"], ["certify"]):
            start = time.monotonic()
            code, out, err = run(capsys, monkeypatch, argv, text)
            elapsed = time.monotonic() - start
            assert elapsed < 0.5, f"{argv} took {elapsed:.2f}s"
            if argv[0] == "analyze":
                assert code == 0 and err == ""
                blocks = sections(out)
                assert blocks["rank"].startswith("  skipped: ") and limit in blocks["rank"]
                assert blocks["certification"] == ("  skipped: no witness to certify\n"
                                                   if len(argv) == 1 else
                                                   "  skipped: disabled by --no-certify\n")
            else:
                assert code == 2 and out == "" and limit in err

    def test_enumerate_has_no_caps_of_its_own(self, capsys, monkeypatch):
        # C(6,4) = 15: a 2^15 scan, once refused by --max-d
        code, out, _ = run(capsys, monkeypatch, ["enumerate", "6", "4"])
        assert code == 0
        assert out.startswith("matroidal ideals for n=6, d=4: 642\n")
        assert len(out.splitlines()) == 643
        code, out, _ = run(capsys, monkeypatch, ["enumerate", "7", "1"])
        assert code == 0 and out.startswith("matroidal ideals for n=7, d=1: 1\n")

    def test_enumerate_past_the_layer_limit_is_two(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["enumerate", "7", "3"])
        assert code == 2 and out == ""
        assert err == ("error: enumeration stage: n=7, d=3 would scan 2^35 collections, "
                       "more than 2^20, over the limit ENUMERATION_MAX_LAYER = 20\n")

    def test_reproduce_paper_skips_the_checks_past_a_limit(self, capsys, monkeypatch,
                                                           fresh_enumeration_cache):
        # C(4,2) = 6 is over a layer limit of 5; every other layer fits
        monkeypatch.setattr(matroids, "ENUMERATION_MAX_LAYER", 5)
        code, out, _ = run(capsys, monkeypatch,
                           ["reproduce-paper", "--max-n", "4", "--max-d", "2", "--no-certify"])
        assert code == 0
        rows = out.splitlines()[:-1]
        refused = ("enumeration stage: n=4, d=2 would scan 2^6 collections, more than 2^5, "
                   "over the limit ENUMERATION_MAX_LAYER = 5")
        skipped = {row.split()[1].rstrip(":") for row in rows if row.endswith(refused)}
        assert skipped == {"pd-formula-sweep", "block-identity-sweep", "colon-criterion-sweep",
                           "sci-equivalence-sweep", "oracle-exchange",
                           "linear-quotient-sweep"}
        assert all(row.startswith("SKIP") for row in rows if row.endswith(refused))
        assert not any(row.startswith("FAIL") for row in rows)

    def test_reproduce_paper_checks_refuse_before_they_scan(self, monkeypatch):
        # every layer is enumerated before any collection is scanned, so
        # (7, 2), past ENUMERATION_MAX_LAYER, skips the check at once
        calls = []
        original = checks._bases_exchange

        def counting(bases):
            calls.append(bases)
            return original(bases)
        monkeypatch.setattr(checks, "_bases_exchange", counting)
        result = checks.check_oracle_exchange(max_n=7)
        assert result.skipped and result.detail.endswith("ENUMERATION_MAX_LAYER = 20")
        assert "n=7, d=2" in result.detail and calls == []
        # the oracle checks over the seeded corpus read n <= 6 alone
        for check in (checks.check_oracle_ideal_arithmetic, checks.check_oracle_minimal_primes,
                      checks.check_oracle_euler):
            assert check(max_n=40) == check(max_n=6)


def readme_limits():
    """(module, name, value) of every row of the README's limits table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in (line for line in section.splitlines() if line.startswith("| `")):
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        module, name = cells[0].strip("`").split(".")
        rows.append((module, name, int(cells[1].split()[0])))
    return rows


class TestLimitsTable:
    def test_each_row_holds_its_constant(self):
        modules = {"groebner": groebner, "homology": homology, "ideals": ideals,
                   "decomposition": decomposition, "matroids": matroids}
        rows = readme_limits()
        assert [name for _, name, _ in rows] == [
            "PAIR_BUDGET", "FACE_BUDGET", "LATTICE_BUDGET", "LINEAR_QUOTIENT_BUDGET",
            "MEMBER_BUDGET", "COVER_BUDGET", "LEAF_BUDGET", "ENUMERATION_MAX_LAYER",
            "ENUMERATION_MAX_N"]
        for module, name, value in rows:
            assert getattr(modules[module], name) == value, name

    def test_every_limit_has_a_row(self):
        listed = {name for _, name, _ in readme_limits()}
        assert listed == {limit for _, _, limit, _ in LIMITS}
