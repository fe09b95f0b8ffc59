"""Acceptance gate: the twelve desk-scale verification criteria.

Each test runs the corresponding check at its full caps, records a
single pass/fail line (printed in the terminal summary), and enforces
the runtime budget the criterion carries.
"""

import time

from matroidalkit import checks

from conftest import record_criterion


def run_criterion(number, budget_seconds, *check_calls):
    start = time.monotonic()
    results = [call() for call in check_calls]
    elapsed = time.monotonic() - start
    passed = all(r.passed and not r.skipped for r in results)
    detail = "; ".join(r.detail for r in results) + f" [{elapsed:.1f}s]"
    record_criterion(number, passed, detail)
    assert passed, detail
    assert elapsed < budget_seconds, \
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"


def test_criterion_01_two_block_n4_example():
    run_criterion(1, 1.0, checks.check_example_n4)


def test_criterion_02_mixed_height_n5_example():
    run_criterion(2, 1.0, checks.check_example_n5)


def test_criterion_03_n3_examples():
    run_criterion(3, 1.0, checks.check_example_n3)


def test_criterion_04_rank_witness_certification():
    run_criterion(4, 600.0,
                  lambda: checks.check_rank_witness_sweep(max_n=5, max_d=3))


def test_criterion_05_pd_formula():
    run_criterion(5, 600.0,
                  lambda: checks.check_pd_formula_sweep(max_n=6, max_d=3))


def test_criterion_06_block_identity():
    run_criterion(6, 120.0,
                  lambda: checks.check_block_identity_sweep(max_n=6))


def test_criterion_07_colon_criterion():
    run_criterion(7, 300.0,
                  lambda: checks.check_colon_criterion_sweep(max_n=6, max_d=3))


def test_criterion_08_degree2_classification():
    run_criterion(8, 300.0,
                  lambda: checks.check_degree2_classification_sweep(max_n=4))


def test_criterion_09_unmixed_noncm_rediscovery():
    run_criterion(9, 1800.0,
                  lambda: checks.check_counterexample_n6(max_n=6, max_d=3))


def test_criterion_10_complete_intersection_equivalence():
    run_criterion(10, 300.0,
                  lambda: checks.check_sci_equivalence_sweep(max_n=5))


def test_criterion_11_oracle_suites():
    run_criterion(11, 300.0,
                  lambda: checks.check_oracle_ideal_arithmetic(max_n=6),
                  lambda: checks.check_oracle_minimal_primes(max_n=6),
                  lambda: checks.check_oracle_exchange(max_n=6, max_d=3),
                  lambda: checks.check_oracle_euler(max_n=6))


def test_criterion_12_linear_quotients_match_homology():
    run_criterion(12, 120.0,
                  lambda: checks.check_linear_quotient_sweep(max_n=6, max_d=3))
