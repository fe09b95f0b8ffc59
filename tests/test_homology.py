"""Stanley-Reisner complexes, exact homology ranks, and pd/depth/CM."""

import dataclasses
import gc
import inspect
import io
import itertools
import math
import random
import time
import weakref

import pytest

from matroidalkit import (BudgetExceeded, DomainError, HomologyProfile, HomologyStats,
                          MonomialIdeal, SimplicialComplex, StructuralError,
                          associated_primes, betti_table, make_ideal, pd_depth,
                          reduced_homology_ranks, squarefree_veronese, stanley_reisner,
                          transversal)
from matroidalkit import homology, matroids
from matroidalkit.cli import Config, main, run_command
from matroidalkit.matroids import enumerate_matroidal

import homology_oracle

FIELDS = (None, 2, 3, 32003)


def complex_of(n, *facets):
    return SimplicialComplex(n, tuple(frozenset(f) for f in facets))


class TestSimplicialComplex:
    def test_facets_must_be_incomparable(self):
        with pytest.raises(StructuralError):
            complex_of(3, {1, 2}, {1})

    def test_duplicate_and_distant_comparable_facets(self):
        # a repeated facet, and a pair two sizes apart past an unrelated size
        with pytest.raises(StructuralError, match="incomparable"):
            complex_of(3, {1, 2}, {1, 2})
        with pytest.raises(StructuralError, match="incomparable"):
            complex_of(5, {4, 5}, {1}, {1, 2, 3})
        assert len(complex_of(4, {1, 2}, {1, 3}, {2, 3, 4}).facets) == 3

    def test_verdicts_match_the_pairwise_scan(self):
        rng = random.Random(43)
        for _ in range(400):
            n = rng.randint(1, 6)
            facets = [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
                      for _ in range(rng.randint(1, 6))]
            comparable = any(a <= b or b <= a
                             for a, b in itertools.combinations(facets, 2))
            try:
                SimplicialComplex(n, tuple(facets))
                raised = False
            except StructuralError:
                raised = True
            assert raised == comparable, facets

    def test_facets_outside_the_vertex_range(self):
        with pytest.raises(StructuralError, match="outside"):
            complex_of(2, {1, 3})

    def test_from_faces_keeps_maximal(self):
        cx = SimplicialComplex.from_faces(
            3, [frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({3})])
        assert set(cx.facets) == {frozenset({1, 2}), frozenset({3})}

    def test_from_faces_matches_the_pairwise_filter(self):
        rng = random.Random(67)
        for _ in range(600):
            n = rng.randint(1, 7)
            pool = [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
                    for _ in range(rng.randint(0, 9))]
            pool += rng.sample(pool, min(len(pool), 2))  # repeated faces
            maximal = {f for f in pool if not any(f < g for g in pool)}
            cx = SimplicialComplex.from_faces(n, (set(f) for f in pool))
            assert cx.facets == tuple(sorted(maximal, key=lambda f: (len(f), sorted(f))))
            for bad in (0, -1, n + 1):
                with pytest.raises(StructuralError, match="outside"):
                    SimplicialComplex.from_faces(n, pool + [frozenset({bad})])

    def test_dim_and_faces(self):
        cx = complex_of(4, {1, 2}, {3, 4})
        assert cx.dim == 1
        assert frozenset({1}) in cx.faces()
        assert frozenset() in cx.faces()
        assert frozenset({1, 3}) not in cx.faces()


class TestStanleyReisner:
    def test_single_edge_ideal(self):
        cx = stanley_reisner(make_ideal(2, [(1, 1)]))
        assert set(cx.facets) == {frozenset({1}), frozenset({2})}

    def test_two_block_example(self, two_blocks_n4):
        cx = stanley_reisner(two_blocks_n4)
        # facets are exactly the partition blocks
        assert set(cx.facets) == {frozenset({1, 2}), frozenset({3, 4})}

    def test_veronese(self):
        cx = stanley_reisner(squarefree_veronese(3, 2))
        assert set(cx.facets) == {frozenset({1}), frozenset({2}), frozenset({3})}

    def test_faces_are_exactly_nonmembers(self, path_n4):
        cx = stanley_reisner(path_n4)
        faces = cx.faces()
        from matroidalkit import Monomial
        for bits in range(1 << 4):
            subset = frozenset(i + 1 for i in range(4) if bits >> i & 1)
            inside = path_n4.contains(Monomial.from_bitmask(4, bits))
            assert (subset in faces) == (not inside)

    def test_facets_are_the_maximal_faces(self):
        # the facets come from the minimal primes; the oracle scans every subset
        rng = random.Random(61)
        ideals = [random_squarefree(rng, 9) for _ in range(300)] + [rp2_ideal()]
        for ideal in ideals:
            faces = homology_oracle.face_set(ideal)
            maximal = sorted((f for f in faces if not any(f < g for g in faces)),
                             key=lambda f: (len(f), sorted(f)))
            assert stanley_reisner(ideal).facets == tuple(maximal), ideal

    def test_many_variables_without_a_subset_scan(self):
        ideal = MonomialIdeal.from_supports(40, [{1, 2}, {3, 4}])
        start = time.monotonic()
        cx = stanley_reisner(ideal)
        elapsed = time.monotonic() - start
        rest = frozenset(range(5, 41))
        assert cx.facets == tuple(rest | {a, b} for a in (1, 2) for b in (3, 4))
        assert elapsed < 1.0, f"n = 40 took {elapsed:.2f}s, budget 1s"

    def test_veronese_14_7_in_time(self):
        # 3,003 facets of one size: only the duplicate test runs on them
        ideal = squarefree_veronese(14, 7)
        start = time.monotonic()
        cx = stanley_reisner(ideal)
        elapsed = time.monotonic() - start
        assert len(cx.facets) == math.comb(14, 6)
        assert elapsed < 0.6, f"V(14,7) took {elapsed:.2f}s, budget 0.6s"

    def test_rejects_bad_input(self, squared_pivot_n3):
        with pytest.raises(DomainError):
            stanley_reisner(squared_pivot_n3)
        with pytest.raises(DomainError):
            stanley_reisner(MonomialIdeal.zero(2))
        with pytest.raises(DomainError):
            stanley_reisner(MonomialIdeal.unit(2))


class TestHomologyRanks:
    def test_two_points(self):
        ranks = reduced_homology_ranks(complex_of(2, {1}, {2}))
        assert ranks[0] == 1
        assert all(v == 0 for k, v in ranks.items() if k != 0)

    def test_hollow_triangle(self):
        cx = complex_of(3, {1, 2}, {1, 3}, {2, 3})
        for field in (None, 2, 32003):
            ranks = reduced_homology_ranks(cx, field)
            assert ranks[1] == 1
            assert ranks[0] == 0

    def test_full_simplex_acyclic(self):
        ranks = reduced_homology_ranks(complex_of(3, {1, 2, 3}))
        assert all(v == 0 for v in ranks.values())

    def test_empty_complex(self):
        # complex with only the empty face: H~_{-1} has rank 1
        cx = SimplicialComplex(2, (frozenset(),))
        ranks = reduced_homology_ranks(cx)
        assert ranks[-1] == 1

    def test_hollow_tetrahedron(self):
        cx = complex_of(4, {1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4})
        ranks = reduced_homology_ranks(cx)
        assert ranks[2] == 1 and ranks[1] == 0 and ranks[0] == 0

    def test_euler_characteristic(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 5)
            pool = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
                    for _ in range(rng.randint(1, 5))]
            cx = SimplicialComplex.from_faces(n, pool)
            faces = cx.faces()
            for field in (None, 3):
                ranks = reduced_homology_ranks(cx, field)
                face_side = sum((-1) ** len(f) for f in faces)
                rank_side = sum((-1) ** (k + 1) * r for k, r in ranks.items())
                assert face_side == rank_side

    def test_bad_field(self):
        with pytest.raises(DomainError):
            reduced_homology_ranks(complex_of(2, {1}, {2}), 6)

    @pytest.mark.parametrize("field", FIELDS)
    def test_column_kernel_matches_the_oracle_rank(self, field):
        # boundary columns start with entries +-1 only; entries -3..3 also
        # exercise the pivot scaling, the gcd step and the wraparound mod p
        rng = random.Random(f"columns/{field}")
        for trial in range(600):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            zeros = rng.random()
            matrix = [[0 if rng.random() < zeros else rng.randint(-3, 3)
                       for _ in range(cols)] for _ in range(rows)]
            if field is not None:
                matrix = [[v % field for v in row] for row in matrix]
            columns = [{r: matrix[r][c] for r in range(rows) if matrix[r][c]}
                       for c in range(cols)]
            expected = (homology_oracle._rank_exact(matrix) if field is None
                        else homology_oracle._rank_mod(matrix, field))
            assert len(homology._reduce_columns(columns, field)) == expected, (trial, matrix)


class TestPdDepth:
    def test_two_block_example(self, two_blocks_n4):
        profile = pd_depth(two_blocks_n4)
        assert (profile.pd, profile.depth, profile.is_cm) == (3, 1, False)

    def test_veronese_is_cm(self):
        profile = pd_depth(squarefree_veronese(3, 2))
        assert profile.pd == 2
        assert profile.is_cm

    def test_principal_variable(self):
        profile = pd_depth(make_ideal(1, [(1,)]))
        assert (profile.pd, profile.depth) == (1, 0)

    def test_koszul_betti_numbers(self):
        # maximal ideal: beta_i totals are binomial coefficients
        for n in (2, 3, 4):
            profile = pd_depth(MonomialIdeal.maximal(n))
            assert profile.pd == n and profile.depth == 0
            totals = {}
            for (i, _), value in betti_table(MonomialIdeal.maximal(n)).items():
                totals[i] = totals.get(i, 0) + value
            assert totals == {i: math.comb(n, i) for i in range(n + 1)}

    def test_betti_zero_is_one_at_empty_degree(self, two_blocks_n4):
        betti = betti_table(two_blocks_n4)
        assert betti[(0, frozenset())] == 1
        assert sum(v for (i, _), v in betti.items() if i == 0) == 1

    def test_first_betti_counts_generators(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(2, 5)
            pool = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
                    for _ in range(rng.randint(1, 4))]
            ideal = MonomialIdeal.from_supports(n, pool)
            if ideal.is_unit:
                continue
            first = sum(v for (i, _), v in betti_table(ideal).items() if i == 1)
            assert first == ideal.mu

    def test_auslander_buchsbaum_and_bounds(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 5)
            pool = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
                    for _ in range(rng.randint(1, 5))]
            ideal = MonomialIdeal.from_supports(n, pool)
            if ideal.is_unit:
                continue
            profile = pd_depth(ideal)
            assert profile.pd + profile.depth == n
            height = associated_primes(ideal).height
            assert height <= profile.pd <= ideal.mu
            assert profile.is_cm == (height == profile.pd)

    def test_field_independence_on_matroidal(self):
        for n in range(2, 5):
            for d in range(1, n + 1):
                for ideal in enumerate_matroidal(n, d):
                    over_q = pd_depth(ideal).pd
                    assert over_q == pd_depth(ideal, 2).pd
                    assert over_q == pd_depth(ideal, 32003).pd

    def test_rejects_bad_input(self, squared_pivot_n3):
        with pytest.raises(DomainError):
            pd_depth(squared_pivot_n3)


def random_squarefree(rng, max_n):
    while True:
        n = rng.randint(1, max_n)
        pool = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
                for _ in range(rng.randint(1, 6))]
        ideal = MonomialIdeal.from_supports(n, pool)
        if not ideal.is_unit:
            return ideal


def rp2_ideal():
    """Stanley-Reisner ideal of the 6-vertex triangulation of RP^2."""
    triangles = [{1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}, {1, 2, 6},
                 {2, 3, 5}, {2, 4, 5}, {2, 4, 6}, {3, 4, 6}, {3, 5, 6}]
    # every edge is a face, so the minimal non-faces are the other triangles
    missing = [set(t) for t in itertools.combinations(range(1, 7), 3)
               if set(t) not in triangles]
    return MonomialIdeal.from_supports(6, missing)


def assert_matches_oracle(ideal, field):
    profile = pd_depth(ideal, field)
    pd, depth, is_cm, betti = homology_oracle.pd_depth(ideal, field)
    assert (profile.pd, profile.depth, profile.is_cm) == (pd, depth, is_cm)
    assert list(betti_table(ideal, field).items()) == list(betti.items())


class TestOracleAgreement:
    """The bitmask kernel against the dense full-scan seed engine."""

    def test_random_squarefree(self):
        rng = random.Random(97)
        for _ in range(40):
            ideal = random_squarefree(rng, 8)
            for field in FIELDS:
                assert_matches_oracle(ideal, field)

    def test_matroidal_census_n5(self):
        for d in range(1, 6):
            for ideal in enumerate_matroidal(5, d):
                for field in FIELDS:
                    assert_matches_oracle(ideal, field)

    def test_homology_ranks(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randint(1, 7)
            pool = [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
                    for _ in range(rng.randint(1, 6))]
            cx = SimplicialComplex.from_faces(n, pool)
            for field in FIELDS:
                assert (reduced_homology_ranks(cx, field)
                        == homology_oracle.reduced_homology_ranks(cx, field))

    def test_rp2_torsion(self):
        ideal = rp2_ideal()
        everything = frozenset(range(1, 7))
        for field, expected_pd in ((None, 3), (3, 3), (2, 4)):
            assert_matches_oracle(ideal, field)
            assert pd_depth(ideal, field).pd == expected_pd
            assert homology_oracle.pd_depth(ideal, field)[0] == expected_pd
        assert betti_table(ideal, 2)[(4, everything)] == 1
        assert (4, everything) not in betti_table(ideal)
        # H~_1(RP^2; Z) = Z/2 shows up only in characteristic 2
        cx = stanley_reisner(ideal)
        assert reduced_homology_ranks(cx)[1] == 0
        assert reduced_homology_ranks(cx, 2)[1] == 1


def assert_routes_agree(ideal, field):
    profile = pd_depth(ideal, field)
    assert profile.stats.route == "linear_quotients", ideal
    reference = homology._homology_pd(ideal, field)
    assert reference.stats.route == "homology"
    assert (profile.pd, profile.depth, profile.is_cm) == (
        reference.pd, reference.depth, reference.is_cm)
    table = betti_table(ideal, field)
    assert list(table.items()) == list(homology._hochster_table(ideal, field).items()), ideal
    assert profile.pd == max(i for i, _ in table)
    assert profile.stats.largest_quotient_set == profile.pd - 1


def disjoint_blocks(rng, n):
    """Disjoint nonempty blocks inside [n], some variables left free."""
    order = rng.sample(range(1, n + 1), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    return blocks[:rng.randint(1, len(blocks))]


class TestLinearQuotients:
    """The linear-quotient table against the homology engine, entry by entry."""

    FIELDS = (None, 2, 3)

    def test_matroidal_census_n5(self):
        for n in range(1, 6):
            for d in range(1, n + 1):
                for ideal in enumerate_matroidal(n, d):
                    for field in self.FIELDS:
                        assert_routes_agree(ideal, field)

    def test_transversal_families(self):
        rng = random.Random(71)
        for _ in range(40):
            ideal = transversal(8, disjoint_blocks(rng, rng.randint(2, 8)))
            for field in self.FIELDS:
                assert_routes_agree(ideal, field)

    def test_veronese_families(self):
        for n in range(1, 8):
            for d in range(1, n + 1):
                for field in self.FIELDS:
                    assert_routes_agree(squarefree_veronese(n, d), field)

    def test_random_ideals_with_linear_quotients(self):
        # the route tests linearity itself: some of these are not matroidal
        rng = random.Random(89)
        passed = non_matroidal = 0
        for _ in range(600):
            n = rng.randint(2, 7)
            d = rng.randint(1, n - 1)
            layer = list(itertools.combinations(range(1, n + 1), d))
            ideal = MonomialIdeal.from_supports(
                n, rng.sample(layer, rng.randint(1, min(len(layer), 8))))
            if homology._linear_quotients(ideal) is None:
                assert pd_depth(ideal).stats.route == "homology"
                continue
            passed += 1
            non_matroidal += not matroids.is_matroidal(ideal)
            for field in self.FIELDS:
                assert_routes_agree(ideal, field)
        assert passed >= 100 and non_matroidal >= 20, (passed, non_matroidal)

    def test_non_linear_colon_falls_back(self):
        # (x1*x2) : x3*x4 = (x1*x2) is not generated by variables
        ideal = MonomialIdeal.from_supports(4, [{1, 2}, {3, 4}])
        assert homology._linear_quotients(ideal) is None
        for field in self.FIELDS:
            profile = pd_depth(ideal, field)
            assert profile.stats.route == "homology"
            assert (profile.pd, profile.depth) == (2, 2)
            assert profile.stats.largest_quotient_set == 0

    def test_mixed_degrees_fall_back(self, path_n4):
        ideal = MonomialIdeal.from_supports(4, [{1}, {2, 3}, {3, 4}])
        assert pd_depth(ideal).stats.route == "homology"
        assert_matches_oracle(ideal, None)
        assert pd_depth(path_n4).stats.route == "linear_quotients"

    def test_k88_in_time(self):
        # K_{8,8}: 64 generators, sum of 2^|set(u)| = 65,025 table entries
        ideal = transversal(16, [set(range(1, 9)), set(range(9, 17))])
        for field in (None, 2):
            start = time.monotonic()
            profile = pd_depth(ideal, field)
            elapsed = time.monotonic() - start
            assert (profile.pd, profile.depth, profile.is_cm) == (15, 1, False)
            assert profile.stats.route == "linear_quotients"
            assert len(betti_table(ideal, field)) == 1 + 225 * 289
            assert elapsed < 1.0, f"K_{{8,8}} over {field} took {elapsed:.2f}s, budget 1s"


def fresh(ideal):
    """An equal ideal with an empty memo, so its profiles are computed anew."""
    return MonomialIdeal(ideal.n, ideal.gens)


def random_layer_ideal(rng, n, d, count):
    """R(n, d, count): count of the d-subsets of [n], drawn at random."""
    layer = list(itertools.combinations(range(1, n + 1), d))
    return MonomialIdeal.from_supports(n, rng.sample(layer, count))


def assert_pruned_scan_agrees(ideal, field):
    pruned = homology._homology_pd(ideal, field)
    top = max(i for i, _ in homology._hochster_table(ideal, field))
    height = associated_primes(ideal).height
    assert (pruned.pd, pruned.depth, pruned.is_cm) == (top, ideal.n - top, height == top), (
        ideal, field)
    scanned, skipped = pruned.stats.multidegrees_scanned, pruned.stats.multidegrees_skipped
    assert scanned + skipped == 1 << ideal.n
    lattice = {0}
    for g in ideal.masks:
        lattice |= {s | g for s in lattice}
    assert scanned <= len(lattice)
    assert pruned.stats.route == "homology"


class TestPrunedScan:
    """pd, depth and CM from the pruned Hochster scan against the full table."""

    FIELDS = (None, 2, 3)

    def test_random_squarefree(self):
        # mixed degrees included: random_squarefree draws supports of every size
        rng = random.Random(149)
        for _ in range(60):
            ideal = random_squarefree(rng, 8)
            for field in self.FIELDS:
                assert_pruned_scan_agrees(ideal, field)

    def test_random_layers(self):
        # the R(n, d, count) shapes of the analyze benchmark, n = 7..10
        rng = random.Random(157)
        shapes = [(7, 3, 10), (7, 4, 14), (8, 3, 14), (8, 4, 20),
                  (9, 3, 16), (9, 4, 18), (10, 3, 20)]
        for n, d, count in shapes:
            for _ in range(2):
                ideal = random_layer_ideal(rng, n, d, count)
                for field in self.FIELDS:
                    assert_pruned_scan_agrees(ideal, field)

    def test_torsion_and_matroidal_input(self):
        for field, expected_pd in ((None, 3), (3, 3), (2, 4)):
            assert homology._homology_pd(rp2_ideal(), field).pd == expected_pd
            assert_pruned_scan_agrees(rp2_ideal(), field)
        # the scan also holds on input that pd_depth sends to linear quotients
        for ideal in (squarefree_veronese(6, 3), transversal(6, [{1, 2}, {3, 4}, {5, 6}])):
            for field in self.FIELDS:
                assert_pruned_scan_agrees(ideal, field)

    def test_scan_stops_below_the_best_degree(self, two_blocks_n4):
        # the top of each lcm lattice, [4], holds the largest degree (3 for
        # (x1, x2)(x3, x4), 2 for (x1 x2, x3 x4)), and every other sigma has
        # at most that many vertices, so one multidegree is reduced
        for ideal, pd in ((two_blocks_n4, 3),
                          (MonomialIdeal.from_supports(4, [{1, 2}, {3, 4}]), 2)):
            profile = homology._homology_pd(ideal, None)
            assert profile.pd == pd
            assert (profile.stats.multidegrees_scanned,
                    profile.stats.multidegrees_skipped) == (1, 15)
        # (x1 x2, x2 x3, x3 x4, x4 x5): [5] gives degree 3 (j = 1); each of
        # the lattice's 4-sets holds at most 3 generator supports, and with
        # base = 1 gives degrees i <= 4 - 1, so none of them is reduced
        path = MonomialIdeal.from_supports(5, [{1, 2}, {2, 3}, {3, 4}, {4, 5}])
        profile = homology._homology_pd(path, None)
        assert profile.pd == max(i for i, _ in homology._hochster_table(path, None)) == 3
        assert profile.stats.multidegrees_scanned == 1
        # V(6, 3): [6] gives n - d + 1 = 4; each 5-set holds 10 generator
        # supports, but gives degrees up to 5 - base = 3 only
        profile = homology._homology_pd(squarefree_veronese(6, 3), None)
        assert (profile.pd, profile.stats.multidegrees_scanned) == (4, 1)

    def test_taylor_count_skips_what_the_size_bound_keeps(self):
        # the path x1 x2, ..., x6 x7: [7] gives degree 4, and a 6-set could
        # still give 6 - base = 5. The lattice's 6-sets [7] - {v} hold 5
        # generator supports for v = 1, 7 and are reduced; for v = 3, 4, 5
        # they hold 4, though every edge meets them, and are skipped. The
        # 5-sets give degrees up to 5 - base = 4 and stop the scan.
        path = MonomialIdeal.from_supports(7, [{i, i + 1} for i in range(1, 7)])
        for field in self.FIELDS:
            profile = homology._homology_pd(path, field)
            assert profile.pd == homology_oracle.pd_depth(path, field)[0] == 4
            assert profile.stats.multidegrees_scanned == 3

    def test_matching_scans_its_top_alone(self, capsys, monkeypatch):
        # the 10-edge matching on 20 variables: [20] gives pd = 10, and every
        # other union of its edges holds at most 9 of them
        edges = [(2 * k + 1, 2 * k + 2) for k in range(10)]
        profile = pd_depth(MonomialIdeal.from_supports(20, edges))
        assert (profile.pd, profile.stats.route) == (10, "homology")
        assert profile.stats.multidegrees_scanned == 1
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "n=20; " + ", ".join(f"x{a}*x{b}" for a, b in edges)))
        start = time.monotonic()
        code = main(["analyze", "--no-certify"])
        elapsed = time.monotonic() - start
        assert code == 0 and "\n  pd: 10\n" in capsys.readouterr().out
        # measured at about 0.14 s on a 2-vCPU VM, and 0.8 s when only
        # |sigma| stopped the scan
        assert elapsed < 0.3, f"analyze on the 10-edge matching took {elapsed:.2f}s, budget 0.3s"


def random_least_degree(rng, n, least):
    """A square-free ideal on [n] whose least generator degree is least; others up to least + 2."""
    pool = [rng.sample(range(1, n + 1), least)]
    pool += [rng.sample(range(1, n + 1), rng.randint(least, min(n, least + 2)))
             for _ in range(rng.randint(1, 7))]
    return MonomialIdeal.from_supports(n, pool)


class TestScanAgainstTheOracle:
    """The pruned scan and the whole Hochster table against the dense oracle.

    Both read the levels up to base in closed form through the one
    _reduced_ranks, so each is held to homology_oracle, which lists every
    face of every one of the 2^n multidegrees, not to the other.
    """

    FIELDS = (None, 2, 3)

    def assert_matches(self, ideal, field):
        pd, depth, is_cm, betti = homology_oracle.pd_depth(ideal, field)
        profile = homology._homology_pd(ideal, field)
        assert (profile.pd, profile.depth, profile.is_cm) == (pd, depth, is_cm), (ideal, field)
        assert list(homology._hochster_table(ideal, field).items()) == list(betti.items()), (
            ideal, field)

    @pytest.mark.parametrize("least", [1, 2, 3, 4])
    def test_random_by_least_degree(self, least):
        rng = random.Random(173 + least)
        for _ in range(12):
            ideal = random_least_degree(rng, rng.randint(least + 1, 8), least)
            assert min(g.degree for g in ideal.gens) == least
            for field in self.FIELDS:
                self.assert_matches(ideal, field)

    def test_random_mixed_degrees(self):
        rng = random.Random(179)
        mixed = [ideal for ideal in (random_squarefree(rng, 8) for _ in range(60))
                 if ideal.degree is None][:12]
        assert len(mixed) == 12
        for ideal in mixed:
            for field in self.FIELDS:
                self.assert_matches(ideal, field)


class TestLazyTable:
    """betti_table: the whole Hochster table, built on request, once per ideal and field."""

    def assert_table_matches(self, ideal, field):
        ideal = fresh(ideal)
        table = list(betti_table(ideal, field).items())
        assert table == list(homology._hochster_table(ideal, field).items()), ideal
        assert table == list(homology_oracle.betti_table(ideal, field).items())
        assert betti_table(ideal, field) is betti_table(ideal, field)

    def test_census_n5(self):
        for n in range(1, 6):
            for d in range(1, n + 1):
                for ideal in enumerate_matroidal(n, d, False):
                    for field in (None, 2):
                        self.assert_table_matches(ideal, field)

    def test_complete_bipartite(self):
        for a in range(1, 7):
            ideal = transversal(2 * a, [range(1, a + 1), range(a + 1, 2 * a + 1)])
            for field in (None, 2):
                self.assert_table_matches(ideal, field)

    def test_homology_route(self):
        rng = random.Random(163)
        for _ in range(20):
            ideal = random_squarefree(rng, 6)
            for field in (None, 2):
                self.assert_table_matches(ideal, field)

    def test_each_table_is_built_once(self, monkeypatch):
        calls = counting_builders(monkeypatch)
        three_blocks = transversal(6, [{1, 2}, {3, 4}, {5, 6}])
        profile = pd_depth(three_blocks)
        other_ideal = MonomialIdeal.from_supports(4, [{1, 2}, {3, 4}])
        other = pd_depth(other_ideal)
        # neither repr, equality nor hashing builds a table
        assert repr(profile).startswith("HomologyProfile(pd=4, depth=2, is_cm=False, stats=")
        assert profile == pd_depth(fresh(three_blocks)) and len({profile, other}) == 2
        assert calls == []
        for _ in range(2):
            assert betti_table(three_blocks)[(4, frozenset(range(1, 7)))] == 1
            assert betti_table(other_ideal)[(2, frozenset(range(1, 5)))] == 1
        assert sorted(calls) == ["_hochster_table", "_linear_quotient_table"]
        # the linear-quotient table serves every field, the homology one a single field
        assert betti_table(three_blocks, 2) is betti_table(three_blocks)
        assert betti_table(other_ideal, 2) is not betti_table(other_ideal)
        assert betti_table(other_ideal, 2) == betti_table(other_ideal)
        assert sorted(calls) == ["_hochster_table"] * 2 + ["_linear_quotient_table"]

    def test_budgets_and_errors_come_first(self, squared_pivot_n3, monkeypatch):
        calls = counting_builders(monkeypatch)
        with pytest.raises(DomainError, match="square-free"):
            betti_table(squared_pivot_n3)
        with pytest.raises(DomainError, match="LINEAR_QUOTIENT_BUDGET"):
            betti_table(MonomialIdeal.maximal(21))
        with pytest.raises(DomainError, match="FACE_BUDGET"):
            betti_table(MonomialIdeal.from_supports(40, [{1, 2}, {3, 4}]))
        with pytest.raises(DomainError):
            betti_table(MonomialIdeal.maximal(3), 4)
        assert calls == []

    def test_analyze_builds_no_table(self, monkeypatch):
        calls = counting_builders(monkeypatch)
        rng = random.Random(167)
        ideals = [random_layer_ideal(rng, 9, 3, 16),
                  transversal(6, [{1, 2, 3}, {4, 5, 6}])]  # K_{3,3}
        routes = []
        for ideal in ideals:
            for field in (None, 2):
                payload = run_command("analyze", Config(certify=False, field=field),
                                      ideal=ideal)
                profile = pd_depth(ideal, field)
                assert payload["homology"]["pd"] == profile.pd
                routes.append(profile.stats.route)
        assert routes == ["homology"] * 2 + ["linear_quotients"] * 2
        assert calls == []


def counting_builders(monkeypatch):
    """Record every call of the two Betti table builders, by name."""
    calls = []
    for name in ("_linear_quotient_table", "_hochster_table"):
        def counting(*args, _name=name, _original=getattr(homology, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(homology, name, counting)
    return calls


class TestFaceBudget:
    def test_budget_is_checked_before_faces_are_listed(self):
        # 4 facets of 38 vertices: about 10^12 faces
        ideal = MonomialIdeal.from_supports(40, [{1, 2}, {3, 4}])
        start = time.monotonic()
        with pytest.raises(DomainError, match="homology stage.*FACE_BUDGET = 4194304"):
            pd_depth(ideal)
        with pytest.raises(DomainError, match=str(4 << 38)):
            reduced_homology_ranks(stanley_reisner(ideal))
        assert time.monotonic() - start < 1.0

    def test_budget_bounds_the_sum_over_facets(self, monkeypatch):
        monkeypatch.setattr(homology, "FACE_BUDGET", 12)
        # 2^3 + 2^2 = 12 is at the limit, one more edge is over it
        assert reduced_homology_ranks(complex_of(4, {1, 2, 3}, {3, 4}))[0] == 0
        with pytest.raises(DomainError, match="16 faces"):
            reduced_homology_ranks(complex_of(4, {1, 2, 3}, {2, 4}, {1, 4}))

    def test_lattice_is_held_as_it_grows(self, monkeypatch):
        # x1 and the edges of K_4 on x2..x5: 2 * (2^4 - 4) = 24 unions of generator supports
        ideal = MonomialIdeal.from_supports(5, [{1}, *itertools.combinations(range(2, 6), 2)])
        profile = pd_depth(fresh(ideal))
        assert profile.stats.route == "homology"
        monkeypatch.setattr(homology, "LATTICE_BUDGET", 24)
        assert pd_depth(fresh(ideal)) == profile
        monkeypatch.setattr(homology, "LATTICE_BUDGET", 23)
        with pytest.raises(BudgetExceeded, match=r"^homology stage: the lcm lattice holds 24 "
                                                 r"multidegrees after 7 of 7 generators, over "
                                                 r"the limit LATTICE_BUDGET = 23$"):
            pd_depth(fresh(ideal))
        # x1 and the edges of K_16 on x2..x17: 2^17 - 32 unions, refused after 17 generators
        monkeypatch.undo()
        start = time.monotonic()
        probe = MonomialIdeal.from_supports(17, [{1}, *itertools.combinations(range(2, 18), 2)])
        with pytest.raises(BudgetExceeded, match="holds 65538 multidegrees after 17 of 121"):
            pd_depth(probe)
        assert time.monotonic() - start < 0.5

    def test_linear_quotient_table_is_held_against_the_budget(self, monkeypatch):
        # (x1, ..., x30): set(u_k) has k - 1 variables, 2^30 - 1 entries
        start = time.monotonic()
        with pytest.raises(DomainError, match="linear-quotient stage.*1073741823 entries"
                                              ".*LINEAR_QUOTIENT_BUDGET = 1048576"):
            betti_table(MonomialIdeal.maximal(30))
        assert time.monotonic() - start < 1.0
        # (x1, ..., x4) tabulates 1 + 2 + 4 + 8 = 15 entries
        monkeypatch.setattr(homology, "LINEAR_QUOTIENT_BUDGET", 15)
        assert len(betti_table(MonomialIdeal.maximal(4))) == 1 + 15
        monkeypatch.setattr(homology, "LINEAR_QUOTIENT_BUDGET", 14)
        with pytest.raises(DomainError, match="15 entries"):
            betti_table(MonomialIdeal.maximal(4))

    def test_linear_quotient_budget_is_its_own_bound(self, monkeypatch):
        # the table's bound, not the face bound, decides the route's refusal
        monkeypatch.setattr(homology, "FACE_BUDGET", 14)
        assert pd_depth(MonomialIdeal.maximal(4)).pd == 4
        # K_{10,10}'s table, the largest of the transversal family, still fits
        k1010 = transversal(20, [set(range(1, 11)), set(range(11, 21))])
        entries = sum(1 << linear.bit_count()
                      for _, linear in homology._linear_quotients(k1010))
        assert entries == 1046529 <= homology.LINEAR_QUOTIENT_BUDGET == 1 << 20

    def test_table_past_the_budget_fails_fast(self):
        # (x1, ..., x21) would tabulate 2^21 - 1 entries, about 1.7 GiB;
        # K_{10,10}, at 1,046,529 entries, is the largest transversal that fits
        start = time.monotonic()
        with pytest.raises(DomainError, match="linear-quotient stage.*2097151 entries"
                                              ".*LINEAR_QUOTIENT_BUDGET = 1048576"):
            betti_table(MonomialIdeal.maximal(21))
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("sizes", [(2, 400), (1, 300), (16, 16), (11, 11), (2, 3, 40),
                                       (1024,)], ids=str)
    def test_pd_is_read_where_the_table_is_refused(self, sizes, monkeypatch):
        # a transversal of d blocks: pd = n - d + 1 and the least block as
        # height; its table has prod (2^|block| - 1) entries besides beta_0
        calls = counting_builders(monkeypatch)
        n, d = sum(sizes), len(sizes)
        blocks = [range(sum(sizes[:k]) + 1, sum(sizes[:k + 1]) + 1) for k in range(d)]
        ideal = transversal(n, blocks)
        profile = pd_depth(ideal)
        assert (profile.pd, profile.depth, profile.is_cm) == (n - d + 1, d - 1, d == 1)
        entries = math.prod((1 << size) - 1 for size in sizes)
        with pytest.raises(BudgetExceeded) as info:
            betti_table(ideal)
        assert str(info.value) == (f"linear-quotient stage: the Betti table has {entries} "
                                   "entries (sum of 2^|set(u)|), over the limit "
                                   "LINEAR_QUOTIENT_BUDGET = 1048576")
        assert calls == []

    def analyze_maximal(self, n, capsys, monkeypatch):
        """Exit code, wall time and the homology, rank and certification lines of analyze."""
        from matroidalkit.cli import main
        text = f"n = {n}; " + ", ".join(f"x{i}" for i in range(1, n + 1))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        start = time.monotonic()
        code = main(["analyze"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        blocks = {}
        for section in ("homology", "rank", "certification"):
            lines = out.split(f"\n{section}:\n", 1)[1].splitlines()
            blocks[section] = list(itertools.takewhile(lambda line: line.startswith("  "), lines))
        return code, elapsed, blocks

    def assert_answers(self, n, blocks):
        """pd = n, depth 0, CM, rank exact at n and certification passed."""
        assert blocks["homology"] == [f"  pd: {n}", "  depth: 0", "  is_cm: True"]
        assert blocks["rank"][:4] == ["  degree: 1", f"  lower: {n}", f"  upper: {n}",
                                      "  exact: True"]
        assert blocks["certification"][0] == "  passed: True"

    def test_analyze_answers_homology_and_rank_on_the_maximal_ideal(self, capsys,
                                                                   monkeypatch):
        # no table is built, so the table's 2^30 - 1 entries are never sized
        code, elapsed, blocks = self.analyze_maximal(30, capsys, monkeypatch)
        assert code == 0
        self.assert_answers(30, blocks)
        # measured at about 0.015 s on a 2-vCPU VM
        assert elapsed < 1.0, f"analyze on x1..x30 took {elapsed:.2f}s, budget 1s"

    def test_analyze_answers_past_the_table_budget(self, capsys, monkeypatch):
        # x1..x21 is the least maximal ideal whose table betti_table refuses
        code, elapsed, blocks = self.analyze_maximal(21, capsys, monkeypatch)
        assert code == 0
        self.assert_answers(21, blocks)
        assert elapsed < 1.0, f"analyze on x1..x21 took {elapsed:.2f}s, budget 1s"

    def test_analyze_skips_homology_in_time(self, capsys, monkeypatch):
        from matroidalkit.cli import main
        monkeypatch.setattr("sys.stdin", io.StringIO("n = 40; x1*x2, x3*x4"))
        start = time.monotonic()
        code = main(["analyze"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        block = out.split("homology:\n", 1)[1].split("\n", 1)[0]
        assert block.startswith("  skipped: homology stage")
        assert "FACE_BUDGET = 4194304" in block
        assert elapsed < 1.0, f"analyze at n = 40 took {elapsed:.2f}s, budget 1s"


class TestCaches:
    def test_betti_table_is_read_only(self, two_blocks_n4):
        for ideal in (two_blocks_n4, MonomialIdeal.from_supports(4, [{1, 2}, {3, 4}])):
            table = betti_table(ideal)
            original = dict(table)
            with pytest.raises(AttributeError):
                table.clear()
            with pytest.raises(TypeError):
                table[(0, frozenset())] = 7
            with pytest.raises(TypeError):
                del table[(0, frozenset())]
            assert dict(betti_table(ideal)) == original
            assert original == homology_oracle.betti_table(ideal)

    def test_one_entry_per_ideal_and_field(self, two_blocks_n4):
        assert pd_depth(two_blocks_n4) is pd_depth(two_blocks_n4, None)
        assert pd_depth(two_blocks_n4, field=None) is pd_depth(two_blocks_n4)

    def test_linear_quotient_profile_is_shared_by_fields(self, monkeypatch):
        calls = []
        original = homology._linear_quotients

        def counting(ideal):
            calls.append(ideal)
            return original(ideal)
        monkeypatch.setattr(homology, "_linear_quotients", counting)
        ideal = transversal(16, [range(1, 9), range(9, 17)])  # a fresh instance
        first = pd_depth(ideal)
        assert first.stats.route == "linear_quotients"
        assert pd_depth(ideal, 2) is first
        assert pd_depth(ideal, 3) is first
        assert len(calls) == 1

    def test_homology_fallback_is_cached_per_field(self, monkeypatch):
        calls = []
        original = homology._homology_pd

        def counting(ideal, field):
            calls.append(field)
            return original(ideal, field)
        monkeypatch.setattr(homology, "_homology_pd", counting)
        # (x1 x2, x3 x4) has no linear quotients, so pd_depth falls back;
        # the instance is fresh, so its memo starts empty
        ideal = MonomialIdeal.from_supports(4, [{1, 2}, {3, 4}])
        over_q = pd_depth(ideal)
        assert over_q.stats.route != "linear_quotients"
        assert pd_depth(ideal) is over_q
        assert pd_depth(ideal, 2) is pd_depth(ideal, 2)
        assert calls == [None, 2]

    def test_homology_engine_is_uncached(self):
        # the engine tests below call it directly and must compute each time
        assert not hasattr(homology._hochster_table, "cache_info")

    def test_ideal_is_freed_without_the_cycle_collector(self):
        # the memo's profiles and tables hold no reference back to the ideal
        gc.collect()
        gc.disable()
        try:
            for gens in ([(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)],  # the homology route
                         [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]):
                ideal = make_ideal(len(gens[0]), gens)
                for field in (None, 2):
                    pd_depth(ideal, field)
                    betti_table(ideal, field)
                ref = weakref.ref(ideal)
                del ideal
                assert ref() is None, gens
        finally:
            gc.enable()

    def test_caches_are_bounded(self, fresh_enumeration_cache):
        # pd_depth's profiles live in the ideal's memo and go with it
        ideal = MonomialIdeal.from_supports(4, [{1, 2}, {3, 4}])
        profiles = [weakref.ref(pd_depth(ideal, field)) for field in (None, 2)]
        lq_ideal = transversal(6, [{1, 2}, {3, 4}, {5, 6}])
        profiles.append(weakref.ref(pd_depth(lq_ideal)))
        assert all(ref() is not None for ref in profiles)
        del ideal, lq_ideal
        gc.collect()
        assert all(ref() is None for ref in profiles)
        # enumeration keeps one scan per (n, d), whichever flag asks for it
        full = enumerate_matroidal(3, 2)
        everything = enumerate_matroidal(3, 2, False)
        assert full == enumerate_matroidal(3, 2, full_support_only=1)
        assert full == tuple(i for i in everything if len(i.support) == 3) and len(full) == 4
        assert enumerate_matroidal(3, 2, False) is everything
        assert matroids._enumerate_matroidal.cache_info().currsize == 1
        # a refused (n, d) leaves no entry behind
        for n, d in ((True, 1), (4.0, 2), (7, 3), (8, 1), (3, 4)):
            with pytest.raises(DomainError):
                enumerate_matroidal(n, d)
        assert matroids._enumerate_matroidal.cache_info().currsize == 1


class TestStats:
    def test_counts_repeat_and_cover_every_multidegree(self):
        rng = random.Random(13)
        for _ in range(20):
            ideal = random_squarefree(rng, 7)
            for field in (None, 2):
                first = homology._homology_pd(ideal, field).stats
                again = homology._homology_pd(ideal, field).stats
                assert first == again
                assert first.multidegrees_scanned + first.multidegrees_skipped == 1 << ideal.n

    def test_two_block_counts(self, two_blocks_n4):
        # the scan of (x1, x2)(x3, x4) reduces its lattice's top, [4], alone
        stats = homology._homology_pd(two_blocks_n4, None).stats
        assert (stats.multidegrees_scanned, stats.multidegrees_skipped) == (1, 15)
        assert stats.matrices_reduced > 0
        # at sigma = [4]: the two edges {1,2}, {3,4} onto the four vertices
        assert stats.largest_matrix == (4, 2)

    def test_stats_do_not_change_equality_or_reports(self, two_blocks_n4):
        profile = pd_depth(two_blocks_n4)
        assert profile == HomologyProfile(
            pd=profile.pd, depth=profile.depth, is_cm=profile.is_cm, stats=HomologyStats())
        assert profile == HomologyProfile(profile.pd, profile.depth, profile.is_cm)
        assert hash(profile) == hash((profile.pd, profile.depth, profile.is_cm))
        payload = run_command("analyze", Config(certify=False), ideal=two_blocks_n4)
        assert set(payload["homology"]) == {"pd", "depth", "is_cm"}

    def test_profile_is_a_plain_record(self, two_blocks_n4):
        profile = pd_depth(two_blocks_n4)
        assert [f.name for f in dataclasses.fields(profile)] == ["pd", "depth", "is_cm", "stats"]
        assert list(inspect.signature(HomologyProfile).parameters) == [
            "pd", "depth", "is_cm", "stats"]
        assert not hasattr(profile, "betti")
        changed = dataclasses.replace(profile, pd=2, depth=2)
        assert (changed.pd, changed.depth, changed.is_cm) == (2, 2, False)
        assert changed.stats is profile.stats and changed != profile
        assert pd_depth(two_blocks_n4) is profile and profile.pd == 3


class TestTimedHomology:
    def test_three_block_transversal_n12(self):
        # K_{4,4,4}: pd = n - d + 1 = 12 - 3 + 1
        ideal = transversal(12, [set(range(1, 5)), set(range(5, 9)), set(range(9, 13))])
        start = time.monotonic()
        table = homology._hochster_table(ideal, None)
        elapsed = time.monotonic() - start
        pd = max(i for i, _ in table)
        assert (pd, ideal.n - pd) == (10, 2)
        assert elapsed < 8.0, f"K_{{4,4,4}} over Q took {elapsed:.1f}s, budget 8s"
