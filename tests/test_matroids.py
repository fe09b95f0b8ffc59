"""Exchange property, families, and the census of matroidal ideals."""

import itertools
import math
import time

import pytest

from matroidalkit import (DomainError, MonomialIdeal, is_matroidal,
                          is_polymatroidal, is_squarefree_veronese, make_ideal,
                          squarefree_veronese, transversal, veronese)
from matroidalkit.matroids import (ENUMERATION_MAX_LAYER, ENUMERATION_MAX_N,
                                   NO_EXCHANGE_INDEX, NOT_SINGLE_DEGREE,
                                   dedupe_up_to_relabeling, enumerate_matroidal)


class TestExchange:
    def test_two_block_transversal(self, two_blocks_n4):
        cert = is_polymatroidal(two_blocks_n4)
        assert cert.holds and cert.reason is None and cert.failure_witness is None
        assert is_matroidal(two_blocks_n4)

    def test_disjoint_pair_fails_with_witness(self):
        ideal = make_ideal(4, [(1, 1, 0, 0), (0, 0, 1, 1)])
        cert = is_polymatroidal(ideal)
        assert not cert.holds
        assert cert.reason == NO_EXCHANGE_INDEX
        u, v, i = cert.failure_witness
        assert (str(u), str(v), i) == ("x1*x2", "x3*x4", 1)

    def test_witness_is_honest(self):
        # the reported (u, v, i) really has no valid exchange target
        from matroidalkit import Monomial
        ideal = make_ideal(5, [(1, 1, 0, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)])
        cert = is_polymatroidal(ideal)
        assert not cert.holds
        u, v, i = cert.failure_witness
        assert u.degree_in(i) > v.degree_in(i)
        for j in range(1, 6):
            if v.degree_in(j) <= u.degree_in(j):
                continue
            moved = list(u.exponents)
            moved[i - 1] -= 1
            moved[j - 1] += 1
            assert not ideal.contains(Monomial(tuple(moved)))

    def test_mixed_degrees_distinguished(self):
        ideal = make_ideal(3, [(1, 1, 0), (0, 0, 1)])
        cert = is_polymatroidal(ideal)
        assert not cert.holds
        assert cert.reason == NOT_SINGLE_DEGREE
        assert cert.failure_witness is None

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            is_polymatroidal(MonomialIdeal.zero(3))

    def test_unit_and_principal(self):
        assert is_polymatroidal(MonomialIdeal.unit(2)).holds
        assert is_polymatroidal(make_ideal(2, [(2, 1)])).holds

    def test_single_variables_matroidal(self):
        assert is_matroidal(make_ideal(3, [(1, 0, 0), (0, 0, 1)]))

    def test_polymatroidal_but_not_matroidal(self, squared_pivot_n3):
        assert is_polymatroidal(squared_pivot_n3).holds
        assert not is_matroidal(squared_pivot_n3)


class TestFamilies:
    def test_squarefree_veronese_shape(self):
        ideal = squarefree_veronese(3, 2)
        assert str(ideal) == "(x1*x2, x1*x3, x2*x3)"
        assert is_matroidal(ideal)
        assert is_squarefree_veronese(ideal)

    def test_veronese_shape(self):
        assert veronese(2, 2) == make_ideal(2, [(2, 0), (1, 1), (0, 2)])
        assert is_polymatroidal(veronese(4, 3)).holds

    def test_transversal_shape(self, two_blocks_n4):
        assert transversal(4, [{1, 2}, {3, 4}]) == two_blocks_n4
        # overlapping blocks allowed: plain product of variable ideals
        overlap = transversal(3, [{1, 2}, {2, 3}])
        assert overlap == make_ideal(3, [(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)])
        assert is_polymatroidal(overlap).holds
        with pytest.raises(DomainError):
            transversal(3, [{1, 2}, set()])

    def test_families_always_pass_exchange(self):
        for n in range(2, 6):
            for d in range(1, n + 1):
                assert is_matroidal(squarefree_veronese(n, d))
                assert is_polymatroidal(veronese(n, d)).holds

    def test_is_squarefree_veronese_rejects_others(self, two_blocks_n4):
        assert not is_squarefree_veronese(two_blocks_n4)
        assert not is_squarefree_veronese(make_ideal(3, [(1, 1, 0)]))
        assert is_squarefree_veronese(MonomialIdeal.maximal(4))


class TestClosure:
    def test_products_of_matroidal_are_polymatroidal(self):
        for n in (3, 4):
            pool = []
            for d in range(1, n + 1):
                pool.extend(enumerate_matroidal(n, d))
            for a, b in itertools.product(pool, repeat=2):
                assert is_polymatroidal(a * b).holds, f"{a} * {b}"

    def test_colons_of_matroidal_are_polymatroidal(self):
        from matroidalkit import Monomial
        for n in (3, 4, 5):
            probes = [Monomial.variable(n, i) for i in range(1, n + 1)]
            probes += [Monomial.variable(n, i) * Monomial.variable(n, j)
                       for i in range(1, n + 1) for j in range(i, n + 1)]
            for d in range(2, n + 1):
                for ideal in enumerate_matroidal(n, d):
                    for u in probes:
                        quotient = ideal.colon(u)
                        if quotient.is_unit:
                            continue
                        assert is_polymatroidal(quotient).holds, f"{ideal}:{u}"


class TestEnumeration:
    def test_full_support_degree2_counts(self):
        # one ideal per partition of [n] into at least two blocks
        for n, expected in [(3, 4), (4, 14), (5, 51)]:
            assert len(enumerate_matroidal(n, 2)) == expected

    def test_degree1_full_support_unique(self):
        for n in range(1, 6):
            census = enumerate_matroidal(n, 1)
            assert census == (MonomialIdeal.maximal(n),)

    def test_without_support_filter(self):
        census = enumerate_matroidal(3, 2, False)
        assert len(census) == 7  # every nonempty collection of the 3 pairs
        assert all(is_matroidal(i) for i in census)

    def test_census_sorted_and_unique(self):
        census = enumerate_matroidal(4, 2)
        assert len(set(census)) == len(census)
        assert all(is_matroidal(i) for i in census)
        assert all(i.support == frozenset({1, 2, 3, 4}) for i in census)

    def test_caps(self):
        with pytest.raises(DomainError):
            enumerate_matroidal(ENUMERATION_MAX_N + 1, 2)
        with pytest.raises(DomainError):
            enumerate_matroidal(3, 4)

    @pytest.mark.parametrize("d", [2, 3])
    def test_oversized_scan_fails_fast(self, d):
        # C(7,2) = 21 and C(7,3) = 35 square-free monomials: 2^21 and 2^35 collections
        start = time.perf_counter()
        with pytest.raises(DomainError) as info:
            enumerate_matroidal(7, d)
        assert time.perf_counter() - start < 1.0
        assert f"2^{math.comb(7, d)}" in str(info.value)
        assert f"2^{ENUMERATION_MAX_LAYER}" in str(info.value)

    def test_small_layer_at_n7_enumerates(self):
        assert enumerate_matroidal(7, 1) == (MonomialIdeal.maximal(7),)

    def test_relabeling_classes(self):
        # block-size shapes of partitions with >= 2 parts: 4 shapes at n=4,
        # 6 at n=5
        assert len(dedupe_up_to_relabeling(enumerate_matroidal(4, 2))) == 4
        assert len(dedupe_up_to_relabeling(enumerate_matroidal(5, 2))) == 6

    def test_relabeling_keeps_representatives(self):
        census = enumerate_matroidal(4, 2)
        reps = dedupe_up_to_relabeling(census)
        assert set(reps) <= set(census)
