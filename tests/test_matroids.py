"""Exchange property, families, and the census of matroidal ideals."""

import dataclasses
import itertools
import math
import random
import re
import time
import timeit

import pytest

from matroidalkit import (DomainError, MonomialIdeal, is_matroidal,
                          is_polymatroidal, is_squarefree_veronese, make_ideal,
                          matroids, squarefree_monomials, squarefree_veronese,
                          transversal, veronese)
from matroidalkit.ideals import _class_roots, _swap_orbits, mask_to_support
from matroidalkit.matroids import (ENUMERATION_MAX_LAYER, ENUMERATION_MAX_N,
                                   NO_EXCHANGE_INDEX, NOT_SINGLE_DEGREE,
                                   dedupe_up_to_relabeling, enumerate_matroidal)

import matroids_oracle


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

    @pytest.mark.parametrize("build", [squarefree_veronese, veronese])
    @pytest.mark.parametrize("bad", [True, 2.0, 1.5, "2", 0, -1], ids=repr)
    def test_degree_must_be_a_positive_int(self, build, bad):
        with pytest.raises(DomainError, match=re.escape(f"{bad!r}")):
            build(3, bad)

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

    @pytest.mark.parametrize("n, d, classes", [(5, 2, 6), (5, 3, 9), (6, 2, 10), (6, 4, 18)])
    def test_relabeling_matches_the_oracle_walk(self, n, d, classes):
        census = enumerate_matroidal(n, d)
        reps = dedupe_up_to_relabeling(census)
        assert len(reps) == classes
        assert reps == matroids_oracle.dedupe_up_to_relabeling(census)

    def test_relabeling_matches_the_oracle_walk_off_the_census(self):
        # not square-free, mixed degrees, and zero ideals that differ only in n
        rng = random.Random(61)
        ideals = [MonomialIdeal.zero(3), MonomialIdeal.zero(4), MonomialIdeal.unit(3)]
        for _ in range(300):
            n = rng.randint(1, 5)
            gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            ideal = make_ideal(n, gens)
            perm = rng.sample(range(n), n)
            ideals += [ideal, make_ideal(n, [tuple(g[i] for i in perm) for g in gens])]
        reps = dedupe_up_to_relabeling(ideals)
        assert len(reps) < 300
        assert reps == matroids_oracle.dedupe_up_to_relabeling(ideals)


def layer_collections(n, d):
    """Every nonempty collection of the lex layer, as ideals built directly."""
    layer = squarefree_monomials(n, d)
    for selector in range(1, 1 << len(layer)):
        yield MonomialIdeal(n, tuple(m for k, m in enumerate(layer) if selector >> k & 1))


def random_squarefree(rng, n):
    """A single-degree square-free ideal, or now and then a mixed-degree one."""
    d = rng.randint(1, n)
    layer = squarefree_monomials(n, d)
    chosen = rng.sample(layer, rng.randint(1, min(len(layer), 12)))
    if rng.random() < 0.1:
        chosen += rng.sample(squarefree_monomials(n, rng.randint(1, n)), 1)
    return make_ideal(n, chosen)


def assert_matches_oracle(ideal):
    assert is_polymatroidal(ideal) == matroids_oracle.is_polymatroidal(ideal), str(ideal)


class TestMaskRouteAgainstOracle:
    """Full certificates, witness order included, against the tuple route."""

    def test_every_small_collection(self):
        compared = 0
        for n in range(1, 11):
            for d in range(1, n + 1):
                if math.comb(n, d) > 10:
                    continue
                for ideal in layer_collections(n, d):
                    assert_matches_oracle(ideal)
                    compared += 1
        assert compared > 5000

    def test_random_squarefree(self):
        rng = random.Random(8)
        failed = 0
        for _ in range(2400):
            ideal = random_squarefree(rng, rng.randint(2, 9))
            assert_matches_oracle(ideal)
            failed += not is_polymatroidal(ideal).holds
        assert 600 < failed < 2400  # both verdicts are exercised

    def test_random_and_symmetric_families(self):
        # random families alternating with families closed under the swaps
        # inside random blocks of variables
        rng = random.Random(20)
        symmetric_failures = 0
        for k in range(3000):
            if k % 2:
                ideal = symmetric_family(rng, rng.randint(4, 9))
            else:
                ideal = random_squarefree(rng, rng.randint(2, 8))
            if ideal.degree is None:
                continue
            assert_matches_oracle(ideal)
            if k % 2:
                symmetric_failures += not is_polymatroidal(ideal).holds
        assert symmetric_failures > 250

    def test_families(self):
        rng = random.Random(9)
        for n in range(1, 9):
            for d in range(1, n + 1):
                assert_matches_oracle(squarefree_veronese(n, d))
        for _ in range(60):
            n = rng.randint(2, 8)
            blocks = [rng.sample(range(1, n + 1), rng.randint(1, n))
                      for _ in range(rng.randint(1, 3))]
            assert_matches_oracle(transversal(n, blocks))

    def test_not_squarefree(self):
        for n in range(1, 5):
            for d in range(1, 4):
                assert_matches_oracle(veronese(n, d))
        powers = [transversal(5, [{1, 2}] * 2 + [{3, 4, 5}]),
                  transversal(6, [{1, 2, 3}] * 3),
                  transversal(6, [{1, 2}] * 2 + [{3, 4}, {5, 6}] * 2),
                  make_ideal(3, [(2, 1, 0), (2, 0, 1)]),
                  make_ideal(3, [(2, 1, 0), (0, 1, 2)]),
                  make_ideal(4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)])]
        for ideal in powers:
            assert_matches_oracle(ideal)

    def test_squarefree_input_takes_the_mask_route(self, monkeypatch):
        def refuse(ideal):
            raise AssertionError(f"tuple route on {ideal}")
        monkeypatch.setattr(matroids, "_tuple_exchange_failure", refuse)
        for ideal in layer_collections(4, 2):
            is_polymatroidal(ideal)
        with pytest.raises(AssertionError):
            is_polymatroidal(veronese(3, 2))

    def test_failure_is_the_first_in_pair_then_index_order(self):
        # (x1*x2, x3*x4): both (u, v) = (x1x2, x3x4) indices fail; i = 1 first
        masks = [0b0011, 0b1100]
        assert matroids._exchange_failure(masks) == (0, 1, 0b0001)
        assert matroids._exchange_failure([0b0011]) is None

    def test_symmetric_failure_keeps_its_witness(self):
        # fixed by (1 2), (3 4) and (5 6): 18 generators in 6 orbits
        ideal = all_triples_but_123_and_124()
        classes = _swap_orbits(ideal)
        assert classes == (0, 0, 2, 2, 4, 4)
        assert _class_roots([g.exponents for g in ideal.gens], classes) == (
            0, 0, 2, 3, 3, 3, 3, 7, 2, 3, 3, 3, 3, 7, 14, 14, 16, 16)
        assert_matches_oracle(ideal)
        u, v, i = is_polymatroidal(ideal).failure_witness
        assert (str(u), str(v), i) == ("x1*x2*x5", "x1*x3*x4", 5)

    def test_perturbed_matroids(self):
        # a transversal or Veronese matroid with one basis added or removed
        rng = random.Random(41)
        failed = 0
        for _ in range(600):
            n = rng.randint(2, 8)
            if rng.random() < 0.5:
                blocks = [rng.sample(range(1, n + 1), rng.randint(1, n))
                          for _ in range(rng.randint(1, 3))]
                supports = {g.support for g in transversal(n, blocks).gens if g.is_squarefree}
            else:
                supports = {g.support for g in squarefree_veronese(n, rng.randint(1, n)).gens}
            if not supports:
                continue
            d = len(next(iter(supports)))
            missing = [m.support for m in squarefree_monomials(n, d)
                       if m.support not in supports]
            if missing and (len(supports) == 1 or rng.random() < 0.5):
                supports.add(rng.choice(missing))
            elif len(supports) > 1:
                supports.remove(rng.choice(sorted(supports, key=sorted)))
            ideal = MonomialIdeal.from_supports(n, supports)
            assert_matches_oracle(ideal)
            failed += not is_polymatroidal(ideal).holds
        assert 40 < failed < 400  # both verdicts are exercised

    def test_enumeration_matches_the_oracle_scan(self):
        for n in range(1, ENUMERATION_MAX_N + 1):
            for d in range(1, n + 1):
                if math.comb(n, d) > 15:
                    continue
                for flag in (True, False):
                    assert enumerate_matroidal(n, d, flag) == \
                        matroids_oracle.enumerate_matroidal(n, d, flag), (n, d, flag)


class TestTupleRouteAgainstOracle:
    def test_random_single_degree_families(self):
        # the oracle scans every generator pair; the tuple route asks once per w
        rng = random.Random(43)
        failed = compared = 0
        for _ in range(1500):
            n, d = rng.randint(1, 6), rng.randint(2, 4)
            gens = set()
            for _ in range(rng.randint(1, 10)):
                exps = [0] * n
                for _ in range(d):
                    exps[rng.randrange(n)] += 1
                gens.add(tuple(exps))
            ideal = make_ideal(n, gens)
            if ideal.is_squarefree or ideal.degree is None:
                continue
            assert_matches_oracle(ideal)
            failed += not is_polymatroidal(ideal).holds
            compared += 1
        assert compared > 1000 and 300 < failed < compared - 300

    def test_powers_of_matroids(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(2, 6)
            blocks = [rng.sample(range(1, n + 1), rng.randint(1, n))
                      for _ in range(rng.randint(1, 2))]
            base = transversal(n, blocks)
            ideal = base * base
            assert is_polymatroidal(ideal).holds
            assert_matches_oracle(ideal)
            # drop one generator: the exchange may or may not survive
            if ideal.mu > 1:
                fewer = make_ideal(n, ideal.gens[:-1])
                assert_matches_oracle(fewer)

    def test_families_times_a_common_monomial(self):
        # the route divides out the generators' gcd; the oracle does not
        rng = random.Random(53)
        failed = compared = 0
        for _ in range(600):
            n, d = rng.randint(1, 6), rng.randint(1, 3)
            gens = set()
            for _ in range(rng.randint(1, 8)):
                exps = [0] * n
                for _ in range(d):
                    exps[rng.randrange(n)] += 1
                gens.add(tuple(exps))
            factor = [rng.choice((0, 1, 2)) for _ in range(n)]
            ideal = make_ideal(n, [tuple(map(sum, zip(g, factor))) for g in gens])
            if ideal.is_squarefree:
                continue
            assert_matches_oracle(ideal)
            failed += not is_polymatroidal(ideal).holds
            compared += 1
        assert compared > 400 and 100 < failed < compared - 100

    @pytest.mark.parametrize("case", ["P*(x1,x2)", "P*m", "disjoint"])
    def test_large_support_in_time(self, case):
        # P = x1*...*x1000; the disjoint pair x1*...*x600, x601^2*...*x900^2
        # shares no variable and fails at its first row
        n = 1000
        if case == "disjoint":
            gens = [(1,) * 600 + (0,) * 400, (0,) * 600 + (2,) * 300 + (0,) * 100]
        else:
            gens = [tuple(1 + (j == k) for j in range(n))
                    for k in range(2 if case == "P*(x1,x2)" else n)]
        ideal = make_ideal(n, gens)
        elapsed = min(timeit.repeat(lambda: matroids._tuple_exchange_failure(ideal),
                                    number=1, repeat=3))
        witness = matroids._tuple_exchange_failure(ideal)
        if case == "disjoint":
            assert witness == (ideal.gens[0], ideal.gens[1], 1)
        else:
            assert witness is None
        bound = {"P*(x1,x2)": 0.05, "P*m": 1.0, "disjoint": 0.5}[case]
        assert elapsed < bound, f"{case} took {elapsed:.3f}s, budget {bound}s"


class CountingMasks(list):
    """A mask list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def mask_scans(masks):
    """(result, passes over masks beyond those of a one-mask input)."""
    masks, single = CountingMasks(masks), CountingMasks(masks[:1])
    result = matroids._exchange_failure(masks)
    assert matroids._exchange_failure(single) is None
    return result, masks.passes - single.passes


class TestExchangeKernel:
    """_exchange_failure scans the masks once per distinct w = u - e, and only
    when C(w), the bits f with w + f a member, misses part of the union less w."""

    def test_two_by_400_scans_once_per_w(self):
        ideal = transversal(402, [{1, 2}, range(3, 403)])
        # C(x1) = C(x2) = {y_j} and C(y_j) = {x1, x2}: none covers the union
        # less w, no mask misses it, and the 800 rows ask for 402 w's
        assert mask_scans(list(ideal.masks)) == (None, 402)

    def test_covered_w_scans_nothing(self):
        for n, d in ((6, 3), (7, 2), (5, 1)):
            assert mask_scans(list(squarefree_veronese(n, d).masks)) == (None, 0)

    def test_rows_that_share_a_w_share_its_answer(self):
        # rows x1x2 and x1x3 share w = x1, with C(x1) = {x2, x3}, which every
        # mask meets; x1x3 is the first row with a failing w: C(x3) = {x1},
        # which x2x4 misses. Three w's, so three scans.
        assert mask_scans([0b0011, 0b0101, 0b1010]) == ((1, 2, 0b0001), 3)

    def test_a_row_fails_at_its_least_failing_w(self):
        # row x1x2: every mask meets C(x2) = {x1, x4}, and x3x4 misses
        # C(x1) = {x2}; a memo keyed by the row would miss the second w
        assert mask_scans([0b0011, 0b1010, 0b1100]) == ((0, 2, 0b0010), 2)


def symmetric_family(rng, n):
    """A random layer family closed under the swaps inside random blocks of variables."""
    d = rng.randint(1, n - 1)
    layer = [m.bitmask() for m in squarefree_monomials(n, d)]
    family = set(rng.sample(layer, rng.randint(1, min(len(layer), 12))))
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    swaps = [1 << i | 1 << j for block in blocks for i, j in itertools.combinations(block, 2)]
    frontier = list(family)
    while frontier:
        m = frontier.pop()
        for swap in swaps:
            image = m ^ swap if (m & swap).bit_count() == 1 else m
            if image not in family:
                family.add(image)
                frontier.append(image)
    return MonomialIdeal.from_supports(n, map(mask_to_support, family))


def all_triples_but_123_and_124():
    return MonomialIdeal.from_supports(6, [c for c in itertools.combinations(range(1, 7), 3)
                                           if c not in {(1, 2, 3), (1, 2, 4)}])


class TestMemo:
    def test_second_call_returns_the_same_certificate(self, path_n4):
        first = is_polymatroidal(path_n4)
        assert is_polymatroidal(path_n4) is first
        again = make_ideal(4, [g.exponents for g in path_n4.gens])
        assert again is not path_n4
        assert is_polymatroidal(again) == first

    def test_memo_is_not_a_field(self, two_blocks_n4):
        before = (hash(two_blocks_n4), repr(two_blocks_n4))
        is_polymatroidal(two_blocks_n4)
        assert [f.name for f in dataclasses.fields(MonomialIdeal)] == ["n", "gens"]
        assert (hash(two_blocks_n4), repr(two_blocks_n4)) == before
        fresh = transversal(4, [{1, 2}, {3, 4}])
        assert fresh == two_blocks_n4 and hash(fresh) == hash(two_blocks_n4)

    def test_zero_raises_on_every_call(self):
        zero = MonomialIdeal.zero(3)
        for _ in range(2):
            with pytest.raises(DomainError):
                is_polymatroidal(zero)
            with pytest.raises(DomainError, match="zero ideal"):
                is_matroidal(zero)

    def test_is_matroidal_goes_through_the_module_global(self, monkeypatch, two_blocks_n4):
        seen = []
        original = matroids.is_polymatroidal

        def counting(ideal):
            seen.append(ideal)
            return original(ideal)
        monkeypatch.setattr(matroids, "is_polymatroidal", counting)
        assert is_matroidal(two_blocks_n4)
        assert seen == [two_blocks_n4]

    def test_veronese_10_5_in_time(self):
        ideal = squarefree_veronese(10, 5)
        start = time.perf_counter()
        certificate = is_polymatroidal(ideal)
        elapsed = time.perf_counter() - start
        assert certificate.holds
        assert elapsed < 0.15, f"V(10,5) took {elapsed:.3f}s, budget 0.15s"
