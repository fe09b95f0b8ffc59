"""Irreducible decomposition, associated primes, and the degree-2 criteria."""

import dataclasses
import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidalkit import (BudgetExceeded, DomainError, Monomial, MonomialIdeal, Partition,
                          StructuralError, associated_primes, criteria_check, decomposition,
                          irreducible_decomposition, is_matroidal, make_ideal, p1_classify,
                          partition_degree2, pd_depth, squarefree_veronese, stanley_reisner,
                          transversal, veronese)
from matroidalkit.decomposition import (MATROIDAL, POWER_OF_M, CoverStats, _minimal_covers,
                                        _polarize)

import decomposition_oracle
from matroidalkit.ideals import mask_to_support, support_to_mask
from matroidalkit.matroids import enumerate_matroidal


def minimal_covers(edges):
    """The cover search on edges given as variable sets; covers as a frozenset of sets."""
    covers, stats = _minimal_covers([support_to_mask(e) for e in edges])
    return frozenset(map(mask_to_support, covers)), stats


def in_order(components):
    """Components in the order irreducible_decomposition returns them."""
    return tuple(sorted(components, key=lambda q: tuple(g.exponents for g in q.gens)))


def intersect_all(ideals):
    result = ideals[0]
    for other in ideals[1:]:
        result = result.intersect(other)
    return result


class TestIrreducibleDecomposition:
    def test_squared_pivot(self, squared_pivot_n3):
        comps = irreducible_decomposition(squared_pivot_n3)
        assert set(comps) == {make_ideal(3, [(2, 0, 0)]),
                              make_ideal(3, [(0, 1, 0), (0, 0, 1)])}

    def test_single_squarefree_gen(self):
        comps = irreducible_decomposition(make_ideal(2, [(1, 1)]))
        assert set(comps) == {make_ideal(2, [(1, 0)]), make_ideal(2, [(0, 1)])}

    def test_two_block_example(self, two_blocks_n4):
        comps = irreducible_decomposition(two_blocks_n4)
        assert set(comps) == {
            MonomialIdeal.from_supports(4, [{1}, {2}]),
            MonomialIdeal.from_supports(4, [{3}, {4}])}

    def test_squared_maximal(self):
        comps = irreducible_decomposition(veronese(2, 2))
        assert set(comps) == {make_ideal(2, [(2, 0), (0, 1)]),
                              make_ideal(2, [(1, 0), (0, 2)])}

    def test_irreducible_input_fixed(self):
        ideal = make_ideal(3, [(2, 0, 0), (0, 3, 0)])
        assert irreducible_decomposition(ideal) == (ideal,)

    def test_zero_unit_rejected(self):
        for bad in (MonomialIdeal.zero(2), MonomialIdeal.unit(2)):
            with pytest.raises(DomainError):
                irreducible_decomposition(bad)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_intersection_reproduces_ideal(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        exps = st.tuples(*[st.integers(0, 2)] * n)
        ideal = make_ideal(n, data.draw(st.lists(exps, min_size=1, max_size=5)))
        if ideal.is_unit:
            return
        comps = irreducible_decomposition(ideal)
        assert intersect_all(comps) == ideal
        # components are irreducible: generated by pure variable powers
        for comp in comps:
            assert all(len(g.support) == 1 for g in comp.gens)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_membership_splits_across_components(self, data):
        # m in I iff m lies in every component, probed on random monomials
        n = data.draw(st.integers(2, 4), label="n")
        exps = st.tuples(*[st.integers(0, 2)] * n)
        ideal = make_ideal(n, data.draw(st.lists(exps, min_size=1, max_size=4)))
        if ideal.is_unit:
            return
        comps = irreducible_decomposition(ideal)
        for probe_exp in itertools.product(range(3), repeat=n):
            probe = Monomial(probe_exp)
            assert ideal.contains(probe) == all(c.contains(probe) for c in comps)

    def test_irredundant(self):
        # no component may be dropped
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(2, 4)
            gens = [tuple(rng.randint(0, 2) for _ in range(n))
                    for _ in range(rng.randint(1, 4))]
            ideal = make_ideal(n, gens)
            if ideal.is_unit or ideal.is_zero:
                continue
            comps = irreducible_decomposition(ideal)
            for k in range(len(comps)):
                rest = comps[:k] + comps[k + 1:]
                assert not rest or intersect_all(rest) != ideal

    def test_pairwise_pruning_matches_greedy_oracle(self):
        # the cover search keeps exactly what the splitting recursion and
        # the greedy intersect-the-rest pass keep, in ascending order
        rng = random.Random(59)
        compared = 0
        for _ in range(150):
            n = rng.randint(2, 5)
            gens = [tuple(rng.randint(0, 2) for _ in range(n))
                    for _ in range(rng.randint(1, 5))]
            ideal = make_ideal(n, gens)
            if ideal.is_unit or ideal.is_zero or ideal.is_squarefree:
                continue
            expected = decomposition_oracle.irreducible_decomposition(
                ideal, decomposition_oracle.drop_redundant)
            assert expected == decomposition_oracle.irreducible_decomposition(ideal)
            assert irreducible_decomposition(ideal) == in_order(expected)
            compared += 1
        assert compared > 75

    def test_matches_splitting_oracle_on_random_ideals(self):
        # n <= 6, at most 7 generators, exponents at most 4
        rng = random.Random(233)
        compared = 0
        while compared < 2000:
            n = rng.randint(1, 6)
            ideal = make_ideal(n, [tuple(rng.randint(0, 4) for _ in range(n))
                                   for _ in range(rng.randint(1, 7))])
            if ideal.is_unit or ideal.is_zero or ideal.is_squarefree:
                continue
            assert irreducible_decomposition(ideal) == in_order(
                decomposition_oracle.irreducible_decomposition(ideal)), ideal
            compared += 1

    def test_once_refused_input_is_decomposed(self):
        # the splitting recursion made more than 512 leaves here
        ideal = make_ideal(6, [(3, 1, 1, 3, 2, 2), (2, 2, 2, 4, 1, 3),
                               (1, 3, 0, 1, 1, 4), (0, 2, 4, 1, 3, 1)])
        comps = irreducible_decomposition(ideal)
        assert len(comps) == 35 and comps == in_order(
            decomposition_oracle.irreducible_decomposition(ideal))

    def test_huge_exponents_take_one_vertex_each(self):
        top = (1 << 63) - 1
        ideal = make_ideal(3, [(top, 1, 0), (top - 1, 0, 1), (0, top, top)])
        powers, edges, tops = _polarize(ideal)
        assert [(min(p.support), p.degree) for p in powers] == [
            (1, top - 1), (1, top), (2, 1), (2, top), (3, 1), (3, top)]
        assert edges == [0b000111, 0b010001, 0b111100]
        assert tops == [0b000110, 0b010001, 0b101000]
        comps = irreducible_decomposition(ideal)
        assert comps == in_order(decomposition_oracle.irreducible_decomposition(ideal))


class TestAssociatedPrimes:
    def test_two_block_example(self, two_blocks_n4):
        dec = associated_primes(two_blocks_n4)
        assert dec.ass == frozenset({frozenset({1, 2}), frozenset({3, 4})})
        assert dec.minimal == dec.ass
        assert dec.height == 2 and dec.big_height == 2
        assert dec.is_unmixed

    def test_mixed_heights_example(self, two_blocks_n5):
        dec = associated_primes(two_blocks_n5)
        assert dec.ass == frozenset({frozenset({1, 2}), frozenset({3, 4, 5})})
        assert (dec.height, dec.big_height) == (2, 3)
        assert not dec.is_unmixed

    def test_squared_pivot_example(self, squared_pivot_n3):
        dec = associated_primes(squared_pivot_n3)
        assert dec.ass == frozenset({frozenset({1}), frozenset({2, 3})})
        assert dec.ass == dec.minimal

    def test_embedded_prime(self):
        # (x1^2, x1x2) = (x1) meet (x1^2, x2): ass gains the embedded {1,2}
        ideal = make_ideal(2, [(2, 0), (1, 1)])
        dec = associated_primes(ideal)
        assert dec.minimal == frozenset({frozenset({1})})
        assert dec.ass == frozenset({frozenset({1}), frozenset({1, 2})})
        assert (dec.height, dec.big_height) == (1, 2)
        assert not dec.is_unmixed

    def test_squarefree_ass_equals_min(self):
        rng = random.Random(97)
        for _ in range(40):
            n = rng.randint(2, 6)
            pool = [tuple(rng.randint(0, 1) for _ in range(n))
                    for _ in range(rng.randint(1, 5))]
            ideal = make_ideal(n, [p for p in pool if any(p)] or [(1,) * n])
            dec = associated_primes(ideal)
            assert dec.ass == dec.minimal

    def test_minimal_primes_are_covers(self, two_blocks_n5):
        dec = associated_primes(two_blocks_n5)
        supports = [g.support for g in two_blocks_n5.gens]
        for prime in dec.minimal:
            assert all(prime & s for s in supports)
            for var in prime:
                smaller = prime - {var}
                assert any(not (smaller & s) for s in supports)

    def test_zero_unit_rejected(self):
        for bad in (MonomialIdeal.zero(3), MonomialIdeal.unit(3)):
            with pytest.raises(DomainError):
                associated_primes(bad)


def counting(monkeypatch, name):
    """Replace decomposition.<name> by a wrapper; returns the list of its arguments."""
    calls = []
    original = getattr(decomposition, name)

    def wrapper(arg):
        calls.append(arg)
        return original(arg)
    monkeypatch.setattr(decomposition, name, wrapper)
    return calls


class TestOneDecompositionPerIdeal:
    def test_sections_share_one_cover_search(self, two_blocks_n5, path_n4, monkeypatch):
        calls = counting(monkeypatch, "_minimal_covers")
        # matroidal: the linear-quotient route; a path: homology through the face complex
        for ideal in (two_blocks_n5, path_n4):
            dec = associated_primes(ideal)
            if is_matroidal(ideal):
                criteria_check(ideal)
            stanley_reisner(ideal)
            pd_depth(ideal)
            pd_depth(ideal, 2)
            assert associated_primes(ideal) is dec
            assert calls.count(ideal.masks) == 1
        # a fresh equal ideal owns a fresh memo
        assert associated_primes(transversal(5, [{1, 2}, {3, 4, 5}])) == \
            associated_primes(two_blocks_n5)
        assert calls.count(two_blocks_n5.masks) == 2

    def test_one_splitting_per_ideal(self, squared_pivot_n3, monkeypatch):
        calls = counting(monkeypatch, "irreducible_decomposition")
        dec = associated_primes(squared_pivot_n3)
        assert associated_primes(squared_pivot_n3) is dec and len(calls) == 1

    def test_a_refusal_is_not_kept(self, monkeypatch):
        ideal = MonomialIdeal.from_supports(8, [{1, 2}, {3, 4}, {5, 6}, {7, 8}])
        calls = counting(monkeypatch, "_minimal_covers")
        monkeypatch.setattr(decomposition, "COVER_BUDGET", 29)
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                associated_primes(ideal)
        monkeypatch.setattr(decomposition, "COVER_BUDGET", 30)
        assert len(associated_primes(ideal).ass) == 16
        assert len(associated_primes(ideal).ass) == 16  # served from the memo
        assert len(calls) == 3

    def test_kept_result_cannot_be_changed(self, two_blocks_n5):
        dec = associated_primes(two_blocks_n5)
        for name, value in (("height", 0), ("ass", frozenset()), ("stats", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(dec, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.stats.nodes = 0
        assert isinstance(dec.ass, frozenset) and isinstance(dec.minimal, frozenset)
        assert all(isinstance(p, frozenset) for p in dec.ass | dec.minimal)
        assert associated_primes(two_blocks_n5).height == 2


def random_hypergraph(rng, n):
    """Up to eight edges on [n], with duplicate, nested and singleton edges."""
    edges = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.random()
        if edges and kind < 0.15:
            edges.append(rng.choice(edges))
        elif edges and kind < 0.3:
            edges.append(rng.choice(edges) | {rng.randint(1, n)})
        elif kind < 0.45:
            edges.append(frozenset({rng.randint(1, n)}))
        else:
            edge = frozenset(v for v in range(1, n + 1) if rng.random() < 0.4)
            edges.append(edge or frozenset({rng.randint(1, n)}))
    return edges


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(1, 9))
    edge = st.frozensets(st.integers(1, n), min_size=1, max_size=n)
    return draw(st.lists(edge, max_size=8))


class TestMinimalCovers:
    def test_matches_oracle_on_random_hypergraphs(self):
        rng = random.Random(113)
        for _ in range(400):
            edges = random_hypergraph(rng, rng.randint(1, 9))
            covers, stats = minimal_covers(edges)
            assert covers == decomposition_oracle.minimal_covers(edges), edges
            assert stats.leaves_kept == len(covers)

    @settings(max_examples=150, deadline=None)
    @given(hypergraphs())
    def test_matches_oracle_hypothesis(self, edges):
        covers, stats = minimal_covers(edges)
        assert covers == decomposition_oracle.minimal_covers(edges)
        assert stats.leaves_kept == len(covers)

    def test_degenerate_inputs(self):
        # no edges: the empty set covers; an empty edge: nothing covers
        assert minimal_covers([])[0] == frozenset({frozenset()})
        assert minimal_covers([frozenset({1}), frozenset()])[0] == frozenset()
        assert minimal_covers([{1, 2}, {2}, {2}])[0] == frozenset({frozenset({2})})

    def test_matches_oracle_on_matroidal_census(self):
        for d in (2, 3):
            for ideal in enumerate_matroidal(5, d):
                supports = [g.support for g in ideal.gens]
                covers, _ = _minimal_covers(ideal.masks)
                assert frozenset(map(mask_to_support, covers)) == \
                    decomposition_oracle.minimal_covers(supports)

    def test_stats_on_the_census_are_the_recorded_ones(self):
        # summed per (n, d) over the full-support matroidal ideals with
        # n <= 6: (ideals, nodes, leaves_kept, leaves_rejected), recorded
        # before polarized input came to share the search; the digest
        # covers each ideal's three counters in census order
        recorded = {
            (1, 1): (1, 1, 1, 0), (2, 1): (1, 2, 1, 0), (2, 2): (1, 2, 2, 0),
            (3, 1): (1, 3, 1, 0), (3, 2): (4, 16, 9, 2), (3, 3): (1, 3, 3, 0),
            (4, 1): (1, 4, 1, 0), (4, 2): (14, 97, 36, 15), (4, 3): (11, 70, 40, 13),
            (4, 4): (1, 4, 4, 0), (5, 1): (1, 5, 1, 0), (5, 2): (51, 555, 150, 86),
            (5, 3): (106, 1331, 500, 317), (5, 4): (26, 238, 135, 54), (5, 5): (1, 5, 5, 0),
            (6, 1): (1, 6, 1, 0), (6, 2): (202, 3205, 673, 469),
            (6, 3): (1232, 29074, 8106, 6780), (6, 4): (642, 13311, 5001, 3837),
            (6, 5): (57, 708, 396, 183), (6, 6): (1, 6, 6, 0),
        }
        digest = hashlib.sha256()
        for (n, d), expected in recorded.items():
            total = [0, 0, 0, 0]
            for ideal in enumerate_matroidal(n, d):
                _, stats = _minimal_covers(ideal.masks)
                counters = (stats.nodes, stats.leaves_kept, stats.leaves_rejected)
                total = [t + c for t, c in zip(total, (1,) + counters)]
                digest.update("{},{},{};".format(*counters).encode())
            assert tuple(total) == expected, (n, d)
        assert digest.hexdigest() == (
            "60c48575534fbd1eef6fed8a764a124212b93ed54387c95dfd972b865c5bf677")

    def test_stats_repeat_and_count_each_prime_once(self):
        ideals = [squarefree_veronese(7, 3), transversal(6, [{1, 2}, {3, 4}, {5, 6}]),
                  transversal(7, [{1, 2, 3}, {4, 5}, {6, 7}])]
        rng = random.Random(131)
        for _ in range(30):
            n = rng.randint(3, 8)
            ideals.append(MonomialIdeal.from_supports(
                n, random_hypergraph(rng, n)))
        for ideal in ideals:
            dec = associated_primes(ideal)
            assert dec.stats == associated_primes(ideal).stats
            assert isinstance(dec.stats, CoverStats)
            # a cover reached twice would count twice here
            assert dec.stats.leaves_kept == len(dec.ass)
            assert dec.stats.nodes >= dec.stats.leaves_kept + dec.stats.leaves_rejected

    def test_stats_only_for_squarefree_and_outside_equality(self):
        dec = associated_primes(make_ideal(3, [(2, 1, 0), (2, 0, 1)]))
        assert dec.stats is None
        dec = associated_primes(squarefree_veronese(5, 2))
        assert dec.stats.leaves_kept == 5
        assert dec == dataclasses.replace(dec, stats=CoverStats())

    def test_veronese_12_6(self):
        dec = associated_primes(squarefree_veronese(12, 6))
        assert dec.ass == frozenset(frozenset(c) for c in
                                    itertools.combinations(range(1, 13), 7))
        assert len(dec.ass) == 792 and dec.is_unmixed

    def test_criteria_on_veronese_11_5_is_fast(self):
        start = time.perf_counter()
        report = criteria_check(squarefree_veronese(11, 5))
        elapsed = time.perf_counter() - start
        assert report.is_unmixed and report.t2_condition
        assert report.ass_count == 330
        assert elapsed < 5.0, f"criteria_check(V(11,5)) took {elapsed:.2f} s"


class TestPartition:
    def test_two_block_example(self, two_blocks_n4):
        part = partition_degree2(two_blocks_n4)
        assert set(part.blocks) == {frozenset({1, 2}), frozenset({3, 4})}
        assert part.m == 2

    def test_veronese_blocks_are_singletons(self):
        part = partition_degree2(squarefree_veronese(3, 2))
        assert set(part.blocks) == {frozenset({1}), frozenset({2}), frozenset({3})}
        assert part.m == 3

    def test_unbalanced_blocks(self, two_blocks_n5):
        part = partition_degree2(two_blocks_n5)
        assert set(part.blocks) == {frozenset({1, 2}), frozenset({3, 4, 5})}

    def test_block_membership_characterizes_ideal(self):
        # xy in I iff x and y land in different blocks, all pairs, all ideals
        for n in range(2, 6):
            for ideal in enumerate_matroidal(n, 2):
                part = partition_degree2(ideal)
                for x, y in itertools.combinations(range(1, n + 1), 2):
                    pair = Monomial.from_support(n, {x, y})
                    same = part.block_of(x) == part.block_of(y)
                    assert ideal.contains(pair) == (not same)

    def test_partition_is_partition(self):
        for ideal in enumerate_matroidal(5, 2):
            part = partition_degree2(ideal)
            assert part.m >= 2
            union = set()
            for block in part.blocks:
                assert block and not (union & block)
                union |= block
            assert union == set(range(1, 6))

    def test_preconditions(self, squared_pivot_n3):
        with pytest.raises(DomainError):
            partition_degree2(squared_pivot_n3)  # degree 3
        with pytest.raises(DomainError):
            partition_degree2(make_ideal(4, [(1, 1, 0, 0), (0, 0, 1, 1)]))
        with pytest.raises(DomainError):
            partition_degree2(make_ideal(3, [(1, 1, 0)]))  # not full support

    def test_partition_type_validation(self):
        with pytest.raises(StructuralError):
            Partition(3, (frozenset({1, 2}), frozenset({2, 3})))
        with pytest.raises(StructuralError):
            Partition(3, (frozenset({1, 2}),))


class TestCriteria:
    def test_n4_report(self, two_blocks_n4):
        report = criteria_check(two_blocks_n4)
        assert report.n == 4 and report.degree == 2
        assert report.height == 2 and report.is_unmixed
        assert report.block_count == 2
        assert report.c1_identity is True
        assert report.ass_count == 2
        assert report.t2_condition is True
        assert len(report.colon_facts) == 4
        assert all(h == 2 and unmixed for _, h, unmixed in report.colon_facts)

    def test_n5_report(self, two_blocks_n5):
        report = criteria_check(two_blocks_n5)
        assert not report.is_unmixed
        assert report.c1_identity is False  # 2*(5-2) = 6 != 5
        # every colon is unmixed but the heights split, so T2 fails
        assert all(unmixed for _, _, unmixed in report.colon_facts)
        assert {h for _, h, unmixed in report.colon_facts} == {2, 3}
        assert report.t2_condition is False

    def test_colon_heights_n5(self, two_blocks_n5):
        facts = {i: h for i, h, _ in criteria_check(two_blocks_n5).colon_facts}
        # colon by x1 leaves the big block, colon by x3 the small one
        assert facts[1] == 3 and facts[2] == 3
        assert facts[3] == 2 and facts[4] == 2 and facts[5] == 2

    def test_veronese_n5(self):
        report = criteria_check(squarefree_veronese(5, 2))
        assert report.height == 4
        assert report.block_count == 5
        assert report.ass_count == 5
        assert report.c1_identity is True  # 5*(5-4) = 5
        assert report.is_unmixed

    def test_degree3_skips_partition_fields(self):
        report = criteria_check(squarefree_veronese(4, 3))
        assert report.degree == 3
        assert report.block_count is None and report.c1_identity is None
        assert report.t2_condition == report.is_unmixed

    def test_preconditions(self, squared_pivot_n3):
        with pytest.raises(DomainError):
            criteria_check(squared_pivot_n3)  # not squarefree
        with pytest.raises(DomainError):
            criteria_check(MonomialIdeal.maximal(3))  # d = 1


class TestClassification:
    def test_squared_maximal_branch(self):
        assert p1_classify(veronese(3, 2)) == POWER_OF_M
        assert p1_classify(veronese(1, 2)) == POWER_OF_M

    def test_matroidal_branch(self):
        assert p1_classify(make_ideal(3, [(1, 1, 0), (1, 0, 1)])) == MATROIDAL
        assert p1_classify(squarefree_veronese(4, 2)) == MATROIDAL

    def test_preconditions(self):
        with pytest.raises(DomainError):
            p1_classify(make_ideal(2, [(2, 0)]))  # not full support
        with pytest.raises(DomainError):
            p1_classify(make_ideal(2, [(1, 0)]))  # degree 1
        with pytest.raises(DomainError):
            p1_classify(make_ideal(4, [(1, 1, 0, 0), (0, 0, 1, 1)]))
        # embedded prime breaks Ass = Min
        with pytest.raises(DomainError):
            p1_classify(make_ideal(2, [(2, 0), (1, 1)]))
