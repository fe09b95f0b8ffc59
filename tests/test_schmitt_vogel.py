"""Layered witness construction and arithmetical rank bounds."""

import itertools
import random
import re

import pytest

from matroidalkit import (BudgetExceeded, DomainError, Monomial, MonomialIdeal, Polynomial,
                          StructuralError, SVWitness, TheoremViolationError, ara_report,
                          build_sv_witness, groebner, homology, ideals, make_ideal,
                          squarefree_monomials, squarefree_veronese, transversal,
                          verify_sv_conditions)
from matroidalkit.cli import _witness_payload
from matroidalkit.matroids import enumerate_matroidal
from matroidalkit.schmitt_vogel import (CONDITION_PRODUCTS, CONDITION_SINGLETON,
                                        CONDITION_UNION)

import ideals_oracle
import schmitt_vogel_oracle


class TestWitnessConstruction:
    def test_veronese_layers(self):
        witness = build_sv_witness(squarefree_veronese(3, 2))
        assert witness.d == 2 and witness.r == 1
        assert [sorted(str(m) for m in layer) for layer in witness.layers] == [
            ["x1*x2*x3"],
            ["x1*x2", "x1*x3", "x2*x3"],
        ]
        assert [str(q) for q in witness.q] == \
            ["x1*x2*x3", "x1*x2 + x1*x3 + x2*x3"]
        assert witness.ara_upper == 2

    def test_two_block_layers(self, two_blocks_n4):
        witness = build_sv_witness(two_blocks_n4)
        assert witness.r == 2
        assert [len(layer) for layer in witness.layers] == [1, 4, 4]
        assert witness.layers[0] == (Monomial((1, 1, 1, 1)),)
        # bottom layer is exactly the generating set
        assert set(witness.layers[2]) == set(two_blocks_n4.gens)
        assert (witness.ara_lower, witness.ara_upper) == (3, 3)
        assert witness.ara_exact

    def test_layer_elements_are_members(self, two_blocks_n5):
        witness = build_sv_witness(two_blocks_n5)
        for layer in witness.layers:
            for m in layer:
                assert two_blocks_n5.contains(m)

    def test_union_is_all_squarefree_members(self, two_blocks_n4):
        witness = build_sv_witness(two_blocks_n4)
        union = set(itertools.chain.from_iterable(witness.layers))
        members = set()
        for bits in range(1 << 4):
            u = Monomial.from_bitmask(4, bits)
            if two_blocks_n4.contains(u):
                members.add(u)
        assert union == members

    def test_bottom_layer_counts_generators(self):
        for n in (3, 4, 5):
            for d in (2, 3):
                if d > n:
                    continue
                for ideal in enumerate_matroidal(n, d):
                    witness = build_sv_witness(ideal)
                    assert witness.layers[-1] == ideal.gens
                    assert len(witness.layers[-1]) == ideal.mu
                    assert witness.ara_upper == n - d + 1

    def test_member_layering_matches_divisor_route(self, path_n4):
        # squarefree members by degree == monomials some generator divides
        for deg in range(2, 5):
            by_degree = set(path_n4.squarefree_members(deg))
            brute = {m for m in squarefree_monomials(4, deg)
                     if any(g.divides(m) for g in path_n4.gens)}
            assert by_degree == brute

    def test_preconditions(self, squared_pivot_n3):
        with pytest.raises(DomainError):
            build_sv_witness(squared_pivot_n3)  # not squarefree
        with pytest.raises(DomainError):
            build_sv_witness(make_ideal(3, [(1, 1, 0)]))  # support gap
        with pytest.raises(DomainError):
            build_sv_witness(MonomialIdeal.maximal(3))  # d=1 has its own path
        with pytest.raises(DomainError):
            build_sv_witness(MonomialIdeal.zero(3))


class TestLimitsComeFirst:
    """pd_depth and the member budget run before any layer is listed."""

    def test_pd_limit_wins_over_a_failed_layer_check(self, monkeypatch):
        monkeypatch.setattr(MonomialIdeal, "_squarefree_member_masks", lambda self, degree: ())
        with pytest.raises(TheoremViolationError, match="empty layer at degree 6"):
            build_sv_witness(complete_bipartite(3))
        monkeypatch.setattr(homology, "LINEAR_QUOTIENT_BUDGET", 1)
        with pytest.raises(BudgetExceeded) as info:
            build_sv_witness(complete_bipartite(3))
        assert info.value.limit == "LINEAR_QUOTIENT_BUDGET"

    def test_member_budget_wins_over_a_failed_layer_check(self, monkeypatch):
        monkeypatch.setattr(MonomialIdeal, "_squarefree_member_masks", lambda self, degree: ())
        monkeypatch.setattr(ideals, "MEMBER_BUDGET", 56)
        with pytest.raises(BudgetExceeded) as info:
            build_sv_witness(complete_bipartite(3))
        assert (info.value.stage, info.value.limit) == ("rank", "MEMBER_BUDGET")

    def test_member_budget_is_exact(self, monkeypatch):
        # K_{3,3}: C(6,2) + C(6,3) + ... + C(6,6) = 57 candidates, for the
        # witness and for the condition check alike
        ideal = complete_bipartite(3)
        monkeypatch.setattr(ideals, "MEMBER_BUDGET", 57)
        witness = build_sv_witness(ideal)
        assert witness.r == 4 and verify_sv_conditions(witness.layers, ideal)
        monkeypatch.setattr(ideals, "MEMBER_BUDGET", 56)
        for refused in (lambda: build_sv_witness(ideal),
                        lambda: verify_sv_conditions(witness.layers, ideal)):
            with pytest.raises(BudgetExceeded, match=r"^rank stage: the layers test 57 "
                                                     r"square-free candidates \(sum of "
                                                     r"C\(6, k\) for k = 2\.\.6\), over "
                                                     r"the limit MEMBER_BUDGET = 56$"):
                refused()


class TestConditionChecks:
    def test_constructed_witnesses_always_pass(self):
        for n in (3, 4):
            for d in (2, 3):
                if d > n:
                    continue
                for ideal in enumerate_matroidal(n, d):
                    witness = build_sv_witness(ideal)
                    report = verify_sv_conditions(witness.layers, ideal)
                    assert report
                    assert report.violated is None

    def test_double_first_layer(self):
        ideal = squarefree_veronese(3, 2)
        witness = build_sv_witness(ideal)
        layers = ((Monomial((1, 1, 1)), Monomial((1, 1, 0))),
                  tuple(m for m in witness.layers[1] if m != Monomial((1, 1, 0))))
        report = verify_sv_conditions(layers, ideal)
        assert not report
        assert report.violated == CONDITION_SINGLETON

    def test_stray_monomial(self):
        ideal = squarefree_veronese(3, 2)
        witness = build_sv_witness(ideal)
        layers = (witness.layers[0], witness.layers[1][:-1])
        report = verify_sv_conditions(layers, ideal)
        assert report.violated == CONDITION_UNION
        assert report.witness is not None

    def test_entry_that_is_not_a_monomial(self):
        ideal = squarefree_veronese(3, 2)
        top = build_sv_witness(ideal).layers[0]
        for layers, entry in (([[1]], "1"), ([top, [(1, 1, 0)]], "(1, 1, 0)")):
            with pytest.raises(StructuralError,
                               match=re.escape(f"layer entry {entry} is not a Monomial")):
                verify_sv_conditions(layers, ideal)
        # a Monomial in another number of variables is read, and fails (a)
        report = verify_sv_conditions([[Monomial((1, 1, 1, 1))]], ideal)
        assert report.violated == CONDITION_UNION

    def test_unabsorbed_pair_product(self, path_n4):
        # P_0 = {x1x2} cannot divide x2x3 * x3x4
        members = []
        for deg in (2, 3, 4):
            members.extend(path_n4.squarefree_members(deg))
        first = Monomial((1, 1, 0, 0))
        layers = ((first,), tuple(m for m in members if m != first))
        report = verify_sv_conditions(layers, path_n4)
        assert report.violated == CONDITION_PRODUCTS
        layer_index, p, q = report.witness
        assert layer_index == 1
        assert not first.divides(p.lcm(q) * p.gcd(q))


def layer_edits(layers, rng):
    """Three edits of a witness's layers, each as a list of layer tuples.

    Two elements swapped between layers, an element repeated in its layer,
    and an element moved to another layer.
    """
    layers = [list(layer) for layer in layers]
    i, j = sorted(rng.sample(range(len(layers)), 2))
    a, b = rng.randrange(len(layers[i])), rng.randrange(len(layers[j]))
    swapped = [list(layer) for layer in layers]
    swapped[i][a], swapped[j][b] = layers[j][b], layers[i][a]
    repeated = [list(layer) for layer in layers]
    repeated[j].insert(b, layers[j][b])
    moved = [list(layer) for layer in layers]
    moved[i].append(moved[j].pop(b))
    return [[tuple(layer) for layer in edit] for edit in (swapped, repeated, moved)]


class TestConditionsAgainstOracle:
    """verify_sv_conditions on masks against the Monomial-product loop."""

    def test_census_witnesses_and_their_edits(self):
        rng = random.Random(71)
        verdicts = set()
        for n in range(2, 7):
            for d in range(2, n + 1):
                for ideal in enumerate_matroidal(n, d, True):
                    layers = build_sv_witness(ideal).layers
                    edits = layer_edits(layers, rng) if len(layers) > 1 else []
                    for candidate in [layers] + edits:
                        report = verify_sv_conditions(candidate, ideal)
                        assert report == schmitt_vogel_oracle.verify_sv_conditions(
                            candidate, ideal), (ideal, candidate)
                        verdicts.add(report.violated)
        assert verdicts == {None, CONDITION_SINGLETON, CONDITION_PRODUCTS}

    def test_edits_of_a_non_matroidal_witness(self, path_n4):
        # x1x2 alone on top fails (c); the edits reach (a) as well
        first = Monomial((1, 1, 0, 0))
        members = [m for deg in (2, 3, 4) for m in path_n4.squarefree_members(deg)]
        layers = [(first,), tuple(m for m in members if m != first)]
        rng = random.Random(73)
        for candidate in [layers, layers[:1], [layers[1], layers[0]]] + layer_edits(layers, rng):
            assert verify_sv_conditions(candidate, path_n4) == \
                schmitt_vogel_oracle.verify_sv_conditions(candidate, path_n4)
        stray = [layers[0], layers[1] + (Monomial((2, 0, 0, 0)),)]
        report = verify_sv_conditions(stray, path_n4)
        assert report.violated == CONDITION_UNION
        assert report == schmitt_vogel_oracle.verify_sv_conditions(stray, path_n4)


class TestAraReport:
    def test_two_block_example(self, two_blocks_n4):
        report = ara_report(two_blocks_n4)
        assert (report.lower, report.upper, report.exact) == (3, 3, True)
        assert report.witness is not None
        assert len(report.elements) == 3

    def test_degree_one_uses_variables(self):
        report = ara_report(MonomialIdeal.maximal(3))
        assert (report.degree, report.lower, report.upper) == (1, 3, 3)
        assert report.exact and report.witness is None
        assert [str(e) for e in report.elements] == ["x1", "x2", "x3"]

    def test_veronese_is_complete_intersection(self):
        from matroidalkit import associated_primes
        for n, d in [(3, 2), (4, 2), (4, 3), (5, 4)]:
            ideal = squarefree_veronese(n, d)
            report = ara_report(ideal)
            assert report.exact
            assert report.lower == n - d + 1
            assert report.lower == associated_primes(ideal).height

    def test_element_count_matches_upper(self):
        for ideal in enumerate_matroidal(4, 2):
            report = ara_report(ideal)
            assert len(report.elements) == report.upper == 3
            assert report.exact

    def test_non_matroidal_rejected(self):
        with pytest.raises(DomainError):
            ara_report(make_ideal(4, [(1, 1, 0, 0), (0, 0, 1, 1)]))

    def test_support_gap_rejected(self):
        with pytest.raises(DomainError):
            ara_report(make_ideal(3, [(1, 1, 0)]))


def tuple_route_text(ideal, witness):
    """Sums and layers as text by the tuple route: Monomials, sum_of and str."""
    layers = [ideals_oracle.squarefree_members(ideal, ideal.n - j)
              for j in range(witness.r + 1)]
    return ([str(Polynomial.sum_of(layer)) for layer in layers],
            [[str(m) for m in layer] for layer in layers], layers)


def complete_bipartite(a):
    return transversal(2 * a, [set(range(1, a + 1)), set(range(a + 1, 2 * a + 1))])


class TestMaskRendering:
    """SVWitness keeps masks; its text and views match the tuple route."""

    def assert_matches_tuple_route(self, ideal):
        witness = build_sv_witness(ideal)
        sums, layers, monomials = tuple_route_text(ideal, witness)
        assert witness.text() == (sums, layers)
        assert not {"layers", "q"} & vars(witness).keys()  # text() builds no view
        assert witness.layers == tuple(monomials)
        assert witness.q == tuple(Polynomial.sum_of(layer) for layer in monomials)

    def test_census(self):
        census = [ideal for n in range(2, 7) for d in range(2, n + 1)
                  for ideal in enumerate_matroidal(n, d, True)]
        assert len(census) == 2350
        for ideal in census:
            self.assert_matches_tuple_route(ideal)

    @pytest.mark.parametrize("a", range(2, 8))
    def test_complete_bipartite(self, a):
        self.assert_matches_tuple_route(complete_bipartite(a))

    def test_sum_order_is_ascending_masks(self):
        # descending degrevlex on square-free monomials of one degree
        witness = build_sv_witness(complete_bipartite(3))
        for layer, q in zip(witness.masks, witness.q):
            by_order = sorted(q.terms, key=groebner._order_key, reverse=True)
            assert [Monomial(ev).bitmask() for ev in by_order] == sorted(layer)

    def test_report_builds_elements_on_first_use(self):
        report = ara_report(complete_bipartite(2))
        assert "elements" not in vars(report) and "q" not in vars(report.witness)
        assert report.elements is report.witness.q is report.elements
        maximal = MonomialIdeal.maximal(4)
        assert ara_report(maximal).elements == tuple(
            Polynomial.from_monomial(g) for g in maximal.gens)

    def test_cli_payload_is_the_tuple_route(self):
        ideal = complete_bipartite(3)
        payload = _witness_payload(ara_report(ideal))
        sums, layers, _ = tuple_route_text(ideal, build_sv_witness(ideal))
        assert (payload["sums"], payload["layers"]) == (sums, layers)


def random_layers(n, rng):
    """Layers of distinct nonzero masks on n bits, with every slice edge in play."""
    full = (1 << n) - 1
    edges = {full, 1, 1 << n - 1} | {1 << k for k in (7, 8, 15, 16) if k < n}
    edges |= {full & ~0xFF, full & ~0xFF00, full & 0xFF00FF} - {0}
    layers = [sorted(edges, key=lambda m: rng.random())]
    for size in (1, 5, 40):
        layers.append(list({rng.randrange(1, full + 1) for _ in range(size)}))
    return tuple(tuple(layer) for layer in layers)


class TestTextTables:
    """text() names masks from per-slice tables; the bit loop is the oracle."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_the_bit_loop(self, n):
        masks = random_layers(n, random.Random(n))
        witness = SVWitness(n=n, d=1, r=len(masks) - 1, masks=masks,
                            ara_upper=len(masks), ara_lower=0, ara_exact=False)
        assert witness.text() == schmitt_vogel_oracle.text(witness)

    def test_slice_edges(self):
        masks = ((0x1FF, 0x100, 0x10080, 0x1FF00),)
        witness = SVWitness(n=17, d=1, r=0, masks=masks, ara_upper=1, ara_lower=0,
                            ara_exact=False)
        assert witness.text()[1] == [["x1*x2*x3*x4*x5*x6*x7*x8*x9", "x9", "x8*x17",
                                      "x9*x10*x11*x12*x13*x14*x15*x16*x17"]]
