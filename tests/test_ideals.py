"""Monomial and ideal arithmetic, with brute-force membership oracles."""

import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidalkit import (BudgetExceeded, DomainError, Monomial, MonomialIdeal, Polynomial,
                          StructuralError, associated_primes, is_matroidal, is_polymatroidal,
                          make_ideal, pd_depth, squarefree_monomials, squarefree_veronese,
                          transversal, veronese)
from matroidalkit import ideals as ideals_module
from matroidalkit.ideals import _minimalize
from matroidalkit.matroids import enumerate_matroidal

import ideals_oracle


def mono(*exps):
    return Monomial(tuple(exps))


class TestMonomial:
    def test_basic_accessors(self):
        u = mono(1, 0, 2)
        assert u.n == 3
        assert u.degree == 3
        assert u.support == frozenset({1, 3})
        assert u.degree_in(3) == 2
        assert not u.is_squarefree
        assert mono(1, 1, 0).is_squarefree

    def test_unit(self):
        one = Monomial.one(4)
        assert one.degree == 0
        assert one.is_one
        assert one.support == frozenset()
        assert str(one) == "1"

    def test_variable_index_must_lie_in_range(self):
        for bad in (0, 4, -1, 1.5, 2.5):
            with pytest.raises(StructuralError):
                Monomial.variable(3, bad)
        assert Monomial.variable(3, 2.0) == Monomial.variable(3, 2) == mono(0, 1, 0)
        assert Monomial.variable(3, True) == mono(1, 0, 0)

    def test_bitmask_must_be_an_int_in_range(self):
        for bad in (3.0, 1.5, -1, 8, "3", None):
            with pytest.raises(StructuralError):
                Monomial.from_bitmask(3, bad)
        assert Monomial.from_bitmask(3, True) == mono(1, 0, 0)

    @pytest.mark.parametrize("bad", [2.0, True, -1, 1.5, "2", None], ids=repr)
    @pytest.mark.parametrize("build", [
        Monomial.one,
        lambda n: Monomial.variable(n, 1),
        lambda n: Monomial.from_support(n, {1}),
        lambda n: Monomial.from_bitmask(n, 0),
        lambda n: Monomial.from_bitmask(n, 1),
        MonomialIdeal.maximal,
        lambda n: MonomialIdeal.from_supports(n, [{1}]),
        MonomialIdeal.unit,
        lambda n: squarefree_monomials(n, 1),
        lambda n: squarefree_veronese(n, 1),
        lambda n: veronese(n, 1),
    ], ids=["one", "variable", "from_support", "from_bitmask_0", "from_bitmask_1",
            "maximal", "from_supports", "unit", "squarefree_monomials",
            "squarefree_veronese", "veronese"])
    def test_variable_count_must_be_a_plain_int(self, build, bad):
        with pytest.raises(StructuralError, match=re.escape(f"n={bad!r}")):
            build(bad)

    def test_variable_count_may_be_zero_for_monomials(self):
        assert Monomial.one(0) == Monomial.from_bitmask(0, 0) == Monomial.from_support(0, ())
        assert Monomial.one(0).n == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(StructuralError):
            Monomial((1, -1))

    def test_bitmask_round_trip(self):
        # squarefree monomials admit a subset-of-[n] view; the exponent
        # vector stays canonical and the two must agree
        for bits in range(1 << 4):
            u = Monomial.from_bitmask(4, bits)
            assert u.is_squarefree
            assert u.bitmask() == bits
            assert u.support == frozenset(i + 1 for i in range(4) if bits >> i & 1)
        assert Monomial.from_support(4, {2, 4}) == mono(0, 1, 0, 1)

    def test_public_constructor_keeps_its_checks(self):
        with pytest.raises(StructuralError):
            Monomial((-1, 0))
        with pytest.raises(ValueError):
            Monomial(("a",))
        assert Monomial((True, 2.0)).exponents == (1, 2)

    @pytest.mark.parametrize("bad", [1.5, 0.9, -0.5, Fraction(1, 2), float("inf"),
                                     float("-inf"), float("nan")], ids=str)
    def test_non_integral_exponents_are_refused(self, bad):
        # int() alone would truncate each of these to a wrong exponent, or raise its own error
        with pytest.raises(StructuralError):
            Monomial((bad, 0))
        with pytest.raises(StructuralError):
            make_ideal(2, [(bad, 1)])
        with pytest.raises(StructuralError):
            Polynomial(2, {(bad, 0): 1})
        assert Monomial((Fraction(2, 1), 1.0)).exponents == (2, 1)
        assert Polynomial(2, {(1.0, True): 1}).terms == {(1, 1): 1}

    def test_derived_monomials_equal_public_ones(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 6)
            u = Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
            v = Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
            derived = [u * v, u.gcd(v), u.lcm(v), (u * v) / v,
                       Monomial.from_bitmask(n, rng.randrange(1 << n))]
            for m in derived:
                public = Monomial(m.exponents)
                assert m == public and hash(m) == hash(public)
                assert type(m.exponents) is tuple
                assert all(type(e) is int and e >= 0 for e in m.exponents)

    def test_bitmask_is_computed_once(self, monkeypatch):
        u = mono(1, 0, 1, 1)
        assert u.bitmask() == 0b1101
        monkeypatch.setattr("matroidalkit.ideals.support_to_mask", None)
        assert u.bitmask() == 0b1101
        assert u == mono(1, 0, 1, 1) and hash(u) == hash(mono(1, 0, 1, 1))
        assert repr(u) == "Monomial(exponents=(1, 0, 1, 1))"
        squared = mono(2, 0)
        for _ in range(2):
            with pytest.raises(StructuralError):
                squared.bitmask()

    def test_divides_lcm_gcd(self):
        u, v = mono(1, 2, 0), mono(0, 1, 1)
        assert not u.divides(v)
        assert mono(0, 1, 0).divides(u)
        assert u.lcm(v) == mono(1, 2, 1)
        assert u.gcd(v) == mono(0, 1, 0)
        assert u * v == mono(1, 3, 1)

    # zip used to truncate: (x1) * x1*x3 in 2 and 3 variables gave x1^2
    def test_mul_refuses_length_mismatch(self):
        with pytest.raises(StructuralError, match="lengths 2 and 3"):
            mono(1, 0) * mono(1, 0, 1)

    def test_truediv_refuses_length_mismatch(self):
        with pytest.raises(StructuralError, match="lengths 2 and 3"):
            mono(1, 0, 1) / mono(1, 0)

    def test_divides_refuses_length_mismatch(self):
        with pytest.raises(StructuralError, match="lengths 2 and 3"):
            mono(1, 0).divides(mono(1, 0, 1))

    def test_lcm_refuses_length_mismatch(self):
        with pytest.raises(StructuralError, match="lengths 3 and 2"):
            mono(1, 0, 1).lcm(mono(1, 0))

    def test_gcd_refuses_length_mismatch(self):
        with pytest.raises(StructuralError, match="lengths 2 and 3"):
            mono(1, 0).gcd(mono(1, 0, 1))

    def test_exact_division(self):
        assert mono(1, 2, 1) / mono(0, 1, 1) == mono(1, 1, 0)
        with pytest.raises(StructuralError):
            mono(1, 0) / mono(0, 1)

    def test_str(self):
        assert str(mono(1, 0, 2)) == "x1*x3^2"
        assert str(mono(0, 1)) == "x2"

    def test_squarefree_listing(self):
        for n in range(1, 7):
            for d in range(0, n + 1):
                layer = squarefree_monomials(n, d)
                assert len(layer) == math.comb(n, d)
                assert len(set(layer)) == len(layer)
                assert all(m.is_squarefree and m.degree == d for m in layer)

    def test_squarefree_listing_is_sorted_descending(self):
        layer = squarefree_monomials(4, 2)
        assert list(layer) == sorted(layer, key=lambda m: m.exponents, reverse=True)


class TestConstruction:
    def test_minimalization(self):
        ideal = make_ideal(3, [(1, 1, 0), (1, 1, 1)])
        assert ideal.gens == (mono(1, 1, 0),)

    def test_already_minimal(self, two_blocks_n4):
        assert two_blocks_n4.mu == 4
        assert make_ideal(4, two_blocks_n4.gens) == two_blocks_n4

    def test_zero_ideal(self):
        z = make_ideal(2, [])
        assert z.is_zero
        assert z.mu == 0
        assert z == MonomialIdeal.zero(2)
        assert str(z) == "(0)"

    def test_unit_ideal(self):
        u = make_ideal(3, [(0, 0, 0)])
        assert u.is_unit
        assert u == MonomialIdeal.unit(3)

    def test_duplicates_collapse(self):
        assert make_ideal(2, [(1, 0), (1, 0)]).mu == 1

    def test_gens_in_descending_lex_order(self):
        ideal = make_ideal(4, [(0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0)])
        exps = [g.exponents for g in ideal.gens]
        assert exps == sorted(exps, reverse=True)

    def test_direct_construction_rejects_non_minimal(self):
        with pytest.raises(StructuralError):
            MonomialIdeal(2, (mono(1, 1), mono(1, 0)))
        with pytest.raises(StructuralError):
            MonomialIdeal(2, (mono(0, 1), mono(1, 0)))  # wrong order

    def test_n_must_be_a_positive_int(self):
        for bad in (2.0, 0, -1, True, 1.5, "2", None):
            with pytest.raises(StructuralError):
                MonomialIdeal(bad, ())
        with pytest.raises(StructuralError):
            MonomialIdeal(2.0, (mono(1, 0),))
        assert MonomialIdeal(2, ()).n == 2

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            make_ideal(3, [(1, 0)])

    def test_minimalize_matches_pairwise_oracle(self):
        # mixed degrees, repeats and non-square-free exponents; order included
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(1, 6)
            pool = [mono(*(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)))
                    for _ in range(rng.randint(1, 12))]
            pool += rng.sample(pool, rng.randint(0, len(pool)))
            rng.shuffle(pool)
            expected = ideals_oracle.minimalize(pool)
            assert _minimalize(pool) == expected
            assert make_ideal(n, pool).gens == expected

    def test_structural_equality(self):
        a = make_ideal(3, [(1, 1, 0), (0, 1, 1)])
        b = make_ideal(3, [(0, 1, 1), (1, 1, 0), (1, 1, 1)])
        assert a == b and hash(a) == hash(b)


class TestMembership:
    def test_paper_example_probes(self, two_blocks_n4):
        assert two_blocks_n4.contains(mono(1, 1, 1, 0))
        assert not two_blocks_n4.contains(mono(1, 1, 0, 0))

    def test_unit_contains_everything(self):
        u = MonomialIdeal.unit(2)
        assert u.contains(Monomial.one(2))
        assert u.contains(mono(5, 0))

    def test_zero_contains_nothing(self):
        assert not MonomialIdeal.zero(2).contains(mono(1, 0))

    def test_exhaustive_squarefree_oracle(self):
        # contains(I, u) == "some generator divides u", all squarefree u
        for n in (3, 4):
            pool = squarefree_monomials(n, 2)
            for k in (1, 2, 3):
                ideal = make_ideal(n, pool[:k])
                for bits in range(1 << n):
                    u = Monomial.from_bitmask(n, bits)
                    assert ideal.contains(u) == any(
                        g.divides(u) for g in ideal.gens)

    def test_mask_route_matches_the_tuple_route(self):
        # a square-free ideal tests every monomial on its support mask,
        # square-free or not and however it was built; a non-square-free
        # ideal divides exponent tuples; both must agree with the scan
        ideals = census(5) + [MonomialIdeal.unit(4), MonomialIdeal.zero(4),
                              make_ideal(4, [(2, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1)])]
        for ideal in ideals:
            for bits in range(1 << ideal.n):
                u = Monomial.from_bitmask(ideal.n, bits)
                assert ideal.contains(u) == ideal.contains(Monomial(u.exponents)) == any(
                    g.divides(u) for g in ideal.gens), (ideal, bits)
            for u in monomials_of_every_origin(ideal.n):  # fresh: no view read yet
                assert ideal.contains(u) == any(g.divides(u) for g in ideal.gens), (ideal, u)


def monomials_of_every_origin(n):
    """Monomials in n variables from each way of building one, some not square-free."""
    rng = random.Random(n)
    masks = range(1 << n)
    variables = [Monomial.variable(n, i) for i in range(1, n + 1)]
    shaped = [Monomial(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(12)]
    out = [Monomial(tuple(m >> k & 1 for k in range(n))) for m in masks]
    out += [Monomial.from_support(n, {k + 1 for k in range(n) if m >> k & 1}) for m in masks]
    out += variables + shaped + [a * b for a in variables for b in variables]
    out.append(variables[0] * variables[0] * variables[-1])  # x1^2*xn
    for a, b in zip(shaped, shaped[1:]):
        out += [a * b, a.lcm(b), a.gcd(b), (a * b) / b]
    return out


class TestColon:
    def test_paper_values(self, two_blocks_n4, squared_pivot_n3):
        assert two_blocks_n4.colon(mono(1, 0, 0, 0)) == make_ideal(
            4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        assert two_blocks_n4.colon(Monomial.one(4)) == two_blocks_n4
        assert squared_pivot_n3.colon(mono(2, 0, 0)) == make_ideal(
            3, [(0, 1, 0), (0, 0, 1)])

    def test_zero_and_unit(self):
        assert MonomialIdeal.zero(2).colon(mono(1, 0)).is_zero
        assert MonomialIdeal.unit(2).colon(mono(1, 0)).is_unit

    def test_colon_by_member_is_unit(self, two_blocks_n4):
        assert two_blocks_n4.colon(mono(1, 0, 1, 0)).is_unit

    def test_contains_self(self, two_blocks_n4):
        c = two_blocks_n4.colon(mono(0, 1, 0, 0))
        assert all(c.contains(g) for g in two_blocks_n4.gens)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_colon_composition(self, data):
        # (I:u):v = (I:uv)
        n = data.draw(st.integers(2, 5), label="n")
        exps = st.tuples(*[st.integers(0, 2)] * n)
        raw = data.draw(st.lists(exps, min_size=1, max_size=5), label="gens")
        ideal = make_ideal(n, raw)
        u = Monomial(data.draw(exps, label="u"))
        v = Monomial(data.draw(exps, label="v"))
        assert ideal.colon(u).colon(v) == ideal.colon(u * v)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_colon_membership_oracle(self, data):
        # w in (I:u) iff w*u in I
        n = data.draw(st.integers(2, 4), label="n")
        exps = st.tuples(*[st.integers(0, 2)] * n)
        ideal = make_ideal(n, data.draw(st.lists(exps, min_size=1, max_size=4)))
        u = Monomial(data.draw(exps, label="u"))
        c = ideal.colon(u)
        for wexp in itertools.product(range(3), repeat=n):
            w = Monomial(wexp)
            assert c.contains(w) == ideal.contains(w * u)

    def test_lemma_style_colon_equality(self):
        # matroidal I with x*y dividing no generator forces (I:x) = (I:y)
        checked = 0
        for n in range(2, 7):
            top = n if n <= 5 else 3
            for d in range(1, top + 1):
                for ideal in enumerate_matroidal(n, d):
                    for x, y in itertools.combinations(range(1, n + 1), 2):
                        if any(g.degree_in(x) and g.degree_in(y)
                               for g in ideal.gens):
                            continue
                        checked += 1
                        assert ideal.colon(Monomial.variable(n, x)) == \
                            ideal.colon(Monomial.variable(n, y))
        assert checked > 2000


def census(max_n=6):
    """Every full-support matroidal ideal with n <= max_n."""
    return [ideal for n in range(1, max_n + 1) for d in range(1, n + 1)
            for ideal in enumerate_matroidal(n, d, True)]


def relabeled(ideal, perm):
    """The ideal with x_k renamed x_perm[k-1]."""
    return make_ideal(ideal.n, [tuple(g.exponents[perm.index(k)] for k in range(1, ideal.n + 1))
                                for g in ideal.gens])


def orbits(ideal):
    """The variable classes of ideals._swap_orbits and the generator orbits read off them."""
    classes = ideals_module._swap_orbits(ideal)
    return classes, ideals_module._class_roots([g.exponents for g in ideal.gens], classes)


class TestSwapOrbits:
    """ideals._swap_orbits and _class_roots against the brute-force oracle, which skips no pair."""

    def test_census(self):
        # the census holds every relabeling of each of its ideals
        for ideal in census():
            assert orbits(ideal) == ideals_oracle.swap_orbits(ideal), ideal

    def test_transversal_and_veronese_shapes(self, corpus_shapes):
        rng = random.Random(20)
        shapes, veronese_shapes = corpus_shapes
        for sizes in shapes:
            n = sum(sizes)
            ends = list(itertools.accumulate(sizes))
            blocks = [set(range(end - size + 1, end + 1)) for size, end in zip(sizes, ends)]
            ideal = transversal(n, blocks)
            variables, roots = orbits(ideal)
            # each block is one orbit, the one-variable blocks together form
            # one, and the generators form one orbit
            single = next((end - 1 for size, end in zip(sizes, ends) if size == 1), None)
            assert variables == tuple(single if size == 1 else end - size
                                      for size, end in zip(sizes, ends) for _ in range(size))
            assert set(roots) == {0}
            moved = relabeled(ideal, rng.sample(range(1, n + 1), n))
            assert orbits(moved) == ideals_oracle.swap_orbits(moved), sizes
        for n, d in veronese_shapes + [(5, 1), (5, 5)]:
            ideal = squarefree_veronese(n, d)
            assert orbits(ideal) == ((0,) * n, (0,) * ideal.mu)

    def test_random_mask_families(self):
        rng = random.Random(21)
        trivial = 0
        for _ in range(600):
            n = rng.randint(1, 8)
            ideal = MonomialIdeal.from_supports(
                n, [rng.sample(range(1, n + 1), rng.randint(1, n))
                    for _ in range(rng.randint(1, 8))])
            found = orbits(ideal)
            assert found == ideals_oracle.swap_orbits(ideal), ideal
            trivial += found[1] == tuple(range(ideal.mu))
        assert 100 < trivial < 600  # asymmetric families and symmetric ones

    def test_kept_in_the_memo_outside_the_fields(self):
        ideal = transversal(5, [{1, 2}, {3, 4, 5}])
        before = (hash(ideal), repr(ideal))
        first = ideals_module._swap_orbits(ideal)
        assert ideals_module._swap_orbits(ideal) is first
        assert first == (0, 0, 2, 2, 2)
        assert (hash(ideal), repr(ideal)) == before
        assert ideal == transversal(5, [{1, 2}, {3, 4, 5}])

    def test_ideals_that_are_not_square_free(self, squared_pivot_n3):
        # the squared pivot, block powers prod_i (x_b : b in B_i)^e_i and a
        # relabeling of each, and seeded mixed-degree families, half of them
        # closed under the permutations of a seeded block of variables
        rng = random.Random(22)
        ideals = [squared_pivot_n3]
        for sizes, powers in (((2, 3), (2, 1)), ((2, 5), (2, 1)), ((3, 2), (2, 3)),
                              ((1, 2, 2), (3, 1, 2))):
            ends = list(itertools.accumulate(sizes))
            blocks = [range(end - size + 1, end + 1) for size, end in zip(sizes, ends)]
            power = MonomialIdeal.unit(ends[-1])
            for block, e in zip(blocks, powers):
                for _ in range(e):
                    power = power * MonomialIdeal.from_supports(ends[-1], [{v} for v in block])
            ideals += [power, relabeled(power, rng.sample(range(1, ends[-1] + 1), ends[-1]))]
        for k in range(300):
            n = rng.randint(1, 7)
            ideal = make_ideal(n, [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                                   for _ in range(rng.randint(1, 6))])
            if k % 2:
                block = rng.sample(range(ideal.n), min(ideal.n, rng.randint(2, 4)))
                ideal = make_ideal(ideal.n, [
                    tuple(g.exponents[perm[block.index(v)]] if v in block else g.exponents[v]
                          for v in range(ideal.n))
                    for g in ideal.gens for perm in itertools.permutations(block)])
            ideals.append(ideal)
        assert sum(not ideal.is_squarefree for ideal in ideals) > 200
        symmetric = 0
        for ideal in ideals:
            found = orbits(ideal)
            assert found == ideals_oracle.swap_orbits(ideal), ideal
            symmetric += not ideal.is_squarefree and found[1] != tuple(range(ideal.mu))
        assert symmetric > 90
        # (x1, x2)^2 (x3, ..., x7): x1^2 x_c and x2^2 x_c form one orbit
        assert orbits(ideals[3]) == ((0, 0, 2, 2, 2, 2, 2), (0,) * 5 + (5,) * 5 + (0,) * 5)

    def test_class_roots_are_the_closure_under_in_class_swaps(self):
        # the root of a vector is the first vector it reaches by swapping
        # entries inside one class, whether or not the list is closed
        rng = random.Random(23)
        for _ in range(400):
            n = rng.randint(1, 7)
            classes = {}
            for v in range(n):
                classes.setdefault(rng.randrange(n), []).append(v)
            least = [0] * n
            for members in classes.values():
                for v in members:
                    least[v] = members[0]
            pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
                     if least[i] == least[j]]
            vectors = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                       for _ in range(rng.randint(1, 8))]
            vectors += [ideals_module._swapped(rng.choice(vectors), *rng.choice(pairs))
                        for _ in range(rng.randint(0, 4) if pairs else 0)]
            want = tuple(min(k for k, u in enumerate(vectors) if u in ideals_oracle._closure(
                v, lambda e: [ideals_module._swapped(e, i, j) for i, j in pairs]))
                for v in vectors)
            assert ideals_module._class_roots(vectors, tuple(least)) == want, (vectors, least)


def colon_probes(n):
    """Each variable, square-free products, and products with a square."""
    probes = [Monomial.variable(n, i) for i in range(1, n + 1)]
    probes += [Monomial.from_support(n, {i, i + 1}) for i in range(1, n)]
    probes.append(Monomial.from_support(n, range(1, n + 1)))
    probes += [Monomial(tuple(2 if k == i else int(k == i % n + 1) for k in range(1, n + 1)))
               for i in range(1, n + 1)]
    return probes


class TestMaskColon:
    """MonomialIdeal.colon on masks against the tuple route in ideals_oracle."""

    def test_census(self, monkeypatch):
        ideals = census()
        assert len(ideals) == 2356
        # the oracle holds its own make_ideal; the mask route never calls it
        monkeypatch.setattr(ideals_module, "make_ideal", None)
        for ideal in ideals:
            for u in colon_probes(ideal.n):
                assert ideal.colon(u) == ideals_oracle.colon(ideal, u), (ideal, u)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_squarefree_ideals_of_mixed_degree(self, data):
        n = data.draw(st.integers(1, 7), label="n")
        supports = st.frozensets(st.integers(1, n), min_size=0, max_size=n)
        ideal = MonomialIdeal.from_supports(n, data.draw(
            st.lists(supports, min_size=1, max_size=8), label="supports"))
        u = Monomial(data.draw(st.tuples(*[st.integers(0, 2)] * n), label="u"))
        got = ideal.colon(u)
        assert got == ideals_oracle.colon(ideal, u)
        assert got.masks is not None and got.masks == tuple(g.bitmask() for g in got.gens)

    def test_mixed_degree_results(self):
        ideal = MonomialIdeal.from_supports(5, [{1, 2}, {2, 3, 4}, {1, 4, 5}, {3, 5}])
        for u in colon_probes(5) + [Monomial.one(5)]:
            got = ideal.colon(u)
            assert got == ideals_oracle.colon(ideal, u)
        assert ideal.colon(Monomial.variable(5, 1)) == MonomialIdeal.from_supports(
            5, [{2}, {4, 5}, {3, 5}])

    def test_length_mismatch_is_refused_on_both_routes(self):
        for ideal in (MonomialIdeal.from_supports(3, [{1, 2}]), make_ideal(3, [(2, 1, 0)])):
            with pytest.raises(StructuralError, match="lengths 3 and 2"):
                ideal.colon(mono(1, 0))


class TestIntersectProduct:
    def test_simple_values(self):
        assert make_ideal(2, [(1, 0)]).intersect(make_ideal(2, [(0, 1)])) == \
            make_ideal(2, [(1, 1)])
        # (x1^2) meet (x2, x3) rebuilds the squared-pivot example
        assert make_ideal(3, [(2, 0, 0)]).intersect(
            make_ideal(3, [(0, 1, 0), (0, 0, 1)])) == \
            make_ideal(3, [(2, 1, 0), (2, 0, 1)])

    def test_idempotent_commutative(self, two_blocks_n4, path_n4):
        assert two_blocks_n4.intersect(two_blocks_n4) == two_blocks_n4
        assert two_blocks_n4.intersect(path_n4) == path_n4.intersect(two_blocks_n4)

    def test_product_values(self):
        left = make_ideal(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        right = make_ideal(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        assert left * right == make_ideal(
            4, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)])
        maximal = MonomialIdeal.maximal(3)
        assert (maximal * maximal).mu == 6

    def test_product_unit_identity(self, two_blocks_n4):
        assert two_blocks_n4 * MonomialIdeal.unit(4) == two_blocks_n4

    def test_zero_absorbs(self, two_blocks_n4):
        z = MonomialIdeal.zero(4)
        assert (two_blocks_n4 * z).is_zero
        assert two_blocks_n4.intersect(z).is_zero

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_intersection_membership_oracle(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        exps = st.tuples(*[st.integers(0, 1)] * n)
        a = make_ideal(n, data.draw(st.lists(exps, min_size=1, max_size=4)))
        b = make_ideal(n, data.draw(st.lists(exps, min_size=1, max_size=4)))
        both = a.intersect(b)
        for bits in range(1 << n):
            u = Monomial.from_bitmask(n, bits)
            assert both.contains(u) == (a.contains(u) and b.contains(u))

    def test_product_inside_intersection(self, two_blocks_n4, path_n4):
        prod = two_blocks_n4 * path_n4
        both = two_blocks_n4.intersect(path_n4)
        assert all(both.contains(g) for g in prod.gens)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_op_output_minimal(self, data):
        # no generator of any produced ideal divides another
        n = data.draw(st.integers(2, 4), label="n")
        exps = st.tuples(*[st.integers(0, 2)] * n)
        a = make_ideal(n, data.draw(st.lists(exps, min_size=1, max_size=4)))
        b = make_ideal(n, data.draw(st.lists(exps, min_size=1, max_size=4)))
        u = Monomial(data.draw(exps))
        for out in (a.colon(u), a.intersect(b), a * b, a.plus(b)):
            for g, h in itertools.permutations(out.gens, 2):
                assert not g.divides(h)


class TestSummaryAndViews:
    def test_paper_examples(self, two_blocks_n4, squared_pivot_n3):
        s = two_blocks_n4.summarize()
        assert (s.is_squarefree, s.is_single_degree, s.degree) == (True, True, 2)
        assert s.is_full_supported and s.mu == 4
        s = squared_pivot_n3.summarize()
        assert (s.is_squarefree, s.degree, s.is_full_supported, s.mu) == \
            (False, 3, True, 2)

    def test_zero_summary(self):
        s = MonomialIdeal.zero(3).summarize()
        assert not s.is_single_degree
        assert s.degree is None
        assert not s.is_full_supported

    def test_summary_allocates_nothing_per_variable(self):
        # a set of [n] here would take about 200 MiB at n = 2*10^6
        tracemalloc.start()
        try:
            s = MonomialIdeal.zero(2 * 10 ** 6).summarize()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not s.is_full_supported
        assert peak < 2 ** 20

    def test_support(self, two_blocks_n5):
        assert two_blocks_n5.support == frozenset({1, 2, 3, 4, 5})
        assert make_ideal(3, [(0, 2, 0)]).support == frozenset({2})

    def test_squarefree_members_by_degree(self, two_blocks_n4):
        assert len(two_blocks_n4.squarefree_members(2)) == 4
        assert len(two_blocks_n4.squarefree_members(3)) == 4
        assert two_blocks_n4.squarefree_members(4) == \
            (Monomial((1, 1, 1, 1)),)

    @pytest.mark.parametrize("bad", [-1, 2.0, True, 1.5, "2", None], ids=repr)
    def test_member_degree_must_be_a_plain_int(self, two_blocks_n4, bad):
        for listing in (two_blocks_n4.squarefree_members, lambda d: squarefree_monomials(4, d)):
            with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
                listing(bad)

    def test_squarefree_members_hold_the_member_budget(self, monkeypatch):
        # x_i * x12 * ... * x40 for i <= 11: degree 30 has C(40, 30) candidates
        ideal = MonomialIdeal.from_supports(40, [{i, *range(12, 41)} for i in range(1, 12)])
        start = time.monotonic()
        with pytest.raises(BudgetExceeded, match=r"^rank stage: the listing tests "
                                                 r"847660528 square-free candidates "
                                                 r"\(C\(40, 30\)\), over the limit "
                                                 r"MEMBER_BUDGET = 1048576$"):
            ideal.squarefree_members(30)
        assert time.monotonic() - start < 0.5
        # below the least generator degree nothing is listed, so nothing is refused
        assert ideal.squarefree_members(29) == ideal.squarefree_members(0) == ()
        assert len(ideal.squarefree_members(40)) == 1
        # V(6,3): C(6,3) = 20 candidates at degree 3, 15 at degree 4
        veronese6 = squarefree_veronese(6, 3)
        monkeypatch.setattr(ideals_module, "MEMBER_BUDGET", 15)
        assert len(veronese6.squarefree_members(4)) == 15
        with pytest.raises(BudgetExceeded, match="C\\(6, 3\\)"):
            veronese6.squarefree_members(3)
        assert veronese6.squarefree_members(2) == ()

    def test_squarefree_members_match_contains_scan(self, two_blocks_n4, path_n4):
        # every degree 0..n, on square-free and non-square-free ideals
        rng = random.Random(83)
        ideals = [two_blocks_n4, path_n4, MonomialIdeal.unit(3), MonomialIdeal.zero(3),
                  make_ideal(4, [(2, 0, 0, 0), (0, 1, 1, 0), (1, 1, 0, 3)])]
        for _ in range(60):
            n = rng.randint(1, 7)
            ideals.append(make_ideal(n, [
                tuple(rng.choice((0, 0, 1, 1, 2)) for _ in range(n))
                for _ in range(rng.randint(1, 6))]))
        assert any(not ideal.is_squarefree for ideal in ideals)
        for ideal in ideals:
            for degree in range(ideal.n + 1):
                assert ideal.squarefree_members(degree) == \
                    ideals_oracle.squarefree_members(ideal, degree)

    def test_display(self, two_blocks_n4):
        assert str(two_blocks_n4) == "(x1*x3, x1*x4, x2*x3, x2*x4)"


def member_route(ideal):
    """"table" or "scan": the route of the ideal's square-free member listing."""
    table = ideal._memo("_member_table", ideals_module._member_table)[2]
    return "scan" if table is None else "table"


def assert_members_match_oracle(ideal):
    for degree in range(ideal.n + 1):
        assert ideal.squarefree_members(degree) == \
            ideals_oracle.squarefree_members(ideal, degree), (ideal, degree)


def random_family(rng):
    """Mixed-degree generators on n <= 10 variables, square-free or not."""
    n = rng.randint(1, 10)
    top = rng.choice((1, 2))
    return make_ideal(n, [tuple(rng.choice((0, 0, 1, top)) for _ in range(n))
                          for _ in range(rng.randint(1, 8))])


def tail_transversal(n):
    """(x1, ..., x11) * x12 * ... * xn: 11 generators of degree n - 10."""
    return MonomialIdeal.from_supports(n, [{i, *range(12, n + 1)} for i in range(1, 12)])


class TestMemberTable:
    """The member listing against the contains scan of ideals_oracle, on both routes."""

    def test_census(self):
        census = [ideal for n in range(1, 7) for d in range(1, n + 1)
                  for ideal in enumerate_matroidal(n, d, True)]
        for ideal in census:
            assert_members_match_oracle(ideal)
        assert {member_route(ideal) for ideal in census} == {"table", "scan"}

    def test_corpus_shapes(self, corpus_shapes):
        transversals, veroneses = corpus_shapes
        shapes = [transversal(sum(sizes), [set(range(sum(sizes[:k]) + 1, sum(sizes[:k + 1]) + 1))
                                           for k in range(len(sizes))])
                  for sizes in transversals]
        shapes += [squarefree_veronese(n, d) for n, d in veroneses]
        for ideal in shapes:
            assert_members_match_oracle(ideal)
            assert member_route(ideal) == "table"

    def test_random_families_on_both_routes(self, monkeypatch):
        rng = random.Random(2021)
        families = [random_family(rng) for _ in range(500)]
        assert any(not ideal.is_squarefree for ideal in families)
        assert any(ideal.degree is None for ideal in families)
        for ideal in families:
            assert_members_match_oracle(ideal)
        routes = [member_route(ideal) for ideal in families]
        assert routes.count("table") > 100 and routes.count("scan") > 50
        monkeypatch.setattr(ideals_module, "MEMBER_TABLE_MAX_N", 0)
        for ideal in families:
            fresh = MonomialIdeal(ideal.n, ideal.gens)
            assert_members_match_oracle(fresh)
            assert member_route(fresh) == "scan"

    def test_size_rule(self):
        # the table is built iff n <= 24 and 2^n <= 4 * candidates * generators
        ideals = {"table": [transversal(10, [{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}]),
                            squarefree_veronese(16, 14), MonomialIdeal.unit(3),
                            tail_transversal(16)],
                  "scan": [squarefree_veronese(20, 19), squarefree_veronese(12, 11),
                           MonomialIdeal.zero(3), make_ideal(3, [(2, 0, 0)]),
                           tail_transversal(25)]}
        for route, group in ideals.items():
            for ideal in group:
                masks, least, table = ideals_module._member_table(ideal)
                n = ideal.n
                candidates = sum(math.comb(n, k) for k in range(least, n + 1))
                assert (n <= 24 and 2 ** n <= 4 * candidates * len(masks)) == (route == "table")
                assert member_route(ideal) == route, ideal
                if table is not None:
                    assert len(table) == max(1, 2 ** n // 8)

    def test_no_table_past_the_size_rule(self):
        # n = 25 passes the ratio, but 2^25 bits are over the limit: no table
        ideal = tail_transversal(25)
        tracemalloc.start()
        try:
            for degree in (24, 25):
                members = ideal._squarefree_member_masks(degree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert member_route(ideal) == "scan" and members == ((1 << 25) - 1,)
        assert peak < 2 ** 20
        # at n = 24 the table is 2 MiB and matches the scan
        ideal = tail_transversal(24)
        assert len(ideal._memo("_member_table", ideals_module._member_table)[2]) == 2 ** 21
        scanned = MonomialIdeal(24, ideal.gens)
        scanned.__dict__["_member_table"] = (ideal.masks, 14, None)
        for degree in (22, 23, 24):
            assert ideal._squarefree_member_masks(degree) == \
                scanned._squarefree_member_masks(degree)


def independent_masks(ideal):
    if any(e > 1 for g in ideal.gens for e in g.exponents):
        return None
    return tuple(sum(1 << i for i, e in enumerate(g.exponents) if e) for g in ideal.gens)


def independent_degree(ideal):
    degrees = {sum(g.exponents) for g in ideal.gens}
    return degrees.pop() if len(degrees) == 1 else None


class TestDerivedData:
    def test_views_match_an_independent_computation(self):
        rng = random.Random(211)
        ideals = [MonomialIdeal.zero(3), MonomialIdeal.unit(3)]
        for _ in range(300):
            n = rng.randint(1, 7)
            top = rng.choice((1, 2))  # square-free, or not
            d = rng.randint(1, n)
            shapes = [tuple(rng.randint(0, top) for _ in range(n))  # mixed degrees
                      for _ in range(rng.randint(1, 6))]
            shapes += [tuple(e * top for e in m.exponents)  # one degree
                       for m in rng.sample(squarefree_monomials(n, d),
                                           rng.randint(1, math.comb(n, d)))]
            ideals.append(make_ideal(n, shapes[:rng.randint(1, len(shapes))]))
            ideals.append(make_ideal(n, shapes[-rng.randint(1, 3):]))
        kinds = {(ideal.masks is None, ideal.degree is None) for ideal in ideals}
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}
        for ideal in ideals:
            assert ideal.masks == independent_masks(ideal), ideal
            assert ideal.degree == independent_degree(ideal), ideal
            assert ideal.is_squarefree == (ideal.masks is not None)
            assert ideal.masks is ideal.masks  # computed once per instance
        assert MonomialIdeal.zero(3).masks == () and MonomialIdeal.unit(3).masks == (0,)
        assert MonomialIdeal.unit(3).degree == 0

    def test_memo_stays_outside_the_fields(self):
        linear = transversal(4, [{1, 2}, {3, 4}])
        fallback = MonomialIdeal.from_supports(4, [{1, 2}, {3, 4}])
        for ideal in (linear, fallback):
            before = (hash(ideal), repr(ideal))
            twin = make_ideal(ideal.n, [g.exponents for g in ideal.gens])
            ideal.masks, is_polymatroidal(ideal), pd_depth(ideal), pd_depth(ideal, 2)
            assert len(vars(ideal)) > len(vars(twin))  # the memo is filled
            assert [f.name for f in dataclasses.fields(MonomialIdeal)] == ["n", "gens"]
            assert (hash(ideal), repr(ideal)) == before
            assert ideal == twin and hash(ideal) == hash(twin)
            assert dataclasses.astuple(ideal) == dataclasses.astuple(twin)
            # a profile's read-only Betti table cannot be pickled, so copies
            # and pickles carry the fields alone
            for copied in (pickle.loads(pickle.dumps(ideal)), copy.deepcopy(ideal)):
                assert copied == ideal and vars(copied).keys() == vars(twin).keys()

    def test_filled_monomial_views_stay_outside_the_fields(self):
        for u in (mono(1, 0, 2), mono(0, 1, 1, 0), Monomial.from_bitmask(4, 0b1011),
                  Monomial.one(3), mono(2, 0) * mono(0, 3)):
            fresh = Monomial(u.exponents)
            u.n, u.degree, u.support, u.is_squarefree, u.is_one, u._mask
            if u.is_squarefree:
                u.bitmask()
            assert {"degree", "support", "is_squarefree", "_mask"} <= vars(u).keys()
            assert vars(fresh) == {"exponents": u.exponents}
            assert u == fresh and hash(u) == hash(fresh) and repr(u) == repr(fresh)
            for copied in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u), copy.copy(u)):
                assert copied == u and vars(copied) == vars(fresh)
        assert [f.name for f in dataclasses.fields(Monomial)] == ["exponents"]

    def test_squarefree_scan_runs_once_per_generator(self, monkeypatch):
        calls = []
        scan = Monomial.is_squarefree.func

        def counting(monomial):
            calls.append(monomial)
            return scan(monomial)
        # fresh generators, none of which has scanned its exponents yet
        ideals = [transversal(6, [{1, 2}, {3, 4}, {5, 6}]),
                  MonomialIdeal.from_supports(5, [{1, 2}, {2, 3}, {4, 5}, {1, 3, 5}]),
                  make_ideal(3, [(1, 1, 0), (0, 2, 1)])]
        counted = functools.cached_property(counting)
        counted.__set_name__(Monomial, "is_squarefree")
        monkeypatch.setattr(Monomial, "is_squarefree", counted)
        mask_calls = []
        generator_masks = ideals_module._generator_masks

        def counting_masks(ideal):
            mask_calls.append(ideal)
            return generator_masks(ideal)
        # every ideal, derived ones included, works out its masks at most once
        monkeypatch.setattr(ideals_module, "_generator_masks", counting_masks)
        for ideal in ideals:
            calls.clear()
            mask_calls.clear()
            is_matroidal(ideal)
            if ideal.is_squarefree:
                pd_depth(ideal)
            associated_primes(ideal)
            ideal.summarize()
            assert len(calls) == len(set(map(id, calls))) <= ideal.mu
            if ideal.is_squarefree:
                assert len(calls) == ideal.mu
            assert len(mask_calls) == len(set(map(id, mask_calls)))
            assert sum(m is ideal for m in mask_calls) == 1
