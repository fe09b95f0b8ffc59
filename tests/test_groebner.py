"""The polynomial engine: Buchberger, normal forms, radical membership."""

import dataclasses
import functools
import random
import time
from fractions import Fraction

import pytest

from matroidalkit import (BuchbergerStats, CertifyStats, DomainError, Monomial,
                          PairBudgetExceeded, Polynomial, StructuralError,
                          ara_report, buchberger, certify_witness,
                          enumerate_matroidal, groebner, make_ideal, normal_form,
                          radical_membership, squarefree_veronese, transversal)
from matroidalkit.groebner import _order_key
from matroidalkit.schmitt_vogel import build_sv_witness

import gebauer_moeller_oracle
import groebner_oracle as oracle
import ideals_oracle


def poly(nvars, terms, field=None):
    return Polynomial(nvars, terms, field)


def random_poly(rng, nvars, field=None):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        ev = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[ev] = rng.randint(-3, 3)
    return Polynomial(nvars, terms, field)


def s_polynomial(f, g):
    """S-polynomial of two polynomials over Q, from the public API alone."""
    (fev, fc), (gev, gc) = f.leading(), g.leading()
    lcm = tuple(map(max, fev, gev))
    return (f * poly(f.nvars, {tuple(a - b for a, b in zip(lcm, fev)): 1 / fc})
            - g * poly(g.nvars, {tuple(a - b for a, b in zip(lcm, gev)): 1 / gc}))


class TestPolynomialArithmetic:
    def test_normalization(self):
        p = poly(2, {(1, 0): 1, (0, 1): 0})
        assert list(p.terms) == [(1, 0)]
        assert poly(2, {}).is_zero

    def test_add_mul(self):
        x, y = poly(2, {(1, 0): 1}), poly(2, {(0, 1): 1})
        assert (x + y) * (x - y) == x * x - y * y
        assert (x + y) * (x + y) == x * x + poly(2, {(1, 1): 2}) + y * y

    def test_gf2_squaring(self):
        xp1 = poly(1, {(1,): 1, (0,): 1}, field=2)
        assert xp1 * xp1 == poly(1, {(2,): 1, (0,): 1}, field=2)

    def test_field_conversion(self):
        p = poly(2, {(1, 0): Fraction(1, 2)})
        q = p.in_field(32003)
        assert q.terms[(1, 0)] == pow(2, -1, 32003)
        with pytest.raises(StructuralError):
            q.in_field(None)
        # the constructor maps a rational a/b to a * b^-1 mod p, as in_field does
        assert poly(2, {(1, 0): Fraction(1, 2)}, 32003) == q
        assert poly(1, {(1,): Fraction(5, 2)}, 7).terms == {(1,): 6}
        with pytest.raises(DomainError):
            poly(1, {(1,): Fraction(1, 7)}, 7)

    @pytest.mark.parametrize("field", [None, 7, 2])
    def test_non_integral_floats_refused(self, field):
        # a float's binary value is not its decimal: 0.1 would be 3 in GF(7)
        for c in (2.5, 0.1, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                poly(1, {(1,): c}, field)
        assert poly(1, {(1,): 3.0}, field) == poly(1, {(1,): 3}, field)

    def test_rejects_bad_terms(self):
        with pytest.raises(StructuralError):
            poly(2, {(1,): 1})
        with pytest.raises(StructuralError):
            poly(2, {(-1, 0): 1})

    def test_display_order(self):
        p = poly(3, {(1, 1, 0): 1, (0, 0, 1): -1, (2, 0, 0): 1})
        assert str(p) == "x1^2 + x1*x2 - x3"


class TestBuchberger:
    def test_monomial_ideal_is_its_own_basis(self):
        basis = buchberger([poly(2, {(1, 0): 3}), poly(2, {(0, 1): 5})])
        assert [g.terms for g in basis.generators] == \
            [{(1, 0): 1}, {(0, 1): 1}]

    def test_zero_input(self):
        assert buchberger([poly(2, {})]).generators == ()

    def test_mixed_fields_rejected(self):
        with pytest.raises(StructuralError):
            buchberger([poly(1, {(1,): 1}), poly(1, {(1,): 1}, field=2)])

    def test_unit_short_circuit(self):
        basis = buchberger([poly(2, {(0, 0): 2})])
        assert basis.is_trivial
        assert [g.terms for g in basis.generators] == [{(0, 0): 1}]

    @pytest.mark.parametrize("field", [None, 32003])
    def test_is_trivial_builds_no_polynomial(self, field, monkeypatch):
        x1, x2 = poly(2, {(1, 0): 1}, field), poly(2, {(0, 1): 1}, field)
        x1_plus_1 = poly(2, {(1, 0): 1, (0, 0): 1}, field)
        systems = [[], [x1], [x1, x2], [x1_plus_1], [poly(2, {(0, 0): 7}, field)],
                   [x1_plus_1, x1]]
        bases = [buchberger(gens) for gens in systems]

        def refuse(field):
            raise AssertionError("is_trivial checked the field")
        monkeypatch.setattr(groebner, "require_field", refuse)
        assert [basis.is_trivial for basis in bases] == [False] * 4 + [True] * 2

    def test_witness_pair_example(self):
        # q1 = x1x2 + x1x3 + x2x3, q0 = x1x2x3; (x1x2)^2 lies in (q0, q1)
        q1 = poly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
        q0 = poly(3, {(1, 1, 1): 1})
        basis = buchberger([q1, q0])
        square = poly(3, {(2, 2, 0): 1})
        assert normal_form(square, basis).is_zero
        # and the membership identity behind it checks out directly
        x1x2 = poly(3, {(1, 1, 0): 1})
        x1_plus_x2 = poly(3, {(1, 0, 0): 1, (0, 1, 0): 1})
        assert square == x1x2 * q1 - x1_plus_x2 * q0

    def test_classic_two_polynomial_run(self):
        # x1^2 - x2, x1x2 - x1: basis must expose x2^2 - x2
        f = poly(2, {(2, 0): 1, (0, 1): -1})
        g = poly(2, {(1, 1): 1, (1, 0): -1})
        basis = buchberger([f, g])
        probe = poly(2, {(0, 2): 1, (0, 1): -1})
        assert normal_form(probe, basis).is_zero
        assert not normal_form(poly(2, {(0, 1): 1}), basis).is_zero

    def test_reduced_basis_shape(self):
        rng = random.Random(11)
        for trial in range(10):
            gens = [random_poly(rng, 3) for _ in range(3)]
            basis = buchberger(gens)
            leads = [g.leading()[0] for g in basis.generators]
            for k, g in enumerate(basis.generators):
                # monic
                assert g.leading()[1] == 1
                # no leading term divides another's
                for j, other_lead in enumerate(leads):
                    if j != k:
                        assert not all(a <= b for a, b in
                                       zip(other_lead, g.leading()[0]))
                # fully reduced: no term of g is divisible by another lead
                for ev in g.terms:
                    for j, other_lead in enumerate(leads):
                        if j != k:
                            assert not all(a <= b for a, b in zip(other_lead, ev))

    def test_s_polynomials_reduce_to_zero(self):
        rng = random.Random(13)
        for trial in range(8):
            gens = [random_poly(rng, 3) for _ in range(3)]
            basis = buchberger(gens)
            for i in range(len(basis.generators)):
                for j in range(i + 1, len(basis.generators)):
                    s = s_polynomial(basis.generators[i], basis.generators[j])
                    assert normal_form(s, basis).is_zero

    def test_input_membership(self):
        rng = random.Random(17)
        for trial in range(10):
            gens = [random_poly(rng, 3) for _ in range(3)]
            basis = buchberger(gens)
            for g in gens:
                assert normal_form(g, basis).is_zero

    def test_reduced_basis_unique_under_shuffle(self):
        rng = random.Random(19)
        for trial in range(8):
            gens = [random_poly(rng, 3) for _ in range(4)]
            reference = buchberger(gens).generators
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled).generators == reference

    def test_pair_budget(self, monkeypatch):
        f = poly(2, {(2, 0): 1, (0, 1): -1})
        g = poly(2, {(1, 1): 1, (1, 0): -1})
        monkeypatch.setattr(groebner, "PAIR_BUDGET", 0)
        with pytest.raises(PairBudgetExceeded) as info:
            buchberger([f, g])
        assert info.value.budget == 0
        assert str(info.value) == ("groebner stage: Buchberger took 1 pairs, "
                                   "over the limit PAIR_BUDGET = 0")


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        f = poly(2, {(1, 1): 1, (1, 0): 2})
        basis = buchberger([f])
        assert normal_form(f, basis).is_zero

    def test_partial_reduction(self):
        f = poly(3, {(1, 1, 0): 1, (0, 0, 1): 1})  # x1x2 + x3
        assert normal_form(f, buchberger([poly(3, {(1, 0, 0): 1})])) == \
            poly(3, {(0, 0, 1): 1})

    def test_membership_via_basis(self):
        basis = buchberger([poly(4, {(0, 0, 1, 0): 1}),
                            poly(4, {(0, 0, 0, 1): 1})])
        assert normal_form(poly(4, {(0, 0, 1, 0): 1}), basis).is_zero

    def test_ideal_member_invariance(self):
        # normal_form(f*g + h) = normal_form(h) for f in the ideal
        rng = random.Random(29)
        for trial in range(12):
            gens = [random_poly(rng, 3) for _ in range(2)]
            basis = buchberger(gens)
            if basis.is_trivial or not basis.generators:
                continue
            f = gens[0]
            g = random_poly(rng, 3)
            h = random_poly(rng, 3)
            assert normal_form(f * g + h, basis) == normal_form(h, basis)

    def test_accepts_raw_generator_list(self):
        raw = [poly(2, {(1, 0): 1})]
        assert normal_form(poly(2, {(1, 1): 1}), raw).is_zero


class TestRadicalMembership:
    def test_square_root(self):
        x1 = poly(1, {(1,): 1})
        assert radical_membership(x1, [x1 * x1])

    def test_non_member(self):
        x1 = poly(2, {(1, 0): 1})
        x2 = poly(2, {(0, 1): 1})
        assert not radical_membership(x2, [x1])

    def test_witness_sum_system(self):
        q1 = poly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
        q0 = poly(3, {(1, 1, 1): 1})
        assert radical_membership(poly(3, {(1, 1, 0): 1}), [q0, q1])

    def test_monotone_in_generators(self):
        rng = random.Random(37)
        for trial in range(10):
            gens = [random_poly(rng, 2) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            f = random_poly(rng, 2)
            if f.is_zero:
                continue
            extra = random_poly(rng, 2)
            if radical_membership(f, gens):
                assert radical_membership(f, gens + [extra])

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            radical_membership(poly(1, {}), [poly(1, {(1,): 1})])

    def test_gf_path(self):
        x1 = poly(1, {(1,): 1}, field=32003)
        assert radical_membership(x1, [x1 * x1 * x1])


class TestCertifyWitness:
    def test_veronese_witness_passes(self):
        ideal = squarefree_veronese(3, 2)
        witness = build_sv_witness(ideal)
        for field in (None, 32003):
            cert = certify_witness(ideal, witness, field)
            assert cert.passed
            assert cert.subset_failure is None
            assert cert.failing_generators == ()

    def test_two_block_witness_passes(self, two_blocks_n4):
        cert = certify_witness(two_blocks_n4, build_sv_witness(two_blocks_n4))
        assert cert.passed

    def test_truncated_witness_fails(self):
        # dropping q_0 loses the radical: q_1 alone vanishes where two
        # variables do, without killing the pair products
        ideal = squarefree_veronese(3, 2)
        witness = build_sv_witness(ideal)
        cert = certify_witness(ideal, witness.q[1:])
        assert not cert.passed
        assert cert.subset_failure is None  # still inside the ideal
        assert len(cert.failing_generators) > 0

    def test_alien_monomial_reported(self):
        ideal = squarefree_veronese(3, 2)
        bad = [Polynomial.sum_of([Monomial((1, 0, 0))])]
        cert = certify_witness(ideal, bad)
        assert not cert.passed
        assert cert.subset_failure is not None
        j, monomial = cert.subset_failure
        assert j == 0 and str(monomial) == "x1"


# ---------------------------------------------------------------------------
# The packed engine against the original tuple-dict engine


def to_oracle(p):
    return oracle.Polynomial(p.nvars, p.terms, p.field)


def term_maps(basis):
    return [g.terms for g in basis.generators]


def random_system(rng, field):
    nvars = rng.choice((3, 4))
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[tuple(rng.randint(0, 2) for _ in range(nvars))] = rng.randint(-3, 3)
        gens.append(Polynomial(nvars, terms, field))
    return gens


class TestOracleAgreement:
    # small primes wrap around mod p often, so a misplaced reduction shows
    @pytest.mark.parametrize("field", [None, 32003, 2, 3])
    def test_same_reduced_basis(self, field):
        rng = random.Random({None: 101, 32003: 103, 2: 127, 3: 131}[field])
        for trial in range(30):
            gens = random_system(rng, field)
            fast = buchberger(gens)
            slow = oracle.buchberger([to_oracle(g) for g in gens])
            assert term_maps(fast) == term_maps(slow), (trial, gens)

    @pytest.mark.parametrize("field", [None, 32003, 2, 3])
    def test_same_normal_forms(self, field):
        rng = random.Random({None: 107, 32003: 109, 2: 137, 3: 139}[field])
        for trial in range(30):
            gens = random_system(rng, field)
            nvars = gens[0].nvars
            f = random_poly(rng, nvars, field) * random_poly(rng, nvars, field)
            if field is None:
                f = f.scale(Fraction(5, 6))
            slow_gens = [to_oracle(g) for g in gens]
            # against the basis the remainder is unique; against the raw
            # generators it depends on the division strategy, kept the same
            assert normal_form(f, buchberger(gens)).terms == \
                oracle.normal_form(to_oracle(f), oracle.buchberger(slow_gens)).terms
            assert normal_form(f, gens).terms == \
                oracle.normal_form(to_oracle(f), slow_gens).terms

    @pytest.mark.parametrize("field", [None, 32003])
    def test_truncated_witness_fails_the_same_generators(self, field):
        for ideal in (transversal(4, [{1, 2}, {3, 4}]), squarefree_veronese(4, 2),
                      squarefree_veronese(5, 3)):
            witness = build_sv_witness(ideal)
            for drop in range(len(witness.q)):
                truncated = witness.q[:drop] + witness.q[drop + 1:]
                fast = certify_witness(ideal, truncated, field)
                slow = oracle.certify_witness(ideal, [to_oracle(q) for q in truncated],
                                              field)
                assert fast.failing_generators == slow.failing_generators
                assert fast.passed == slow.passed
                assert fast == certify_per_generator(ideal, truncated, field)

    def test_order_key_agrees(self):
        rng = random.Random(113)
        evs = [tuple(rng.randint(0, 40) for _ in range(4)) for _ in range(300)]
        assert sorted(evs, key=_order_key) == sorted(evs, key=oracle.MonomialOrder(4).key)


class TestPackedWidth:
    def test_huge_exponent_does_not_wrap(self):
        big = 2 ** 20
        x = poly(2, {(big, 0): 1, (0, 1): -1})  # x1^(2^20) - x2
        assert normal_form(poly(2, {(big + 1, 3): 1}), [x]) == poly(2, {(1, 4): 1})
        y = poly(2, {(0, 2): 1, (1, 0): -1})  # x2^2 - x1
        basis = buchberger([x, y])
        assert term_maps(basis) == term_maps(
            oracle.buchberger([to_oracle(x), to_oracle(y)]))

    def test_degree_growth_repacks(self, monkeypatch):
        # both systems fit the narrowest packing, but Buchberger builds
        # elements of higher degree than it admits; without a wider
        # packing the second one comes out wrong
        widths = []

        class Recording(groebner._Packing):
            def __init__(self, nvars, width):
                widths.append(width)
                super().__init__(nvars, width)

        monkeypatch.setattr(groebner, "_Packing", Recording)
        systems = [
            [poly(3, {(63, 0, 0): 1, (0, 1, 1): -1}),     # x1^63 - x2*x3
             poly(3, {(1, 62, 0): 1, (0, 0, 2): -1})],    # x1*x2^62 - x3^2
            [poly(3, {(23, 35, 1): 1, (4, 1, 5): -1}),
             poly(3, {(5, 29, 27): 1, (9, 1, 10): -1})],
        ]
        for gens in systems:
            widths.clear()
            basis = buchberger(gens)
            assert term_maps(basis) == term_maps(
                oracle.buchberger([to_oracle(g) for g in gens]))
            assert widths[0] == groebner._MIN_WIDTH and widths[-1] > widths[0]


@functools.cache
def full_support_census():
    """The 221 full-support matroidal ideals with n <= 5, every degree."""
    return tuple(ideal for n in range(1, 6) for d in range(1, n + 1)
                 for ideal in enumerate_matroidal(n, d, True))


def certified(ideal):
    """What the CLI certifies: the layered witness, or the variables in degree 1."""
    report = ara_report(ideal)
    return report.elements if report.witness is None else report.witness


@functools.cache
def census_radical_systems(field):
    """The Buchberger inputs of every radical test certifying the census."""
    systems = []

    def recording(gens):
        systems.append(tuple(gens))
        return original(gens)

    original = groebner.buchberger
    groebner.buchberger = recording
    try:
        for ideal in full_support_census():
            certify_witness(ideal, certified(ideal), field)
    finally:
        groebner.buchberger = original
    return tuple(systems)


def squares(poly):
    """The polynomial with every variable x_i replaced by x_i^2."""
    return Polynomial(poly.nvars, {tuple(2 * e for e in ev): c
                                   for ev, c in poly.terms.items()}, poly.field)


def certify_per_generator(ideal, witness, field=None):
    """One radical test per generator: the route certify_witness took before
    it tested one generator per symmetry orbit, kept as its oracle."""
    sums = witness.q if hasattr(witness, "q") else witness
    qs = [q.in_field(field) if field is not None else q for q in sums]
    subset_failure = None
    for j, q in enumerate(qs):
        for ev in sorted(q.terms, key=_order_key, reverse=True):
            if not ideal.contains(Monomial(ev)):
                subset_failure = (j, Monomial(ev))
                break
        if subset_failure:
            break
    failing = tuple(u for u in ideal.gens
                    if not radical_membership(Polynomial.from_monomial(u, field), qs))
    return groebner.WitnessCertificate(
        passed=subset_failure is None and not failing,
        field=field,
        subset_failure=subset_failure,
        failing_generators=failing,
    )


def certify_with_roots(ideal, witness, field=None):
    """certify_witness's certificate, and the orbit root of each generator it used."""
    recorded = []

    def recording(*args):
        recorded.append(original(*args))
        return recorded[-1]

    original = groebner._class_roots
    groebner._class_roots = recording
    try:
        certificate = certify_witness(ideal, witness, field)
    finally:
        groebner._class_roots = original
    return certificate, recorded[0]


def oracle_roots(ideal, witness, field=None):
    """The generator roots of the swaps that fix the ideal and every sum, by brute force."""
    sums = witness.q if hasattr(witness, "q") else witness
    return ideals_oracle.swap_orbits(
        ideal, [q.in_field(field) if field is not None else q for q in sums])[1]


def dropped(witness, j, mask):
    """The witness with one mask left out of layer j."""
    masks = list(witness.masks)
    masks[j] = tuple(m for m in masks[j] if m != mask)
    return dataclasses.replace(witness, masks=tuple(masks))


def certify_with_stats(ideal, field=None):
    """One radical test per generator, plus the stats of every basis they built."""
    runs = []

    def recording(*args, **kwargs):
        basis = original(*args, **kwargs)
        runs.append(basis.stats)
        return basis

    original = groebner.buchberger
    groebner.buchberger = recording
    try:
        certificate = certify_per_generator(ideal, build_sv_witness(ideal), field)
    finally:
        groebner.buchberger = original
    return certificate, runs


class TestBuchbergerStats:
    def test_counts_repeat_exactly(self):
        gens = random_system(random.Random(127), None)
        assert buchberger(gens).stats == buchberger(gens).stats
        ideal = transversal(5, [{1, 2}, {3, 4, 5}])
        assert certify_with_stats(ideal)[1] == certify_with_stats(ideal)[1]

    def test_counts_are_consistent(self):
        f = poly(2, {(2, 0): 1, (0, 1): -1})
        g = poly(2, {(1, 1): 1, (1, 0): -1})
        stats = buchberger([f, g]).stats
        assert stats.reductions == stats.pairs_pushed - stats.skipped_bk
        assert 0 < stats.zero_reductions <= stats.reductions
        assert stats.peak_basis >= 2
        assert buchberger([poly(2, {})]).stats == BuchbergerStats()

    def test_k23_prunes_below_the_coprime_only_engine(self):
        # the coprime-only engine reduces 622 S-pairs for K_{2,3}, 399 to
        # zero, over the six radical tests of one test per generator
        certificate, runs = certify_with_stats(transversal(5, [{1, 2}, {3, 4, 5}]))
        assert certificate.passed
        assert len(runs) == 6
        zero = sum(s.zero_reductions for s in runs)
        total = sum(s.reductions for s in runs)
        assert zero < 399 and total < 622
        assert sum(s.skipped_chain + s.skipped_bk for s in runs) > 0

    def test_stats_stay_out_of_equality(self):
        gens = [poly(2, {(1, 0): 1}), poly(2, {(0, 1): 1})]
        assert buchberger(gens) == groebner.GroebnerBasis(buchberger(gens).generators)


class TestOrbitRoute:
    """certify_witness tests one generator per symmetry orbit; one test per
    generator must give the same certificate, failing generators in order,
    and the orbits must be those of the brute-force swap scan."""

    def assert_same(self, ideal, witness, field):
        fast, roots = certify_with_roots(ideal, witness, field)
        slow = certify_per_generator(ideal, witness, field)
        assert fast == slow, (str(ideal), field)
        assert fast.failing_generators == slow.failing_generators
        assert roots == oracle_roots(ideal, witness, field), (str(ideal), field)
        return fast

    @pytest.mark.parametrize("field", [None, 32003])
    def test_full_support_census(self, field):
        census = full_support_census()
        assert len(census) == 221
        for ideal in census:
            self.assert_same(ideal, ara_report(ideal).elements, field)

    @pytest.mark.parametrize("field", [None, 32003])
    def test_six_variable_examples(self, field):
        for ideal in (transversal(6, [{1, 2}, {3, 4}, {5, 6}]), squarefree_veronese(6, 4)):
            certificate = self.assert_same(ideal, build_sv_witness(ideal), field)
            assert certificate.passed
            assert certificate.stats.radical_tests == 1

    @pytest.mark.parametrize("field", [None, 32003])
    def test_block_power_with_squared_witness(self, field):
        # I = (x1, x2)^2 (x3, x4) has the radical of K_{2,2}; squaring every
        # variable in K_{2,2}'s witness keeps its radical and puts every
        # term inside I. The swaps (1 2) and (3 4) fix both.
        ideal = make_ideal(4, [(2, 0, 1, 0), (2, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1),
                               (0, 2, 1, 0), (0, 2, 0, 1)])
        sums = [squares(q) for q in build_sv_witness(transversal(4, [{1, 2}, {3, 4}])).q]
        certificate = self.assert_same(ideal, sums, field)
        assert certificate.passed
        assert certificate.stats == CertifyStats(transpositions=2, radical_tests=2)
        for drop in range(len(sums)):
            self.assert_same(ideal, sums[:drop] + sums[drop + 1:], field)

    @pytest.mark.parametrize("field", [None, 32003])
    def test_symmetric_ideal_with_asymmetric_witness(self, field):
        # (1 2) and (3 4) fix K_{2,2}, but (1 2) moves both sums and (3 4)
        # swaps them, so neither may be used; with (1 2) every generator
        # would share the passing verdict of x1*x3
        ideal = transversal(4, [{1, 2}, {3, 4}])
        sums = [Polynomial.sum_of([Monomial((1, 0, 1, 0))]),
                Polynomial.sum_of([Monomial((1, 0, 0, 1))])]
        certificate = self.assert_same(ideal, sums, field)
        assert not certificate.passed
        assert [str(u) for u in certificate.failing_generators] == ["x2*x3", "x2*x4"]
        assert certificate.stats == CertifyStats(transpositions=0, radical_tests=4)

    @pytest.mark.parametrize("field", [None, 32003])
    def test_coefficients_that_differ_across_a_swap(self, field):
        # the layer sums of three symmetric ideals, each term weighted by
        # 1 + the sum of its exponents on a seeded set of variables: a swap
        # inside that set or outside it keeps the weights, and a swap across
        # it that fixes I and every sum's set of terms must still not be used
        rng = random.Random(22)
        blind = partial = 0
        for ideal in (transversal(4, [{1, 2}, {3, 4}]), transversal(5, [{1, 2}, {3, 4, 5}]),
                      squarefree_veronese(4, 2)):
            witness = build_sv_witness(ideal)
            for _ in range(4):
                weights = [rng.randint(0, 1) for _ in range(ideal.n)]
                sums = [Polynomial(ideal.n, {ev: 1 + sum(w * e for w, e in zip(weights, ev))
                                             for ev in q.terms})
                        for q in witness.q]
                self.assert_same(ideal, sums, field)
                roots = oracle_roots(ideal, sums, field)
                # a scan blind to coefficients would take the witness's orbits
                blind += roots != oracle_roots(ideal, witness, field)
                partial += roots != tuple(range(ideal.mu))
        assert blind >= 6 and partial >= 6

    def test_stats_repeat_and_stay_out_of_equality(self):
        ideal = transversal(5, [{1, 2}, {3, 4, 5}])
        witness = build_sv_witness(ideal)
        first, second = certify_witness(ideal, witness), certify_witness(ideal, witness)
        # the scan keeps (1 2), (3 4) and (3 5), one swap per variable joining
        # a class; (4 5) = (3 4)(3 5)(3 4) is implied, so it is not counted
        assert first.stats == second.stats == CertifyStats(transpositions=3,
                                                           radical_tests=1)
        assert first == certify_per_generator(ideal, witness)
        assert certify_per_generator(ideal, witness).stats == CertifyStats()


class TestCarriedOrbits:
    """certify_witness tests each later orbit root against the sums and the
    generators of every orbit proven before it; an orbit that failed must
    never be carried, or a later root can pass on its strength."""

    @pytest.mark.parametrize("field", [None, 32003])
    def test_failed_orbit_is_not_carried(self, field):
        # x1*x4 lies in rad(J + (x1*x3)) but not in rad J; the weight 2
        # stops (3 4) from joining the two generators into one orbit
        ideal = make_ideal(4, [(1, 0, 1, 0), (1, 0, 0, 1)])
        sums = [Polynomial(4, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 2})]
        certificate = certify_witness(ideal, sums, field)
        assert certificate == certify_per_generator(ideal, sums, field)
        assert certificate.failing_generators == ideal.gens
        assert certificate.stats == CertifyStats(transpositions=0, radical_tests=2)


class TestPairUpdateOracle:
    """The one-pass pair update against the pairwise one it replaced: the
    same reduced bases, and the same work counters, run for run."""

    def assert_same(self, systems, monkeypatch):
        fast = [buchberger(gens) for gens in systems]
        with monkeypatch.context() as patch:
            patch.setattr(groebner._Buchberger, "_update",
                          gebauer_moeller_oracle.pairwise_update)
            slow = [buchberger(gens) for gens in systems]
        for k, (a, b) in enumerate(zip(fast, slow)):
            assert term_maps(a) == term_maps(b), k
            assert a.stats == b.stats, k

    @pytest.mark.parametrize("field", [None, 32003, 2, 3])
    def test_random_systems(self, field, monkeypatch):
        # the systems of TestOracleAgreement::test_same_reduced_basis
        rng = random.Random({None: 101, 32003: 103, 2: 127, 3: 131}[field])
        self.assert_same([random_system(rng, field) for _ in range(30)], monkeypatch)

    @pytest.mark.parametrize("field", [None, 32003])
    def test_census_radical_tests(self, field, monkeypatch):
        systems = census_radical_systems(field)
        assert len(systems) == 367
        self.assert_same(systems, monkeypatch)

    @pytest.mark.parametrize("field", [None, 32003])
    def test_census_work_counters(self, field):
        # summed over the 367 radical tests, whose systems carry the
        # monomials of every orbit proven before them; a change of pair
        # strategy or of those systems must update these and say why
        totals = dict.fromkeys(BuchbergerStats.__dataclass_fields__, 0)
        for gens in census_radical_systems(field):
            for name, value in vars(buchberger(gens).stats).items():
                totals[name] += value
        assert totals == {"pairs_pushed": 11636, "skipped_coprime": 6294,
                          "skipped_chain": 8392, "skipped_bk": 4237,
                          "reductions": 5559, "zero_reductions": 1767,
                          "peak_basis": 2940}


class TestMaskRoute:
    """certify_witness reads an SVWitness on its masks; the same witness as
    bare sums takes the term-by-term route, and both must agree."""

    def assert_same(self, ideal, witness, field):
        fast, roots = certify_with_roots(ideal, witness, field)
        slow = certify_witness(ideal, witness.q, field)
        assert fast == slow, (str(ideal), field)
        assert fast.stats == slow.stats, (str(ideal), field)
        assert roots == oracle_roots(ideal, witness, field), (str(ideal), field)
        return fast

    @pytest.mark.parametrize("field", [None, 32003])
    def test_full_support_census(self, field):
        checked = 0
        for ideal in full_support_census():
            witness = ara_report(ideal).witness
            if witness is not None:
                assert self.assert_same(ideal, witness, field).passed
                checked += 1
        assert checked == 221 - 5  # degree 1 has no layered witness

    def test_census_orbits_with_lopsided_layers(self, monkeypatch):
        # every full-support witness with n <= 6, and up to three variants of
        # each with one later-layer mask dropped; only the orbits are compared,
        # so the radical tests are stubbed out
        monkeypatch.setattr(groebner, "radical_membership", lambda f, gens: True)
        rng = random.Random(23)
        ideals = refined = 0
        for n in range(2, 7):
            for d in range(2, n + 1):
                for ideal in enumerate_matroidal(n, d, True):
                    ideals += 1
                    own = ideals_oracle.swap_orbits(ideal)[1]
                    witness = build_sv_witness(ideal)
                    later = [(j, m) for j in range(1, len(witness.masks))
                             for m in witness.masks[j]]
                    variants = [dropped(witness, j, m)
                                for j, m in rng.sample(later, min(3, len(later)))]
                    for candidate in [witness] + variants:
                        roots = certify_with_roots(ideal, candidate)[1]
                        assert roots == oracle_roots(ideal, candidate), (str(ideal), candidate)
                        refined += roots != own
        assert ideals == 2350
        assert refined > 1000  # the ideal's own orbits would be wrong there

    @pytest.mark.parametrize("field", [None, 32003])
    def test_layer_mask_outside_the_ideal(self, field):
        # K_{2,2} holds neither x1*x2 nor x4; of the three failing terms of
        # the last layer the route must name the largest in degrevlex
        ideal = transversal(4, [{1, 2}, {3, 4}])
        witness = build_sv_witness(ideal)
        masks = witness.masks[:-1] + ((0b1000, 0b0101, 0b1100, 0b0011),)
        bad = dataclasses.replace(witness, masks=masks)
        certificate = self.assert_same(ideal, bad, field)
        assert certificate.subset_failure == (len(masks) - 1, Monomial((1, 1, 0, 0)))
        assert certificate == certify_per_generator(ideal, bad, field)

    @pytest.mark.parametrize("field", [None, 32003])
    def test_swap_that_moves_a_layer_is_not_used(self, field):
        # (1 2) and (3 4) fix K_{2,2}; the last layer {x1*x3, x1*x4} is
        # fixed by (3 4) but moved by (1 2), so only (3 4) may join orbits
        ideal = transversal(4, [{1, 2}, {3, 4}])
        witness = build_sv_witness(ideal)
        assert certify_witness(ideal, witness, field).stats.transpositions == 2
        lopsided = dataclasses.replace(witness, masks=witness.masks[:-1] + ((0b0101, 0b1001),))
        certificate = self.assert_same(ideal, lopsided, field)
        assert certificate.stats.transpositions == 1
        assert certificate == certify_per_generator(ideal, lopsided, field)

    @pytest.mark.parametrize("field", [None, 32003])
    def test_other_ideals_take_the_term_route(self, field):
        # a witness offered for a non-square-free ideal, whose classes come
        # from its exponent tuples, certifies as its bare sums do; one for an
        # ideal in more variables is refused
        witness = build_sv_witness(transversal(4, [{1, 2}, {3, 4}]))
        power = make_ideal(4, [(2, 0, 1, 0), (2, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1),
                               (0, 2, 1, 0), (0, 2, 0, 1)])
        assert not self.assert_same(power, witness, field).passed
        with pytest.raises(StructuralError):
            certify_witness(transversal(5, [{1, 2}, {3, 4, 5}]), witness, field)


class TestTimedCertification:
    @pytest.mark.parametrize("field", [None, 32003])
    def test_k33_certifies_within_three_seconds(self, field):
        ideal = transversal(6, [{1, 2, 3}, {4, 5, 6}])
        witness = build_sv_witness(ideal)
        start = time.perf_counter()
        certificate = certify_witness(ideal, witness, field)
        elapsed = time.perf_counter() - start
        assert certificate.passed
        assert elapsed < 3.0, f"K_{{3,3}} certification took {elapsed:.2f}s"

    @pytest.mark.parametrize("field", [None, 32003])
    def test_k44_certifies_within_three_seconds(self, field):
        # one radical test covers all 16 generators; about 0.65-0.8 s on a
        # 2-vCPU VM, against about 13.6 s for one test per generator
        ideal = transversal(8, [{1, 2, 3, 4}, {5, 6, 7, 8}])
        witness = build_sv_witness(ideal)
        start = time.perf_counter()
        certificate = certify_witness(ideal, witness, field)
        elapsed = time.perf_counter() - start
        assert certificate.passed
        assert certificate.stats.radical_tests == 1
        assert elapsed < 3.0, f"K_{{4,4}} certification took {elapsed:.2f}s"
