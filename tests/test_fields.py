"""The one primality routine and field check behind every GF(p)."""

import pytest

from matroidalkit import (DomainError, Polynomial, ara_report, certify_witness,
                          pd_depth, reduced_homology_ranks, stanley_reisner, transversal)
from matroidalkit.fields import MAX_CHARACTERISTIC, is_prime, require_field, require_prime

NOT_INTS = (3.0, 32003.0, True)


def trial_division(n):
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_agrees_with_trial_division():
    assert [n for n in range(5000) if is_prime(n)] == \
        [n for n in range(5000) if trial_division(n)]


@pytest.mark.parametrize("composite", [
    561,                              # Carmichael number
    3215031751,                       # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,              # strong pseudoprime to bases 2 .. 23
    318665857834031151167461,         # strong pseudoprime to bases 2 .. 37
])
def test_rejects_strong_pseudoprimes(composite):
    assert not is_prime(composite)
    with pytest.raises(DomainError, match="prime"):
        require_prime(composite)


@pytest.mark.parametrize("prime", [2, 3, 32003, 2 ** 31 - 1, 2 ** 61 - 1,
                                   3317044064679887385961813])
def test_accepts_primes(prime):
    assert is_prime(prime)
    require_prime(prime)


def test_refuses_past_the_limit():
    assert MAX_CHARACTERISTIC == 3317044064679887385961981
    for p in ((2 ** 31 - 1) * (2 ** 61 - 1), 2 ** 89 - 1, MAX_CHARACTERISTIC):
        with pytest.raises(DomainError, match=str(MAX_CHARACTERISTIC - 1)):
            require_prime(p)


def test_require_field():
    require_field(None)
    require_field(32003)
    for field in (*NOT_INTS, 2.0, False, "3", 6, 1):
        with pytest.raises(DomainError):
            require_field(field)


@pytest.mark.parametrize("field", NOT_INTS)
def test_every_entry_point_refuses_non_int_fields(field):
    ideal = transversal(4, [{1, 2}, {3, 4}])
    sums = ara_report(ideal).elements
    calls = (lambda: pd_depth(ideal, field),
             lambda: reduced_homology_ranks(stanley_reisner(ideal), field),
             lambda: Polynomial(2, {(1, 0): 1}, field=field),
             lambda: certify_witness(ideal, sums, field))
    for call in calls:
        with pytest.raises(DomainError, match="must be an int"):
            call()


def test_cached_profile_is_not_served_for_an_equal_float():
    ideal = transversal(4, [{1, 2}, {3, 4}])
    assert pd_depth(ideal, 5).pd == 3
    with pytest.raises(DomainError):
        pd_depth(ideal, 5.0)
