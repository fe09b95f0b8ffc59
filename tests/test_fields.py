"""The one primality routine behind every GF(p)."""

import pytest

from matroidalkit import DomainError
from matroidalkit.fields import MAX_CHARACTERISTIC, is_prime, require_prime


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
