"""Coefficient fields: the one primality test behind every GF(p).

Miller-Rabin with the first 13 primes as bases is deterministic below
MAX_CHARACTERISTIC (Sorenson and Webster 2015), so the test is exact on
its whole domain; larger characteristics are refused rather than guessed.
"""

from __future__ import annotations

import math

from .errors import DomainError

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981  # exclusive bound of exactness


def is_prime(n):
    """Exact primality for 0 <= n < MAX_CHARACTERISTIC."""
    if n >= MAX_CHARACTERISTIC:
        raise DomainError(f"primality of {n} is decided only below {MAX_CHARACTERISTIC}")
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    if math.isqrt(n) < 43:  # no prime factor up to the square root
        return True
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p):
    """Raise DomainError unless p is a usable field characteristic."""
    if p >= MAX_CHARACTERISTIC:
        raise DomainError(f"field characteristic {p} exceeds the limit "
                          f"{MAX_CHARACTERISTIC - 1}")
    if not is_prime(p):
        raise DomainError(f"field characteristic must be prime, got {p}")
