"""Slow oracles for the exchange check and the enumeration scan.

is_polymatroidal is the original tuple route on exponent vectors: every
ordered generator pair, every variable index with deg_{x_i}(u) >
deg_{x_i}(v), and a set lookup for each exchanged vector, whatever the
input. collection_exchange is the original basis-exchange test on support
bitmasks, and enumerate_matroidal scans every collection with it.
dedupe_up_to_relabeling is the original n! walk: it relabels an ideal under
every permutation through the public constructors and keys its class by the
least relabeled generator tuple, with the sorted occurrence counts.
"""

from __future__ import annotations

import itertools

from matroidalkit import DomainError, Monomial, make_ideal, squarefree_monomials
from matroidalkit.matroids import (NO_EXCHANGE_INDEX, NOT_SINGLE_DEGREE,
                                   ExchangeCertificate)


def is_polymatroidal(ideal):
    """Exchange check on the minimal generators, on exponent tuples."""
    if ideal.is_zero:
        raise DomainError("exchange property undefined for the zero ideal")
    degrees = {g.degree for g in ideal.gens}
    if len(degrees) != 1:
        return ExchangeCertificate(holds=False, reason=NOT_SINGLE_DEGREE)
    gen_exps = {g.exponents for g in ideal.gens}
    for u, v in itertools.permutations(ideal.gens, 2):
        ue, ve = u.exponents, v.exponents
        for i in range(ideal.n):
            if ue[i] <= ve[i]:
                continue
            lowered = list(ue)
            lowered[i] -= 1
            for j in range(ideal.n):
                if ve[j] > ue[j]:
                    lowered[j] += 1
                    if tuple(lowered) in gen_exps:
                        break
                    lowered[j] -= 1
            else:
                witness = (u, v, i + 1)
                return ExchangeCertificate(holds=False, reason=NO_EXCHANGE_INDEX,
                                           failure_witness=witness)
    return ExchangeCertificate(holds=True)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def collection_exchange(masks, members):
    """Basis exchange over support bitmasks; members is the set of masks."""
    for b1 in masks:
        for b2 in masks:
            if b1 == b2:
                continue
            only2 = b2 & ~b1
            for e in _bits(b1 & ~b2):
                base = b1 ^ e
                if not any(base | f in members for f in _bits(only2)):
                    return False
    return True


def enumerate_matroidal(n, d, full_support_only=True):
    """Every collection of the lex layer that passes collection_exchange."""
    layer = squarefree_monomials(n, d)
    full = (1 << n) - 1
    found = []
    for selector in range(1, 1 << len(layer)):
        chosen = [m for k, m in enumerate(layer) if (selector >> k) & 1]
        masks = [sum(1 << (i - 1) for i in m.support) for m in chosen]
        covered = 0
        for m in masks:
            covered |= m
        if full_support_only and covered != full:
            continue
        if collection_exchange(masks, set(masks)):
            found.append(make_ideal(n, chosen))
    return tuple(found)


def _occurrence_signature(ideal):
    counts = [0] * ideal.n
    for g in ideal.gens:
        for i in g.support:
            counts[i - 1] += 1
    return tuple(sorted(counts))


def _relabel(ideal, perm):
    """Apply the variable permutation perm (perm[i-1] is the new index of x_i)."""
    moved = []
    for g in ideal.gens:
        exps = [0] * ideal.n
        for i, e in enumerate(g.exponents, start=1):
            exps[perm[i - 1] - 1] = e
        moved.append(Monomial(tuple(exps)))
    return make_ideal(ideal.n, moved)


def dedupe_up_to_relabeling(ideals):
    """The first ideal of each relabeling class, by the least relabeled ideal.

    Every ideal of one orbit walks the same n! relabelings to the same key,
    so the key is kept for each relabeling the walk builds and the orbit is
    walked once.
    """
    seen, keys = {}, {}
    for ideal in ideals:
        if ideal not in keys:
            perms = itertools.permutations(range(1, ideal.n + 1))
            orbit = [_relabel(ideal, p) for p in perms]
            least = min(tuple(g.exponents for g in moved.gens) for moved in orbit)
            keys.update(dict.fromkeys(orbit, (_occurrence_signature(ideal), least)))
        seen.setdefault(keys[ideal], ideal)
    return tuple(seen.values())
