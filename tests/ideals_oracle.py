"""Slow oracles for minimal generators and square-free members.

minimalize is the original pairwise pass: it tests every ordered pair of
distinct monomials for divisibility, whatever their degrees.
squarefree_members is the original scan: it builds every square-free
monomial of the degree and asks the ideal whether it contains it.
colon is the original tuple route, which MonomialIdeal.colon still takes
on ideals that are not square-free.
"""

from __future__ import annotations

from matroidalkit import make_ideal, squarefree_monomials


def minimalize(monomials):
    """Drop every monomial strictly divisible by another; dedupe."""
    distinct = set(monomials)
    kept = [m for m in distinct
            if not any(g is not m and g != m and g.divides(m) for g in distinct)]
    # descending lex on exponent vectors, so x1-dominant generators come first
    kept.sort(key=lambda m: m.exponents, reverse=True)
    return tuple(kept)


def squarefree_members(ideal, degree):
    """Square-free degree-d monomials lying in the ideal, lex order."""
    return tuple(m for m in squarefree_monomials(ideal.n, degree)
                 if ideal.contains(m))


def colon(ideal, u):
    """(I : u) on exponent tuples: every g / gcd(g, u), minimalized."""
    if ideal.is_zero:
        return ideal
    return make_ideal(ideal.n, [g / g.gcd(u) for g in ideal.gens])
