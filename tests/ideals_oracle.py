"""Slow oracles for minimal generators and square-free members.

minimalize is the original pairwise pass: it tests every ordered pair of
distinct monomials for divisibility, whatever their degrees.
squarefree_members is the original scan: it builds every square-free
monomial of the degree and asks the ideal whether it contains it.
colon is the original tuple route, which MonomialIdeal.colon still takes
on ideals that are not square-free.
swap_orbits finds the orbits of the variable swaps that fix an ideal, and
optionally a sequence of polynomials, by brute force: it tests every
pair, skipping none, takes the connected components of the fixing swaps
for the variables, and closes each generator under all of them.
"""

from __future__ import annotations

import itertools

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


def _swapped(ev, i, j):
    out = list(ev)
    out[i], out[j] = ev[j], ev[i]
    return tuple(out)


def _closure(start, step):
    """Everything reachable from start, where step(x) lists x's neighbours."""
    seen, frontier = {start}, [start]
    while frontier:
        for y in step(frontier.pop()):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def swap_orbits(ideal, sums=()):
    """Least 0-based variable of each variable's orbit, and first generator of each generator's.

    The group is generated by every swap (i j) that maps the generator
    exponent vectors onto themselves and every polynomial in sums onto
    itself term for term, coefficients included.
    """
    gens = [g.exponents for g in ideal.gens]
    fixing = [(i, j) for i, j in itertools.combinations(range(ideal.n), 2)
              if {_swapped(ev, i, j) for ev in gens} == set(gens)
              and all({_swapped(ev, i, j): c for ev, c in q.terms.items()} == q.terms
                      for q in sums)]
    variables = tuple(
        min(_closure(k, lambda a: [j for i, j in fixing if i == a]
                     + [i for i, j in fixing if j == a]))
        for k in range(ideal.n))
    position = {ev: k for k, ev in enumerate(gens)}
    roots = tuple(min(position[e] for e in
                      _closure(ev, lambda e: [_swapped(e, i, j) for i, j in fixing]))
                  for ev in gens)
    return variables, roots
