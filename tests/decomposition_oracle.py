"""Slow oracles for irredundant irreducible decomposition and minimal covers.

drop_redundant is the original greedy pass: walk the components in order
and drop one when it contains the intersection of all the others still
kept. It forms O(k^2) intersections of monomial ideals and makes no use
of the components being irreducible.

minimal_covers is the original hitting-set recursion: it branches on every
vertex of the first uncovered set, so it reaches a cover once per order of
its vertices, and filters out the non-minimal covers at the end.
"""

from __future__ import annotations


def intersect_all(components):
    result = components[0]
    for comp in components[1:]:
        result = result.intersect(comp)
    return result


def drop_redundant(components):
    """Remove components containing the intersection of the rest."""
    kept = list(components)
    i = 0
    while i < len(kept) and len(kept) > 1:
        rest = kept[:i] + kept[i + 1:]
        inter = intersect_all(rest)
        if all(kept[i].contains(g) for g in inter.gens):
            kept.pop(i)
        else:
            i += 1
    return kept


def minimal_covers(supports):
    """Inclusion-minimal hitting sets of a list of variable subsets."""
    candidates = set()

    def extend(chosen):
        uncovered = next((s for s in supports if not (s & chosen)), None)
        if uncovered is None:
            candidates.add(frozenset(chosen))
            return
        for v in sorted(uncovered):
            chosen.add(v)
            extend(chosen)
            chosen.remove(v)

    extend(set())
    return frozenset(c for c in candidates
                     if not any(other < c for other in candidates))
