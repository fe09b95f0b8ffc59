"""Slow oracle for irredundant irreducible decomposition.

The original greedy pass: walk the components in order and drop one when
it contains the intersection of all the others still kept. It forms
O(k^2) intersections of monomial ideals and makes no use of the
components being irreducible.
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
