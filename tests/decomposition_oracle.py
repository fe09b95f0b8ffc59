"""Slow oracles for irredundant irreducible decomposition and minimal covers.

irreducible_decomposition runs the original splitting recursion, on
exponent tuples: split the first generator (in stored order) that is not a
pure variable power, peeling off its lowest-index variable power, recurse
on both summands, and keep the distinct irreducible leaves. It has no
limit; x1^2*x2, x3^2*x4, ... makes 2^k leaves. A pass then drops the
redundant leaves.

drop_redundant is the original greedy pass over those leaves: walk the
components in order and drop one when it contains the intersection of all
the others still kept. It forms O(k^2) intersections of monomial ideals
and makes no use of the components being irreducible, so it is run only
on small input. drop_containing is the quick pass for the rest: it keeps
the leaves that contain no other leaf. For irreducible leaves the two
agree: if Q contains the intersection of J_1..J_k but none of them, pick
u_j in J_j outside Q; Q is generated by variable powers, so lcm(u_j),
which lies in every J_j, stays outside Q.

minimal_covers is the original hitting-set recursion: it branches on every
vertex of the first uncovered set, so it reaches a cover once per order of
its vertices, and filters out the non-minimal covers at the end.
"""

from __future__ import annotations

from matroidalkit import Monomial, MonomialIdeal


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


def drop_containing(components):
    """Keep the irreducible components that contain no other one; order is kept.

    Q is contained in Q' when each x_i^a of Q has some x_i^b, b <= a, in
    Q'. Read an absent variable as an exponent above every one in use:
    then Q' is inside Q exactly when its vector is componentwise at least
    Q's. A vector can only lie below one of larger sum, so in descending
    order of sums each is held against the vectors kept before it.
    """
    top = 1 + max(g.degree for comp in components for g in comp.gens)
    exps = {comp: tuple(sum(g.exponents[k] for g in comp.gens) or top
                        for k in range(comp.n)) for comp in components}
    kept = []
    for comp in sorted(components, key=lambda c: sum(exps[c]), reverse=True):
        v = exps[comp]
        if not any(all(a <= b for a, b in zip(v, exps[other])) for other in kept):
            kept.append(comp)
    kept = set(kept)
    return [comp for comp in components if comp in kept]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _adjoin(gens, u):
    """Minimal generators of (gens) + (u), in descending lex order."""
    if any(_divides(g, u) for g in gens):
        return gens
    return tuple(sorted([g for g in gens if not _divides(u, g)] + [u], reverse=True))


def split_leaves(gens, out):
    """Depth-first splitting of exponent tuples; appends irreducible leaves to out."""
    pivot = next((g for g in gens if sum(map(bool, g)) > 1), None)
    if pivot is None:
        out.append(gens)
        return
    i = next(k for k, e in enumerate(pivot) if e)
    power = tuple(e if k == i else 0 for k, e in enumerate(pivot))
    split_leaves(_adjoin(gens, power), out)
    split_leaves(_adjoin(gens, tuple(a - b for a, b in zip(pivot, power))), out)


def irreducible_decomposition(ideal, prune=drop_containing):
    """Irredundant irreducible components, in the order the splitting leaves them."""
    leaves = []
    split_leaves(tuple(g.exponents for g in ideal.gens), leaves)
    return prune([MonomialIdeal(ideal.n, tuple(map(Monomial, leaf)))
                  for leaf in dict.fromkeys(leaves)])


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
