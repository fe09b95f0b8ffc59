"""Slow oracle for the Gebauer-Moeller pair update of the packed Buchberger.

pairwise_update is the update _Buchberger._update made before it became
one sorted pass: every new pair is held against all later new pairs and
all pairs kept before it, through a list built afresh for each pair, and
each lcm and support comes from a helper call. Installed in place of
_Buchberger._update it must give the same reduced bases and the same
BuchbergerStats.
"""

from __future__ import annotations

import heapq


def packed_lcm(packing, ea, eb):
    """Packed exponent vector of the lcm of two packed exponent vectors."""
    guard = packing.guard
    a_wins = ((ea | guard) - eb) & guard
    fill = a_wins - (a_wins >> (packing.width - 1))
    return (ea & fill) | (eb & ~fill & (packing.low ^ guard))


def packed_support(packing, e):
    """Guard bits of the fields where the exponent is nonzero."""
    return ((e | packing.guard) - packing.ones) & packing.guard


def pairwise_update(self, k, e_new):
    """Gebauer-Moeller update of the pairs and the active set for element k."""
    packing, exps, counts = self.packing, self.exps, self.counts
    guard = packing.guard
    support_new = packed_support(packing, e_new)
    candidates = [(g, packed_lcm(packing, exps[g], e_new),
                   not packed_support(packing, exps[g]) & support_new)
                  for g in self.active]
    kept = []
    for idx, (g, lcm_e, coprime) in enumerate(candidates):
        if coprime or not any(not (lcm_e - other) & guard
                              for _, other, _ in candidates[idx + 1:] + kept):
            kept.append((g, lcm_e, coprime))
        else:
            counts["skipped_chain"] += 1
    fresh = []
    for g, lcm_e, coprime in kept:
        if coprime:
            counts["skipped_coprime"] += 1
        else:
            fresh.append((packing.monomial(lcm_e), g, k, lcm_e))
    survivors = [pair for pair in self.pairs
                 if (pair[3] - e_new) & guard
                 or packed_lcm(packing, exps[pair[1]], e_new) == pair[3]
                 or packed_lcm(packing, exps[pair[2]], e_new) == pair[3]]
    counts["skipped_bk"] += len(self.pairs) - len(survivors)
    if len(survivors) < len(self.pairs):
        heapq.heapify(survivors)
    for pair in fresh:
        heapq.heappush(survivors, pair)
    self.pairs = survivors
    counts["pairs_pushed"] += len(fresh)
    self.active = [g for g in self.active if (exps[g] - e_new) & guard] + [k]
    counts["peak_basis"] = max(counts["peak_basis"], len(self.active))
    self.reducers = [self.elements[g] for g in self.active]
