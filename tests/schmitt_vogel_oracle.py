"""Slow oracles for the layered-sum conditions and the witness text.

verify_sv_conditions is the original check: condition (c) multiplies the
two Monomials of every pair and asks each earlier-layer Monomial whether it
divides the product.
text is the original SVWitness.text(): it names each mask by a loop over
its bits.
"""

from __future__ import annotations

from matroidalkit.schmitt_vogel import (CONDITION_PRODUCTS, CONDITION_SINGLETON,
                                        CONDITION_UNION, SVConditionReport)


def verify_sv_conditions(layers, ideal):
    """The three layered-sum conditions on Monomials; a report, never raises."""
    layers = [tuple(layer) for layer in layers]
    if not layers:
        return SVConditionReport(False, CONDITION_SINGLETON, ())
    members = set()
    for k in range(ideal.n + 1):
        members.update(ideal.squarefree_members(k))
    layered = set().union(*map(set, layers))
    if layered != members:
        stray = sorted(layered ^ members, key=lambda m: m.exponents)
        return SVConditionReport(False, CONDITION_UNION, (stray[0],))
    if len(layers[0]) != 1:
        return SVConditionReport(False, CONDITION_SINGLETON, tuple(layers[0]))
    for i in range(1, len(layers)):
        earlier = [p for j in range(i) for p in layers[j]]
        for a in range(len(layers[i])):
            for b in range(a + 1, len(layers[i])):
                p, pp = layers[i][a], layers[i][b]
                product = p * pp
                if not any(q.divides(product) for q in earlier):
                    return SVConditionReport(False, CONDITION_PRODUCTS, (i, p, pp))
    return SVConditionReport(True)


def text(witness):
    """The sums and the layers as text, each mask named bit by bit."""
    names = [f"x{k}" for k in range(1, witness.n + 1)]
    sums, layers = [], []
    for layer in witness.masks:
        texts = ["*".join([names[k] for k in range(m.bit_length()) if m >> k & 1])
                 for m in layer]
        layers.append(texts)
        sums.append(" + ".join([t for _, t in sorted(zip(layer, texts))]))
    return sums, layers
