"""Exchange-property checks and the named families built from them.

An ideal generated in one degree is polymatroidal when each ordered
generator pair (u, v) exchanges at each x_i with deg_{x_i}(u) >
deg_{x_i}(v): some x_j with deg_{x_j}(v) > deg_{x_j}(u) makes u/x_i * x_j
a generator. Square-free plus polymatroidal is matroidal, and then the
generator supports are the bases of a matroid. Both kernels test one
criterion: with w = u/x_i and C(w) the j such that w*x_j is a generator
(i among them), (u, v) fails at x_i exactly when deg_{x_j}(v) <=
deg_{x_j}(w) for every j in C(w), on masks when v misses C(w). Each kernel
keeps one memo from w to the first generator that C(w) fails to reach, and
reports the first row u that fails, at the least (v, i) over its w's. The
tuple kernel reads every C(w) off the generators g, as the j with g - e_j =
w, once the generators' gcd is divided out; the mask kernel finds each C(w)
by membership tests when a row first asks for it, so a collection that
fails early, as most do in enumeration, pays for no other row.

is_polymatroidal keeps one certificate in each ideal's memo. Square-free
input runs on bitmasks (_exchange_failure, which enumeration shares over
every collection of a layer), other input on exponent tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import ideals
from .errors import BudgetExceeded, DomainError
from .ideals import (Monomial, MonomialIdeal, _variable_count, make_ideal,
                     squarefree_monomials)

NOT_SINGLE_DEGREE = "not_single_degree"
NO_EXCHANGE_INDEX = "no_exchange_index"

# brute-force relabeling below walks all n! permutations
ENUMERATION_MAX_N = 7
# enumeration scans all 2^C(n,d) collections; (6, 3) at 2^20 takes about 3 s
ENUMERATION_MAX_LAYER = 20


@dataclass(frozen=True)
class ExchangeCertificate:
    """Outcome of the exchange check.

    holds is true when the ideal passed. Otherwise reason says why:
    NOT_SINGLE_DEGREE when generators mix degrees (no witness in that
    case), NO_EXCHANGE_INDEX with failure_witness = (u, v, i) meaning
    deg_{x_i}(u) > deg_{x_i}(v) but no admissible j exists.
    """

    holds: bool
    reason: str | None = None
    failure_witness: tuple | None = None


def is_polymatroidal(ideal):
    """Exchange check on the minimal generators, run once per ideal object.

    Returns a certificate; on failure the witness is the first (u, v, i)
    with no exchange, u then v in generator order and i ascending,
    whichever kernel ran. The certificate is kept in the ideal's memo, so
    later calls on the same object return it; the zero ideal raises on
    every call.
    """
    if ideal.is_zero:
        raise DomainError("exchange property undefined for the zero ideal")
    return ideal._memo("_exchange_certificate", _exchange_certificate)


def _exchange_certificate(ideal):
    if ideal.degree is None:
        return ExchangeCertificate(holds=False, reason=NOT_SINGLE_DEGREE)
    if ideal.is_squarefree:
        failure = _exchange_failure(ideal.masks)
        if failure is None:
            return ExchangeCertificate(holds=True)
        a, b, e = failure
        witness = (ideal.gens[a], ideal.gens[b], e.bit_length())
    else:
        witness = _tuple_exchange_failure(ideal)
        if witness is None:
            return ExchangeCertificate(holds=True)
    return ExchangeCertificate(holds=False, reason=NO_EXCHANGE_INDEX,
                               failure_witness=witness)


def _tuple_exchange_failure(ideal):
    """First failing (u, v, i) on exponent tuples, or None.

    The generators' gcd is divided out first: C(w) and v_j <= w_j are
    unchanged on the quotients, and an i in the gcd's support that the
    quotient u lacks fails no v, since v_i > w_i. rows[a] lists (i, u -
    e_i) over the support of quotient u = gens[a], reach maps w to C(w),
    the i with (i, w) in some row, and first maps w to the index of the
    first generator v with v_j <= w_j on C(w), or to mu, found by one
    generator scan.
    """
    floor = [min(column) for column in zip(*(g.exponents for g in ideal.gens))]
    vectors = [tuple(e - f for e, f in zip(g.exponents, floor)) for g in ideal.gens]
    rows = [[(i, u[:i] + (e - 1,) + u[i + 1:]) for i, e in enumerate(u) if e] for u in vectors]
    reach = {}
    for row in rows:
        for i, w in row:
            reach.setdefault(w, []).append(i)
    none = len(vectors)
    first = {}
    for a, row in enumerate(rows):
        b = none
        for i, w in row:
            c = first.get(w)
            if c is None:
                reached = reach[w]
                c = first[w] = next((k for k, v in enumerate(vectors)
                                     if all(v[j] <= w[j] for j in reached)), none)
            if c < b:
                b, index = c, i
        if b < none:
            return ideal.gens[a], ideal.gens[b], index + 1
    return None


def _exchange_failure(masks):
    """First failing (a, b, e) on distinct equal-size masks, or None.

    a and b index masks, and e is the bit of masks[a] the pair fails at.
    first maps w to the index of the first mask that misses C(w), or to
    len(masks). Membership tests over the union less w and one scan of the
    masks fill it; the scan is skipped when C(w) is the whole union less
    w, which every mask meets, having more bits than w.
    """
    members = set(masks)
    union = 0
    for m in masks:
        union |= m
    none = len(masks)
    first = {}
    for a, u in enumerate(masks):
        b = none
        rest = u
        while rest:
            e = rest & -rest
            rest ^= e
            w = u ^ e
            c = first.get(w)
            if c is None:
                free = union & ~w
                reach = 0
                bits = free
                while bits:
                    f = bits & -bits
                    bits ^= f
                    if w | f in members:
                        reach |= f
                c = none
                if reach != free:
                    for k, v in enumerate(masks):
                        if not v & reach:
                            c = k
                            break
                first[w] = c
            if c < b:
                b, i = c, e
        if b < none:
            return a, b, i
    return None


def is_matroidal(ideal):
    """Square-free and polymatroidal; the zero ideal raises as in is_polymatroidal."""
    return ideal.is_squarefree and is_polymatroidal(ideal).holds


def squarefree_veronese(n, d):
    """Ideal of all square-free degree-d monomials in n variables; n and d plain ints."""
    _variable_count(n)
    if type(d) is not int or not 1 <= d <= n:
        raise DomainError(f"square-free Veronese needs an int d, 1 <= d <= n, got d={d!r}, n={n}")
    return make_ideal(n, squarefree_monomials(n, d))


def veronese(n, d):
    """The d-th power of the maximal ideal: all degree-d monomials; n and d plain ints.

    Its C(n + d - 1, d) generators are held against ideals.MEMBER_BUDGET
    before any is built.
    """
    _variable_count(n)
    if type(d) is not int or d < 1:
        raise DomainError(f"Veronese degree must be a positive int, got {d!r}")
    count = math.comb(n + d - 1, d)
    if count > ideals.MEMBER_BUDGET:
        raise BudgetExceeded("rank", f"the listing builds {count} monomials "
                             f"(C({n + d - 1}, {d}))", "MEMBER_BUDGET", ideals.MEMBER_BUDGET)
    gens = []
    for combo in itertools.combinations_with_replacement(range(1, n + 1), d):
        exps = [0] * n
        for i in combo:
            exps[i - 1] += 1
        gens.append(Monomial(tuple(exps)))
    return make_ideal(n, gens)


def transversal(n, blocks):
    """Product of the variable ideals (x_b : b in B_i) over the given blocks."""
    blocks = [frozenset(b) for b in blocks]
    if not blocks:
        raise DomainError("transversal needs at least one block")
    for b in blocks:
        if not b:
            raise DomainError("transversal blocks must be nonempty")
    result = MonomialIdeal.unit(n)
    for b in blocks:
        result = result * make_ideal(n, [Monomial.variable(n, i) for i in sorted(b)])
    return result


def is_squarefree_veronese(ideal):
    """True iff the generators are all C(n,d) square-free degree-d monomials.

    Counting suffices: distinct square-free generators of one degree d are
    a subset of the full degree-d layer, so equal cardinality means equal
    sets. The unit ideal passes as the degenerate d=0 layer.
    """
    if not ideal.is_squarefree or ideal.degree is None:
        return False
    return ideal.mu == math.comb(ideal.n, ideal.degree)


def enumerate_matroidal(n, d, full_support_only=True):
    """All matroidal ideals generated in degree d, in a fixed order.

    Walks every nonempty collection of square-free degree-d monomials by
    bitmask over the lex-ordered monomial list, keeping the collections
    whose supports satisfy basis exchange. The search space is 2^C(n,d),
    hence the limits on n and on C(n,d). One scan per (n, d) is cached;
    full_support_only keeps, in scan order, the ideals that use every
    variable. n and d must be plain ints.
    """
    if type(n) is not int or type(d) is not int:
        raise DomainError(f"enumeration needs int n and d, got n={n!r}, d={d!r}")
    census = _enumerate_matroidal(n, d)
    if not full_support_only:
        return census
    return tuple(ideal for ideal in census if len(ideal.support) == n)


@functools.cache
def _enumerate_matroidal(n, d):
    if n > ENUMERATION_MAX_N:
        raise BudgetExceeded("enumeration", f"n={n}", "ENUMERATION_MAX_N", ENUMERATION_MAX_N)
    if not 1 <= d <= n:
        raise DomainError(f"enumeration needs 1 <= d <= n, got d={d}, n={n}")
    count = math.comb(n, d)
    if count > ENUMERATION_MAX_LAYER:
        raise BudgetExceeded("enumeration", f"n={n}, d={d} would scan 2^{count} collections, "
                             f"more than 2^{ENUMERATION_MAX_LAYER}", "ENUMERATION_MAX_LAYER",
                             ENUMERATION_MAX_LAYER)
    layer = squarefree_monomials(n, d)
    layer_masks = [m.bitmask() for m in layer]
    # a collection's masks are those of its selector's low half, then its high half
    half = count // 2
    halves = [[[layer_masks[k] for k in range(start, stop) if selector >> k - start & 1]
               for selector in range(1 << stop - start)]
              for start, stop in ((0, half), (half, count))]
    found = []
    for selector in range(1, 1 << count):
        masks = halves[0][selector & (1 << half) - 1] + halves[1][selector >> half]
        if _exchange_failure(masks) is None:
            found.append(make_ideal(n, [layer[k] for k in range(count)
                                        if (selector >> k) & 1]))
    return tuple(found)


def dedupe_up_to_relabeling(ideals):
    """Keep the first ideal of each variable-relabeling class, in input order.

    The class key is n with the least, over all n! orders of the
    variables, of the sorted tuple of generator exponent vectors read in
    that order; two ideals share it iff a relabeling carries one onto the
    other. Every order is walked, so n is capped at ENUMERATION_MAX_N.
    """
    seen = {}
    for ideal in ideals:
        if ideal.n > ENUMERATION_MAX_N:
            raise BudgetExceeded("relabeling", f"n={ideal.n}", "ENUMERATION_MAX_N",
                                 ENUMERATION_MAX_N)
        columns = [tuple(g.exponents[i] for g in ideal.gens) for i in range(ideal.n)]
        least = min(tuple(sorted(zip(*[columns[i] for i in order])))
                    for order in itertools.permutations(range(ideal.n)))
        seen.setdefault((ideal.n, least), ideal)
    return tuple(seen.values())
