"""Exchange-property checks and the named families built from them.

The exchange check is the workhorse: an ideal generated in a single degree
is polymatroidal when every ordered generator pair admits an exchange at
every separating variable. Square-free plus polymatroidal is matroidal, and
then generator supports form the bases of a matroid.

is_polymatroidal computes one certificate per ideal object and keeps it in
the ideal's memo. Square-free input runs on generator bitmasks through one
kernel, _exchange_failure, which enumeration shares. Other input runs on
exponent tuples. Both routes report the first failure with u, then v, in
generator order and the variable index ascending. Enumeration over all
collections of square-free degree-d monomials runs on packed bitmasks;
the survivors are rebuilt as ideals through the ordinary constructors.
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

    Returns a certificate; on failure the witness pins down a concrete
    ordered pair and variable index with no exchange partner. The
    certificate is kept in the ideal's memo, so later calls on the same
    object return it; the zero ideal raises on every call.

    Single-degree square-free input runs on generator masks
    (_exchange_failure), which finds the exchanges of each u - x_i
    once and scans v only for the indices i some v could fail at; every
    other single-degree input runs on exponent tuples, where membership
    of the exchanged monomial is a set lookup because it has the degree
    of every generator. Both routes visit u, then v, in generator order
    and the index i in ascending order, so failure_witness is the first
    failing (u, v, i) in that order whichever route ran.
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
    """First (u, v, i) with no exchange, on exponent tuples, or None."""
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
                return u, v, i + 1
    return None


def _exchange_failure(masks):
    """First failing (a, b, e) of basis exchange on distinct equal-size masks.

    a and b index masks, and e is the one-bit mask of a variable in
    masks[a] but not in masks[b] such that no f in masks[b] outside
    masks[a] makes masks[a] - e + f a member; None when every pair
    exchanges. The order is a, then b, then e ascending.

    completions maps a (d-1)-set w to the bits f with w + f a member.
    It is filled by membership tests the first time some row asks for
    w, and kept, so it holds at most m*d sets and each is tested once:
    on x1, ..., xn every row asks for the empty set alone. For u =
    masks[a], allowed[e] = completions[u - e] - e holds the f's for
    which u - e + f is a member, and (u, v) fails at e iff e is not in v
    and allowed[e] & v == 0. An e whose allowed set is all of outside
    (the union of the masks less u) never fails, as a distinct mask v of
    the same size meets outside. Only the other e's are tried against
    each v, and a row with none is not scanned; the first failure is the
    same.
    """
    members = set(masks)
    union = 0
    for m in masks:
        union |= m
    completions = {}
    for a, u in enumerate(masks):
        outside = union & ~u
        allowed = {}
        rest = u
        while rest:
            e = rest & -rest
            rest ^= e
            base = u ^ e
            swaps = completions.get(base)
            if swaps is None:
                swaps = 0
                free = union & ~base
                while free:
                    f = free & -free
                    if base | f in members:
                        swaps |= f
                    free ^= f
                completions[base] = swaps
            swaps ^= e
            if swaps != outside:
                allowed[e] = swaps
        if not allowed:
            continue
        hard = sum(allowed)
        for b, v in enumerate(masks):
            rest = hard & ~v  # empty when b == a
            while rest:
                e = rest & -rest
                if not allowed[e] & v:
                    return a, b, e
                rest ^= e
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
