"""Exchange-property checks and the named families built from them.

The exchange check is the workhorse: an ideal generated in a single degree
is polymatroidal when every ordered generator pair admits an exchange at
every separating variable. Square-free plus polymatroidal is matroidal, and
then generator supports form the bases of a matroid.

is_polymatroidal computes one certificate per ideal object and keeps it in
the ideal's memo. Square-free input runs on generator bitmasks through one
kernel, _exchange_failure, which enumeration shares; other input runs on
exponent tuples. Both routes report the first failure with u, then v, in
generator order and the variable index ascending. Enumeration over all
collections of square-free degree-d monomials runs on packed bitmasks; the
survivors are rebuilt as ideals through the ordinary constructors.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import DomainError
from .ideals import Monomial, MonomialIdeal, make_ideal, squarefree_monomials

NOT_SINGLE_DEGREE = "not_single_degree"
NO_EXCHANGE_INDEX = "no_exchange_index"

# brute-force relabeling below walks all n! permutations
ENUMERATION_MAX_N = 7
# enumeration scans all 2^C(n,d) collections; (6, 3) at 2^20 takes 8-10 s
ENUMERATION_MAX_LAYER = 20
ENUMERATION_CACHE_SIZE = 32  # (n, d, flag) results enumerate_matroidal keeps


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
    (_exchange_failure); every other single-degree input runs on
    exponent tuples, where membership of the exchanged monomial is a set
    lookup because it has the degree of every generator. Both routes
    visit u, then v, in generator order and the index i in ascending
    order, so failure_witness is the first failing (u, v, i) in that
    order whichever route ran.
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
    exchanges. allowed maps e to the f's for which u - e + f is a member,
    computed for the current u the first time some v asks for it, so
    (u, v) fails at e iff e is not in v and allowed[e] & v == 0. The
    order is a, then b, then e ascending.
    """
    members = set(masks)
    union = 0
    for m in masks:
        union |= m
    for a, u in enumerate(masks):
        outside = union & ~u
        allowed = {}
        for b, v in enumerate(masks):
            rest = u & ~v  # empty when b == a
            while rest:
                e = rest & -rest
                swaps = allowed.get(e)
                if swaps is None:
                    base = u ^ e
                    swaps = 0
                    free = outside
                    while free:
                        f = free & -free
                        if base | f in members:
                            swaps |= f
                        free ^= f
                    allowed[e] = swaps
                if not swaps & v:
                    return a, b, e
                rest ^= e
    return None


def is_matroidal(ideal):
    """Square-free and polymatroidal; the zero ideal raises as in is_polymatroidal."""
    return ideal.is_squarefree and is_polymatroidal(ideal).holds


def squarefree_veronese(n, d):
    """Ideal of all square-free degree-d monomials in n variables."""
    if not 1 <= d <= n:
        raise DomainError(f"square-free Veronese needs 1 <= d <= n, got d={d}, n={n}")
    return make_ideal(n, squarefree_monomials(n, d))


def veronese(n, d):
    """The d-th power of the maximal ideal: all degree-d monomials."""
    if d < 1:
        raise DomainError(f"Veronese degree must be positive, got {d}")
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
    hence the hard guards on n and on C(n,d). Results are kept in a
    bounded cache with one entry per (n, d, flag), however the flag is
    passed.
    """
    return _enumerate_matroidal(n, d, bool(full_support_only))


@functools.lru_cache(maxsize=ENUMERATION_CACHE_SIZE)
def _enumerate_matroidal(n, d, full_support_only):
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise DomainError(f"enumeration limited to 1 <= n <= {ENUMERATION_MAX_N}, got n={n}")
    if not 1 <= d <= n:
        raise DomainError(f"enumeration needs 1 <= d <= n, got d={d}, n={n}")
    count = math.comb(n, d)
    if count > ENUMERATION_MAX_LAYER:
        raise DomainError(f"enumeration for n={n}, d={d} would scan 2^{count} collections; "
                          f"limited to 2^{ENUMERATION_MAX_LAYER}")
    layer = squarefree_monomials(n, d)
    layer_masks = [m.bitmask() for m in layer]
    full = (1 << n) - 1
    found = []
    for selector in range(1, 1 << count):
        masks = [layer_masks[k] for k in range(count) if (selector >> k) & 1]
        if full_support_only:
            covered = 0
            for m in masks:
                covered |= m
            if covered != full:
                continue
        if _exchange_failure(masks) is None:
            found.append(make_ideal(n, [layer[k] for k in range(count)
                                        if (selector >> k) & 1]))
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
    """Keep one representative per variable-relabeling class.

    Groups by sorted variable occurrence counts first, then brute-forces
    all permutations inside a group to find the lexicographically least
    relabeled generator tuple. Intended for small n only.
    """
    seen = {}
    for ideal in ideals:
        if ideal.n > ENUMERATION_MAX_N:
            raise DomainError(f"relabeling pass limited to n <= {ENUMERATION_MAX_N}")
        perms = itertools.permutations(range(1, ideal.n + 1))
        least = min(tuple(g.exponents for g in _relabel(ideal, p).gens) for p in perms)
        key = (_occurrence_signature(ideal), least)
        seen.setdefault(key, ideal)
    return tuple(seen.values())
