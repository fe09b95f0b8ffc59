"""Monomials and monomial ideals with exact integer arithmetic.

Variables are 1-indexed as x1..xn. A monomial is an exponent vector; an
ideal is its unique minimal generating set, stored in a canonical order so
that equal ideals compare equal structurally. Everything here is immutable
and field-free: no coefficients, no floats.

The square-free bit layout lives here alone: a set of variable indices
(a support, a face, a prime) is an int whose bit k-1 stands for x_k;
other modules convert with support_to_mask and mask_to_support and
filter a family of masks down to its inclusion-minimal members with
_minimal_masks. _layer_masks holds C(n, d) before it lists d-subsets.

A monomial caches its views (degree, support, support mask) and an ideal
its derived data (degree, and in its memo the generator masks, the
classes of the variables under the swaps that fix it, and what other
modules compute on it) outside the dataclass fields. Symmetry is one
scan and one key: _swap_classes, the package's one swap scan for ideals
and witnesses, gives the classes of the variables, and _class_roots
reads the generator orbits off them. Membership and the colon on a
square-free ideal, and the square-free member listing on any, work on
masks: a square-free g divides any u iff mask(g) lies in u's support
mask. Other ideals divide exponent tuples.

The member listing reads a table of 2^n bits, bit m set iff the mask m
holds a square-free generator's mask, built once per ideal by up-closure
(see _member_table). The table is built only when n <= MEMBER_TABLE_MAX_N,
so it takes at most 2 MiB, and when its 2^n bits are at most four times
candidates * generators, the mask tests the generator scan makes at
worst over the degrees from the least generator degree up to n.
Otherwise the generator scan runs. On the measured shapes the table wins
below a ratio 2^n / (candidates * generators) of about 4 and the scan
above about 10. _member_layers, the witness layers, holds the candidates
of all its degrees against MEMBER_BUDGET at once, before any is listed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceeded, DomainError, StructuralError

# the member table holds 2^n bits: 2 MiB at n = 24
MEMBER_TABLE_MAX_N = 24
# square-free candidates one listing may test: sum_{k=d..n} C(n, k) for
# the witness layers, C(n, d) for one walk of _layer_masks; every n <= 20
# fits, K_{10,10} with 2^20 - 21 of them included
MEMBER_BUDGET = 1 << 20


def exponent_vector(values):
    """The exponents as a tuple of ints; refuses negative and non-integral ones.

    int() alone would truncate 1.5 to 1, so each value must equal its
    int(): integral floats and bools pass, 0.9 and Fraction(1, 2) do not.
    Infinities and nan are refused the same way; other values int() cannot
    read ("a") raise its own error.
    """
    values = tuple(values)
    try:
        exps = tuple(map(int, values))
    except (OverflowError, ValueError):
        # int() raises OverflowError only on an infinity; nan is unequal to itself
        if any(v != v or v in (math.inf, -math.inf) for v in values):
            raise StructuralError(f"non-finite exponent in {values}") from None
        raise
    if min(exps, default=0) < 0:
        raise StructuralError(f"negative exponent in {values}")
    if exps != values:
        raise StructuralError(f"non-integral exponent in {values}")
    return exps


def support_to_mask(support):
    """Bitmask of a set of 1-based variable indices: bit k-1 stands for x_k."""
    return sum(1 << (k - 1) for k in support)


def mask_to_support(mask):
    """The 1-based index set a bitmask stands for; inverse of support_to_mask."""
    return frozenset(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


@dataclass(frozen=True)
class Monomial:
    """A monomial x1^e1 * ... * xn^en as its exponent tuple.

    The public constructor converts every exponent with int() and refuses
    negative and non-integral ones. Monomials the package derives itself
    (products, quotients, gcds, lcms, from_bitmask) come from _trusted,
    which skips both. Views that scan the exponents are cached outside the
    fields, so equality, hashing, repr, pickles and copies see exponents alone.
    """

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents", exponent_vector(self.exponents))

    @classmethod
    def _trusted(cls, exponents):
        """Monomial of a tuple of non-negative ints; no conversion, no scan."""
        monomial = object.__new__(cls)
        monomial.__dict__["exponents"] = exponents
        return monomial

    @classmethod
    def one(cls, n):
        return cls((0,) * _variable_count(n))

    @classmethod
    def variable(cls, n, i):
        """The monomial x_i in n variables."""
        if i not in range(1, _variable_count(n) + 1):
            raise StructuralError(f"variable index {i} outside 1..{n}")
        return cls(tuple(1 if k == i else 0 for k in range(1, n + 1)))

    @classmethod
    def from_support(cls, n, support):
        """Square-free monomial whose support is the given set of indices."""
        support = frozenset(support)
        if not support <= set(range(1, _variable_count(n) + 1)):
            raise StructuralError(f"support {sorted(support)} outside 1..{n}")
        return cls(tuple(1 if k in support else 0 for k in range(1, n + 1)))

    @classmethod
    def from_bitmask(cls, n, mask):
        """Square-free monomial from an int bitmask (bit i-1 set means x_i occurs)."""
        if not isinstance(mask, int) or mask < 0 or mask >= 1 << _variable_count(n):
            raise StructuralError(f"bitmask {mask!r} outside the ints in [0, 2^{n})")
        monomial = cls._trusted(tuple((mask >> k) & 1 for k in range(n)))
        monomial.__dict__["_mask"] = mask  # seeds the cached view
        return monomial

    @property
    def n(self):
        return len(self.exponents)

    @cached_property
    def degree(self):
        return sum(self.exponents)

    @cached_property
    def support(self):
        return frozenset(i + 1 for i, e in enumerate(self.exponents) if e > 0)

    @cached_property
    def is_squarefree(self):
        return all(e <= 1 for e in self.exponents)

    @cached_property
    def _mask(self):
        """Mask of the support, square-free or not: bit k-1 set iff x_k occurs."""
        return support_to_mask(self.support)

    @property
    def is_one(self):
        return not any(self.exponents)

    def degree_in(self, i):
        """Exponent of x_i."""
        return self.exponents[i - 1]

    def bitmask(self):
        """The support mask of a square-free monomial, inverse of from_bitmask."""
        if not self.is_squarefree:
            raise StructuralError(f"{self} is not square-free")
        return self._mask

    def divides(self, other):
        if len(self.exponents) != len(other.exponents):
            raise _length_mismatch(self, other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other):
        if len(self.exponents) != len(other.exponents):
            raise _length_mismatch(self, other)
        return Monomial._trusted(tuple(map(max, self.exponents, other.exponents)))

    def gcd(self, other):
        if len(self.exponents) != len(other.exponents):
            raise _length_mismatch(self, other)
        return Monomial._trusted(tuple(map(min, self.exponents, other.exponents)))

    def __mul__(self, other):
        if len(self.exponents) != len(other.exponents):
            raise _length_mismatch(self, other)
        return Monomial._trusted(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other):
        """Exact quotient; the divisor must divide self."""
        if not other.divides(self):
            raise StructuralError(f"{other} does not divide {self}")
        return Monomial._trusted(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __str__(self):
        if self.is_one:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents, start=1):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts)

    def __reduce__(self):
        # rebuild from the exponents: the cached views are not state
        return Monomial, (self.exponents,)


def _variable_count(n):
    """n, if it is a plain int of at least 0; 2.0 and True are refused."""
    if type(n) is not int or n < 0:
        raise StructuralError(f"need a non-negative int number of variables, got n={n!r}")
    return n


def _length_mismatch(a, b):
    # zip would silently truncate the longer exponent vector
    return StructuralError(
        f"exponent vectors of lengths {a.n} and {b.n} in {a} and {b}")


def squarefree_monomials(n, d):
    """All square-free degree-d monomials in n variables, in the lex order of _layer_masks."""
    return tuple(Monomial.from_bitmask(n, m)
                 for m in _layer_masks(_variable_count(n), _member_degree(d)))


def _member_degree(d):
    """d, if it is a plain int of at least 0; 2.0, True and -1 are refused."""
    if type(d) is not int or d < 0:
        raise DomainError(f"need a non-negative int degree, got {d!r}")
    return d


def _layer_masks(n, d):
    """The d-subsets of [n] as masks, in lex order; their C(n, d) are held first."""
    _hold_member_budget(n, d, d)
    return tuple(map(sum, itertools.combinations([1 << k for k in range(n)], d)))


def _minimal_masks(masks):
    """The inclusion-minimal masks among masks, deduplicated, by ascending size."""
    kept = []
    for _, same in itertools.groupby(sorted(set(masks), key=int.bit_count), int.bit_count):
        lower = tuple(kept)  # distinct masks of one size never contain each other
        kept.extend(m for m in same if not any(not k & ~m for k in lower))
    return kept


def _minimalize(monomials):
    """Drop every monomial strictly divisible by another; dedupe.

    Distinct monomials of one degree never divide each other, so each
    degree is tested only against the monomials kept from lower degrees;
    a dropped one is divisible by a kept one anyway.
    """
    by_degree = {}
    for m in set(monomials):
        by_degree.setdefault(m.degree, []).append(m)
    kept = []
    for degree in sorted(by_degree):
        lower = tuple(kept)
        kept.extend(m for m in by_degree[degree]
                    if not any(g.divides(m) for g in lower))
    # descending lex on exponent vectors, so x1-dominant generators come first
    kept.sort(key=lambda m: m.exponents, reverse=True)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators.

    gens is the unique minimal generating set, in descending lexicographic
    order of exponent vectors, so equality of ideals is equality of fields.
    The zero ideal has no generators; the unit ideal is generated by 1.
    n must be a plain int of at least 1: 2.0 and True are refused.
    """

    n: int
    gens: tuple

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise StructuralError(f"need an int n of at least one variable, got n={self.n!r}")
        object.__setattr__(self, "gens", tuple(self.gens))
        for g in self.gens:
            if g.n != self.n:
                raise StructuralError(
                    f"generator {g} has {g.n} exponents, ambient n={self.n}")
        exps = [g.exponents for g in self.gens]
        if any(a <= b for a, b in zip(exps, exps[1:])):
            raise StructuralError("generators out of canonical order; use make_ideal")
        # a monomial divides a distinct one only from a lower degree, so
        # the pairwise scan is owed only across degrees, lower into higher
        degrees = [g.degree for g in self.gens]
        self.__dict__["degree"] = degrees[0] if len(set(degrees)) == 1 else None
        if self.degree is None:
            for (a, da), (b, db) in itertools.combinations(zip(self.gens, degrees), 2):
                if da < db and a.divides(b) or db < da and b.divides(a):
                    raise StructuralError(f"generators {a}, {b} are not minimal")

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    @classmethod
    def unit(cls, n):
        return cls(n, (Monomial.one(n),))

    @classmethod
    def maximal(cls, n):
        """The ideal generated by all the variables."""
        return make_ideal(n, [Monomial.variable(n, i) for i in range(1, _variable_count(n) + 1)])

    @classmethod
    def from_supports(cls, n, supports):
        """Square-free ideal generated by the monomials with the given supports."""
        return make_ideal(n, [Monomial.from_support(n, s) for s in supports])

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_unit(self):
        return len(self.gens) == 1 and self.gens[0].is_one

    @property
    def mu(self):
        """Number of minimal generators."""
        return len(self.gens)

    @property
    def support(self):
        return frozenset().union(*(g.support for g in self.gens)) if self.gens else frozenset()

    @property
    def masks(self):
        """Generator bitmasks in generator order; None unless all are square-free."""
        return self._memo("_masks", _generator_masks)

    @property
    def is_squarefree(self):
        return self.masks is not None

    def _memo(self, key, compute, *args):
        """compute(self, *args), worked out once per instance and key."""
        if key not in self.__dict__:
            self.__dict__[key] = compute(self, *args)
        return self.__dict__[key]

    def contains(self, u):
        """Monomial membership: some minimal generator divides u.

        A square-free ideal tests every monomial on masks: a square-free g
        divides u iff g's mask lies in the mask of u's support, whether or
        not u is square-free. Other ideals divide exponent tuples.
        """
        if u.n != self.n:
            raise StructuralError(f"{u} has {u.n} exponents, ambient n={self.n}")
        masks = self.masks
        if masks is None:
            return any(g.divides(u) for g in self.gens)
        mask = u._mask
        return any(not g & ~mask for g in masks)

    def colon(self, u):
        """The colon ideal (I : u) for a monomial u.

        On a square-free ideal g / gcd(g, u) is g & ~supp(u) on the masks,
        and the minimal ones are those that strictly contain no other.
        """
        if self.is_zero:
            return self
        masks = self.masks
        if masks is None:
            return make_ideal(self.n, [g / g.gcd(u) for g in self.gens])
        if u.n != self.n:
            raise _length_mismatch(self.gens[0], u)
        keep = ~u._mask
        gens = sorted((Monomial.from_bitmask(self.n, m)
                       for m in _minimal_masks(g & keep for g in masks)),
                      key=lambda g: g.exponents, reverse=True)
        return MonomialIdeal(self.n, tuple(gens))

    def intersect(self, other):
        """Intersection via the pairwise lcm table."""
        self._check_ambient(other)
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.n)
        return make_ideal(self.n, [g.lcm(h) for g in self.gens for h in other.gens])

    def product(self, other):
        self._check_ambient(other)
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.n)
        return make_ideal(self.n, [g * h for g in self.gens for h in other.gens])

    def __mul__(self, other):
        return self.product(other)

    def plus(self, other):
        """The sum I + J, minimalized."""
        self._check_ambient(other)
        return make_ideal(self.n, list(self.gens) + list(other.gens))

    def squarefree_members(self, degree):
        """Square-free degree-d monomials lying in the ideal, lex order."""
        return tuple(Monomial.from_bitmask(self.n, m)
                     for m in self._squarefree_member_masks(_member_degree(degree)))

    def _squarefree_member_masks(self, degree):
        """Masks of the square-free degree-d monomials in the ideal, lex order.

        Only square-free generators can divide a square-free monomial, so
        membership is a mask test against theirs, whatever the ideal: a
        lookup in the member table where the size rule builds one (see the
        module docstring), the generator scan otherwise. Below the least
        generator degree nothing is listed, and _layer_masks refuses nothing.
        """
        masks, least, table = self._memo("_member_table", _member_table)
        if degree < least:
            return ()
        layer = _layer_masks(self.n, degree)
        if table is None:
            return tuple(m for m in layer if any(not g & ~m for g in masks))
        return tuple(m for m in layer if table[m >> 3] >> (m & 7) & 1)

    def _member_layers(self):
        """Member masks by degree, n down to the least generator degree; sized once first."""
        least = self._memo("_member_table", _member_table)[1]
        _hold_member_budget(self.n, least, self.n)
        return tuple(map(self._squarefree_member_masks, range(self.n, least - 1, -1)))

    def summarize(self):
        return IdealSummary(
            is_squarefree=self.is_squarefree,
            is_single_degree=self.degree is not None,
            degree=self.degree,
            is_full_supported=len(self.support) == self.n,  # support lies in [n]
            mu=self.mu,
        )

    def __reduce__(self):
        # rebuild from the fields: the memo may hold tables that cannot be pickled
        return MonomialIdeal, (self.n, self.gens)

    def _check_ambient(self, other):
        if other.n != self.n:
            raise StructuralError(f"ambient mismatch: n={self.n} vs n={other.n}")

    def __str__(self):
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def _generator_masks(ideal):
    if all(g.is_squarefree for g in ideal.gens):
        return tuple(g._mask for g in ideal.gens)
    return None


def _candidate_count(n, d, top):
    """The square-free monomials of degree d to top in n variables: sum_{k=d..top} C(n, k)."""
    return sum(math.comb(n, k) for k in range(d, top + 1))


def _hold_member_budget(n, d, top):
    """Raise BudgetExceeded in stage rank past MEMBER_BUDGET candidates of degree d to top."""
    candidates = _candidate_count(n, d, top)
    if candidates > MEMBER_BUDGET:
        terms = f"C({n}, {d})" if d == top else f"sum of C({n}, k) for k = {d}..{top}"
        raise BudgetExceeded("rank", f"the {'listing tests' if d == top else 'layers test'} "
                             f"{candidates} square-free candidates ({terms})",
                             "MEMBER_BUDGET", MEMBER_BUDGET)


def _member_table(ideal):
    """The square-free generator masks, their least size, and the member table or None.

    The table is 2^n bits as little-endian bytes: bit m is set iff some
    generator mask lies in m. It starts from the generator masks, and
    step i adds m | bit i to every member m without bit i.
    """
    masks = ideal.masks
    if masks is None:
        masks = tuple(g._mask for g in ideal.gens if g.is_squarefree)
    n, size = ideal.n, 1 << ideal.n
    least = min(map(int.bit_count, masks), default=n + 1)
    if n > MEMBER_TABLE_MAX_N or size > 4 * _candidate_count(n, least, n) * len(masks):
        return masks, least, None
    seeds = bytearray((size + 7) >> 3)
    for g in masks:
        seeds[g >> 3] |= 1 << (g & 7)
    table = int.from_bytes(seeds, "little")
    for i in range(n):
        step = 1 << i
        # the masks without bit i: runs of step ones every 2 * step bits,
        # doubled up to 2^n bits
        without, width = (1 << step) - 1, 2 * step
        while width < size:
            without |= without << width
            width *= 2
        table |= (table & without) << step
    return masks, least, table.to_bytes(len(seeds), "little")


def _swap_orbits(ideal):
    """The classes of the variables under the swaps that fix a nonzero ideal.

    The swaps are the (i j) that map the generators onto themselves,
    tested on masks if the ideal is square-free. Returns, for each
    variable, 0-based, the least variable of its class. Kept in the
    ideal's memo; certify_witness refines the classes and reads the
    generator orbits off them (_class_roots).
    """
    return ideal._memo("_swap_orbits", _scan_swaps)


def _scan_swaps(ideal):
    fixes = (_fixes_terms([dict.fromkeys((g.exponents for g in ideal.gens), 1)])
             if ideal.masks is None else _fixes_masks([frozenset(ideal.masks)]))
    return _swap_classes(ideal.n, fixes)


def _swap_classes(n, fixes, within=None):
    """Least variable of the class of each variable under the swaps (i j) with fixes(i, j).

    fixes(i, j) must say whether (i j) fixes some set of objects. Such
    swaps are the transpositions of a group, an equivalence relation on
    the variables since (i k) = (i j)(j k)(i j). So j is tested only
    against the least variable i of each class below it, and, if within
    gives the least variable of each class of another such relation, only
    inside j's class of it. The swaps that pass generate the product of
    the symmetric groups on the classes.
    """
    least = list(range(n))
    for j in range(1, n):
        for i in range(j):
            if least[i] == i and (within is None or within[i] == within[j]) and fixes(i, j):
                least[j] = i
                break
    return tuple(least)


def _fixes_masks(sets):
    """fixes(i, j) for _swap_classes: (i j) maps each set of masks onto itself."""
    def fixes(i, j):
        swap = 1 << i | 1 << j
        for masks in sets:
            for m in masks:
                # only a mask holding one of bits i, j moves
                if (m >> i ^ m >> j) & 1 and m ^ swap not in masks:
                    return False
        return True
    return fixes


def _fixes_terms(term_maps):
    """fixes(i, j) for _swap_classes: (i j) maps each {exponents: coefficient} onto itself."""
    def fixes(i, j):
        return all(terms.get(_swapped(ev, i, j)) == c
                   for terms in term_maps for ev, c in terms.items())
    return fixes


def _swapped(ev, i, j):
    """The exponent tuple with entries i and j exchanged."""
    out = list(ev)
    out[i], out[j] = ev[j], ev[i]
    return tuple(out)


def _class_roots(vectors, least):
    """For each exponent vector, the first vector of its orbit under the class swaps.

    least gives the least variable of each variable's class, and the
    group is the product of the symmetric groups on the classes. Two
    vectors lie in one orbit iff they hold the same multiset of exponents
    on every class, which is what the key sorted(zip(least, v)) records.
    """
    first = {}
    return tuple(first.setdefault(tuple(sorted(zip(least, v))), k)
                 for k, v in enumerate(vectors))


@dataclass(frozen=True)
class IdealSummary:
    """Shape report for one ideal. degree is set only when single-degree."""

    is_squarefree: bool
    is_single_degree: bool
    degree: int | None
    is_full_supported: bool
    mu: int


def make_ideal(n, raw_gens):
    """Build the ideal generated by raw_gens, minimalizing as needed.

    Accepts Monomials or plain exponent sequences. Idempotent: feeding an
    ideal's own generators back in reproduces the same ideal.
    """
    monomials = []
    for g in raw_gens:
        m = g if isinstance(g, Monomial) else Monomial(tuple(g))
        if m.n != n:
            raise StructuralError(f"generator {m} has {m.n} exponents, expected {n}")
        monomials.append(m)
    return MonomialIdeal(n, _minimalize(monomials))
