"""A small exact Groebner engine for radical membership certificates.

Coefficients are arbitrary-precision rationals or a prime field GF(p).
The monomial order is degree-reverse-lexicographic, fixed for the whole
engine; the auxiliary variable used by the radical test is appended as
the last (hence cheapest) variable on purpose, keeping leading terms in
the original variables.

The public types speak exponent tuples; inside the engine a monomial is
one int. Field k of it (width bits, lowest field first) holds the partial
degree e_1 + ... + e_{k+1}, so the top field is the total degree and
integer order is degrevlex. The packing is linear: multiplying monomials
adds ints. The exponents themselves come back with one shift, one
subtraction and a mask, and divisibility of their packed vectors is one
subtraction tested against the guard bits (the top bit of every field).
Division pops pending terms off a max-heap (Monagan-Pearce 2007).
Buchberger takes pairs lowest lcm first, prunes them with the
Gebauer-Moeller criteria (1988), and runs under a hard pair budget.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .errors import DomainError, PairBudgetExceeded, StructuralError
from .fields import require_field, require_prime
from .ideals import (Monomial, _class_roots, _fixes_masks, _fixes_terms, _swap_classes,
                     _swap_orbits, exponent_vector)

PAIR_BUDGET = 10 ** 6
DEFAULT_PRIME = 32003
_MIN_WIDTH = 8


def _width_for(degree):
    """Field width whose guard bit stays clear up to twice the degree."""
    return max(_MIN_WIDTH, degree.bit_length() + 2)


def _pack(ev, width):
    """Packed degrevlex key: partial degrees, the total degree on top."""
    packed = total = 0
    for k, e in enumerate(ev):
        total += e
        packed |= total << (width * k)
    return packed


def _order_key(ev):
    """Degrevlex sort key of an exponent tuple; larger key, larger monomial."""
    degree = sum(ev)
    return degree, _pack(ev, _width_for(degree))


def _ev_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _unit(nvars, field):
    """The constant polynomial 1; the field is not checked again."""
    return Polynomial._raw(nvars, {(0,) * nvars: Fraction(1) if field is None else 1}, field)


def _residue(c, p):
    """The image a * b^-1 mod p in GF(p) of a rational c = a/b."""
    c = Fraction(c)
    if c.denominator % p == 0:
        raise DomainError(f"denominator of {c} vanishes mod {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


class Polynomial:
    """Sparse polynomial as a map from exponent tuple to coefficient.

    field None means rational coefficients; a prime p means GF(p). Every
    coefficient is read as a rational a/b (an int or a Fraction) and over
    GF(p) stored as a * b^-1 mod p, so Fraction(5, 2) is 6 in GF(7); a
    denominator divisible by p raises DomainError. A float is read as an
    int when it is integral and refused with DomainError otherwise, since
    its binary value is not the decimal it was written as (0.1 is not
    1/10). Term maps are normalized on construction and never mutated
    afterwards.
    """

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars, terms=None, field=None):
        require_field(field)
        self.nvars = nvars
        self.field = field
        clean = {}
        for ev, c in (terms or {}).items():
            ev = exponent_vector(ev)
            if len(ev) != nvars:
                raise StructuralError(f"term {ev} has {len(ev)} exponents, expected {nvars}")
            if isinstance(c, float):
                if not c.is_integer():
                    raise DomainError(f"non-integral float coefficient {c!r}")
                c = int(c)
            c = Fraction(c) if field is None else _residue(c, field)
            if c:
                clean[ev] = c
        self.terms = clean

    @classmethod
    def _raw(cls, nvars, terms, field):
        """Wrap a term map that is already normalized; checks nothing."""
        poly = object.__new__(cls)
        poly.nvars, poly.field, poly.terms = nvars, field, terms
        return poly

    @classmethod
    def zero(cls, nvars, field=None):
        return cls(nvars, {}, field)

    @classmethod
    def one(cls, nvars, field=None):
        return cls(nvars, {(0,) * nvars: 1}, field)

    @classmethod
    def from_monomial(cls, monomial, field=None):
        return cls(monomial.n, {monomial.exponents: 1}, field)

    @classmethod
    def sum_of(cls, monomials, field=None):
        """Coefficient-1 sum of distinct monomials."""
        monomials = list(monomials)
        if not monomials:
            raise DomainError("empty monomial sum")
        nvars = monomials[0].n
        terms = {}
        for m in monomials:
            terms[m.exponents] = terms.get(m.exponents, 0) + 1
        return cls(nvars, terms, field)

    @property
    def is_zero(self):
        return not self.terms

    def leading(self):
        """Leading (exponent tuple, coefficient) or None for zero."""
        if not self.terms:
            return None
        ev = max(self.terms, key=_order_key)
        return ev, self.terms[ev]

    def scale(self, c):
        return Polynomial(self.nvars, {ev: v * c for ev, v in self.terms.items()},
                          self.field)

    def _merged(self, other, sign):
        if other.nvars != self.nvars or other.field != self.field:
            raise StructuralError("mixed variable counts or fields")
        terms = dict(self.terms)
        for ev, c in other.terms.items():
            terms[ev] = terms.get(ev, 0) + sign * c
        return Polynomial(self.nvars, terms, self.field)

    def __add__(self, other):
        return self._merged(other, 1)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if other.nvars != self.nvars or other.field != self.field:
            raise StructuralError("mixed variable counts or fields")
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                ev = _ev_add(ea, eb)
                terms[ev] = terms.get(ev, 0) + ca * cb
        return Polynomial(self.nvars, terms, self.field)

    def in_field(self, field):
        """Reinterpret over GF(p) or (for field None) the rationals.

        Rational coefficients map to GF(p) by _residue, the constructor's
        rule; leaving a prime field again is not defined.
        """
        if field == self.field:
            return self
        if self.field is not None:
            raise StructuralError("cannot lift coefficients out of a prime field")
        require_prime(field)
        terms = ((ev, _residue(c, field)) for ev, c in self.terms.items())
        return Polynomial._raw(self.nvars, {ev: c for ev, c in terms if c}, field)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.nvars == other.nvars
                and self.field == other.field
                and self.terms == other.terms)

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for ev in sorted(self.terms, key=_order_key, reverse=True):
            c = self.terms[ev]
            m = str(Monomial(ev))
            if m == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(m)
            elif c == -1:
                parts.append(f"-{m}")
            else:
                parts.append(f"{c}*{m}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"Polynomial({self})"


@dataclass(frozen=True)
class BuchbergerStats:
    """Work counters of one Buchberger run; equal input gives equal counts.

    pairs_pushed counts the S-pairs queued. Of the pairs a new basis
    element forms, skipped_chain never entered the queue because the lcm
    of another new pair divides theirs (Gebauer-Moeller criteria M and F),
    and skipped_coprime because the two leading terms are coprime;
    skipped_bk left the queue later, when a newer leading term divided
    their lcm strictly (criterion B_k). reductions counts the
    S-polynomials reduced, zero_reductions those that vanished, and
    peak_basis the most non-redundant basis elements held at once.
    """

    pairs_pushed: int = 0
    skipped_coprime: int = 0
    skipped_chain: int = 0
    skipped_bk: int = 0
    reductions: int = 0
    zero_reductions: int = 0
    peak_basis: int = 0


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced basis: monic generators with pairwise reduced terms.

    stats holds the work counters of the run that built it and takes no
    part in equality.
    """

    generators: tuple
    stats: BuchbergerStats = dataclass_field(default=BuchbergerStats(), compare=False)

    @property
    def is_trivial(self):
        """Whether the basis presents the unit ideal."""
        return (len(self.generators) == 1
                and self.generators[0].terms == {(0,) * self.generators[0].nvars: 1})


class _Repack(Exception):
    """A basis degree outgrew the packed field width; rerun wider."""


class _Packing:
    """Masks for packed monomials in nvars variables, width bits per field."""

    def __init__(self, nvars, width):
        self.nvars = nvars
        self.width = width
        self.ones = sum(1 << (width * k) for k in range(nvars))
        self.low = (1 << (width * nvars)) - 1
        self.guard = self.ones << (width - 1)
        self.top = width * max(nvars - 1, 0)
        self.degree_limit = 1 << (width - 2)  # basis degrees; lcms stay below twice it

    def packed(self, poly):
        """Term map of a polynomial with packed monomials."""
        width = self.width
        return {_pack(ev, width): c for ev, c in poly.terms.items()}

    def exponents(self, m):
        """Packed exponent vector (x1 in the lowest field) of a packed monomial."""
        return (m - (m << self.width)) & self.low

    def unpacked(self, terms, field):
        """Polynomial from (packed monomial, coefficient) pairs."""
        width, nvars = self.width, self.nvars
        mask = (1 << width) - 1
        out = {}
        for m, c in terms:
            e = (m - (m << width)) & self.low
            ev = tuple((e >> (width * k)) & mask for k in range(nvars))
            out[ev] = c if field is not None else Fraction(c)
        return Polynomial._raw(nvars, out, field)

    def monomial(self, e):
        """Packed monomial of a packed exponent vector."""
        return (e * self.ones) & self.low


def _monic(terms, p):
    """Scale (monomial, coefficient) pairs, largest first, to lead coefficient 1."""
    lead_c = terms[0][1]
    if lead_c == 1:
        return terms
    if p is not None:
        inv = pow(lead_c, -1, p)
        return [(m, c * inv % p) for m, c in terms]
    return [(m, Fraction(c) / lead_c) for m, c in terms]


def _normalized(terms, p):
    """Monic over GF(p); over Q integral and primitive with a positive lead.

    Over Q this keeps the engine on ints: reduction by a basis element
    scales the pending terms by its lead coefficient instead of dividing.
    """
    if p is not None:
        return _monic(terms, p)
    _, ints = _cleared([c for _, c in terms])
    g = math.gcd(*ints)
    if ints[0] < 0:
        g = -g
    return [(m, v // g) for (m, _), v in zip(terms, ints)]


def _cleared(coefficients):
    """Least common denominator d of rationals, and the ints c * d."""
    den = math.lcm(*(c.denominator for c in coefficients))
    return den, [c.numerator * (den // c.denominator) for c in coefficients]


def _reduce(work, reducers, packing, p, scale=1):
    """Remainder of the term dict work against reducers; consumes work.

    reducers holds (lead monomial, lead exponents, lead coefficient, tail
    pairs) of normalized polynomials, in the order they are tried. One
    loop serves every field. Over Q the pending terms are ints standing
    for work / scale; a reducer whose lead coefficient does not divide
    the term's scales them all up. Over GF(p) every reducer is monic (each
    is built through _normalized), so that step never fires and the only
    difference is that new coefficients are reduced mod p. The pending
    terms sit on a max-heap, and a term cancelled after it was
    queued is skipped when it surfaces. The remainder comes out exact,
    largest term first, and no term of it is divisible by a reducer lead.
    """
    width, low, guard = packing.width, packing.low, packing.guard
    heap = [-m for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    remainder = []
    while heap:
        m = -pop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        e = (m - (m << width)) & low
        for lead, lead_e, lead_c, tail in reducers:
            if not (e - lead_e) & guard:
                break
        else:
            remainder.append((m, c if scale == 1 else Fraction(c, scale)))
            continue
        shift = m - lead
        if c % lead_c:
            g = math.gcd(c, lead_c)
            up = lead_c // g
            for t in work:
                work[t] *= up
            scale *= up
            c //= g
        else:
            c //= lead_c
        for t, tc in tail:
            t += shift
            v = work.get(t)
            if v is None:
                work[t] = -c * tc if p is None else -c * tc % p
                push(heap, -t)
            else:
                v = v - c * tc if p is None else (v - c * tc) % p
                if v:
                    work[t] = v
                else:
                    del work[t]
    return remainder


def _check_ring(polys, nvars, field):
    for poly in polys:
        if poly.nvars != nvars or poly.field != field:
            raise StructuralError("mixed variable counts or fields")


def _max_degree(polys):
    return max((sum(ev) for poly in polys for ev in poly.terms), default=0)


def normal_form(f, basis):
    """Remainder of f under multivariate division by the basis.

    Accepts a GroebnerBasis or any iterable of polynomials, tried in the
    given order; against a Groebner basis the remainder is zero exactly
    for ideal members.
    """
    if isinstance(basis, GroebnerBasis):
        polys = basis.generators
    else:
        polys = [p for p in basis if not p.is_zero]
    _check_ring(polys, f.nvars, f.field)
    if f.is_zero or not polys:
        return f
    packing = _Packing(f.nvars, _width_for(_max_degree([f, *polys])))
    reducers = []
    for poly in polys:
        terms = _normalized(sorted(packing.packed(poly).items(), reverse=True), f.field)
        lead, lead_c = terms[0]
        reducers.append((lead, packing.exponents(lead), lead_c, terms[1:]))
    work, scale = packing.packed(f), 1
    if f.field is None:
        scale, ints = _cleared(list(work.values()))
        work = dict(zip(work, ints))
    remainder = _reduce(work, reducers, packing, f.field, scale)
    return packing.unpacked(remainder, f.field)


class _Buchberger:
    """One Buchberger run on packed, normalized polynomials.

    Basis elements are never deleted: elements holds each one as a
    reducer (lead, lead exponents, lead coefficient, tail) and exps its
    lead exponents, both indexed by creation. active lists the
    non-redundant ones, which reduce S-polynomials and meet each new
    element in pairs; pairs is a heap of (lcm monomial, i, j, lcm
    exponents).
    """

    def __init__(self, packing, p, pair_budget):
        self.packing, self.p, self.pair_budget = packing, p, pair_budget
        self.elements, self.exps = [], []
        self.active, self.reducers, self.pairs = [], [], []
        self.counts = dict.fromkeys(BuchbergerStats.__dataclass_fields__, 0)

    def run(self, inputs):
        """Reduced basis as (monomial, coefficient) lists, or None for the unit ideal."""
        for terms in inputs:
            if not self._add(_normalized(terms, self.p)):
                return None
        processed = 0
        packing, p, counts, elements = self.packing, self.p, self.counts, self.elements
        while self.pairs:
            lcm, i, j, _ = heapq.heappop(self.pairs)
            processed += 1
            if processed > self.pair_budget:
                raise PairBudgetExceeded(self.pair_budget)
            lead_i, _, c_i, tail_i = elements[i]
            lead_j, _, c_j, tail_j = elements[j]
            g = math.gcd(c_i, c_j)
            shift_i, shift_j, up_i, up_j = lcm - lead_i, lcm - lead_j, c_j // g, c_i // g
            work = {t + shift_i: c * up_i for t, c in tail_i}
            for t, c in tail_j:
                t += shift_j
                v = (work.get(t, 0) - c * up_j if p is None
                     else (work.get(t, 0) - c * up_j) % p)
                if v:
                    work[t] = v
                else:
                    work.pop(t, None)
            counts["reductions"] += 1
            remainder = _reduce(work, self.reducers, packing, p)
            if not remainder:
                counts["zero_reductions"] += 1
            elif not self._add(_normalized(remainder, p)):
                return None
        return self._interreduced()

    def _add(self, terms):
        """Adjoin one normalized element; False when it is a constant."""
        lead, lead_c = terms[0]
        if lead == 0:
            return False
        packing = self.packing
        if lead >> packing.top >= packing.degree_limit:
            raise _Repack
        k = len(self.elements)
        e_new = packing.exponents(lead)
        self.elements.append((lead, e_new, lead_c, terms[1:]))
        self.exps.append(e_new)
        self._update(k, e_new)
        return True

    def _update(self, k, e_new):
        """Gebauer-Moeller update of the pairs and the active set for element k.

        One pass over the new pairs (g, k), g active. Each lcm is computed
        inline on the packed exponents: the guard bits of (e | guard) - e_new
        mark the fields where e is at least e_new, and fill widens them to
        field masks. A pair is coprime exactly when its lcm is the sum of
        the two leads. Sorted by lcm, a linear extension of divisibility,
        with coprime pairs first and then later g first, a pair that is
        not coprime is dropped when the lcm of a pair kept before it
        divides its own (criteria M and F). Among equal lcms a coprime pair
        therefore wins, and otherwise the latest g. Kept coprime pairs are
        skipped (Buchberger's first criterion). A queued pair leaves the
        queue when e_new divides its lcm and both of its lcms with e_new
        differ from it (B_k).
        """
        packing, exps, counts = self.packing, self.exps, self.counts
        guard, shift = packing.guard, packing.width - 1
        body = packing.low ^ guard
        candidates = []
        for g in self.active:
            e = exps[g]
            wins = ((e | guard) - e_new) & guard
            fill = wins - (wins >> shift)
            lcm_e = (e & fill) | (e_new & ~fill & body)
            candidates.append((lcm_e, lcm_e != e + e_new, -g))
        candidates.sort()
        kept, fresh = [], []
        for lcm_e, shared, g in candidates:
            if shared:
                for other in kept:
                    if not (lcm_e - other) & guard:
                        counts["skipped_chain"] += 1
                        break
                else:
                    kept.append(lcm_e)
                    fresh.append((packing.monomial(lcm_e), -g, k, lcm_e))
            else:
                counts["skipped_coprime"] += 1
                kept.append(lcm_e)
        pairs, survivors = self.pairs, []
        for pair in pairs:
            lcm_e = pair[3]
            if (lcm_e - e_new) & guard:
                survivors.append(pair)
                continue
            for e in (exps[pair[1]], exps[pair[2]]):
                wins = ((e | guard) - e_new) & guard
                fill = wins - (wins >> shift)
                if (e & fill) | (e_new & ~fill & body) == lcm_e:
                    survivors.append(pair)
                    break
        counts["skipped_bk"] += len(pairs) - len(survivors)
        if len(survivors) < len(pairs):
            heapq.heapify(survivors)
        for pair in fresh:
            heapq.heappush(survivors, pair)
        self.pairs = survivors
        counts["pairs_pushed"] += len(fresh)
        self.active = [g for g in self.active if (exps[g] - e_new) & guard] + [k]
        counts["peak_basis"] = max(counts["peak_basis"], len(self.active))
        self.reducers = [self.elements[g] for g in self.active]

    def _interreduced(self):
        """Minimal leads, then every tail reduced by the other elements; monic."""
        exps, guard, elements = self.exps, self.packing.guard, self.elements
        minimal = []
        for g in sorted(self.active, key=lambda g: elements[g][0]):
            if all((exps[g] - exps[h]) & guard for h in minimal):
                minimal.append(g)
        basis = []
        for g in minimal:
            lead, _, lead_c, tail = elements[g]
            others = [elements[h] for h in minimal if h != g]
            basis.append(_monic([(lead, lead_c)]
                                + _reduce(dict(tail), others, self.packing, self.p), self.p))
        basis.sort(key=lambda terms: terms[0][0], reverse=True)
        return basis

    def stats(self):
        return BuchbergerStats(**self.counts)


def buchberger(gens):
    """Reduced Groebner basis of the given generators.

    Pairs are processed lowest lcm first; the Gebauer-Moeller criteria
    drop pairs that would reduce to zero. More than PAIR_BUDGET pairs
    (read once per call) raise PairBudgetExceeded. A unit discovered
    mid-run short-circuits to the trivial basis. The basis carries the
    run's work counters in stats.
    """
    polys = [g for g in gens if not g.is_zero]
    if not polys:
        return GroebnerBasis(())
    nvars, field = polys[0].nvars, polys[0].field
    _check_ring(polys, nvars, field)
    width, budget = _width_for(_max_degree(polys)), PAIR_BUDGET
    while True:
        packing = _Packing(nvars, width)
        run = _Buchberger(packing, field, budget)
        try:
            basis = run.run(sorted(packing.packed(p).items(), reverse=True) for p in polys)
        except _Repack:
            width *= 2
            continue
        if basis is None:
            return GroebnerBasis((_unit(nvars, field),), run.stats())
        return GroebnerBasis(tuple(packing.unpacked(terms, field) for terms in basis),
                             run.stats())


def radical_membership(f, gens):
    """Whether f lies in the radical of the ideal the gens generate.

    Adjoins one variable t (ordered last) and asks whether 1 - t*f turns
    the ideal into the whole ring, that is whether 1 reduces to zero
    against the extended basis; that happens exactly for members of the
    radical.
    """
    if f.is_zero:
        raise DomainError("radical membership of the zero polynomial is undefined")
    nvars, field = f.nvars, f.field
    gens = list(gens)
    _check_ring(gens, nvars, field)
    extended = [Polynomial._raw(nvars + 1, {ev + (0,): c for ev, c in g.terms.items()},
                                field)
                for g in gens]
    hook_terms = {(0,) * (nvars + 1): Fraction(1) if field is None else 1}
    for ev, c in f.terms.items():
        hook_terms[ev + (1,)] = -c if field is None else -c % field
    extended.append(Polynomial._raw(nvars + 1, hook_terms, field))
    basis = buchberger(extended)
    return normal_form(_unit(nvars + 1, field), basis).is_zero


@dataclass(frozen=True)
class CertifyStats:
    """Work counters of one certification; equal input gives equal counts.

    transpositions counts the swaps that generate certify's group, n minus
    the number of classes of variables; radical_tests counts the
    radical-membership tests run, one per orbit of generators.
    """

    transpositions: int = 0
    radical_tests: int = 0


@dataclass(frozen=True)
class WitnessCertificate:
    """Outcome of certifying one layered witness against its ideal.

    subset_failure, when set, is (layer sum index, offending monomial)
    showing a witness term outside the ideal. failing_generators lists
    generators the radical test could not absorb, in generator order.
    passed means both directions went through. stats holds the work
    counters and takes no part in equality.
    """

    passed: bool
    field: int | None
    subset_failure: tuple | None
    failing_generators: tuple
    stats: CertifyStats = dataclass_field(default=CertifyStats(), compare=False)


def _subset_failure(ideal, layers):
    """First (j, term) with a term of layer j outside the ideal, else None.

    Each layer holds the terms of one q_j as Monomials; the term named is
    the largest outside one in degrevlex, and no term is sorted unless it
    lies outside.
    """
    for j, layer in enumerate(layers):
        outside = [u for u in layer if not ideal.contains(u)]
        if outside:
            return j, max(outside, key=lambda u: _order_key(u.exponents))
    return None


def certify_witness(ideal, witness, field=None):
    """Certify that the witness sums cut out the ideal up to radical.

    witness is an SVWitness or a bare sequence of polynomials (useful for
    deliberately truncated or otherwise adversarial systems). One
    direction is monomial bookkeeping: every term of every q_j must lie
    in the ideal. The other asks, for every generator u, whether u lies
    in rad J, where J is the ideal of the q_j. Failures are collected,
    not raised; the certificate reports them, with its work counters in
    stats.

    That direction runs one radical-membership test per orbit of
    generators. Let sigma swap two variables, map the generator set onto
    itself and fix every q_j term for term (checked on the input itself,
    never assumed, since truncated or adversarial witnesses reach this
    function). Then sigma(J) = J, so sigma(rad J) = rad J and u lies in
    rad J exactly when sigma(u) does, over Q and over every GF(p). The
    same holds for every product of such swaps, so one test on the first
    generator of each orbit of the group they generate decides the whole
    orbit. The verdicts are expanded back in generator order, so
    failing_generators is what one test per generator gives.

    The roots are tested in generator order, and each is tested against
    the q_j and the generators of every orbit proven before it, as plain
    monomials. If U lies in rad J then rad(J + (U)) = rad J, so the
    verdict is the one the q_j alone give, over Q and over every GF(p),
    while the later Buchberger runs have less left to do. A failed orbit
    is never adjoined, or a later root could pass on its strength alone:
    x1*x4 lies in rad(x1*x3 + 2*x1*x4, x1*x3) but not in rad J.

    The swap scan (ideals._swap_classes) refines the classes of
    _swap_orbits(ideal), checking swaps only on the witness: an
    SVWitness's coefficient-1 sums on its layer masks (over GF(p) the
    sums are built from the layers), bare sums term for term,
    coefficients included. ideals._class_roots reads the generator
    orbits off the refined classes.
    """
    require_field(field)
    masks = getattr(witness, "masks", None)
    if masks is not None:
        layers = witness.layers
        qs = witness.q if field is None else [
            Polynomial._raw(witness.n, dict.fromkeys([u.exponents for u in layer], 1), field)
            for layer in layers]
        fixes = _fixes_masks([frozenset(layer) for layer in masks])
    else:
        qs = [q.in_field(field) if field is not None else q for q in witness]
        layers = [map(Monomial, q.terms) for q in qs]
        fixes = _fixes_terms([q.terms for q in qs])
    subset_failure = _subset_failure(ideal, layers)
    transpositions, roots = 0, ()
    if ideal.gens:
        _check_ring(qs, ideal.n, field)
        least = _swap_classes(ideal.n, fixes, _swap_orbits(ideal))
        transpositions = ideal.n - len(set(least))
        roots = _class_roots([u.exponents for u in ideal.gens], least)
    one = Fraction(1) if field is None else 1
    orbits = {}
    for u, k in zip(ideal.gens, roots):
        orbits.setdefault(k, []).append(Polynomial._raw(ideal.n, {u.exponents: one}, field))
    system, verdicts = list(qs), {}
    for k, orbit in orbits.items():
        verdicts[k] = radical_membership(orbit[0], system)
        if verdicts[k]:
            system += orbit
    failing = tuple(u for u, k in zip(ideal.gens, roots) if not verdicts[k])
    return WitnessCertificate(
        passed=subset_failure is None and not failing,
        field=field,
        subset_failure=subset_failure,
        failing_generators=failing,
        stats=CertifyStats(transpositions=transpositions, radical_tests=len(verdicts)),
    )
