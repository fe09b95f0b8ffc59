"""Slow oracle for the Groebner engine: the original tuple-dict engine.

Monomials are exponent tuples, terms live in plain dicts, and every
division step finds the largest pending term with max(..., key=...).
Buchberger knows only the coprime-leads criterion. Nothing here shares
code with matroidalkit.groebner beyond the error classes, the primality
test and Monomial, so the fast engine is checked against an independent
route: reduced bases are unique, so both must return the same one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from matroidalkit.errors import DomainError, PairBudgetExceeded, StructuralError
from matroidalkit.fields import require_prime as _require_prime
from matroidalkit.ideals import Monomial

PAIR_BUDGET = 10 ** 6
DEFAULT_PRIME = 32003


@dataclass(frozen=True)
class MonomialOrder:
    """Degree-reverse-lexicographic order on exponent tuples."""

    nvars: int
    kind: str = "degrevlex"

    def __post_init__(self):
        if self.kind != "degrevlex":
            raise DomainError(f"unsupported order kind {self.kind!r}")

    def key(self, ev):
        """Sort key; larger key means larger monomial."""
        return (sum(ev), tuple(-ev[k] for k in range(self.nvars - 1, -1, -1)))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _ev_lcm(a, b):
    return tuple(map(max, a, b))


def _ev_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _ev_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


class Polynomial:
    """Sparse polynomial as a map from exponent tuple to coefficient.

    field None means rational coefficients; a prime p means GF(p). Term
    maps are normalized on construction and never mutated afterwards.
    """

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars, terms=None, field=None):
        if field is not None:
            _require_prime(field)
        self.nvars = nvars
        self.field = field
        clean = {}
        for ev, c in (terms or {}).items():
            ev = tuple(int(e) for e in ev)
            if len(ev) != nvars:
                raise StructuralError(f"term {ev} has {len(ev)} exponents, expected {nvars}")
            if any(e < 0 for e in ev):
                raise StructuralError(f"negative exponent in term {ev}")
            c = Fraction(c) if field is None else int(c) % field
            if c:
                clean[ev] = c
        self.terms = clean

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

    @property
    def is_constant(self):
        return all(not any(ev) for ev in self.terms)

    def leading(self, order):
        """Leading (exponent tuple, coefficient) or None for zero."""
        if not self.terms:
            return None
        ev = max(self.terms, key=order.key)
        return ev, self.terms[ev]

    def scale(self, c):
        return Polynomial(self.nvars, {ev: v * c for ev, v in self.terms.items()},
                          self.field)

    def times_term(self, c, shift):
        return Polynomial(self.nvars,
                          {_ev_add(ev, shift): v * c for ev, v in self.terms.items()},
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

        Rational coefficients map to GF(p) through modular inverses of
        the denominators; leaving a prime field again is not defined.
        """
        if field == self.field:
            return self
        if self.field is not None:
            raise StructuralError("cannot lift coefficients out of a prime field")
        _require_prime(field)
        terms = {}
        for ev, c in self.terms.items():
            if c.denominator % field == 0:
                raise DomainError(f"denominator of {c} vanishes mod {field}")
            terms[ev] = c.numerator * pow(c.denominator, -1, field) % field
        return Polynomial(self.nvars, terms, field)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.nvars == other.nvars
                and self.field == other.field
                and self.terms == other.terms)

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        order = MonomialOrder(self.nvars)
        parts = []
        for ev in sorted(self.terms, key=order.key, reverse=True):
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
class GroebnerBasis:
    """A reduced basis: monic generators with pairwise reduced terms."""

    generators: tuple
    order: MonomialOrder

    @property
    def is_trivial(self):
        """Whether the basis presents the unit ideal."""
        return len(self.generators) == 1 and self.generators[0] == Polynomial.one(
            self.generators[0].nvars, self.generators[0].field)


def _reduce_full(work, reducers, order, field):
    """Remainder of the term dict work against reducers; consumes work.

    reducers holds (lead exponent, lead coefficient, term map) triples.
    Every term of the remainder is divisible by no reducer lead.
    """
    remainder = {}
    while work:
        ev = max(work, key=order.key)
        coeff = work.pop(ev)
        for lev, lc, terms in reducers:
            if _divides(lev, ev):
                shift = _ev_sub(ev, lev)
                factor = coeff / lc if field is None else coeff * pow(lc, -1, field) % field
                for tev, tc in terms.items():
                    if tev == lev:
                        continue
                    at = _ev_add(tev, shift)
                    value = work.get(at, 0) - factor * tc
                    if field is not None:
                        value %= field
                    if value:
                        work[at] = value
                    else:
                        work.pop(at, None)
                break
        else:
            remainder[ev] = coeff
    return remainder


def _reducers_of(polys, order):
    out = []
    for p in polys:
        lead = p.leading(order)
        if lead is not None:
            out.append((lead[0], lead[1], p.terms))
    return out


def normal_form(f, basis, order=None):
    """Remainder of f under multivariate division by the basis.

    Accepts a GroebnerBasis or any iterable of polynomials; against a
    Groebner basis the remainder is zero exactly for ideal members.
    """
    if isinstance(basis, GroebnerBasis):
        order = order or basis.order
        polys = basis.generators
    else:
        polys = [p for p in basis if not p.is_zero]
    order = order or MonomialOrder(f.nvars)
    remainder = _reduce_full(dict(f.terms), _reducers_of(polys, order), order, f.field)
    return Polynomial(f.nvars, remainder, f.field)


def _strip(poly, order):
    """Scalar-normalize: primitive with positive lead over Q, monic over GF."""
    if poly.is_zero:
        return poly
    lead_ev, lead_c = poly.leading(order)
    if poly.field is not None:
        return poly.scale(pow(lead_c, -1, poly.field))
    denom = math.lcm(*(c.denominator for c in poly.terms.values()))
    numer = math.gcd(*(int(c * denom) for c in poly.terms.values()))
    factor = Fraction(denom, numer)
    if lead_c < 0:
        factor = -factor
    return poly.scale(factor)


def _spoly(f, g, order, field):
    (fev, fc), (gev, gc) = f.leading(order), g.leading(order)
    lcm_ev = _ev_lcm(fev, gev)
    if field is None:
        return (f.times_term(1 / fc, _ev_sub(lcm_ev, fev))
                - g.times_term(1 / gc, _ev_sub(lcm_ev, gev)))
    return (f.times_term(pow(fc, -1, field), _ev_sub(lcm_ev, fev))
            - g.times_term(pow(gc, -1, field), _ev_sub(lcm_ev, gev)))


def _interreduce(polys, order, field):
    """Minimalize leading terms, then reduce tails to a fixpoint, monic."""
    leads = [p.leading(order)[0] for p in polys]
    keep = []
    for i in sorted(range(len(polys)), key=lambda k: order.key(leads[k])):
        if not any(_divides(leads[j], leads[i]) for j in keep):
            keep.append(i)
    reduced = []
    for i in keep:
        lead_c = polys[i].leading(order)[1]
        inv = 1 / lead_c if field is None else pow(lead_c, -1, field)
        reduced.append(polys[i].scale(inv))
    changed = True
    while changed:
        changed = False
        for k in range(len(reduced)):
            others = reduced[:k] + reduced[k + 1:]
            better = normal_form(reduced[k], others, order)
            if better != reduced[k]:
                reduced[k] = better
                changed = True
    reduced.sort(key=lambda p: order.key(p.leading(order)[0]), reverse=True)
    return reduced


def buchberger(gens, order=None, pair_budget=PAIR_BUDGET):
    """Reduced Groebner basis of the given generators.

    Pairs are processed lowest lcm first; pairs with coprime leading
    terms are skipped. Exceeding the pair budget raises instead of
    spinning forever. A unit discovered mid-run short-circuits to the
    trivial basis.
    """
    polys = [g for g in gens if not g.is_zero]
    if not polys:
        return GroebnerBasis((), order or MonomialOrder(1))
    nvars, field = polys[0].nvars, polys[0].field
    for p in polys:
        if p.nvars != nvars or p.field != field:
            raise StructuralError("mixed variable counts or fields")
    order = order or MonomialOrder(nvars)
    trivial = GroebnerBasis((Polynomial.one(nvars, field),), order)
    basis = []
    for p in polys:
        stripped = _strip(p, order)
        if stripped.is_constant:
            return trivial
        basis.append(stripped)
    pairs = []

    def push(i, j):
        lcm_ev = _ev_lcm(basis[i].leading(order)[0], basis[j].leading(order)[0])
        heapq.heappush(pairs, (sum(lcm_ev), order.key(lcm_ev), i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)
    processed = 0
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > pair_budget:
            raise PairBudgetExceeded(pair_budget)
        lt_i = basis[i].leading(order)[0]
        lt_j = basis[j].leading(order)[0]
        if _ev_lcm(lt_i, lt_j) == _ev_add(lt_i, lt_j):
            continue  # coprime leads reduce to zero, skip
        s = _spoly(basis[i], basis[j], order, field)
        remainder = normal_form(s, basis, order)
        if remainder.is_zero:
            continue
        remainder = _strip(remainder, order)
        if remainder.is_constant:
            return trivial
        basis.append(remainder)
        for k in range(len(basis) - 1):
            push(k, len(basis) - 1)
    return GroebnerBasis(tuple(_interreduce(basis, order, field)), order)


def radical_membership(f, gens):
    """Whether f lies in the radical of the ideal the gens generate.

    Adjoins one variable t (ordered last) and asks whether 1 - t*f turns
    the ideal into the whole ring; that happens exactly for members of
    the radical.
    """
    if f.is_zero:
        raise DomainError("radical membership of the zero polynomial is undefined")
    nvars, field = f.nvars, f.field
    extended = []
    for g in gens:
        if g.nvars != nvars or g.field != field:
            raise StructuralError("mixed variable counts or fields")
        extended.append(Polynomial(nvars + 1,
                                   {ev + (0,): c for ev, c in g.terms.items()},
                                   field))
    hook_terms = {(0,) * (nvars + 1): 1}
    for ev, c in f.terms.items():
        at = ev + (1,)
        hook_terms[at] = hook_terms.get(at, 0) - c
    extended.append(Polynomial(nvars + 1, hook_terms, field))
    return buchberger(extended, MonomialOrder(nvars + 1)).is_trivial


@dataclass(frozen=True)
class WitnessCertificate:
    """Outcome of certifying one layered witness against its ideal.

    subset_failure, when set, is (layer sum index, offending monomial)
    showing a witness term outside the ideal. failing_generators lists
    generators the radical test could not absorb. passed means both
    directions went through.
    """

    passed: bool
    field: int | None
    subset_failure: tuple | None
    failing_generators: tuple


def certify_witness(ideal, witness, field=None):
    """Certify that the witness sums cut out the ideal up to radical.

    witness is either an object carrying the layer sums in a q attribute
    or a bare sequence of polynomials (useful for deliberately truncated
    or otherwise adversarial systems). One direction is monomial
    bookkeeping: every term of every q_j must lie in the ideal. The
    other runs one radical-membership test per generator against the q_j
    system. Failures are collected, not raised; the certificate reports
    them.
    """
    sums = witness.q if hasattr(witness, "q") else witness
    qs = [q.in_field(field) if field is not None else q for q in sums]
    subset_failure = None
    for j, q in enumerate(qs):
        for ev in sorted(q.terms, key=MonomialOrder(ideal.n).key, reverse=True):
            if not ideal.contains(Monomial(ev)):
                subset_failure = (j, Monomial(ev))
                break
        if subset_failure:
            break
    failing = tuple(u for u in ideal.gens
                    if not radical_membership(Polynomial.from_monomial(u, field), qs))
    return WitnessCertificate(
        passed=subset_failure is None and not failing,
        field=field,
        subset_failure=subset_failure,
        failing_generators=failing,
    )
