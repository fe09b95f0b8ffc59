"""Layered sums that generate a square-free ideal up to radical.

The layers stack the square-free members of the ideal by degree, top
degree first: P_0 holds the full product x1*...*xn alone and P_j holds
the members of degree n-j, down to the generating degree. Each layer is
summed (all coefficients 1) into one polynomial, and r+1 = n-d+1 such
sums suffice: pairwise products inside a layer are divisible by an
earlier-layer element, which is what the layered-sum argument needs.
Together with the projective-dimension lower bound this pins the
arithmetical rank of a matroidal ideal at exactly n-d+1.

The witness holds its layers as generator masks (ideals.support_to_mask),
read off the ideal's own square-free member listing. Its Monomial layers
and Polynomial sums are views built on first use; SVWitness.text() prints
both straight from the masks, which is all a report needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, StructuralError, TheoremViolationError
from .homology import pd_depth
from .ideals import Monomial
from .groebner import Polynomial
from .matroids import is_matroidal

CONDITION_UNION = "union_covers_ideal"
CONDITION_SINGLETON = "first_layer_singleton"
CONDITION_PRODUCTS = "pair_products_absorbed"


@dataclass(frozen=True)
class SVWitness:
    """Layer structure plus the summed witness polynomials.

    masks runs P_0..P_r with r = n - d, each layer a tuple of generator
    masks (ideals.support_to_mask) in lex order of supports. layers (as
    Monomials) and q (the layer sums over the rationals) are views built
    from masks on first use. ara_upper is the layer count r + 1; ara_lower
    is the projective dimension of R/I; ara_exact marks the two meeting.
    """

    n: int
    d: int
    r: int
    masks: tuple
    ara_upper: int
    ara_lower: int
    ara_exact: bool

    @cached_property
    def layers(self):
        return tuple(tuple(Monomial.from_bitmask(self.n, m) for m in layer)
                     for layer in self.masks)

    @cached_property
    def q(self):
        one = Fraction(1)
        return tuple(Polynomial._raw(self.n, {m.exponents: one for m in layer}, None)
                     for layer in self.layers)

    def text(self):
        """The sums and the layers as text: str(q_j) and str(m) for each layer.

        A mask's text is made once for both. Each 8-bit slice of the mask
        has a name table, built on each call: entry b names the slice's
        variables on the bits of b, and the nonempty slice texts are joined
        with "*". On square-free monomials of one degree, descending
        degrevlex is ascending order of the masks, so a sum lists its layer
        sorted by mask.
        """
        tables = []
        for low in range(0, self.n, 8):
            table = [""]
            for k in range(low + 1, min(low + 8, self.n) + 1):
                table += [t + f"*x{k}" if t else f"x{k}" for t in table]
            tables.append((low, table))
        (_, first), rest = tables[0], tables[1:]
        sums, layers = [], []
        for layer in self.masks:
            texts = [first[m & 255] for m in layer]
            for low, table in rest:
                texts = [a + "*" + b if a and b else a or b
                         for a, b in zip(texts, [table[m >> low & 255] for m in layer])]
            layers.append(texts)
            order = sorted(range(len(layer)), key=layer.__getitem__)
            sums.append(" + ".join([texts[k] for k in order]))
        return sums, layers


@dataclass(frozen=True)
class SVConditionReport:
    """First violated layer condition, if any; truthy when all hold."""

    ok: bool
    violated: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def build_sv_witness(ideal):
    """Layer the square-free members of the ideal by descending degree.

    Every layer is checked nonempty, the top layer is checked to be the
    lone full product, and for matroidal input the resulting bounds must
    meet; each of those is a proved fact, so failure raises rather than
    returning a defective witness.

    The lower bound comes first: pd_depth's limits (COVER_BUDGET,
    FACE_BUDGET and LATTICE_BUDGET) refuse an oversized ideal before any
    layer is listed, and so a BudgetExceeded from it wins over a failed
    layer check. Then MonomialIdeal._member_layers sizes the layers
    against MEMBER_BUDGET and lists them; their count fixes r and d.
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("witness needs a proper nonzero ideal")
    if not ideal.is_squarefree:
        raise DomainError("witness construction is square-free only")
    summary = ideal.summarize()
    if not summary.is_full_supported:
        raise DomainError("witness construction requires full support")
    n = ideal.n
    if any(not m & (m - 1) for m in ideal.masks):  # a variable among the generators
        raise DomainError("degree-1 input uses the plain variable witness; see ara_report")
    lower = pd_depth(ideal).pd
    layers = ideal._member_layers()
    for j, layer in enumerate(layers):
        if not layer:
            raise TheoremViolationError(
                f"empty layer at degree {n - j} for full-support {ideal}")
    if layers[0] != ((1 << n) - 1,):
        raise TheoremViolationError(f"top layer of {ideal} is not the full product")
    upper = len(layers)
    exact = lower == upper
    if is_matroidal(ideal) and not exact:
        raise TheoremViolationError(
            f"bounds {lower} < {upper} fail to meet on matroidal {ideal}")
    return SVWitness(
        n=n,
        d=n + 1 - upper,
        r=upper - 1,
        masks=layers,
        ara_upper=upper,
        ara_lower=lower,
        ara_exact=exact,
    )


def verify_sv_conditions(layers, ideal):
    """Mechanical check of the three layered-sum conditions.

    (a) the layers exactly cover the square-free members of the ideal,
    (b) the first layer is a singleton, (c) any two elements at distinct
    positions of a later layer have their product divisible by some
    earlier-layer element. Returns a report on any Monomial layers, even
    adversarial ones; raises StructuralError on another entry and, like
    build_sv_witness, BudgetExceeded past MEMBER_BUDGET (_member_layers).
    Once (a) holds every element is square-free, so (c) runs on masks: q
    divides p*p' iff q lies in p | p'.
    """
    layers = [tuple(layer) for layer in layers]
    stray = [m for layer in layers for m in layer if not isinstance(m, Monomial)]
    if stray:
        raise StructuralError(f"layer entry {stray[0]!r} is not a Monomial")
    if not layers:
        return SVConditionReport(False, CONDITION_SINGLETON, ())
    members = {Monomial.from_bitmask(ideal.n, m)
               for layer in ideal._member_layers() for m in layer}
    layered = set().union(*map(set, layers))
    if layered != members:
        stray = sorted(layered ^ members, key=lambda m: m.exponents)
        return SVConditionReport(False, CONDITION_UNION, (stray[0],))
    if len(layers[0]) != 1:
        return SVConditionReport(False, CONDITION_SINGLETON, tuple(layers[0]))
    earlier = []
    for i in range(1, len(layers)):
        earlier += [p.bitmask() for p in layers[i - 1]]
        masks = [p.bitmask() for p in layers[i]]
        for a, p in enumerate(masks):
            for b in range(a + 1, len(masks)):
                if not any(not q & ~(p | masks[b]) for q in earlier):
                    return SVConditionReport(False, CONDITION_PRODUCTS,
                                             (i, layers[i][a], layers[i][b]))
    return SVConditionReport(True)


@dataclass(frozen=True)
class AraReport:
    """Arithmetical rank bounds for one matroidal ideal.

    elements lists polynomials generating the ideal up to radical; their
    count is the upper bound. witness is None exactly in degree 1, where
    the variables themselves are the elements. elements is built on first
    use, from the witness's sums or the variables.
    """

    n: int
    degree: int
    lower: int
    upper: int
    exact: bool
    witness: SVWitness | None

    @cached_property
    def elements(self):
        if self.witness is not None:
            return self.witness.q
        return tuple(Polynomial.from_monomial(Monomial.variable(self.n, i))
                     for i in range(1, self.n + 1))


def ara_report(ideal):
    """Bounds on the arithmetical rank, exact for matroidal input.

    Degree 1 with full support means the whole maximal ideal, where the
    variables are their own witness and the rank is n. From degree 2 on
    the layered witness gives the upper bound and the projective
    dimension the lower one; build_sv_witness raises unless they meet.
    """
    summary = ideal.summarize()
    if not summary.is_full_supported:
        raise DomainError("rank report requires full support")
    if not is_matroidal(ideal):
        raise DomainError("rank report is stated for matroidal ideals only")
    n = ideal.n
    d = summary.degree
    if d == 1:
        lower = pd_depth(ideal).pd
        if lower != n:
            raise TheoremViolationError(f"projective dimension {lower} != {n} for {ideal}")
        # full support in degree 1: the generators are x1, ..., xn
        return AraReport(n=n, degree=d, lower=lower, upper=n, exact=True, witness=None)
    witness = build_sv_witness(ideal)
    return AraReport(
        n=n,
        degree=d,
        lower=witness.ara_lower,
        upper=witness.ara_upper,
        exact=witness.ara_exact,
        witness=witness,
    )
