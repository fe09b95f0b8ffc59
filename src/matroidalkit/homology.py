"""Projective dimension and depth of square-free quotients, by two routes.

Both routes compute pd without the multigraded Betti table of R/I;
betti_table builds the table on request, by the route pd_depth took.

pd_depth first tries linear quotients. Take the generators u_1, ..., u_m
of a single-degree square-free ideal in descending lex order and let
set(u_k) be the variables in the colon (u_1, ..., u_{k-1}) : u_k. When
every such colon is generated by variables, the iterated mapping cone is
a minimal free resolution (Herzog-Takayama 2002, "Resolutions by mapping
cones"): the Betti table of R/I is beta_{0, empty} = 1 plus one entry
at (|F| + 1, supp(u_k) | F) for every k and F within set(u_k), so
pd = 1 + max |set(u_k)|. The table has no field in it, so it is the same
over every field. Polymatroidal ideals have linear quotients in this
order, but the route tests linearity on every input and assumes nothing.
pd_depth builds and sizes no table on this route; betti_table holds
the table's sum of 2^|set(u_k)| entries against LINEAR_QUOTIENT_BUDGET
before it builds the table.

Every other square-free ideal goes to the homology route: the graded
Betti numbers of R/I are ranks of reduced homology of induced
subcomplexes of its face complex, one subcomplex per square-free
multidegree (Hochster's formula). Its facets are the complements of the
minimal primes of I. Faces, supports and multidegrees are int bitmasks
in the layout of ideals.support_to_mask: a face f lies in the
restriction to sigma when f & ~sigma == 0, and its boundary drops one
bit at a time. Frozensets appear only at the API edge. Let base be the
least generator degree less one. A non-face contains a generator
support, so every set of at most base vertices is a face of every
restriction: its levels up to base are complete skeleta of a simplex,
whose homology is known in closed form (h~_j = 0 for j <= base - 2),
and only the faces above base are listed and reduced (_reduced_ranks).
Multidegrees that cannot carry homology are skipped (see pd_depth), and
pd comes from a scan of the rest that stops below the best degree found
and skips every multidegree holding too few generator supports to reach
past it, by Taylor's resolution (_homology_pd); _hochster_table builds
the whole table. Before any face is listed, the sum of 2^|facet| over
the facets, which bounds the face count, is held against FACE_BUDGET,
and the lcm lattice is held against LATTICE_BUDGET as it grows, one
generator at a time.

All linear algebra is exact and goes through one sparse column
reduction with one elimination step for every field. The field enters
only where a pivot column is filed (monic over GF(p), with a positive
pivot over the rationals) and where entries are reduced: mod p over
GF(p), by their gcd over the rationals, so no fraction is formed.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from types import MappingProxyType

from .decomposition import associated_primes
from .errors import BudgetExceeded, DomainError, StructuralError
from .fields import require_field
from .ideals import _minimal_masks, mask_to_support, support_to_mask

# faces the homology route may list (bounded by sum of 2^|facet|)
FACE_BUDGET = 1 << 22
# entries betti_table may tabulate on the linear-quotient route (sum of
# 2^|set(u_k)|); an entry, keyed by a frozenset, costs about 870 bytes, so
# the table at this limit takes about 0.9 GiB (K_{10,10}, 1,046,529 entries, fits)
LINEAR_QUOTIENT_BUDGET = 1 << 20
# multidegrees the lcm lattice may hold (unions of generator supports):
# 16x the 3,970 of the largest lattice the test suite builds
LATTICE_BUDGET = 1 << 16


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces as subsets of [n], stored by their inclusion-maximal ones.

    The facets must be an antichain: ideals._minimal_masks keeps them all.
    The complex whose only face is the empty set is legal (facets contain
    one empty frozenset) and distinct from the void complex (no facets).
    """

    n: int
    facets: tuple

    def __post_init__(self):
        vertices = frozenset(range(1, self.n + 1))
        for f in self.facets:
            if not f <= vertices:
                raise StructuralError(f"facet {sorted(f)} outside 1..{self.n}")
        if len(_minimal_masks(map(support_to_mask, self.facets))) < len(self.facets):
            raise StructuralError("facets must be inclusion-incomparable")

    @classmethod
    def from_faces(cls, n, faces):
        """Complex generated by the given faces; keeps the maximal ones.

        Within the union U of the faces, f lies in g iff U - g lies in U - f,
        so the maximal faces are the complements of the minimal complements.
        """
        faces = [frozenset(f) for f in faces]
        vertices = frozenset().union(*faces)
        if not vertices <= frozenset(range(1, n + 1)):
            raise StructuralError(f"faces on {sorted(vertices)} outside 1..{n}")
        union = support_to_mask(vertices)
        maximal = (mask_to_support(union & ~m)
                   for m in _minimal_masks(union & ~support_to_mask(f) for f in faces))
        return cls(n, tuple(sorted(maximal, key=lambda f: (len(f), sorted(f)))))

    @property
    def dim(self):
        return max((len(f) for f in self.facets), default=-1) - 1

    def faces(self):
        """Every face, as a set of frozensets. Includes the empty face."""
        out = set()
        for facet in self.facets:
            members = sorted(facet)
            for k in range(len(members) + 1):
                out.update(map(frozenset, itertools.combinations(members, k)))
        return out


@dataclass(frozen=True)
class HomologyStats:
    """Work counters of one pd_depth run; equal input gives equal counts.

    route is "linear_quotients" or "homology", the route that computed pd.
    On the linear-quotient route largest_quotient_set is the largest
    |set(u_k)| (pd - 1) and the other counters stay 0. On the homology
    route multidegrees_scanned counts the multidegrees whose restricted
    complex was reduced and multidegrees_skipped the rest; the two add up
    to 2^n. The scan is pruned (see _homology_pd), so it skips the cones,
    every multidegree too small to raise pd, and every one that holds no
    more generator supports than the best degree found so far.
    matrices_reduced counts the boundary maps that went through
    elimination, which are those out of the face levels above base (the
    least generator degree less one); the maps below are complete simplex
    skeleta, read in closed form. largest_matrix is the (rows, columns)
    shape of the reduced map with the most entries. Building the Betti
    table counts nothing.
    """

    multidegrees_scanned: int = 0
    multidegrees_skipped: int = 0
    matrices_reduced: int = 0
    largest_matrix: tuple = (0, 0)
    route: str = "homology"
    largest_quotient_set: int = 0


@dataclass(frozen=True)
class HomologyProfile:
    """pd, depth, and the Cohen-Macaulay verdict of R/I.

    stats holds the work counters of the run that computed pd and takes
    no part in equality or hashing. The Betti table is not part of a
    profile: betti_table builds it on request.
    """

    pd: int
    depth: int
    is_cm: bool
    stats: HomologyStats = dataclass_field(default=HomologyStats(), compare=False)


def stanley_reisner(ideal):
    """Face complex of a square-free ideal: faces are the I-free subsets.

    A set is a face when its complement meets every generator support, so
    the facets are the complements of the minimal vertex covers, which are
    the minimal primes of I (Herzog-Hibi, Monomial Ideals, Lemma 1.5.4).
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("face complex needs a proper nonzero ideal")
    if not ideal.is_squarefree:
        raise DomainError("face complex defined for square-free ideals only")
    vertices = frozenset(range(1, ideal.n + 1))
    facets = sorted((vertices - p for p in associated_primes(ideal).minimal),
                    key=lambda f: (len(f), sorted(f)))
    return SimplicialComplex(ideal.n, tuple(facets))


def _face_levels(facets, base=0):
    """Faces by vertex count: levels[k] lists the k-vertex faces, ascending.

    facets are masks; every face comes from a facet by dropping bits.
    Only the levels above base are listed; those up to base are left
    empty for _reduced_ranks to read in closed form. An empty list means
    the void complex.
    """
    if not facets:
        return []
    bound = sum(1 << f.bit_count() for f in facets)
    if bound > FACE_BUDGET:
        raise BudgetExceeded("homology", f"the face complex bounds {bound} faces "
                             "(sum of 2^|facet|)", "FACE_BUDGET", FACE_BUDGET)
    levels = [set() for _ in range(max(f.bit_count() for f in facets) + 1)]
    for f in facets:
        if f.bit_count() > base:
            levels[f.bit_count()].add(f)
    for k in range(len(levels) - 1, base + 1, -1):
        below = levels[k - 1]
        for f in levels[k]:
            rest = f
            while rest:
                low = rest & -rest
                below.add(f ^ low)
                rest ^= low
    return [sorted(level) for level in levels]


def _boundaries(levels, field):
    """Boundary column of every nonempty face, as {row face: entry}.

    Dropping the t-th smallest vertex carries the sign (-1)^t, reduced
    mod p over GF(p).
    """
    columns = {}
    for level in levels[1:]:
        for f in level:
            column = {}
            rest, sign = f, 1
            while rest:
                low = rest & -rest
                column[f ^ low] = sign if field is None else sign % field
                sign = -sign
                rest ^= low
            columns[f] = column
    return columns


def _reduce_columns(columns, field):
    """Sparse column reduction; returns the reduced columns by pivot row.

    A column's pivot is its largest row key. While that row already holds
    a reduced column with pivot entry b, one elimination step replaces
    the column, whose pivot entry is a, by b*col - a*other; a column that
    ends empty was dependent. The field enters in three places only: a
    filed column is scaled to pivot 1 over GF(p) (so b = 1 there) and to
    a positive pivot over the rationals, new entries are reduced mod p
    over GF(p), and over the rationals each step divides the column by
    the gcd of its entries, so entries stay integers and no fraction is
    ever formed. The number of pivots is the rank.
    """
    pivots = {}
    for column in columns:
        col = dict(column)
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                lead = col[low]
                if field is None:
                    if lead < 0:
                        col = {r: -v for r, v in col.items()}
                elif lead != 1:
                    inv = pow(lead, -1, field)
                    col = {r: v * inv % field for r, v in col.items()}
                pivots[low] = col
                break
            a, b = col[low], other[low]
            if b != 1:
                col = {r: b * v for r, v in col.items()}
            for r, v in other.items():
                x = col.get(r, 0) - a * v if field is None else (col.get(r, 0) - a * v) % field
                if x:
                    col[r] = x
                else:
                    del col[r]
            if field is None:
                g = math.gcd(*col.values())
                if g > 1:
                    col = {r: v // g for r, v in col.items()}
    return pivots


def _reduced_ranks(levels, boundary, field, base=0, size=0, counts=None):
    """Reduced homology ranks of a face set given by levels, per dimension.

    The k-vertex faces sit in dimension k - 1. Every set of at most base
    of the complex's size vertices is a face, so levels[k] is listed only
    for k > base (see _face_levels). Up to base the levels are complete
    skeleta of a simplex: level k holds C(size, k) faces and the boundary
    out of it has rank C(size - 1, k - 1). So h~_j = 0 for j <= base - 2,
    and h~_{base-1} is C(size - 1, base), the cycles of level base, less
    the rank of the boundary out of level base + 1. With base = 0 the
    only such level holds the empty face, one cycle whatever size is;
    with base > 0, size must be at least 1.

    Only the maps out of the levels above base are reduced, from the top
    down so that each one can skip columns (clearing): if a reduced
    column R of the map out of the (k+1)-vertex faces has pivot row f,
    then R is a nonzero multiple of f plus faces below f and dR = 0.
    Trading f for R in the basis of k-vertex chains is a triangular
    change, so the next map keeps its rank while f's column becomes zero;
    f is left out of that reduction over every field.
    """
    if not levels:
        return {}
    while len(levels) > base + 1 and not levels[-1]:
        levels = levels[:-1]
    ranks = [0] * (len(levels) + 1)
    cleared = {}
    for k in range(len(levels) - 1, base, -1):
        cleared = _reduce_columns(
            [boundary[f] for f in levels[k] if f not in cleared], field)
        ranks[k] = len(cleared)
        if counts is not None:
            rows = len(levels[k - 1]) if k > base + 1 else math.comb(size, base)
            counts["matrices_reduced"] += 1
            if rows * len(levels[k]) > math.prod(counts["largest_matrix"]):
                counts["largest_matrix"] = (rows, len(levels[k]))
    out = dict.fromkeys(range(-1, base - 1), 0)
    out[base - 1] = (math.comb(size - 1, base) if base else 1) - ranks[base + 1]
    out.update((k - 1, len(levels[k]) - ranks[k] - ranks[k + 1])
               for k in range(base + 1, len(levels)))
    return out


def reduced_homology_ranks(complex_, field=None):
    """Ranks of reduced homology per dimension, from -1 up to dim.

    The empty face spans the degree -1 chain group, so the complex whose
    only face is empty has rank 1 in dimension -1 and the void complex
    has no homology at all. A complex whose sum of 2^|facet| exceeds
    FACE_BUDGET raises BudgetExceeded before any face is listed.
    """
    require_field(field)
    levels = _face_levels([support_to_mask(f) for f in complex_.facets])
    return _reduced_ranks(levels, _boundaries(levels, field), field)


def pd_depth(ideal, field=None):
    """pd, depth and the Cohen-Macaulay verdict of R/I.

    The base of the resolution is the quotient, so beta_0 = 1 sits at
    sigma empty and pd is the largest homological degree with a nonzero
    entry. depth comes out as n - pd, and Cohen-Macaulayness compares pd
    with the height, read off the face complex on both routes. Each route
    computes pd without the Betti table (see betti_table).

    Single-degree square-free input with linear quotients in descending
    lex order (every polymatroidal ideal) takes the linear-quotient
    route: pd = 1 + max |set(u_k)| (see the module docstring), the same
    over every field, as the table is, and no table is sized (see
    betti_table). Any other input, and any single colon that is not
    generated by variables, goes to the homology route.

    There beta_{i, sigma} is the reduced homology rank of the face
    complex restricted to sigma, in dimension |sigma| - i - 1. Only the
    multidegrees sigma that are unions of generator supports (the lcm
    lattice, with the empty set) can carry homology. Take a vertex v of
    sigma outside the union of the generator supports inside sigma. A
    non-face inside sigma contains a generator support inside sigma,
    which misses v, so adding v to a face of the restriction gives a face
    again: the restriction is a cone with apex v and is acyclic over
    every field. pd comes from a scan of the lattice pruned by the best
    degree found so far and by the generator supports inside each sigma
    (see _homology_pd); profile.stats counts the multidegrees it reduced
    and skipped.

    The ideal's memo keeps the linear-quotient profile, or its absence,
    for every field and the homology profile per field.
    """
    require_field(field)
    profile = ideal._memo("_linear_quotient_profile", _linear_quotient_profile)
    if profile is None:
        profile = ideal._memo(f"_homology_profile_{field}", _homology_pd, field)
    return profile


def betti_table(ideal, field=None):
    """The multigraded Betti table of R/I, as a read-only mapping.

    It maps (homological degree i, multidegree as frozenset) to a nonzero
    rank; absent keys are zero. pd_depth runs first, so its budgets and
    errors come first, and the table comes from the route it took: the
    mapping cones of the linear quotients, the same over every field,
    whose sum of 2^|set(u_k)| entries is held against
    LINEAR_QUOTIENT_BUDGET before any is listed, or Hochster's formula
    over the lcm lattice. Both list the table by multidegree mask, then
    by homological degree. The ideal's memo keeps the linear-quotient
    table once for every field and the homology table once per field.
    """
    if pd_depth(ideal, field).stats.route == "linear_quotients":
        quotients = _linear_quotients(ideal)
        bound = sum(1 << linear.bit_count() for _, linear in quotients)
        if bound > LINEAR_QUOTIENT_BUDGET:
            raise BudgetExceeded("linear-quotient", f"the Betti table has {bound} entries (sum of "
                                 "2^|set(u)|)", "LINEAR_QUOTIENT_BUDGET", LINEAR_QUOTIENT_BUDGET)
        return ideal._memo("_linear_quotient_table", _linear_quotient_table, quotients)
    return ideal._memo(f"_hochster_table_{field}", _hochster_table, field)


def _linear_quotient_profile(ideal):
    """The field-free profile of the linear-quotient route, or None."""
    quotients = _linear_quotients(ideal)
    if quotients is None:
        return None
    largest = max(linear.bit_count() for _, linear in quotients)
    return _profile(ideal, stanley_reisner(ideal), 1 + largest,
                    HomologyStats(route="linear_quotients", largest_quotient_set=largest))


def _linear_quotient_table(ideal, quotients):
    """The Betti table of R/I from the linear quotients of its generators."""
    # sigma = supp(u) | F for every F within set(u); as the degree d is
    # fixed, |F| + 1 = |sigma| - d + 1 and sigma alone names the entry
    tally = collections.Counter()
    supports = {}
    for u, linear in quotients:
        masks, sets = [u], [mask_to_support(u)]
        rest = linear
        while rest:
            bit = rest & -rest
            rest ^= bit
            variable = mask_to_support(bit)
            masks += [m | bit for m in masks]
            sets += [f | variable for f in sets]
        tally.update(masks)
        supports.update(zip(masks, sets))
    shift = ideal.degree - 1
    betti = {(0, frozenset()): 1}
    for sigma in sorted(tally):
        betti[(sigma.bit_count() - shift, supports[sigma])] = tally[sigma]
    return MappingProxyType(betti)


def _linear_quotients(ideal):
    """(mask of u_k, mask of set(u_k)) for every generator, or None.

    None unless the ideal is square-free, proper, nonzero and of one
    degree, and every colon (u_1, ..., u_{k-1}) : u_k, in the generators'
    descending lex order, is generated by variables. That colon is
    generated by the masks u_j & ~u_k, j < k; the one-bit ones among
    them make up set(u_k), and the colon is linear iff every mask meets
    set(u_k).
    """
    masks = ideal.masks
    if masks is None or not ideal.degree:  # mixed degrees, zero or unit ideal
        return None
    quotients = []
    for k, u in enumerate(masks):
        colon = [m & ~u for m in masks[:k]]
        linear = 0
        for c in colon:
            if not c & (c - 1):
                linear |= c
        if any(not c & linear for c in colon):
            return None
        quotients.append((u, linear))
    return quotients


def _hochster_setup(ideal, field):
    """Face complex, base, the face levels above base, their boundaries, lcm lattice.

    base is the least generator degree less one (see the module
    docstring). The lattice at most doubles with each generator, and it
    is held against LATTICE_BUDGET after each one, so a refused lattice
    never grows past twice the limit.
    """
    complex_ = stanley_reisner(ideal)
    base = min(g.bit_count() for g in ideal.masks) - 1
    levels = _face_levels([support_to_mask(f) for f in complex_.facets], base)
    lattice = {0}
    for k, g in enumerate(ideal.masks, start=1):
        lattice |= {s | g for s in lattice}
        if len(lattice) > LATTICE_BUDGET:
            raise BudgetExceeded("homology", f"the lcm lattice holds {len(lattice)} "
                                 f"multidegrees after {k} of {ideal.mu} generators",
                                 "LATTICE_BUDGET", LATTICE_BUDGET)
    return complex_, base, levels, _boundaries(levels, field), lattice


def _homology_pd(ideal, field):
    """The homology route's profile, with pd from a pruned scan of the lcm lattice.

    beta_{i, sigma} = h~_j(Delta_sigma) with j = |sigma| - i - 1, and
    h~_j = 0 for j <= base - 2 on every nonempty sigma (_reduced_ranks),
    so i <= |sigma| - base. The lcm lattice is scanned by descending
    |sigma|, from best = 0 (beta_{0, empty} = 1), and the scan stops once
    |sigma| - base <= best. By Taylor's resolution beta_{i, sigma} is
    also 0 for i above the number of generator supports inside sigma, so
    a sigma holding at most best of them is skipped. A multidegree can
    raise best only through some i > best, that is j <= |sigma| - best - 2,
    so its complex is reduced up to the faces of |sigma| - best vertices
    and the lowest nonzero h~_j gives i = |sigma| - j - 1. The top level
    of that truncated complex meets no boundary from above, and its rank
    is never read.
    """
    complex_, base, levels, boundary, lattice = _hochster_setup(ideal, field)
    masks = ideal.masks
    counts = {"matrices_reduced": 0, "largest_matrix": (0, 0)}
    best = scanned = 0
    for sigma in sorted(lattice, key=lambda s: (-s.bit_count(), s)):
        size = sigma.bit_count()
        if size - base <= best:
            break
        if sum(1 for g in masks if not g & ~sigma) <= best:
            continue  # at most best generator supports inside sigma
        top = size - best
        inside = [[f for f in level if not f & ~sigma] for level in levels[:top + 1]]
        ranks = _reduced_ranks(inside, boundary, field, base, size, counts)
        scanned += 1
        for j in range(base - 1, top - 1):
            if ranks.get(j):
                best = size - j - 1
                break
    stats = HomologyStats(multidegrees_scanned=scanned,
                          multidegrees_skipped=(1 << ideal.n) - scanned, **counts)
    return _profile(ideal, complex_, best, stats)


def _hochster_table(ideal, field):
    """The whole Betti table by Hochster's formula, over the lcm lattice.

    sigma = empty restricts to the complex whose only face is empty,
    with h~_{-1} = 1; every other sigma in the lattice is nonempty.
    """
    _, base, levels, boundary, lattice = _hochster_setup(ideal, field)
    betti = {(0, frozenset()): 1}
    for sigma in sorted(lattice)[1:]:
        size = sigma.bit_count()
        inside = [[f for f in level if not f & ~sigma] for level in levels[:size + 1]]
        ranks = _reduced_ranks(inside, boundary, field, base, size)
        members = mask_to_support(sigma)
        for i in range(size + 1):
            value = ranks.get(size - i - 1, 0)
            if value:
                betti[(i, members)] = value
    return MappingProxyType(betti)


def _profile(ideal, complex_, pd, stats):
    """depth and the Cohen-Macaulay verdict beside pd, on every route."""
    height = ideal.n - complex_.dim - 1  # a largest facet misses a smallest prime
    return HomologyProfile(pd=pd, depth=ideal.n - pd, is_cm=height == pd, stats=stats)
