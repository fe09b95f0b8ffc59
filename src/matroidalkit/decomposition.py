"""Irreducible decomposition, associated primes, and the degree-2 theory.

Monomial primes are plain variable subsets here; nothing else occurs as an
associated prime of a monomial ideal. One engine serves all input: a
depth-first search for minimal vertex covers on int masks that visits
each vertex set at most once and keeps a cover only when each of its
vertices has a private edge (Murakami-Uno's MMCS). On the generator
supports of a square-free ideal its covers are the associated primes, the
complements of the facets of homology.stanley_reisner; on the
polarization of any ideal (Herzog-Hibi, Monomial Ideals, 1.6) they are
the irreducible components. tests/decomposition_oracle.py keeps the old
enumeration and splitting recursion that the tests hold them against.

Results that a proved statement guarantees are re-checked on the spot;
a mismatch raises TheoremViolationError rather than returning quietly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dataclass_field

from .errors import BudgetExceeded, DomainError, TheoremViolationError
from .ideals import (Monomial, MonomialIdeal, _minimal_masks, _swap_orbits, mask_to_support,
                     support_to_mask)
from .matroids import is_matroidal, is_polymatroidal, veronese

MATROIDAL = "matroidal"
POWER_OF_M = "power_of_m"

# vertex sets the minimal-cover search may visit: 10x the 6,434 that
# V(14,7) takes; the matching x1*x2, ..., x47*x48 would visit 2^25 - 2
COVER_BUDGET = 1 << 16
# irreducible components a decomposition may have, counted as the covers
# the search keeps, before any is built: the benchmark's block powers have
# at most 3; x1^2*x2, x3^2*x4, ... has 2^k, and building and intersecting
# back its 512 components takes about 0.33 s on a 2-vCPU VM
LEAF_BUDGET = 1 << 9


@dataclass(frozen=True)
class CoverStats:
    """Work counters of one minimal-cover search; equal input gives equal counts.

    nodes counts the vertex sets the search visited below the empty one.
    leaves_kept counts the covers it returned, so on square-free input it
    equals |Ass|, and on polarized input the number of irreducible
    components. leaves_rejected counts the sets it dropped because a
    chosen vertex had no private edge left: no kept cover contains them.
    """

    nodes: int = 0
    leaves_kept: int = 0
    leaves_rejected: int = 0


@dataclass(frozen=True)
class PrimeDecomposition:
    """Associated primes of R/I with the derived height data.

    ass and minimal are frozensets of variable subsets. For square-free
    input ass equals minimal; embedded primes can appear otherwise.
    stats holds the counters of the cover search on square-free input
    (None otherwise) and takes no part in equality.
    """

    ass: frozenset
    minimal: frozenset
    height: int
    big_height: int
    is_unmixed: bool
    stats: CoverStats | None = dataclass_field(default=None, compare=False)


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering all of [n]."""

    n: int
    blocks: tuple

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            if not block:
                raise DomainError("empty partition block")
            if seen & block:
                raise DomainError("partition blocks overlap")
            seen |= block
        if seen != set(range(1, self.n + 1)):
            raise DomainError(f"blocks do not cover 1..{self.n}")

    @property
    def m(self):
        return len(self.blocks)

    def block_of(self, i):
        for block in self.blocks:
            if i in block:
                return block
        raise DomainError(f"index {i} outside 1..{self.n}")


@dataclass(frozen=True)
class CriteriaReport:
    """Joint report of the unmixedness criteria on one matroidal ideal.

    block_count and c1_identity are filled only in degree 2, where the
    partition exists. colon_facts lists (i, height of (I:x_i), unmixed
    flag) per variable; t2_condition is their conjunction against the
    ambient height.
    """

    n: int
    degree: int
    height: int
    big_height: int
    is_unmixed: bool
    ass_count: int
    block_count: int | None
    c1_identity: bool | None
    colon_facts: tuple
    t2_condition: bool


def _polarize(ideal):
    """The compressed polarization of a monomial ideal, as a cover problem.

    Bit k stands for one pair (i, a), a a distinct positive exponent of
    x_i among the generators, by ascending i, then a; the pairs are read
    off each generator's support alone. Returns the powers x_i^a by bit,
    and per generator g the masks of its edge {(i, a) : a <= g_i} and of
    its top {(i, g_i)}. On square-free input each edge is its own top.
    """
    exponents = {}  # exponents[i]: the distinct positive exponents of x_i
    for g in ideal.gens:
        for i in g.support:
            exponents.setdefault(i, set()).add(g.exponents[i - 1])
    powers, below = [], {}  # below[i, a]: the mask of every (i, b) with b <= a
    for i in sorted(exponents):
        mask = 0
        for a in sorted(exponents[i]):
            mask |= 1 << len(powers)
            below[i, a] = mask
            powers.append(Monomial._trusted((0,) * (i - 1) + (a,) + (0,) * (ideal.n - i)))
    edges, tops = [], []
    for g in ideal.gens:
        masks = [below[i, g.exponents[i - 1]] for i in g.support]
        edges.append(sum(masks))  # the variables' bits are disjoint
        tops.append(sum(1 << m.bit_length() - 1 for m in masks))
    return powers, edges, tops


def irreducible_decomposition(ideal):
    """Irredundant irreducible components whose intersection is the ideal.

    They are the covers _minimal_covers keeps on the polarization (see
    _polarize) when a vertex holds an edge as private only as its top.
    Let Q_C = (x_i^a : (i, a) in C): I lies in Q_C iff C meets every
    edge, and Q_C' lies in Q_C iff each (i, b) in C' has some (i, a),
    a <= b, in C. The irredundant components are the minimal irreducible
    monomial ideals containing I, and they are the kept covers:

    - A kept cover has at most one vertex per variable: if (i, a) and
      (i, b), a < b, are in C, every edge through (i, b) holds (i, a),
      so (i, b) has no private edge.
    - If Q_C is minimal, C is kept: a vertex (i, a) with no private top
      edge could be raised to the next level of x_i, or dropped at the
      last, and the smaller irreducible ideal would still contain I, as
      each edge that loses the vertex has top (i, a) and meets C
      elsewhere. Raising exponents to levels in use likewise shows that
      every minimal Q is some Q_C.
    - If C is kept, Q_C is minimal: let C' cover with Q_C' inside Q_C,
      and g be a private top edge of (i, a) in C. C' meets g at some
      (j, c), c <= g_j, and C holds some (j, b), b <= c, which lies in g,
      so it is (i, a) and c = a. So C' holds C, and Q_C' holds Q_C.

    The search raises BudgetExceeded past COVER_BUDGET vertex sets, and
    so does keeping more than LEAF_BUDGET covers, before any component
    is built. The components come ascending by their tuples of generator
    exponent vectors; their intersection is checked against the input.
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("decomposition needs a proper nonzero ideal")
    powers, edges, tops = _polarize(ideal)
    covers, _ = _minimal_covers(edges, tops)
    if len(covers) > LEAF_BUDGET:
        raise BudgetExceeded("decomposition", f"the minimal-cover search keeps {len(covers)} "
                             "irreducible components", "LEAF_BUDGET", LEAF_BUDGET)
    # ascending bits are ascending variables: descending lex, the canonical order
    components = [MonomialIdeal(ideal.n, tuple(powers[k] for k in range(c.bit_length())
                                               if c >> k & 1)) for c in covers]
    components.sort(key=lambda q: tuple(g.exponents for g in q.gens))
    if functools.reduce(MonomialIdeal.intersect, components) != ideal:
        raise TheoremViolationError(
            f"irreducible components fail to intersect back to {ideal}")
    return tuple(components)


def _minimal_covers(edges, tops=None):
    """Minimal hitting sets of a list of edges, as vertex masks.

    Returns the covers in the order the search reaches them, with the
    CoverStats of the search. Repeated edges count once, and a
    depth-first search runs on (chosen, forbidden): it picks an uncovered
    edge with the fewest allowed vertices (those outside forbidden), the
    first in sorted order among those, and branches on them in
    increasing order, branch j adding v_j and forbidding v_1..v_{j-1}.
    A minimal cover C that avoids forbidden meets that edge, so exactly
    one branch, the one for the first allowed vertex in C, keeps chosen
    inside C and forbidden outside it: every vertex set is visited at
    most once and every minimal cover is reached. The sets along the
    search's path are kept on a list, not the call stack: the search goes
    one level deeper per chosen vertex, and the cover of x1, ..., x1024
    has 1,024 of them.

    Each chosen vertex keeps its private edges: those that meet chosen in
    that vertex alone and hold it in their top (tops gives one mask per
    edge; by default each edge is its own top, and the kept covers are
    the minimal ones). A cover is kept when each of its vertices has one.
    Private edges only shrink as chosen grows, so a set in which a vertex
    has none is dropped at once, cover or not: an edge private to u in a
    kept cover C is private to u in every subset of C that holds u.
    Visiting more than COVER_BUDGET vertex sets raises BudgetExceeded.

    Edge sets are int bitsets over the sorted edges, so no step walks a
    list of edges: the uncovered edges and each private list are one
    bitset, and each vertex has the bitsets of the edges through it and
    of those whose top holds it. An edge that misses forbidden has all
    its vertices allowed, so the pick reads the first uncovered one of
    the smallest size class and compares it with the uncovered edges
    that meet forbidden alone. A vertex that meets no private edge (the
    union of the private bitsets) leaves every private list as it is.
    """
    top = dict(zip(edges, edges if tops is None else tops))
    edges = sorted(top)
    width = max((e.bit_length() for e in edges), default=0)

    def incidence(masks):
        """By vertex position, the bitset of the edges whose mask holds the vertex."""
        out = [0] * width
        for k, mask in enumerate(masks):
            while mask:
                low = mask & -mask
                out[low.bit_length() - 1] |= 1 << k
                mask ^= low
        return out

    through = incidence(edges)
    topped = through if tops is None else incidence([top[e] for e in edges])
    sizes = {}
    for k, e in enumerate(edges):
        sizes[e.bit_count()] = sizes.get(e.bit_count(), 0) | 1 << k
    sizes = sorted(sizes.items())
    found = []
    nodes = rejected = 0
    # the vertex sets on the path from the empty one, each as [chosen,
    # private bitsets, their union, uncovered edges, vertices left to
    # branch on, forbidden, the edges that meet forbidden]
    path = []
    chosen, private, held, uncovered, forbidden, met = 0, [], 0, (1 << len(edges)) - 1, 0, 0
    while True:
        if uncovered:
            pick = None
            free = uncovered & ~met
            for size, group in sizes:
                group &= free
                if group:
                    pick = size, (group & -group).bit_length() - 1
                    break
            rest = uncovered & met
            while rest:
                low = rest & -rest
                rest ^= low
                k = low.bit_length() - 1
                option = ((edges[k] & ~forbidden).bit_count(), k)
                if pick is None or option < pick:
                    pick = option
            path.append([chosen, private, held, uncovered, edges[pick[1]] & ~forbidden,
                         forbidden, met])
        else:
            found.append(chosen)
        while path:
            frame = path[-1]
            chosen, private, held, uncovered, allowed, forbidden, met = frame
            if not allowed:
                path.pop()
                continue
            v = allowed & -allowed
            position = v.bit_length() - 1
            frame[4] ^= v
            frame[5] |= v
            frame[6] |= through[position]
            nodes += 1
            if nodes > COVER_BUDGET:
                raise BudgetExceeded("decomposition", "the minimal-cover search visits more "
                                     f"than {COVER_BUDGET} vertex sets", "COVER_BUDGET",
                                     COVER_BUDGET)
            hit = through[position]
            own = uncovered & topped[position]  # v's private edges
            kept = private
            if own and held & hit:  # v takes edges off some private lists
                kept = [rest & ~hit for rest in private]
                if not all(kept):
                    own = 0
            if own:  # visit chosen | v next, with the forbidden set of its parent
                chosen, private, held = chosen | v, kept + [own], (held & ~hit) | own
                uncovered &= ~hit
                break
            rejected += 1
        else:
            return tuple(found), CoverStats(nodes=nodes, leaves_kept=len(found),
                                            leaves_rejected=rejected)


def associated_primes(ideal):
    """Ass(R/I) with height, big height, and the unmixedness verdict.

    Square-free ideals: the associated primes are exactly the minimal
    vertex covers of the generator supports. Otherwise: the radicals of
    the irredundant irreducible components, which the same search finds
    on the polarization (see irreducible_decomposition). The search
    raises BudgetExceeded past COVER_BUDGET vertex sets, and a
    decomposition past LEAF_BUDGET components. The (frozen) result is
    kept in the ideal's memo; a refusal is not.
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("associated primes need a proper nonzero ideal")
    return ideal._memo("_prime_decomposition", _prime_decomposition)


def _prime_decomposition(ideal):
    stats = None
    if ideal.is_squarefree:
        covers, stats = _minimal_covers(ideal.masks)
        ass = minimal = frozenset(map(mask_to_support, covers))
    else:
        ass = frozenset(comp.support for comp in irreducible_decomposition(ideal))
        minimal = frozenset(map(mask_to_support, _minimal_masks(map(support_to_mask, ass))))
    height = min(len(p) for p in minimal)
    big_height = max(len(p) for p in ass)
    return PrimeDecomposition(
        ass=ass,
        minimal=minimal,
        height=height,
        big_height=big_height,
        is_unmixed=all(len(p) == height for p in ass),
        stats=stats,
    )


def _require_matroidal(ideal, degree=None):
    summary = ideal.summarize()
    if not summary.is_full_supported:
        raise DomainError("full support required")
    if degree is not None and summary.degree != degree:
        raise DomainError(f"degree {degree} required, got {summary.degree}")
    if not is_matroidal(ideal):
        raise DomainError("matroidal ideal required")
    return summary


def partition_degree2(ideal):
    """The block structure of a full-support degree-2 matroidal ideal.

    Two variables share a block exactly when their product stays out of
    the ideal. The relation is an equivalence for matroidal input; that,
    and the block laws themselves, are re-verified before returning: on
    every pair, on the generator masks, since a degree-2 monomial lies in
    the ideal iff it is a generator. The (frozen) partition is kept in
    the ideal's memo; a refusal is not.
    """
    return ideal._memo("_partition", _partition)


def _partition(ideal):
    _require_matroidal(ideal, degree=2)
    n = ideal.n
    out_of = lambda i, j: not ideal.contains(
        Monomial.from_support(n, {i, j}))
    blocks = []
    placed = set()
    for i in range(1, n + 1):
        if i in placed:
            continue
        block = {i} | {j for j in range(i + 1, n + 1) if j not in placed and out_of(i, j)}
        placed |= block
        blocks.append(frozenset(block))
    partition = Partition(n, tuple(blocks))
    # transitivity is a theorem for matroidal input, not a given
    block = {v: k for k, members in enumerate(blocks) for v in members}
    masks = set(ideal.masks)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if (block[i] == block[j]) == (1 << i - 1 | 1 << j - 1 in masks):
            raise TheoremViolationError(
                f"pair x{i}x{j} contradicts the block relation in {ideal}")
    if partition.m < 2:
        raise TheoremViolationError(f"single-block partition for {ideal}")
    return partition


def criteria_check(ideal):
    """Run every applicable unmixedness criterion and insist they agree.

    Degree 2: unmixed iff m*(n - height) = n, and when unmixed the count
    of associated primes must be m. Any degree: unmixed iff every colon
    by a variable is unmixed of the same height. Disagreement with the
    ground-truth decomposition raises TheoremViolationError.

    The colons are decomposed once per orbit of the variable swaps that
    fix the ideal (ideals._swap_orbits): the cover search runs on
    I : x_r for the least variable r of each orbit, and the orbit's other
    variables copy its height and verdict. A swap sigma fixing I maps
    I : x_r onto I : x_sigma(r), and a relabeling keeps both, so
    colon_facts is what one search per variable gives.
    """
    summary = _require_matroidal(ideal)
    if summary.degree < 2:
        raise DomainError("criteria need degree at least 2")
    n = ideal.n
    dec = associated_primes(ideal)
    variables = _swap_orbits(ideal)
    facts = {}
    for r in variables:
        if r not in facts:
            colon_dec = associated_primes(ideal.colon(Monomial.variable(n, r + 1)))
            facts[r] = colon_dec.height, colon_dec.is_unmixed
    colon_facts = tuple((i, *facts[r]) for i, r in enumerate(variables, start=1))
    t2 = all(unmixed and h == dec.height for _, h, unmixed in colon_facts)
    if t2 != dec.is_unmixed:
        raise TheoremViolationError(
            f"colon criterion disagrees with unmixedness on {ideal}")
    block_count = None
    c1 = None
    if summary.degree == 2:
        block_count = partition_degree2(ideal).m
        c1 = block_count * (n - dec.height) == n
        if c1 != dec.is_unmixed:
            raise TheoremViolationError(
                f"block identity disagrees with unmixedness on {ideal}")
        if dec.is_unmixed and len(dec.ass) != block_count:
            raise TheoremViolationError(
                f"expected {block_count} associated primes on {ideal}, got {len(dec.ass)}")
    return CriteriaReport(
        n=n,
        degree=summary.degree,
        height=dec.height,
        big_height=dec.big_height,
        is_unmixed=dec.is_unmixed,
        ass_count=len(dec.ass),
        block_count=block_count,
        c1_identity=c1,
        colon_facts=colon_facts,
        t2_condition=t2,
    )


def p1_classify(ideal):
    """Which branch a degree-2 polymatroidal ideal with Ass = Min falls in.

    Returns MATROIDAL or POWER_OF_M. Anything else is impossible for
    valid input, so a third outcome raises TheoremViolationError.
    """
    summary = ideal.summarize()
    if not summary.is_full_supported:
        raise DomainError("full support required")
    if summary.degree != 2:
        raise DomainError(f"degree 2 required, got {summary.degree}")
    if not is_polymatroidal(ideal).holds:
        raise DomainError("polymatroidal ideal required")
    dec = associated_primes(ideal)
    if dec.ass != dec.minimal:
        raise DomainError("classification applies only when Ass equals Min")
    if is_matroidal(ideal):
        return MATROIDAL
    if ideal == veronese(ideal.n, 2):
        return POWER_OF_M
    raise TheoremViolationError(
        f"{ideal} is neither matroidal nor the squared maximal ideal")
