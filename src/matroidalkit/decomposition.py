"""Irreducible decomposition, associated primes, and the degree-2 theory.

Monomial primes are plain variable subsets here; nothing else occurs as an
associated prime of a monomial ideal. The splitting recursion handles the
general case. Square-free ideals take a faster route through minimal
vertex covers of the generator supports: a depth-first transversal search
on the int masks of ideals.support_to_mask that reaches every vertex set
at most once and keeps a cover only when each of its vertices has a
private edge (Murakami-Uno's MMCS). Their complements are the facets of
the face complex (homology.stanley_reisner). The two routes are pitted
against each other, and the search against the old branch-on-every-vertex
enumeration kept in tests/decomposition_oracle.py, in the test suite.

Results that a proved statement guarantees are re-checked on the spot;
a mismatch raises TheoremViolationError rather than returning quietly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

from .errors import DomainError, TheoremViolationError
from .ideals import Monomial, MonomialIdeal, mask_to_support
from .matroids import is_matroidal, is_polymatroidal, veronese

MATROIDAL = "matroidal"
POWER_OF_M = "power_of_m"


@dataclass(frozen=True)
class CoverStats:
    """Work counters of one minimal-cover search; equal input gives equal counts.

    nodes counts the vertex sets the search visited below the empty one.
    leaves_kept counts the minimal covers it returned, so on square-free
    input it equals |Ass|. leaves_rejected counts the sets it dropped
    because a chosen vertex had lost its last private edge: no minimal
    cover contains them.
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


def _is_pure_power(m):
    return len(m.support) <= 1


def _split_leaves(ideal, out):
    """Depth-first splitting; appends irreducible leaves to out in order."""
    pivot = next((g for g in ideal.gens if not _is_pure_power(g)), None)
    if pivot is None:
        out.append(ideal)
        return
    i = min(pivot.support)
    power = Monomial(tuple(pivot.degree_in(i) if k == i else 0
                           for k in range(1, ideal.n + 1)))
    _split_leaves(ideal.adjoin(power), out)
    _split_leaves(ideal.adjoin(pivot / power), out)


def _intersect_all(components):
    result = components[0]
    for comp in components[1:]:
        result = result.intersect(comp)
    return result


def _drop_redundant(components):
    """Remove the components that contain another component.

    For irreducible components this is exact: if Q contains the
    intersection of J_1..J_k but none of them, pick u_j in J_j outside Q;
    Q is generated by variable powers, so lcm(u_j), which lies in every
    J_j, stays outside Q. Components must be distinct; order is kept.
    """
    return [q for q in components
            if not any(j is not q and all(q.contains(g) for g in j.gens)
                       for j in components)]


def irreducible_decomposition(ideal):
    """Irredundant irreducible components whose intersection is the ideal.

    Splits the first generator (in stored order) that is not a pure
    variable power, peeling off its lowest-index variable power, and
    recurses on both summands. The reassembled intersection is compared
    against the input before returning.
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("decomposition needs a proper nonzero ideal")
    leaves = []
    _split_leaves(ideal, leaves)
    unique = list(dict.fromkeys(leaves))
    components = _drop_redundant(unique)
    if _intersect_all(components) != ideal:
        raise TheoremViolationError(
            f"irreducible components fail to intersect back to {ideal}")
    return tuple(components)


def _minimal_covers(edges):
    """Inclusion-minimal hitting sets of a list of edges, as vertex masks.

    Returns the covers as a frozenset of 1-indexed frozensets, with the
    CoverStats of the search. Repeated edges count once, and a
    depth-first search runs on (chosen, forbidden): it picks an uncovered
    edge with the fewest allowed vertices (those outside forbidden) and
    branches on them in increasing order, branch j adding v_j and
    forbidding v_1..v_{j-1}. A minimal cover C that avoids forbidden
    meets that edge, so exactly one branch, the one for the first allowed
    vertex in C, keeps chosen inside C and forbidden outside it: every
    vertex set is visited at most once and every minimal cover is reached.

    Each chosen vertex keeps its private edges: those that meet chosen in
    that vertex alone. A cover is minimal exactly when each of its
    vertices has one. Private edges only shrink as chosen grows, so a set
    in which a vertex has lost its last one is dropped at once, cover or
    not; no minimal cover C contains it, since an edge private to u in C
    is private to u in every subset of C that holds u.
    """
    edges = sorted(set(edges))
    found = []
    counts = {"nodes": 0, "leaves_rejected": 0}

    def search(chosen, private, uncovered, forbidden):
        if not uncovered:
            found.append(chosen)
            return
        edge = min(uncovered, key=lambda e: (e & ~forbidden).bit_count())
        allowed = edge & ~forbidden
        while allowed:
            v = allowed & -allowed
            allowed ^= v
            counts["nodes"] += 1
            kept = [[e for e in own if not e & v] for own in private]
            if all(kept):
                kept.append([e for e in uncovered if e & v])
                search(chosen | v, kept, [e for e in uncovered if not e & v], forbidden)
            else:
                counts["leaves_rejected"] += 1
            forbidden |= v

    search(0, [], edges, 0)
    return frozenset(map(mask_to_support, found)), CoverStats(leaves_kept=len(found), **counts)


def associated_primes(ideal):
    """Ass(R/I) with height, big height, and the unmixedness verdict.

    Square-free ideals: the associated primes are exactly the minimal
    vertex covers of the generator supports. Otherwise: radicals of an
    irredundant irreducible decomposition.
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("associated primes need a proper nonzero ideal")
    stats = None
    if ideal.is_squarefree:
        ass, stats = _minimal_covers(ideal.masks)
        minimal = ass
    else:
        ass = frozenset(comp.support for comp in irreducible_decomposition(ideal))
        minimal = frozenset(p for p in ass if not any(q < p for q in ass))
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
    and the block laws themselves, are re-verified before returning.
    """
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
    for i, j in itertools.combinations(range(1, n + 1), 2):
        same = partition.block_of(i) == partition.block_of(j)
        if same == (not out_of(i, j)):
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
    """
    summary = _require_matroidal(ideal)
    if summary.degree < 2:
        raise DomainError("criteria need degree at least 2")
    n = ideal.n
    dec = associated_primes(ideal)
    colon_facts = []
    for i in range(1, n + 1):
        colon_dec = associated_primes(ideal.colon(Monomial.variable(n, i)))
        colon_facts.append((i, colon_dec.height, colon_dec.is_unmixed))
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
        colon_facts=tuple(colon_facts),
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
