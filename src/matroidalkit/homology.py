"""Projective dimension and depth through simplicial combinatorics.

For a square-free ideal the graded Betti numbers of R/I are ranks of
reduced homology of induced subcomplexes of its face complex, one
subcomplex per square-free multidegree. All linear algebra is exact:
fraction-free integer elimination for the rationals, modular elimination
for a prime field. Dense matrices throughout; sizes here are tiny.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dataclass_field

from .decomposition import associated_primes
from .errors import DomainError, StructuralError
from .fields import require_prime
from .ideals import Monomial


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces as subsets of [n], stored by their inclusion-maximal ones.

    The complex whose only face is the empty set is legal (facets contain
    one empty frozenset) and distinct from the void complex (no facets).
    """

    n: int
    facets: tuple

    def __post_init__(self):
        for a, b in itertools.combinations(self.facets, 2):
            if a <= b or b <= a:
                raise StructuralError("facets must be inclusion-incomparable")
        for f in self.facets:
            if not f <= frozenset(range(1, self.n + 1)):
                raise StructuralError(f"facet {sorted(f)} outside 1..{self.n}")

    @classmethod
    def from_faces(cls, n, faces):
        """Complex generated by the given faces; keeps the maximal ones."""
        faces = [frozenset(f) for f in faces]
        maximal = [f for f in faces if not any(f < g for g in faces)]
        unique = sorted(set(maximal), key=lambda f: (len(f), sorted(f)))
        return cls(n, tuple(unique))

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

    def restrict(self, vertices):
        """Induced subcomplex on a vertex subset."""
        vertices = frozenset(vertices)
        inside = [f for f in self.faces() if f <= vertices]
        return SimplicialComplex.from_faces(self.n, inside)


@dataclass(frozen=True)
class HomologyProfile:
    """pd, depth, and the Cohen-Macaulay verdict, with the Betti table.

    betti maps (homological degree i, multidegree as frozenset) to a
    nonzero rank; absent keys are zero.
    """

    pd: int
    depth: int
    is_cm: bool
    betti: dict = dataclass_field(compare=False)


def stanley_reisner(ideal):
    """Face complex of a square-free ideal: faces are the I-free subsets."""
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("face complex needs a proper nonzero ideal")
    if not ideal.is_squarefree:
        raise DomainError("face complex defined for square-free ideals only")
    n = ideal.n
    free = [frozenset(s)
            for k in range(n + 1)
            for s in itertools.combinations(range(1, n + 1), k)
            if not ideal.contains(Monomial.from_support(n, s))]
    return SimplicialComplex.from_faces(n, free)


def _check_field(p):
    if p is not None:
        require_prime(p)


def _rank_exact(rows):
    """Rank over the rationals by fraction-free integer elimination."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            for c in range(col, ncols):
                rows[r][c] = (lead * rows[r][c] - factor * rows[rank][c]) // prev
        prev = lead
        rank += 1
        if rank == len(rows):
            break
    return rank


def _rank_mod(rows, p):
    rows = [[v % p for v in r] for r in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _boundary_matrix(lower, upper):
    """Matrix of the boundary map from span(upper) to span(lower)."""
    index = {f: r for r, f in enumerate(lower)}
    matrix = [[0] * len(upper) for _ in lower]
    for c, face in enumerate(upper):
        members = sorted(face)
        for t, v in enumerate(members):
            matrix[index[frozenset(members) - {v}]][c] = (-1) ** t
    return matrix


def _ranks_of_faces(faces, field):
    """Reduced homology ranks of an explicit downward-closed face set."""
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for k in by_dim:
        by_dim[k].sort(key=sorted)
    top = max(by_dim)
    rank_of = _rank_exact if field is None else lambda m: _rank_mod(m, field)
    boundary_rank = {}
    for k in range(0, top + 1):
        boundary_rank[k] = rank_of(_boundary_matrix(by_dim.get(k - 1, []),
                                                    by_dim.get(k, [])))
    return {k: (len(by_dim.get(k, []))
                - boundary_rank.get(k, 0)
                - boundary_rank.get(k + 1, 0))
            for k in range(-1, top + 1)}


def reduced_homology_ranks(complex_, field=None):
    """Ranks of reduced homology per dimension, from -1 up to dim.

    The empty face spans the degree -1 chain group, so the complex whose
    only face is empty has rank 1 in dimension -1 and the void complex
    has no homology at all.
    """
    _check_field(field)
    return _ranks_of_faces(complex_.faces(), field)


@functools.lru_cache(maxsize=None)
def pd_depth(ideal, field=None):
    """Betti table of R/I over all square-free multidegrees, then pd and depth.

    beta_{i, sigma} is the reduced homology rank of the face complex
    restricted to sigma, in dimension |sigma| - i - 1. The base of the
    resolution is the quotient, so beta_0 = 1 sits at sigma empty and pd
    is the largest homological degree with a nonzero entry. depth comes
    out as n - pd, and Cohen-Macaulayness compares pd with the height.

    No multidegree is skipped; every subset of [n] is inspected.
    """
    _check_field(field)
    faces = sorted(stanley_reisner(ideal).faces(), key=lambda f: (len(f), sorted(f)))
    n = ideal.n
    betti = {}
    for mask in range(1 << n):
        sigma = frozenset(i + 1 for i in range(n) if (mask >> i) & 1)
        ranks = _ranks_of_faces([f for f in faces if f <= sigma], field)
        for i in range(len(sigma) + 1):
            value = ranks.get(len(sigma) - i - 1, 0)
            if value:
                betti[(i, sigma)] = value
    pd = max(i for i, _ in betti)
    height = associated_primes(ideal).height
    return HomologyProfile(pd=pd, depth=n - pd, is_cm=height == pd, betti=betti)
