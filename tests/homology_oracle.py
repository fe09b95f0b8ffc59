"""Slow oracle for the homology engine: the original dense routines.

Faces are frozensets, boundary matrices are dense lists of lists, ranks
come from fraction-free integer elimination over the rationals and from
row reduction mod p over GF(p), and pd_depth inspects every one of the
2^n square-free multidegrees. Nothing here shares code with
matroidalkit.homology beyond SimplicialComplex.faces, the field check
and the ideal classes, so the bitmask kernel is checked against an
independent route.
"""

from __future__ import annotations

import itertools

from matroidalkit.decomposition import associated_primes
from matroidalkit.errors import DomainError
from matroidalkit.fields import require_field
from matroidalkit.ideals import Monomial


def face_set(ideal):
    """Faces of the face complex: the subsets whose monomial is not in I."""
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("face complex needs a proper nonzero ideal")
    if not ideal.is_squarefree:
        raise DomainError("face complex defined for square-free ideals only")
    n = ideal.n
    return {frozenset(s)
            for k in range(n + 1)
            for s in itertools.combinations(range(1, n + 1), k)
            if not ideal.contains(Monomial.from_support(n, s))}


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
    """Ranks of reduced homology per dimension, from -1 up to dim."""
    require_field(field)
    return _ranks_of_faces(complex_.faces(), field)


def betti_table(ideal, field=None):
    """Betti table of R/I over all 2^n square-free multidegrees.

    beta_{i, sigma} is the reduced homology rank of the face complex
    restricted to sigma, in dimension |sigma| - i - 1; absent keys are
    zero. No multidegree is skipped.
    """
    require_field(field)
    faces = sorted(face_set(ideal), key=lambda f: (len(f), sorted(f)))
    n = ideal.n
    betti = {}
    for mask in range(1 << n):
        sigma = frozenset(i + 1 for i in range(n) if (mask >> i) & 1)
        ranks = _ranks_of_faces([f for f in faces if f <= sigma], field)
        for i in range(len(sigma) + 1):
            value = ranks.get(len(sigma) - i - 1, 0)
            if value:
                betti[(i, sigma)] = value
    return betti


def pd_depth(ideal, field=None):
    """(pd, depth, is_cm, betti) from the full Betti table."""
    betti = betti_table(ideal, field)
    pd = max(i for i, _ in betti)
    height = associated_primes(ideal).height
    return pd, ideal.n - pd, height == pd, betti
