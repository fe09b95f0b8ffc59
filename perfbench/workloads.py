"""Seeded corpora for the two workloads, and the checks on their outputs.

Nothing here imports matroidalkit. Ideals are built as exponent vectors,
and every expected answer comes from a closed form or from the brute-force
oracles in this file, never from the code under test.

Each workload is a fixed list of op shapes (family, size, field) that is
the same for every seed. The seed picks the op order, and what varies
inside the shapes where that hardly moves the cost: the labels of
analyze's transversals and Veronese ideals, and its random ideals. What
moves the cost (certify's labels and fields, analyze's block-power labels)
is fixed. No input occurs twice in one corpus.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("certify", "analyze")

# Per-op time limit in seconds (half as long again when traced). The
# slowest op at the seed commit takes about 3.5 s on certify and 2 s on
# analyze.
OP_LIMIT_S = {"certify": 20.0, "analyze": 20.0}

CERTIFY_PRIME = "gf:32003"

# analyze op shapes; every third one of each family runs over GF(2)
TRANSVERSAL_SHAPES = [(3, 4), (2, 2, 3), (1, 2, 2, 2), (4, 4), (2, 3, 3), (2, 2, 4),
                      (1, 3, 4), (2, 2, 2, 2), (4, 5), (3, 6), (3, 3, 3), (1, 1, 2, 4),
                      (2, 3, 4), (5, 5), (3, 3, 4)]
VERONESE_SHAPES = [(7, 3), (7, 4), (8, 3), (8, 5), (9, 4)]
RANDOM_SHAPES = [(7, 3, 10), (7, 4, 14), (8, 3, 14), (8, 4, 20),
                 (9, 3, 16), (9, 4, 18), (10, 3, 20)]
# (block sizes, powers): products of block powers, not square-free. Their
# labels stay fixed: the splitting recursion peels the lowest-index variable
# first, and a relabelling changes its cost up to fourfold
POWER_SHAPES = [((2, 5), (2, 1)), ((2, 6), (2, 1))]


@dataclass
class Op:
    """One main(argv) call: its arguments, stdin text, and what it must return."""

    argv: list
    stdin: str
    n: int
    ideals: int
    expect: dict = field(default_factory=dict)

    @property
    def field_arg(self):
        return self.argv[self.argv.index("--field") + 1]

    @property
    def label(self):
        return f"{self.argv[0]} {self.field_arg} n={self.n} {self.expect.get('shape', '')}"


# ---------------------------------------------------------------- oracles

def bits(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def mask_of(exponents):
    return sum(1 << k for k, e in enumerate(exponents) if e)


def is_basis_family(masks):
    """Basis exchange by brute force: B1 - e + f is a basis for some f."""
    family = set(masks)
    for b1 in family:
        for b2 in family:
            for e in bits(b1 & ~b2):
                if not any((b1 & ~(1 << e)) | (1 << f) in family
                           for f in bits(b2 & ~b1)):
                    return False
    return True


def matroid_census(n, d):
    """Every full-support family of d-subsets of [n] that is a matroid's bases."""
    layer = [sum(1 << k for k in c) for c in itertools.combinations(range(n), d)]
    full = (1 << n) - 1
    found = []
    for selector in range(1, 1 << len(layer)):
        masks = [m for k, m in enumerate(layer) if selector >> k & 1]
        support = 0
        for m in masks:
            support |= m
        if support == full and is_basis_family(masks):
            found.append(tuple(sorted(masks)))
    return found


def minimal_covers(n, masks):
    """Inclusion-minimal vertex covers of the supports, by scanning 2^n sets."""
    covers = {c for c in range(1 << n) if all(c & g for g in masks)}
    return sorted(c for c in covers
                  if not any(c & ~(1 << k) in covers for k in bits(c)))


def face_count(n, masks):
    """Faces of the Stanley-Reisner complex: the sets containing no generator."""
    return sum(1 for s in range(1 << n) if not any(g & ~s == 0 for g in masks))


# ---------------------------------------------------------------- ideals

def relabel(gens, perm):
    """Apply a variable permutation: exponent k moves to position perm[k]."""
    out = []
    for g in gens:
        moved = [0] * len(g)
        for k, e in enumerate(g):
            moved[perm[k]] = e
        out.append(tuple(moved))
    return tuple(sorted(out))


def squarefree(n, masks):
    return tuple(sorted(tuple(m >> k & 1 for k in range(n)) for m in masks))


def power_product(n, blocks, powers):
    """Minimal generators of prod_i (x_b : b in B_i)^e_i as exponent vectors."""
    gens = [(0,) * n]
    for block, e in zip(blocks, powers):
        step = set()
        for combo in itertools.combinations_with_replacement(block, e):
            for g in gens:
                h = list(g)
                for v in combo:
                    h[v - 1] += 1
                step.add(tuple(h))
        gens = step
    return tuple(sorted(gens))


def consecutive_blocks(sizes):
    blocks, start = [], 1
    for s in sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    return blocks


def transversal_masks(blocks):
    return [sum(1 << (v - 1) for v in pick) for pick in itertools.product(*blocks)]


class Corpus:
    """A workload's ops, built from one seed; inputs never repeat."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload}/{seed}")
        self.ops = []
        self._seen = set()

    def fresh(self, n, gens):
        """Record an input; False if the corpus already holds it."""
        key = (n, tuple(sorted(gens)))
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def relabelled(self, n, gens, tries=500):
        """A seeded relabelling of the ideal that the corpus does not hold yet.

        Symmetric ideals have few distinct relabellings (V(n,d) has one),
        so the draw repeats, and gives up loudly once the orbit is used up.
        """
        for _ in range(tries):
            perm = list(range(n))
            self.rng.shuffle(perm)
            moved = relabel(gens, perm)
            if self.fresh(n, moved):
                return moved, perm
        raise RuntimeError(f"no unused relabelling left for a {self.workload} ideal on n={n}")

    def finish(self):
        """Shuffle the ops and assert that no ideal occurs twice."""
        self.rng.shuffle(self.ops)
        inputs = [(op.n, tuple(sorted(map(tuple, json.loads(op.stdin)["gens"]))))
                  for op in self.ops if op.stdin]
        if len(set(inputs)) != len(inputs):
            raise RuntimeError(f"{self.workload} corpus repeats an ideal (seed {self.seed})")
        return self


def ideal_text(n, gens):
    return json.dumps({"n": n, "gens": [list(g) for g in gens]})


def orbit(n, masks):
    """Every relabelling of a square-free ideal, as sorted mask tuples."""
    return {tuple(sorted(sum(1 << p[k] for k in bits(m)) for m in masks))
            for p in itertools.permutations(range(n))}


def squarefree_members(n, masks, size):
    """Square-free monomials of the given degree lying in the ideal."""
    return sum(1 for s in itertools.combinations(range(n), size)
               if any(g & ~sum(1 << k for k in s) == 0 for g in masks))


# ---------------------------------------------------------------- certify

def _certify_op(n, gens, field_):
    masks = [mask_of(g) for g in gens]
    d = sum(gens[0])
    return Op(argv=["certify", "--json", "--field", field_, "-"],
              stdin=ideal_text(n, gens), n=n, ideals=1,
              expect={"gens": gens, "d": d, "field": field_, "shape": f"d={d}",
                      "layer_sizes": [squarefree_members(n, masks, n - j)
                                      for j in range(n - d + 1)]})


def build_certify(seed):
    """Full-support matroidal ideals with n = 4, 5 and d = 2, 3, plus
    K_{2,2,2} over Q and V(6,4) over GF(32003).

    Degrevlex work depends on the variable order, so each isomorphism class
    comes with several of its relabellings: all of them for n = 4, and the
    lexicographically first third of each class for (5,3) and eighth for
    (5,2), whose 51 members alone take 27 s. The subsets are fixed, because
    letting the seed choose them moved p50 and p90 by 12-13% between seeds.
    For the same reason K_{2,2,2} keeps its standard labels (its 15
    relabellings take from 2.8 s to 3.7 s), and within each class the
    members alternate between q and gf:32003 in their lexicographic order,
    not a seeded one. The corpus is thus the same for every seed; the seed
    orders the ops.
    """
    corpus = Corpus("certify", seed)
    for n, d in ((4, 2), (4, 3), (5, 2), (5, 3)):
        remaining = set(matroid_census(n, d))
        if len(remaining) != {(4, 2): 14, (4, 3): 11, (5, 2): 51, (5, 3): 106}[(n, d)]:
            raise RuntimeError(f"oracle census ({n},{d}) has {len(remaining)} members")
        while remaining:
            members = sorted(orbit(n, min(remaining)))
            remaining -= set(members)
            share = {(5, 2): 8, (5, 3): 3}.get((n, d), 1)
            members = members[:-(-len(members) // share)]
            for k, masks in enumerate(members):
                corpus.ops.append(_certify_op(n, squarefree(n, masks),
                                              "q" if k % 2 == 0 else CERTIFY_PRIME))
    k222 = transversal_masks(consecutive_blocks((2, 2, 2)))
    v64 = [sum(1 << k for k in c) for c in itertools.combinations(range(6), 4)]
    for masks, field_ in ((k222, "q"), (v64, CERTIFY_PRIME)):
        gens = squarefree(6, masks)
        corpus.fresh(6, gens)
        corpus.ops.append(_certify_op(6, gens, field_))
    return corpus.finish()


def check_certify(op, payload):
    e = op.expect
    n, d = op.n, e["d"]
    rank = n - d + 1
    problems = _check_input(op, payload)
    w = payload.get("witness", {})
    got = (w.get("degree"), w.get("lower"), w.get("upper"), w.get("exact"))
    if got != (d, rank, rank, True):
        problems.append(f"witness (degree, lower, upper, exact) = {got}, "
                        f"want {(d, rank, rank, True)}")
    if len(w.get("sums", [])) != rank:
        problems.append(f"{len(w.get('sums', []))} witness sums, want {rank}")
    if [len(layer) for layer in w.get("layers", [])] != e["layer_sizes"]:
        problems.append(f"layer sizes differ from {e['layer_sizes']}")
    c = payload.get("certification", {})
    want_field = "rationals" if e["field"] == "q" else e["field"]
    if (c.get("passed"), c.get("field"), c.get("failing_generators")) != (True, want_field, []):
        problems.append(f"certification {c}")
    if "subset_failure" in c:
        problems.append("certification reports a subset failure")
    return problems


# ---------------------------------------------------------------- analyze

def _analyze_op(n, gens, field_, shape, expect):
    expect.update(gens=gens, shape=shape)
    return Op(argv=["analyze", "--json", "--no-certify", "--field", field_, "-"],
              stdin=ideal_text(n, gens), n=n, ideals=1, expect=expect)


def _matroidal_expect(n, blocks, degree, rank, is_cm):
    """Expected sections for a full-support matroidal ideal."""
    heights = sorted(len(b) for b in blocks)
    unmixed = heights[0] == heights[-1]
    expect = {
        "family": "matroidal",
        "ass": sorted(tuple(sorted(b)) for b in blocks),
        "height": heights[0], "big_height": heights[-1], "is_unmixed": unmixed,
        "degree": degree, "pd": rank, "is_cm": is_cm,
    }
    if degree == 2:
        # a degree-2 matroidal ideal is complete multipartite: its primes
        # are the complements of its blocks
        everything = set(range(1, n + 1))
        expect["partition"] = sorted(tuple(sorted(everything - set(b))) for b in blocks)
    return expect


def build_analyze(seed):
    """Transversals, square-free Veronese, random non-matroidal and
    non-square-free block-power ideals on n = 7..10 variables; the seed
    picks the labels and the random ideals.

    Transversals: pd = n - m + 1 = ara for m blocks, Ass = the blocks.
    V(n,d): Cohen-Macaulay with pd = n - d + 1. Random ideals are checked
    against the brute-force exchange and vertex-cover oracles. Block-power
    products have Ass = the blocks and take the irreducible decomposition
    route. Every third op of each family runs over GF(2).
    """
    corpus = Corpus("analyze", seed)

    def field_for(k):
        return "gf:2" if k % 3 == 1 else "q"

    for k, sizes in enumerate(TRANSVERSAL_SHAPES):
        n, m = sum(sizes), len(sizes)
        blocks = consecutive_blocks(sizes)
        gens, perm = corpus.relabelled(n, squarefree(n, transversal_masks(blocks)))
        moved = [tuple(perm[v - 1] + 1 for v in b) for b in blocks]
        # a transversal is the intersection of its block primes
        expect = _matroidal_expect(n, moved, m, n - m + 1, n - m + 1 == min(sizes))
        corpus.ops.append(_analyze_op(n, gens, field_for(k), f"K{sizes}", expect))
    for k, (n, d) in enumerate(VERONESE_SHAPES):
        gens, _ = corpus.relabelled(
            n, squarefree(n, [sum(1 << i for i in c)
                              for c in itertools.combinations(range(n), d)]))
        primes = list(itertools.combinations(range(1, n + 1), n - d + 1))
        expect = _matroidal_expect(n, primes, d, n - d + 1, True)
        corpus.ops.append(_analyze_op(n, gens, field_for(k), f"V({n},{d})", expect))
    for k, (n, d, count) in enumerate(RANDOM_SHAPES):
        layer = [sum(1 << i for i in c) for c in itertools.combinations(range(n), d)]
        while True:
            masks = corpus.rng.sample(layer, count)
            support = 0
            for mk in masks:
                support |= mk
            if support == (1 << n) - 1 and not is_basis_family(masks):
                gens = squarefree(n, masks)
                if corpus.fresh(n, gens):
                    break
        primes = [tuple(i + 1 for i in bits(c)) for c in minimal_covers(n, masks)]
        heights = sorted(len(p) for p in primes)
        expect = {"family": "random", "ass": sorted(primes), "height": heights[0],
                  "big_height": heights[-1], "is_unmixed": heights[0] == heights[-1],
                  "degree": d}
        corpus.ops.append(_analyze_op(n, gens, field_for(k), f"R({n},{d},{count})", expect))
    for k, (sizes, powers) in enumerate(POWER_SHAPES):
        n = sum(sizes)
        blocks = consecutive_blocks(sizes)
        gens = power_product(n, blocks, powers)
        heights = sorted(len(b) for b in blocks)
        expect = {"family": "power", "ass": blocks, "height": heights[0],
                  "big_height": heights[-1], "is_unmixed": heights[0] == heights[-1],
                  "degree": sum(powers)}
        corpus.ops.append(_analyze_op(n, gens, field_for(k), f"P{sizes}^{powers}", expect))
    return corpus.finish()


def _check_input(op, payload):
    got = sorted(map(tuple, payload.get("input", {}).get("gens", [])))
    return [] if got == sorted(op.expect["gens"]) else ["input echo differs"]


def _skipped(payload, *sections):
    return [f"{s} not skipped" for s in sections if "skipped" not in payload.get(s, {})]


def check_analyze(op, payload):
    e = op.expect
    n = op.n
    problems = _check_input(op, payload)
    family = e["family"]
    summary = payload.get("summary", {})
    want = (len(e["gens"]), family != "power", e["degree"], True)
    got = (summary.get("mu"), summary.get("is_squarefree"), summary.get("degree"),
           summary.get("is_full_supported"))
    if got != want:
        problems.append(f"summary {got}, want {want}")
    dec = payload.get("decomposition", {})
    ass = sorted(tuple(p) for p in dec.get("ass", []))
    if ass != e["ass"] or sorted(tuple(p) for p in dec.get("minimal", [])) != e["ass"]:
        problems.append("associated primes differ from the oracle")
    got = (dec.get("height"), dec.get("big_height"), dec.get("is_unmixed"))
    if got != (e["height"], e["big_height"], e["is_unmixed"]):
        problems.append(f"decomposition (height, big height, unmixed) = {got}")
    exchange = payload.get("matroidal", {})
    got = (exchange.get("is_polymatroidal"), exchange.get("is_matroidal"))
    want = {"matroidal": (True, True), "random": (False, False),
            "power": (True, False)}[family]
    if got != want:
        problems.append(f"exchange verdict {got}, want {want}")
    homology = payload.get("homology", {})
    if family == "power":
        problems += _skipped(payload, "homology", "partition", "criteria", "rank")
        return problems
    pd, depth, is_cm = homology.get("pd"), homology.get("depth"), homology.get("is_cm")
    if not isinstance(pd, int) or not isinstance(depth, int) or pd + depth != n:
        problems.append(f"pd {pd} + depth {depth} != n")
    elif is_cm != (pd == e["height"]):
        problems.append(f"is_cm {is_cm} disagrees with pd {pd} vs height")
    if family == "random":
        problems += _skipped(payload, "partition", "criteria", "rank")
        return problems
    if (pd, is_cm) != (e["pd"], e["is_cm"]):
        problems.append(f"homology (pd, is_cm) = {(pd, is_cm)}, want {(e['pd'], e['is_cm'])}")
    rank = payload.get("rank", {})
    got = (rank.get("degree"), rank.get("lower"), rank.get("upper"), rank.get("exact"))
    if got != (e["degree"], e["pd"], e["pd"], True):
        problems.append(f"rank (degree, lower, upper, exact) = {got}")
    criteria = payload.get("criteria", {})
    degree2 = e["degree"] == 2
    got = (criteria.get("height"), criteria.get("is_unmixed"), criteria.get("ass_count"),
           criteria.get("t2_condition"), criteria.get("block_count"),
           len(criteria.get("colon_facts", [])))
    want = (e["height"], e["is_unmixed"], len(e["ass"]), e["is_unmixed"],
            len(e["partition"]) if degree2 else None, n)
    if got != want:
        problems.append(f"criteria {got}, want {want}")
    if degree2:
        blocks = sorted(tuple(b) for b in payload.get("partition", {}).get("blocks", []))
        if blocks != e["partition"]:
            problems.append(f"partition {blocks}, want {e['partition']}")
    else:
        problems += _skipped(payload, "partition")
    if payload.get("certification", {}).get("skipped") != "disabled by --no-certify":
        problems.append("certification ran despite --no-certify")
    return problems


# public functions each workload must reach; the traced run fails loudly
# when one of them records no call, since the tracer would then be blind
_CLI = ("cli.main", "cli.run_command", "ideals.make_ideal", "ideals.MonomialIdeal.contains",
        "matroids.is_polymatroidal", "decomposition.associated_primes",
        "homology.pd_depth", "homology.stanley_reisner")
TRACE_EXPECTED = {
    "certify": _CLI + ("cli.parse_ideal", "schmitt_vogel.ara_report",
                       "schmitt_vogel.build_sv_witness", "groebner.certify_witness.q",
                       "groebner.certify_witness.gf", "groebner.radical_membership",
                       "groebner.buchberger", "groebner.normal_form"),
    "analyze": _CLI + ("cli.parse_ideal", "ideals.MonomialIdeal.colon",
                       "decomposition.irreducible_decomposition",
                       "decomposition.criteria_check", "decomposition.partition_degree2",
                       "homology.pd_depth.q", "homology.pd_depth.gf",
                       "schmitt_vogel.ara_report", "schmitt_vogel.build_sv_witness"),
}

CORPORA = {"certify": build_certify, "analyze": build_analyze}
CHECKS = {"certify": check_certify, "analyze": check_analyze}
