"""Reference checks shared by the reproduce-paper command and the tests.

Each check re-derives a documented fact from scratch and reports a one
line verdict. The oracles here are written on purpose in a different
style from the library code (set algebra, brute force over subsets, no
shortcuts) so that the two routes stay independent of each other.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .decomposition import (MATROIDAL, POWER_OF_M, associated_primes,
                            criteria_check, irreducible_decomposition,
                            p1_classify, partition_degree2)
from .errors import BudgetExceeded, StructuralError
from .groebner import certify_witness
from .homology import (_hochster_table, betti_table, pd_depth,
                       reduced_homology_ranks, stanley_reisner)
from .ideals import Monomial, MonomialIdeal, make_ideal, squarefree_monomials
from .matroids import (enumerate_matroidal, is_matroidal, is_polymatroidal,
                       is_squarefree_veronese, transversal, veronese)
from .schmitt_vogel import ara_report, build_sv_witness, verify_sv_conditions


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    skipped: bool = False

    @property
    def failed(self):
        return not self.passed and not self.skipped


class _Skip(Exception):
    pass


def _check(name):
    """Wrap a check body into a CheckResult, catching package errors.

    A work limit skips the check, naming the limit; any other package
    error fails it.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                passed, detail = fn(*args, **kwargs)
            except (_Skip, BudgetExceeded) as reason:
                return CheckResult(name, False, str(reason), skipped=True)
            except StructuralError as err:
                return CheckResult(name, False, f"{type(err).__name__}: {err}")
            return CheckResult(name, passed, detail)
        run.check_name = name
        return run
    return wrap


def _verdict(problems, detail):
    if problems:
        return False, "; ".join(problems[:4])
    return True, detail


def two_blocks_n4():
    """The four-generator grid ideal on two 2-blocks."""
    return transversal(4, [{1, 2}, {3, 4}])


def two_blocks_n5():
    """The six-generator ideal on a 2-block and a 3-block."""
    return transversal(5, [{1, 2}, {3, 4, 5}])


@_check("example-n4")
def check_example_n4():
    ideal = two_blocks_n4()
    problems = []
    if not is_matroidal(ideal):
        problems.append("exchange check failed")
    dec = associated_primes(ideal)
    if dec.ass != frozenset({frozenset({1, 2}), frozenset({3, 4})}):
        problems.append(f"unexpected primes {sorted(map(sorted, dec.ass))}")
    if not dec.is_unmixed or dec.height != 2:
        problems.append(f"expected unmixed height 2, got height {dec.height}")
    profile = pd_depth(ideal)
    if (profile.pd, profile.depth, profile.is_cm) != (3, 1, False):
        problems.append(f"expected pd 3 depth 1 not CM, got {profile}")
    blocks = partition_degree2(ideal)
    if set(blocks.blocks) != {frozenset({1, 2}), frozenset({3, 4})} or blocks.m != 2:
        problems.append(f"unexpected blocks {blocks.blocks}")
    report = criteria_check(ideal)
    if report.c1_identity is not True:
        problems.append("block identity 2*(4-2)=4 not confirmed")
    rank = ara_report(ideal)
    if not (rank.exact and rank.lower == rank.upper == 3):
        problems.append(f"expected exact rank 3, got [{rank.lower}, {rank.upper}]")
    return _verdict(problems, "matroidal, unmixed, height 2, pd 3, not CM, rank exactly 3")


@_check("example-n5")
def check_example_n5():
    ideal = two_blocks_n5()
    problems = []
    if not is_matroidal(ideal):
        problems.append("exchange check failed")
    dec = associated_primes(ideal)
    if dec.ass != frozenset({frozenset({1, 2}), frozenset({3, 4, 5})}):
        problems.append(f"unexpected primes {sorted(map(sorted, dec.ass))}")
    if {len(p) for p in dec.ass} != {2, 3} or dec.is_unmixed:
        problems.append("expected mixed heights {2, 3}")
    report = criteria_check(ideal)
    if not all(unmixed for _, _, unmixed in report.colon_facts):
        problems.append("some colon by a variable is not unmixed")
    if {h for _, h, _ in report.colon_facts} != {2, 3}:
        problems.append("expected colon heights {2, 3}")
    if report.t2_condition or report.is_unmixed:
        problems.append("joint colon condition should fail here")
    return _verdict(problems,
                    "every colon unmixed, heights split 2 vs 3, ideal not unmixed")


@_check("example-n3")
def check_example_n3():
    problems = []
    first = MonomialIdeal.from_supports(3, [{1, 2}, {1, 3}])
    if not is_matroidal(first):
        problems.append("two-generator ideal should be matroidal")
    dec1 = associated_primes(first)
    if dec1.ass != frozenset({frozenset({1}), frozenset({2, 3})}):
        problems.append(f"unexpected primes {sorted(map(sorted, dec1.ass))}")
    if dec1.ass != dec1.minimal or dec1.is_unmixed:
        problems.append("expected embedded-free yet mixed heights")
    second = make_ideal(3, [(2, 1, 0), (2, 0, 1)])
    if not is_polymatroidal(second).holds:
        problems.append("squared-variable ideal should pass the exchange check")
    if second.is_squarefree or second.summarize().degree != 3:
        problems.append("expected a non-square-free degree-3 ideal")
    components = set(irreducible_decomposition(second))
    expected = {make_ideal(3, [(2, 0, 0)]), MonomialIdeal.from_supports(3, [{2}, {3}])}
    if components != expected:
        problems.append(f"unexpected components {[str(c) for c in components]}")
    dec2 = associated_primes(second)
    if dec2.ass != frozenset({frozenset({1}), frozenset({2, 3})}) or dec2.ass != dec2.minimal:
        problems.append("expected the same primes, all minimal")
    if second == veronese(3, 3):
        problems.append("ideal must differ from the full degree-3 power")
    return _verdict(problems,
                    "both ideals have Ass = Min; one matroidal, one a non-square-free split")


def _full_support_family(max_n, degrees):
    for n in range(2, max_n + 1):
        for d in degrees:
            if 1 <= d <= n:
                yield n, d, enumerate_matroidal(n, d, True)


@_check("rank-witness-sweep")
def check_rank_witness_sweep(max_n=5, max_d=3):
    if max_n < 2 or max_d < 2:
        raise _Skip("needs n >= 2 and d >= 2")
    problems = []
    certified = 0
    degrees = tuple(d for d in (2, 3) if d <= max_d)
    for n, d, ideals in _full_support_family(min(max_n, 5), degrees):
        for ideal in ideals:
            witness = build_sv_witness(ideal)
            conditions = verify_sv_conditions(witness.layers, ideal)
            if not conditions:
                problems.append(f"{ideal}: layer condition {conditions.violated}")
                continue
            certificate = certify_witness(ideal, witness)
            if not certificate.passed:
                problems.append(f"{ideal}: certificate failed")
                continue
            if not (witness.ara_lower == witness.ara_upper == n - d + 1):
                problems.append(f"{ideal}: bounds [{witness.ara_lower}, {witness.ara_upper}]")
                continue
            certified += 1
    return _verdict(problems, f"{certified} ideals certified at rank n-d+1")


@_check("pd-formula-sweep")
def check_pd_formula_sweep(max_n=6, max_d=3):
    problems = []
    count = 0
    for n, d, ideals in _full_support_family(max_n, range(1, max_d + 1)):
        for ideal in ideals:
            for field in (None, 2):
                profile = pd_depth(ideal, field)
                if (profile.pd, profile.depth) != (n - d + 1, d - 1):
                    label = "rationals" if field is None else f"GF({field})"
                    problems.append(f"{ideal} over {label}: pd {profile.pd}")
            count += 1
    return _verdict(problems, f"pd = n-d+1 and depth = d-1 on {count} ideals, both fields")


@_check("linear-quotient-sweep")
def check_linear_quotient_sweep(max_n=6, max_d=3):
    """The linear-quotient Betti table against the homology route's."""
    problems = []
    count = 0
    for _, _, ideals in _full_support_family(max_n, range(1, max_d + 1)):
        for ideal in ideals:
            for field in (None, 2):
                fast = pd_depth(ideal, field)
                table = betti_table(ideal, field)
                label = "rationals" if field is None else f"GF({field})"
                if fast.stats.route != "linear_quotients":
                    problems.append(f"{ideal} over {label}: no linear quotients")
                elif (table != _hochster_table(ideal, field)
                      or fast.pd != max(i for i, _ in table)):
                    problems.append(f"{ideal} over {label}: the routes disagree")
            count += 1
    return _verdict(problems,
                    f"linear quotients and homology give one Betti table on {count} "
                    "ideals, both fields")


@_check("block-identity-sweep")
def check_block_identity_sweep(max_n=6):
    problems = []
    count = unmixed_count = 0
    for n, _, ideals in _full_support_family(max_n, (2,)):
        for ideal in ideals:
            report = criteria_check(ideal)
            identity = report.block_count * (n - report.height) == n
            if identity != report.is_unmixed:
                problems.append(f"{ideal}: identity and unmixedness disagree")
            if report.is_unmixed:
                unmixed_count += 1
                if report.ass_count != report.block_count:
                    problems.append(f"{ideal}: {report.ass_count} primes, {report.block_count} blocks")
            count += 1
    return _verdict(problems,
                    f"identity holds on {count} degree-2 ideals ({unmixed_count} unmixed)")


@_check("colon-criterion-sweep")
def check_colon_criterion_sweep(max_n=6, max_d=3):
    problems = []
    count = 0
    degrees = tuple(d for d in (2, 3) if d <= max_d)
    for _, _, ideals in _full_support_family(max_n, degrees):
        for ideal in ideals:
            report = criteria_check(ideal)
            if report.t2_condition != report.is_unmixed:
                problems.append(f"{ideal}: colon criterion disagrees")
            count += 1
    return _verdict(problems, f"colon criterion matches unmixedness on {count} ideals")


@_check("degree2-classification-sweep")
def check_degree2_classification_sweep(max_n=4):
    problems = []
    branches = {MATROIDAL: 0, POWER_OF_M: 0}
    examined = 0
    for n in range(1, min(max_n, 4) + 1):
        degree2 = veronese(n, 2).gens
        for selector in range(1, 1 << len(degree2)):
            chosen = tuple(degree2[k] for k in range(len(degree2))
                           if (selector >> k) & 1)
            ideal = MonomialIdeal(n, chosen)
            if not is_polymatroidal(ideal).holds:
                continue
            if ideal.support != frozenset(range(1, n + 1)):
                continue
            dec = associated_primes(ideal)
            if dec.ass != dec.minimal:
                continue
            examined += 1
            branches[p1_classify(ideal)] += 1
    return _verdict(problems,
                    f"{examined} candidates split {branches[MATROIDAL]} matroidal, "
                    f"{branches[POWER_OF_M]} squared-maximal, nothing else")


@_check("n6-unmixed-noncm")
def check_counterexample_n6(max_n=6, max_d=3):
    if max_n < 6 or max_d < 3:
        raise _Skip("needs the n=6, d=3 enumeration")
    ideals = enumerate_matroidal(6, 3, True)
    unmixed = [i for i in ideals if associated_primes(i).is_unmixed]
    non_cm = [i for i in unmixed if not pd_depth(i).is_cm]
    if not non_cm:
        return False, f"no unmixed non-CM ideal among {len(ideals)} candidates"
    sample = non_cm[0]
    return True, (f"{len(non_cm)} of {len(unmixed)} unmixed ideals are not CM, "
                  f"e.g. {sample}")


@_check("sci-equivalence-sweep")
def check_sci_equivalence_sweep(max_n=5):
    problems = []
    count = veronese_count = 0
    for n in range(2, min(max_n, 5) + 1):
        for d in range(1, n + 1):
            for ideal in enumerate_matroidal(n, d, True):
                rank = ara_report(ideal)
                full_layer = is_squarefree_veronese(ideal)
                complete_intersection = (rank.exact
                                         and rank.lower == associated_primes(ideal).height)
                cm = pd_depth(ideal).is_cm
                if not (full_layer == complete_intersection == cm):
                    problems.append(f"{ideal}: flags {full_layer}/{complete_intersection}/{cm}")
                count += 1
                veronese_count += full_layer
    return _verdict(problems,
                    f"three-way equivalence on {count} ideals ({veronese_count} full layers)")


def _squarefree_corpus(max_n):
    """Deterministic mixed bag of square-free test ideals, seeded."""
    rng = random.Random(173)
    corpus = [two_blocks_n4(), MonomialIdeal.from_supports(3, [{1, 2}, {1, 3}])]
    if max_n >= 5:
        corpus.append(two_blocks_n5())
    for n in range(2, max_n + 1):
        corpus.append(MonomialIdeal.maximal(n))
        for _ in range(5):
            d = rng.randint(1, n)
            layer = squarefree_monomials(n, d)
            corpus.append(make_ideal(n, rng.sample(layer, rng.randint(1, len(layer)))))
        low = rng.sample(squarefree_monomials(n, max(1, n - 2)), 2)
        high = rng.sample(squarefree_monomials(n, n - 1), min(2, n - 1))
        corpus.append(make_ideal(n, low + high))
    return [ideal for ideal in corpus if not ideal.is_zero and not ideal.is_unit]


def _subsets(n):
    items = range(1, n + 1)
    for k in range(n + 1):
        for combo in itertools.combinations(items, k):
            yield frozenset(combo)


@_check("oracle-ideal-arithmetic")
def check_oracle_ideal_arithmetic(max_n=6):
    problems = []
    rng = random.Random(509)
    corpus = _squarefree_corpus(max_n)
    checked = 0
    for ideal in corpus:
        n = ideal.n
        gen_supports = [g.support for g in ideal.gens]
        for subset in _subsets(n):
            inside = ideal.contains(Monomial.from_support(n, subset))
            covered = any(s <= subset for s in gen_supports)
            if inside != covered:
                problems.append(f"{ideal}: membership differs at {sorted(subset)}")
            checked += 1
        probes = [Monomial.variable(n, rng.randint(1, n)),
                  Monomial.from_support(n, rng.sample(range(1, n + 1), min(2, n))),
                  Monomial(tuple(rng.randint(0, 2) for _ in range(n)))]
        for u in probes:
            quotient = ideal.colon(u)
            for subset in _subsets(n):
                w = Monomial.from_support(n, subset)
                if quotient.contains(w) != any(g.divides(u * w) for g in ideal.gens):
                    problems.append(f"{ideal}: colon by {u} differs at {w}")
            v = probes[rng.randrange(len(probes))]
            if quotient.colon(v) != ideal.colon(u * v):
                problems.append(f"{ideal}: colon composition fails for {u}, {v}")
            checked += 1
    by_n = {}
    for ideal in corpus:
        by_n.setdefault(ideal.n, []).append(ideal)
    for group in by_n.values():
        for left, right in zip(group, group[1:]):
            meet = left.intersect(right)
            for subset in _subsets(left.n):
                w = Monomial.from_support(left.n, subset)
                if meet.contains(w) != (left.contains(w) and right.contains(w)):
                    problems.append(f"intersection of {left} and {right} differs at {w}")
            checked += 1
    return _verdict(problems, f"membership, colon, and intersection agree ({checked} probes)")


@_check("oracle-minimal-primes")
def check_oracle_minimal_primes(max_n=6):
    problems = []
    count = 0
    for ideal in _squarefree_corpus(max_n):
        gen_supports = [g.support for g in ideal.gens]
        hitting = [s for s in _subsets(ideal.n)
                   if all(s & sup for sup in gen_supports)]
        brute = frozenset(s for s in hitting
                          if not any(t < s for t in hitting))
        # the colons I : x^F (F a face) generated by variables are Ass too:
        # I : x^F is the intersection of the primes in Ass that miss F, so a
        # prime one is among them, and F = [n] - P gives P
        faces = (Monomial.from_support(ideal.n, f) for f in _subsets(ideal.n))
        colons = [ideal.colon(u) for u in faces if not ideal.contains(u)]
        primes = frozenset(q.support for q in colons if all(g.degree == 1 for g in q.gens))
        direct = associated_primes(ideal)
        split = frozenset(c.support for c in irreducible_decomposition(ideal))
        if not (brute == primes == direct.minimal == direct.ass == split):
            problems.append(f"{ideal}: prime routes disagree")
        count += 1
    return _verdict(problems, "minimal hitting sets, prime colons and the cover search "
                    f"agree on {count} square-free ideals")


def _bases_exchange(bases):
    """Set-theoretic basis exchange on a collection of equal-size sets."""
    pool = set(bases)
    for b1 in bases:
        for b2 in bases:
            for e in b1 - b2:
                if not any((b1 - {e}) | {f} in pool for f in b2 - b1):
                    return False
    return True


@_check("oracle-exchange")
def check_oracle_exchange(max_n=6, max_d=3):
    problems = []
    compared = 0
    for n in range(2, max_n + 1):
        for d in range(1, min(max_d, n) + 1):
            expected = enumerate_matroidal(n, d, False)  # refuses before the scan below
            layer = squarefree_monomials(n, d)
            survivors = []
            for selector in range(1, 1 << len(layer)):
                chosen = tuple(layer[k] for k in range(len(layer))
                               if (selector >> k) & 1)
                ideal = MonomialIdeal(n, chosen)
                verdict = is_matroidal(ideal)
                oracle = _bases_exchange([g.support for g in chosen])
                if verdict != oracle:
                    problems.append(f"{ideal}: exchange {verdict}, basis axiom {oracle}")
                if verdict:
                    survivors.append(ideal)
                compared += 1
            if tuple(survivors) != expected:
                problems.append(f"enumeration n={n} d={d} differs from direct scan")
    return _verdict(problems, f"exchange equals basis axiom on {compared} collections")


@_check("oracle-euler")
def check_oracle_euler(max_n=6):
    problems = []
    count = 0
    for ideal in _squarefree_corpus(max_n):
        complex_ = stanley_reisner(ideal)
        faces = complex_.faces()
        for field in (None, 2):
            ranks = reduced_homology_ranks(complex_, field)
            from_faces = sum((-1) ** len(f) for f in faces)
            from_ranks = sum((-1) ** (k + 1) * h for k, h in ranks.items())
            if from_faces != from_ranks:
                problems.append(f"{ideal}: Euler sums {from_faces} vs {from_ranks}")
        count += 1
    return _verdict(problems, f"Euler characteristic consistent on {count} complexes")


def run_all(max_n=6, max_d=3, certify=True):
    """Every check, in the documented order, honoring the caps."""
    results = [
        check_example_n4(),
        check_example_n5(),
        check_example_n3(),
    ]
    if certify:
        results.append(check_rank_witness_sweep(max_n=max_n, max_d=max_d))
    else:
        results.append(CheckResult("rank-witness-sweep", False,
                                   "certification disabled", skipped=True))
    results.extend([
        check_pd_formula_sweep(max_n=max_n, max_d=max_d),
        check_block_identity_sweep(max_n=max_n),
        check_colon_criterion_sweep(max_n=max_n, max_d=max_d),
        check_degree2_classification_sweep(max_n=max_n),
        check_counterexample_n6(max_n=max_n, max_d=max_d),
        check_sci_equivalence_sweep(max_n=max_n),
        check_oracle_ideal_arithmetic(max_n=max_n),
        check_oracle_minimal_primes(max_n=max_n),
        check_oracle_exchange(max_n=max_n, max_d=max_d),
        check_oracle_euler(max_n=max_n),
        check_linear_quotient_sweep(max_n=max_n, max_d=max_d),
    ])
    return results
