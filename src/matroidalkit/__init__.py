"""Exact combinatorics of matroidal monomial ideals.

The package decides the exchange property, decomposes monomial ideals,
checks the degree-2 block criteria for unmixedness, computes projective
dimension by linear quotients or through simplicial homology, and builds
layered witness sums whose radical is certified against the ideal by a
small Groebner engine.
"""

from .errors import (BudgetExceeded, DomainError, PairBudgetExceeded, ParseError,
                     StructuralError, TheoremViolationError)
from .ideals import (IdealSummary, Monomial, MonomialIdeal, make_ideal,
                     squarefree_monomials)
from .matroids import (ExchangeCertificate, dedupe_up_to_relabeling,
                       enumerate_matroidal, is_matroidal, is_polymatroidal,
                       is_squarefree_veronese, squarefree_veronese,
                       transversal, veronese)
from .decomposition import (CoverStats, CriteriaReport, Partition,
                            PrimeDecomposition, associated_primes, criteria_check,
                            irreducible_decomposition, p1_classify,
                            partition_degree2)
from .homology import (HomologyProfile, HomologyStats, SimplicialComplex,
                       betti_table, pd_depth, reduced_homology_ranks,
                       stanley_reisner)
from .groebner import (BuchbergerStats, CertifyStats, GroebnerBasis, Polynomial,
                       WitnessCertificate, buchberger, certify_witness,
                       normal_form, radical_membership)
from .schmitt_vogel import (AraReport, SVWitness, ara_report, build_sv_witness,
                            verify_sv_conditions)
from .parsing import parse_ideal

__all__ = [
    "AraReport", "BudgetExceeded", "BuchbergerStats", "CertifyStats", "CoverStats",
    "CriteriaReport", "DomainError",
    "ExchangeCertificate", "GroebnerBasis", "HomologyProfile", "HomologyStats",
    "IdealSummary", "Monomial", "MonomialIdeal", "PairBudgetExceeded",
    "ParseError",
    "Partition", "Polynomial", "PrimeDecomposition", "SVWitness",
    "SimplicialComplex", "StructuralError", "TheoremViolationError",
    "WitnessCertificate", "ara_report", "associated_primes", "betti_table", "buchberger",
    "build_sv_witness", "certify_witness", "criteria_check",
    "dedupe_up_to_relabeling", "enumerate_matroidal",
    "irreducible_decomposition", "is_matroidal", "is_polymatroidal",
    "is_squarefree_veronese", "make_ideal", "normal_form", "p1_classify",
    "parse_ideal", "partition_degree2", "pd_depth", "radical_membership",
    "reduced_homology_ranks", "squarefree_monomials", "squarefree_veronese",
    "stanley_reisner", "transversal", "veronese", "verify_sv_conditions",
]
