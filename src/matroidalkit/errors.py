"""Exception hierarchy shared across the package.

Split by who is at fault: ParseError for bad input text, DomainError for
well-formed input outside a routine's domain, TheoremViolationError for a
proved fact failing on concrete data (always a bug, never user error).
BudgetExceeded is the DomainError every work limit raises where the work is sized.
"""


class StructuralError(Exception):
    """Base class for all package errors."""


class ParseError(StructuralError):
    """Input text could not be parsed. Carries position info when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class DomainError(StructuralError):
    """Well-formed input outside the domain of the requested operation."""


class BudgetExceeded(DomainError):
    """A work limit refused the input; measured says what went over it."""

    def __init__(self, stage, measured, limit, value):
        self.stage, self.limit, self.value = stage, limit, value
        super().__init__(f"{stage} stage: {measured}, over the limit {limit} = {value}")


class TheoremViolationError(StructuralError):
    """A mathematically guaranteed identity failed on concrete data.

    Raised instead of returning a wrong answer; reaching this means the
    implementation (not the caller) is broken.
    """


class PairBudgetExceeded(BudgetExceeded):
    """Buchberger pair budget ran out before the basis stabilized."""

    def __init__(self, budget):
        self.budget = budget
        super().__init__("groebner", f"Buchberger took {budget + 1} pairs", "PAIR_BUDGET", budget)
