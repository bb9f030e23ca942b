"""Exception taxonomy shared by all modules.

Two families matter for scripting: MathError means the mathematics said
no (bad bracket, divergence, violated precondition), while ParseError
means the input text was malformed.  The CLI maps them to exit codes 1
and 2 respectively.
"""


class MathError(Exception):
    """A mathematically meaningful failure, as opposed to bad usage."""


class DomainError(MathError):
    """Evaluation outside the natural domain of an expression."""


class BracketError(MathError):
    """Bisection bracket has the same sign at both ends."""


class IterationCapError(MathError):
    """An iteration or refinement cap was exhausted before convergence."""


class DivergenceError(MathError):
    """A limit scan failed to settle."""


class OneSidedDisagreementError(DivergenceError):
    """Two-sided limit whose one-sided limits disagree."""

    def __init__(self, left, right, tol):
        self.left = left
        self.right = right
        self.tol = tol
        super().__init__(
            f"one-sided limits disagree: left={left!r} right={right!r} (tol={tol})"
        )


class NestingError(MathError):
    """A supposedly nested interval sequence escaped its predecessor."""


class BudgetError(MathError):
    """An index or evaluation budget ran out during a search."""


class NonCutError(MathError):
    """A predicate presented as a cut is not downward closed."""


class CoverError(MathError):
    """A cover failed verification."""


class PreconditionError(MathError):
    """A documented operation precondition does not hold."""


class ParseError(ValueError):
    """Syntax error in the expression grammar, with byte offset."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")
