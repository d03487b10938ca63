"""Exception types shared across the library.

Each type carries the exit code that ``efy``'s command line returns for it:
2 for a config or usage error, 3 for a numerical failure.
"""


class EfyError(Exception):
    """Base of the library's errors: a numerical failure unless a type says otherwise."""

    exit_code = 3


class ContractViolation(EfyError, ValueError):
    """An argument violated a documented precondition."""

    exit_code = 2


class EvaluationError(EfyError, ArithmeticError):
    """A computation produced a non-finite value where a finite one is required."""


class SingularMatrixError(EfyError, ArithmeticError):
    """LDL^T factorization hit a non-positive pivot."""

    def __init__(self, pivot: int, value: float):
        self.pivot = pivot
        self.value = value
        super().__init__(
            f"matrix is not positive definite: pivot {pivot} has value {value:.6e}"
        )


class InfeasibleError(EfyError, ValueError):
    """The energy/regularizer pair does not admit a well-posed maximization."""


class DivergenceError(EfyError, ArithmeticError):
    """A maximization is unbounded above (or an iterate escaped to infinity)."""


class DomainBoundaryError(EfyError, ValueError):
    """Gradient requested at a point where it is undefined."""


class UnsupportedOperation(EfyError, NotImplementedError):
    """No closed form is available; use the iterative oracle instead."""

    exit_code = 2


class ParseError(EfyError, ValueError):
    """Malformed dataset text; the message carries the line number."""

    exit_code = 2


class TrainingDivergence(EfyError, ArithmeticError):
    """Training hit a non-finite loss; the message names the sample index."""
