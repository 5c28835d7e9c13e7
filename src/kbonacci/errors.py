"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InputError subclasses are exit 1,
NonUnitaryRepresentationError is exit 2, ComputationError subclasses are
exit 3.
"""

from __future__ import annotations

__all__ = [
    "KbonacciError",
    "InputError",
    "OrderMismatchError",
    "DomainError",
    "NonIntegralCoefficientsError",
    "TruncationTooSmallError",
    "ExactModeUnavailableError",
    "RuleFormatError",
    "SpecFileError",
    "ExpressionSyntaxError",
    "ComputationError",
    "DivisionByZeroError",
    "NonConvergenceError",
    "NearRepeatedRootsError",
    "RepeatedRootsError",
    "ImaginaryResidueError",
    "FloatRangeError",
    "DominantModeAbsentError",
    "NonUnitaryRepresentationError",
]


class KbonacciError(Exception):
    """Base class for all package errors."""


class InputError(KbonacciError):
    """Malformed or out-of-contract input."""


class OrderMismatchError(InputError):
    """Seed data length does not match the recurrence order."""


class DomainError(InputError):
    """Argument outside the domain of the requested quantity."""


class NonIntegralCoefficientsError(InputError):
    """Substitution rules need natural coefficients with integral quotients."""


class TruncationTooSmallError(InputError):
    """Operator truncation dimension below the algebra order."""


class ExactModeUnavailableError(InputError):
    """Exact arithmetic requested for functions that are not rational affine."""


class RuleFormatError(InputError):
    """Substitution rule text does not parse."""


class SpecFileError(InputError):
    """Algebra spec file is missing, unreadable, or fails schema checks."""


class ExpressionSyntaxError(InputError):
    """Expression text rejected by the parser.

    Carries the byte offset of the failure and the token kinds that would
    have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...]):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = expected


class ComputationError(KbonacciError):
    """A numeric procedure failed to produce a usable result."""


class DivisionByZeroError(ComputationError):
    """Expression evaluation divided by zero; carries the offending subtree."""

    def __init__(self, subtree_text: str):
        super().__init__(f"division by zero in subexpression {subtree_text!r}")
        self.subtree_text = subtree_text


class NonConvergenceError(ComputationError):
    """Root iteration hit the iteration cap; best iterate attached."""

    def __init__(self, iterations: int, best: tuple[complex, ...]):
        super().__init__(f"root iteration did not converge in {iterations} iterations")
        self.iterations = iterations
        self.best = best


class NearRepeatedRootsError(ComputationError):
    """Roots too close to separate reliably at the working tolerance."""

    def __init__(self, separation: float, threshold: float):
        super().__init__(
            f"near-repeated roots: minimal separation {separation:.3e} "
            f"below threshold {threshold:.3e}"
        )
        self.separation = separation
        self.threshold = threshold


class RepeatedRootsError(ComputationError):
    """Binet form requested for a root set that is not pairwise distinct."""


class ImaginaryResidueError(ComputationError):
    """Binet evaluation left a non-negligible imaginary part."""

    def __init__(self, value: complex, limit: float):
        super().__init__(
            f"imaginary residue {abs(value.imag):.3e} exceeds {limit:.3e} for value {value!r}"
        )
        self.value = value
        self.limit = limit


class FloatRangeError(ComputationError):
    """A float64 value at index n overflowed or is not finite."""

    def __init__(self, what: str, n: int):
        super().__init__(f"{what} at n={n} is beyond the float64 range")
        self.n = n


class DominantModeAbsentError(ComputationError):
    """Seeds annihilate the dominant mode, so no ratio limit exists."""


class NonUnitaryRepresentationError(KbonacciError):
    """A squared normalization constant is negative; no Fock representation."""

    def __init__(self, level: int, value):
        super().__init__(f"N^2 = {value} < 0 at level n={level}")
        self.level = level
        self.value = value
