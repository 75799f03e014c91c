"""Error types shared across the package."""

__all__ = ["NearEigenvalueError", "ConvergenceError", "ConsistencyError"]


class NearEigenvalueError(RuntimeError):
    """Raised when the channel determinant is too small to invert safely.

    Carries the determinant value so callers can report how close to an
    eigenvalue the requested wavenumber sits, and the condition number of
    the channel system when that is what refused the inversion.
    """

    def __init__(self, k, d_value, condition=None):
        self.k = k
        self.d_value = d_value
        self.condition = condition
        cond = "" if condition is None else f", channel system condition number {condition:.3e}"
        super().__init__(
            f"wavenumber k={k} is at or near an eigenvalue: |D(k)|={abs(d_value):.3e}{cond}"
        )


class ConvergenceError(RuntimeError):
    """Raised when an adaptive quadrature or an averaged extraction fails
    to meet its advertised error bound."""


class ConsistencyError(RuntimeError):
    """Raised when two independent evaluation paths of the same quantity
    disagree beyond tolerance (internal cross-check failure)."""
