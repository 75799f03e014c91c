"""The family of self-adjoint realizations of the flux Hamiltonian.

A particle on the plane with a single flux line at the origin (flux
parameter alpha in (0,1)) admits a four-parameter family of self-adjoint
Hamiltonians.  Only the angular-momentum channels m = 0 (s-wave) and
m = -1 (p-wave) support boundary conditions at the origin; the family is
parametrized by a unitary 2x2 map between the two-dimensional deficiency
subspaces, written

    U = e^{i eta} [[a, -conj(b)], [b, conj(a)]],    |a|^2 + |b|^2 = 1.

The point (eta, a, b) = (0, -1, 0) is the regular (pure magnetic-flux)
Hamiltonian; b = 0 gives the rotationally invariant extensions; b != 0
couples the two channels, so angular momentum is no longer conserved.

This module holds the parameter types with their validation, the unitary
matrix and the classification of the family.  The orders and norms of the
two channels live in ``krein._channel_table``.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALPHA_MIN",
    "ALPHA_MAX",
    "ExtensionParams",
    "ExtensionKind",
    "as_alpha",
    "build_u_matrix",
    "classify",
]

ALPHA_MIN = 1e-6
ALPHA_MAX = 1.0 - 1e-6

_NORM_TOL = 1e-12
_CLASS_TOL = 1e-12


def as_alpha(alpha) -> float:
    """The magnetic flux parameter as a float in [1e-6, 1 - 1e-6].

    The channel coefficients carry 1/sin(pi alpha); the endpoints are
    excluded to keep them finite.  Out-of-range values are an error, not
    clamped.
    """
    a = float(alpha)
    if not ALPHA_MIN <= a <= ALPHA_MAX:  # NaN fails this too
        raise ValueError(f"flux parameter must lie in [{ALPHA_MIN}, {ALPHA_MAX}], got {a}")
    return a


def _wrap_angle(eta: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    out = eta % (2.0 * math.pi)
    if out > math.pi:
        out -= 2.0 * math.pi
    return out


@dataclass(frozen=True)
class ExtensionParams:
    """Parameters (eta, a, b) selecting one self-adjoint extension.

    eta is normalized to (-pi, pi] at construction; all three must be
    finite and |a|^2 + |b|^2 must equal 1 within 1e-12, or construction
    fails.
    """

    eta: float
    a: complex
    b: complex

    def __post_init__(self):
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")
        object.__setattr__(self, "eta", _wrap_angle(float(self.eta)))
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        norm = abs(self.a) ** 2 + abs(self.b) ** 2
        if not abs(norm - 1.0) <= _NORM_TOL:  # a NaN norm fails this too
            raise ValueError(
                f"|a|^2 + |b|^2 must equal 1 within {_NORM_TOL}, got {norm:.6g}"
            )

    @classmethod
    def ab_point(cls) -> "ExtensionParams":
        """The regular (pure magnetic) extension."""
        return cls(0.0, -1.0, 0.0)

    @classmethod
    def rotationally_invariant(cls, eta: float, tau: float) -> "ExtensionParams":
        return cls(eta, cmath.exp(1j * tau), 0.0)

    @classmethod
    def mixing(cls, gamma: float, eta: float = 0.0) -> "ExtensionParams":
        """The simplest channel-coupling family: a = 0, b = e^{i gamma}."""
        return cls(eta, 0.0, cmath.exp(1j * gamma))


def build_u_matrix(params: ExtensionParams) -> np.ndarray:
    """The unitary channel map e^{i eta} [[a, -conj b], [b, conj a]] as a
    2x2 array, ordered channels (0, -1)."""
    phase = cmath.exp(1j * params.eta)
    a, b = params.a, params.b
    return phase * np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def classify(params: ExtensionParams) -> ExtensionKind:
    """Partition parameter space by the structure of the channel map.

    Classification happens on the matrix itself, so the redundant
    representation (eta + pi, -a, -b) of a point classifies identically.
    """
    u = build_u_matrix(params)
    off = max(abs(u[0, 1]), abs(u[1, 0]))
    if off > _CLASS_TOL:
        return ExtensionKind.MIXING
    if abs(u[0, 0] + 1.0) <= _CLASS_TOL and abs(u[1, 1] + 1.0) <= _CLASS_TOL:
        return ExtensionKind.AB
    return ExtensionKind.ROTATIONALLY_INVARIANT


class ExtensionKind(enum.Enum):
    AB = "AB"
    ROTATIONALLY_INVARIANT = "rotationally_invariant"
    MIXING = "mixing"
