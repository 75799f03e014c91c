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
matrix and its inverse parametrization, and the order and normalization
constant of each channel's radial deficiency elements

    xi0_pm(r)  = N r^{1/2} K_alpha(e^{-+i pi/4} r)        (s-wave)
    xim1_pm(r) = M r^{1/2} K_{1-alpha}(e^{-+i pi/4} r)    (p-wave)

(the minus elements carry the extra phases e^{i pi alpha/2} resp.
e^{i pi (1-alpha)/2} that make the analytic basis of the resolvent module
reduce to them).  Their norms are closed forms: Gradshteyn-Ryzhik 6.521.3,
the integral of x K_nu(a x) K_nu(b x) at a = e^{i pi/4}, b = e^{-i pi/4},
gives

    int_0^inf r |K_nu(e^{+-i pi/4} r)|^2 dr = pi / (4 cos(pi nu/2)),

so N = sqrt(2 cos(pi alpha/2))/pi and M = sqrt(2 sin(pi alpha/2))/pi make
every radial norm exactly 1/sqrt(2 pi), and the two-dimensional elements
r^{-1/2} xi(r) e^{i m phi} have unit L2 norm.  The elements themselves are
never evaluated: the analytic basis needs only the orders and N and M.
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
    "ExtensionClass",
    "as_alpha",
    "build_u_matrix",
    "u_matrix_params",
    "canonical_params",
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


def _is_canonical(a: complex, b: complex) -> bool:
    ref = a if abs(a) > _CLASS_TOL else b
    if abs(ref.real) > _CLASS_TOL:
        return ref.real > 0.0
    return ref.imag > 0.0


def canonical_params(params: ExtensionParams) -> ExtensionParams:
    """Fix the (eta, a, b) <-> (eta + pi, -a, -b) redundancy.

    Canonical representatives have Re(a) > 0, falling back to Im(a) > 0,
    then to the same test on b when a = 0.
    """
    if _is_canonical(params.a, params.b):
        return params
    return ExtensionParams(params.eta + math.pi, -params.a, -params.b)


def u_matrix_params(u) -> ExtensionParams:
    """Recover canonical (eta, a, b) from a 2x2 array-like of the stated
    form."""
    m = np.asarray(u, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(abs(det) - 1.0) > 1e-9:
        raise ValueError(f"matrix is not unitary: |det| = {abs(det):.6g}")
    eta = cmath.phase(det) / 2.0
    phase = cmath.exp(-1j * eta)
    a = m[0, 0] * phase
    b = m[1, 0] * phase
    resid = max(
        abs(m[0, 1] * phase + b.conjugate()),
        abs(m[1, 1] * phase - a.conjugate()),
    )
    if resid > 1e-9:
        raise ValueError(
            f"matrix does not have the channel-map form (residual {resid:.3g})"
        )
    return canonical_params(ExtensionParams(eta, a, b))


def _channel_order_norm(channel: int, alpha: float) -> tuple[float, float]:
    """The channel's order nu and normalization constant, N (s-wave) or M
    (p-wave), at an alpha already checked by as_alpha."""
    if channel == 0:
        return alpha, math.sqrt(2.0 * math.cos(math.pi * alpha / 2.0)) / math.pi
    return 1.0 - alpha, math.sqrt(2.0 * math.sin(math.pi * alpha / 2.0)) / math.pi


def classify(params: ExtensionParams) -> "ExtensionClass":
    """Partition parameter space by the structure of the channel map.

    Classification happens on the matrix itself, so the redundant
    representation (eta + pi, -a, -b) of a point classifies identically.
    """
    u = build_u_matrix(params)
    off = max(abs(u[0, 1]), abs(u[1, 0]))
    if off > _CLASS_TOL:
        return ExtensionClass(ExtensionKind.MIXING, None)
    if abs(u[0, 0] + 1.0) <= _CLASS_TOL and abs(u[1, 1] + 1.0) <= _CLASS_TOL:
        return ExtensionClass(ExtensionKind.AB, None)
    return ExtensionClass(ExtensionKind.ROTATIONALLY_INVARIANT, cmath.phase(params.a))


class ExtensionKind(enum.Enum):
    AB = "AB"
    ROTATIONALLY_INVARIANT = "rotationally_invariant"
    MIXING = "mixing"


@dataclass(frozen=True)
class ExtensionClass:
    kind: ExtensionKind
    tau: float | None = None
