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
matrix and its inverse parametrization, the radial deficiency elements

    xi0_pm(r)  = N r^{1/2} K_alpha(e^{-+i pi/4} r)        (s-wave)
    xim1_pm(r) = M r^{1/2} K_{1-alpha}(e^{-+i pi/4} r)    (p-wave)

with N = sqrt(2 cos(pi alpha/2))/pi, M = sqrt(2 sin(pi alpha/2))/pi (the
minus elements carry the extra phases e^{i pi alpha/2} resp.
e^{i pi (1-alpha)/2} that make the analytic basis of the resolvent module
reduce to them), and the quadrature diagnostic of their norms.  With
these constants the two-dimensional elements r^{-1/2} xi(r) e^{i m phi}
have unit L2 norm; the radial elements themselves have norm
1/sqrt(2 pi).

K is evaluated through the Hankel ladder of the special-function module,
K_nu(z) = (i pi/2) e^{i nu pi/2} H1_nu(i z) (DLMF 10.27.8): i z lies on
the ray e^{i pi/4} for the plus elements and e^{3 i pi/4} for the minus
elements, the same H1 that the resolvent module's analytic basis uses.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .specfun import hankel1_orders

__all__ = [
    "ALPHA_MIN",
    "ALPHA_MAX",
    "ExtensionParams",
    "DeficiencyElement",
    "ExtensionKind",
    "ExtensionClass",
    "as_alpha",
    "build_u_matrix",
    "u_matrix_params",
    "canonical_params",
    "deficiency_radial",
    "classify",
    "l2_norm_deficiency",
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


@dataclass(frozen=True)
class DeficiencyElement:
    """Label of one radial deficiency element: channel in {0, -1} and the
    sign of the defect eigenvalue (+1 for +i, -1 for -i)."""

    channel: int
    sign: int

    def __post_init__(self):
        if self.channel not in (0, -1):
            raise ValueError(f"channel must be 0 or -1, got {self.channel}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


def _channel_order_norm(channel: int, alpha: float) -> tuple[float, float]:
    """The channel's order nu and normalization constant, N (s-wave) or M
    (p-wave), at an alpha already checked by as_alpha."""
    if channel == 0:
        return alpha, math.sqrt(2.0 * math.cos(math.pi * alpha / 2.0)) / math.pi
    return 1.0 - alpha, math.sqrt(2.0 * math.sin(math.pi * alpha / 2.0)) / math.pi


def deficiency_radial(element: DeficiencyElement, alpha, r: float) -> complex:
    """Radial deficiency element xi(r), including its normalization
    constant and, on the minus element, the phase e^{i pi nu / 2}.

    The plus element solves  -xi'' + (nu^2 - 1/4) r^{-2} xi = +i xi  and
    the minus element the -i counterpart, both square-integrable with
    small-r behavior proportional to r^{1/2 - nu}.  Each is evaluated on
    its own ray, so their conjugate relation is a check, not an identity.
    """
    alpha = as_alpha(alpha)
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"deficiency_radial requires r > 0, got {r}")
    # xi decays like e^{-r/sqrt 2}; once that underflows the element is
    # exactly 0, without asking H1 for a value below the float range
    if math.exp(-r / math.sqrt(2.0)) == 0.0:
        return 0j
    nu, norm = _channel_order_norm(element.channel, alpha)
    if element.sign > 0:
        z, phase = cmath.exp(-0.25j * math.pi) * r, 1.0
    else:
        z, phase = cmath.exp(0.25j * math.pi) * r, cmath.exp(0.5j * math.pi * nu)
    # K_nu(z) = (i pi/2) e^{i nu pi/2} H1_nu(i z), DLMF 10.27.8
    k_nu = 0.5j * math.pi * cmath.exp(0.5j * math.pi * nu) * complex(hankel1_orders(nu, 1j * z))
    return norm * phase * math.sqrt(r) * k_nu


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


# Radius beyond which |K_nu(e^{+-i pi/4} r)|^2 ~ exp(-sqrt(2) r) is below
# double-precision resolution of the norm integral.
_NORM_CUTOFF_R = 60.0


def l2_norm_deficiency(element: DeficiencyElement, alpha) -> float:
    """sqrt(int_0^inf |xi(r)|^2 dr) by adaptive quadrature.

    The integrand has an integrable r^{1 - 2 nu} singularity at the
    origin and decays like exp(-sqrt(2) r); the integral is cut at a
    radius where the tail is below 1e-16.  Quadrature failure or an
    error estimate above 1e-8 raises ConvergenceError.
    """
    alpha = as_alpha(alpha)

    def integrand(r: float) -> float:
        return abs(deficiency_radial(element, alpha, r)) ** 2

    from scipy import integrate  # here, not at module level: keeps it out of every CLI start

    val, abserr = integrate.quad(
        integrand, 0.0, _NORM_CUTOFF_R, epsabs=1e-11, epsrel=1e-11, limit=300
    )
    if not math.isfinite(val) or abserr > 1e-8:
        raise ConvergenceError(
            f"deficiency norm quadrature did not converge (error estimate {abserr:.3g})"
        )
    return math.sqrt(val)
