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
matrix and the classification of the family, the wavenumber ``UpperHalfK``
(a complex checked to lie in the closed upper half-plane) and the branch
convention.  The orders and norms of the two channels live in
``krein._channel_table``.

Branch convention
-----------------
``branch_power(k, s)`` is (-k^2)^s = exp(s (2 Log k - i pi)), one formula
on the whole closed upper half-plane.  For 0 < arg k < pi it equals
exp(s Log(-k^2)) with the principal logarithm: -k^2 never touches the cut,
so the power is analytic there and real positive on the ray k = i*kappa.
On the positive real axis (arg k = 0) it is the continuous limit from
Im k -> 0+, exp(-i*pi*s) * k**(2s); every module evaluates boundary
quantities with this limit.  k^2 is never formed, so tiny |k| does not
underflow.
"""
from __future__ import annotations

import cmath
import enum
import math
from collections import namedtuple

__all__ = [
    "ALPHA_MIN",
    "ALPHA_MAX",
    "ExtensionParams",
    "ExtensionKind",
    "UpperHalfK",
    "as_alpha",
    "branch_power",
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
    """Normalize an angle to (-pi, pi]; the IEEE remainder is exact, so an
    angle already in (-pi, pi] comes back unchanged."""
    out = math.remainder(eta, 2.0 * math.pi)
    return math.pi if out == -math.pi else out


class ExtensionParams(namedtuple("ExtensionParams", "eta a b")):
    """Parameters (eta, a, b) selecting one self-adjoint extension, an
    immutable (float, complex, complex) tuple.

    eta is normalized to (-pi, pi] at construction; all three must be
    finite and |a|^2 + |b|^2 must equal 1 within 1e-12, or construction
    fails.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, eta: float, a: complex, b: complex):
        if not math.isfinite(eta):
            raise ValueError(f"eta must be finite, got {eta}")
        a, b = complex(a), complex(b)
        norm = abs(a) ** 2 + abs(b) ** 2
        if not abs(norm - 1.0) <= _NORM_TOL:  # a NaN norm fails this too
            raise ValueError(
                f"|a|^2 + |b|^2 must equal 1 within {_NORM_TOL}, got {norm:.6g}"
            )
        return super().__new__(cls, _wrap_angle(float(eta)), a, b)

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


def build_u_matrix(params: ExtensionParams) -> tuple:
    """The unitary channel map e^{i eta} [[a, -conj b], [b, conj a]] as a
    2x2 tuple of rows, ordered channels (0, -1)."""
    phase = cmath.exp(1j * params.eta)
    a, b = params.a, params.b
    return (phase * a, phase * -b.conjugate()), (phase * b, phase * a.conjugate())


def classify(params: ExtensionParams) -> ExtensionKind:
    """Partition parameter space by the structure of the channel map.

    Classification happens on the matrix itself, so the redundant
    representation (eta + pi, -a, -b) of a point classifies identically.
    """
    u = build_u_matrix(params)
    off = max(abs(u[0][1]), abs(u[1][0]))
    if off > _CLASS_TOL:
        return ExtensionKind.MIXING
    if abs(u[0][0] + 1.0) <= _CLASS_TOL and abs(u[1][1] + 1.0) <= _CLASS_TOL:
        return ExtensionKind.AB
    return ExtensionKind.ROTATIONALLY_INVARIANT


class ExtensionKind(enum.Enum):
    AB = "AB"
    ROTATIONALLY_INVARIANT = "rotationally_invariant"
    MIXING = "mixing"


class UpperHalfK(complex):
    """Wavenumber in the closed upper half-plane, k != 0: a checked complex.

    Im k > 0 is an interior point; Im k == 0 is a boundary value, the limit
    from Im k -> 0+, and needs Re k > 0.  ``on_real_axis``, when given,
    must agree with the value.  A UpperHalfK passes through unchanged.
    """

    __slots__ = ()

    def __new__(cls, k: complex, *, on_real_axis: bool | None = None):
        if type(k) is cls and on_real_axis is None:
            return k
        kc = complex(k)
        if kc == 0 or not (math.isfinite(kc.real) and math.isfinite(kc.imag)):
            raise ValueError(f"wavenumber must be finite and nonzero, got {kc}")
        if on_real_axis is None:
            on_real_axis = kc.imag == 0.0
            if on_real_axis and kc.real <= 0.0:
                raise ValueError(f"real wavenumber must be positive, got {kc}")
        if on_real_axis:
            if kc.imag != 0.0 or kc.real <= 0.0:
                raise ValueError(f"on_real_axis requires real k > 0, got {kc}")
        elif kc.imag <= 0.0:
            raise ValueError(f"interior wavenumber needs Im k > 0, got {kc}")
        return super().__new__(cls, kc)

    def __getnewargs__(self):
        # complex's (real, imag) would not fit __new__: copy and pickle rebuild from the value
        return (complex(self),)


def branch_power(k, s: float) -> complex:
    """(-k^2)**s = exp(s (2 Log k - i pi)) on the closed upper half-plane:
    the principal branch inside, its limit from Im k -> 0+ on the real
    axis.  Beyond the float range: OverflowError naming s and k."""
    k = UpperHalfK(k)
    # 2 Log k - i pi, with Log k = log|k| + i arg k
    try:
        return cmath.exp(float(s) * complex(2.0 * math.log(abs(k)), 2.0 * cmath.phase(k) - math.pi))
    except OverflowError:
        raise OverflowError(f"(-k^2)^s with s = {s} leaves the float range at k = {k}") from None
