"""Special functions on the domains the channel formulas consume.

One vector surface for the fractional-order Bessel function J_nu and the
Hankel function H1_nu over arrays of orders and arguments (real or in the
upper half-plane), and the branch-consistent complex power (-k^2)^s that
appears in every channel coefficient.  The J/H1 ladders return numpy
arrays broadcast over orders and arguments; ``branch_power`` returns a
plain complex number.  Every other Bessel-family value is read off this
surface: the McDonald function of the deficiency elements, for one, is
K_nu(z) = (i pi/2) e^{i nu pi/2} H1_nu(i z) (DLMF 10.27.8).

Numerical evaluation is delegated to the AMOS routines behind
``scipy.special``, which is loaded on the first Bessel evaluation, not on
import: the tasks that need no Bessel function never load scipy.  This
module owns the wavenumber and branch conventions.  The J/H1 surface is
checked in the test tree against an independent extended-precision series
oracle, closed forms, asymptotics and the Wronskian.

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

All functions are pure and reentrant; there is no mutable module state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UpperHalfK",
    "as_wavenumber",
    "branch_power",
    "bessel_j_orders",
    "hankel1_orders",
]

@dataclass(frozen=True)
class UpperHalfK:
    """Wavenumber in the closed upper half-plane, k != 0.

    ``on_real_axis`` marks a boundary value understood as the limit from
    Im k -> 0+; it requires Re k > 0 and Im k == 0.  Interior points
    require Im k > 0 strictly.
    """

    k: complex
    on_real_axis: bool = False

    def __post_init__(self):
        kc = complex(self.k)
        object.__setattr__(self, "k", kc)
        if kc == 0 or not (math.isfinite(kc.real) and math.isfinite(kc.imag)):
            raise ValueError(f"wavenumber must be finite and nonzero, got {kc}")
        if self.on_real_axis:
            if kc.imag != 0.0 or kc.real <= 0.0:
                raise ValueError(
                    f"on_real_axis requires real k > 0, got {kc}"
                )
        elif kc.imag <= 0.0:
            raise ValueError(f"interior wavenumber needs Im k > 0, got {kc}")


def as_wavenumber(k) -> UpperHalfK:
    """Coerce a complex number to UpperHalfK.

    Positive reals become boundary values (limits from above); numbers
    with Im > 0 become interior points; anything else is rejected.
    """
    if isinstance(k, UpperHalfK):
        return k
    kc = complex(k)
    if kc.imag == 0.0:
        return UpperHalfK(kc, on_real_axis=True)
    return UpperHalfK(kc)


def branch_power(k, s: float) -> complex:
    """(-k^2)**s = exp(s (2 Log k - i pi)) on the closed upper half-plane:
    the principal branch inside, its limit from Im k -> 0+ on the real
    axis."""
    k = as_wavenumber(k).k
    # 2 Log k - i pi, with Log k = log|k| + i arg k
    return cmath.exp(float(s) * complex(2.0 * math.log(abs(k)), 2.0 * cmath.phase(k) - math.pi))


def bessel_j_orders(nus, z) -> np.ndarray:
    """J_nu(z), broadcast over arrays of orders nu >= 0 and arguments z
    (real, or complex in the upper half-plane).  Orders far above |z|
    underflow to exactly 0."""
    from scipy import special  # here, not at module level: keeps it out of every CLI start

    return special.jv(nus, z)


def hankel1_orders(nus, z) -> np.ndarray:
    """H1_nu(z) = J_nu(z) + i Y_nu(z), broadcast like bessel_j_orders; on
    the positive real axis Y_nu is its imaginary part.  z = 0 is singular
    (the value is not finite)."""
    from scipy import special  # here, not at module level: keeps it out of every CLI start

    return special.hankel1(nus, z)
