"""Bound states, zero-energy resonances, and the rotationally invariant
factorization.

On the ray k = i kappa the channel determinant becomes the real function

    Phi(E) = c1 E + c_alpha E^alpha + c_{1-alpha} E^{1-alpha} + c0,   E = kappa^2,

the bracket of ``krein.CCoeffs.terms`` with real powers E^s, whose
positive roots are the bound-state energies -E (there are at most two).
``bound_states`` returns them as a ``SpectralSummary`` of ``BoundState``
tuples; the essential spectrum is always [0, inf) and is not computed.
A vanishing constant coefficient c0 marks a threshold solution at E = 0:
a zero-energy resonance, never reported as a bound state.

For rotationally invariant parameters (b = 0, a = e^{i tau}) the same
determinant factorizes into s-wave and p-wave pieces controlled by
beta = (eta + tau)/2 and omega = (eta - tau)/2:

    s-wave:  E^alpha cos(beta) = cos(beta + pi alpha/2)
    p-wave:  E^{1-alpha} cos(omega) = sin(pi alpha/2 - omega)

and the closed-form roots must coincide with the general root finder.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .extension import ExtensionParams, as_alpha
from .krein import d_coeffs

__all__ = [
    "BoundState",
    "SpectralSummary",
    "RotInvariantRoots",
    "bound_states",
    "rot_invariant_equations",
]

_GRID_DECADES = (-12.0, 8.0)
_GRID_POINTS = 600
_ROOT_RTOL = 1e-12


class BoundState(NamedTuple):
    energy: float      # strictly negative
    residual: float    # |Phi(|energy|)| at the reported root


@dataclass(frozen=True)
class SpectralSummary:
    """Point spectrum summary; the essential spectrum is always [0, inf)."""

    bound_states: tuple[BoundState, ...]
    zero_resonance: bool


class RotInvariantRoots(NamedTuple):
    s_wave_root: float | None
    p_wave_root: float | None
    zero_resonance: bool


def bound_states(params: ExtensionParams, alpha) -> SpectralSummary:
    """All bound states of the selected extension.

    Roots of Phi are located by sign-change bracketing on a 600-point
    logarithmic grid over E in [1e-12, 1e8] and refined by bisection to
    relative 1e-12; each root's residual must satisfy
    |Phi(E)| <= 1e-10 (1 + |c1| E).  More than two roots is a hard
    internal failure.
    """
    alpha = as_alpha(alpha)
    cf = d_coeffs(params, alpha)
    scale = max(abs(cf.c1), abs(cf.c_alpha), abs(cf.c_1malpha), 1.0)
    if max(abs(cf.c1), abs(cf.c_alpha), abs(cf.c_1malpha), abs(cf.c0)) == 0.0:
        # A unitary channel map cannot zero every coefficient.
        raise AssertionError("degenerate all-zero determinant coefficients")
    zero_resonance = abs(cf.c0) <= 1e-12 * scale

    def phi(e):
        # numpy's power for the grid and the root finder alike: its
        # vectorized pow and Python's ** can differ in the last bit
        e = np.asarray(e, dtype=float)
        return sum(cf.terms(lambda s: e ** s))

    grid = np.logspace(_GRID_DECADES[0], _GRID_DECADES[1], _GRID_POINTS)
    vals = phi(grid)

    roots: list[float] = []
    exact = np.flatnonzero(vals == 0.0)
    roots.extend(float(grid[i]) for i in exact)
    sign_change = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    roots.extend(_bisect(phi, grid[i], grid[i + 1]) for i in sign_change)

    if len(roots) > 2:
        raise AssertionError(
            f"found {len(roots)} determinant roots; at most two bound states exist"
        )

    states = []
    for e in sorted(roots):
        resid = abs(float(phi(e)))
        tol = 1e-10 * (1.0 + abs(cf.c1) * e)
        if resid > tol:
            raise AssertionError(
                f"root residual {resid:.3g} exceeds tolerance {tol:.3g} at E={e}"
            )
        states.append(BoundState(energy=-e, residual=resid))
    states.sort(key=lambda st: st.energy)
    return SpectralSummary(tuple(states), zero_resonance)


def _bisect(phi, lo: float, hi: float) -> float:
    """The root of phi in a sign-change bracket [lo, hi] with 0 < lo,
    halved until hi - lo <= _ROOT_RTOL * hi: the last midpoint, or the
    first midpoint where phi is exactly 0."""
    lo_negative = phi(lo) < 0.0
    while hi - lo > _ROOT_RTOL * hi:
        mid = 0.5 * (lo + hi)
        val = phi(mid)
        if val == 0.0:
            return float(mid)
        if (val < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def rot_invariant_equations(params: ExtensionParams, alpha) -> RotInvariantRoots:
    """Closed-form s- and p-wave roots for b = 0.

    A bracket ratio <= 0 yields no root in that wave; a vanishing
    numerator puts the root exactly at E = 0, reported as a resonance
    rather than a root.  A root beyond the double range is math.inf.
    b != 0 is rejected.
    """
    alpha = as_alpha(alpha)
    if abs(params.b) > 1e-12:
        raise ValueError("rot_invariant_equations requires b = 0")
    tau = cmath.phase(params.a)
    beta, omega = (params.eta + tau) / 2.0, (params.eta - tau) / 2.0
    half = math.pi * alpha / 2.0

    s_num = math.cos(beta + half)
    s_den = math.cos(beta)
    p_num = math.sin(half - omega)
    p_den = math.cos(omega)

    resonance = abs(s_num) <= 1e-12 or abs(p_num) <= 1e-12

    s_root = None
    if abs(s_num) > 1e-12 and abs(s_den) > 1e-300 and s_num / s_den > 0.0:
        s_root = _power_or_inf(s_num / s_den, 1.0 / alpha)
    p_root = None
    if abs(p_num) > 1e-12 and abs(p_den) > 1e-300 and p_num / p_den > 0.0:
        p_root = _power_or_inf(p_num / p_den, 1.0 / (1.0 - alpha))
    return RotInvariantRoots(s_root, p_root, resonance)


def _power_or_inf(base: float, exponent: float) -> float:
    """base ** exponent, or math.inf where it overflows double precision."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf
