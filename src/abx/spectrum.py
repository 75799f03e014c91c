"""Bound states and zero-energy resonances.

On the ray k = i kappa the channel determinant becomes the real function

    Phi(E) = c1 E + c_alpha E^alpha + c_{1-alpha} E^{1-alpha} + c0,   E = kappa^2,

the bracket of ``krein.CCoeffs.pairs`` with real powers E^s, whose
positive roots are the bound-state energies -E (there are at most two).
In t = log E, Phi is a sum of exponentials, and Rolle's theorem brackets
each of its roots with no search grid (``_sign_changes``).
``bound_states`` returns them as a ``SpectralSummary`` of ``BoundState``
tuples; the essential spectrum is always [0, inf) and is not computed.
A vanishing constant coefficient c0 marks a threshold solution at E = 0:
a zero-energy resonance, never reported as a bound state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConsistencyError
from .extension import ExtensionParams, as_alpha
from .krein import d_coeffs

__all__ = [
    "BoundState",
    "SpectralSummary",
    "bound_states",
]

# log E over the normal floats, up to where c1 E (|c1| <= 2) stays finite
_LOG_E_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max / 4.0))
_ROOT_TOL = 1e-12  # bisection width in log E: relative 1e-12 in E


class BoundState(NamedTuple):
    energy: float      # strictly negative
    residual: float    # |Phi(|energy|)| at the reported root


@dataclass(frozen=True)
class SpectralSummary:
    """Point spectrum summary; the essential spectrum is always [0, inf)."""

    bound_states: tuple[BoundState, ...]
    zero_resonance: bool


def bound_states(params: ExtensionParams, alpha) -> SpectralSummary:
    """All bound states of the selected extension: every root of Phi over
    the normal float range of E, to relative 1e-12.  More than two roots,
    a residual above 1e-10 (1 + |c1| E) or all-zero coefficients raise
    ConsistencyError.
    """
    alpha = as_alpha(alpha)
    cf = d_coeffs(params, alpha)
    if max(abs(c) for _, c in cf.pairs()) == 0.0:
        # A unitary channel map cannot zero every coefficient.
        raise ConsistencyError("degenerate all-zero determinant coefficients")
    zero_resonance = abs(cf.c0) <= 1e-12 * max(abs(cf.c1), abs(cf.c_alpha),
                                               abs(cf.c_1malpha), 1.0)
    # A resonance's root sits at E = 0: c0 counts as 0, or the search
    # reports that root as a bound state at a tiny energy.
    pairs = [(s, c) for s, c in cf.pairs() if not (s == 0.0 and zero_resonance)]
    roots = [math.exp(t) for t in _sign_changes(pairs, *_LOG_E_RANGE)]
    if len(roots) > 2:
        raise ConsistencyError(f"found {len(roots)} determinant roots; "
                               "at most two bound states exist")

    # c1 = -(Re a + cos eta) carries the rounding of its two terms; where it
    # cancels to that, Phi cannot resolve its c1 E term at a large root.
    c1_blur = sys.float_info.epsilon * (abs(params.a.real) + abs(math.cos(params.eta)))
    states = []
    for e in reversed(roots):
        resid = abs(sum(c * e ** s for s, c in cf.pairs()))
        tol = 1e-10 * (1.0 + abs(cf.c1) * e)
        if resid > tol:
            cause = (f": c1 = -(Re a + cos eta) = {cf.c1:.3g} cancels to rounding, so Phi "
                     f"cannot resolve its c1 E term, up to {c1_blur * e:.3g} there"
                     if abs(cf.c1) <= c1_blur else "")
            raise ConsistencyError(f"root residual {resid:.3g} exceeds tolerance "
                                   f"{tol:.3g} at E={e}{cause}")
        states.append(BoundState(energy=-e, residual=resid))
    return SpectralSummary(tuple(states), zero_resonance)


def _sign_changes(pairs, lo: float, hi: float) -> list[float]:
    """Where f(t) = sum of c e^(s t) over the (s, c) pairs changes sign in
    [lo, hi], ascending, bisected on f's own sign to width _ROOT_TOL.  A
    turning point where f vanishes to rounding, within n eps sum |c e^(s t)|,
    is a double root, listed twice.

    With s0 the least exponent, e^(s0 t) d/dt [e^(-s0 t) f(t)] is the sum
    of c (s - s0) e^(s t), one term fewer.  e^(-s0 t) f is monotone between
    its sign changes, so each piece they cut holds at most one sign change
    of f (Rolle; G. J. O. Jameson, Math. Gazette 90 (2006) 223).
    """
    pairs = [(s, c) for s, c in pairs if c != 0.0]
    if len(pairs) < 2:
        return []
    s0 = min(s for s, _ in pairs)
    turns = _sign_changes([(s, c * (s - s0)) for s, c in pairs], lo, hi)

    def f(t):
        e = math.exp(t)
        return sum(c * e ** s for s, c in pairs)

    def sign(t) -> int:
        e = math.exp(t)
        terms = [c * e ** s for s, c in pairs]
        val = sum(terms)
        if abs(val) <= len(terms) * sys.float_info.epsilon * sum(map(abs, terms)):
            return 0
        return 1 if val > 0 else -1

    cuts = [lo, *turns, hi]
    signs = [sign(t) for t in cuts]
    roots = []
    for a, b, sa, sb in zip(cuts, cuts[1:], signs, signs[1:]):
        if sa == 0 and a != lo:
            roots += [a, a]
        elif sa * sb < 0:
            while b - a > _ROOT_TOL:
                mid = 0.5 * (a + b)
                a, b = (mid, b) if (f(mid) < 0.0) == (sa < 0) else (a, mid)
            roots.append(0.5 * (a + b))
    return roots
