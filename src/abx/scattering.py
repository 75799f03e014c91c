"""Generalized eigenfunctions, scattering amplitudes, cross sections and
channel-mixing probabilities.

The reference eigenfunction is the partial-wave sum

    Psi_AB(k, theta; r, phi) = sum_m i^{|m|} e^{i m (phi - theta)}
        e^{i (pi/2)(|m| - |m + alpha|)} J_{|m + alpha|}(k r),

a distorted plane wave incident from direction theta.  For a general
extension the eigenfunction and the amplitude add the resolvent's
rank-two term (``krein._rank_two``) in the source's far limit: the row
at y = (rho, theta + pi) over the free outgoing wave (i/4) H1_0(k rho),
rho -> infinity, against the channel elements (the eigenfunction) or
their far fields (the amplitude).  Extraction checks the amplitude
against the eigenfunction's far field independently.

The forward direction is distributional: the amplitude object keeps the
off-forward smooth part separate from the symbolic delta coefficient and
principal-value weight and never sums them.

The amplitude, cross section and mixing are Python complex arithmetic, one
angle at a time at two complex exponentials each; the eigenfunction and the
extraction are grid code and take numpy from ``specfun`` inside their functions.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ConvergenceError
from .extension import ExtensionParams, as_alpha
from .krein import (
    _CHANNELS,
    _cutoff,
    _far_column,
    _far_row,
    _partial_wave_sum,
    _polar_grid,
    _rank_two,
    _unwrap,
    analytic_basis,
    p_of_k,
)

__all__ = [
    "FORWARD_EPSILON",
    "PlaneWaveChannel",
    "Amplitude",
    "ChannelMixing",
    "psi_ab",
    "psi_u",
    "amplitude_ab",
    "amplitude_u",
    "cross_section",
    "channel_mixing",
    "extract_amplitude",
    "extraction_remainder_bound",
]

# Angular half-width of the excluded forward cone (radians).  The smooth
# amplitude diverges like 1/delta; the delta and principal-value parts
# are carried symbolically.
FORWARD_EPSILON = 1e-3

# Far-field extraction: radii sampled over a window of this many periods of
# the slower residual oscillation.
_EXTRACT_SAMPLES = 96
_EXTRACT_WINDOW_PERIODS = 3.0


class PlaneWaveChannel(namedtuple("PlaneWaveChannel", "k theta")):
    """Incident plane-wave data, an immutable (float, float) tuple: momentum
    k > 0, incidence angle theta normalized to [0, 2 pi)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, k: float, theta: float):
        k, theta = _momentum(k), float(theta)
        if not math.isfinite(theta):
            raise ValueError(f"incidence angle theta {theta} is not finite")
        return super().__new__(cls, k, theta % (2.0 * math.pi))


def _momentum(k) -> float:
    """k as a float, or ValueError unless it is finite and positive."""
    k = float(k)
    if not 0.0 < k < math.inf:  # NaN fails this too
        raise ValueError(f"momentum k must be finite and positive, got {k}")
    return k


def _forward_cone(theta: float, angles) -> list[bool]:
    """Per angle phi, whether it lies inside the forward cone around theta:
    phi - theta within FORWARD_EPSILON of 0 on the circle.  The one test of
    the cone, written out over the list: a call per angle would cost more
    than the test."""
    two_pi = 2.0 * math.pi
    return [(d := (phi - theta) % two_pi) < FORWARD_EPSILON or two_pi - d < FORWARD_EPSILON
            for phi in angles]


def psi_ab(alpha, chan: PlaneWaveChannel, r, phi):
    """Generalized eigenfunction of the regular (pure flux) extension.

    r and phi may each be a scalar or a 1-D array; the result is the
    polar grid of shape shape(r) + shape(phi), or a complex for a single
    point.  The partial-wave sum is cut once, at the largest radius.
    """
    from .specfun import bessel_j_orders, np
    alpha = as_alpha(alpha)
    r_vals, phi, shape = _polar_grid(r, phi)
    mmax = _cutoff(chan.k, float(r_vals.max()), max(r_vals.size, phi.size))

    def ladder(m, nu):
        # i^{|m|} e^{i pi (|m| - nu)/2} = (-1)^m e^{-i pi nu / 2}
        coef = np.where(m % 2 == 0, 1.0, -1.0) * np.exp(-0.5j * math.pi * nu)
        return coef * bessel_j_orders(nu, chan.k * r_vals[:, None])

    return _unwrap(_partial_wave_sum(alpha, mmax, phi - chan.theta, ladder).reshape(shape))


def psi_u(params: ExtensionParams, alpha, chan: PlaneWaveChannel, r, phi):
    """Generalized eigenfunction of the selected extension.

    Takes the same scalar or 1-D array forms of r and phi as psi_ab, with
    p(k) solved once for the whole grid.  Identical to psi_ab when the
    coupling matrix vanishes (the regular extension); near-eigenvalue
    momenta are rejected by the coupling matrix evaluation.
    """
    alpha = as_alpha(alpha)
    r_vals, phi, shape = _polar_grid(r, phi)
    out = psi_ab(alpha, chan, r_vals, phi)
    basis = [analytic_basis(ch, alpha, chan.k) for ch in _CHANNELS]
    coefs = _rank_two(p_of_k(params, alpha, chan.k),
                      [_far_row(elem, chan.theta + math.pi) for elem in basis])
    out += sum(c * elem(r_vals[:, None], phi) for c, elem in zip(coefs, basis) if c)
    return _unwrap(out.reshape(shape))


@dataclass(frozen=True)
class Amplitude:
    """Scattering amplitude split into the off-forward smooth part and the
    symbolic forward singular data.

    ``smooth(theta, phi)`` is valid only off the forward cone; it takes a
    float theta and a float phi (giving a complex) or a sequence of them
    (giving a list).  The delta coefficient multiplies delta(phi - theta)
    and the principal-value weight multiplies P[1/(e^{i(phi-theta)} - 1)].
    The singular parts are never summed into the smooth part.
    """

    smooth: Callable[[float, float], complex]
    forward_delta_coeff: complex
    forward_pv_weight: complex


def _finite(values: list, what: str, k: float) -> list:
    """values, unless one of them has left the float range: then
    OverflowError, naming the quantity and the momentum."""
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"{what} leaves the float range at k = {k}")
    return values


def _smooth(weight: complex, theta, phi, fold=None):
    """weight / (e^{i(phi - theta)} - 1) + c0 + c1 e^{-i phi}, with (c0, c1) =
    fold(theta) the rank-two far field of channels (0, -1) or 0, at a float phi
    or over a sequence of them (giving a list), each finite and off the
    forward cone, or ValueError."""
    scalar = isinstance(phi, (int, float))
    theta, angles = float(theta), [float(phi)] if scalar else [float(angle) for angle in phi]
    if not math.isfinite(theta):
        raise ValueError("amplitude angle theta is not finite")
    if not all(map(math.isfinite, angles)):
        raise ValueError("amplitude angle phi is not finite")
    if any(_forward_cone(theta, angles)):
        raise ValueError(f"smooth amplitude is undefined inside the forward cone "
                         f"|phi - theta| < {FORWARD_EPSILON}")
    c0, c1 = fold(theta) if fold else (0.0, 0.0)
    values = [weight / (cmath.exp(1j * (angle - theta)) - 1.0) + (c0 + c1 * cmath.exp(-1j * angle))
              for angle in angles]
    return values[0] if scalar else values


def amplitude_ab(alpha, k: float) -> Amplitude:
    """Amplitude of the regular extension.

    Off-forward modulus: |f|^2 = sin^2(pi alpha) / (2 pi k sin^2(delta/2)).
    The smooth part's weight is the principal-value weight.
    """
    alpha = as_alpha(alpha)
    k = _momentum(k)
    pref = _finite([math.sqrt(2.0 * math.pi / k)], "amplitude prefactor sqrt(2 pi/k)", k)[0]
    pref *= cmath.exp(-0.25j * math.pi)
    weight = pref * 1j * math.sin(math.pi * alpha) / math.pi

    return Amplitude(
        smooth=lambda theta, phi: _smooth(weight, theta, phi),
        forward_delta_coeff=pref * (math.cos(math.pi * alpha) - 1.0),
        forward_pv_weight=weight,
    )


def amplitude_u(params: ExtensionParams, alpha, k: float) -> Amplitude:
    """Amplitude of the selected extension: the regular amplitude plus
    the far field of psi_u's rank-two term, four coupling-matrix terms
    whose theta-only and phi-only ones (channel mixing) vanish exactly
    when b = 0.  Per call of ``smooth``, p(k) and the rows at theta fold into
    one coefficient per column channel.
    """
    base = amplitude_ab(alpha, k)
    pk = p_of_k(params, alpha, k)
    basis = [analytic_basis(ch, alpha, k) for ch in _CHANNELS]

    def fold(theta):
        coefs = _rank_two(pk, [_far_row(elem, theta + math.pi) for elem in basis])
        return [c * _far_column(elem) for c, elem in zip(coefs, basis)]

    return Amplitude(
        smooth=lambda theta, phi: _smooth(base.forward_pv_weight, theta, phi, fold),
        forward_delta_coeff=base.forward_delta_coeff,
        forward_pv_weight=base.forward_pv_weight,
    )


def cross_section(params: ExtensionParams, alpha, k: float, theta: float, phi):
    """Differential cross section dsigma/dphi = |f|^2, off-forward only.

    phi may be a float (giving a float) or a sequence of angles (giving a
    list), all off the forward cone, which the amplitude refuses; p(k) is
    solved once per call.
    """
    values = amplitude_u(params, alpha, float(k)).smooth(theta, phi)
    moduli = map(abs, values if isinstance(values, list) else [values])
    squares = _finite([m * m for m in moduli], "cross section", k)
    return squares if isinstance(values, list) else squares[0]


class ChannelMixing(NamedTuple):
    """Angle-integrated cross-channel cross sections, constant * |p_(cross)|^2
    with the shared constant recorded: despite the field names, lengths,
    not probabilities, and they can exceed 1.  Both cross entries of p have
    modulus |e^{-i eta}/(2 D)| |b|, so the two agree to rounding and vanish
    exactly when b = 0.
    """

    prob_0_to_m1: float
    prob_m1_to_0: float
    constant: float


def channel_mixing(params: ExtensionParams, alpha, k: float) -> ChannelMixing:
    """Angle-integrated cross sections between the s- and p-wave channels,
    8 k sin(pi alpha) |p_(cross)|^2, from the amplitude's cross-channel
    terms; not probabilities (38.56 at alpha = 0.37, eta = 0, a = 0, b = 1,
    k = 0.01).  The constant is reported, not asserted.
    """
    alpha = as_alpha(alpha)
    k = _momentum(k)
    pk = p_of_k(params, alpha, k)
    const = 8.0 * k * math.sin(math.pi * alpha)
    return ChannelMixing(const * abs(pk[0][1]) ** 2, const * abs(pk[1][0]) ** 2, const)


def extraction_remainder_bound(k: float, r_max: float, delta: float) -> float:
    """Advertised residual bound of the numerical amplitude extraction at
    window base radius r_max (conservative)."""
    return 2.0 / (k * r_max * max(math.sin(delta / 2.0) ** 2, 1e-2))


def extract_amplitude(params: ExtensionParams, alpha, chan: PlaneWaveChannel,
                      phi: float, r_max: float) -> complex:
    """Numerical amplitude from the eigenfunction's far field.

    The raw quantity [Psi_U(r, phi) - e^{i k r cos(phi-theta)}] sqrt(r)
    e^{-i k r} tends to the amplitude only in the averaged sense: the
    flux-distorted incident wave differs from the plane wave by a smooth
    gauge phase, leaving oscillatory residuals at the two known
    frequencies k (cos(delta) - 1) and -2k.  The average over r_max
    values is therefore taken as a least-squares projection over a radii
    window spanning several periods of both oscillations; the constant
    component of the fit is the amplitude.

    Raises ConvergenceError when the two window halves disagree by more
    than the advertised remainder bound allows.
    """
    from .specfun import np
    alpha = as_alpha(alpha)
    phi = float(phi)
    r_max = float(r_max)
    delta = phi - chan.theta
    if _forward_cone(chan.theta, [phi])[0]:
        raise ValueError("amplitude extraction is undefined in the forward cone")
    k = chan.k
    w1 = k * (math.cos(delta) - 1.0)
    w2 = -2.0 * k
    slow = min(abs(w1), abs(w2))
    window = min(_EXTRACT_WINDOW_PERIODS * 2.0 * math.pi / max(slow, 1e-6), 1.2 * r_max)
    radii = np.linspace(r_max, r_max + window, _EXTRACT_SAMPLES)
    vals = psi_u(params, alpha, chan, radii, phi)
    raw = (vals - np.exp(1j * k * radii * np.cos(delta))) * np.sqrt(radii) * np.exp(-1j * k * radii)

    def fit(r, y):
        basis = np.column_stack([
            np.ones_like(r),
            np.sqrt(r) * np.exp(1j * w1 * r),
            np.exp(1j * w1 * r),
            np.sqrt(r) * np.exp(1j * w2 * r),
            np.exp(1j * w2 * r),
            1.0 / np.sqrt(r),
            1.0 / r,
        ])
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        return complex(coef[0])

    full = fit(radii, raw)
    half = len(radii) // 2
    spread = abs(fit(radii[:half], raw[:half]) - fit(radii[half:], raw[half:]))
    bound = extraction_remainder_bound(k, r_max, delta)
    if spread > max(10.0 * bound, 0.25 * abs(full)):
        raise ConvergenceError(
            f"amplitude extraction did not settle: window-half spread "
            f"{spread:.3g} against bound {bound:.3g}"
        )
    return full
