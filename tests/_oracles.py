"""Independent test oracles.

Extended-precision series evaluation of the Bessel family (hand-rolled
ascending series in mpmath arithmetic at 40 digits, cross-checked against
mpmath's own implementations), the radial deficiency elements with their
normalization constants and norms, a finite-difference application of
the flux Hamiltonian, quadrature helpers, the paper's hand-written table
of eigenfunction corrections, the closed-form bound states of the
rotationally invariant extensions, and the inverse of the unitary channel
map.  Nothing here is imported by the package; oracles must stay
independent of the paths they check.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy import integrate as _integrate

from abx.extension import ExtensionParams

mp.mp.dps = 40


def series_gamma(x):
    return mp.gamma(x)


def series_besselj(nu, z, terms: int = 220):
    """Ascending series J_nu(z) = sum_j (-1)^j (z/2)^{nu+2j} / (j! Gamma(nu+j+1)).

    Adequate for |z| up to ~40 at 40 digits; raises if the tail has not
    collapsed by ``terms``.
    """
    nu = mp.mpmathify(nu)  # keep (nu + j + 1) in extended precision
    z = mp.mpmathify(z)
    half = z / 2
    total = mp.mpc(0)
    term = half ** nu / mp.gamma(nu + 1)
    for j in range(terms):
        total += term
        term = term * (-(half * half)) / ((j + 1) * (nu + j + 1))
        if abs(term) < mp.mpf(10) ** (-mp.mp.dps) * (1 + abs(total)):
            return total + term
    raise RuntimeError(f"series for J_{nu}({z}) did not converge in {terms} terms")


def series_bessely(nu, x):
    """Y_nu from the reflection formula (fractional nu only)."""
    s = mp.sinpi(nu)
    if abs(s) < mp.mpf("1e-12"):
        raise ValueError("reflection oracle needs non-integer order")
    return (series_besselj(nu, x) * mp.cospi(nu) - series_besselj(-nu, x)) / s


def series_besseli(nu, z, terms: int = 220):
    nu = mp.mpmathify(nu)
    z = mp.mpmathify(z)
    half = z / 2
    total = mp.mpc(0)
    term = half ** nu / mp.gamma(nu + 1)
    for j in range(terms):
        total += term
        term = term * (half * half) / ((j + 1) * (nu + j + 1))
        if abs(term) < mp.mpf(10) ** (-mp.mp.dps) * (1 + abs(total)):
            return total + term
    raise RuntimeError(f"series for I_{nu}({z}) did not converge in {terms} terms")


def series_besselk(nu, z):
    """K_nu from the I-function reflection (fractional nu only)."""
    s = mp.sinpi(nu)
    if abs(s) < mp.mpf("1e-12"):
        raise ValueError("reflection oracle needs non-integer order")
    return mp.pi / 2 * (series_besseli(-nu, z) - series_besseli(nu, z)) / s


def mp_complex(val) -> complex:
    return complex(float(mp.re(val)), float(mp.im(val)))


class DeficiencyElement(NamedTuple):
    """One radial deficiency element: channel 0 or -1 and the sign of the
    defect eigenvalue (+1 for +i, -1 for -i)."""

    channel: int
    sign: int


def deficiency_radial(element: DeficiencyElement, alpha: float, r: float) -> complex:
    """xi(r) = norm r^{1/2} K_nu(e^{-sign i pi/4} r), times e^{i pi nu/2} on
    the minus element, with K from mpmath at 20 digits: nu = alpha and
    N = sqrt(2 cos(pi alpha/2))/pi on channel 0, nu = 1 - alpha and
    M = sqrt(2 sin(pi alpha/2))/pi on channel -1."""
    channel, sign = element
    trig = math.cos if channel == 0 else math.sin
    nu = alpha if channel == 0 else 1.0 - alpha
    norm = math.sqrt(2.0 * trig(math.pi * alpha / 2.0)) / math.pi
    phase = 1.0 if sign > 0 else cmath.exp(0.5j * math.pi * nu)
    with mp.workdps(20):
        k_nu = mp_complex(mp.besselk(nu, mp.expjpi(mp.mpf(-sign) / 4) * r))
    return norm * phase * math.sqrt(r) * k_nu


def l2_norm_deficiency(element: DeficiencyElement, alpha: float) -> float:
    """sqrt(int |xi(r)|^2 dr) by radial_rule, cut at r = 24, beyond which
    |xi|^2 ~ e^{-sqrt(2) r} holds less than 1e-14 of the integral."""
    r, w = radial_rule(24.0)
    vals = np.array([abs(deficiency_radial(element, alpha, x)) ** 2 for x in r])
    return math.sqrt(float(vals @ w))


def apply_flux_operator(u, alpha: float, r: float, phi: float, h: float) -> complex:
    """Second-order finite-difference application of the flux Hamiltonian

        H = -d_rr - (1/r) d_r + (1/r^2) (i d_phi - alpha)^2

    to a callable u(r, phi)."""
    urp = u(r + h, phi)
    urm = u(r - h, phi)
    u00 = u(r, phi)
    upp = u(r, phi + h)
    upm = u(r, phi - h)
    d2r = (urp - 2.0 * u00 + urm) / (h * h)
    d1r = (urp - urm) / (2.0 * h)
    d2p = (upp - 2.0 * u00 + upm) / (h * h)
    d1p = (upp - upm) / (2.0 * h)
    return -d2r - d1r / r + (-d2p - 2j * alpha * d1p + alpha * alpha * u00) / (r * r)


def observed_orders(residuals) -> list[float]:
    """log2 convergence rates between successive grid halvings."""
    out = []
    for a, b in zip(residuals, residuals[1:]):
        out.append(math.log2(a / b))
    return out


def complex_quad(f, a: float, b: float, **kw) -> complex:
    re = _integrate.quad(lambda t: f(t).real, a, b, **kw)[0]
    im = _integrate.quad(lambda t: f(t).imag, a, b, **kw)[0]
    return complex(re, im)


def radial_rule(r_cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule for
    int_0^r_cut f(r) dr, f smooth but for integrable powers r^e, e >= -0.9,
    at the origin.  On [0, 1] the rule runs in s = r^(1/10) with 24 nodes,
    which turns r^e dr into 10 s^(10 e + 9) ds, free of the singularity;
    beyond r = 1 it has panels of width at most 2, 12 nodes each."""
    x, w = np.polynomial.legendre.leggauss(24)
    s = 0.5 * (x + 1.0)
    nodes, weights = [s**10], [5.0 * w * s**9]
    x, w = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(1.0, r_cut, int(math.ceil((r_cut - 1.0) / 2.0)) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes.append((edges[:-1, None] + half * (x + 1.0)).ravel())
    weights.append((half * w).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def inner_product_2d(row_fn, col_fn, r_cut: float = 60.0, n_ang: int = 64) -> complex:
    """L2(R^2) inner product (row, col) = int conj(row) col r dr dphi by
    trapezoid in angle (exact for trigonometric integrands) and radial_rule
    in radius, each function called once on the radius x angle grid.  The
    integrand must have decayed by r_cut."""
    phis = np.arange(n_ang) * (2.0 * math.pi / n_ang)
    r, w = radial_rule(r_cut)
    vals = np.conj(row_fn(r[:, None], phis)) * col_fn(r[:, None], phis)
    return complex(2.0 * math.pi * (np.mean(vals, axis=-1) * r) @ w)


def psi_u_correction_table(alpha: float, k: float, pk) -> tuple:
    """The four outgoing corrections of the paper's eigenfunction, written
    out by hand for a given coupling matrix pk (channels (0, -1)):

        2 i cos(pi alpha/2) e^{-i pi alpha/2} k^{2 alpha} p_00 H1_alpha(k r)
        - sqrt(2 sin pi alpha) e^{-i pi/4} e^{i pi alpha} p_{-1,0} k H1_alpha(k r) e^{i theta}
        + sqrt(2 sin pi alpha) e^{3 i pi/4} e^{-i pi alpha} p_{0,-1} k H1_{1-alpha}(k r) e^{-i phi}
        - 2 sin(pi alpha/2) e^{i pi alpha/2} k^{2-2 alpha} p_{-1,-1} H1_{1-alpha}(k r) e^{-i (phi - theta)}

    as (coefficient, order, n_theta, n_phi), the angular factor being
    e^{i (n_theta theta + n_phi phi)}."""
    s2 = math.sqrt(2.0 * math.sin(math.pi * alpha))
    half = math.pi * alpha / 2.0
    return (
        (2j * math.cos(half) * cmath.exp(-1j * half) * k ** (2 * alpha) * pk[0, 0], alpha, 0, 0),
        (-s2 * cmath.exp(-0.25j * math.pi) * cmath.exp(1j * math.pi * alpha) * pk[1, 0] * k,
         alpha, 1, 0),
        (s2 * cmath.exp(0.75j * math.pi) * cmath.exp(-1j * math.pi * alpha) * pk[0, 1] * k,
         1.0 - alpha, 0, -1),
        (-2.0 * math.sin(half) * cmath.exp(1j * half) * k ** (2 - 2 * alpha) * pk[1, 1],
         1.0 - alpha, 1, -1),
    )


def random_params(rng) -> tuple[float, complex, complex]:
    g = rng.normal(size=4)
    n = math.sqrt(float(np.sum(g * g)))
    return (
        float(rng.uniform(-math.pi, math.pi)),
        complex(g[0], g[1]) / n,
        complex(g[2], g[3]) / n,
    )


class RotInvariantRoots(NamedTuple):
    s_wave_root: float | None
    p_wave_root: float | None
    zero_resonance: bool


def rot_invariant_equations(params, alpha) -> RotInvariantRoots:
    """Closed-form s- and p-wave bound-state energies |E| for b = 0.

    For rotationally invariant parameters (b = 0, a = e^{i tau}) the
    channel determinant factorizes into s-wave and p-wave pieces
    controlled by beta = (eta + tau)/2 and omega = (eta - tau)/2:

        s-wave:  E^alpha cos(beta) = cos(beta + pi alpha/2)
        p-wave:  E^{1-alpha} cos(omega) = sin(pi alpha/2 - omega)

    A bracket ratio <= 0 yields no root in that wave; a vanishing
    numerator puts the root exactly at E = 0, reported as a resonance
    rather than a root.  A root beyond the double range is math.inf.
    b != 0 is rejected.  Reads only params.eta, .a and .b.
    """
    alpha = float(alpha)
    if abs(params.b) > 1e-12:
        raise ValueError("rot_invariant_equations requires b = 0")
    tau = cmath.phase(params.a)
    beta, omega = (params.eta + tau) / 2.0, (params.eta - tau) / 2.0
    half = math.pi * alpha / 2.0

    def root(num: float, den: float, power: float) -> float | None:
        if abs(num) <= 1e-12 or abs(den) <= 1e-300 or num / den <= 0.0:
            return None
        try:
            return (num / den) ** power
        except OverflowError:
            return math.inf

    s_num, p_num = math.cos(beta + half), math.sin(half - omega)
    return RotInvariantRoots(root(s_num, math.cos(beta), 1.0 / alpha),
                             root(p_num, math.cos(omega), 1.0 / (1.0 - alpha)),
                             abs(s_num) <= 1e-12 or abs(p_num) <= 1e-12)


_CANONICAL_TOL = 1e-12


def _is_canonical(a: complex, b: complex) -> bool:
    ref = a if abs(a) > _CANONICAL_TOL else b
    if abs(ref.real) > _CANONICAL_TOL:
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
    """Recover canonical (eta, a, b) from a 2x2 array-like of the form
    e^{i eta} [[a, -conj b], [b, conj a]]."""
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
