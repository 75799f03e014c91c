"""Second-route physics for the benchmark's output checks.

Every formula here is written from the paper's closed forms with numpy and
scipy.special alone.  Nothing imports ``abx``, so a defect in the package
cannot hide inside the oracle that checks it.  The routes differ from the
package's on purpose:

* p(k) comes from a literal 2x2 solve of 1 + (k^2 - i) p(k0) A(k, k0),
  never from the package's closed entry formulas;
* the amplitude corrections are the large-r Hankel asymptotics
  H1_nu(kr) ~ sqrt(2/(pi k r)) exp(i(kr - nu pi/2 - pi/4)) (DLMF 10.17)
  of the eigenfunction corrections, not the package's amplitude table;
* the plane-wave sum uses a wider truncation than the package's, and the
  kernel's partial-wave sum adds its tail in closed form (or, given a
  cutoff, stops there, to size the package's own truncation);
* bound states come from the s/p-wave closed forms (b = 0) or from the
  literal determinant (b != 0).

A point is the tuple (eta, a, b, alpha) of plain floats/complexes.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
from scipy import special as sp

K0_SQ = 1j  # reference point k0 = exp(i pi / 4)


def neg_ksq_power(k: complex, s: float) -> complex:
    """(-k^2)^s on the closed upper half-plane; a real k > 0 takes the
    limit from Im k -> 0+, exp(-i pi s) k^(2s)."""
    k = complex(k)
    if k.imag == 0.0:
        return cmath.exp(complex(2.0 * s * math.log(k.real), -math.pi * s))
    return cmath.exp(s * cmath.log(-(k * k)))


def u_matrix(eta: float, a: complex, b: complex) -> np.ndarray:
    return cmath.exp(1j * eta) * np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def p_reference(eta: float, a: complex, b: complex) -> np.ndarray:
    """p(k0) = -(i/2) (1 + conj(U))."""
    return -0.5j * (np.eye(2) + np.conj(u_matrix(eta, a, b)))


def overlap_diag(alpha: float, k: complex) -> np.ndarray:
    """A(k, k0): diagonal difference quotients of (-k^2)^alpha and
    (-k^2)^(1 - alpha)."""
    s = math.sin(math.pi * alpha / 2.0)
    c = math.cos(math.pi * alpha / 2.0)
    denom = K0_SQ - complex(k) ** 2
    a00 = (neg_ksq_power(k, alpha) - cmath.exp(-0.5j * math.pi * alpha)) / (s * denom)
    a11 = (neg_ksq_power(k, 1.0 - alpha)
           - cmath.exp(-0.5j * math.pi * (1.0 - alpha))) / (c * denom)
    return np.diag([a00, a11])


def channel_system(point, k: complex) -> tuple[np.ndarray, np.ndarray]:
    eta, a, b, alpha = point
    p0 = p_reference(eta, a, b)
    return np.eye(2) + (complex(k) ** 2 - 1j) * (p0 @ overlap_diag(alpha, k)), p0


def p_matrix(point, k: complex) -> np.ndarray:
    """Coupling matrix p(k) by the literal 2x2 solve."""
    system, p0 = channel_system(point, k)
    return np.linalg.solve(system, p0)


def determinant_residual(point, energy: float) -> float:
    """|det(1 + (k^2 - i) p(k0) A(k, k0))| at k = i sqrt(E), relative to
    the size of the terms that cancel in it."""
    k = 1j * math.sqrt(energy)
    system, p0 = channel_system(point, k)
    det = system[0, 0] * system[1, 1] - system[0, 1] * system[1, 0]
    scale = 1.0 + np.abs(system).max() ** 2
    return float(abs(det) / scale)


def rot_invariant_roots(point) -> list[float]:
    """Bound-state energies |E| of a b = 0 point from the s/p-wave closed
    forms E^alpha cos(beta) = cos(beta + pi alpha / 2) and
    E^(1-alpha) cos(omega) = sin(pi alpha / 2 - omega)."""
    eta, a, _b, alpha = point
    tau = cmath.phase(a)
    beta, omega = (eta + tau) / 2.0, (eta - tau) / 2.0
    half = math.pi * alpha / 2.0
    roots = []
    for num, den, power in ((math.cos(beta + half), math.cos(beta), 1.0 / alpha),
                            (math.sin(half - omega), math.cos(omega), 1.0 / (1.0 - alpha))):
        # cos(beta) or cos(omega) = 0 to rounding leaves the equation without a root.
        if num != 0.0 and abs(den) > 1e-12 and num / den > 0.0:
            roots.append((num / den) ** power)
    return sorted(roots)


def psi_corrections(point, k: float) -> list[tuple[complex, float, int, int]]:
    """The four outgoing eigenfunction corrections of the paper as
    (coefficient, order, n_theta, n_phi): each adds
    coefficient * H1_order(k r) * exp(i (n_theta theta + n_phi phi))."""
    alpha = point[3]
    p = p_matrix(point, k)
    s2 = math.sqrt(2.0 * math.sin(math.pi * alpha))
    half = math.pi * alpha / 2.0
    return [
        (2j * math.cos(half) * cmath.exp(-1j * half) * k ** (2 * alpha) * p[0, 0], alpha, 0, 0),
        (-s2 * cmath.exp(-0.25j * math.pi) * cmath.exp(1j * math.pi * alpha) * p[1, 0] * k,
         alpha, 1, 0),
        (s2 * cmath.exp(0.75j * math.pi) * cmath.exp(-1j * math.pi * alpha) * p[0, 1] * k,
         1.0 - alpha, 0, -1),
        (-2.0 * math.sin(half) * cmath.exp(1j * half) * k ** (2 - 2 * alpha) * p[1, 1],
         1.0 - alpha, 1, -1),
    ]


def flux_amplitude_weight(alpha: float, k: float) -> complex:
    """Principal-value weight of the regular amplitude."""
    return math.sqrt(2.0 * math.pi / k) * cmath.exp(-0.25j * math.pi) * 1j * math.sin(math.pi * alpha) / math.pi


def forward_delta_coeff(alpha: float, k: float) -> complex:
    return math.sqrt(2.0 * math.pi / k) * cmath.exp(-0.25j * math.pi) * (math.cos(math.pi * alpha) - 1.0)


def amplitude(point, k: float, theta: float, phi) -> np.ndarray:
    """Smooth (off-forward) amplitude over an array of angles phi."""
    alpha = point[3]
    phi = np.asarray(phi, dtype=float)
    out = flux_amplitude_weight(alpha, k) / (np.exp(1j * (phi - theta)) - 1.0)
    root = math.sqrt(2.0 / (math.pi * k))
    for coef, nu, n_theta, n_phi in psi_corrections(point, k):
        far = coef * root * cmath.exp(-1j * (0.5 * math.pi * nu + 0.25 * math.pi))
        out = out + far * np.exp(1j * (n_theta * theta + n_phi * phi))
    return out


def regular_cross_section(alpha: float, k: float, theta: float, phi) -> np.ndarray:
    """|f|^2 = sin^2(pi alpha) / (2 pi k sin^2(delta / 2)) at the regular point."""
    delta = np.asarray(phi, dtype=float) - theta
    return math.sin(math.pi * alpha) ** 2 / (2.0 * math.pi * k * np.sin(delta / 2.0) ** 2)


def psi(point, k: float, theta: float, r: float, phi: float) -> tuple[complex, float]:
    """Eigenfunction: the distorted plane wave
    sum_m i^|m| e^{i m (phi - theta)} e^{i pi (|m| - |m + alpha|)/2} J_|m+alpha|(k r)
    plus the four outgoing corrections.  Returns the value and the size of
    its parts, 1 + sum |correction|."""
    alpha = point[3]
    mmax = int(math.ceil(k * r + 12.0 * max(k * r, 1.0) ** (1.0 / 3.0) + 40))
    m = np.arange(-mmax - 1, mmax + 1)
    nu = np.abs(m + alpha)
    terms = (1j ** np.abs(m) * np.exp(1j * m * (phi - theta))
             * np.exp(0.5j * math.pi * (np.abs(m) - nu)) * sp.jv(nu, k * r))
    out, scale = complex(np.sum(terms)), 1.0
    for coef, order, n_theta, n_phi in psi_corrections(point, k):
        term = coef * complex(sp.hankel1(order, k * r)) * cmath.exp(1j * (n_theta * theta + n_phi * phi))
        out += term
        scale += abs(term)
    return out, scale


def _basis(alpha: float, channel: int, k: complex, r: float, ang: float) -> complex:
    """Channel element psi_k^(channel)(r, ang), k^s on the principal branch."""
    if channel == 0:
        nu, norm, angular = alpha, math.sqrt(2.0 * math.cos(math.pi * alpha / 2.0)) / math.pi, 1.0
    else:
        nu, norm, angular = 1.0 - alpha, math.sqrt(2.0 * math.sin(math.pi * alpha / 2.0)) / math.pi, cmath.exp(-1j * ang)
    pref = norm * 0.5j * math.pi * cmath.exp(0.25j * math.pi * nu) * cmath.exp(nu * cmath.log(k))
    return pref * complex(sp.hankel1(nu, k * r)) * angular


def _lerch_tail(n0: int, shift: float, q: float, dang: float) -> complex:
    """sum over n >= n0 of e^{i n dang} q^(n + shift) / (4 pi (n + shift))."""
    return (cmath.exp(1j * n0 * dang) * q ** (n0 + shift)
            * complex(mpmath.lerchphi(q * cmath.exp(1j * dang), 1, n0 + shift)) / (4.0 * math.pi))


def kernel(point, k: complex, x: tuple[float, float], y: tuple[float, float],
           cutoff: int | None = None) -> complex:
    """Resolvent kernel for Im k > 0: the reference partial-wave kernel
    (i/4) sum_m e^{i m (phi - zeta)} J_|m+alpha|(k r<) H1_|m+alpha|(k r>)
    plus sum_jl p_jl(k) conj(psi_{-conj k}^(j)(y)) psi_k^(l)(x).

    Terms are summed exactly until J underflows; beyond, where the order
    far exceeds |k r|, J_nu(k r<) H1_nu(k r>) -> -i q^nu / (pi nu) with
    q = r< / r>, and the rest is a Lerch series summed in closed form.  On
    the ring q = 1 the series converges only conditionally, so no finite
    truncation reaches it.  With a cutoff, the reference sum keeps only
    the orders |m + alpha| of m in [-cutoff - 1, cutoff] and adds no tail."""
    alpha = point[3]
    (r, phi), (rho, zeta) = x, y
    r_in, r_out = min(r, rho), max(r, rho)
    q = r_in / r_out
    dang = phi - zeta
    mmax = int(math.ceil(20.0 * abs(k) * r_out)) + 400 if cutoff is None else cutoff
    out = 0j
    # m = n >= 0 has order n + alpha; m = -n, n >= 1, has order n - alpha.
    for n, shift, sign in ((np.arange(0, mmax + 1), alpha, 1), (np.arange(1, mmax + 2), -alpha, -1)):
        j_in = sp.jv(n + shift, k * r_in)
        small = np.abs(j_in) < 1e-250
        stop = int(np.argmax(small)) if small.any() else len(n)
        terms = (j_in[:stop] * sp.hankel1(n[:stop] + shift, k * r_out)
                 * np.exp(1j * sign * n[:stop] * dang))
        out += 0.25j * complex(np.sum(terms))
        n0 = int(n[0]) + stop
        if cutoff is None and q ** (n0 + shift) > 1e-20:
            out += _lerch_tail(n0, shift, q, sign * dang)
    p = p_matrix(point, k)
    mirror = -complex(k).conjugate()
    for j, ch_row in enumerate((0, -1)):
        row = complex(np.conj(_basis(alpha, ch_row, mirror, rho, zeta)))
        for l, ch_col in enumerate((0, -1)):
            out += p[j, l] * row * _basis(alpha, ch_col, k, r, phi)
    return out


def limit_oracle_error(point, k: float) -> float:
    """Relative error of the eigenfunction limit psi(x) ~ 4 / (i H1_0(k rho))
    G(x, y) with the source y at k rho = 300 opposite the incident
    direction theta = 0.4, at x = (1.2, 1.6) and Im k = 1e-6 k: the
    geometry of the package's ``validate`` task.  The error is physical
    (finite rho), so it sizes what that task must report."""
    theta, x, k_rho = 0.4, (1.2, 1.6), 300.0
    kc = complex(k, 1e-6 * k)
    limit = (4.0 / (1j * complex(sp.hankel1(0.0, kc * k_rho / k)))
             * kernel(point, kc, x, (k_rho / k, theta + math.pi)))
    closed, _ = psi(point, k, theta, *x)
    return abs(limit - closed) / abs(closed)


def mixing(point, k: float) -> tuple[float, float]:
    """(constant, probability): 8 k sin(pi alpha) and constant * |p_{0,-1}|^2."""
    const = 8.0 * k * math.sin(math.pi * point[3])
    return const, const * abs(p_matrix(point, k)[0, 1]) ** 2
