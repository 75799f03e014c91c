"""Resolvent machinery for the extension family.

The resolvent of any member of the family is the resolvent of the
regular (pure-flux) Hamiltonian plus a rank-two correction built from
channel wave elements:

    R^U(k; x, y) = R^AB(k; x, y) + sum_{j,l} p(k)_{jl} row_k^{(j)}(y) psi_k^{(l)}(x)

with k in the upper half-plane (boundary values on the positive real
axis are limits from above).  The row element is read off the same
channel element as the column:

    row_k^{(j)}(rho, zeta) = conj(psi_{-conj k}^{(j)}(rho, zeta))
                           = e^{-i pi nu_j/2} psi_k^{(j)}(rho, -zeta),

by H2_nu(z e^{-i pi}) = -e^{i nu pi} H1_nu(z) (DLMF 10.11.4); the second
form is continuous onto the real axis, so it serves the whole closed
upper half-plane.  ``_rank_two`` forms the sum, here and, in its far
limits, for the eigenfunction and amplitude of ``scattering``.  The pieces are:

* ``ab_resolvent_kernel`` -- the reference kernel, a partial-wave sum
  (i/4) sum_m e^{i m (phi - zeta)} J_{|m+alpha|}(k r_min) H1_{|m+alpha|}(k r_max).

* ``analytic_basis`` -- the channel elements psi_k, analytic in k,

      psi_k^{(0)}(r)        = N (i pi/2) e^{i pi alpha/4} k^alpha H1_alpha(k r)
      psi_k^{(-1)}(r, phi)  = M (i pi/2) e^{i pi (1-alpha)/4} k^{1-alpha}
                              H1_{1-alpha}(k r) e^{-i phi}

  normalized so the elements at the reference point k0 = e^{i pi/4}
  coincide with the (unit-L2-norm) deficiency elements r^{-1/2} xi(r)
  e^{i m phi}.  The closed form is fixed by the requirement that the
  r^{-nu} singular coefficient be independent of k; it is gated by the
  quadrature check of the overlaps of the family.  N, M: ``_channel_table``.

* ``p_at_i`` / ``p_of_k`` -- the 2x2 coupling matrix (a tuple of rows,
  ordered channels (0, -1)) at the reference point and its continuation in k,
  which solves Krein's channel system S p(k) = p(k0).  The overlaps
  A(k, k0)_{jl} = (psi-row_k^{(j)}, psi_{k0}^{(l)}) are diagonal difference
  quotients in -k^2 whose denominator i - k^2 cancels S's factor k^2 - i:

      S = 1 + (k^2 - i) p(k0) A(k, k0) = 1 - p(k0) diag(g),  g = ((-k^2)^nu - (-i)^nu) / w

  over the orders nu and weights w of ``_channel_table``.  ``p_of_k``
  returns Cramer's rule, once it agrees to 1e-10 with the solve of S by
  Gaussian elimination with partial pivoting: with
  X = p(k0) diag(g), adj(I - X) = (1 - tr X) I + X, and Cayley-Hamilton
  gives X p(k0) = tr X p(k0) - det p(k0) diag(g_-1, g_0), so

      p(k) = (p(k0) - det p(k0) diag(g_-1, g_0)) / D(k),  -det p(k0) = e^{-i eta} (Re a + cos eta) / 2.

* ``d_coeffs`` / ``d_of_k`` -- the channel determinant
  D(k) = common * (c1 E + c_alpha E^alpha + c_{1-alpha} E^{1-alpha} + c0),
  E = -k^2, whose roots on the ray k = i kappa are the bound states.  The
  four bracketed coefficients are real; the common factor e^{-i eta}/sin(pi
  alpha) is kept separate, and ``CCoeffs.pairs`` is the one place the
  bracket is written.  ``d_of_k`` cross-checks the coefficient expansion
  against the determinant of the channel system on every call.

U, p(k0), S, D(k), p(k) and the far fields are Python complex arithmetic; the
grid code gets numpy and the ladders from ``specfun`` inside its functions.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

from .errors import ConsistencyError, NearEigenvalueError
from .extension import (ExtensionParams, UpperHalfK, as_alpha, branch_power, build_u_matrix)

__all__ = [
    "CCoeffs",
    "AnalyticBasisElement",
    "ab_resolvent_kernel",
    "analytic_basis",
    "p_at_i",
    "p_of_k",
    "d_coeffs",
    "d_of_k",
    "full_resolvent_kernel",
]

_CHANNELS = (0, -1)
_DUAL_PATH_TOL = 1e-10
# A 2x2 solve errs by up to a small multiple of cond(S) eps; this is the multiple.
_SOLVE_ERROR_FACTOR = 16.0
_COINCIDENCE_TOL = 1e-12


def _channel_table(alpha: float) -> tuple:
    """Rows (nu, sin(pi nu/2), sqrt(2 cos(pi nu/2))/pi) of channels 0 and -1,
    orders alpha and 1 - alpha: order, overlap weight and norm N or M.  The
    norm makes r^{-1/2} xi(r) e^{i m phi}, xi(r) = norm r^{1/2} K_nu(e^{-+i pi/4} r),
    a unit vector, as Gradshteyn-Ryzhik 6.521.3 at a = e^{i pi/4}, b = e^{-i pi/4}
    gives int_0^inf r |K_nu(e^{+-i pi/4} r)|^2 dr = pi / (4 cos(pi nu/2))."""
    s, c = math.sin(math.pi * alpha / 2.0), math.cos(math.pi * alpha / 2.0)
    return (alpha, s, math.sqrt(2.0 * c) / math.pi), (1.0 - alpha, c, math.sqrt(2.0 * s) / math.pi)


def _cutoff(k_abs: float, r_outer: float, width: int) -> int:
    """Partial-wave cutoff: the classically allowed orders plus a turning-point
    margin like (k r)^{1/3}; refused before anything is allocated when the
    orders x width arrays of the sum would exceed _MAX_GRID_ELEMENTS."""
    from .specfun import _MAX_GRID_ELEMENTS
    z = k_abs * r_outer
    mmax = math.ceil(z) + math.ceil(8.0 * z ** (1 / 3)) + 20 if z < _MAX_GRID_ELEMENTS else math.inf
    if (2 * mmax + 2) * width > _MAX_GRID_ELEMENTS:
        raise ValueError(
            f"partial-wave grid too large at k*r = {z:.3g}: its orders x {width} radii "
            f"or angles exceed the limit of {_MAX_GRID_ELEMENTS:.3g} elements"
        )
    return mmax


def _angular_distance(delta: float) -> float:
    """Distance of the angle delta from 0 on the circle, in [0, pi]."""
    d = delta % (2.0 * math.pi)
    return d if d <= math.pi else 2.0 * math.pi - d


def _gate(r, phi, point: str = ""):
    """Radii and angles as float arrays of their own shapes.  The one gate of
    the coordinates: a radius not finite and positive, or an angle not finite,
    is a ValueError naming it after the label point, such as "source "."""
    from .specfun import np
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    bad_r, bad_phi = r[~(np.isfinite(r) & (r > 0.0))], phi[~np.isfinite(phi)]
    if bad_r.size:
        raise ValueError(f"{point}radius {bad_r[0]} is not finite and positive")
    if bad_phi.size:
        raise ValueError(f"{point}angle {bad_phi[0]} is not finite")
    return r, phi


def _polar_grid(r, phi, point: str = ""):
    """Gated radii and angles as 1-D arrays, plus the shape of the result:
    shape(r) + shape(phi), () for a single point."""
    r, phi = _gate(r, phi, point)
    return r.ravel(), phi.ravel(), r.shape + phi.shape


def _unwrap(values):
    """A Python scalar for a single (0-d) value, the array otherwise."""
    return values.item() if values.ndim == 0 else values


def _partial_wave_sum(alpha: float, mmax: int, dphi, ladder: Callable):
    """sum_m ladder(m, nu)_m e^{i m dphi} over m = -mmax-1 .. mmax with
    nu = |m + alpha|, at every angle in dphi: one product of the order
    ladder (shape (..., orders)) with the orders x angles phase matrix."""
    from .specfun import np
    m = np.arange(-mmax - 1, mmax + 1)
    return ladder(m, np.abs(m + alpha)) @ np.exp(1j * np.outer(m, dphi))


def _kernel_ladder(k: complex, m, nu, r_in, r_out, cutoffs):
    """J_nu(k r_in) H1_nu(k r_out) over the orders nu, one row per radius
    pair, each row cut at its own partial-wave cutoff: one J and one H1
    ladder call for all radii.  J's growth e^{Im k r_in} and H1's decay
    e^{-Im k r_out} are cancelled before the product, so that neither
    factor leaves the float range when their product does not."""
    from .specfun import _ladder_values, np
    j_in = _ladder_values(nu, k * r_in[:, None], want_j=True, scaled=True)
    # Orders far above |k| r_in underflow to exactly 0, and orders beyond a
    # row's cutoff are dropped; their H1 factors, which may be beyond the
    # float range, stay out of the product.
    keep = (j_in != 0) & (np.abs(m + 0.5) <= cutoffs[:, None] + 0.5)
    h_out = _ladder_values(nu, k * r_out[:, None], want_j=False, scaled=True)
    damping = np.broadcast_to(np.exp(k.imag * (r_in - r_out))[:, None], keep.shape)
    terms = np.zeros(keep.shape, dtype=complex)
    terms[keep] = j_in[keep] * h_out[keep] * damping[keep]
    return terms


def ab_resolvent_kernel(alpha, k, x, y):
    """Reference resolvent kernel at observation x = (r, phi), source
    y = (rho, zeta).

    r and phi may each be a scalar or a 1-D array; the result is then the
    polar grid of shape shape(r) + shape(phi), or a complex for a single
    point.  The m-sum at each radius is truncated at
    ``_cutoff(|k|, max(r, rho), width)``.  Coincident points are
    rejected (logarithmic singularity).
    """
    from .specfun import np
    alpha = as_alpha(alpha)
    k = UpperHalfK(k)
    r_vals, phi, shape = _polar_grid(x[0], x[1])
    (rho,), (zeta,), _ = _polar_grid(y[0], y[1], "source ")
    if (any(_angular_distance(p - zeta) <= _COINCIDENCE_TOL for p in phi.tolist())
            and np.any(np.abs(r_vals - rho) <= _COINCIDENCE_TOL * np.maximum(r_vals, rho))):
        raise ValueError("kernel is singular at coincident points x = y")
    r_in, r_out = np.minimum(r_vals, rho), np.maximum(r_vals, rho)
    width = max(r_vals.size, phi.size)
    cutoffs = np.array([_cutoff(abs(k), r, width) for r in r_out])
    out = 0.25j * _partial_wave_sum(
        alpha, int(cutoffs.max()), phi - zeta,
        lambda m, nu: _kernel_ladder(k, m, nu, r_in, r_out, cutoffs))
    return _unwrap(out.reshape(shape))


class AnalyticBasisElement(NamedTuple):
    """One channel element psi_k as an immutable (r, phi) -> complex
    evaluator: prefactor * H1_nu(k r) e^{i channel phi}, broadcast over
    gated r and phi."""

    channel: int
    k: UpperHalfK
    nu: float
    prefactor: complex

    def __call__(self, r, phi):
        from .specfun import hankel1_orders, np
        r, phi = _gate(r, phi)
        rad = self.prefactor * hankel1_orders(self.nu, self.k * r)
        return _unwrap(rad * np.exp(1j * self.channel * phi))


def analytic_basis(channel: int, alpha, k) -> AnalyticBasisElement:
    """The channel-(0 or -1) element of the analytic family psi_k."""
    if channel not in (0, -1):
        raise ValueError(f"channel must be 0 or -1, got {channel}")
    alpha = as_alpha(alpha)
    k = UpperHalfK(k)
    nu, _, norm = _channel_table(alpha)[_CHANNELS.index(channel)]
    coef = norm * (0.5j * math.pi) * cmath.exp(1j * math.pi * nu / 4.0)
    # k**nu on the principal branch, continuous down to the positive real axis
    return AnalyticBasisElement(channel, k, nu, coef * cmath.exp(nu * cmath.log(k)))


def _row(elem: AnalyticBasisElement, rho, zeta):
    """Row element of the rank-two correction for the channel of elem:
    conj(psi_{-conj k}(rho, zeta)) = e^{-i pi nu/2} psi_k(rho, -zeta)."""
    return cmath.exp(-0.5j * math.pi * elem.nu) * elem(rho, -zeta)


def _far_column(elem: AnalyticBasisElement) -> complex:
    """The far field of elem over its channel factor e^{i channel phi},
    lim psi_k(r, phi) sqrt(r) e^{-i k r} e^{-i channel phi} as r -> infinity,
    by H1_nu(z) ~ sqrt(2/(pi z)) e^{i(z - nu pi/2 - pi/4)} (DLMF 10.17.5): the
    one rule behind both far limits of the rank-two correction."""
    radial = cmath.sqrt(2.0 / (math.pi * elem.k)) * cmath.exp(-1j * math.pi * (elem.nu / 2.0 + 0.25))
    return elem.prefactor * radial


def _far_row(elem: AnalyticBasisElement, zeta: float) -> complex:
    """_row(elem, rho, zeta) over the free outgoing wave (i/4) H1_0(k rho) as
    rho -> infinity: by the same rule H1_nu / H1_0 -> e^{-i nu pi/2}, leaving
    -4i e^{-i pi nu} prefactor e^{-i channel zeta}."""
    return (-4j * cmath.exp(-1j * math.pi * elem.nu) * elem.prefactor
            * cmath.exp(-1j * elem.channel * zeta))


def _rank_two(pk: tuple, rows: list) -> list:
    """The rank-two correction sum_jl rows[j] p_jl cols[l] as the coefficient
    sum_j rows[j] p_jl of each column channel l, over the nonzero entries of
    p(k): the one place p(k) meets channel factors.  rows hold those of
    channels (0, -1); at the regular point each coefficient is 0."""
    return [sum(rows[j] * pk[j][l] for j in (0, 1) if pk[j][l]) for l in (0, 1)]


def _matrix(entry: Callable[[int, int], complex]) -> tuple:
    """The 2x2 tuple of rows of entry(i, j), channels (0, -1)."""
    return tuple(tuple(entry(i, j) for j in (0, 1)) for i in (0, 1))


def p_at_i(params: ExtensionParams) -> tuple:
    """Coupling matrix at the reference point k0 = e^{i pi/4}:
    -(i/2) (I + conj(U)), the same for every alpha."""
    u = build_u_matrix(params)
    return _matrix(lambda i, j: -0.5j * (float(i == j) + u[i][j].conjugate()))


class CCoeffs(NamedTuple):
    """Real bracketed coefficients of the channel determinant, with the
    common factor e^{-i eta}/sin(pi alpha) kept separate, the flux
    parameter that sets the powers, and the sizes of c1, c_alpha, c_1malpha
    and c0: the moduli summed into each, which set its rounding."""

    c1: float
    c_alpha: float
    c_1malpha: float
    c0: float
    common_factor: complex
    alpha: float
    sizes: tuple

    def pairs(self) -> tuple:
        """The bracket as (s, c_s) pairs for s = 1, alpha, 1 - alpha, 0:
        D = common_factor * sum of c_s E^s."""
        (nu0, _, _), (nu1, _, _) = _channel_table(self.alpha)
        return (1.0, self.c1), (nu0, self.c_alpha), (nu1, self.c_1malpha), (0.0, self.c0)


def d_coeffs(params: ExtensionParams, alpha) -> CCoeffs:
    """Determinant coefficients in the variable E = -k^2.

    All four brackets are real; the cross-check against determinant
    values happens in d_of_k on every evaluation.
    """
    alpha = as_alpha(alpha)
    eta = params.eta
    ap, app = params.a.real, params.a.imag
    (nu, s, _), (_, c, _) = _channel_table(alpha)
    # Each coefficient's terms, summed left to right; c1 is minus its sum.
    brackets = ((ap, math.cos(eta)),
                (ap * s, math.sin(math.pi * nu / 2.0 - eta), app * c),
                (ap * c, math.cos(math.pi * nu / 2.0 + eta), -app * s),
                (math.sin(eta), -app * math.cos(math.pi * alpha), -ap * math.sin(math.pi * alpha)))
    c1, c_alpha, c_1malpha, c0 = (sum(t[1:], t[0]) for t in brackets)
    common = cmath.exp(-1j * eta) / math.sin(math.pi * alpha)
    return CCoeffs(-c1, c_alpha, c_1malpha, c0, common, alpha,
                   tuple(sum(map(abs, t)) for t in brackets))


def _channel_system(params: ExtensionParams, alpha: float, k: UpperHalfK):
    """The channel solve shared by d_of_k and p_of_k: D's coefficients, D(k),
    the scale |common factor| * (sum of the moduli of D's four terms), p(k0),
    S = 1 - p(k0) diag(g), and g = ((-k^2)^nu - (-i)^nu) / w of channels 0 and
    -1 with the moduli (|(-k^2)^nu| + 1) / w of its terms; each (-k^2)^s is
    evaluated once.  D(k) is the coefficient expansion, cross-checked against
    det S to 1e-10 of the larger route's terms, dscale or |S00 S11| + |S01 S10|."""
    cf = d_coeffs(params, alpha)
    powers = [branch_power(k, s) for s, _ in cf.pairs()]
    terms = [c * power for (_, c), power in zip(cf.pairs(), powers)]
    val = cf.common_factor * sum(terms)
    dscale = abs(cf.common_factor) * sum(abs(t) for t in terms)
    table = list(zip(_channel_table(alpha), powers[1:3]))  # pairs(): the orders 2nd and 3rd
    g = [(power - cmath.exp(-1j * math.pi * nu / 2.0)) / w for (nu, w, _), power in table]
    g_size = [(abs(power) + 1.0) / w for (_, w, _), power in table]
    pref = p_at_i(params)
    system = _matrix(lambda i, j: float(i == j) - pref[i][j] * g[j])
    diag, cross = system[0][0] * system[1][1], system[0][1] * system[1][0]
    det = diag - cross
    # Each route rounds at the size of its own terms: D's four and det S's two.
    if abs(val - det) > _DUAL_PATH_TOL * max(dscale, abs(diag) + abs(cross)):
        raise ConsistencyError(f"determinant paths disagree at k={k}: {val} vs {det}")
    return cf, complex(val), dscale, pref, system, g, g_size


def _solve(s: tuple, b: tuple):
    """s^-1 b for 2x2 s and b by Gaussian elimination with partial pivoting,
    as LAPACK's getrf and getrs at n = 2; None when a pivot is 0."""
    top = int(abs(s[1][0]) > abs(s[0][0]))  # the pivot row
    (p, q), (r, t) = s[top], s[1 - top]
    u = t - r / p * q if p else 0.0
    if not u:
        return None
    low = [(b[1 - top][j] - r / p * b[top][j]) / u for j in (0, 1)]
    return [(b[top][j] - q * low[j]) / p for j in (0, 1)], low


def _condition(s: tuple) -> float:
    """cond(s) = c = sigma_max / sigma_min of a 2x2 s from c + 1/c = |s|_F^2 / |det s|,
    with s scaled to |s|_F = 1 so that no product leaves the float range."""
    f = math.hypot(*(abs(x) for row in s for x in row))
    (a, b), (c, d) = ((x / f for x in row) for row in s)
    x = abs(a * d - b * c)
    return (0.5 + math.sqrt(max(0.25 - x * x, 0.0))) / x if x else math.inf


def d_of_k(params: ExtensionParams, alpha, k) -> complex:
    """Channel determinant D(k), coefficient expansion cross-checked
    against the literal 2x2 determinant."""
    return _channel_system(params, as_alpha(alpha), UpperHalfK(k))[1]


def p_of_k(params: ExtensionParams, alpha, k) -> tuple:
    """Coupling matrix p(k) as a 2x2 tuple of rows, by Cramer's rule on Krein's
    channel system S p(k) = p(k0), S = I - X, X = p(k0) diag(g):
    adj(I - X) = (1 - tr X) I + X, and Cayley-Hamilton gives
    X p(k0) = tr X p(k0) - det p(k0) diag(g_-1, g_0), so

        p(k) = (p(k0) - det p(k0) diag(g_-1, g_0)) / D(k),  -det p(k0) = e^{-i eta} (-c1) / 2.

    It is returned once it agrees with the solve of S (Gaussian elimination
    with partial pivoting) to 1e-10 of the size of p's terms, |1/D| times
    (1 + |a|)/2 + |c1| (|(-k^2)^nu| + 1)/(2 w) on the diagonal and |b|/2 off
    it.  Raises NearEigenvalueError when |D(k)| is below 1e-12 times the sum
    of the moduli of D's four terms, and when the paths disagree because S
    is too ill-conditioned for the solve to reach 1e-10 (16 cond(S) eps above
    1e-10, as next to a zero-energy resonance or a deep bound state).
    """
    alpha = as_alpha(alpha)
    k = UpperHalfK(k)
    cf, dval, dscale, pref, system, g, g_size = _channel_system(params, alpha, k)
    if abs(dval) < 1e-12 * dscale:
        raise NearEigenvalueError(k, dval)
    sigma = cmath.exp(-1j * params.eta) * -cf.c1 / 2.0
    closed = _matrix(lambda i, j: (pref[i][j] + (sigma * g[1 - i] if i == j else 0.0)) / dval)
    inverted = _solve(system, pref)
    # The size of p's terms, which sets the rounding; hypot: huge |k| or |p| does not overflow.
    sizes = [(1.0 + abs(params.a)) / 2.0 + abs(cf.c1) / 2.0 * size for size in g_size[::-1]]
    scale = math.hypot(*sizes, abs(params.b) / 2.0, abs(params.b) / 2.0) / abs(dval)
    if inverted is None or math.hypot(*(abs(x - y) for row, inv in zip(closed, inverted)
                                        for x, y in zip(row, inv))) > _DUAL_PATH_TOL * scale:
        cond = _condition(system)
        if _SOLVE_ERROR_FACTOR * cond * math.ulp(1.0) > _DUAL_PATH_TOL:
            raise NearEigenvalueError(k, dval, condition=cond)
        raise ConsistencyError(f"coupling-matrix paths disagree at k={k}: "
                               f"closed={closed} inverted={inverted}")
    return closed


def full_resolvent_kernel(params: ExtensionParams, alpha, k, x, y):
    """Kernel of the resolvent of the selected extension: reference
    kernel plus the rank-two channel correction.  Near-eigenvalue k is
    rejected (via p_of_k).

    x = (r, phi) takes the same scalar or 1-D array forms as
    ``ab_resolvent_kernel``, with p(k) solved once for the whole grid.
    """
    r_vals, phi, shape = _polar_grid(x[0], x[1])
    out = ab_resolvent_kernel(alpha, k, (r_vals, phi), y)
    basis = [analytic_basis(ch, alpha, k) for ch in _CHANNELS]
    coefs = _rank_two(p_of_k(params, alpha, k),
                      [_row(elem, float(y[0]), float(y[1])) for elem in basis])
    out += sum(c * elem(r_vals[:, None], phi) for c, elem in zip(coefs, basis) if c)
    return _unwrap(out.reshape(shape))
