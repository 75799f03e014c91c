"""Special functions on the domains the channel formulas consume.

One vector surface for the fractional-order Bessel function J_nu and the
Hankel function H1_nu over arrays of orders and arguments (real or in the
upper half-plane).  The J/H1 ladders return numpy arrays broadcast over
orders and arguments.  Every other Bessel-family value the package needs
is read off this surface.  This is the one module that imports numpy: the
grid code (partial-wave sums and channel elements on radii) takes ``np``
and the ladders from here, inside its functions, and the closed-form tasks
load neither.

numpy's OpenBLAS runs on one thread when this module imports numpy first
and the caller set none of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
OMP_NUM_THREADS; os.environ is left as it was.  The products are small: on
a 2-core host the 6x202 by 202x256 complex product of a field-grid
request took 0.09 ms on one thread against 16 ms on two, and a whole
field-grid eigenfunction request a median of 237 ms against 350 ms with
OPENBLAS_NUM_THREADS=2 (16 alternating fresh processes each).  One path
also makes a request print the same bytes on one machine whatever its
core count.  A BLAS-free np.einsum sum would keep the bytes too, but a
grid request ran about 70 ms slower in 20 of 20 pairs without the rule.

Numerical method
----------------
numpy only.  The orders a caller asks for are grouped into ladders
mu + n, n = 0, 1, ..., one per fractional part, with |mu| <= 1/2: the
partial-wave orders |m + alpha| form at most two, alpha + n and
1 - alpha + n.  Each ladder is evaluated once per distinct argument z, in
three steps.

1. K_mu(w) and K_{mu+1}(w) at w = -i z, which give H1_mu and H1_{mu+1}
   by H1_nu(z) = (2/(i pi)) e^{-i nu pi/2} K_nu(-i z) (DLMF 10.27.8):
   Temme's series where |w| + Re w <= 4, its gam1 and gam2 taken from the
   Taylor coefficients of 1/Gamma (A&S 6.1.34) (N. M. Temme, J. Comput.
   Phys. 19 (1975) 324); elsewhere Steed's algorithm on Temme's continued
   fraction CF2, which J. B. Campbell extended to complex arguments (ACM
   TOMS 6 (1980) 581).
2. The H1 ladder by forward recurrence (DLMF 10.74), in which H1 is the
   dominant solution.
3. The J ladder, the minimal solution, by backward recurrence of the
   ratios J_nu/J_{nu-1}, started above the top order by the continued
   fraction DLMF 10.10.1 (modified Lentz) and normalized by the Wronskian
   J_mu H1_{mu+1} - J_{mu+1} H1_mu = -2i/(pi z).  ``hankel1_orders``
   skips this step.

Both ladders are multiplied out from their ratios with the powers of two
split off, the factors e^{+-i z} included, so no partial product over- or
underflows before the value itself does; a value below the smallest
normal float is exactly 0.  Domain: orders >= 0 and z in the closed
upper half-plane, z = 0 or |z| >= 1e-300; a smaller nonzero |z| is
refused, as intermediate values such as 1/z leave the float range near
1e-308.  The start values (the K pair of step 1 and the continued
fraction of step 3) are computed per column, one (ladder, argument) pair
at a time in scalar loops, so a value does not depend on the batch it is
asked in; the recurrences and products run vectorized over all columns,
one pass per order of the highest ladder.  J at orders far below |z|
costs about |z| steps of its continued fraction, so |z| more than 1e7
above the highest order is refused.  No scipy module is loaded.

The surface is checked in the test tree against the AMOS routines of
``scipy.special`` (to 1e-12 for |z| in [1e-8, 1e3], arg z in
[0, 3 pi/4]), an independent extended-precision series oracle, closed
forms, asymptotics and the Wronskian.

All functions are pure and reentrant; there is no mutable module state.
"""

from __future__ import annotations

import math
import os
import sys

if "numpy" in sys.modules or not os.environ.keys().isdisjoint(
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, as numpy loads OpenBLAS
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "bessel_j_orders",
    "hankel1_orders",
]


def bessel_j_orders(nus, z) -> np.ndarray:
    """J_nu(z), broadcast over arrays of orders nu >= 0 and arguments z
    (real z >= 0, or complex in the closed upper half-plane).  Values
    below the smallest normal float, as at orders far above |z|, are
    exactly 0; real z gives a real result."""
    return _ladder_values(nus, z, want_j=True)


def hankel1_orders(nus, z) -> np.ndarray:
    """H1_nu(z) = J_nu(z) + i Y_nu(z), broadcast like bessel_j_orders; on
    the positive real axis Y_nu is its imaginary part.  Values below the
    smallest normal float are exactly 0; z = 0 is singular (the value is
    not finite), as is a value beyond the float range."""
    return _ladder_values(nus, z, want_j=False)


# Taylor coefficients c_1 .. c_26 of 1/Gamma(x) = sum_k c_k x^k (A&S 6.1.34),
# to double precision.
_RGAMMA_TAYLOR = [
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
    -2.0583260535665066e-14, -5.348122539423018e-15, 1.2267786282382608e-15,
    -1.1812593016974588e-16,
]
# (c_{2j}, c_{2j-1}) pairs, highest first: Horner in mu^2 for Temme's gam1, gam2
_GAM_TAYLOR = list(zip(_RGAMMA_TAYLOR[1::2], _RGAMMA_TAYLOR[0::2]))[::-1]
_EPS = np.finfo(float).eps
_MIN_NORMAL_EXP = np.finfo(float).minexp   # 2**-1022, the smallest normal float
_MAX_EXP = 2100                            # beyond the float range either way
_MIN_ABS_Z = 1e-300                        # smallest nonzero |z| of the domain
# The continued fraction for J_nu/J_{nu-1} takes about |z| - nu steps
# below the turning point: a bound on its cost.
_MAX_CF1_STEPS = 1e7
# Largest orders x (radii or angles) array a partial-wave sum may build, and
# largest orders x columns ladder table: 1.6e7 complex elements, 256 MB.
_MAX_GRID_ELEMENTS = 16_000_000


def _ladder_values(nus, z, want_j: bool, scaled: bool = False) -> np.ndarray:
    """J or H1 at every (nu, z) pair: the orders are grouped into ladders
    mu + n, n = 0, 1, ..., one per fractional part (|mu| <= 1/2), and each
    ladder is evaluated once per distinct argument.  scaled drops the
    growth e^{Im z} of J or the decay e^{-Im z} of H1: J e^{-Im z} or
    H1 e^{Im z}, which stay in the float range where J or H1 would not."""
    nus = np.asarray(nus, dtype=float)
    z = np.asarray(z)
    real = not np.iscomplexobj(z)
    if not np.isfinite(nus).all():
        raise ValueError(f"Bessel order {nus[~np.isfinite(nus)].flat[0]} is not finite")
    if (nus < 0).any() or ((z < 0) if real else (z.imag < 0)).any():
        raise ValueError("Bessel ladders need orders >= 0 and z in the closed upper half-plane")
    if nus.size == 0 or z.size == 0:
        return np.zeros(np.broadcast_shapes(nus.shape, z.shape), float if want_j and real else complex)
    orders, order_idx = _distinct(nus)
    args, arg_idx = _distinct(z.astype(complex))
    if ((args != 0) & (np.abs(args) < _MIN_ABS_Z)).any():
        raise ValueError(f"Bessel ladders need z = 0 or |z| >= {_MIN_ABS_Z:g}")
    steps = np.floor(orders + 0.5)
    frac = orders - steps
    # Orders whose fractional parts agree to rounding share a ladder; the
    # lowest order's fraction, the most exact one, is its base.
    tol = 16.0 * _EPS * np.maximum(orders, 1.0)
    ladder = np.zeros(orders.size, dtype=int)
    bases = [frac[0]]
    left = np.abs(frac - frac[0]) > tol
    while left.any():
        i = int(np.argmax(left))
        same = left & (np.abs(frac - frac[i]) <= tol)
        ladder[same] = len(bases)
        bases.append(frac[i])
        left &= ~same
    top, columns = int(steps[-1]), len(bases) * args.size
    # A partial-wave sum that krein._cutoff admits has top <= mmax + 1 and
    # columns <= 2 x radii: top x columns <= (2 mmax + 2) x width <= the limit.
    if top * columns > _MAX_GRID_ELEMENTS:
        raise ValueError(f"Bessel order {orders[-1]:.6g}: a ladder table of {top} orders x "
                         f"{columns} columns exceeds the limit of {_MAX_GRID_ELEMENTS:.3g} elements")
    mu = np.repeat(bases, args.size)
    zcol = np.tile(args, len(bases))
    at_zero = zcol == 0
    with np.errstate(all="ignore"):
        table = _ladders(mu, zcol + at_zero, top, want_j, scaled)
    if at_zero.any():
        # J_nu(0) = 0 except J_0(0) = 1; H1 is singular there
        table[:, at_zero] = 0.0 if want_j else complex(math.nan, math.nan)
        if want_j:
            table[0, at_zero & (mu == 0)] = 1.0
    out = table[steps.astype(int)[order_idx], ladder[order_idx] * args.size + arg_idx]
    return (out.real if want_j and real else out)[()]


def _distinct(values):
    """The sorted distinct values and, per entry, its index among them."""
    found, idx = np.unique(values, return_inverse=True)
    return found, idx.reshape(values.shape)


def _ladders(mu, z, top: int, want_j: bool, scaled: bool) -> np.ndarray:
    """J_{mu+n}(z) (want_j) or H1_{mu+n}(z) for n = 0 .. top, one column per
    (mu, z) pair, |mu| <= 1/2, z != 0: shape (top + 1, columns); scaled by
    e^{-Im z} (J) or e^{Im z} (H1) when scaled.

    H1_mu and H1_{mu+1} come from K_mu(-i z); the H1 ladder climbs by
    forward recurrence, in which H1 is the dominant solution.  J is the
    minimal solution: its ratios J_{nu}/J_{nu-1} descend from a continued
    fraction above the top order, and J_mu is fixed by the Wronskian."""
    k_mu, k_ratio = _by_column(_k_pair, mu, -1j * z)
    im_z = 0.0 if scaled else z.imag
    # H1_nu(z) = (2/(i pi)) e^{-i nu pi/2} K_nu(-i z) (DLMF 10.27.8), carried
    # as H1_mu(z) e^{-i z}, and H1_{mu+1}/H1_mu
    h_mu = (2.0 / (1j * math.pi)) * np.exp(-0.5j * math.pi * mu) * k_mu
    h_ratio = -1j * k_ratio
    recur = 2.0 * (mu + np.arange(top + 2)[:, None]) / z   # 2 nu / z, nu = mu + n
    if not want_j:
        ratios = np.empty((top, z.size), dtype=complex)  # H1_{mu+n+1}/H1_{mu+n}
        if top:
            ratios[0] = h_ratio
        for n in range(1, top):
            np.subtract(recur[n], 1.0 / ratios[n - 1], out=ratios[n])
        return _climb(np.log(np.abs(h_mu)) - im_z, _unit(h_mu) * np.exp(1j * z.real), ratios)
    steps = max(top, 1)
    if np.abs(z).max() > steps + _MAX_CF1_STEPS:
        raise ValueError(f"J needs |z| at most {_MAX_CF1_STEPS:.0e} above the highest order asked for")
    ratios = np.empty((steps, z.size), dtype=complex)  # J_{mu+n}/J_{mu+n-1}, n = 1 .. steps
    r = _by_column(_cf1, mu + steps + 1, z)
    for n in range(steps, 0, -1):
        r = 1.0 / (recur[n] - r)
        ratios[n - 1] = r
    # Where J_{mu+n-1} is 0 to rounding, the ratio above it is infinite and
    # the one below it 0: make the pair finite with the same product, -1.
    row, col = np.nonzero(np.isinf(ratios))
    if row.size:
        ratios[row, col] = 1.0 / (_EPS * recur[row + 1, col])
        row, col = row[row > 0], col[row > 0]
        ratios[row - 1, col] = 1.0 / (recur[row, col] - ratios[row, col])
    # Wronskian J_mu H1_{mu+1} - J_{mu+1} H1_mu = -2i/(pi z) (DLMF 10.5.5),
    # J_mu = -2i/(pi D) e^{-i z} with D = z (H1_mu e^{-iz}) (h_ratio - J_{mu+1}/J_mu)
    d = z * h_mu * (h_ratio - ratios[0])
    log_j = math.log(2.0 / math.pi) - np.log(np.abs(d)) + im_z
    return _climb(log_j, -1j * np.conj(_unit(d)) * np.exp(-1j * z.real), ratios[:top])


def _unit(x):
    return x / np.abs(x)


def _climb(log_base, unit_base, ratios) -> np.ndarray:
    """base * cumprod(ratios) down the rows, for base = unit_base *
    exp(log_base).  Each factor is split into a power of two, chosen so the
    running product of the rest stays near modulus 1, and the rest; only
    the rest is multiplied out.  No partial product over- or underflows
    before the true value does, and moduli below the smallest normal float
    are exactly 0."""
    log2 = np.empty((ratios.shape[0] + 1, ratios.shape[1]))
    log2[0] = log_base / math.log(2.0)
    np.cumsum(np.log2(np.abs(ratios)), axis=0, out=log2[1:])
    log2[1:] += log2[0]
    # past the float range either way; nan (inf - inf) only arises in an overflow
    expo = np.rint(np.maximum(np.fmin(log2, _MAX_EXP), -_MAX_EXP))
    mant = np.empty(log2.shape, dtype=complex)
    mant[0] = unit_base * np.exp2(log2[0] - expo[0])
    np.multiply(ratios, np.exp2(expo[:-1] - expo[1:]), out=mant[1:])   # exact rescaling
    np.cumprod(mant, axis=0, out=mant)
    expo = expo.astype(int)
    out = np.empty_like(mant)
    out.real = np.ldexp(mant.real, expo)
    out.imag = np.ldexp(mant.imag, expo)
    out[expo < _MIN_NORMAL_EXP] = 0.0
    return out


def _by_column(fn, *cols):
    """fn on each column's scalars; its outputs stacked, one row each."""
    return np.array([fn(*args) for args in zip(*(c.tolist() for c in cols))]).T


def _k_pair(mu, w):
    """K_mu(w) e^w and K_{mu+1}(w)/K_mu(w) for |mu| <= 1/2."""
    # Temme's series cancels by about e^{|w| + Re w}: it serves up to 1e-14
    return (_temme_series if abs(w) + w.real <= 4.0 else _steed_cf2)(mu, w)


def _temme_series(mu, w):
    """K_mu(w) e^w and K_{mu+1}(w)/K_mu(w) for |mu| <= 1/2 by Temme's
    series, with gam1 and gam2 from the Taylor series of 1/Gamma, so that
    mu -> 0 loses no digits."""
    mu2 = mu * mu
    gam1 = gam2 = 0.0
    for c_even, c_odd in _GAM_TAYLOR:
        gam1 = gam1 * mu2 - c_even   # (1/G(1-mu) - 1/G(1+mu))/(2 mu)
        gam2 = gam2 * mu2 + c_odd    # (1/G(1-mu) + 1/G(1+mu))/2
    rg_plus, rg_minus = gam2 - mu * gam1, gam2 + mu * gam1   # 1/Gamma(1+mu), 1/Gamma(1-mu)
    log_half = -np.log(0.5 * w)
    e = mu * log_half
    # sinh(e)/e, which is 1 to rounding below |e| = 1e-100, where the
    # complex division itself could underflow
    sinhc = np.sinh(e) / e if not abs(e) < 1e-100 else 1.0
    # Gamma(1+mu) Gamma(1-mu) = pi mu / sin(pi mu)
    f = (gam1 * np.cosh(e) + gam2 * sinhc * log_half) / (rg_plus * rg_minus)
    ee = np.exp(e)
    p = 0.5 * ee / rg_plus    # Gamma(1+mu) (w/2)^{-mu} / 2
    q = 0.5 / (ee * rg_minus)  # Gamma(1-mu) (w/2)^{mu} / 2
    c = 1.0
    x2 = 0.25 * w * w
    k0, k1 = f, p
    i = 1
    while True:
        f = (i * f + p + q) / (i * i - mu2)
        c = c * x2 / i
        p = p / (i - mu)
        q = q / (i + mu)
        term = c * f
        k0 = k0 + term
        k1 = k1 + c * (p - i * f)
        if not abs(term) > _EPS * abs(k0):
            break
        i += 1
    return k0 * np.exp(w), (k1 / k0) * (2.0 / w)


def _steed_cf2(mu, w):
    """K_mu(w) e^w and K_{mu+1}(w)/K_mu(w) for |mu| <= 1/2 by Steed's
    algorithm on Temme's continued fraction CF2, in complex arithmetic as
    Campbell has it; quick for large |w|."""
    b = 2.0 * (1.0 + w)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    i = 2
    while True:
        a = a - 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        if not abs(dels) > _EPS * abs(s):
            break
        i += 1
    return np.sqrt(0.5 * math.pi / w) / s, (mu + w + 0.5 - a1 * h) / w


def _cf1(nu, z):
    """J_nu(z)/J_{nu-1}(z) from its continued fraction (DLMF 10.10.1) by the
    modified Lentz method; quick once nu exceeds |z|."""
    tiny = 1e-300
    f = 2.0 * nu / z
    if f == 0:
        f = tiny
    cc = f
    dd = 0.0
    j = 1
    while True:
        b = 2.0 * (nu + j) / z
        dd = b - dd
        if dd == 0:
            dd = tiny
        dd = 1.0 / dd
        cc = b - 1.0 / cc
        if cc == 0:
            cc = tiny
        delta = cc * dd
        f = f * delta
        if not abs(delta - 1.0) > _EPS:
            break
        j += 1
    return 1.0 / f
