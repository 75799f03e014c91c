"""Special functions on the domains the channel formulas consume, and the
angular sums of the partial-wave series, in Python complex arithmetic.

J_nu and H1_nu are evaluated one ladder at a time: the orders mu + n at one
argument z (real or in the upper half-plane).  The grid code reads the
orders |m + alpha| off two ladders per radius and adds each radius's
coefficients over the angles with ``_angular_sum``: an FFT on the CLI's
angle grid, Horner's rule elsewhere.  ``bessel_j_orders`` and
``hankel1_orders`` take Python scalars, or broadcast over numpy arrays;
the module imports no numpy, and takes it from ``sys.modules`` for an
array, whose caller has loaded it.

Numerical method
----------------
A ladder mu + n, |mu| <= 1/2, at z != 0 takes three steps.

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
   J_mu H1_{mu+1} - J_{mu+1} H1_mu = -2i/(pi z).

A ladder is multiplied out from its ratios with a power of two carried
apart, the factors e^{+-i z} included, so no partial product over- or
underflows before the value does; a value below the smallest normal float
is exactly 0.  Domain: orders >= 0, z in the closed upper half-plane, z = 0
or |z| >= 1e-300 (1/z leaves the float range near 1e-308), and |z| at most
1e7 above the highest order (J's continued fraction takes about |z| steps).

The test tree checks the surface against the AMOS routines of
``scipy.special`` (to 1e-12 for |z| in [1e-8, 1e3], arg z in [0, 3 pi/4]),
an extended-precision series oracle, closed forms, asymptotics and the
Wronskian.  All functions are pure and reentrant.
"""

from __future__ import annotations

import cmath
import math
import sys

__all__ = [
    "bessel_j_orders",
    "hankel1_orders",
]


def bessel_j_orders(nus, z):
    """J_nu(z) at orders nu >= 0 and arguments z (real z >= 0, or complex in
    the closed upper half-plane): a float (real z) or complex for Python
    scalars, a numpy array broadcast over both for numpy arrays, real at real
    z, and a TypeError for other forms, such as lists.  Values below the
    smallest normal float, as at orders far above |z|, are 0."""
    return _ladder_values(nus, z, want_j=True)


def hankel1_orders(nus, z):
    """H1_nu(z) = J_nu(z) + i Y_nu(z) in the forms of bessel_j_orders, Y_nu its
    imaginary part at real z.  Values below the smallest normal float are 0;
    at z = 0, and beyond the float range, the value is not finite."""
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
_EPS = sys.float_info.epsilon
_MIN_NORMAL = sys.float_info.min           # 2**-1022
_MAX_EXP = 2100                            # beyond the float range either way
_MIN_ABS_Z = 1e-300                        # smallest nonzero |z| of the domain
_LOW = 2.0 ** -64                          # a running product is rescaled below this
# The continued fraction for J_nu/J_{nu-1} takes about |z| - nu steps
# below the turning point: a bound on its cost.
_MAX_CF1_STEPS = 1e7
# Largest orders x (radii or angles) of a partial-wave sum, whose work it
# bounds (the sums hold one radius at a time), and largest orders x columns
# table of the ladders' array form: 1.6e7 elements, 256 MB as complex.
_MAX_GRID_ELEMENTS = 16_000_000
_DOMAIN = "Bessel ladders need orders >= 0 and z in the closed upper half-plane"
_TINY_Z = f"Bessel ladders need z = 0 or |z| >= {_MIN_ABS_Z:g}"


def _ladder_values(nus, z, want_j: bool):
    """J or H1 at every (nu, z) pair."""
    if not (isinstance(nus, (int, float, complex)) and isinstance(z, (int, float, complex))):
        return _array_values(nus, z, want_j)
    nu, real = float(nus), not isinstance(z, complex)
    if not math.isfinite(nu):
        raise ValueError(f"Bessel order {nu} is not finite")
    if nu < 0 or (z < 0 if real else z.imag < 0):
        raise ValueError(_DOMAIN)
    _check_table(nu, math.floor(nu + 0.5), 1)
    value = _ladder_from(nu, 0, z, want_j)[0]
    return value.real if want_j and real else value


def _check_table(nu: float, top: int, columns: int) -> None:
    if top * columns > _MAX_GRID_ELEMENTS:
        raise ValueError(f"Bessel order {nu:.6g}: a ladder table of {top} orders x "
                         f"{columns} columns exceeds the limit of {_MAX_GRID_ELEMENTS:.3g} elements")


def _array_values(nus, z, want_j: bool):
    """The array form: one ladder mu + n per fractional part mu of the orders,
    evaluated once per distinct argument."""
    np = sys.modules.get("numpy")
    forms = (int, float, complex, *((np.ndarray, np.generic) if np else ()))
    if odd := [type(x).__name__ for x in (nus, z) if not isinstance(x, forms)]:
        raise TypeError(f"Bessel ladders take Python scalars or numpy arrays, not {odd[0]}")
    nus, z = np.asarray(nus, dtype=float), np.asarray(z)
    real = not np.iscomplexobj(z)
    if not np.isfinite(nus).all():
        raise ValueError(f"Bessel order {nus[~np.isfinite(nus)].flat[0]} is not finite")
    if (nus < 0).any() or ((z < 0) if real else (z.imag < 0)).any():
        raise ValueError(_DOMAIN)
    if nus.size == 0 or z.size == 0:
        return np.zeros(np.broadcast_shapes(nus.shape, z.shape), float if want_j and real else complex)
    orders, order_idx = np.unique(nus, return_inverse=True)
    args, arg_idx = np.unique(z.astype(complex), return_inverse=True)
    if ((args != 0) & (np.abs(args) < _MIN_ABS_Z)).any():
        raise ValueError(_TINY_Z)
    steps = np.floor(orders + 0.5)
    frac = orders - steps
    # Orders whose fractional parts agree to rounding share a ladder; the
    # lowest order's fraction, the most exact one, is its base.
    tol, ladder, bases = 16.0 * _EPS * np.maximum(orders, 1.0), np.full(orders.size, -1), []
    while (ladder < 0).any():
        i = int(np.argmax(ladder < 0))
        ladder[(ladder < 0) & (np.abs(frac - frac[i]) <= tol)] = len(bases)
        bases.append(float(frac[i]))
    top, width = int(steps[-1]), args.size
    # A partial-wave sum that krein._cutoff admits has top <= mmax + 1 and
    # columns <= 2 x radii: top x columns <= (2 mmax + 2) x width <= the limit.
    _check_table(orders[-1], top, len(bases) * width)
    table = np.empty((top + 1, len(bases) * width), dtype=complex)
    for i, mu in enumerate(bases):
        for j, arg in enumerate(args.tolist()):
            table[:, i * width + j] = _ladder(mu, arg, top, want_j)
    order_idx, arg_idx = order_idx.reshape(nus.shape), arg_idx.reshape(z.shape)
    out = table[steps.astype(int)[order_idx], ladder[order_idx] * width + arg_idx]
    return (out.real if want_j and real else out)[()]


def _partial_waves(alpha: float, top: int, z, want_j: bool, scaled: bool = False) -> list:
    """J or H1 (scaled as by _ladder) at the orders |m + alpha|, m = -top-1 ..
    top, at one z: ladders from 1 - alpha (m < 0) and from alpha (m >= 0)."""
    return (_ladder_from(abs(alpha - 1.0), top, z, want_j, scaled)[::-1]
            + _ladder_from(alpha, top, z, want_j, scaled))


def _ladder_from(nu: float, top: int, z, want_j: bool, scaled: bool = False) -> list:
    """The orders nu + n, n = 0 .. top, off the ladder of nu's fractional part."""
    steps = math.floor(nu + 0.5)
    return _ladder(nu - steps, z, steps + top, want_j, scaled)[steps:]


def _ladder(mu: float, z, top: int, want_j: bool, scaled: bool = False) -> list:
    """J_{mu+n}(z) (want_j) or H1_{mu+n}(z) for n = 0 .. top, |mu| <= 1/2, as
    complex values, by the three steps of the module docstring; scaled by
    e^{-Im z} (J) or e^{Im z} (H1) when scaled."""
    z = complex(z)
    if not z:
        # J_nu(0) = 0 except J_0(0) = 1; H1 is singular there
        return [complex(mu == 0 and not n) if want_j else complex(math.nan, math.nan)
                for n in range(top + 1)]
    if abs(z) < _MIN_ABS_Z:
        raise ValueError(_TINY_Z)
    w = -1j * z
    # Temme's series cancels by about e^{|w| + Re w}: it serves up to 1e-14
    k_mu, k_ratio = (_temme_series if abs(w) + w.real <= 4.0 else _steed_cf2)(mu, w)
    im_z = 0.0 if scaled else z.imag
    # H1_nu(z) = (2/(i pi)) e^{-i nu pi/2} K_nu(-i z) (DLMF 10.27.8), carried
    # as H1_mu(z) e^{-i z}, and H1_{mu+1}/H1_mu
    h_mu = (2.0 / (1j * math.pi)) * cmath.exp(-0.5j * math.pi * mu) * k_mu
    h_ratio = -1j * k_ratio
    if not want_j:
        ratios = [h_ratio] if top else []   # H1_{mu+n+1}/H1_{mu+n}
        for n in range(1, top):
            ratios.append(2.0 * (mu + n) / z - 1.0 / ratios[-1])
        return _climb(math.log(abs(h_mu)) - im_z, h_mu / abs(h_mu) * cmath.exp(1j * z.real), ratios)
    steps = max(top, 1)
    if abs(z) > steps + _MAX_CF1_STEPS:
        raise ValueError(f"J needs |z| at most {_MAX_CF1_STEPS:.0e} above the highest order asked for")
    ratios = [0j] * steps  # J_{mu+n}/J_{mu+n-1}, n = 1 .. steps
    r = _cf1(mu + steps + 1, z)
    for n in range(steps, 0, -1):
        recur = 2.0 * (mu + n) / z
        d = recur - r
        # Where J_{mu+n-1} is 0 to rounding, this ratio is infinite and the
        # next one 0: make the pair finite with the same product, -1.
        r = 1.0 / d if abs(d) > 1.0 / sys.float_info.max else 1.0 / (_EPS * recur)
        ratios[n - 1] = r
    # Wronskian J_mu H1_{mu+1} - J_{mu+1} H1_mu = -2i/(pi z) (DLMF 10.5.5),
    # J_mu = -2i/(pi D) e^{-i z} with D = z (H1_mu e^{-iz}) (h_ratio - J_{mu+1}/J_mu)
    d = z * h_mu * (h_ratio - ratios[0])
    return _climb(math.log(2.0 / math.pi) - math.log(abs(d)) + im_z,
                  -1j * (d / abs(d)).conjugate() * cmath.exp(-1j * z.real), ratios[:top])


def _climb(log_base: float, unit_base: complex, ratios: list) -> list:
    """base, base r_0, base r_0 r_1, ... for base = unit_base exp(log_base), as
    a mantissa times 2**e, the mantissa brought back to [1/2, 1) when its
    modulus leaves [2**-64, 1]: no partial product over- or underflows before
    the value does, and moduli below the smallest normal float are 0."""
    log2 = log_base / math.log(2.0)
    if abs(log2) < _MAX_EXP:
        e = 0 if -64.0 <= log2 <= 0.0 else math.ceil(log2)   # modulus in [2**-64, 1]
        m = unit_base * 2.0 ** (log2 - e)
    else:  # past the float range either way; nan (inf - inf) only arises in an overflow
        e, m = 0, unit_base * (0.0 if log2 < 0 else math.inf)
    out = [_value(m, e) if e else m]
    for r in ratios:
        m *= r
        if not _LOW <= (a := abs(m)) <= 1.0 and 0.0 < a < math.inf:
            shift = math.frexp(a)[1]
            m, e = m / 2.0 ** shift, e + shift   # exact, for shift down to -1073
        out.append(_value(m, e) if e else m)
    return out


def _value(m: complex, e: int) -> complex:
    """m 2**e: exactly 0 below the smallest normal float, infinite beyond the float range."""
    if -958 < e < 1024 and _LOW <= abs(m) <= 1.0:
        return m * 2.0 ** e   # exact, and a normal float
    try:
        v = complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))
    except OverflowError:
        return complex(*(math.copysign(math.inf, x) if x else 0.0 for x in (m.real, m.imag)))
    return 0j if abs(v) < _MIN_NORMAL else v


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
    log_half = -cmath.log(0.5 * w)
    e = mu * log_half
    # sinh(e)/e, which is 1 to rounding below |e| = 1e-100, where the
    # complex division itself could underflow
    sinhc = cmath.sinh(e) / e if not abs(e) < 1e-100 else 1.0
    # Gamma(1+mu) Gamma(1-mu) = pi mu / sin(pi mu)
    f = (gam1 * cmath.cosh(e) + gam2 * sinhc * log_half) / (rg_plus * rg_minus)
    ee = cmath.exp(e)
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
    return k0 * cmath.exp(w), (k1 / k0) * (2.0 / w)


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
    return cmath.sqrt(0.5 * math.pi / w) / s, (mu + w + 0.5 - a1 * h) / w


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


def _angular_sum(angles: list, offset: float, mmax: int):
    """The map from one radius's coefficients c_m, m = -c-1 .. c, c <= mmax,
    to sum_m c_m e^{i m (phi - offset)} at each phi in angles.  On the CLI's
    grid phi_j = (j + 1/2) 2 pi / n (krein._angle_grid) orders fold mod n, with
    e^{i m (pi/n - offset)}, and the sums are one FFT of the n bins, at
    about n x (sum of n's prime factors) products.  A combine over an odd
    prime p costs about twice a Horner step per product, so p is weighed at
    2p, and the FFT serves when the weighed sum is below the 2 mmax + 2
    orders.  Otherwise each angle's sum runs by Horner's rule in
    e^{+-i (phi - offset)}, at n x orders products."""
    from .krein import _angle_grid
    n = rest = len(angles)
    factors = []   # n's prime factors, smallest first
    while rest > 1:
        factors.append(next(p for p in range(2, rest + 1) if rest % p == 0))
        rest //= factors[-1]
    fft_cost = sum(p if p == 2 else 2 * p for p in factors)   # per angle, in Horner steps
    if n and fft_cost < 2 * mmax + 2 and tuple(angles) == _angle_grid(n):
        fold = [cmath.exp(1j * m * (math.pi / n - offset)) for m in range(-mmax - 1, mmax + 1)]
        twiddles = [cmath.exp(2j * math.pi * q / n) for q in range(n)]

        def by_fft(coefs: list) -> list:
            bins, low = [0j] * n, len(coefs) // 2
            for m, c, phase in zip(range(-low, low), coefs, fold[mmax + 1 - low:]):
                bins[m % n] += c * phase
            return _dft(bins, twiddles, factors)

        return by_fft
    steps = [cmath.exp(1j * (phi - offset)) for phi in angles]

    def by_horner(coefs: list) -> list:
        low, out = len(coefs) // 2, []
        above, below = coefs[:low - 1:-1], coefs[:low]   # m = c .. 0, and m = -c-1 .. -1
        for x in steps:
            acc, tail, back = 0j, 0j, x.conjugate()
            for c in above:
                acc = acc * x + c
            for c in below:
                tail = (tail + c) * back
            out.append(acc + tail)
        return out

    return by_horner


def _dft(values: list, twiddles: list, factors: list, stride: int = 1) -> list:
    """sum_q values[q] w^{q j}, j < len(values), w = twiddles[stride] with
    twiddles[t] = e^{2 pi i t / len(twiddles)}: the mixed-radix FFT of Cooley
    and Tukey (Math. Comp. 19 (1965) 297) over the factors of len(values)."""
    if not factors:
        return values
    p, m = factors[0], len(values) // factors[0]
    subs = ([_dft(values[r::p], twiddles, factors[1:], stride * p) for r in range(p)] if m > 1
            else [[v] for v in values])
    if p == 2:
        even, odd = subs
        odd = [o * t for o, t in zip(odd, twiddles[:m * stride:stride])]
        return [a + b for a, b in zip(even, odd)] + [a - b for a, b in zip(even, odd)]
    n, out, roots = p * m, subs[0] * p, twiddles[::stride]   # roots[j] = e^{2 pi i j / n}
    for r in range(1, p):   # out[j] += subs[r][j mod m] roots[r j mod n]
        out = [o + s * roots[i % n] for o, s, i in zip(out, subs[r] * p, range(0, r * n, r))]
    return out
