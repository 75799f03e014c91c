"""Special-function surface: frozen oracle values, classical identities,
branch conventions, and the J/H1 order ladders against an independent
extended-precision series and against the AMOS routines of scipy.special
(imported here only: the package itself never loads scipy.special)."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hankel1 as amos_hankel1
from scipy.special import jv as amos_jv

from abx import krein, specfun
from abx.krein import _MAX_GRID_ELEMENTS, _cutoff, ab_resolvent_kernel
from abx.specfun import (
    UpperHalfK,
    bessel_j_orders,
    branch_power,
    hankel1_orders,
)

from _oracles import mp_complex, series_besselj, series_besselk

PI = math.pi


def bessel_y(nu, x):
    """Y_nu(x) = Im H1_nu(x) on the positive real axis."""
    return float(hankel1_orders(nu, x).imag)


class TestBesselJ:
    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        assert bessel_j_orders(0.5, PI / 2) == pytest.approx(2.0 / PI, rel=1e-12)

    def test_zero_argument(self):
        assert bessel_j_orders(0.3, 0.0) == 0.0

    def test_frozen_series_oracle_value(self):
        # extended-precision ascending series, frozen
        assert bessel_j_orders(0.3, 5.0) == pytest.approx(-0.29682911012576076084, rel=1e-12)

    def test_order_ladder_against_series_oracle(self):
        # 60 orders |m + alpha| on both ladders, as the partial-wave sums use them
        nus = np.abs(np.arange(-30, 30) + 0.37)
        for z in (0.7, 5.0, 2.0 + 1.5j):
            got = bessel_j_orders(nus, z)
            want = np.array([mp_complex(series_besselj(float(nu), z)) for nu in nus])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), z


class TestBesselY:
    def test_half_order_zero(self):
        # Y_{1/2}(x) = -sqrt(2/(pi x)) cos x vanishes at x = pi/2
        assert bessel_y(0.5, PI / 2) == pytest.approx(0.0, abs=1e-12)

    def test_half_order_at_pi(self):
        assert bessel_y(0.5, PI) == pytest.approx(math.sqrt(2.0 / PI**2), rel=1e-12)

    def test_frozen_reflection_oracle_value(self):
        assert bessel_y(0.25, 2.0) == pytest.approx(0.39273839961538505532, rel=1e-12)


class TestHankel1:
    def test_half_order_closed_form(self):
        # H1_{1/2}(x) = -i sqrt(2/(pi x)) e^{ix}
        want = -1j * math.sqrt(2.0 / PI) * cmath.exp(1j)
        got = hankel1_orders(0.5, 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_large_argument_asymptotics(self):
        nu, x = 0.3, 50.0
        h1 = complex(hankel1_orders(nu, x))
        asym = math.sqrt(2.0 / (PI * x)) * cmath.exp(1j * (x - nu * PI / 2 - PI / 4))
        # leading-order deviation is (4 nu^2 - 1)/(8x) = 1.6e-3 here
        assert abs(h1 - asym) / abs(asym) < 2e-3
        corrected = asym * (1.0 + 1j * (4.0 * nu * nu - 1.0) / (8.0 * x))
        assert abs(h1 - corrected) / abs(corrected) < 1e-4


def bessel_k(nu, z):
    """K_nu(z) = (i pi/2) e^{i nu pi/2} H1_nu(i z) (DLMF 10.27.8), read
    off the H1 surface."""
    return 0.5j * PI * cmath.exp(0.5j * PI * nu) * complex(hankel1_orders(nu, 1j * z))


class TestBesselK:
    def test_extended_precision_oracle_on_rays(self):
        for nu in (0.25, 0.8, 1.3):
            for r in (0.3, 3.0, 20.0):
                for sgn in (-1.0, 1.0):
                    z = cmath.exp(sgn * 1j * PI / 4) * r
                    want = mp_complex(series_besselk(nu, z))
                    assert bessel_k(nu, z) == pytest.approx(want, rel=1e-9)

    def test_underflow_returns_exact_zero(self):
        for sgn in (-1.0, 1.0):
            ray = cmath.exp(sgn * 1j * PI / 4)
            assert bessel_k(0.5, ray * 1200.0) == 0j
            assert bessel_k(0.5, ray * 2.0) != 0


class TestBranchPower:
    def test_at_upper_imaginary_unit(self):
        # k = i: -k^2 = 1
        for s in (0.2, 0.5, 0.8):
            assert branch_power(1j, s) == pytest.approx(1.0, rel=1e-14)

    def test_at_reference_point(self):
        alpha = 0.37
        want = cmath.exp(-1j * PI * alpha / 2)
        assert branch_power(cmath.exp(1j * PI / 4), alpha) == pytest.approx(want, rel=1e-14)

    def test_real_axis_boundary_is_limit_from_above(self):
        # continuous limit of the principal branch from Im k -> 0+
        k0, s = 2.0, 0.3
        boundary = branch_power(UpperHalfK(k0, on_real_axis=True), s)
        assert boundary == pytest.approx(4.0**0.3 * cmath.exp(-0.3j * PI), rel=1e-14)
        for eps in (1e-4, 1e-6, 1e-8):
            interior = branch_power(complex(k0, eps), s)
            assert abs(interior - boundary) < 5.0 * eps

    def test_continuity_along_upper_half_path(self):
        s = 0.41
        thetas = np.linspace(0.02, PI - 0.02, 400)
        vals = [branch_power(2.0 * cmath.exp(1j * t), s) for t in thetas]
        steps = np.abs(np.diff(vals))
        assert steps.max() < 0.05  # no branch jumps along the arc

    def test_real_on_bound_state_ray(self):
        for kappa in (1e-3, 1.0, 1e3):
            for s in (0.3, 0.62):
                val = branch_power(complex(0.0, kappa), s)
                assert abs(val.imag) <= 1e-12 * abs(val)

    def test_tiny_modulus_does_not_underflow(self):
        # k^2 underflows to 0 below |k| ~ 1e-154; the power itself does not
        k, s = 1e-200 * cmath.exp(1j), 0.3
        val = branch_power(UpperHalfK(k), s)
        want = mp_complex(mp.exp(s * mp.log(-(mp.mpc(k) ** 2))))
        assert cmath.isfinite(val)
        assert abs(val - want) <= 1e-14 * abs(want)

    def test_rejects_zero_and_lower_half(self):
        with pytest.raises(ValueError):
            branch_power(0.0, 0.3)
        with pytest.raises(ValueError):
            branch_power(1.0 - 1j, 0.3)
        with pytest.raises(ValueError):
            UpperHalfK(-2.0, on_real_axis=True)


class TestWronskian:
    def test_wronskian_identity_random_sweep(self):
        # J_nu Y'_nu - J'_nu Y_nu = 2/(pi x); derivatives from the
        # standard recurrence Z'_nu = Z_{nu-1} - (nu/x) Z_nu
        from scipy.special import jv, yv

        rng = np.random.default_rng(42)
        for _ in range(100):
            nu = float(rng.uniform(0.02, 0.98))
            x = float(rng.uniform(0.1, 100.0))
            j, y = float(bessel_j_orders(nu, x)), bessel_y(nu, x)
            jp = jv(nu - 1.0, x) - (nu / x) * j
            yp = yv(nu - 1.0, x) - (nu / x) * y
            want = 2.0 / (PI * x)
            assert (j * yp - jp * y) == pytest.approx(want, rel=1e-9)


def partial_wave_orders(alpha, mmax):
    """|m + alpha| for m = -mmax-1 .. mmax: the two ladders alpha + n and
    1 - alpha + n, in the order the partial-wave sums use them."""
    return np.abs(np.arange(-mmax - 1, mmax + 1) + alpha)


class TestLaddersAgainstAmos:
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(alpha=st.floats(0.0, 1.0, exclude_max=True), log_r=st.floats(-8.0, 3.0),
           arg=st.one_of(st.sampled_from((0.0, 0.75 * PI)), st.floats(0.0, 0.75 * PI)))
    def test_random_ladders(self, alpha, log_r, arg):
        # |z| in [1e-8, 1e3], arg z in [0, 3 pi/4], orders up to the
        # partial-wave cutoff at |z|; arg z = 0 goes in as a real float
        r = 10.0 ** log_r
        z = r if arg == 0.0 else r * cmath.exp(1j * arg)
        nus = partial_wave_orders(alpha, _cutoff(r, 1.0, 1))
        j, h = bessel_j_orders(nus, z), hankel1_orders(nus, z)
        j_ref, h_ref = amos_jv(nus, z), amos_hankel1(nus, z)
        assert not np.isnan(j).any() and not np.isnan(h).any()
        assert np.isrealobj(j) == (arg == 0.0)
        at = np.isfinite(j_ref) & np.isfinite(h_ref)
        scale = np.maximum(np.abs(j_ref[at]), np.abs(h_ref[at]))
        assert np.all(np.abs(j[at] - j_ref[at]) <= 1e-12 * scale)
        at = np.isfinite(h_ref) & (h_ref != 0)
        assert np.all(np.abs(h[at] - h_ref[at]) <= 1e-12 * np.abs(h_ref[at]))
        # underflow is exact 0, and only where the value is below the float range
        for got, ref in ((j, j_ref), (h, h_ref)):
            assert np.all(np.abs(ref[got == 0]) < 1e-300)
            assert np.all(np.abs(got[ref == 0]) < 1e-290)

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            bessel_j_orders(-0.5, 1.0)
        with pytest.raises(ValueError):
            hankel1_orders(0.5, 1.0 - 1e-3j)
        with pytest.raises(ValueError):
            bessel_j_orders(0.5, -1.0)
        with pytest.raises(ValueError):   # its continued fraction would take 1e8 steps
            bessel_j_orders(0.5, 1e8)
        for z in (1e-310, 5e-301j, 5e-324):  # nonzero |z| below 1e-300
            with pytest.raises(ValueError, match="1e-300"):
                bessel_j_orders(0.5, z)
            with pytest.raises(ValueError, match="1e-300"):
                hankel1_orders(0.5, z)

    @pytest.mark.parametrize("ladder", [bessel_j_orders, hankel1_orders])
    def test_rejects_order_before_allocating(self, ladder):
        # 1e9 orders would ask for a table of 8 GB and more; a non-finite
        # order has no ladder at all
        with pytest.raises(ValueError, match=r"Bessel order 1e\+09: a ladder table of 1000000000"):
            ladder(1e9, 1.0)
        for nu, name in ((math.nan, "nan"), (math.inf, "inf"), ([0.5, -math.inf], "-inf")):
            with pytest.raises(ValueError, match=f"Bessel order {name} is not finite"):
                ladder(nu, 1.0)


class TestLadderEdges:
    @pytest.mark.parametrize("alpha", [0.05, 0.37, 0.5, 0.9])
    def test_channel_order_down_to_tiny_radius(self, alpha):
        # the analytic basis reads H1 at k r, on the rays e^{i pi/4} and
        # e^{3 i pi/4} at its reference points; against the two leading terms of the
        # ascending series, exact to double precision at these radii:
        # H1_nu(z) = [(z/2)^-nu / G(1-nu) - e^{-i nu pi} (z/2)^nu / G(1+nu)] / (i sin nu pi)
        for nu in (alpha, 1.0 - alpha):
            for r in (1e-300, 1e-200, 1e-100, 1e-20, 1e-9):
                for z in (r * cmath.exp(0.25j * PI), r * cmath.exp(0.75j * PI), r, 1j * r):
                    half = cmath.log(z / 2.0)
                    want = (cmath.exp(-nu * half) / math.gamma(1.0 - nu)
                            - cmath.exp(-1j * nu * PI + nu * half) / math.gamma(1.0 + nu)
                            ) / (1j * math.sin(nu * PI))
                    got = complex(hankel1_orders(nu, z))
                    assert cmath.isfinite(got)
                    assert abs(got - want) <= 1e-13 * abs(want), (nu, z)

    def test_order_zero_at_validate_source(self):
        # validate reads H1_0 at k rho = 300 (1 + 1e-6 i)
        for z in (300.0 * (1.0 + 1e-6j), 300.0):
            got, want = complex(hankel1_orders(0.0, z)), complex(amos_hankel1(0.0, z))
            assert abs(got - want) <= 1e-13 * abs(want)
        assert bessel_j_orders(0.0, 300.0) == pytest.approx(amos_jv(0.0, 300.0), rel=1e-12)

    def test_value_does_not_depend_on_its_batch(self):
        # 2 ladders x 40 arguments (80 start-value columns, both Temme's
        # series and Steed's CF2) in one call give the same bits as one
        # call per argument
        rng = np.random.default_rng(7)
        z = 10.0 ** rng.uniform(-1.0, 1.6, 40) + 1j * rng.uniform(0.0, 3.0, 40)
        nus = np.concatenate([np.arange(30) + 0.37, np.arange(30) + 0.63])
        for ladder in (bessel_j_orders, hankel1_orders):
            batch = ladder(nus[:, None], z)
            single = np.stack([ladder(nus, arg) for arg in z], axis=1)
            assert batch.tobytes() == single.tobytes(), ladder.__name__
        # a NaN argument ends every series and continued fraction, and
        # comes back as NaN
        assert math.isnan(bessel_j_orders(0.5, math.nan))
        assert cmath.isnan(complex(hankel1_orders(0.5, complex(1.0, math.nan))))

    def test_ladders_at_the_grid_cap(self):
        # the largest |k| r whose partial-wave grid _cutoff admits at a width
        # of 256 angles, as in the field-grid requests: every value finite
        # or exactly 0, the Wronskian J_nu+1 Y_nu - J_nu Y_nu+1 = 2/(pi z)
        # holds along both ladders, and spot orders match AMOS
        width = 256
        z = float(_MAX_GRID_ELEMENTS // (2 * width))
        while True:
            try:
                mmax = _cutoff(z, 1.0, width)
                break
            except ValueError:
                z -= 1.0
        for arg in (z, z * (1.0 + 1e-6j)):
            nus = partial_wave_orders(0.37, mmax)
            j, h = bessel_j_orders(nus, arg), hankel1_orders(nus, arg)
            assert np.all(np.isfinite(j)) and np.all(np.isfinite(h))
            spots = np.array([0, 1, mmax // 2, mmax - 5, mmax + 1, 2 * mmax + 1])
            for got, ref in ((j, amos_jv(nus[spots], arg)), (h, amos_hankel1(nus[spots], arg))):
                assert np.all(np.abs(got[spots] - ref) <= 1e-9 * np.abs(h[spots]))
        for start in (0.37, 0.63):
            ladder = start + np.arange(mmax)
            j, y = bessel_j_orders(ladder, z), hankel1_orders(ladder, z).imag
            wronskian = j[1:] * y[:-1] - j[:-1] * y[1:]
            live = j[1:] != 0
            assert np.all(np.abs(wronskian[live] * (PI * z / 2.0) - 1.0) <= 1e-10)

    def test_table_bound_admits_the_cutoff_edge(self, monkeypatch):
        # with the shared limit lowered to 4000 elements, 86 radii inside a
        # source at k r = 1e-3 are the most that _cutoff admits (mmax = 22,
        # (2 mmax + 2) x 86 = 3956), and their J ladder table, top x columns =
        # 23 orders x (2 ladders x 86 radii) = 3956, passes the ladder bound
        k, alpha, source = UpperHalfK(1.0, on_real_axis=True), 0.3, (1e-3, 0.0)
        radii = np.linspace(1e-4, 9e-4, 86)
        want = ab_resolvent_kernel(alpha, k, (radii, 1.0), source)
        for module in (krein, specfun):
            monkeypatch.setattr(module, "_MAX_GRID_ELEMENTS", 4000)
        assert _cutoff(1.0, 1e-3, radii.size) == 22
        got = ab_resolvent_kernel(alpha, k, (radii, 1.0), source)
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="partial-wave grid too large"):
            ab_resolvent_kernel(alpha, k, (np.linspace(1e-4, 9e-4, 87), 1.0), source)
        # one order more on the same 172 columns is over the limit: 24 x 172
        nus = np.concatenate([np.arange(25) + alpha, np.arange(24) + 1.0 - alpha])
        with pytest.raises(ValueError, match="24 orders x 172 columns"):
            bessel_j_orders(nus[:, None], radii)
