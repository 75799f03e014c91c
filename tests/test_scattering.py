"""Eigenfunctions, amplitudes, cross sections, channel mixing, and the
numerical amplitude-extraction oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import hankel1 as sp_hankel1

from abx.errors import NearEigenvalueError
from abx.extension import ExtensionParams, UpperHalfK
from abx.krein import d_of_k, full_resolvent_kernel, p_of_k
from abx.scattering import (
    FORWARD_EPSILON,
    PlaneWaveChannel,
    amplitude_ab,
    amplitude_u,
    channel_mixing,
    cross_section,
    extract_amplitude,
    extraction_remainder_bound,
    psi_ab,
    psi_u,
)
from abx.specfun import hankel1_orders

from _oracles import apply_flux_operator, observed_orders, psi_u_correction_table, random_params

PI = math.pi
MIXING = ExtensionParams.mixing(0.7)
ROTINV = ExtensionParams.rotationally_invariant(0.4, 0.9)
AB = ExtensionParams.ab_point()


def classical_ab_xsection(alpha: float, k: float, delta: float) -> float:
    return math.sin(PI * alpha) ** 2 / (2.0 * PI * k * math.sin(delta / 2.0) ** 2)


def test_plane_wave_channel_is_an_immutable_value():
    chan, again = PlaneWaveChannel(2, -0.5), PlaneWaveChannel(2.0, 2.0 * PI - 0.5)
    assert (chan.k, chan.theta) == (2.0, 2.0 * PI - 0.5) and type(chan.k) is float
    assert chan == again and hash(chan) == hash(again)
    assert chan != PlaneWaveChannel(2.0, 0.5) and chan._replace(theta=-0.5) == chan
    with pytest.raises(ValueError, match="theta nan is not finite"):
        chan._replace(theta=math.nan)
    with pytest.raises(AttributeError):
        chan.theta = 0.0
    with pytest.raises(AttributeError):
        chan.extra = 0


class TestPsiAB:
    def test_plane_wave_limit(self):
        # alpha -> 0 recovers e^{i k r cos(phi - theta)}
        chan = PlaneWaveChannel(1.0, 0.7)
        for r in (0.4, 1.5, 2.9):
            for phi in (0.0, 1.2, 4.0):
                got = psi_ab(1e-6, chan, r, phi)
                want = cmath.exp(1j * chan.k * r * math.cos(phi - chan.theta))
                assert abs(got - want) <= 3e-6

    def test_depends_on_angle_difference_only(self):
        chan1 = PlaneWaveChannel(1.3, 0.4)
        chan2 = PlaneWaveChannel(1.3, 0.4 + 0.9)
        for r, phi in ((0.7, 1.1), (2.2, 5.0)):
            a = psi_ab(0.3, chan1, r, phi)
            b = psi_ab(0.3, chan2, r, phi + 0.9)
            assert abs(a - b) <= 1e-12

    def test_pde_residual(self):
        alpha = 0.35
        chan = PlaneWaveChannel(1.3, 0.4)

        def u(r, phi):
            return psi_ab(alpha, chan, r, phi)

        resid = []
        for h in (0.02, 0.01, 0.005):
            worst = 0.0
            for (r, phi) in ((1.1, 0.6), (2.4, 3.2)):
                val = apply_flux_operator(u, alpha, r, phi, h) - chan.k**2 * u(r, phi)
                worst = max(worst, abs(val))
            resid.append(worst)
        assert min(observed_orders(resid)) >= 1.8, resid


class TestPsiU:
    def test_ab_parameters_reduce_exactly(self):
        chan = PlaneWaveChannel(1.0, 0.3)
        for alpha in (0.2, 0.8):
            for r, phi in ((0.5, 0.0), (1.7, 2.2), (3.1, 5.9)):
                assert psi_u(AB, alpha, chan, r, phi) == psi_ab(alpha, chan, r, phi)
            radii, angles = np.array([0.5, 1.7, 3.1]), np.array([0.0, 2.2, 5.9])
            assert np.array_equal(psi_u(AB, alpha, chan, radii, angles),
                                  psi_ab(alpha, chan, radii, angles))

    @pytest.mark.parametrize("params", [AB, ROTINV, MIXING])
    def test_grid_matches_pointwise(self, params):
        # the grid is cut once at its largest radius, each point at its own
        chan = PlaneWaveChannel(2.3, 0.4)
        radii, angles = np.array([0.3, 1.1, 6.0]), np.linspace(0.1, 6.2, 7)
        grid = psi_u(params, 0.35, chan, radii, angles)
        assert grid.shape == (3, 7)
        want = np.array([[psi_u(params, 0.35, chan, r, phi) for phi in angles] for r in radii])
        assert type(psi_u(params, 0.35, chan, 1.1, 0.1)) is complex
        assert np.max(np.abs(grid - want)) <= 1e-13 * np.max(np.abs(want))
        radial = psi_u(params, 0.35, chan, radii, 1.0)
        assert radial.shape == (3,)
        assert np.max(np.abs(radial - [psi_u(params, 0.35, chan, r, 1.0) for r in radii])) \
            <= 1e-13 * np.max(np.abs(radial))

    def test_resolvent_limit_oracle_single_sample(self):
        # far point source against the closed form (full sweep runs in
        # the acceptance suite)
        alpha, k, theta = 0.45, 1.0, 0.4
        rho, eps = 300.0 / k, 1e-6 * k
        kc = UpperHalfK(complex(k, eps))
        chan = PlaneWaveChannel(k, theta)
        r, phi = 1.2, 1.6
        lim = (4.0 / (1j * complex(hankel1_orders(0.0, kc * rho)))
               * full_resolvent_kernel(MIXING, alpha, kc, (r, phi), (rho, theta + PI)))
        closed = psi_u(MIXING, alpha, chan, r, phi)
        assert abs(lim - closed) / abs(closed) <= 2e-2

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(g=st.tuples(*[st.floats(-1.0, 1.0)] * 4), eta=st.floats(-PI, PI),
           alpha=st.floats(0.02, 0.98), k=st.floats(0.05, 10.0), theta=st.floats(0.0, 2 * PI),
           r=st.floats(0.05, 10.0), phi=st.floats(0.0, 2 * PI))
    def test_corrections_match_four_term_table(self, g, eta, alpha, k, theta, r, phi):
        # psi_u and amplitude_u derive their corrections from the channel
        # basis; the paper's hand-written table, given the same p(k), must
        # reproduce them
        norm = math.hypot(*g)
        assume(norm > 1e-3)
        params = ExtensionParams(eta, complex(g[0], g[1]) / norm, complex(g[2], g[3]) / norm)
        try:
            pk = p_of_k(params, alpha, UpperHalfK(k, on_real_axis=True))
        except NearEigenvalueError:
            assume(False)
        chan = PlaneWaveChannel(k, theta)
        base = psi_ab(alpha, chan, r, phi)
        terms = [coef * complex(sp_hankel1(order, k * r)) * cmath.exp(1j * (n_t * theta + n_p * phi))
                 for coef, order, n_t, n_p in psi_u_correction_table(alpha, k, pk)]
        got = psi_u(params, alpha, chan, r, phi) - base
        assert abs(got - sum(terms)) <= 1e-12 * (abs(base) + sum(abs(t) for t in terms))
        # the amplitude's correction is the table's far field: each H1_nu(k r)
        # becomes sqrt(2/(pi k)) e^{-i(nu pi/2 + pi/4)}; off the forward cone only
        if not FORWARD_EPSILON < (phi - theta) % (2 * PI) < 2 * PI - FORWARD_EPSILON:
            return
        far = [coef * math.sqrt(2.0 / (PI * k)) * cmath.exp(-1j * (order * PI / 2 + PI / 4))
               * cmath.exp(1j * (n_t * theta + n_p * phi))
               for coef, order, n_t, n_p in psi_u_correction_table(alpha, k, pk)]
        flux = amplitude_ab(alpha, k).smooth(theta, phi)
        got = amplitude_u(params, alpha, k).smooth(theta, phi) - flux
        assert abs(got - sum(far)) <= 1e-12 * (abs(flux) + sum(abs(t) for t in far))

    def test_pde_residual(self):
        alpha = 0.45
        chan = PlaneWaveChannel(1.3, 0.4)

        def u(r, phi):
            return psi_u(MIXING, alpha, chan, r, phi)

        resid = []
        for h in (0.02, 0.01, 0.005):
            val = apply_flux_operator(u, alpha, 1.4, 0.9, h) - chan.k**2 * u(1.4, 0.9)
            resid.append(abs(val))
        assert min(observed_orders(resid)) >= 1.8, resid


class TestAmplitudeAB:
    def test_classical_cross_section_modulus(self):
        for alpha in (0.2, 0.5, 0.85):
            for k in (0.5, 2.0):
                amp = amplitude_ab(alpha, k)
                for delta in (0.4, 2.0, PI):
                    got = abs(amp.smooth(0.0, delta)) ** 2
                    assert got == pytest.approx(
                        classical_ab_xsection(alpha, k, delta), rel=1e-12)

    def test_half_flux_backscattering_value(self):
        # alpha = 1/2, delta = pi, k = 1: |f|^2 = 1/(2 pi)
        amp = amplitude_ab(0.5, 1.0)
        assert abs(amp.smooth(0.0, PI)) ** 2 == pytest.approx(1.0 / (2 * PI), rel=1e-12)

    def test_small_flux_limit(self):
        amp = amplitude_ab(1e-6, 1.0)
        assert abs(amp.smooth(0.0, 2.0)) <= 1e-5
        assert abs(amp.forward_delta_coeff) <= 1e-5

    def test_magnitude_symmetric_in_angle(self):
        amp = amplitude_ab(0.3, 1.0)
        for delta in (0.3, 1.4, 2.8):
            assert abs(amp.smooth(0.0, delta)) == pytest.approx(
                abs(amp.smooth(0.0, -delta)), rel=1e-12)

    def test_forward_cone_rejected(self):
        amp = amplitude_ab(0.3, 1.0)
        with pytest.raises(ValueError):
            amp.smooth(0.0, FORWARD_EPSILON / 2)
        with pytest.raises(ValueError):
            amp.smooth(0.0, 2 * PI - FORWARD_EPSILON / 2)


class TestAmplitudeU:
    def test_channel_preserving_for_b_zero(self):
        # no theta-only or phi-only angular terms: the smooth amplitude
        # depends on phi - theta alone
        amp = amplitude_u(ROTINV, 0.4, 1.0)
        for delta in (0.8, 2.5):
            vals = [amp.smooth(t, t + delta) for t in (0.0, 0.9, 2.0)]
            assert max(abs(v - vals[0]) for v in vals) <= 1e-13

    def test_cross_channel_magnitude(self):
        # coupling terms scale as |b|/(2|D|); isolate the e^{i theta}
        # term by projecting over theta at fixed angular difference
        alpha, k, delta = 0.35, 1.2, 1.7
        amp = amplitude_u(MIXING, alpha, k)
        d = d_of_k(MIXING, alpha, UpperHalfK(k, on_real_axis=True))
        thetas = np.linspace(0, 2 * PI, 64, endpoint=False)
        comp = np.mean([amp.smooth(t, t + delta) * cmath.exp(-1j * t) for t in thetas])
        want = math.sqrt(2 * math.sin(PI * alpha)) * math.sqrt(2 / (PI * k)) \
            * k / (2 * abs(d))
        assert abs(comp) == pytest.approx(want, rel=1e-10)

    def test_matches_extraction(self):
        alpha, k, theta = 0.45, 1.0, 0.4
        chan = PlaneWaveChannel(k, theta)
        amp = amplitude_u(MIXING, alpha, k)
        for dphi in (1.1, 4.4):
            phi = theta + dphi
            got = extract_amplitude(MIXING, alpha, chan, phi, 300.0)
            want = amp.smooth(theta, phi)
            assert abs(got - want) / abs(want) <= 1e-2


class TestCrossSection:
    def test_ab_classical(self):
        for alpha in (0.1, 0.5, 0.9):
            for delta in (0.3, 1.0, 3.0):
                got = cross_section(AB, alpha, 1.0, 0.0, delta)
                assert got == pytest.approx(classical_ab_xsection(alpha, 1.0, delta),
                                            rel=1e-12)

    def test_off_forward_integral_finite(self):
        angles = np.linspace(FORWARD_EPSILON, 2 * PI - FORWARD_EPSILON, 200)
        total = sum(cross_section(MIXING, 0.4, 1.0, 0.0, a) for a in angles)
        assert math.isfinite(total)

    def test_rotation_invariance_iff_channel_preserving(self):
        # invariant under simultaneous rotation exactly when b = 0
        delta, shift = 1.3, 0.7
        for params, invariant in ((ROTINV, True), (MIXING, False), (AB, True)):
            base = cross_section(params, 0.4, 1.0, 0.0, delta)
            moved = cross_section(params, 0.4, 1.0, shift, shift + delta)
            if invariant:
                assert moved == pytest.approx(base, rel=1e-12)
            else:
                assert abs(moved - base) > 1e-3 * base

    def test_forward_rejected(self):
        with pytest.raises(ValueError):
            cross_section(MIXING, 0.4, 1.0, 0.0, FORWARD_EPSILON / 3)
        with pytest.raises(ValueError):
            cross_section(MIXING, 0.4, 1.0, 0.0, np.array([1.0, 2 * PI - FORWARD_EPSILON / 3]))

    def test_angle_array_matches_scalar_calls(self):
        angles = np.linspace(0.05, 2 * PI - 0.05, 50)
        for params in (AB, ROTINV, MIXING):
            got = cross_section(params, 0.4, 1.3, 0.2, angles)
            want = [cross_section(params, 0.4, 1.3, 0.2, float(a)) for a in angles]
            assert type(want[0]) is float
            assert got == pytest.approx(want, rel=1e-12)

    def test_regular_point_at_large_k(self):
        # |D| = 1 there; the near-eigenvalue test must not fire at any k
        for delta in (0.3, 3.0):
            got = cross_section(AB, 0.3, 3e6, 0.0, delta)
            assert got == pytest.approx(classical_ab_xsection(0.3, 3e6, delta), rel=1e-10)


@pytest.mark.parametrize("k", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", [
    lambda k: PlaneWaveChannel(k, 0.0),
    lambda k: amplitude_ab(0.3, k),
    lambda k: amplitude_u(MIXING, 0.3, k),
    lambda k: cross_section(MIXING, 0.3, k, 0.0, 1.0),
    lambda k: channel_mixing(MIXING, 0.3, k),
], ids=["PlaneWaveChannel", "amplitude_ab", "amplitude_u", "cross_section", "channel_mixing"])
def test_momentum_off_the_positive_axis_is_invalid(entry, k):
    # Not a numerical failure (OverflowError), and no amplitude of zeros at k = inf.
    with pytest.raises(ValueError):
        entry(k)


@pytest.mark.parametrize("entry, message", [
    (lambda: PlaneWaveChannel(-1, 0), "momentum k must be finite and positive, got -1.0"),
    (lambda: amplitude_ab(0.3, math.nan), "momentum k must be finite and positive, got nan"),
    (lambda: amplitude_u(MIXING, 0.3, -1.0), "momentum k must be finite and positive, got -1.0"),
    (lambda: cross_section(MIXING, 0.3, -2.0, 0, 1), "momentum k must be finite and positive, got -2.0"),
    (lambda: p_of_k(MIXING, 0.3, -1.0), "real wavenumber must be positive, got (-1+0j)"),
], ids=["PlaneWaveChannel", "amplitude_ab", "amplitude_u", "cross_section", "p_of_k"])
def test_momentum_error_names_what_was_passed(entry, message):
    # No message names on_real_axis, which none of these callers passes.
    with pytest.raises(ValueError) as err:
        entry()
    assert str(err.value) == message


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("entry, named", [
    (lambda: psi_u(MIXING, 0.3, PlaneWaveChannel(1.0, 0.0), 1.0, INF), "angle inf"),
    (lambda: psi_u(MIXING, 0.3, PlaneWaveChannel(1.0, 0.0), [1.0, NAN], 0.5), "radius nan"),
    (lambda: psi_ab(0.3, PlaneWaveChannel(1.0, 0.0), INF, 0.5), "radius inf"),
    (lambda: full_resolvent_kernel(MIXING, 0.3, 1j, (1.0, 0.5), (2.0, INF)), "source angle inf"),
    (lambda: full_resolvent_kernel(MIXING, 0.3, 1j, (1.0, 0.5), (NAN, 0.0)), "source radius nan"),
    (lambda: full_resolvent_kernel(MIXING, 0.3, 1j, (1.0, 0.5), (INF, 0.0)), "source radius inf"),
    (lambda: full_resolvent_kernel(MIXING, 0.3, 1j, (1.0, NAN), (2.0, 0.0)), "angle nan"),
    (lambda: PlaneWaveChannel(1.0, NAN), "theta nan"),
    (lambda: amplitude_u(MIXING, 0.3, 1.0).smooth(INF, 1.0), "theta"),
    (lambda: amplitude_u(MIXING, 0.3, 1.0).smooth(0.3, NAN), "phi"),
    (lambda: amplitude_ab(0.3, 1.0).smooth(0.3, [1.0, -INF]), "phi"),
    (lambda: cross_section(MIXING, 0.3, 1.0, INF, 1.0), "theta"),
    (lambda: cross_section(MIXING, 0.3, 1.0, 0.0, NAN), "phi"),
], ids=["psi_u-phi", "psi_u-r", "psi_ab-r", "kernel-zeta", "kernel-rho-nan", "kernel-rho-inf",
        "kernel-phi", "PlaneWaveChannel-theta", "amplitude_u-theta", "amplitude_u-phi",
        "amplitude_ab-phi", "cross_section-theta", "cross_section-phi"])
def test_non_finite_coordinates_are_invalid(entry, named):
    # Not nan+nanj, an OverflowError or a grid too large at k*r = nan.
    with pytest.raises(ValueError, match=named):
        entry()


class TestChannelMixing:
    def test_zero_iff_channel_preserving(self):
        assert channel_mixing(ROTINV, 0.4, 1.0).prob_0_to_m1 == 0.0
        assert channel_mixing(AB, 0.4, 1.0).prob_m1_to_0 == 0.0
        mix = channel_mixing(MIXING, 0.4, 1.0)
        assert mix.prob_0_to_m1 > 0.0

    def test_probabilities_equal_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            eta, a, b = random_params(rng)
            params = ExtensionParams(eta, a, b)
            mix = channel_mixing(params, float(rng.uniform(0.05, 0.95)),
                                 float(rng.uniform(0.2, 3.0)))
            assert mix.prob_0_to_m1 == pytest.approx(mix.prob_m1_to_0, rel=1e-12)

    def test_pure_mixing_value_and_gamma_independence(self):
        alpha, k = 0.5, 1.0
        vals = []
        for gamma in (0.0, 0.9, 2.2):
            mix = channel_mixing(ExtensionParams.mixing(gamma), alpha, k)
            d = d_of_k(ExtensionParams.mixing(gamma), alpha,
                       UpperHalfK(k, on_real_axis=True))
            assert mix.prob_0_to_m1 == pytest.approx(
                mix.constant / (4.0 * abs(d) ** 2), rel=1e-12)
            vals.append(mix.prob_0_to_m1)
        assert np.ptp(vals) <= 1e-12 * vals[0]


class TestExtraction:
    def test_ab_amplitude_recovered(self):
        alpha, k = 0.5, 1.0
        chan = PlaneWaveChannel(k, 0.0)
        amp = amplitude_ab(alpha, k)
        for delta in (0.8, 2.4):
            got = extract_amplitude(AB, alpha, chan, delta, 1000.0)
            want = amp.smooth(0.0, delta)
            assert abs(got - want) / abs(want) <= 1e-2

    def test_doubling_within_advertised_bound(self):
        alpha, k, delta = 0.4, 1.0, 1.5
        chan = PlaneWaveChannel(k, 0.0)
        f1 = extract_amplitude(MIXING, alpha, chan, delta, 250.0)
        f2 = extract_amplitude(MIXING, alpha, chan, delta, 500.0)
        assert abs(f2 - f1) < extraction_remainder_bound(k, 250.0, delta)

    def test_forward_rejected(self):
        with pytest.raises(ValueError):
            extract_amplitude(MIXING, 0.4, PlaneWaveChannel(1.0, 0.0), 1e-4, 200.0)
