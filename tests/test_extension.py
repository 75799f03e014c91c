"""Extension family: unitary map round trips, classification, and the
reference deficiency elements with their closed-form norms."""

import cmath
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from abx.cli import parse_config
from abx.extension import (
    ExtensionKind,
    ExtensionParams,
    UpperHalfK,
    as_alpha,
    build_u_matrix,
    classify,
)
from abx.krein import analytic_basis, d_coeffs
from abx.scattering import PlaneWaveChannel
from abx.spectrum import bound_states

from _oracles import (
    DeficiencyElement,
    canonical_params,
    deficiency_radial,
    l2_norm_deficiency,
    mp_complex,
    observed_orders,
    random_params,
    series_besselk,
    u_matrix_params,
)

PI = math.pi


class TestParams:
    def test_alpha_bounds(self):
        assert as_alpha(1e-6) == 1e-6
        assert as_alpha(1.0 - 1e-6) == 1.0 - 1e-6
        with pytest.raises(ValueError):
            as_alpha(0.0)
        with pytest.raises(ValueError):
            as_alpha(1.0)
        with pytest.raises(ValueError):
            as_alpha(-0.3)

    def test_norm_constraint(self):
        with pytest.raises(ValueError, match=r"\|a\|\^2 \+ \|b\|\^2"):
            ExtensionParams(0.0, 0.9, 0.1)

    def test_eta_normalized(self):
        p = ExtensionParams(3.0 * PI, -1.0, 0.0)
        assert -PI < p.eta <= PI
        assert p.eta == pytest.approx(PI)

    @given(st.floats(-PI, PI, exclude_min=True))
    @example(-0.1)
    @example(-0.0)
    @example(PI)
    def test_eta_in_range_kept_exactly(self, eta):
        # the wrap is an exact remainder: an eta of (-pi, pi], -0.0 too, is kept
        assert repr(ExtensionParams(eta, -1.0, 0.0).eta) == repr(eta)

    @pytest.mark.parametrize("make, field", [
        (lambda: ExtensionParams.mixing(0.7), "eta"),
        (lambda: UpperHalfK(1.5, on_real_axis=True), "real"),
        (lambda: UpperHalfK(0.3 + 2.0j), "imag"),
    ], ids=["ExtensionParams", "UpperHalfK-real", "UpperHalfK-interior"])
    def test_immutable_values(self, make, field):
        one, other = make(), make()
        assert one == other and hash(one) == hash(other) and one is not other
        with pytest.raises(AttributeError):
            setattr(one, field, getattr(one, field))
        with pytest.raises(AttributeError):
            one.extra = 0

    @pytest.mark.parametrize("make", [
        lambda: ExtensionParams.mixing(0.7),
        lambda: UpperHalfK(1.3 + 0.4j),
        lambda: UpperHalfK(2.0),
        lambda: PlaneWaveChannel(1.5, 0.4),
        lambda: d_coeffs(ExtensionParams.mixing(0.7), 0.45),
        lambda: analytic_basis(-1, 0.3, 1.3 + 0.4j),
        lambda: bound_states(ExtensionParams.rotationally_invariant(-2.0, 0.5), 0.3),
        lambda: parse_config(["--k", "1.5,2", "xsection"]),
    ], ids=["ExtensionParams", "UpperHalfK-interior", "UpperHalfK-real", "PlaneWaveChannel",
            "CCoeffs", "AnalyticBasisElement", "SpectralSummary", "RunConfig"])
    @pytest.mark.parametrize("rebuild", [copy.copy, copy.deepcopy,
                                         lambda value: pickle.loads(pickle.dumps(value))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_values_survive_copy_and_pickle(self, make, rebuild):
        # A complex subclass rebuilt from complex's (real, imag) would lose Im k silently.
        value = make()
        again = rebuild(value)
        assert again == value and type(again) is type(value)
        if isinstance(value, tuple):
            assert list(map(type, again)) == list(map(type, value))

    def test_constructors_normalize_and_validate(self):
        p = ExtensionParams.mixing(0.7)
        assert (p.eta, p.a, p.b) == (0.0, 0j, cmath.exp(0.7j)) and type(p.a) is complex
        assert p != ExtensionParams.mixing(0.7, eta=1e-9)
        assert repr(ExtensionParams(0, -1, 0)) == "ExtensionParams(eta=0.0, a=(-1+0j), b=0j)"
        k = UpperHalfK(2, on_real_axis=True)
        assert k == 2 + 0j and isinstance(k, complex) and UpperHalfK(2) == k
        assert UpperHalfK(1j) == UpperHalfK(1j, on_real_axis=False) == 1j
        assert repr(k) == "(2+0j)" and f"{k}" == "(2+0j)"
        assert p._replace(eta=-0.1) == ExtensionParams(-0.1, p.a, p.b)
        for make, message in [
            (lambda: ExtensionParams(math.nan, -1.0, 0.0), "eta must be finite, got nan"),
            (lambda: ExtensionParams(0.0, 1.0, 1.0), r"\|a\|\^2 \+ \|b\|\^2 must equal 1 within 1e-12, got 2"),
            (lambda: UpperHalfK(0.0), r"wavenumber must be finite and nonzero, got 0j"),
            (lambda: UpperHalfK(complex(1.0, math.inf)), "wavenumber must be finite and nonzero"),
            (lambda: UpperHalfK(-2.0, on_real_axis=True), r"on_real_axis requires real k > 0, got \(-2\+0j\)"),
            (lambda: UpperHalfK(1.0 + 1e-9j, on_real_axis=True), "on_real_axis requires real k > 0"),
            (lambda: UpperHalfK(-2.0), r"real wavenumber must be positive, got \(-2\+0j\)"),
            (lambda: UpperHalfK(1.0, on_real_axis=False), r"interior wavenumber needs Im k > 0, got \(1\+0j\)"),
            (lambda: UpperHalfK(1.0 - 1e-9j), "interior wavenumber needs Im k > 0"),
            (lambda: p._replace(a=1.0), "must equal 1 within 1e-12, got 2"),
        ]:
            with pytest.raises(ValueError, match=message):
                make()


class TestUMatrix:
    def test_ab_point_is_minus_identity(self):
        u = build_u_matrix(ExtensionParams.ab_point())
        assert np.allclose(u, -np.eye(2), atol=0)

    def test_pure_coupling_point(self):
        u = build_u_matrix(ExtensionParams(0.0, 0.0, 1.0))
        assert np.allclose(u, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=0)

    def test_unitarity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            eta, a, b = random_params(rng)
            u = np.array(build_u_matrix(ExtensionParams(eta, a, b)))
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12

    def test_round_trip_bijection(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            eta, a, b = random_params(rng)
            p = canonical_params(ExtensionParams(eta, a, b))
            q = u_matrix_params(build_u_matrix(p))
            assert q.eta == pytest.approx(p.eta, abs=1e-12)
            assert q.a == pytest.approx(p.a, abs=1e-12)
            assert q.b == pytest.approx(p.b, abs=1e-12)

    def test_params_from_array_like(self):
        p = canonical_params(ExtensionParams.mixing(0.4, eta=0.2))
        q = u_matrix_params([list(row) for row in build_u_matrix(p)])
        assert (q.eta, q.a, q.b) == pytest.approx((p.eta, p.a, p.b), abs=1e-12)
        with pytest.raises(ValueError, match="2x2"):
            u_matrix_params(np.eye(3))

    def test_redundant_representation_same_matrix(self):
        p = ExtensionParams(0.3, 0.6 + 0.2j, math.sqrt(1 - abs(0.6 + 0.2j) ** 2))
        q = ExtensionParams(p.eta + PI, -p.a, -p.b)
        assert np.allclose(build_u_matrix(p), build_u_matrix(q), atol=1e-15)


class TestClassify:
    def test_ab(self):
        assert classify(ExtensionParams(0.0, -1.0, 0.0)) is ExtensionKind.AB
        # the redundant representation of the same matrix
        assert classify(ExtensionParams(PI, 1.0, 0.0)) is ExtensionKind.AB

    def test_rotationally_invariant(self):
        kind = classify(ExtensionParams(0.4, cmath.exp(0.9j), 0.0))
        assert kind is ExtensionKind.ROTATIONALLY_INVARIANT

    def test_mixing(self):
        assert classify(ExtensionParams(0.0, 0.0, cmath.exp(0.5j))) is ExtensionKind.MIXING

    def test_partition_of_random_parameter_space(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            eta, a, b = random_params(rng)
            kind = classify(ExtensionParams(eta, a, b))
            assert kind in (ExtensionKind.AB, ExtensionKind.ROTATIONALLY_INVARIANT,
                            ExtensionKind.MIXING)
            if abs(b) > 1e-10:
                assert kind is ExtensionKind.MIXING


class TestDeficiencyElements:
    # the reference elements that test_krein holds the analytic basis to:
    # mpmath's K against the hand-rolled K series and the defect equation
    def test_frozen_value_s_channel(self):
        # alpha = 1/2, r = 1; extended-precision oracle value
        got = deficiency_radial(DeficiencyElement(0, +1), 0.5, 1.0)
        assert got == pytest.approx(0.10614754112015806212 + 0.20845428803369253944j,
                                    rel=1e-11)

    def test_matches_oracle_both_channels(self):
        # xi_+ = norm r^{1/2} K_nu(e^{-i pi/4} r), xi_- = norm e^{i pi nu/2} r^{1/2}
        # K_nu(e^{i pi/4} r), against the extended-precision K series
        for alpha in (0.2, 0.55):
            for channel in (0, -1):
                nu = alpha if channel == 0 else 1.0 - alpha
                trig = math.cos if channel == 0 else math.sin
                norm = math.sqrt(2.0 * trig(PI * alpha / 2)) / PI
                for sign in (+1, -1):
                    e = DeficiencyElement(channel, sign)
                    phase = 1.0 if sign > 0 else cmath.exp(1j * PI * nu / 2)
                    for r in (0.3, 3.0, 20.0):
                        want = norm * phase * math.sqrt(r) * mp_complex(
                            series_besselk(nu, cmath.exp(-sign * 1j * PI / 4) * r))
                        assert deficiency_radial(e, alpha, r) == pytest.approx(want, rel=1e-10)

    def test_minus_to_plus_conjugate_ratio(self):
        # xi_-(r) / conj(xi_+(r)) = e^{i pi nu / 2} for every r
        for alpha, channel in ((0.3, 0), (0.3, -1), (0.8, 0)):
            nu = alpha if channel == 0 else 1.0 - alpha
            want = cmath.exp(1j * PI * nu / 2)
            for r in (0.2, 1.0, 5.0):
                plus = deficiency_radial(DeficiencyElement(channel, +1), alpha, r)
                minus = deficiency_radial(DeficiencyElement(channel, -1), alpha, r)
                assert minus / plus.conjugate() == pytest.approx(want, rel=1e-12)

    def test_small_r_power_law(self):
        # xi ~ r^{1/2 - nu} near the origin
        for alpha, channel in ((0.3, 0), (0.7, -1)):
            nu = alpha if channel == 0 else 1.0 - alpha
            e = DeficiencyElement(channel, +1)
            # subleading K term enters at relative O(r^{2 nu})
            r1, r2 = 1e-6, 2e-6
            ratio = abs(deficiency_radial(e, alpha, r2) / deficiency_radial(e, alpha, r1))
            assert ratio == pytest.approx(2.0 ** (0.5 - nu), rel=1e-3)

    def test_defect_ode_residual_second_order(self):
        # (-d^2/dr^2 + (nu^2 - 1/4)/r^2) xi = (sign) i xi, residual O(h^2)
        for alpha in (0.1, 0.5, 0.9):
            for channel in (0, -1):
                nu = alpha if channel == 0 else 1.0 - alpha
                for sign in (+1, -1):
                    e = DeficiencyElement(channel, sign)

                    def xi(r):
                        return deficiency_radial(e, alpha, r)

                    resid = []
                    for h in (0.02, 0.01, 0.005):
                        worst = 0.0
                        for r in (0.7, 1.6, 3.1):
                            d2 = (xi(r + h) - 2.0 * xi(r) + xi(r - h)) / h**2
                            lhs = -d2 + (nu * nu - 0.25) / r**2 * xi(r)
                            worst = max(worst, abs(lhs - sign * 1j * xi(r)))
                        resid.append(worst)
                    orders = observed_orders(resid)
                    assert min(orders) >= 1.8, (alpha, channel, sign, resid)


def _closed_form_norm(channel, alpha):
    """N or M times sqrt(pi / (4 cos(pi nu/2))), the closed-form radial
    norm (Gradshteyn-Ryzhik 6.521.3); 1/sqrt(2 pi) for every alpha."""
    nu = alpha if channel == 0 else 1.0 - alpha
    trig = math.cos if channel == 0 else math.sin
    norm = math.sqrt(2.0 * trig(PI * alpha / 2)) / PI
    return norm * math.sqrt(PI / (4.0 * math.cos(PI * nu / 2)))


class TestDeficiencyNorms:
    # the norm oracle integrates the reference elements by quadrature
    def test_norms_equal_across_channels(self):
        for alpha in (0.1, 0.37):
            n0 = l2_norm_deficiency(DeficiencyElement(0, +1), alpha)
            n1 = l2_norm_deficiency(DeficiencyElement(-1, +1), alpha)
            assert n0 == pytest.approx(_closed_form_norm(0, alpha), rel=1e-12)
            assert n1 == pytest.approx(_closed_form_norm(-1, alpha), rel=1e-12)
            assert abs(n0 - n1) <= 1e-12

    def test_radial_norm_value(self):
        # common value 1/sqrt(2 pi); the corresponding two-dimensional
        # elements r^{-1/2} xi e^{i m phi} have unit norm
        want = 1.0 / math.sqrt(2.0 * PI)
        got = l2_norm_deficiency(DeficiencyElement(0, +1), 0.5)
        assert _closed_form_norm(0, 0.5) == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(want, rel=1e-12)
        assert 2.0 * PI * got**2 == pytest.approx(1.0, rel=1e-12)

    def test_norm_independent_of_sign(self):
        # the minus element, evaluated on its own ray, has the plus norm
        for channel in (0, -1):
            got = l2_norm_deficiency(DeficiencyElement(channel, -1), 0.75)
            assert got == pytest.approx(_closed_form_norm(channel, 0.75), rel=1e-12)
