"""Resolvent machinery: kernel limits, analytic basis gates, dual-path
coupling/determinant checks, resolvent identity, adjoint symmetry."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hankel1 as sp_hankel1
from scipy.special import hankel1e as sp_hankel1e
from scipy.special import jv as sp_jv
from scipy.special import jve as sp_jve

from abx import krein
from abx.errors import ConsistencyError, NearEigenvalueError
from abx.extension import ExtensionParams, UpperHalfK, branch_power
from abx.krein import (
    _row,
    ab_resolvent_kernel,
    analytic_basis,
    d_coeffs,
    d_of_k,
    full_resolvent_kernel,
    p_at_i,
    p_of_k,
)
from abx.spectrum import bound_states

from _oracles import (
    K0,
    DeficiencyElement,
    apply_flux_operator,
    channel_system,
    complex_quad,
    deficiency_radial,
    inner_product_2d,
    observed_orders,
    overlap,
    p_by_inversion,
    random_params,
)

PI = math.pi
MIXING = ExtensionParams.mixing(0.7)
ROTINV = ExtensionParams.rotationally_invariant(0.4, 0.9)
AB = ExtensionParams.ab_point()


def _row_element(channel, alpha, k: UpperHalfK):
    """conj(psi_{-conj k}) through the public basis surface (interior k)."""
    elem = analytic_basis(channel, alpha, UpperHalfK(-k.conjugate()))

    def row(r, phi):
        return np.conj(elem(r, phi))

    return row


class TestAbKernel:
    def test_free_green_function_limit(self):
        # alpha -> 0: kernel -> (i/4) H1_0(k |x - y|) by the addition theorem
        k = UpperHalfK(1.0 + 0.5j)
        x, y = (2.0, 0.9), (1.0, 0.9)  # |x - y| = 1, radii separated
        got = ab_resolvent_kernel(1e-6, k, x, y)
        want = 0.25j * complex(sp_hankel1(0, k * 1.0))
        assert abs(got - want) <= 2e-5

    def test_truncation_converged(self, monkeypatch):
        k = UpperHalfK(2.0 + 1.0j)
        x, y = (4.0, 1.2), (9.0, 2.8)  # k r up to ~20, radii ratio < 0.5
        base = ab_resolvent_kernel(0.3, k, x, y)
        cutoff = krein._cutoff
        for extra in (10, 70):  # +10 and a cutoff-doubling pad
            monkeypatch.setattr(krein, "_cutoff",
                                lambda k_abs, r, width, extra=extra: cutoff(k_abs, r, width) + extra)
            again = ab_resolvent_kernel(0.3, k, x, y)
            assert abs(base - again) < 1e-12

    def test_no_overflow_when_exponentials_cancel(self):
        # J(k r_in) ~ e^{750} overflows and H1(k r_out) ~ e^{-1000} underflows
        # while their product does neither: each term against scipy's scaled
        # jve and hankel1e, J H1 = jve hankel1e e^{Im z_in - Im z_out + i Re z_out}
        alpha, k = 0.5, 100.0 + 25.0j
        phi = (np.arange(4) + 0.5) * (PI / 2.0)
        got = ab_resolvent_kernel(alpha, UpperHalfK(k), (30.0, phi), (40.0, 0.0))
        z_in, z_out = 30.0 * k, 40.0 * k
        mmax = krein._cutoff(abs(k), 40.0, phi.size)
        m = np.arange(-mmax - 1, mmax + 1)
        nu = np.abs(m + alpha)
        jve = sp_jve(nu, z_in)
        terms = np.where(jve != 0, jve * sp_hankel1e(nu, z_out), 0.0) * np.exp(
            z_in.imag - z_out.imag + 1j * z_out.real)
        want = 0.25j * np.exp(1j * np.outer(phi, m)) @ terms
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12 * 0.25 * np.sum(np.abs(terms))

    def test_pde_residual_in_x(self):
        # (H - k^2) applied in x, away from the source, vanishes at O(h^2)
        alpha, k = 0.35, UpperHalfK(1.0 + 0.8j)
        y = (3.5, 2.0)

        def u(r, phi):
            return ab_resolvent_kernel(alpha, k, (r, phi), y)

        resid = []
        for h in (0.02, 0.01, 0.005):
            worst = 0.0
            for (r, phi) in ((1.2, 0.5), (1.8, 4.0)):
                val = apply_flux_operator(u, alpha, r, phi, h) - k**2 * u(r, phi)
                worst = max(worst, abs(val))
            resid.append(worst)
        assert min(observed_orders(resid)) >= 1.8, resid

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            ab_resolvent_kernel(0.3, UpperHalfK(1j), (1.0, 0.4), (1.0, 0.4))


class TestAnalyticBasis:
    def test_reduces_to_plus_deficiency_element_at_reference(self):
        # psi_{k0} must equal the unit-norm deficiency element
        # r^{-1/2} xi_+(r) e^{i m phi}; the reference element takes K from
        # mpmath and computes N and M itself, so the basis's constants and
        # prefactors are checked against code they share nothing with
        for alpha in (0.1, 0.5, 0.9):
            for channel in (0, -1):
                elem = analytic_basis(channel, alpha, K0)
                for r in (0.3, 1.0, 4.0):
                    phi = 1.1
                    xi = deficiency_radial(DeficiencyElement(channel, +1), alpha, r)
                    want = xi / math.sqrt(r) * cmath.exp(1j * channel * phi)
                    assert complex(elem(r, phi)) == pytest.approx(want, rel=1e-10)

    def test_reduces_to_minus_element_at_mirrored_reference(self):
        # at k with k^2 = -i the family lands on the minus elements
        k = UpperHalfK(cmath.exp(3j * PI / 4))
        for alpha in (0.3, 0.7):
            for channel in (0, -1):
                elem = analytic_basis(channel, alpha, k)
                xi = deficiency_radial(DeficiencyElement(channel, -1), alpha, 1.3)
                want = xi / math.sqrt(1.3)
                assert complex(elem(1.3, 0.0)) == pytest.approx(want, rel=1e-10)

    def test_singular_coefficient_independent_of_k(self):
        # the r^{-nu} coefficient at the origin fixes the closed form
        alpha = 0.3
        r0 = 1e-6
        vals = []
        for k in (UpperHalfK(K0), UpperHalfK(0.4 + 1.1j), UpperHalfK(2.0 + 0.3j)):
            vals.append(complex(analytic_basis(0, alpha, k)(r0, 0.0)) * r0**alpha)
        assert abs(vals[1] / vals[0] - 1.0) < 1e-3
        assert abs(vals[2] / vals[0] - 1.0) < 1e-3

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(channel=st.sampled_from((0, -1)), alpha=st.floats(1e-3, 1.0 - 1e-3),
           k0=st.floats(0.05, 10.0), k_re_sign=st.sampled_from((1.0, -1.0)),
           k_im=st.floats(1e-3, 10.0), rho=st.floats(0.05, 20.0), zeta=st.floats(-PI, PI))
    def test_row_element_matches_literal_conjugate(self, channel, alpha, k0, k_re_sign, k_im,
                                                   rho, zeta):
        # interior k, Re k of either sign: the package's row element is the
        # literal conj(psi_{-conj k})
        k = UpperHalfK(complex(k_re_sign * k0, k_im))
        got = complex(_row(analytic_basis(channel, alpha, k), rho, zeta))
        want = complex(_row_element(channel, alpha, k)(rho, zeta))
        assert abs(got - want) <= 1e-12 * abs(want)
        # real axis: the boundary value is the limit of the literal form
        boundary = complex(_row(analytic_basis(channel, alpha, UpperHalfK(k0, on_real_axis=True)),
                                rho, zeta))
        near = complex(_row_element(channel, alpha, UpperHalfK(complex(k0, 1e-9 * k0)))(rho, zeta))
        assert abs(near - boundary) <= 1e-6 * abs(boundary)

    def test_inner_product_reproduces_overlap_entry(self):
        # quadrature oracle for one pair; the full gate runs in acceptance
        alpha = 0.5
        k1, k2 = UpperHalfK(0.8 + 0.9j), UpperHalfK(1.2 + 0.6j)
        bra = analytic_basis(0, alpha, UpperHalfK(-k1.conjugate()))
        col = analytic_basis(0, alpha, k2)
        got = inner_product_2d(bra, col)
        want = overlap(alpha, k1, k2)[0, 0]
        assert abs(got - want) <= 1e-6 * (1.0 + abs(want))

    def test_refuses_other_channels(self):
        with pytest.raises(ValueError, match="channel must be 0 or -1, got 1"):
            analytic_basis(1, 0.3, 1.0)

    @pytest.mark.parametrize("r, phi", [(math.nan, 0.0), (1.0, math.inf), (0.0, 0.0), (-1.0, 0.0)])
    def test_element_refuses_bad_coordinates(self, r, phi):
        # the origin and negative radii are off H1's domain; the gate names the bad value
        with pytest.raises(ValueError, match="radius|angle"):
            analytic_basis(0, 0.3, 1.0)(r, phi)
        with pytest.raises(ValueError, match="radius|angle"):
            analytic_basis(-1, 0.3, 1.0)(np.array([[1.0], [r]]), np.array([0.5, phi]))


class TestCouplingMatrix:
    def test_reference_point_ab_is_zero(self):
        assert np.all(np.array(p_at_i(AB)) == 0)

    def test_reference_point_pure_mixing(self):
        gamma = 0.8
        m = p_at_i(ExtensionParams.mixing(gamma))
        want = -0.5j * np.array([[1.0, -cmath.exp(1j * gamma)],
                                 [cmath.exp(-1j * gamma), 1.0]])
        assert np.allclose(m, want, atol=1e-15)

    def test_reference_point_diagonal_for_b_zero(self):
        m = p_at_i(ROTINV)
        assert m[0][1] == 0 and m[1][0] == 0

    def test_reference_point_matches_inverse_overlap_path(self):
        # p(k0) = (i/2) A(k0, mirrored k0)^{-1} (-I - conj(U))
        from abx.extension import build_u_matrix

        rng = np.random.default_rng(11)
        k2 = UpperHalfK(cmath.exp(3j * PI / 4))
        for _ in range(20):
            eta, a, b = random_params(rng)
            params = ExtensionParams(eta, a, b)
            alpha = float(rng.uniform(0.05, 0.95))
            amat = overlap(alpha, K0, k2)
            u = build_u_matrix(params)
            want = 0.5j * np.linalg.solve(amat, -np.eye(2) - np.conj(u))
            assert np.allclose(p_at_i(params), want, atol=1e-13)

    def test_reference_point_exactly(self):
        # at k = k0 the channel system is the identity and p(k) = p(k0)
        rng = np.random.default_rng(15)
        for _ in range(50):
            params = ExtensionParams(*random_params(rng))
            alpha = float(rng.uniform(0.05, 0.95))
            p, want = np.array(p_of_k(params, alpha, UpperHalfK(K0))), np.array(p_at_i(params))
            assert np.abs(p - want).max() <= 1e-14 * np.abs(want).max()

    def test_channel_system_is_krein_system_of_the_overlaps(self):
        # the program's S = 1 - p(k0) diag(((-k^2)^nu - (-i)^nu) / w) against
        # 1 + (k^2 - i) p(k0) A(k, k0) with the quadrature-gated overlaps, at
        # interior, real, imaginary, tiny, huge and near-k0 momenta
        rng = np.random.default_rng(16)
        for i in range(300):
            params = ExtensionParams(*random_params(rng))
            alpha = float(rng.uniform(0.02, 0.98))
            mag = 10.0 ** rng.uniform(-6.0, 6.0)
            k = [UpperHalfK(mag * cmath.exp(1j * rng.uniform(0.0, PI))),
                 UpperHalfK(mag, on_real_axis=True), UpperHalfK(1j * mag),
                 UpperHalfK(K0 * (1.0 + 10.0 ** rng.uniform(-12.0, -2.0)
                                  * cmath.exp(1j * rng.uniform(-PI, PI))))][i % 4]
            try:
                system = krein._channel_system(params, alpha, k)[4]
            except ConsistencyError:  # near a root, det S cancels beyond D's terms
                continue
            want = channel_system(p_at_i(params), alpha, k)
            assert np.abs(system - want).max() <= 1e-13 * (1.0 + np.abs(want - np.eye(2)).max())

    def test_ab_coupling_vanishes_for_all_k(self):
        for k in (UpperHalfK(1j), UpperHalfK(2.0 + 0.1j),
                  UpperHalfK(1.0, on_real_axis=True)):
            assert np.all(np.array(p_of_k(AB, 0.4, k)) == 0)

    def test_cross_moduli_equal(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            eta, a, b = random_params(rng)
            params = ExtensionParams(eta, a, b)
            alpha = float(rng.uniform(0.05, 0.95))
            k = UpperHalfK(complex(rng.uniform(-5, 5), rng.uniform(0.1, 5)))
            m = p_of_k(params, alpha, k)
            assert abs(abs(m[0][1]) - abs(m[1][0])) <= 1e-12 * max(abs(m[0][1]), 1e-30)

    def test_diagonal_for_b_zero(self):
        m = p_of_k(ROTINV, 0.6, UpperHalfK(0.7 + 0.9j))
        assert abs(m[0][1]) <= 1e-14 and abs(m[1][0]) <= 1e-14

    def test_pure_mixing_at_unit_imaginary(self):
        # (0, 0, 1), alpha = 1/2, k = i: D = sqrt(2) - 1 and the
        # off-diagonal entries are +-i/(2D); the closed form is verified
        # against the inversion path inside p_of_k on every call
        params = ExtensionParams(0.0, 0.0, 1.0)
        dval = d_of_k(params, 0.5, UpperHalfK(1j))
        assert dval == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
        m = p_of_k(params, 0.5, UpperHalfK(1j))
        assert m[0][1] == pytest.approx(0.5j / (math.sqrt(2.0) - 1.0), rel=1e-13)
        assert m[1][0] == pytest.approx(-0.5j / (math.sqrt(2.0) - 1.0), rel=1e-13)

    def test_near_eigenvalue_rejected(self):
        with pytest.raises(NearEigenvalueError):
            p_of_k(ExtensionParams.mixing(0.0), 0.5, UpperHalfK(1j * math.sqrt(2.0)))

    def test_huge_coupling_near_zero_energy_resonance_rejected(self):
        # |p| ~ 1e200 next to the coupled point's zero-energy resonance: the
        # ill-conditioned solve is refused, and the dual-path difference is
        # measured without an overflow warning
        with pytest.raises(NearEigenvalueError, match="condition number"):
            p_of_k(ExtensionParams.mixing(0.0), 0.5, UpperHalfK(1e-200, on_real_axis=True))

    def test_entries_analytic_in_k(self):
        # Cauchy-Riemann residual of a 4-point stencil decays at O(h^2)
        params, alpha = MIXING, 0.45
        k0 = 1.2 + 1.5j

        def f(k):
            return p_of_k(params, alpha, UpperHalfK(k))[0][0]

        def g(k):
            return d_of_k(params, alpha, UpperHalfK(k))

        for fn in (f, g):
            resid = []
            for h in (2e-2, 1e-2, 5e-3):
                dx = (fn(k0 + h) - fn(k0 - h)) / (2 * h)
                dy = (fn(k0 + 1j * h) - fn(k0 - 1j * h)) / (2 * h)
                resid.append(abs(dx + 1j * dy))
            assert min(observed_orders(resid)) >= 1.8, resid


# (alpha, eta, a, b, kappa) with k = i kappa next to a bound state, where the
# dual-path checks once took the solve's own rounding for an inconsistency:
# two deep states (the determinant check) and two ill-conditioned p(k)
# inversions with cond(S) eps just below 1e-10 (the coupling-matrix check).
# Whether such a point answers or refuses turns on rounding; the third
# answers since S is formed without the factor k^2 - i.
NEAR_STATE_POINTS = [
    (0.7626200716810304, -2.290089074072119, 0.6590495893007804 - 0.06959740740343406j,
     -0.4268941835854936 - 0.6152813955793462j, 3416036.0032670563),
    (0.8895298196813043, -2.097745317702741, 0.508810271837091 - 0.33259353651419965j,
     -0.7326708508054283 - 0.3060834381702043j, 325297.7194417381),
    (0.30573854133862644, 1.594292780994933, -0.1706892052874662 - 0.49229169198055983j,
     -0.6402226042838172 + 0.5644724104589146j, 0.8130762541081215),
    (0.14696448252419742, 1.8211286492046739, 0.2563086312950688 - 0.7126982741571113j,
     0.5994476423731662 - 0.25890071376953777j, 0.6842365888163722),
]


class TestRefusals:
    """Next to a bound state p(k) either returns or refuses as near an
    eigenvalue; a ConsistencyError there would be a false internal fault."""

    @pytest.mark.parametrize("alpha, eta, a, b, kappa", NEAR_STATE_POINTS[:2] + NEAR_STATE_POINTS[3:])
    def test_pinned_point_refused_as_near_eigenvalue(self, alpha, eta, a, b, kappa):
        with pytest.raises(NearEigenvalueError, match="condition number"):
            p_of_k(ExtensionParams(eta, a, b), alpha, UpperHalfK(1j * kappa))

    def test_pinned_point_at_the_edge_answers_accurately(self):
        # the third point's paths agree to 1e-10 of p's terms, so it answers;
        # the answer holds against a 40-digit inversion of the channel system
        alpha, eta, a, b, kappa = NEAR_STATE_POINTS[2]
        params = ExtensionParams(eta, a, b)
        p = p_of_k(params, alpha, UpperHalfK(1j * kappa))
        want = p_by_inversion(params, alpha, 1j * kappa)
        assert np.abs(p - want).max() <= 1e-9 * np.abs(want).max()

    def test_sweep_next_to_bound_states(self):
        # k = i sqrt(|E|) (1 + delta), delta = +-10^u with u uniform in [-8, -1].
        # Every answer holds against a 40-digit inversion to 1e-8 of max|p|.
        # Next to its pole p(k) moves by about eps / |delta| of itself under a
        # rounding of its inputs, which both routes share: over 12 000 draws
        # (seeds 1-4) the worst answer is 8.0e-9 off, and 2.3e-9 in these 300
        rng = np.random.default_rng(1)
        calls = refused = 0
        worst = 0.0
        for _ in range(300):
            eta, a, b = random_params(rng)
            params = ExtensionParams(eta, a, b)
            alpha = float(rng.uniform(0.05, 0.95))
            for state in bound_states(params, alpha).bound_states:
                delta = float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-8.0, -1.0)
                k = UpperHalfK(1j * math.sqrt(-state.energy) * (1.0 + delta))
                calls += 1
                try:
                    p = np.array(p_of_k(params, alpha, k))
                except NearEigenvalueError:
                    refused += 1
                    continue
                want = p_by_inversion(params, alpha, k)
                worst = max(worst, np.abs(p - want).max() / np.abs(want).max())
        assert calls >= 300 and 0 < refused < calls
        assert worst <= 1e-8

    def test_corrupted_route_at_well_conditioned_point(self, monkeypatch):
        # a 1e-8 error in either route of a well-conditioned solve is still
        # an internal fault, not a refusal
        k = UpperHalfK(1.2 + 1.5j)
        system = krein._channel_system(MIXING, 0.45, k)[4]
        assert np.linalg.cond(system) < 1e3
        solve = krein._solve
        monkeypatch.setattr(krein, "_solve",
                            lambda m, v: [[x * (1.0 + 1e-8) for x in row] for row in solve(m, v)])
        with pytest.raises(ConsistencyError, match="coupling-matrix paths disagree"):
            p_of_k(MIXING, 0.45, k)
        monkeypatch.undo()

        def shifted(params, alpha):
            cf = d_coeffs(params, alpha)
            return cf._replace(c0=cf.c0 + 1e-8)

        monkeypatch.setattr(krein, "d_coeffs", shifted)
        with pytest.raises(ConsistencyError, match="determinant paths disagree"):
            p_of_k(MIXING, 0.45, k)


@pytest.mark.parametrize("make, field", [
    (lambda: analytic_basis(-1, 0.3, UpperHalfK(1.5, on_real_axis=True)), "prefactor"),
    (lambda: d_coeffs(MIXING, 0.45), "c0"),
], ids=["AnalyticBasisElement", "CCoeffs"])
def test_immutable_values(make, field):
    one, other = make(), make()
    assert one == other and hash(one) == hash(other) and one is not other
    with pytest.raises(AttributeError):
        setattr(one, field, getattr(one, field))
    with pytest.raises(AttributeError):
        one.extra = 0


def _outcome(f):
    """f's value, or the message of the NearEigenvalueError it raised."""
    try:
        return f()
    except NearEigenvalueError as err:
        return str(err)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.one_of(st.floats(1e-2, 20.0),
                 st.builds(complex, st.floats(-20.0, 20.0), st.floats(1e-3, 20.0))))
def test_wavenumber_forms_are_interchangeable(k):
    # A float or complex k and UpperHalfK(k) give equal results everywhere k is taken.
    kk = UpperHalfK(k)
    assert kk == k and UpperHalfK(kk) is kk
    x, y = (1.0, 0.3), (2.0, 1.1)
    for entry in (lambda k: p_of_k(MIXING, 0.45, k), lambda k: d_of_k(MIXING, 0.45, k),
                  lambda k: branch_power(k, 0.45), lambda k: analytic_basis(-1, 0.45, k),
                  lambda k: ab_resolvent_kernel(0.45, k, x, y),
                  lambda k: full_resolvent_kernel(MIXING, 0.45, k, x, y)):
        assert _outcome(lambda: entry(k)) == _outcome(lambda: entry(kk))


class TestDeterminant:
    def test_ab_brackets(self):
        for alpha in (0.25, 0.5, 0.8):
            cf = d_coeffs(AB, alpha)
            assert (cf.c1, cf.c_alpha, cf.c_1malpha) == (0.0, 0.0, 0.0)
            assert cf.c0 == pytest.approx(math.sin(PI * alpha), rel=1e-15)
            assert cf.common_factor == pytest.approx(1.0 / math.sin(PI * alpha), rel=1e-15)
        cf = d_coeffs(AB, 0.5)
        assert (cf.c1, cf.c_alpha, cf.c_1malpha, cf.c0) == (0.0, 0.0, 0.0, 1.0)

    def test_pure_mixing_brackets(self):
        for alpha in (0.3, 0.5):
            for gamma in (0.0, 1.2):
                cf = d_coeffs(ExtensionParams.mixing(gamma), alpha)
                assert cf.c1 == pytest.approx(-1.0, rel=1e-15)
                assert cf.c_alpha == pytest.approx(math.sin(PI * alpha / 2), rel=1e-14)
                assert cf.c_1malpha == pytest.approx(math.cos(PI * alpha / 2), rel=1e-14)
                assert cf.c0 == pytest.approx(0.0, abs=1e-16)

    def test_brackets_real_via_determinant_extraction(self):
        # solve for the coefficients from determinant values on the
        # bound-state ray; imaginary residues must vanish
        rng = np.random.default_rng(13)
        for _ in range(10):
            eta, a, b = random_params(rng)
            params = ExtensionParams(eta, a, b)
            alpha = float(rng.uniform(0.15, 0.85))
            cf = d_coeffs(params, alpha)
            es = np.array([0.5, 1.0, 2.0, 4.0])
            rows = np.column_stack([es, es**alpha, es ** (1 - alpha), np.ones(4)])
            dvals = np.array([
                d_of_k(params, alpha, UpperHalfK(1j * math.sqrt(e))) / cf.common_factor
                for e in es
            ])
            sol = np.linalg.solve(rows.astype(complex), dvals)
            scale = max(1.0, np.max(np.abs(sol)))
            assert np.max(np.abs(sol.imag)) <= 1e-9 * scale
            want = np.array([cf.c1, cf.c_alpha, cf.c_1malpha, cf.c0])
            assert np.allclose(sol.real, want, atol=1e-9 * scale)

    def test_mixing_root_value(self):
        # alpha = 1/2, b-only coupling: -E + sqrt(2) sqrt(E) vanishes at E = 2
        val = d_of_k(ExtensionParams.mixing(1.0), 0.5, UpperHalfK(1j * math.sqrt(2.0)))
        assert abs(val) <= 1e-10

    def test_ab_determinant_is_one_everywhere(self):
        for k in (UpperHalfK(1j), UpperHalfK(3.0 + 0.2j),
                  UpperHalfK(0.5, on_real_axis=True)):
            assert d_of_k(AB, 0.3, k) == pytest.approx(1.0, rel=1e-14)

    def test_dual_paths_agree_random(self):
        # d_of_k raises internally on disagreement; drive it over a sweep
        # and compare against a fresh determinant evaluation here as well
        rng = np.random.default_rng(14)
        for _ in range(100):
            eta, a, b = random_params(rng)
            params = ExtensionParams(eta, a, b)
            alpha = float(rng.uniform(0.05, 0.95))
            k = UpperHalfK(complex(rng.uniform(-10, 10), rng.uniform(0.1, 10)))
            val = d_of_k(params, alpha, k)
            m = channel_system(p_at_i(params), alpha, k)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert abs(val - det) <= 1e-10 * max(abs(val), 1.0)


class TestFullKernel:
    def test_ab_reduces_to_reference_kernel_exactly(self):
        k = UpperHalfK(1.1 + 0.7j)
        for (x, y) in [((1.4, 0.9), (2.6, 4.0)), ((0.5, 0.0), (3.0, 1.0))]:
            assert full_resolvent_kernel(AB, 0.35, k, x, y) == \
                ab_resolvent_kernel(0.35, k, x, y)

    @pytest.mark.parametrize("k", [UpperHalfK(1.1 + 0.7j), UpperHalfK(1.9, on_real_axis=True)],
                             ids=["k0", "k1"])
    def test_grid_matches_pointwise(self, k):
        # radii on both sides of the source and on its ring
        y = (1.3, 0.6)
        radii, angles = np.array([0.4, 1.3, 5.0]), np.linspace(0.1, 6.2, 7)
        grid = full_resolvent_kernel(MIXING, 0.35, k, (radii, angles), y)
        assert grid.shape == (3, 7)
        want = np.array([[full_resolvent_kernel(MIXING, 0.35, k, (r, phi), y) for phi in angles]
                         for r in radii])
        assert np.max(np.abs(grid - want) / np.abs(want)) <= 1e-12

    def test_grid_through_the_source_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            ab_resolvent_kernel(0.3, UpperHalfK(1j), (np.array([0.5, 1.0]), np.array([0.1, 0.4])),
                                (1.0, 0.4))

    def test_resolvent_identity_single_mode(self):
        # (H - k^2) applied to the kernel-integral of a bump returns the
        # bump at O(h^2) + quadrature error
        alpha = 0.35
        k = UpperHalfK(1.1 + 0.7j)
        params = MIXING
        c_sup, w_sup = 2.0, 0.8

        def bump(rho):
            t = (rho - c_sup) / w_sup
            return math.exp(-1.0 / (1.0 - t * t)) if abs(t) < 1.0 else 0.0

        nu = alpha  # test function lives in the m = 0 mode
        lo_edge, hi_edge = c_sup - w_sup, c_sup + w_sup

        def g_reference(r):
            inner = 0j
            if r > lo_edge:
                inner = complex_quad(
                    lambda rho: sp_jv(nu, k * rho) * bump(rho) * rho,
                    lo_edge, min(r, hi_edge), limit=200)
            outer = 0j
            if r < hi_edge:
                outer = complex_quad(
                    lambda rho: sp_hankel1(nu, k * rho) * bump(rho) * rho,
                    max(r, lo_edge), hi_edge, limit=200)
            return 2.0 * PI * 0.25j * (
                complex(sp_hankel1(nu, k * r)) * inner
                + complex(sp_jv(nu, k * r)) * outer)

        pk = p_of_k(params, alpha, k)
        row = _row_element(0, alpha, k)
        overlap = 2.0 * PI * complex_quad(
            lambda rho: row(rho, 0.0) * bump(rho) * rho, lo_edge, hi_edge, limit=200)
        col0 = analytic_basis(0, alpha, k)
        col1 = analytic_basis(-1, alpha, k)

        def g(r, phi):
            return (g_reference(r)
                    + pk[0][0] * overlap * complex(col0(r, phi))
                    + pk[0][1] * overlap * complex(col1(r, phi)))

        for (r, phi) in ((2.0, 0.7), (0.9, 0.3), (3.6, 2.0)):
            resid = []
            for h in (0.02, 0.01):
                val = apply_flux_operator(g, alpha, r, phi, h) - k**2 * g(r, phi)
                resid.append(abs(val - bump(r)))
            assert resid[1] < 3e-5
            if resid[0] > 1e-9:  # above the quadrature noise floor
                assert resid[0] / resid[1] > 3.0, resid

    def test_adjoint_symmetry(self):
        # R(k; x, y) = conj(R(-conj k; y, x)) on samples
        x, y = (1.4, 0.9), (2.6, 4.0)
        for params in (MIXING, ROTINV):
            for kk in (1.1 + 0.7j, 0.4 + 1.5j, -0.8 + 0.9j):
                lhs = full_resolvent_kernel(params, 0.35, UpperHalfK(kk), x, y)
                rhs = full_resolvent_kernel(
                    params, 0.35, UpperHalfK(-kk.conjugate()), y, x)
                assert lhs == pytest.approx(rhs.conjugate(), rel=1e-12)

    def test_full_kernel_pde_residual(self):
        alpha, k = 0.45, UpperHalfK(1.0 + 0.8j)
        y = (3.5, 2.0)

        def u(r, phi):
            return full_resolvent_kernel(MIXING, alpha, k, (r, phi), y)

        resid = []
        for h in (0.02, 0.01, 0.005):
            val = apply_flux_operator(u, alpha, 1.5, 0.8, h) - k**2 * u(1.5, 0.8)
            resid.append(abs(val))
        assert min(observed_orders(resid)) >= 1.8, resid
