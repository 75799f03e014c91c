"""Bound states, resonances, and the s/p-wave factorization."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abx.errors import ConsistencyError
from abx.extension import ExtensionParams
from abx.cli import main
from abx.krein import d_coeffs
from abx.spectrum import _LOG_E_RANGE, bound_states

from _oracles import random_params, rot_invariant_equations

PI = math.pi


def _rot_params(eta: float, tau: float) -> ExtensionParams:
    return ExtensionParams.rotationally_invariant(eta, tau)


class TestBoundStates:
    def test_pure_mixing_half_flux(self):
        # -E + sqrt(2) sqrt(E) = 0: single bound state at E = -2 plus a
        # zero-energy resonance, independent of the coupling phase
        for gamma in (0.0, 0.7, 2.5):
            s = bound_states(ExtensionParams.mixing(gamma), 0.5)
            assert len(s.bound_states) == 1
            assert s.bound_states[0].energy == pytest.approx(-2.0, abs=1e-10)
            assert s.zero_resonance

    def test_ab_has_empty_point_spectrum(self):
        s = bound_states(ExtensionParams.ab_point(), 0.3)
        assert s.bound_states == ()
        assert not s.zero_resonance

    def test_s_wave_only_example(self):
        # beta = -pi/8 at alpha = 1/2 gives the s-wave root
        # [cos(beta + pi/4)/cos(beta)]^2 with omega chosen to kill the
        # p-wave root
        alpha, beta, omega = 0.5, -PI / 8, PI / 3
        eta, tau = beta + omega, beta - omega
        s = bound_states(_rot_params(eta, tau), alpha)
        want = -((math.cos(beta + PI * alpha / 2) / math.cos(beta)) ** (1 / alpha))
        assert len(s.bound_states) == 1
        assert s.bound_states[0].energy == pytest.approx(want, rel=1e-12)

    def test_boundary_root_reported_as_resonance_not_state(self):
        # omega = pi alpha/2 puts the p-wave root exactly at E = 0: a
        # resonance, not a bound state at a tiny energy
        for alpha, beta in ((0.4, 0.9), (0.2, 0.9), (0.4, 2.0), (0.77, 0.3), (0.77, -0.5)):
            params = _rot_params(beta + PI * alpha / 2, beta - PI * alpha / 2)
            s = bound_states(params, alpha)
            assert s.zero_resonance
            roots = rot_invariant_equations(params, alpha)
            closed = sorted(r for r in (roots.s_wave_root, roots.p_wave_root) if r is not None)
            got = sorted(-st.energy for st in s.bound_states)
            assert got == pytest.approx(closed, rel=1e-10), (alpha, beta)

    def test_residuals_within_tolerance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            eta, a, b = random_params(rng)
            params = ExtensionParams(eta, a, b)
            alpha = float(rng.uniform(0.05, 0.95))
            s = bound_states(params, alpha)
            for st in s.bound_states:
                assert st.residual <= 1e-10 * (1.0 + abs(st.energy))

    def test_continuity_under_small_perturbation(self):
        # the E = -2 state barely moves; eta = -1e-6 lifts the zero-energy
        # resonance into a shallow state at E = -(c0 / (c_alpha + c_{1-alpha}))^2
        # (Phi is linear in sqrt(E) there), eta = +1e-6 into none
        e0 = bound_states(ExtensionParams.mixing(0.3), 0.5).bound_states[0].energy
        for d_eta, shallow in ((1e-6, False), (-1e-6, True)):
            params = ExtensionParams.mixing(0.3, eta=d_eta)
            states = bound_states(params, 0.5).bound_states
            assert len(states) == 1 + shallow
            assert abs(states[0].energy - e0) <= 1e-5
            if shallow:
                cf = d_coeffs(params, 0.5)
                want = -((cf.c0 / (cf.c_alpha + cf.c_1malpha)) ** 2)
                assert states[1].energy == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("eta", [-0.7, 0.0, 0.3, 1.0])
    def test_degenerate_pair_at_half_flux(self, eta):
        # alpha = 1/2, a = 1, b = 0: the s- and p-wave equations coincide, so
        # Phi touches zero without changing sign; the double root is Phi's
        # turning point, reported as two states
        params = _rot_params(eta, 0.0)
        roots = rot_invariant_equations(params, 0.5)
        assert roots.s_wave_root == pytest.approx(roots.p_wave_root, rel=1e-14)
        states = bound_states(params, 0.5).bound_states
        assert [-st.energy for st in states] == pytest.approx([roots.s_wave_root] * 2, rel=1e-10)

    @pytest.mark.parametrize("eta, tau, alpha", [
        (-0.39680979775436565, -2.7447828558354272, 0.7473830379376531),
        (-0.2553771657851682, -2.886215487804625, 0.8374218468499681),
        (-0.4462252574567822, -2.695367396133011, 0.7159241781731979),
    ])
    def test_unresolvable_huge_root_exits_cleanly(self, eta, tau, alpha, capsys):
        # c1 rounds to 0 here, and the float coefficients cannot place the
        # closed-form root of order 1e20: the residual check refuses with a
        # ConsistencyError (exit 3) that names the cancellation, never an
        # AssertionError (a traceback)
        params = _rot_params(eta, tau)
        with pytest.raises(ConsistencyError, match="cancels to rounding"):
            bound_states(params, alpha)
        a = f"--a={params.a.real!r},{params.a.imag!r}"
        assert main([f"--eta={eta!r}", a, "--b=0,0", f"--alpha={alpha!r}", "spectrum"]) == 3
        err = capsys.readouterr().err
        assert "c1 = -(Re a + cos eta) = -0 cancels to rounding" in err
        assert "cannot resolve its c1 E term, up to " in err
        assert "Traceback" not in err


class TestRotInvariantFactorization:
    def test_s_wave_substitution(self):
        # beta = -pi alpha/2 gives |E| = (1/cos(pi alpha/2))^{1/alpha}
        for alpha in (0.3, 0.5, 0.7):
            beta = -PI * alpha / 2
            omega = PI * alpha / 2 + 0.4  # p-wave bracket negative: no root
            roots = rot_invariant_equations(
                _rot_params(beta + omega, beta - omega), alpha)
            want = (1.0 / math.cos(PI * alpha / 2)) ** (1.0 / alpha)
            assert roots.s_wave_root == pytest.approx(want, rel=1e-12)
            assert roots.p_wave_root is None
        assert rot_invariant_equations(
            _rot_params(-PI * 0.5 / 2 + PI * 0.5 / 2 + 0.4,
                        -PI * 0.5 / 2 - PI * 0.5 / 2 - 0.4), 0.5
        ).s_wave_root == pytest.approx(2.0, rel=1e-12)

    def test_p_wave_boundary_is_resonance(self):
        alpha = 0.6
        omega, beta = PI * alpha / 2, 0.3
        roots = rot_invariant_equations(_rot_params(beta + omega, beta - omega), alpha)
        assert roots.p_wave_root is None
        assert roots.zero_resonance

    def test_root_beyond_double_range_is_inf(self):
        # cos(beta) = cos(-pi/2) ~ 6e-17 at alpha = 1/32: a ratio of about
        # 8e14 raised to the 32nd power
        roots = rot_invariant_equations(_rot_params(0.0, -PI), 1.0 / 32.0)
        assert roots.s_wave_root == math.inf

    def test_rejects_coupling(self):
        with pytest.raises(ValueError):
            rot_invariant_equations(ExtensionParams.mixing(0.1), 0.5)

    def test_matches_general_root_finder(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            eta = float(rng.uniform(-PI, PI))
            tau = float(rng.uniform(-PI, PI))
            alpha = float(rng.uniform(0.05, 0.95))
            params = _rot_params(eta, tau)
            roots = rot_invariant_equations(params, alpha)
            closed = sorted(
                r for r in (roots.s_wave_root, roots.p_wave_root) if r is not None
            )
            general = sorted(-st.energy for st in bound_states(params, alpha).bound_states)
            assert len(closed) == len(general), (eta, tau, alpha)
            for c, g in zip(closed, general):
                assert abs(c - g) <= 1e-10 * (1.0 + abs(c))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(eta=st.floats(-PI, PI), tau=st.floats(-PI, PI), alpha=st.floats(0.02, 0.98))
    def test_refined_roots_match_closed_form(self, eta, tau, alpha):
        # every closed-form root in the searched range of normal floats comes
        # back to 1e-10 relative, plus eps times the root's condition number
        # sum E^s / |E Phi'(E)|: |a| = 1 holds only to rounding, and at eta = 0,
        # tau = pi - 2.5e-4, alpha = 1/2 that alone moves Phi's exact root 1.2e-9
        # off the closed form.  An exact double root (alpha = 1/2, tau = 0) is a
        # simple root of Phi', found to 1e-10 as well.
        params = _rot_params(eta, tau)
        roots = rot_invariant_equations(params, alpha)
        assume(not roots.zero_resonance)
        lo, hi = map(math.exp, _LOG_E_RANGE)
        closed = sorted(r for r in (roots.s_wave_root, roots.p_wave_root)
                        if r is not None and lo <= r <= hi)
        states = bound_states(params, alpha).bound_states
        general = sorted(-s.energy for s in states)
        assert len(general) == len(closed)
        cf = d_coeffs(params, alpha)
        for c, g in zip(closed, general):
            slope = abs(sum(s * cs * c ** s for s, cs in cf.pairs()))
            kappa = sum(c ** s for s, _ in cf.pairs()) / slope if slope else 0.0
            assert abs(g - c) <= (1e-10 + sys.float_info.epsilon * kappa) * c
        for state in states:
            assert state.residual <= 1e-10 * (1.0 + abs(cf.c1) * -state.energy)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(alpha=st.floats(0.02, 0.98), log_e=st.floats(-1.0, 1.0),
           log_delta=st.floats(-3.0, -1.0))
    def test_close_pair_both_found(self, alpha, log_e, log_delta):
        # b = 0 built from target roots E_s and E_p = E_s (1 + delta):
        # tan beta = (cos h - E_s^alpha)/sin h, tan omega = (sin h - E_p^(1-alpha))/cos h
        # with h = pi alpha/2; both roots come back, relative gap down to 1e-3
        e_s = 10.0 ** log_e
        e_p = e_s * (1.0 + 10.0 ** log_delta)
        h = PI * alpha / 2
        beta = math.atan((math.cos(h) - e_s ** alpha) / math.sin(h))
        omega = math.atan((math.sin(h) - e_p ** (1.0 - alpha)) / math.cos(h))
        params = _rot_params(beta + omega, beta - omega)
        roots = rot_invariant_equations(params, alpha)
        closed = sorted((roots.s_wave_root, roots.p_wave_root))
        assert closed == pytest.approx(sorted((e_s, e_p)), rel=1e-12)
        general = sorted(-s.energy for s in bound_states(params, alpha).bound_states)
        assert general == pytest.approx(closed, rel=1e-10)


class TestSpectralReport:
    def test_ab_report(self, capsys):
        # the CLI spectrum task: bound states plus the echoed theory notes
        assert main(["--alpha", "0.4", "spectrum"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["bound_states"] == []
        assert not res["zero_resonance"]
        assert res["essential_spectrum"] == [0.0, "inf"]
        assert "essential spectrum" in res["notes"]

    def test_mixing_report_gamma_independent(self):
        vals = []
        for gamma in np.linspace(0.0, 2 * PI, 8, endpoint=False):
            s = bound_states(ExtensionParams.mixing(float(gamma)), 0.5)
            assert s.zero_resonance
            vals.append(s.bound_states[0].energy)
        assert np.ptp(vals) <= 1e-12

    def test_count_bounded_by_two_on_sweep(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            eta, a, b = random_params(rng)
            s = bound_states(ExtensionParams(eta, a, b), float(rng.uniform(0.05, 0.95)))
            assert len(s.bound_states) <= 2
