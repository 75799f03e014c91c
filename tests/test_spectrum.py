"""Bound states, resonances, and the s/p-wave factorization."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abx.extension import ExtensionParams
from abx.cli import main
from abx.krein import d_coeffs
from abx.spectrum import _GRID_DECADES, _GRID_POINTS, bound_states, rot_invariant_equations

from _oracles import random_params

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
        # omega = pi alpha/2 puts the p-wave root exactly at E = 0
        alpha = 0.4
        omega, beta = PI * alpha / 2, 0.9
        s = bound_states(_rot_params(beta + omega, beta - omega), alpha)
        assert s.zero_resonance
        assert all(st.energy < 0 for st in s.bound_states)

    def test_residuals_within_tolerance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            eta, a, b = random_params(rng)
            params = ExtensionParams(eta, a, b)
            alpha = float(rng.uniform(0.05, 0.95))
            s = bound_states(params, alpha)
            for st in s.bound_states:
                assert st.residual <= 1e-10 * (1.0 + abs(st.energy))

    def test_no_missed_roots_on_refined_grid(self):
        # doubling the scan grid finds the same root set
        from abx.krein import d_coeffs

        rng = np.random.default_rng(22)
        for _ in range(25):
            eta, a, b = random_params(rng)
            params = ExtensionParams(eta, a, b)
            alpha = float(rng.uniform(0.05, 0.95))
            cf = d_coeffs(params, alpha)
            got = sorted(-st.energy for st in bound_states(params, alpha).bound_states)
            grid = np.logspace(-12, 8, 1200)
            vals = (cf.c1 * grid + cf.c_alpha * grid**alpha
                    + cf.c_1malpha * grid ** (1 - alpha) + cf.c0)
            brackets = np.flatnonzero(vals[:-1] * vals[1:] < 0)
            assert len(brackets) == len(got)
            for i, e in zip(brackets, got):
                assert grid[i] <= e <= grid[i + 1]

    def test_continuity_under_small_perturbation(self):
        base = bound_states(ExtensionParams.mixing(0.3), 0.5)
        e0 = base.bound_states[0].energy
        for d_eta in (1e-6, -1e-6):
            s = bound_states(ExtensionParams.mixing(0.3, eta=d_eta), 0.5)
            assert len(s.bound_states) == 1
            assert abs(s.bound_states[0].energy - e0) <= 1e-5


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
        # the grid brackets and bisection refines: every closed-form root
        # inside the grid range comes back to 1e-10 relative
        params = _rot_params(eta, tau)
        roots = rot_invariant_equations(params, alpha)
        assume(not roots.zero_resonance)
        grid = np.logspace(*_GRID_DECADES, _GRID_POINTS)
        closed = sorted(r for r in (roots.s_wave_root, roots.p_wave_root)
                        if r is not None and grid[0] <= r <= grid[-1])
        # two roots in one grid cell show no sign change: the grid's known blind spot
        assume(len(set(np.searchsorted(grid, closed))) == len(closed))
        states = bound_states(params, alpha).bound_states
        general = sorted(-s.energy for s in states)
        assert len(general) == len(closed)
        for c, g in zip(closed, general):
            assert abs(g - c) <= 1e-10 * c
        c1 = d_coeffs(params, alpha).c1
        for state in states:
            assert state.residual <= 1e-10 * (1.0 + abs(c1) * -state.energy)


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
