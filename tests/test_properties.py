"""Invariants of the family over random (eta, a, b, alpha, k): the two
representations of one channel map, the two routes to p(k), equal
cross-channel mixing, the regular point's flux-only amplitude, at most two
bound states, and four checks of the rank-two correction against physics,
not against a second route that shares its sign: the unitarity of the
on-shell S-matrix, the boundary condition at the origin, a local density of
states that is never negative, and the sign of the resolvent's residue at a
bound state."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abx.errors import NearEigenvalueError
from abx.extension import ExtensionParams, as_wavenumber, classify
from abx.krein import (_CHANNELS, _rank_two, _row, analytic_basis, d_of_k, full_resolvent_kernel,
                       p_at_i, p_of_k)
from abx.scattering import (FORWARD_EPSILON, PlaneWaveChannel, amplitude_ab, amplitude_u,
                            channel_mixing, psi_u)
from abx.specfun import bessel_j_orders
from abx.spectrum import bound_states

from _oracles import boundary_route, channel_system, random_params

PI = math.pi
SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def family_points(draw):
    """(eta, a, b) with (a, b) on the unit 3-sphere; one draw in four has b = 0."""
    g = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    if draw(st.integers(0, 3)) == 0:
        g = (g[0], g[1], 0.0, 0.0)
    norm = math.hypot(*g)
    assume(norm > 1e-3)
    return ExtensionParams(draw(st.floats(-PI, PI)), complex(g[0], g[1]) / norm,
                           complex(g[2], g[3]) / norm)


@st.composite
def near_regular_points(draw):
    """(eta, a, b) within 1e-12 .. 1e-3 of the regular point (0, -1, 0),
    where p(k) is a cancellation of O(1) terms."""
    d = [draw(st.sampled_from((-1.0, 0.0, 1.0))) * 10.0 ** draw(st.floats(-12.0, -3.0))
         for _ in range(4)]
    b = complex(d[2], d[3])
    return ExtensionParams(d[0], -cmath.exp(1j * d[1]) * math.sqrt(1.0 - abs(b) ** 2), b)


alphas = st.floats(0.02, 0.98)
log_k = st.floats(-2.0, 2.0)
# p_of_k refuses near an eigenvalue
REFUSED = NearEigenvalueError


def _mirror(params: ExtensionParams) -> ExtensionParams:
    return ExtensionParams(params.eta + PI, -params.a, -params.b)


@SETTINGS
@given(params=family_points(), alpha=alphas, log_k=log_k, arg_k=st.floats(0.0, PI - 1e-3))
def test_both_representations_agree(params, alpha, log_k, arg_k):
    # (eta, a, b) and (eta + pi, -a, -b) are the same channel map U
    mirror = _mirror(params)
    assert classify(mirror) is classify(params)
    k = as_wavenumber(10.0 ** log_k * cmath.exp(1j * arg_k))
    try:
        p, q = np.array(p_of_k(params, alpha, k)), np.array(p_of_k(mirror, alpha, k))
    except REFUSED:
        assume(False)
    # relative to the size of p's terms, e/(2D) times O(1) brackets: the
    # regular point's p is exactly 0, its mirror's is e^{-i pi} - (-1) ~ 1e-16
    scale = np.linalg.norm(p) + 1.0 / abs(d_of_k(params, alpha, k))
    assert np.linalg.norm(p - q) <= 1e-12 * scale
    got = bound_states(params, alpha).bound_states
    want = bound_states(mirror, alpha).bound_states
    assert len(got) == len(want)
    for s, t in zip(got, want):
        assert abs(s.energy - t.energy) <= 1e-10 * abs(s.energy)


@SETTINGS
@given(params=st.one_of(family_points(), near_regular_points()), alpha=alphas, log_k=log_k,
       arg_k=st.floats(0.0, PI - 1e-3))
def test_dual_paths_agree(params, alpha, log_k, arg_k):
    # p_of_k answers with the closed entry formulas; the inversion of the
    # channel system S p(k) = p(k0), redone here, must agree with them to
    # 1e-10 of a bound on the size of p's terms, (2 + 2 |(-k^2)^s| / min(sin,
    # cos)(pi alpha/2) + |b|) / (2 |D|), even where p cancels far below it
    k = as_wavenumber(10.0 ** log_k * cmath.exp(1j * arg_k))
    try:
        p = p_of_k(params, alpha, k)
    except REFUSED:
        assume(False)
    pref = p_at_i(params)
    inverted = np.linalg.solve(channel_system(pref, alpha, k.k), pref)
    power = max(abs(k.k) ** (2.0 * alpha), abs(k.k) ** (2.0 - 2.0 * alpha))
    trig = min(math.sin(PI * alpha / 2.0), math.cos(PI * alpha / 2.0))
    size = (2.0 + 2.0 * (1.0 + power) / trig + abs(params.b)) / (2.0 * abs(d_of_k(params, alpha, k)))
    assert np.linalg.norm(p - inverted) <= 1e-10 * size


@SETTINGS
@given(params=family_points(), alpha=alphas, log_k=log_k)
def test_channel_mixing_symmetric_and_zero_without_coupling(params, alpha, log_k):
    try:
        mix = channel_mixing(params, alpha, 10.0 ** log_k)
    except REFUSED:
        assume(False)
    assert abs(mix.prob_0_to_m1 - mix.prob_m1_to_0) <= 1e-14 * mix.prob_0_to_m1
    if params.b == 0:
        assert mix.prob_0_to_m1 == 0.0


@SETTINGS
@given(alpha=alphas, log_k=log_k, theta=st.floats(0.0, 2 * PI),
       offsets=st.lists(st.floats(2 * FORWARD_EPSILON, 2 * PI - 2 * FORWARD_EPSILON),
                        min_size=1, max_size=8))
def test_regular_point_amplitude_is_flux_only(alpha, log_k, theta, offsets):
    k = 10.0 ** log_k
    phi = theta + np.array(offsets)
    got = amplitude_u(ExtensionParams.ab_point(), alpha, k).smooth(theta, phi)
    assert np.array_equal(got, amplitude_ab(alpha, k).smooth(theta, phi))


ITEM_12 = pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="ROADMAP item 12: the rank-two correction of the resolvent, "
                            "eigenfunction and amplitude has the wrong sign")


def _on_shell_s(params, alpha, k):
    """S = diag(e^{-i pi alpha}, e^{i pi alpha}) + sqrt(2 pi k) e^{i pi/4} C on
    channels (0, -1), C_jl the coefficient of e^{i(-j theta + l phi)} in the
    amplitude's correction (a 4 x 4 DFT off the forward cone)."""
    amp, flux = amplitude_u(params, alpha, k), amplitude_ab(alpha, k)
    theta = 2 * PI * np.arange(4)[:, None] / 4
    phi = 2 * PI * np.arange(4) / 4 + 0.3
    # smooth takes one float theta at a time
    corr = np.array([np.subtract(amp.smooth(t, phi), flux.smooth(t, phi)) for t in theta[:, 0]])
    chans = np.array([0, -1])
    coef = np.exp(1j * chans[:, None] * theta.T) @ corr @ np.exp(-1j * phi[:, None] * chans) / 16
    return (np.diag([cmath.exp(-1j * PI * alpha), cmath.exp(1j * PI * alpha)])
            + math.sqrt(2 * PI * k) * cmath.exp(0.25j * PI) * coef)


def _random_points(seed, count, alpha_range=(0.05, 0.95)):
    """count draws (params, alpha), every third with b = 0."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        eta, a, b = random_params(rng)
        if i % 3 == 0:
            a, b = a / abs(a), 0.0
        yield ExtensionParams(eta, a, b), float(rng.uniform(*alpha_range)), rng


@ITEM_12
def test_on_shell_s_matrix_is_unitary():
    # flux conservation makes S unitary whatever the sign convention of p(k).
    # The worst defect over all draws is asserted, so the expected failure
    # reports it and leaves no falsifying example to shrink.
    defects = []

    @SETTINGS
    @given(params=family_points(), alpha=st.floats(0.05, 0.95), log_k=st.floats(-3.0, 3.0))
    def draw(params, alpha, log_k):
        try:
            s = _on_shell_s(params, alpha, 10.0 ** log_k)
        except REFUSED:
            assume(False)
        defects.append(np.abs(s.conj().T @ s - np.eye(2)).max())

    draw()
    assert max(defects) <= 1e-10


def _det(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def test_boundary_route_determinant_is_k_times_d():
    # k det M_in(k) / D(k) is one constant per point: the boundary condition
    # at the origin gives D up to that constant, sharing neither the
    # overlaps nor branch_power with the program
    ks = (0.01 + 0.02j, 0.3 + 0.1j, 1.0 + 1.0j, 3.0 + 0.5j, 10.0 + 2.0j, 50.0 + 3.0j)
    for params, alpha, _ in _random_points(17, 30):
        ratios = [k * _det(boundary_route(params, alpha, k).m_in) / d_of_k(params, alpha, k)
                  for k in ks]
        assert max(abs(r / ratios[0] - 1.0) for r in ratios) <= 1e-12


def test_bound_states_are_zeros_of_the_boundary_route():
    # each reported E = -kappa^2 is within 1e-12 (relative) of a zero of
    # det M_in(i kappa): the Newton step det / (kappa d det/d kappa) in
    # kappa is half that in E
    states = 0
    for params, alpha, _ in _random_points(18, 100):
        for state in bound_states(params, alpha).bound_states:
            kappa = math.sqrt(-state.energy)

            def det(t):
                return _det(boundary_route(params, alpha, 1j * kappa * t).m_in)

            slope = (det(1.0 + 1e-6) - det(1.0 - 1e-6)) / 2e-6
            assert abs(det(1.0) / slope) <= 5e-13
            states += 1
    assert states >= 100


@ITEM_12
def test_on_shell_s_matrix_matches_boundary_route():
    errors = []
    for params, alpha, rng in _random_points(19, 60):
        k = 10.0 ** rng.uniform(-3.0, 3.0)
        try:
            s = _on_shell_s(params, alpha, k)
        except REFUSED:
            continue
        errors.append(np.abs(s - boundary_route(params, alpha, k).s).max())
    assert len(errors) >= 50 and max(errors) <= 1e-10


@ITEM_12
def test_coupling_matrix_matches_boundary_route():
    # p(k) in the closed upper half-plane, real axis included
    errors = []
    for params, alpha, rng in _random_points(20, 100):
        k = as_wavenumber(10.0 ** rng.uniform(-2.0, 2.0) * cmath.exp(1j * rng.uniform(0.0, PI)))
        try:
            p = p_of_k(params, alpha, k)
        except REFUSED:
            continue
        want = boundary_route(params, alpha, k.k).p
        errors.append(np.abs(p - want).max() / np.abs(want).max())
    assert len(errors) >= 90 and max(errors) <= 1e-10


ORIGIN_RADII = np.array([1e-6, 2e-6])
ORIGIN_ANGLES = 2 * PI * (np.arange(8) + 0.5) / 8


def _origin_fit(values, nu, m, k):
    """(A, B) of channel m, A r^-nu + B r^nu, fitted to values on
    ORIGIN_RADII x ORIGIN_ANGLES.  The mean of values e^{-i m phi} over the
    angles keeps m (and m +- 8, below 1e-40 here); each power carries its
    Frobenius correction 1 - (kr)^2 / (4 (1 -+ nu)), without which the fit
    is off by up to 2e-5 on the draws below."""
    q = (k * ORIGIN_RADII) ** 2 / 4
    basis = np.column_stack([ORIGIN_RADII ** -nu * (1 - q / (1 - nu)),
                             ORIGIN_RADII ** nu * (1 - q / (1 + nu))])
    return np.linalg.solve(basis.astype(complex), (values * np.exp(-1j * m * ORIGIN_ANGLES)).mean(axis=1))


def _origin_ratio(values, alpha, k):
    """B/A of channel 0."""
    a, b = _origin_fit(values, alpha, 0, k)
    return b / a


def _rank_two_at(params, alpha, k, r, phi):
    """The rank-two term of the resolvent kernel at x = y = (r, phi)."""
    k = as_wavenumber(k)
    basis = [analytic_basis(ch, alpha, k) for ch in _CHANNELS]
    coefs = _rank_two(p_of_k(params, alpha, k), [_row(e, r, phi) for e in basis])
    return complex(sum(c * e(r, phi) for c, e in zip(coefs, basis)))


@ITEM_12
def test_boundary_condition_at_the_origin():
    # For b = 0 the extension's s-wave boundary condition fixes B/A, real and
    # the same at every k: Gamma(-alpha)/Gamma(alpha) 2^(-2 alpha)
    # cos(beta + pi alpha/2)/cos(beta) with beta = (eta + tau)/2, the value that
    # the s-wave bound-state equation implies.  The eigenfunction and the
    # resolvent kernel as a function of x must both meet it.  alpha in
    # [0.2, 0.6] and |cos beta| >= 0.2 keep the fit well conditioned.
    rng = np.random.default_rng(7)
    draws = [(0.3, 0.7, 0.37)]
    while len(draws) < 13:
        eta, tau, alpha = rng.uniform(-PI, PI), rng.uniform(-PI, PI), rng.uniform(0.2, 0.6)
        if abs(math.cos((eta + tau) / 2)) >= 0.2:
            draws.append((eta, tau, alpha))
    phi = ORIGIN_ANGLES
    errors = []
    for eta, tau, alpha in draws:
        params = ExtensionParams.rotationally_invariant(eta, tau)
        beta = (eta + tau) / 2
        want = (math.gamma(-alpha) / math.gamma(alpha) * 2 ** (-2 * alpha)
                * math.cos(beta + PI * alpha / 2) / math.cos(beta))
        got = [_origin_ratio(psi_u(params, alpha, PlaneWaveChannel(k, 0.0), ORIGIN_RADII, phi),
                             alpha, k) for k in (1.0, 2.5)]
        got += [_origin_ratio(full_resolvent_kernel(params, alpha, k, (ORIGIN_RADII, phi), (1.3, 0.2)),
                              alpha, k) for k in (1 + 0.5j, 2.5 + 0.5j)]
        errors += [abs(g - want) / max(1.0, abs(want)) for g in got]
    assert max(errors) <= 1e-5


@ITEM_12
def test_boundary_condition_at_the_origin_coupled():
    # Any b: near r = 0, channel j of the eigenfunction, and of the resolvent
    # kernel in x, is A_j r^-nu_j + B_j r^nu_j with (A, B) in the domain,
    # B = b_map a_map^-1 A (tests/_oracles.boundary_route).  Two incidences,
    # or two sources, give the 2 x 2 boundary matrix B A^-1 at each k.
    # alpha in [0.3, 0.7] keeps both fits well conditioned.
    errors = []
    for params, alpha, _ in _random_points(8, 16, (0.3, 0.7)):
        route = boundary_route(params, alpha, 1.0)
        if np.linalg.cond(route.a_map) > 10.0:
            continue
        want = route.b_map @ np.linalg.inv(route.a_map)
        for k in (1.0, 2.5, 1 + 0.5j, 2.5 + 0.5j):
            if k.imag:
                columns = [full_resolvent_kernel(params, alpha, k, (ORIGIN_RADII, ORIGIN_ANGLES), y)
                           for y in ((1.3, 0.2), (1.1, 2.5))]
            else:
                columns = [psi_u(params, alpha, PlaneWaveChannel(k, theta), ORIGIN_RADII, ORIGIN_ANGLES)
                           for theta in (0.0, 2.0)]
            fits = np.array([[_origin_fit(v, nu, m, k) for v in columns]
                             for nu, m in ((alpha, 0), (1.0 - alpha, -1))])
            got = fits[:, :, 1] @ np.linalg.inv(fits[:, :, 0])
            errors.append(np.abs(got - want).max() / np.abs(want).max())
    assert len(errors) >= 32 and max(errors) <= 1e-5


@ITEM_12
def test_local_density_of_states_is_nonnegative():
    # Im G(x, x; k + i0) = 1/4 sum_m J_|m+alpha|(kr)^2 + Im(rank-two term) is pi
    # times the local density of states; half the draws have b = 0
    rng = np.random.default_rng(12)
    ratios = []
    for i in range(200):
        eta, a, b = random_params(rng)
        if i % 2:
            a, b = a / abs(a), 0.0
        alpha = rng.uniform(0.05, 0.95)
        k = 10.0 ** rng.uniform(-2.0, 1.0)
        r = 10.0 ** rng.uniform(-2.0, 1.0) / k
        phi = rng.uniform(-PI, PI)
        m = np.arange(-80, 80)
        free = 0.25 * float(np.sum(bessel_j_orders(np.abs(m + alpha), k * r) ** 2))
        try:
            corr = _rank_two_at(ExtensionParams(eta, a, b), alpha, k, r, phi)
        except REFUSED:
            continue
        ratios.append((free + corr.imag) / free)
    assert len(ratios) >= 190
    assert min(ratios) >= -1e-12


@ITEM_12
def test_residue_at_a_bound_state_is_negative():
    # mixing(1.0) at alpha = 1/2 binds at E = -2.  At z = k^2 = -2 + delta the
    # rank-two term at x = y tends to |phi_b(x)|^2 / (E_b - z) = -|phi_b(x)|^2 / delta,
    # and the reference kernel stays finite
    params = ExtensionParams.mixing(1.0)
    for x in ((0.7, 0.3), (1.5, -1.0)):
        residues = [delta * _rank_two_at(params, 0.5, 1j * math.sqrt(2 - delta), *x)
                    for delta in (1e-4, 1e-5)]
        assert residues[0] == pytest.approx(residues[1], rel=1e-3)
        assert all(r.real < 0 for r in residues)


@SETTINGS
@given(params=family_points(), alpha=alphas)
def test_at_most_two_bound_states(params, alpha):
    states = bound_states(params, alpha).bound_states
    assert len(states) <= 2
    assert all(s.energy < 0 for s in states)


@SETTINGS
@given(params=family_points(), alpha=alphas)
# roots at E = 8.6e-21, 6.3e11 and 3.4e34, outside [1e-12, 1e8]
@example(params=ExtensionParams(-2.7981030934177733, complex(0.2854052740018998, -0.39949391530294553),
                                complex(0.7492759125522531, 0.4444480262942021)),
         alpha=0.0526882677891561)
@example(params=ExtensionParams(-1.5556811339879093, complex(-0.012364599671708647, 0.5491565350868273),
                                complex(-0.767223700688362, -0.3311223486091562)),
         alpha=0.13002502669870544)
@example(params=ExtensionParams(-2.0830681831145768, complex(0.4924376443554225, 0.7147190147160194),
                                complex(0.49417772798350634, 0.04970180670865497)),
         alpha=0.9492844304269469)
def test_coupled_bound_states_zero_the_channel_system(params, alpha):
    # a second route besides the coefficient expansion: at k = i sqrt(E) the
    # channel system S = 1 + (k^2 - i) p(k0) A(k, k0), built here from the
    # oracle's overlaps without krein._channel_system's own cross-check
    # (which refuses near a root once |k| is large), is singular
    assume(params.b != 0)
    pref = p_at_i(params)
    for state in bound_states(params, alpha).bound_states:
        k = as_wavenumber(1j * math.sqrt(-state.energy))
        system = channel_system(pref, alpha, k.k)
        det = system[0, 0] * system[1, 1] - system[0, 1] * system[1, 0]
        assert abs(det) <= 1e-9 * (1.0 + np.abs(system).max() ** 2)


def test_near_regular_point_answers():
    # a = -e^{i 1e-6}, b = 0: a valid, well-conditioned point whose p(k) ~ 5e-7
    # is a cancellation of O(1) terms, so the two routes agree to 1e-10 of
    # those terms but not of |p|
    p = p_of_k(ExtensionParams(0.0, -cmath.exp(1e-6j), 0.0), 0.5, 10.0)
    assert np.all(np.isfinite(p)) and p[0][1] == p[1][0] == 0
    assert 1e-7 < abs(p[0][0]) < 1e-6 and 1e-7 < abs(p[1][1]) < 1e-6
