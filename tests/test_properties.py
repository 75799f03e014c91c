"""Invariants of the family over random (eta, a, b, alpha, k): the two
representations of one channel map, the two routes to p(k), equal
cross-channel mixing, the regular point's flux-only amplitude, the
unitarity of the on-shell S-matrix, and at most two bound states."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abx.errors import NearEigenvalueError
from abx.extension import ExtensionParams, classify
from abx.krein import REFERENCE_K, a_matrix, d_of_k, p_at_i, p_of_k
from abx.scattering import FORWARD_EPSILON, amplitude_ab, amplitude_u, channel_mixing
from abx.specfun import as_wavenumber
from abx.spectrum import bound_states

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
        p, q = p_of_k(params, alpha, k), p_of_k(mirror, alpha, k)
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
    pref = p_at_i(params, alpha)
    inverted = np.linalg.solve(np.eye(2) + (k.k ** 2 - 1j) * (pref @ a_matrix(alpha, k, REFERENCE_K)),
                               pref)
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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: the rank-two correction of the resolvent, "
                   "eigenfunction and amplitude has the wrong sign")
def test_on_shell_s_matrix_is_unitary():
    # S = diag(e^{-i pi alpha}, e^{i pi alpha}) + sqrt(2 pi k) e^{i pi/4} C on
    # channels (0, -1), C_jl the coefficient of e^{i(-j theta + l phi)} in the
    # amplitude's correction (a 4 x 4 DFT off the forward cone); flux
    # conservation makes S unitary whatever the sign convention of p(k).  The
    # worst defect over all draws is asserted, so the expected failure reports
    # it and leaves no falsifying example to shrink.
    defects = []

    @SETTINGS
    @given(params=family_points(), alpha=st.floats(0.05, 0.95), log_k=st.floats(-3.0, 3.0))
    def draw(params, alpha, log_k):
        k = 10.0 ** log_k
        try:
            amp = amplitude_u(params, alpha, k)
        except REFUSED:
            assume(False)
        theta = 2 * PI * np.arange(4)[:, None] / 4
        phi = 2 * PI * np.arange(4) / 4 + 0.3
        corr = amp.smooth(theta, phi) - amplitude_ab(alpha, k).smooth(theta, phi)
        chans = np.array([0, -1])
        coef = np.exp(1j * chans[:, None] * theta.T) @ corr @ np.exp(-1j * phi[:, None] * chans) / 16
        s = (np.diag([cmath.exp(-1j * PI * alpha), cmath.exp(1j * PI * alpha)])
             + math.sqrt(2 * PI * k) * cmath.exp(0.25j * PI) * coef)
        defects.append(np.abs(s.conj().T @ s - np.eye(2)).max())

    draw()
    assert max(defects) <= 1e-10


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
    # channel system S = 1 + (k^2 - i) p(k0) A(k, k0) of krein._channel_system,
    # built here from the same factors without that function's own
    # cross-check (which refuses near a root once |k| is large), is singular
    assume(params.b != 0)
    pref = p_at_i(params, alpha)
    for state in bound_states(params, alpha).bound_states:
        k = as_wavenumber(1j * math.sqrt(-state.energy))
        system = np.eye(2) + (k.k ** 2 - 1j) * (pref @ a_matrix(alpha, k, REFERENCE_K))
        det = system[0, 0] * system[1, 1] - system[0, 1] * system[1, 0]
        assert abs(det) <= 1e-9 * (1.0 + np.abs(system).max() ** 2)


def test_near_regular_point_answers():
    # a = -e^{i 1e-6}, b = 0: a valid, well-conditioned point whose p(k) ~ 5e-7
    # is a cancellation of O(1) terms, so the two routes agree to 1e-10 of
    # those terms but not of |p|
    p = p_of_k(ExtensionParams(0.0, -cmath.exp(1e-6j), 0.0), 0.5, 10.0)
    assert np.all(np.isfinite(p)) and p[0, 1] == p[1, 0] == 0
    assert 1e-7 < abs(p[0, 0]) < 1e-6 and 1e-7 < abs(p[1, 1]) < 1e-6
