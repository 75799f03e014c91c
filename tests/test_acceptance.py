"""Acceptance criteria.

Each test prints one [ACCEPTANCE n] PASS/FAIL line (run with -s to see
them) and enforces the stated tolerance and runtime budget.
"""

import cmath
import math
import time

import numpy as np

from abx.extension import ExtensionParams, UpperHalfK
from abx.krein import (
    ab_resolvent_kernel,
    analytic_basis,
    d_of_k,
    full_resolvent_kernel,
    p_at_i,
    p_of_k,
)
from abx.scattering import (
    PlaneWaveChannel,
    amplitude_u,
    cross_section,
    extract_amplitude,
    psi_ab,
    psi_u,
)
from abx.specfun import hankel1_orders
from abx.spectrum import bound_states

from _oracles import (apply_flux_operator, channel_system, inner_product_2d, observed_orders,
                      overlap, random_params, rot_invariant_equations)

PI = math.pi


def _report(num: int, desc: str, ok: bool, elapsed: float, budget: float | None = None):
    status = "PASS" if ok else "FAIL"
    tail = f"{elapsed:.2f}s" + (f" of {budget:.0f}s budget" if budget else "")
    print(f"[ACCEPTANCE {num}] {status} - {desc} ({tail})")


def test_criterion_1_mixing_bound_state():
    t0 = time.monotonic()
    ok = True
    detail = ""
    for gamma in np.linspace(0.0, 2 * PI, 8, endpoint=False):
        s = bound_states(ExtensionParams.mixing(float(gamma)), 0.5)
        if not (len(s.bound_states) == 1
                and abs(s.bound_states[0].energy + 2.0) <= 1e-10
                and s.zero_resonance):
            ok = False
            detail = f"gamma={gamma}: {s}"
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(1, "coupling-family bound state at E = -2 with zero-energy resonance",
            ok, elapsed, 1.0)
    assert ok, detail


def test_criterion_2_ab_reduction():
    t0 = time.monotonic()
    ab = ExtensionParams.ab_point()
    ok = True
    for alpha in (0.1, 0.5, 0.9):
        assert np.max(np.abs(p_at_i(ab))) <= 1e-14
        for k in (UpperHalfK(1j), UpperHalfK(1.3 + 0.4j), UpperHalfK(2.0, on_real_axis=True)):
            assert np.max(np.abs(p_of_k(ab, alpha, k))) <= 1e-14
        assert bound_states(ab, alpha).bound_states == ()
        chan = PlaneWaveChannel(1.0, 0.4)
        for (r, phi) in ((0.7, 1.0), (1.9, 3.3), (3.2, 5.6)):
            assert psi_u(ab, alpha, chan, r, phi) == psi_ab(alpha, chan, r, phi)
        k0, theta = 1.0, 0.0
        angles = (np.arange(360) + 0.5) * (2 * PI / 360)
        for phi in angles:
            got = cross_section(ab, alpha, k0, theta, float(phi))
            want = math.sin(PI * alpha) ** 2 / (
                2 * PI * k0 * math.sin((phi - theta) / 2) ** 2)
            if abs(got - want) > 1e-8 * want:
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report(2, "regular point: zero coupling, empty point spectrum, classical "
               "cross section at 360 angles x 3 fluxes", ok, elapsed, 10.0)
    assert ok


def test_criterion_3_dual_path_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(33)
    worst_p, worst_d = 0.0, 0.0
    for _ in range(1000):
        eta, a, b = random_params(rng)
        params = ExtensionParams(eta, a, b)
        alpha = float(rng.uniform(0.05, 0.95))
        k = UpperHalfK(complex(rng.uniform(-10, 10), rng.uniform(0.1, 10)))
        closed = p_of_k(params, alpha, k)  # raises on internal mismatch
        system = channel_system(p_at_i(params), alpha, k)
        inverted = np.linalg.solve(system, p_at_i(params))
        worst_p = max(worst_p, float(
            np.linalg.norm(closed - inverted) / max(np.linalg.norm(closed), 1e-300)))
        dval = d_of_k(params, alpha, k)
        det = system[0, 0] * system[1, 1] - system[0, 1] * system[1, 0]
        worst_d = max(worst_d, abs(dval - det) / max(abs(dval), 1e-300))
    elapsed = time.monotonic() - t0
    ok = worst_p <= 1e-10 and worst_d <= 1e-10 and elapsed < 30.0
    _report(3, f"coupling/determinant dual paths over 1000 samples "
               f"(worst {worst_p:.1e}, {worst_d:.1e})", ok, elapsed, 30.0)
    assert ok


def test_criterion_4_analytic_basis_gate():
    t0 = time.monotonic()
    pairs = [
        (0.8 + 0.9j, 1.2 + 0.6j),
        (cmath.exp(1j * PI / 4), cmath.exp(3j * PI / 4)),
        (0.5j, 0.3 + 1.1j),
        (1.5 + 0.5j, 0.4 + 0.7j),
        (2j, 1.0 + 1.0j),
    ]
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9):
        for (z1, z2) in pairs:
            k1, k2 = UpperHalfK(z1), UpperHalfK(z2)
            amat = overlap(alpha, k1, k2)
            for i, ch_row in enumerate((0, -1)):
                bra = analytic_basis(ch_row, alpha, UpperHalfK(-k1.conjugate()))
                for j, ch_col in enumerate((0, -1)):
                    col = analytic_basis(ch_col, alpha, k2)
                    got = inner_product_2d(bra, col)
                    err = abs(got - amat[i, j]) / (1.0 + abs(amat[i, j]))
                    worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(4, f"quadrature overlaps reproduce the channel matrix, 5 pairs x 3 "
               f"fluxes (worst {worst:.1e})", ok, elapsed, 60.0)
    assert ok


PARAM_SETS = {
    "regular": ExtensionParams.ab_point(),
    "rotationally-invariant": ExtensionParams.rotationally_invariant(0.4, 0.9),
    "mixing": ExtensionParams.mixing(0.7),
}


def test_criterion_5_eigenfunction_limit_oracle():
    t0 = time.monotonic()
    k, theta = 1.0, 0.4
    rho = 1e3 / k
    kc = UpperHalfK(complex(k, 1e-6 * k))
    chan = PlaneWaveChannel(k, theta)
    worst = 0.0
    worst_at = None
    for name, params in PARAM_SETS.items():
        for alpha in (0.1, 0.5, 0.9):
            for dphi in (1.0, 2.2, 5.0):
                for r in (0.6, 1.2, 1.9):
                    phi = theta + dphi
                    lim = (4.0 / (1j * complex(hankel1_orders(0.0, kc * rho)))
                           * full_resolvent_kernel(params, alpha, kc,
                                                   (r, phi), (rho, theta + PI)))
                    closed = psi_u(params, alpha, chan, r, phi)
                    rel = abs(lim - closed) / abs(closed)
                    if rel > worst:
                        worst, worst_at = rel, (name, alpha, dphi, r)
    elapsed = time.monotonic() - t0
    ok = worst <= 5e-3 and elapsed < 300.0
    _report(5, f"eigenfunction closed form vs far-source resolvent limit "
               f"(worst {worst:.1e} at {worst_at})", ok, elapsed, 300.0)
    assert ok


def test_criterion_6_amplitude_extraction():
    t0 = time.monotonic()
    params, alpha, k, theta = PARAM_SETS["mixing"], 0.45, 1.0, 0.4
    chan = PlaneWaveChannel(k, theta)
    amp = amplitude_u(params, alpha, k)
    worst = 0.0
    for dphi in (0.5, 1.1, 1.7, 2.3, 2.9, 3.6, 4.4, 5.2):
        phi = theta + dphi
        got = extract_amplitude(params, alpha, chan, phi, 1e3 / k)
        want = amp.smooth(theta, phi)
        worst = max(worst, abs(got - want) / abs(want))
    m = p_of_k(params, alpha, UpperHalfK(k, on_real_axis=True))
    moduli_ok = abs(abs(m[0][1]) - abs(m[1][0])) <= 1e-12
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-2 and moduli_ok and elapsed < 120.0
    _report(6, f"far-field extraction matches the amplitude at 8 angles "
               f"(worst {worst:.1e}); cross-coupling moduli equal", ok, elapsed, 120.0)
    assert ok


def test_criterion_7_pde_residual_suite():
    t0 = time.monotonic()
    alpha = 0.35
    chan = PlaneWaveChannel(1.3, 0.4)
    mixing = PARAM_SETS["mixing"]
    kern_k = UpperHalfK(1.0 + 0.8j)
    y = (3.5, 2.0)
    samples = ((1.2, 0.5), (1.8, 4.0), (2.3, 2.0))

    cases = {
        "plane-wave eigenfunction": (
            lambda r, phi: psi_ab(alpha, chan, r, phi), chan.k**2),
        "coupled eigenfunction": (
            lambda r, phi: psi_u(mixing, alpha, chan, r, phi), chan.k**2),
        "reference kernel": (
            lambda r, phi: ab_resolvent_kernel(alpha, kern_k, (r, phi), y),
            kern_k**2),
        "full kernel": (
            lambda r, phi: full_resolvent_kernel(mixing, alpha, kern_k, (r, phi), y),
            kern_k**2),
    }
    ok = True
    details = {}
    for name, (u, ksq) in cases.items():
        resid = []
        for h in (0.02, 0.01, 0.005):
            worst = 0.0
            for (r, phi) in samples:
                val = apply_flux_operator(u, alpha, r, phi, h) - ksq * u(r, phi)
                worst = max(worst, abs(val))
            resid.append(worst)
        orders = observed_orders(resid)
        details[name] = [f"{o:.2f}" for o in orders]
        if min(orders) < 1.8:
            ok = False
    elapsed = time.monotonic() - t0
    _report(7, f"operator residual converges at second order: {details}",
            ok, elapsed)
    assert ok, details


def test_criterion_8_factorization_and_count_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(34)
    worst = 0.0
    ok = True
    for _ in range(50):
        eta = float(rng.uniform(-PI, PI))
        tau = float(rng.uniform(-PI, PI))
        alpha = float(rng.uniform(0.05, 0.95))
        params = ExtensionParams.rotationally_invariant(eta, tau)
        roots = rot_invariant_equations(params, alpha)
        closed = sorted(r for r in (roots.s_wave_root, roots.p_wave_root)
                        if r is not None)
        general = sorted(-st.energy for st in bound_states(params, alpha).bound_states)
        if len(closed) != len(general):
            ok = False
            break
        for c, g in zip(closed, general):
            worst = max(worst, abs(c - g) / (1.0 + abs(c)))
    ok = ok and worst <= 1e-10
    max_count = 0
    for _ in range(10_000):
        eta, a, b = random_params(rng)
        s = bound_states(ExtensionParams(eta, a, b), float(rng.uniform(0.05, 0.95)))
        max_count = max(max_count, len(s.bound_states))
    ok = ok and max_count <= 2
    elapsed = time.monotonic() - t0
    _report(8, f"s/p-wave factorization roots match (worst {worst:.1e}); "
               f"bound-state count <= 2 over 10^4 samples (max {max_count})",
            ok, elapsed)
    assert ok


def test_criterion_9_plane_wave_limit():
    # The deviation from the plane wave is ~3 alpha times a grid-dependent
    # factor, so the 3e-6 budget at alpha = 1e-6 is tight; the wavelength-
    # scale annulus below satisfies it, and the linear-in-alpha scaling
    # check underneath pins the limit itself.
    t0 = time.monotonic()
    k, theta = 1.0, 0.7
    rs = np.linspace(0.2, 1.5, 20)
    phis = np.linspace(0.0, 2 * PI, 20, endpoint=False)

    def worst_on_grid(alpha: float) -> float:
        chan = PlaneWaveChannel(k, theta)
        worst = 0.0
        for r in rs:
            for phi in phis:
                got = psi_ab(alpha, chan, float(r), float(phi))
                want = cmath.exp(1j * k * r * math.cos(phi - theta))
                worst = max(worst, abs(got - want))
        return worst

    worst = worst_on_grid(1e-6)
    scaled = worst_on_grid(2e-6)
    elapsed = time.monotonic() - t0
    ok = worst <= 3e-6 and abs(scaled / worst - 2.0) < 0.05
    _report(9, f"vanishing-flux eigenfunction matches the plane wave on a "
               f"20x20 grid (worst {worst:.1e}, linear in flux)", ok, elapsed)
    assert ok
