"""Output checks: every response is compared with a second route.

``judge`` turns one response (exit code, stdout, stderr) into a Verdict.
A failed verdict names its cause.  Causes listed in ``ledger.json`` are
known program defects, recognised by their mechanism and its size, not by
the draw: a ring kernel value must equal the partial-wave sum cut where the
package cuts it, and a failed validate must report the limit-oracle error
that the second route predicts.  Any other failure is "unexpected" and
makes the run incorrect.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from dataclasses import dataclass

import numpy as np

import oracles
from workloads import HEADER_CLASS, Request

FORWARD_CONE = 1e-3            # the CLI's forward-cone half-width
VALUE_TOL = 1e-9               # amplitude, cross section, eigenfunction, mixing
KERNEL_TOL = 1e-4              # resolvent kernel (partial-wave truncation)
EXTRACT_TOL = 1e-2             # acceptance criterion 6
LIMIT_RTOL = 1e-3              # validate's limit-oracle error against the second route
DET_RESIDUAL_TOL = 1e-9
ROOT_RTOL = 1e-8
SUBSAMPLE = 24                 # grid points checked by the second route
# The bound-state scan of the program: sign changes on this log grid.
ROOT_GRID = np.logspace(-12.0, 8.0, 600)

OK = "ok"
VALIDATE_ORACLE = "validate-limit-oracle"
BOUND_STATE_MISS = "bound-state-grid-miss"
KERNEL_RING = "kernel-source-ring"
UNEXPECTED = "unexpected"


@dataclass(frozen=True)
class Verdict:
    cause: str
    values: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.cause == OK


class CheckFailed(Exception):
    def __init__(self, detail: str, cause: str = UNEXPECTED):
        super().__init__(detail)
        self.cause = cause


def _require(cond: bool, detail: str, cause: str = UNEXPECTED) -> None:
    if not cond:
        raise CheckFailed(detail, cause)


def _reject_constant(name: str):
    raise CheckFailed(f"output contains {name}")


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def angle_grid(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) * (2.0 * math.pi / n)


def in_forward_cone(phi: np.ndarray, theta: float) -> np.ndarray:
    return np.abs(np.remainder(phi - theta + math.pi, 2.0 * math.pi) - math.pi) < FORWARD_CONE


def subsample(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(SUBSAMPLE, n)).round().astype(int))


def _check_header(req: Request, doc: dict) -> None:
    p = req.point
    _require(doc.get("task") == req.task, f"header task {doc.get('task')!r}")
    head = doc["params"]
    eta_echo = math.remainder(head["eta"] - p.eta, 2.0 * math.pi)
    _require(head["alpha"] == p.alpha and abs(eta_echo) <= 1e-12
             and _c(head["a"]) == p.a and _c(head["b"]) == p.b,
             f"header does not echo the point: {head}")
    _require(head["class"] == HEADER_CLASS[p.kind], f"header class {head['class']!r}")
    if req.task != "spectrum":
        diag = doc["diagnostics"]
        _require(list(diag["k_values"]) == list(req.ks) and diag["theta"] == req.theta,
                 "header does not echo k or theta")


def _check_angles(block: dict, req: Request) -> np.ndarray:
    phi = np.asarray(block["phi"], dtype=float)
    _require(phi.shape == (req.angles,) and np.allclose(phi, angle_grid(req.angles), rtol=0, atol=1e-12),
             "angle grid differs from the request")
    return phi


def _amplitude_scale(req: Request, k: float, phi: np.ndarray) -> np.ndarray:
    """Sum of the moduli of the amplitude's parts: the size of what cancels."""
    pt = req.point.physics
    scale = np.abs(oracles.flux_amplitude_weight(pt[3], k) / (np.exp(1j * (phi - req.theta)) - 1.0))
    root = math.sqrt(2.0 / (math.pi * k))
    return scale + sum(abs(c) * root for c, *_ in oracles.psi_corrections(pt, k))


def _check_xsection(req: Request, doc: dict) -> int:
    results = doc["results"]
    _require(len(results) == len(req.ks), "one block per momentum expected")
    for block, k in zip(results, req.ks):
        _require(block["k"] == k and block["theta"] == req.theta, "block does not echo k/theta")
        phi = _check_angles(block, req)
        cone = in_forward_cone(phi, req.theta)
        vals = block["dsigma_dphi"]
        _require([v is None for v in vals] == cone.tolist()
                 and block["forward_excluded"] == cone.tolist(), "forward cone mismatch")
        got = np.array([v for v in vals if v is not None], dtype=float)
        off = phi[~cone]
        if req.point.kind == "regular":
            want = oracles.regular_cross_section(req.point.alpha, k, req.theta, off)
        else:
            want = np.abs(oracles.amplitude(req.point.physics, k, req.theta, off)) ** 2
        scale = _amplitude_scale(req, k, off)
        err = np.abs(got - want) / (scale * scale)
        _require(bool(np.all(err <= 2.0 * VALUE_TOL)),
                 f"cross section off by {err.max():.2e} of scale^2 at k={k}")
    return req.points_count()


def _check_amplitude(req: Request, doc: dict) -> int:
    results = doc["results"]
    _require(len(results) == len(req.ks), "one block per momentum expected")
    alpha = req.point.alpha
    for block, k in zip(results, req.ks):
        _require(block["k"] == k and block["theta"] == req.theta, "block does not echo k/theta")
        phi = _check_angles(block, req)
        cone = in_forward_cone(phi, req.theta)
        vals = block["smooth"]
        _require([v is None for v in vals] == cone.tolist(), "forward cone mismatch")
        got = np.array([_c(v) for v in vals if v is not None])
        off = phi[~cone]
        want = oracles.amplitude(req.point.physics, k, req.theta, off)
        err = np.abs(got - want) / _amplitude_scale(req, k, off)
        _require(bool(np.all(err <= VALUE_TOL)), f"amplitude off by {err.max():.2e} of scale at k={k}")
        for key, want1 in (("forward_delta_coeff", oracles.forward_delta_coeff(alpha, k)),
                           ("forward_pv_weight", oracles.flux_amplitude_weight(alpha, k))):
            _require(abs(_c(block[key]) - want1) <= 1e-12 * abs(want1) + 1e-300,
                     f"{key} differs from the closed form")
    return req.points_count()


def _grid_points(req: Request, block: dict, n_expected: int) -> np.ndarray:
    pts = np.asarray(block["points"], dtype=float)
    want = np.array([(r, a) for r in req.radii for a in angle_grid(req.angles)])
    _require(pts.shape == (n_expected, 2) and np.allclose(pts, want, rtol=1e-15, atol=1e-12),
             "evaluation grid differs from the request")
    return pts


def _check_eigenfunction(req: Request, doc: dict) -> int:
    (block,) = doc["results"]
    k = req.ks[0]
    n = len(req.radii) * req.angles
    _require(block["k"] == k and block["theta"] == req.theta, "block does not echo k/theta")
    pts = _grid_points(req, block, n)
    vals = block["psi"]
    _require(len(vals) == n, "one value per grid point expected")
    for i in subsample(n):
        r, phi = pts[i]
        want, scale = oracles.psi(req.point.physics, k, req.theta % (2.0 * math.pi), r, phi)
        err = abs(_c(vals[i]) - want) / scale
        _require(err <= VALUE_TOL, f"eigenfunction off by {err:.2e} at (r, phi)=({r:.4g}, {phi:.4g})")
    return req.points_count()


def program_cutoff(k_abs: float, r_outer: float) -> int:
    """The order at which the package cuts the kernel's partial-wave sum:
    ceil(z) + ceil(8 z^(1/3)) + 20 with z = |k| r_outer."""
    z = k_abs * r_outer
    return int(math.ceil(z) + math.ceil(8.0 * z ** (1.0 / 3.0)) + 20)


def _check_resolvent(req: Request, doc: dict) -> int:
    (block,) = doc["results"]
    n = len(req.radii) * req.angles
    _require(block["k"] == [req.ks[0], req.k_imag] and block["source"] == list(req.source),
             "block does not echo k or the source")
    pts = _grid_points(req, block, n)
    vals = block["kernel"]
    _require(len(vals) == n, "one value per grid point expected")
    bad, truncated = [], True
    for i in subsample(n):
        x = (float(pts[i][0]), float(pts[i][1]))
        got = _c(vals[i])
        want = oracles.kernel(req.point.physics, req.k_complex, x, req.source)
        err = abs(got - want) / abs(want)
        if not err <= KERNEL_TOL:
            bad.append((x, err))
            # The partial-wave sum converges only conditionally on the
            # source's ring r = rho, so a fixed truncation cannot reach it
            # there.  The known defect is that truncation and nothing else:
            # the value must equal the sum cut where the package cuts it.
            on_ring = abs(x[0] - req.source[0]) <= 1e-12 * req.source[0]
            cut = program_cutoff(abs(req.k_complex), max(x[0], req.source[0]))
            cut_want = oracles.kernel(req.point.physics, req.k_complex, x, req.source, cutoff=cut)
            truncated &= on_ring and abs(got - cut_want) <= KERNEL_TOL * abs(cut_want)
    if bad:
        x, err = max(bad, key=lambda b: b[1])
        raise CheckFailed(f"kernel off by {err:.2e} at (r, phi)=({x[0]:.4g}, {x[1]:.4g}) "
                          f"on {len(bad)} checked points", KERNEL_RING if truncated else UNEXPECTED)
    return req.points_count()


def _check_mixing(req: Request, doc: dict) -> int:
    results = doc["results"]
    _require(len(results) == len(req.ks), "one entry per momentum expected")
    for row, k in zip(results, req.ks):
        const, prob = oracles.mixing(req.point.physics, k)
        p01, p10 = row["prob_0_to_m1"], row["prob_m1_to_0"]
        _require(row["k"] == k and abs(row["constant"] - const) <= 1e-12 * const,
                 "mixing constant is not 8 k sin(pi alpha)")
        _require(abs(p01 - p10) <= 1e-12 * max(p01, p10), "mixing probabilities differ")
        if req.point.b == 0:
            _require(p01 == 0.0, "mixing is not zero at b = 0")
        else:
            _require(abs(p01 - prob) <= 1e-8 * prob, f"mixing probability {p01} against {prob}")
    return req.points_count()


def _grid_cell(e: float) -> int:
    return bisect.bisect_left(ROOT_GRID.tolist(), e)


def _check_spectrum(req: Request, doc: dict) -> int:
    res = doc["results"]
    energies = [float(e) for e in res["bound_states"]]
    _require(res["essential_spectrum"] == [0.0, "inf"], "essential spectrum is not [0, inf)")
    _require(len(energies) <= 2 and all(e < 0.0 for e in energies)
             and energies == sorted(energies) and len(res["residuals"]) == len(energies),
             f"malformed bound states {energies}")
    got = sorted(-e for e in energies)
    if req.point.b != 0:
        for e in got:
            resid = oracles.determinant_residual(req.point.physics, e)
            _require(resid <= DET_RESIDUAL_TOL, f"determinant residual {resid:.2e} at E={-e}")
        return len(got) + 1
    want = oracles.rot_invariant_roots(req.point.physics)
    unmatched = list(got)
    missed = []
    for e in want:
        hit = [g for g in unmatched if abs(g - e) <= ROOT_RTOL * e]
        if hit:
            unmatched.remove(hit[0])
        else:
            missed.append(e)
    _require(not unmatched, f"spurious bound states {unmatched} (closed form {want})")
    if missed:
        cells = [_grid_cell(e) for e in want]
        # A root outside the scanned range, or sharing a grid cell with the
        # other root (no sign change between grid points), is invisible to
        # the program's scan.
        explained = all(not 1e-12 <= e <= 1e8 or cells.count(_grid_cell(e)) > 1 for e in missed)
        raise CheckFailed(f"missed bound states at E={[-e for e in missed]}",
                          BOUND_STATE_MISS if explained else UNEXPECTED)
    return len(got) + 1


def _limit_error_matches(req: Request, rel: float) -> tuple[bool, float]:
    """Does validate's limit-oracle error equal the one the second route
    predicts for this point?  (The message prints four digits.)"""
    want = oracles.limit_oracle_error(req.point.physics, req.ks[0])
    return abs(rel - want) <= LIMIT_RTOL * want, want


def _check_validate(req: Request, doc: dict) -> int:
    res = doc["results"]
    rel = res["limit_oracle_rel_error"]
    _require(res["dual_path_samples"] == 50 and res["dual_path_ok"] is True
             and res["limit_oracle_ok"] is True and res["limit_oracle_tol"] == 2e-2
             and 0.0 <= rel < 2e-2, f"validate results inconsistent: {res}")
    same, want = _limit_error_matches(req, rel)
    _require(same, f"limit oracle rel error {rel:.4e}, second route {want:.4e}")
    return 1


_CHECKS = {
    "xsection": _check_xsection,
    "amplitude": _check_amplitude,
    "eigenfunction": _check_eigenfunction,
    "resolvent": _check_resolvent,
    "mixing": _check_mixing,
    "spectrum": _check_spectrum,
    "validate": _check_validate,
}

_LIMIT_ORACLE = re.compile(r"^abx: numerical failure: eigenfunction limit oracle failed: "
                           r"rel error (\S+) >= 2e-2$")


def judge(req: Request, code: int, stdout: str, stderr: str) -> Verdict:
    """Verdict on one CLI response."""
    err_line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if code != 0:
        limit = _LIMIT_ORACLE.match(err_line)
        if req.task == "validate" and code == 3 and limit and "Traceback" not in stderr:
            # The known defect: the task's own limit oracle errs by more than
            # its tolerance, by exactly as much as the second route predicts.
            same, want = _limit_error_matches(req, float(limit[1]))
            return Verdict(VALIDATE_ORACLE if same else UNEXPECTED, 0,
                           f"{err_line} (second route {want:.4e})")
        return Verdict(UNEXPECTED, 0, f"exit {code}: {err_line[:200]}")
    if stderr.strip():
        return Verdict(UNEXPECTED, 0, f"stderr on success: {err_line[:200]}")
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
        _check_header(req, doc)
        return Verdict(OK, _CHECKS[req.task](req, doc))
    except CheckFailed as exc:
        return Verdict(exc.cause, 0, str(exc))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(UNEXPECTED, 0, f"malformed output: {type(exc).__name__}: {exc}")


def judge_extract(req: Request, value: complex | None, error: BaseException | None) -> Verdict:
    """Verdict on one far-field extraction."""
    if error is not None:
        return Verdict(UNEXPECTED, 0, f"{type(error).__name__}: {error}")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return Verdict(UNEXPECTED, 0, "non-finite amplitude")
    want = complex(oracles.amplitude(req.point.physics, req.ks[0], req.theta, [req.phi])[0])
    rel = abs(value - want) / abs(want)
    if not rel <= EXTRACT_TOL:
        return Verdict(UNEXPECTED, 0, f"extraction off by {rel:.2e} relative")
    return Verdict(OK, 1)
