"""Command-line front end: parameter intake, batch grid evaluation, and
machine-readable (JSON/CSV) output.

Usage:
    abx --alpha 0.5 --eta 0 --a 0,0 --b 1,0 spectrum
    abx --alpha 0.3 --k 1.0 --angles 360 --format csv xsection
    abx --config run.cfg eigenfunction --out psi.json

A flat key=value config file may supply any flag's value, keyed by the
flag's name (k-imag or k_imag); an unknown key is an error.  Command-line
flags override the file.  Exit codes: 0 success, 2 validation error
(including an unreadable config file, an unwritable output path or a
request for more than 4e6 output values), 3 numerical failure
(near-eigenvalue momentum, a failed internal cross-check, overflow at
extreme momenta).  Each task evaluates its whole grid with one call per
momentum, so the coupling matrix p(k) is solved once per momentum.
Only the grid tasks, eigenfunction, resolvent and validate, load numpy.
Importing this module freezes its import-time heap (gc.freeze) for the
one task a CLI process runs, as the grid task that first imports specfun
(and numpy) does again; `import abx` leaves the GC alone.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import math
import sys
from typing import NamedTuple

from . import __version__
from .errors import ConsistencyError, ConvergenceError, NearEigenvalueError
from .extension import ExtensionParams, UpperHalfK, as_alpha, classify
from .krein import full_resolvent_kernel, p_of_k
from .scattering import (
    FORWARD_EPSILON,
    PlaneWaveChannel,
    _forward_cone,
    amplitude_u,
    channel_mixing,
    cross_section,
    psi_u,
)
from .spectrum import bound_states

# A CLI process runs one task and exits, and the modules imported above live
# until that exit: the cyclic collector, which runs at exit too, can skip them.
gc.freeze()

_PROVENANCE = {
    "branch": "principal logarithm of -k^2; real-axis values are limits from Im k > 0",
    "eigenfunction_phases": (
        "outgoing corrections use the quarter-angle cross-channel phase "
        "factors validated by the resolvent-kernel limit"
    ),
    "amplitude_sign": (
        "smooth amplitude carries exp(+i(phi-theta)) in the resonant "
        "denominator, fixed by asymptotic extraction"
    ),
    "mixing_constant": "8 k sin(pi alpha), the angle-integrated cross-channel cross section",
}

# The amplitude block's notes, printed as they stand until the output format
# may change (ROADMAP item 12): the second names a quarter-angle phase form
# that the rank-two correction does not use.
_AMPLITUDE_NOTES = (
    "smooth amplitude uses exp(+i(phi-theta)) in the resonant denominator; "
    "the sign is fixed by the numerical asymptotic-extraction check",
    "outgoing correction phases validated against the resolvent-kernel "
    "limit; quarter-angle form of the cross-channel phase factors",
)

# Most values one request may print: about 2 GB of output held in memory.
_MAX_OUTPUT_VALUES = 4_000_000

# Stands for the angle grid, which _render_json encodes once for all momenta.
_ANGLE_GRID = "\0angle grid"

_SPECTRUM_NOTES = (
    "essential spectrum [0, inf), purely absolutely continuous away from the "
    "listed eigenvalues; singular continuous part empty; wave operators exist "
    "and are complete. These are theory statements echoed as metadata, not "
    "computed here."
)


class RunConfig(NamedTuple):
    """Validated run configuration, built by parse_config; the defaults
    live in _OPTIONS."""

    task: str
    alpha: float
    params: ExtensionParams
    k_values: tuple[float, ...]
    k_imag: float
    theta: float
    angle_count: int
    radii: tuple[float, ...]
    source: tuple[float, float]
    fmt: str
    out: str | None


def _parse_complex_pair(text: str) -> complex:
    parts = _parse_float_list(text)
    if len(parts) > 2:
        raise ValueError(f"expected 're' or 're,im', got {text!r}")
    return complex(*parts)


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in str(text).split(",")]
    if not all(parts):
        raise ValueError(f"expected comma-separated numbers, got {text!r} with an empty entry")
    return tuple(float(p) for p in parts)


def _convert(merged, name: str, parse):
    """parse(merged[name]); a malformed value names its option."""
    try:
        return parse(merged[name])
    except ValueError as exc:
        raise ValueError(f"{name.replace('_', '-')}: {exc}") from None


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


# Every option but --config and --version: name -> (default, help).  A name
# is a config-file key and, with - for _, a flag; values from either stay
# strings until parse_config converts and checks them.
_OPTIONS = {
    "alpha": ("0.5", "flux parameter in (0, 1)"),
    "eta": ("0.0", "overall phase of the channel map (radians)"),
    "a": ("-1,0", "diagonal parameter a as re,im"),
    "b": ("0,0", "coupling parameter b as re,im"),
    "k": ("1.0", "comma-separated momenta k > 0"),
    "k_imag": ("0.0", "imaginary part of k (resolvent task only)"),
    "theta": ("0.0", "incidence angle (radians)"),
    "angles": ("360", "number of angular grid points on [0, 2pi)"),
    "radii": ("0.5,1.0,2.0,4.0", "comma-separated radial grid"),
    "source": ("1.0,0.0", "resolvent source point as r,phi"),
    "format": ("json", "output format, json or csv"),
    "out": (None, "output path (default: stdout)"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="abx",
        description="Self-adjoint flux-line Hamiltonians: spectra, eigenfunctions, scattering.",
    )
    ap.add_argument("--config", help="flat key=value config file; flags override it")
    for name, (_, text) in _OPTIONS.items():
        ap.add_argument("--" + name.replace("_", "-"), help=text)
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("task", nargs="?", help=f"computation to run: {', '.join(TASKS)} "
                    "(may also come from the config file)")
    return ap


def parse_config(argv) -> RunConfig:
    """Build a validated RunConfig from flags plus an optional config
    file (flags win)."""
    ns = build_parser().parse_args(argv)
    merged = {name: default for name, (default, _) in _OPTIONS.items()}
    if ns.config:
        for key, val in _read_config_file(ns.config).items():
            name = key.replace("-", "_")
            if name not in _OPTIONS and name != "task":
                raise ValueError(f"{ns.config}: unknown key {key!r}")
            merged[name] = val
    merged.update((name, val) for name, val in vars(ns).items()
                  if name in _OPTIONS and val is not None)
    task = ns.task or merged.get("task")
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")

    if merged["format"] not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, got {merged['format']!r}")
    alpha = as_alpha(_convert(merged, "alpha", float))
    params = ExtensionParams(
        _convert(merged, "eta", float),
        _convert(merged, "a", _parse_complex_pair),
        _convert(merged, "b", _parse_complex_pair),
    )
    k_values = _convert(merged, "k", _parse_float_list)
    for k in k_values:
        if not (math.isfinite(k) and k > 0):
            raise ValueError(f"momenta must be positive, got {k}")
    radii = _convert(merged, "radii", _parse_float_list)
    source = _convert(merged, "source", _parse_float_list)
    if len(source) != 2:
        raise ValueError("source must be r,phi")
    k_imag = _convert(merged, "k_imag", float)
    theta = _convert(merged, "theta", float)
    if not all(math.isfinite(v) for v in (k_imag, theta, *source, *radii)):
        raise ValueError("k-imag, theta, source and radii must be finite")
    if k_imag < 0:
        raise ValueError(f"k-imag must be >= 0 (k lies in the upper half-plane), got {k_imag}")
    angle_count = _convert(merged, "angles", int)
    if angle_count < 1:
        raise ValueError(f"angle grid needs at least 1 point, got {angle_count}")
    grid = {"xsection": angle_count, "amplitude": angle_count, "mixing": 1,
            "eigenfunction": len(radii) * angle_count, "resolvent": len(radii) * angle_count}
    if (count := len(k_values) * grid.get(task, 0)) > _MAX_OUTPUT_VALUES:
        raise ValueError(f"{task} would print {count} values, above the limit of {_MAX_OUTPUT_VALUES}")
    return RunConfig(
        task=task,
        alpha=alpha,
        params=params,
        k_values=k_values,
        k_imag=k_imag,
        theta=theta,
        angle_count=angle_count,
        radii=radii,
        source=source,
        fmt=merged["format"],
        out=merged["out"],
    )


@functools.lru_cache(maxsize=1)
def _angle_grid(n: int) -> tuple:
    # half-open [0, 2 pi), cell-centered so the forward direction is not
    # sampled exactly; built once per request
    step = 2.0 * math.pi / n
    return tuple((i + 0.5) * step for i in range(n))


def _c2l(z: complex) -> list:
    """A complex value as [re, im]."""
    return [z.real, z.imag]


def _param_header(cfg: RunConfig) -> dict:
    p = cfg.params
    return {
        "alpha": cfg.alpha,
        "eta": p.eta,
        "a": _c2l(p.a),
        "b": _c2l(p.b),
        "class": classify(p).value,
    }


def _task_spectrum(cfg: RunConfig):
    s = bound_states(cfg.params, cfg.alpha)
    results = {
        "bound_states": [st.energy for st in s.bound_states],
        "residuals": [st.residual for st in s.bound_states],
        "zero_resonance": s.zero_resonance,
        "essential_spectrum": [0.0, "inf"],
        "notes": _SPECTRUM_NOTES,
    }
    rows = ([st.energy, st.residual] for st in s.bound_states)
    cols = ["energy", "residual"]
    meta = [f"zero_resonance={s.zero_resonance}", "essential_spectrum=[0,inf)"]
    return results, cols, rows, meta


def _task_mixing(cfg: RunConfig):
    def one(k):
        mix = channel_mixing(cfg.params, cfg.alpha, k)
        return {"k": k, "prob_0_to_m1": mix.prob_0_to_m1,
                "prob_m1_to_0": mix.prob_m1_to_0, "constant": mix.constant}

    results = [one(k) for k in cfg.k_values]
    cols = ["k", "prob_0_to_m1", "prob_m1_to_0", "constant"]
    rows = ([r["k"], r["prob_0_to_m1"], r["prob_m1_to_0"], r["constant"]] for r in results)
    return results, cols, rows, []


def _off_cone(theta: float, angles: tuple) -> tuple[list, list]:
    """The forward-cone mask over the angle grid and the angles off the cone."""
    cone = _forward_cone(theta, angles)
    return cone, [phi for phi, inside in zip(angles, cone) if not inside]


def _spread(cone: list, values: list) -> list:
    """The values at the off-cone angles over the whole grid, None inside the cone."""
    vals = iter(values)
    return [None if inside else next(vals) for inside in cone]


def _task_xsection(cfg: RunConfig):
    angles = _angle_grid(cfg.angle_count)
    cone, off = _off_cone(cfg.theta, angles)
    results = [{"k": k, "theta": cfg.theta, "phi": _ANGLE_GRID,
                "dsigma_dphi": _spread(cone, cross_section(cfg.params, cfg.alpha, k, cfg.theta, off)),
                "forward_excluded": cone} for k in cfg.k_values]
    cols = ["k", "theta", "phi", "dsigma_dphi", "in_forward_cone"]
    rows = ([r["k"], r["theta"], phi, "" if v is None else v, v is None]
            for r in results for phi, v in zip(angles, r["dsigma_dphi"]))
    meta = [f"forward_cone_halfwidth={FORWARD_EPSILON}"]
    return results, cols, rows, meta


def _task_amplitude(cfg: RunConfig):
    angles = _angle_grid(cfg.angle_count)
    cone, off = _off_cone(cfg.theta, angles)
    results = []
    for k in cfg.k_values:
        amp = amplitude_u(cfg.params, cfg.alpha, k)
        results.append({"k": k, "theta": cfg.theta, "phi": _ANGLE_GRID,
                        "smooth": _spread(cone, [_c2l(f) for f in amp.smooth(cfg.theta, off)]),
                        "forward_delta_coeff": _c2l(amp.forward_delta_coeff),
                        "forward_pv_weight": _c2l(amp.forward_pv_weight),
                        "notes": list(_AMPLITUDE_NOTES)})
    cols = ["k", "theta", "phi", "f_re", "f_im", "in_forward_cone"]
    rows = ([r["k"], r["theta"], phi, *(["", ""] if v is None else v), v is None]
            for r in results for phi, v in zip(angles, r["smooth"]))
    return results, cols, rows, []


def _task_eigenfunction(cfg: RunConfig):
    angles = _angle_grid(cfg.angle_count)
    points = [[r, phi] for r in cfg.radii for phi in angles]
    results = []
    for k in cfg.k_values:
        vals = psi_u(cfg.params, cfg.alpha, PlaneWaveChannel(k, cfg.theta), cfg.radii, angles)
        results.append({"k": k, "theta": cfg.theta, "points": points,
                        "psi": [_c2l(v) for v in vals.ravel().tolist()]})
    cols = ["k", "theta", "r", "phi", "psi_re", "psi_im"]
    rows = ([r["k"], r["theta"], *p, *v] for r in results for p, v in zip(r["points"], r["psi"]))
    return results, cols, rows, []


def _task_resolvent(cfg: RunConfig):
    angles = _angle_grid(cfg.angle_count)
    points = [[r, phi] for r in cfg.radii for phi in angles]
    y = cfg.source
    results = []
    for k in cfg.k_values:
        kk = UpperHalfK(complex(k, cfg.k_imag))
        vals = full_resolvent_kernel(cfg.params, cfg.alpha, kk, (cfg.radii, angles), y)
        results.append({"k": [k, cfg.k_imag], "source": list(y), "points": points,
                        "kernel": [_c2l(v) for v in vals.ravel().tolist()]})
    cols = ["k_re", "k_im", "src_r", "src_phi", "r", "phi", "kernel_re", "kernel_im"]
    rows = ([*r["k"], *r["source"], *p, *v] for r in results for p, v in zip(r["points"], r["kernel"]))
    return results, cols, rows, []


def _task_validate(cfg: RunConfig):
    """Dual-path coupling/determinant cross-checks plus one
    resolvent-limit sample of the eigenfunction closed form."""
    from .specfun import hankel1_orders, np
    rng = np.random.default_rng(20240811)
    for _ in range(50):
        g = rng.normal(size=4)
        n = math.hypot(math.hypot(g[0], g[1]), math.hypot(g[2], g[3]))
        params = ExtensionParams(rng.uniform(-math.pi, math.pi),
                                 complex(g[0], g[1]) / n, complex(g[2], g[3]) / n)
        alpha = rng.uniform(0.05, 0.95)
        k = UpperHalfK(complex(rng.uniform(-10, 10), rng.uniform(0.1, 10)))
        # raises ConsistencyError if either dual-path check (p or D) fails
        p_of_k(params, alpha, k)

    alpha = cfg.alpha
    params = cfg.params
    k = cfg.k_values[0]
    theta, r, phi = 0.4, 1.2, 1.6
    rho = 300.0 / k
    kc = UpperHalfK(complex(k, 1e-6 * k))
    chan = PlaneWaveChannel(k, theta)
    limit = (4.0 / (1j * complex(hankel1_orders(0.0, kc * rho)))
             * full_resolvent_kernel(params, alpha, kc, (r, phi), (rho, theta + math.pi)))
    closed = psi_u(params, alpha, chan, r, phi)
    rel = float(abs(limit - closed) / max(abs(closed), 1e-300))
    ok = bool(rel < 2e-2)
    results = {
        "dual_path_samples": 50,
        "dual_path_ok": True,
        "limit_oracle_rel_error": rel,
        "limit_oracle_tol": 2e-2,
        "limit_oracle_ok": ok,
    }
    if not ok:
        raise ConsistencyError(
            f"eigenfunction limit oracle failed: rel error {rel:.3e} >= 2e-2"
        )
    rows = [[50, rel]]
    cols = ["dual_path_samples", "limit_oracle_rel_error"]
    return results, cols, rows, []


_TASK_FNS = {
    "spectrum": _task_spectrum,
    "amplitude": _task_amplitude,
    "xsection": _task_xsection,
    "eigenfunction": _task_eigenfunction,
    "resolvent": _task_resolvent,
    "mixing": _task_mixing,
    "validate": _task_validate,
}
TASKS = tuple(_TASK_FNS)


def _render_json(cfg: RunConfig, results) -> str:
    doc = {
        "task": cfg.task,
        "params": _param_header(cfg),
        "results": results,
        "diagnostics": {
            "tolerances": {"forward_cone": FORWARD_EPSILON},
            "k_values": list(cfg.k_values),
            "theta": cfg.theta,
        },
        "provenance": _PROVENANCE,
    }
    head, *tails = json.dumps(doc, sort_keys=True).split(json.dumps(_ANGLE_GRID))
    grid = json.dumps(_angle_grid(cfg.angle_count)) if tails else ""
    return grid.join([head, *tails]) + "\n"


def _render_csv(cfg: RunConfig, cols, rows, meta) -> str:
    """The task's rows, each led by the run's provenance columns."""
    import csv
    buf = io.StringIO()
    p = cfg.params
    buf.write(f"# task={cfg.task}\n")
    buf.write(f"# alpha={cfg.alpha!r} eta={p.eta!r} a={p.a!r} b={p.b!r}\n")
    for line in meta:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha", "eta", "a_re", "a_im", "b_re", "b_im"] + cols)
    prov = [cfg.alpha, p.eta, p.a.real, p.a.imag, p.b.real, p.b.imag]
    writer.writerows(prov + row for row in rows)
    return buf.getvalue()


def run(config: RunConfig) -> int:
    """Dispatch the configured task and write its output."""
    if config.task in ("eigenfunction", "resolvent", "validate") and "abx.specfun" not in sys.modules:
        from . import specfun  # noqa: F401  (and numpy), which live until exit too
        gc.freeze()  # once: later in-process calls leave the caller's garbage collectable
    results, cols, rows, meta = _TASK_FNS[config.task](config)
    text = (_render_json(config, results) if config.fmt == "json"
            else _render_csv(config, cols, rows, meta))
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    try:
        config = parse_config(argv if argv is not None else sys.argv[1:])
    except (ValueError, OSError) as exc:  # OSError: the config file cannot be read
        print(f"abx: invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except ValueError as exc:
        print(f"abx: invalid request: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the output file cannot be written
        print(f"abx: invalid output: {exc}", file=sys.stderr)
        return 2
    except (NearEigenvalueError, ConvergenceError, ConsistencyError) as exc:
        print(f"abx: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # overflow at extreme momenta
        print(f"abx: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
