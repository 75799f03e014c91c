"""Benchmark of abx: end-to-end task metrics, per-layer metrics and
checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single client sends one request at a time (closed loop) and waits for
it; at most two processes run, this one and one abx child.  Requests come
in cycles drawn from the seed (see workloads.py); a run measures whole
units until the next one would end after --seconds, where a unit is the
requests at one point (a whole cycle on task-mix).  Every response is
checked against a second route (checks.py, oracles.py).

--trace 0 runs CLI requests in fresh interpreters (far-field: in-process
extractions) and reports the end-to-end metrics.  --trace 1 replays a
fixed number of cycles in-process through abx.cli.main, once to warm up,
once plain and once with spans around every public layer function
(tracing.py), and reports the per-layer metrics, the import profile and
the baseline figures.  The last line of stdout is the JSON result; the lines before it
say the same for a reader, with sample counts and failures by cause.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import checks  # noqa: E402
from serve import Spawner, cli_in_process, extract_in_process  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, cycles  # noqa: E402

SETUP_SPAWNS = 3
IMPORT_SPAWNS = 5
TRACE_CYCLES = 1
# Module-name prefixes of the scipy packages abx imports eagerly but needs
# only in spectrum (brentq) and extension (quad).
LAZY_SCIPY = ("scipy.optimize", "scipy.integrate")


def _median(values) -> float:
    return float(statistics.median(values))


def latency_summary(lat: list[float]) -> tuple[float, float, float]:
    """(p50, tail, tail percentile).  The tail is the highest percentile
    with at least ten samples beyond it, and never below the median."""
    s = sorted(lat)
    n = len(s)
    if n - 11 >= (n - 1) / 2:
        return _median(s), s[n - 11], 100.0 * (n - 10) / n
    return _median(s), _median(s), 50.0


def load_ledger() -> dict:
    with open(os.path.join(HERE, "ledger.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Tally:
    """Verdicts of one run, by cause."""

    def __init__(self, workload: str, ledger: dict):
        self.workload = workload
        self.known = {c for c, entry in ledger["causes"].items() if workload in entry["share"]}
        self.ledger = ledger
        self.attempted = 0
        self.values = 0
        self.causes: dict[str, int] = {}
        self.details: list[str] = []

    def add(self, req, verdict: checks.Verdict) -> None:
        self.attempted += 1
        self.values += verdict.values
        if not verdict.ok:
            self.causes[verdict.cause] = self.causes.get(verdict.cause, 0) + 1
            if len(self.details) < 5:
                self.details.append(f"{req.task} at {req.point.kind} point: {verdict.detail}")

    @property
    def failed(self) -> int:
        return sum(self.causes.values())

    @property
    def correct(self) -> bool:
        return all(c in self.known for c in self.causes)

    def report(self) -> None:
        print(f"checks: {self.attempted - self.failed}/{self.attempted} responses passed")
        for cause in sorted(set(self.causes) | self.known):
            n = self.causes.get(cause, 0)
            entry = self.ledger["causes"].get(cause)
            expected = f"ledger share {entry['share'][self.workload]:.4f}" if cause in self.known \
                else "NOT IN LEDGER"
            print(f"failures[{cause}] = {n} ({n / self.attempted:.4f} of requests; {expected})")
        for line in self.details:
            print(f"  failed: {line}")


def units(workload: str, seed: int):
    """The request stream in the groups a timed run may end between: the
    requests at one point, so that a run keeps its task mix while it ends
    within one point's time of --seconds; on task-mix, whole cycles, so
    that every task runs equally often."""
    for cycle in cycles(workload, seed):
        if workload == "task-mix":
            yield cycle
        else:
            yield from (list(g) for _, g in itertools.groupby(cycle, key=lambda r: r.point))


def environment_line(abx_file: str) -> None:
    import numpy
    import scipy
    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} abx={abx_file}")


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def timed_run(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    spawner = Spawner(ROOT)
    setup = [spawner.ready_s() for _ in range(SETUP_SPAWNS)]
    in_process = workload == "far-field"
    if in_process:
        import abx
        environment_line(abx.__file__)
    else:
        environment_line(os.path.join(SRC, "abx", "__init__.py") + " (asserted in every child)")
    latencies: list[float] = []
    unit_s: list[float] = []
    start = time.perf_counter()
    for unit in units(workload, seed):
        t0 = time.perf_counter()
        for req in unit:
            if in_process:
                value, error, wall = extract_in_process(abx, req)
                verdict = checks.judge_extract(req, value, error)
            else:
                resp = spawner.cli(req)
                wall = resp.wall_s
                verdict = checks.judge(req, resp.code, resp.stdout, resp.stderr)
            latencies.append(wall)
            tally.add(req, verdict)
            print(f"request {req.task} at {req.point.kind} point: {wall:.4f} s, {verdict.cause}")
        unit_s.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.fmean(unit_s) > seconds:
            break
    p50, tail, tail_pct = latency_summary(latencies)
    n = len(latencies)
    print(f"run: {len(unit_s)} units, {n} requests, {time.perf_counter() - start:.2f} s")
    print(f"latency_p50_s = {p50:.4f} s over {n} requests")
    print(f"latency_tail_s = {tail:.4f} s at p{tail_pct:.1f} over {n} requests")
    print(f"setup_s = {_median(setup):.4f} s, median of {len(setup)} spawns")
    rss = _peak_rss_mb(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    return {
        "setup_s": (_median(setup), "s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail, "s"),
        "points_per_s": (tally.values / sum(latencies), "1/s"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }


def _importtime_entries(stderr: str) -> list[tuple[str, int, float, float]]:
    """(module, depth, self s, cumulative s) from ``python -X importtime``."""
    out = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        out.append((name.strip(), depth, float(self_us) * 1e-6, float(cum_us) * 1e-6))
    return out


def _subtree(entries, j: int) -> range:
    """Indices of entry j and its descendants (importtime prints post-order)."""
    i = j
    while i > 0 and entries[i - 1][1] > entries[j][1]:
        i -= 1
    return range(i, j + 1)


def import_profile(spawner: Spawner) -> dict:
    """import.* metrics: medians over fresh interpreters."""
    interp = _median([spawner.run(["-c", "pass"]).wall_s for _ in range(IMPORT_SPAWNS)])
    base = spawner.run(["-X", "importtime", "-c", "import numpy, scipy.special"])
    needed_anyway = {e[0] for e in _importtime_entries(base.stderr)}
    code = f"import sys; sys.path.insert(0, {SRC!r}); import abx"
    abx_s, lazy_s = [], []
    for _ in range(IMPORT_SPAWNS):
        entries = _importtime_entries(spawner.run(["-X", "importtime", "-c", code]).stderr)
        abx_s.append(sum(e[3] for e in entries if e[0] == "abx"))
        lazy = set()
        for j, e in enumerate(entries):
            if e[0].startswith(LAZY_SCIPY):
                lazy.update(i for i in _subtree(entries, j) if entries[i][0] not in needed_anyway)
        lazy_s.append(sum(entries[i][2] for i in lazy))
    return {
        "import.interpreter_s": (interp, "s"),
        "import.abx_s": (_median(abx_s), "s"),
        "import.scipy_lazy_s": (_median(lazy_s), "s"),
    }


def _per_call(fn, calls: int, repeats: int) -> float:
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls)
    return _median(per_call)


def baseline_figures(abx) -> dict:
    """The ROADMAP baseline table, at the acceptance suite's mixing point."""
    import numpy as np
    params, alpha, k, theta = abx.ExtensionParams.mixing(0.7), 0.45, 1.0, 0.4
    kk = abx.UpperHalfK(k, on_real_axis=True)
    phis = iter(np.tile(theta + np.linspace(0.5, 5.5, 97), 100).tolist())
    amp = abx.amplitude_u(params, alpha, k)
    orders = np.abs(np.arange(-1101, 1101) + alpha)
    from abx.specfun import bessel_j_orders
    t0 = time.perf_counter()
    abx.extract_amplitude(params, alpha, abx.PlaneWaveChannel(k, theta), theta + 1.1, 1000.0 / k)
    extract_s = time.perf_counter() - t0
    return {
        "baseline.p_of_k_us": (1e6 * _per_call(lambda: abx.p_of_k(params, alpha, kk), 200, 5), "us"),
        "baseline.cross_section_us": (
            1e6 * _per_call(lambda: abx.cross_section(params, alpha, k, theta, next(phis)), 200, 5), "us"),
        "baseline.amplitude_smooth_us": (1e6 * _per_call(lambda: amp.smooth(theta, 2.0), 2000, 5), "us"),
        "baseline.jv_ladder_ms": (1e3 * _per_call(lambda: bessel_j_orders(orders, 1000.0), 10, 5), "ms"),
        "baseline.extract_s_per_angle": (extract_s, "s"),
    }


def _replay(abx, requests) -> list:
    out = []
    for req in requests:
        if req.task == "extract":
            value, error, wall = extract_in_process(abx, req)
            out.append((req, (value, error), wall))
        else:
            resp = cli_in_process(abx.cli.main, req.argv())
            out.append((req, resp, resp.wall_s))
    return out


def traced_run(workload: str, seed: int, tally: Tally) -> dict:
    metrics = import_profile(Spawner(ROOT))
    import abx
    import abx.cli
    environment_line(abx.__file__)
    stream = cycles(workload, seed)
    requests = [req for _ in range(TRACE_CYCLES) for req in next(stream)]
    _replay(abx, requests)  # warm-up, so plain and traced both meet warm caches
    plain = _replay(abx, requests)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _replay(abx, requests)
    finally:
        tracer.uninstall()
    out_bytes = 0
    for (req, got, _), (_, ref, _) in zip(traced, plain):
        if req.task == "extract":
            verdict = checks.judge_extract(req, *got)
            same = got[0] == ref[0]
        else:
            verdict = checks.judge(req, got.code, got.stdout, got.stderr)
            same = (got.code, got.stdout, got.stderr) == (ref.code, ref.stdout, ref.stderr)
            out_bytes += len(got.stdout.encode())
        if not same:
            verdict = checks.Verdict(checks.UNEXPECTED, 0, "traced output differs from the plain run")
        tally.add(req, verdict)
    plain_s = sum(w for *_, w in plain)
    traced_s = sum(w for *_, w in traced)
    metrics.update(tracer.layer_metrics())
    metrics["cli.output_bytes"] = (out_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["trace.coverage"] = (tracer.covered_s / traced_s, "ratio")
    metrics.update(baseline_figures(abx))
    for cause in (checks.VALIDATE_ORACLE, checks.BOUND_STATE_MISS, checks.KERNEL_RING, checks.UNEXPECTED):
        metrics[f"failures.{cause}"] = (tally.causes.get(cause, 0), "count")
    print(f"traced replay: {len(requests)} requests, plain {plain_s:.3f} s, traced {traced_s:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="abx benchmark (see module docstring)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "abx", "__init__.py")):
        print(f"perfbench: no abx package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tally = Tally(args.workload, load_ledger())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        metrics = traced_run(args.workload, args.seed, tally)
    else:
        metrics = timed_run(args.workload, args.seed, args.seconds, tally)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    tally.report()
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
