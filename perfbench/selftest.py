"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

* the same seed gives the same request stream, another seed another;
* each check rejects a perturbed output: a flipped amplitude sign, a
  dropped bound state, an inserted NaN;
* a known-defect cause is given only to a failure of the defect's own size:
  a ring kernel value or a validate error that the defect does not predict
  is unexpected;
* traced p_of_k calls on scatter-dense requests equal the momentum x angle
  points outside the forward cone (xsection) or the momenta (amplitude).
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import abx  # noqa: E402
import abx.cli  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
from serve import cli_in_process, extract_in_process  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Request, cycles, draw_point, shrink  # noqa: E402


def _first(workload: str, seed: int, n: int = 2) -> list:
    stream = cycles(workload, seed)
    return [next(stream) for _ in range(n)]


def test_seed_determines_stream():
    for workload in WORKLOADS:
        assert _first(workload, 7) == _first(workload, 7), workload
        assert _first(workload, 7) != _first(workload, 8), workload


def _request(workload: str, task: str, kind: str, seed: int = 3) -> Request:
    for cycle in cycles(workload, seed):
        for req in cycle:
            if req.task == task and req.point.kind == kind:
                return req
    raise AssertionError("unreachable")


def _judge_doc(req: Request, doc: dict) -> checks.Verdict:
    return checks.judge(req, 0, json.dumps(doc), "")


def _run(req: Request) -> dict:
    resp = cli_in_process(abx.cli.main, req.argv())
    assert checks.judge(req, resp.code, resp.stdout, resp.stderr).ok, resp.stderr
    return json.loads(resp.stdout)


def test_flipped_amplitude_sign_is_rejected():
    req = shrink(_request("scatter-dense", "amplitude", "coupled"), 90, 2)
    doc = _run(req)
    block = doc["results"][1]
    block["smooth"] = [None if v is None else [-v[0], -v[1]] for v in block["smooth"]]
    assert not _judge_doc(req, doc).ok
    far = _request("far-field", "extract", "coupled")
    value, error, _ = extract_in_process(abx, far)
    assert checks.judge_extract(far, value, error).ok
    assert not checks.judge_extract(far, -value, None).ok


def test_dropped_bound_state_is_rejected():
    rng = np.random.default_rng(11)
    while True:
        point = draw_point(rng, "b0")
        roots = oracles.rot_invariant_roots(point.physics)
        if roots and all(1e-10 < e < 1e6 for e in roots):
            break
    req = Request("spectrum", point, 1.0, (1.0,))
    doc = _run(req)
    assert len(doc["results"]["bound_states"]) == len(roots)
    doc["results"]["bound_states"].pop(0)
    doc["results"]["residuals"].pop(0)
    verdict = _judge_doc(req, doc)
    assert verdict.cause == checks.UNEXPECTED, verdict


def test_inserted_nan_is_rejected():
    for workload, task in (("scatter-dense", "xsection"), ("field-grid", "eigenfunction")):
        req = shrink(_request(workload, task, "b0"), 16, 1)
        resp = cli_in_process(abx.cli.main, req.argv())
        assert checks.judge(req, resp.code, resp.stdout, resp.stderr).ok
        doc = json.loads(resp.stdout)
        key = "dsigma_dphi" if task == "xsection" else "psi"
        i = 3  # not in the eigenfunction's checked subsample of a 6 x 16 grid
        doc["results"][0][key][i] = math.nan if task == "xsection" else [math.nan, 0.0]
        assert not _judge_doc(req, doc).ok, task


def test_known_defects_are_tied_to_their_size():
    req = shrink(_request("task-mix", "resolvent", "coupled"), 8, 1)
    resp = cli_in_process(abx.cli.main, req.argv())
    assert checks.judge(req, resp.code, resp.stdout, resp.stderr).cause == checks.KERNEL_RING
    doc = json.loads(resp.stdout)
    on_ring = [i for i, (r, _) in enumerate(doc["results"][0]["points"]) if r == req.source[0]]
    v = doc["results"][0]["kernel"][on_ring[0]]
    doc["results"][0]["kernel"][on_ring[0]] = [1.01 * v[0], 1.01 * v[1]]
    verdict = _judge_doc(req, doc)
    assert verdict.cause == checks.UNEXPECTED, verdict
    req = _request("task-mix", "validate", "regular")
    want = oracles.limit_oracle_error(req.point.physics, req.ks[0])
    for rel, cause in ((want, checks.VALIDATE_ORACLE), (1.1 * want, checks.UNEXPECTED)):
        err = f"abx: numerical failure: eigenfunction limit oracle failed: rel error {rel:.3e} >= 2e-2\n"
        assert checks.judge(req, 3, "", err).cause == cause, (rel, cause)


def test_traced_p_of_k_calls_match_points():
    for task in ("xsection", "amplitude"):
        req = _request("scatter-dense", task, "coupled")
        req = replace(req, angles=720, theta=math.pi / 720)  # puts one angle in the forward cone
        tracer = Tracer()
        tracer.install()
        try:
            resp = cli_in_process(abx.cli.main, req.argv())
        finally:
            tracer.uninstall()
        assert checks.judge(req, resp.code, resp.stdout, resp.stderr).ok
        outside = int(np.sum(~checks.in_forward_cone(checks.angle_grid(req.angles), req.theta)))
        assert outside == req.angles - 1
        want = len(req.ks) * (outside if task == "xsection" else 1)
        assert tracer.p_of_k_calls == want, (task, tracer.p_of_k_calls, want)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
