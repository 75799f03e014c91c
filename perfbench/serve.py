"""The three ways the benchmark sends a request to abx.

* ``Spawner.cli`` runs the CLI in a fresh interpreter, so start-up counts.
* ``cli_in_process`` calls ``abx.cli.main`` in this interpreter.
* ``extract_in_process`` calls ``abx.extract_amplitude`` in this interpreter.

Each returns the wall time of the request alone; checking happens later.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from workloads import FAR_FIELD_KR, Request

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150.0


@dataclass
class Response:
    code: int
    stdout: str
    stderr: str
    wall_s: float


def child_env() -> dict[str, str]:
    """The environment of every child: ABX_THREADS unset, so only the
    serial path is measured."""
    env = dict(os.environ)
    env.pop("ABX_THREADS", None)
    return env


class Spawner:
    """Runs abx requests in fresh interpreters from one checkout."""

    def __init__(self, root: str):
        self.root = root
        self.env = child_env()

    def run(self, args: list[str]) -> Response:
        cmd = [sys.executable, *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        return Response(proc.returncode, proc.stdout, proc.stderr, wall)

    def cli(self, req: Request) -> Response:
        return self.run([CHILD, *req.argv()])

    def ready_s(self) -> float:
        """Spawn-to-ready time: a fresh interpreter that has imported
        abx.cli from this checkout."""
        resp = self.run([CHILD, "--ready"])
        if resp.code != 0:
            raise RuntimeError(f"child could not import abx from {self.root}/src: {resp.stderr[-400:]}")
        return resp.wall_s


def cli_in_process(main, argv: list[str]) -> Response:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # where the CLI would die with a traceback
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - t0
    return Response(code, out.getvalue(), err.getvalue(), wall)


def extract_in_process(abx, req: Request) -> tuple[complex | None, BaseException | None, float]:
    """One far-field extraction at k * r_max = 1000."""
    p = req.point
    params = abx.ExtensionParams(p.eta, p.a, p.b)
    chan = abx.PlaneWaveChannel(req.ks[0], req.theta)
    t0 = time.perf_counter()
    try:
        value = abx.extract_amplitude(params, p.alpha, chan, req.phi, FAR_FIELD_KR / req.ks[0])
        error = None
    except Exception as exc:  # a failed request is counted, not fatal
        value, error = None, exc
    return value, error, time.perf_counter() - t0
