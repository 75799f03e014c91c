"""The benchmark's own response checks, run on the workloads it gates.

One cycle of scatter-dense and of field-grid at seeds 1-3, each request
shrunk to 64 angles and one momentum, goes through ``abx.cli.main`` in
this process and must pass ``perfbench/checks.judge``, whose second routes
(``perfbench/oracles``) share no code with ``abx``.  task-mix is left out:
its resolvent requests at the source's ring are known failures of the
program (``kernel-source-ring`` in ``perfbench/ledger.json``).
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402
import serve  # noqa: E402
import workloads  # noqa: E402

from abx import cli  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["scatter-dense", "field-grid"])
def test_gated_cycle_passes_the_benchmark_checks(workload, seed):
    failures = []
    for req in next(workloads.cycles(workload, seed)):
        req = workloads.shrink(req, 64, 1)
        resp = serve.cli_in_process(cli.main, req.argv())
        verdict = checks.judge(req, resp.code, resp.stdout, resp.stderr)
        if not verdict.ok:
            failures.append((req.task, req.point.kind, verdict.cause, verdict.detail))
    assert not failures, failures
