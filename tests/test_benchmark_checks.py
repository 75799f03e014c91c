"""The benchmark's own response checks, run on the workloads it gates.

One cycle of scatter-dense, field-grid and task-mix at seeds 1-3, each
request shrunk to 64 angles and one momentum, goes through ``abx.cli.main``
in this process and is judged by ``perfbench/checks.judge``, whose second
routes (``perfbench/oracles``) share no code with ``abx``.  Every request
must pass, except task-mix's resolvent requests: their source lies on a
ring of the grid, where the program's kernel is a known failure
(``kernel-source-ring`` in ``perfbench/ledger.json``, ROADMAP item 3), and
each must fail exactly so.
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


def _verdicts(workload, seed):
    """(request, verdict) over one shrunk cycle of the workload."""
    for req in next(workloads.cycles(workload, seed)):
        req = workloads.shrink(req, 64, 1)
        resp = serve.cli_in_process(cli.main, req.argv())
        yield req, checks.judge(req, resp.code, resp.stdout, resp.stderr)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["scatter-dense", "field-grid"])
def test_gated_cycle_passes_the_benchmark_checks(workload, seed):
    failures = [(req.task, req.point.kind, verdict.cause, verdict.detail)
                for req, verdict in _verdicts(workload, seed) if not verdict.ok]
    assert not failures, failures


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_task_mix_cycle_fails_only_at_the_source_ring(seed):
    verdicts = [(req.task, verdict.cause) for req, verdict in _verdicts("task-mix", seed)]
    want = [(task, checks.KERNEL_RING if task == "resolvent" else checks.OK) for task, _ in verdicts]
    assert verdicts == want
    assert ("resolvent", checks.KERNEL_RING) in verdicts
