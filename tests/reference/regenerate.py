"""Regenerate tests/reference/responses.json, the reference responses that
``tests/test_cli.py::test_reference_responses_replay`` replays.

    python tests/reference/regenerate.py

One cycle of scatter-dense, field-grid and task-mix at seeds 1-3, each
request shrunk to 8 angles and one momentum, goes through ``abx.cli.main``
in this process; each response's argv, exit code, stderr and parsed JSON
output is stored, one response per line.  The set pins today's values, so
running this is a deliberate act: do it only in a change that means to move
printed values, and let its diff show what moved.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402

from abx import cli  # noqa: E402

OUT = os.path.join(HERE, "responses.json")


def respond(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stderr": err.getvalue(),
            "output": json.loads(out.getvalue()) if out.getvalue() else None}


def main() -> None:
    argvs = [workloads.shrink(req, 8, 1).argv()
             for workload in ("scatter-dense", "field-grid", "task-mix")
             for seed in (1, 2, 3)
             for req in next(workloads.cycles(workload, seed))]
    lines = [json.dumps(respond(argv), sort_keys=True, separators=(",", ":")) for argv in argvs]
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"{len(lines)} responses written to {OUT}")


if __name__ == "__main__":
    main()
