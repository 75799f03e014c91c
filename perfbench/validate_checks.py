"""Validate the output checks against the program before they are trusted.

Runs every check over many seeded draws per kind of point (regular, b = 0,
coupled) and tallies the verdicts by cause.  Requests keep each workload's
point, momenta and k*r geometry but use fewer angles and momenta, so
thousands of draws fit in minutes.  A disagreement is traced either to the
oracle (fixed in oracles.py/checks.py) or to the program (a cause in
ledger.json).

    python3 perfbench/validate_checks.py --part cli
    python3 perfbench/validate_checks.py --part far-field

    python3 perfbench/validate_checks.py --part ledger

The first two run DRAWS draws per kind of point and write
perfbench/validation-<part>.json: the tally of verdicts, and each failure
in full, except that a cause which hits every draw of a check keeps one
example (the tally has its count).  The third turns both tallies into the
expected failure share of each known cause on each workload and writes it
into perfbench/ledger.json.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import abx  # noqa: E402
from abx.cli import main as abx_main  # noqa: E402

import checks  # noqa: E402
import serve  # noqa: E402
from workloads import KINDS, WORKLOADS, draw_point, point_requests, shrink  # noqa: E402

VALIDATION_SEED = 20261017
DRAWS = 1000
# Causes that hit every draw of their check: one example is evidence enough.
ONE_EXAMPLE = {checks.KERNEL_RING}
CLI_SHAPES = {"scatter-dense": (48, 2), "field-grid": (4, 1), "task-mix": (24, 3)}


def _requests(part: str, kind: str, draw: int):
    workloads = CLI_SHAPES if part == "cli" else {"far-field": None}
    for w_index, workload in enumerate(workloads):
        rng = np.random.default_rng([VALIDATION_SEED, KINDS.index(kind), draw, w_index])
        point = draw_point(rng, kind)
        for req in point_requests(workload, rng, point):
            yield workload, (shrink(req, *CLI_SHAPES[workload]) if part == "cli" else req)


def _judge(req):
    if req.task == "extract":
        value, error, _ = serve.extract_in_process(abx, req)
        return checks.judge_extract(req, value, error)
    resp = serve.cli_in_process(abx_main, req.argv())
    return checks.judge(req, resp.code, resp.stdout, resp.stderr)


def _load(name: str) -> dict:
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def write_ledger() -> None:
    """Share of requests failing by cause, per workload: the mean over the
    workload's (task, kind of point) pairs, which its cycles weigh equally."""
    tallies = [_load(f"validation-{part}.json")["tally"] for part in ("cli", "far-field")]
    ledger = _load("ledger.json")
    for cause, entry in ledger["causes"].items():
        share = {}
        for workload in WORKLOADS:
            rates = [counts.get(cause, 0) / sum(counts.values())
                     for tally in tallies for kind in KINDS
                     for check, counts in tally[kind].items() if check.startswith(workload + "/")]
            if any(rates):
                share[workload] = round(sum(rates) / len(rates), 4)
        entry["share"] = share
    with open(os.path.join(HERE, "ledger.json"), "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", choices=("cli", "far-field", "ledger"), required=True)
    args = ap.parse_args(argv)
    if args.part == "ledger":
        write_ledger()
        return 0
    tally = {kind: collections.defaultdict(collections.Counter) for kind in KINDS}
    failures = []
    examples = set()
    t0 = time.perf_counter()
    for kind in KINDS:
        for draw in range(DRAWS):
            for workload, req in _requests(args.part, kind, draw):
                verdict = _judge(req)
                tally[kind][f"{workload}/{req.task}"][verdict.cause] += 1
                if verdict.ok or verdict.cause in ONE_EXAMPLE and verdict.cause in examples:
                    continue
                examples.add(verdict.cause)
                p = req.point
                failures.append({"kind": kind, "draw": draw, "workload": workload, "task": req.task,
                                 "cause": verdict.cause, "detail": verdict.detail,
                                 "eta": p.eta, "a": [p.a.real, p.a.imag], "b": [p.b.real, p.b.imag],
                                 "alpha": p.alpha, "k": list(req.ks), "theta": req.theta})
        print(f"{kind}: {DRAWS} draws done at {time.perf_counter() - t0:.0f} s", flush=True)
    doc = {"seed": VALIDATION_SEED, "draws_per_kind": DRAWS,
           "tally": {kind: {check: dict(c) for check, c in sorted(t.items())} for kind, t in tally.items()},
           "failures": failures}
    with open(os.path.join(HERE, f"validation-{args.part}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    unexpected = sum(f["cause"] == checks.UNEXPECTED for f in failures)
    failed = sum(n for t in tally.values() for c in t.values() for cause, n in c.items() if cause != checks.OK)
    print(f"{failed} failed checks, {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
