#!/usr/bin/env python3
"""Record reference output digests for pinned seeds.

    python3 perfbench/record_reference.py --seeds 0-10

Runs every request of every CLI workload (one block, as the benchmark
does at its default length) once, untraced, checks it with the oracles,
and writes perfbench/reference.json: workload -> seed -> one digest of
the canonical output per request.  Re-record only from a commit whose
outputs are trusted; the benchmark compares later commits against it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import run
from workloads import generate

CLI_WORKLOADS = ("cli-sums", "cli-families", "cli-exact")
BLOCKS = 1   # the list length at the benchmark's run_seconds
WORKERS = 2  # seeds recorded at once; timings do not matter here


def record_seed(workload: str, seed: int, blocks: int, tmp: Path) -> list[str]:
    digests = []
    for i, req in enumerate(generate(workload, seed, blocks)):
        d = tmp / f"{workload}-{seed}-{i:03d}"
        d.mkdir()
        for name, doc in req.files.items():
            (d / name).write_text(json.dumps(doc))
        o = run.spawn(run.cli_cmd(req.argv), d, run.REQUEST_TIMEOUT)
        dg = run.check(req, o, None, d)
        if o.problems:
            raise SystemExit(f"{workload} seed {seed} request {i} ({req.label}): "
                             f"{o.problems}")
        digests.append(dg)
    return digests


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-10", help="inclusive range, e.g. 0-10")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    jobs = [(w, s) for w in CLI_WORKLOADS for s in range(lo, hi + 1)]
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=WORKERS, mp_context=ctx) as pool:
            futures = {job: pool.submit(record_seed, *job, BLOCKS, Path(tmp))
                       for job in jobs}
            results = {job: fut.result() for job, fut in futures.items()}
    reference = {}
    for (w, s), digests in results.items():
        reference.setdefault(w, {})[str(s)] = digests
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
