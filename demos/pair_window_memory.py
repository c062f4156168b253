"""Peak memory and pair products of the pair cache against an earlier commit.

Extracts the commit ``--parent`` (default ``HEAD~1``) of this repository
with ``git archive`` into a scratch directory and runs each measurement
as a subprocess of each tree in turn, alternating which tree goes first
from pair to pair.  Every process runs with one BLAS thread.  The
measurements are:

- ``pls_d<d>``: one local linear ``select_pls`` at n = 1000 with d
  covariates (``--dims``) on a fixed additive sample, y = sum_j
  sin(2 pi x_j) + N(0, 0.5^2), with x uniform on [0, 1]^d;
- ``m1``: ``--replicates`` in-process m1 replicates (n = 200, rho = 0.5,
  the selectors ase, pls, pl and pl_star on one workspace each), as one
  serial ``run_study``.

Each records the child's peak resident memory, its pair products (calls of
``_engine._pair_product``), the blocks left in the last workspace's pair
cache, and the sha256 of its result (bandwidths, criteria and traces for
pls; the study's replicate records for m1).  With ``--harness-pairs K``,
it also runs ``benchmarks/run.py`` of each tree K times per workload in
``--workloads``, alternating as above, with the seeds 300, 301, ... and
``--seconds`` per run, and records every end-to-end metric.

Run from the root of a checkout (the defaults take about 2 minutes on a
2-core machine; each harness pair adds about twice ``--seconds`` plus
set-up)::

    python3 demos/pair_window_memory.py --out -
    python3 demos/pair_window_memory.py --harness-pairs 10 --out BENCH_pair_window.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from scan_major_pairs import BLAS_ENV, extract

ROOT = Path(__file__).resolve().parent.parent

# Run in the child, on the tree named by PYTHONPATH: argv[1] is the
# measurement, argv[2] its size (d, or the replicate count).
CHILD = r"""
import hashlib, json, pickle, sys
import numpy as np
import smoothfit as sf
from smoothfit import _engine

products = 0
product = _engine._pair_product
def counting(*args):
    global products
    products += 1
    return product(*args)
_engine._pair_product = counting
# Only the newest workspace is kept, so that the peak is the study's own.
last = None
workspace = _engine.Workspace
def keeping(*args):
    global last
    last = workspace(*args)
    return last
_engine.Workspace = keeping

kind, size = sys.argv[1], int(sys.argv[2])
if kind == "pls":
    rng = np.random.default_rng([0, size])
    x = rng.uniform(0.0, 1.0, (1000, size))
    y = np.sin(2 * np.pi * x).sum(axis=1) + rng.normal(0.0, 0.5, 1000)
    data = sf.Dataset(x=x, y=y)
    spec = sf.BandwidthSearchSpec.for_sample_size(data.n, data.d)
    sel = sf.select_pls(data, "ll", spec)
    out = {"bandwidths": sel.bandwidths.tolist(), "iterations": sel.outer_iterations}
    digest = pickle.dumps((sel.bandwidths, sel.criterion, sel.trace, sel.flags))
else:
    cfg = sf.SimConfig(model="m1", n=200, rho=0.5, replicates=size, seed=9217,
                       selectors=("ase", "pls", "pl", "pl_star"))
    report = sf.run_study(cfg)
    out = {}
    digest = pickle.dumps(report.replicates)
out.update(products=products, pairs_left=len(last._pairs),
           sha256=hashlib.sha256(digest).hexdigest())
print(json.dumps(out))
"""


def run_child(tree: Path, kind: str, size: int) -> dict:
    """One measurement in a subprocess on ``tree``'s sources, with its
    wall seconds and peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_ENV)
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD, kind, str(size)], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.stdout.close()
        if os.waitstatus_to_exitcode(status) != 0:
            err.seek(0)
            raise RuntimeError(f"{kind} {size} failed in {tree}:\n{err.read().decode()}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result.update(s=round(seconds, 3), rss_mb=round(usage.ru_maxrss / 1024.0, 1))
    return result


def run_harness(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py`` run of ``tree``: its end-to-end metrics
    and whether its checks passed."""
    argv = [sys.executable, str(tree / "benchmarks" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, env=dict(os.environ, **BLAS_ENV),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} failed in {tree}:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"],
            **{name: metric["value"] for name, metric in doc["metrics"].items()}}


def alternate(trees: dict, count: int, measure) -> list:
    """``count`` pairs of ``measure(tree, k)``, parent first in even pairs."""
    runs = []
    for k in range(count):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        runs.append({side: measure(trees[side], k) for side in sides})
    return [{side: run[side] for side in ("parent", "change")} for run in runs]


def summary(runs: list, metric: str) -> dict:
    """Each side's median of ``metric``, the pairs where the change read
    lower, and the spread between the parent's quartiles."""
    values = {side: [run[side][metric] for run in runs] for side in ("parent", "change")}
    med = {side: statistics.median(v) for side, v in values.items()}
    wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
    quartiles = statistics.quantiles(values["parent"], n=4) if len(runs) > 1 else [0, 0, 0]
    return {"median": med, "change_wins": wins, "pairs": len(runs),
            "parent_quartile_spread": quartiles[2] - quartiles[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--dims", default="3,6,10", help="d of the n = 1000 pls runs")
    parser.add_argument("--replicates", type=int, default=12, help="m1 replicates per run")
    parser.add_argument("--pairs", type=int, default=2, help="pairs per measurement")
    parser.add_argument("--harness-pairs", type=int, default=0)
    parser.add_argument("--workloads", default="m1_study_n200,select_n20000,m2_study_pool")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", default="-", help="JSON output path, - for stdout")
    args = parser.parse_args(argv)
    jobs = [("pls", int(d)) for d in args.dims.split(",")] + [("m1", args.replicates)]
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"parent": Path(scratch) / "parent", "change": ROOT}
        parent = extract(args.parent, trees["parent"])
        results = {}
        for kind, size in jobs:
            name = f"pls_d{size}" if kind == "pls" else "m1"
            runs = alternate(trees, args.pairs, lambda tree, k: run_child(tree, kind, size))
            for run in runs:
                print(f"{name}: " + ", ".join(f"{side} {run[side]['rss_mb']} MB "
                                              f"{run[side]['products']} products"
                                              for side in run), file=sys.stderr)
            results[name] = {"runs": runs, "rss_mb": summary(runs, "rss_mb")}
        harness = {}
        for workload in filter(None, args.workloads.split(",")) if args.harness_pairs else []:
            runs = alternate(trees, args.harness_pairs,
                             lambda tree, k: run_harness(tree, workload, 300 + k, args.seconds))
            metrics = [m for m in runs[0]["parent"] if m not in ("correct", "attempted", "failed")]
            harness[workload] = {"runs": runs,
                                 "summary": {m: summary(runs, m) for m in metrics}}
            print(f"{workload}: " + json.dumps(harness[workload]["summary"]), file=sys.stderr)
    doc = {
        "script": "demos/pair_window_memory.py",
        "parent": parent,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, one BLAS thread per process",
        "results": results,
    }
    if harness:
        doc["harness"] = {"seconds": args.seconds, "seeds": f"300..{299 + args.harness_pairs}",
                          "workloads": harness}
    text = json.dumps(doc, indent=2)
    if args.out == "-":
        print(text)
    else:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
