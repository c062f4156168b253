"""Alternating-pair timings of ``smoothfit select`` against an earlier commit.

Extracts the commit ``--parent`` (default ``HEAD~1``) of this repository
with ``git archive`` into a scratch directory, draws the benchmark's m1
sample (``benchmarks/truth.sample_m1``, rho = 0.5, fixed draw, rows
permuted by ``--seed``) at each size, and runs ``smoothfit select`` as a
subprocess of each tree in turn, alternating which tree goes first from
pair to pair.  Every process runs with one BLAS thread.  For each size and
method it records each pair's wall times and peak resident memory, how
many pairs the working tree won, the medians, and the sha256 of every
output JSON of each tree.

Run from the root of a checkout (it takes 2 to 3 minutes with the
defaults on a 2-core machine)::

    python3 demos/scan_major_pairs.py --out BENCH_scan_major.json
    python3 demos/scan_major_pairs.py --sizes 20000 --pairs 4 --out -
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import truth  # noqa: E402

METHODS = {
    "pls": ("--method", "pls"),
    "nw_pls": ("--smoother", "nw", "--method", "pls"),
}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def extract(rev: str, dest: Path) -> str:
    """The tree of ``rev`` under ``dest`` (no worktree is registered);
    returns the full commit hash."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    tar = dest.with_suffix(".tar")
    tar.write_bytes(archive)
    with tarfile.open(tar) as fh:
        fh.extractall(dest, filter="data")
    tar.unlink()
    return commit


def run_select(tree: Path, csv: Path, flags, out: Path) -> dict:
    """One ``smoothfit select`` subprocess on ``tree``'s sources: wall
    seconds, peak RSS in MB and the sha256 of the JSON it wrote."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_ENV)
    argv = [sys.executable, "-m", "smoothfit", "select", str(csv), *flags, "--out", str(out)]
    out.unlink(missing_ok=True)
    err = out.with_suffix(".stderr")
    with open(err, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=fh)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"select failed in {tree}:\n{err.read_text(errors='replace')}")
    return {
        "s": round(seconds, 4),
        "rss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--sizes", default="20000,100000")
    parser.add_argument("--pairs", type=int, nargs="+", default=[10, 4],
                        help="pairs per method at each size (one value for all)")
    parser.add_argument("--seed", type=int, default=1, help="row permutation of the sample")
    parser.add_argument("--out", default="-", help="JSON output path, - for stdout")
    args = parser.parse_args(argv)
    sizes = [int(v) for v in args.sizes.split(",")]
    pairs = args.pairs * len(sizes) if len(args.pairs) == 1 else args.pairs
    if len(pairs) != len(sizes):
        parser.error("give one --pairs value, or one per size")
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        trees = {"parent": scratch / "parent", "change": ROOT}
        parent = extract(args.parent, trees["parent"])
        results = []
        for n, count in zip(sizes, pairs):
            x, y = truth.sample_m1(n, 0.5, np.random.default_rng([0, n]))
            order = np.random.default_rng([args.seed, n]).permutation(n)
            csv = scratch / f"m1_{n}.csv"
            truth.write_csv(csv, x[order], y[order])
            for method, flags in METHODS.items():
                runs = []
                for k in range(count):
                    sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    runs.append({side: run_select(trees[side], csv, flags,
                                                  scratch / f"{side}.json")
                                 for side in sides})
                    print(f"n={n} {method} pair {k}: parent {runs[-1]['parent']['s']:.3f} s, "
                          f"change {runs[-1]['change']['s']:.3f} s", file=sys.stderr)
                med = {side: statistics.median(r[side]["s"] for r in runs) for side in trees}
                results.append({
                    "n": n,
                    "method": method,
                    "pairs": [{side: {k: r[side][k] for k in ("s", "rss_mb")}
                               for side in ("parent", "change")} for r in runs],
                    "change_wins": sum(r["change"]["s"] < r["parent"]["s"] for r in runs),
                    "median_s": med,
                    "median_change_over_parent": round(med["change"] / med["parent"], 4),
                    "sha256": {side: sorted({r[side]["sha256"] for r in runs}) for side in trees},
                })
    doc = {
        "script": "demos/scan_major_pairs.py",
        "parent": parent,
        "sample": "benchmarks/truth.sample_m1(n, 0.5, default_rng([0, n])), "
                  f"rows permuted by default_rng([{args.seed}, n])",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, one BLAS thread per process",
        "results": results,
    }
    text = json.dumps(doc, indent=2)
    if args.out == "-":
        print(text)
    else:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
