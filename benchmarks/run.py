"""Benchmark for smoothfit: one workload per run.

    python3 benchmarks/run.py --workload m1_study_n200 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run measures the
end-to-end metrics; with ``--trace 1`` it makes an untraced and a traced
pass over the same operations and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["m1_study_n200", "select_n20000", "m2_study_pool"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "smoothfit" / "__init__.py").is_file():
        print(f"benchmark: no smoothfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # The BLAS thread count must be fixed before numpy loads.
    from harness import BLAS_ENV, SRC
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import smoothfit
    if Path(smoothfit.__file__).resolve().parent != SRC / "smoothfit":
        print(f"benchmark: imported smoothfit from {smoothfit.__file__}", file=sys.stderr)
        return 2

    from harness import WorkDir
    from workloads import WORKLOADS

    work = WorkDir(args.workload, args.seed)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        out = workload.trace() if args.trace else workload.measure(args.seconds)
    finally:
        work.remove()

    for line in out.notes:
        print(line)
    for message in out.checks.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for name, (value, unit) in out.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted {out.attempted}, failed {out.failed}, "
          f"correct {out.checks.correct}")
    print(json.dumps({
        "correct": out.checks.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
