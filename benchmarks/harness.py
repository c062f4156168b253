"""Process, file and statistics helpers shared by the workloads.

Everything the benchmark writes lands under ``.bench_work/`` (inputs and
CLI outputs of one run, removed at the end) and ``.bench_traces/``
(span dumps of traced runs), both at the root of the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"

# One BLAS thread per process: the pooled workload runs two worker
# processes on the two cores, and the other workloads stay comparable.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# A single CLI invocation at n=20000 takes about 4 s; anything near this
# limit is a hang, and the run must still end well inside 180 s.
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(*args: str) -> list:
    return [sys.executable, "-m", "smoothfit.cli", *args]


class WorkDir:
    """Scratch directory for one run's inputs and outputs."""

    def __init__(self, workload: str, seed: int):
        self.path = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)

    def __truediv__(self, name: str) -> Path:
        return self.path / name

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Child:
    returncode: int
    seconds: float
    maxrss_mb: float
    stderr: str


def run_child(argv: list, work: WorkDir, tag: str) -> Child:
    """Run one process to completion and return its exit code, wall time
    and peak resident memory (from ``wait4``, so it covers the process
    and every descendant it waited for, such as pool workers)."""
    out_path, err_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=work.path, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        returncode=proc.returncode,
        seconds=seconds,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def import_probe_seconds(work: WorkDir) -> float:
    """Wall time of a fresh interpreter that imports the CLI and exits:
    the fixed start-up cost every CLI invocation pays."""
    child = run_child([sys.executable, "-c", "import smoothfit.cli"], work, "probe")
    if child.returncode != 0:
        raise RuntimeError(f"importing smoothfit failed:\n{child.stderr}")
    return child.seconds


def _refuse_constant(token: str):
    raise ValueError(f"non-finite constant {token} in JSON")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity (RFC 8259 has neither)."""
    return json.loads(text, parse_constant=_refuse_constant)


def median(values) -> float:
    return float(statistics.median(values))


class Checks:
    """Collects correctness failures; a run is correct when none occur."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures
