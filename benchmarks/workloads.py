"""The three workloads.

Each workload sets up (timed, several times), then repeats whole rounds
of the same operations until the run's seconds are spent, then checks
the outputs.  A traced run instead makes one untraced and one traced
pass over the same operations and reports per-layer figures.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

import numpy as np
import smoothfit as sf
from smoothfit import cli as sf_cli

import checks as ck
import spans
import truth
from harness import (
    TRACE_DIR, Checks, WorkDir, cli_argv, import_probe_seconds, median,
    run_child, strict_json,
)

SETUP_REPEATS = 3


@dataclass
class Outcome:
    checks: Checks = field(default_factory=Checks)
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    notes: list = field(default_factory=list)     # human-readable lines


def timed_rounds(seconds: float, round_fn) -> list:
    """Run whole rounds until ``seconds`` have passed (at least one)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(round_fn(len(results)))
    return results


def run_setup(workload) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return median(times)


def timed_check(out: Outcome, check):
    start = time.perf_counter()
    result = check()
    out.notes.append(f"checks took {time.perf_counter() - start:.1f} s")
    return result


def end_to_end(out: Outcome, setup_s, round_walls, op_times, rss_mb, mean_ase) -> None:
    out.metrics.update(
        setup_s=(setup_s, "s"),
        wall_s=(sum(round_walls) / len(round_walls), "s"),
        op_p50_s=(median(op_times) if op_times else 0.0, "s"),
        peak_rss_mb=(rss_mb, "MB"),
        mean_ase=(mean_ase, "1"),
    )
    out.notes += [
        f"setup_s: median of {SETUP_REPEATS} set-ups",
        f"wall_s: mean of {len(round_walls)} rounds",
        f"op_p50_s: median of {len(op_times)} successful operations",
    ]


# ---------------------------------------------------------------------------
# m1_study_n200: run_study in-process, one replicate per operation


class StudyN200:
    name = "m1_study_n200"
    per_round = 4
    selectors = ("ase", "pls", "pl", "pl_star")

    def __init__(self, seed: int, work: WorkDir):
        self.seed = seed
        self.work = work
        self.records: dict = {}
        self.probe_times: list = []

    def config(self, r: int) -> sf.SimConfig:
        return sf.SimConfig(model="m1", n=200, rho=0.5, replicates=1,
                            seed=self.seed * 100_000 + r, selectors=self.selectors)

    def setup(self) -> None:
        self.probe_times.append(import_probe_seconds(self.work))
        sf.run_study(self.config(99_999))  # warm-up replicate, never measured

    def op(self, r: int):
        start = time.perf_counter()
        record = sf.run_study(self.config(r)).replicates[0]
        seconds = time.perf_counter() - start
        self.records[r] = record
        return seconds, not record["failures"]

    def round(self, k: int):
        start = time.perf_counter()
        ops = [self.op(k * self.per_round + i) for i in range(self.per_round)]
        return time.perf_counter() - start, ops

    def check(self, out: Outcome, records: dict) -> float:
        """Check every replicate; returns the mean true error of the
        non-oracle selectors."""
        errors = []
        for r, record in sorted(records.items()):
            cfg = self.config(r)
            data, generated = sf.generate(cfg, 0)
            out.checks.expect(
                np.allclose(data.y - truth.m1_truth(data.x), generated.noise,
                            rtol=0, atol=1e-12),
                f"replicate {r}: data does not follow the m1 truth",
            )
            spec, grid = cfg.search_spec(), sf.Grid.regular(cfg.grid_size)
            kernel = sf.get_kernel(cfg.kernel)
            for name, entry in record["selectors"].items():
                label = f"replicate {r} {name}"
                h = np.array(entry["h"])
                ck.check_box(out.checks, label, h, spec, on_grid=name != "pl_star")
                fit = ck.refit(data, "ll", h, grid, kernel, cfg.fit_tol)
                ck.check_fit(out.checks, label, data, fit, "ll", kernel, cfg.fit_tol)
                if name != "ase":
                    err = ck.ase(fit, data.x, truth.m1_truth)
                    out.checks.expect(
                        abs(err - entry["ase"]) <= 1e-9 * err,
                        f"{label}: reported ase {entry['ase']!r}, recomputed {err!r}",
                    )
                    errors.append(err)
                if not entry["converged"]:
                    continue
                if name == "pls":
                    crit = ck.pls_criterion(data, "ll", grid, kernel, spec)
                    ck.check_coordinate_min(out.checks, label, h, spec, crit)
                elif name == "ase":
                    crit = ck.ase_criterion(data, grid, kernel, truth.m1_truth)
                    ck.check_coordinate_min(out.checks, label, h, spec, crit)
                elif name == "pl_star":
                    ck.check_pl_star_fixed_point(out.checks, label, data, h, spec,
                                                 grid, kernel)
            out.checks.expect(set(record["selectors"]) | set(record["failures"])
                              == set(self.selectors),
                              f"replicate {r}: selectors missing from the record")
        return float(np.mean(errors))

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        setup_s = run_setup(self)
        rounds = timed_rounds(seconds, self.round)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = [op for _, round_ops in rounds for op in round_ops]
        out.attempted = len(ops)
        out.failed = sum(1 for _, ok in ops if not ok)
        mean_ase = timed_check(out, lambda: self.check(out, self.records))
        end_to_end(out, setup_s, [wall for wall, _ in rounds],
                   [t for t, ok in ops if ok], rss_mb, mean_ase)
        return out

    def trace(self) -> Outcome:
        out = Outcome()
        run_setup(self)
        tracer = spans.Tracer()
        plain, traced, walls = {}, {}, [0.0, 0.0]
        for k in range(2):
            for i, target in enumerate((plain, traced)):
                self.records = {}
                if target is traced:
                    with spans.traced(tracer):
                        wall, ops = self.round(k)
                else:
                    wall, ops = self.round(k)
                walls[i] += wall
                target.update(self.records)
                out.attempted += len(ops)
                out.failed += sum(1 for _, ok in ops if not ok)
        out.checks.expect(plain == traced, "traced replicates differ from untraced ones")
        self.check(out, traced)
        out.metrics.update(spans.layer_metrics(tracer))
        out.metrics["cli.start_s"] = (median(self.probe_times), "s")
        out.metrics["pool.speedup"] = (0.0, "ratio")  # no pool here
        out.metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
        tracer.dump(TRACE_DIR / f"{self.name}-seed{self.seed}.jsonl")
        return out


# ---------------------------------------------------------------------------
# select_n20000: the CLI as a subprocess on one large CSV


class SelectN20000:
    name = "select_n20000"
    n = 20_000
    methods = (
        ("pls", ("--method", "pls")),
        ("pl_star", ("--method", "pl-star")),
        ("nw_pls", ("--smoother", "nw", "--method", "pls")),
    )

    def __init__(self, seed: int, work: WorkDir):
        self.seed = seed
        self.work = work
        self.csv = work / "data.csv"
        self.outputs: dict = {}
        self.probe_times: list = []

    def setup(self) -> None:
        self.probe_times.append(import_probe_seconds(self.work))
        # One fixed sample, its rows in an order drawn from the seed: the
        # true error of a single n=20000 fit moves by 30-50% between fresh
        # draws (mostly through the NW pls choice), which no affordable
        # run length averages out, while a row permutation changes the
        # input file but not the statistical problem.
        x, y = truth.sample_m1(self.n, 0.5, np.random.default_rng([0, self.n]))
        rng = np.random.default_rng([self.seed, self.n])
        order = rng.permutation(self.n)
        truth.write_csv(self.csv, x[order], y[order])
        # The rejection input does not depend on the seed: 200 rows with
        # one NaN covariate.
        x, y = truth.sample_m1(200, 0.5, np.random.default_rng(0))
        x[7, 1] = np.nan
        truth.write_csv(self.work / "nan.csv", x, y)
        x, y = truth.sample_m1(500, 0.5, rng)
        truth.write_csv(self.work / "warm.csv", x, y)
        warm = run_child(cli_argv("select", "warm.csv", "--out", "warm.json"),
                         self.work, "warm")
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up select failed:\n{warm.stderr}")

    def _record(self, out: Outcome, tag: str, text: str) -> None:
        first = self.outputs.setdefault(tag, text)
        out.checks.expect(text == first, f"{tag}: output differs between rounds")

    def round(self, k: int, out: Outcome):
        start = time.perf_counter()
        ops = []
        for tag, flags in self.methods:
            path = self.work / f"{tag}.json"
            path.unlink(missing_ok=True)
            child = run_child(cli_argv("select", "data.csv", *flags, "--out", path.name),
                              self.work, tag)
            ok = child.returncode == 0 and path.exists()
            if ok:
                self._record(out, tag, path.read_text(encoding="utf-8"))
            else:
                out.notes.append(f"{tag}: exit {child.returncode}: {child.stderr.strip()}")
            ops.append((child.seconds, ok, child.maxrss_mb))
        wall = time.perf_counter() - start
        return wall, ops + [self.reject()]

    def reject(self):
        """``select`` on the NaN-covariate CSV must exit 2 and write no
        JSON.  Its time stays out of every timing metric."""
        path = self.work / "nan.json"
        path.unlink(missing_ok=True)
        child = run_child(cli_argv("select", "nan.csv", "--method", "pl-star",
                                   "--out", path.name), self.work, "reject")
        ok = child.returncode == 2 and not path.exists()
        path.unlink(missing_ok=True)
        return None, ok, None

    def check(self, out: Outcome) -> float:
        x, y = truth.read_csv(self.csv)
        data = sf.Dataset(x=x, y=y)
        spec = sf.BandwidthSearchSpec.for_sample_size(data.n, data.d)
        grid, kernel = sf.Grid.regular(25), sf.get_kernel("biweight")
        tol = 1e-6  # the solvers' default tolerance, used by the CLI
        errors = []
        for tag, _ in self.methods:
            text = self.outputs.get(tag)
            if not out.checks.expect(text is not None, f"{tag}: no output to check"):
                continue
            try:
                doc = strict_json(text)
            except ValueError as err:
                out.checks.expect(False, f"{tag}: output is not strict JSON ({err})")
                continue
            smoother = "nw" if tag == "nw_pls" else "ll"
            h = np.array(doc["bandwidths"], dtype=float)
            out.checks.expect(doc["command"] == "select" and doc["smoother"] == smoother
                              and h.size == data.d, f"{tag}: unexpected document")
            ck.check_box(out.checks, tag, h, spec, on_grid=tag != "pl_star")
            fit = ck.refit(data, smoother, h, grid, kernel, tol)
            ck.check_fit(out.checks, tag, data, fit, smoother, kernel, tol)
            errors.append(ck.ase(fit, data.x, truth.m1_truth))
            if not doc["converged"]:
                out.notes.append(f"{tag}: selection did not converge")
            elif tag == "pl_star":
                ck.check_pl_star_fixed_point(out.checks, tag, data, h, spec, grid, kernel)
            else:
                crit = ck.pls_criterion(data, smoother, grid, kernel, spec)
                ck.check_coordinate_min(out.checks, tag, h, spec, crit)
        return float(np.mean(errors)) if errors else float("nan")

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        setup_s = run_setup(self)
        rounds = timed_rounds(seconds, lambda k: self.round(k, out))
        ops = [op for _, round_ops in rounds for op in round_ops]
        out.attempted = len(ops)
        out.failed = sum(1 for _, ok, _ in ops if not ok)
        timed = [op for op in ops if op[0] is not None]
        mean_ase = timed_check(out, lambda: self.check(out))
        end_to_end(out, setup_s, [wall for wall, _ in rounds],
                   [t for t, ok, _ in timed if ok],
                   max(rss for _, _, rss in timed), mean_ase)
        return out

    def trace(self) -> Outcome:
        out = Outcome()
        run_setup(self)
        # The process has not yet run the CLI in-process; warm that path
        # so the untraced pass does not pay for it.
        sf_cli.main(["select", str(self.work / "warm.csv"),
                     "--out", str(self.work / "warm.inproc.json")])
        tracer = spans.Tracer()
        walls = {}
        for label in ("plain", "traced"):
            start = time.perf_counter()
            for tag, flags in self.methods:
                path = self.work / f"{tag}.{label}.json"
                argv = ["select", str(self.csv), *flags, "--out", str(path)]
                if label == "traced":
                    with spans.traced(tracer):
                        code = tracer.call("cli.main", sf_cli.main, (argv,))
                else:
                    code = sf_cli.main(argv)
                ok = code == 0 and path.exists()
                out.attempted += 1
                out.failed += not ok
                if ok:
                    self._record(out, tag, path.read_text(encoding="utf-8"))
            walls[label] = time.perf_counter() - start
            _, ok, _ = self.reject()
            out.attempted += 1
            out.failed += not ok
        self.check(out)
        out.metrics.update(spans.layer_metrics(tracer))
        out.metrics["cli.start_s"] = (median(self.probe_times), "s")
        out.metrics["pool.speedup"] = (0.0, "ratio")  # no pool here
        out.metrics["trace.overhead_s"] = (walls["traced"] - walls["plain"], "s")
        tracer.dump(TRACE_DIR / f"{self.name}-seed{self.seed}.jsonl")
        return out


# ---------------------------------------------------------------------------
# m2_study_pool: `smoothfit simulate` with a two-process pool


class StudyPool:
    name = "m2_study_pool"
    reps = 200
    serial_prefix = 20

    def __init__(self, seed: int, work: WorkDir):
        self.seed = seed
        self.work = work
        self.study_seeds = (2 * seed, 2 * seed + 1)
        self.outputs: dict = {}
        self.probe_times: list = []

    def argv(self, study_seed: int, workers: int, out_name: str, reps=None) -> list:
        return ["simulate", "--model", "m2", "--n", "200", "--workers", str(workers),
                "--reps", str(reps or self.reps), "--seed", str(study_seed),
                "--out", out_name]

    def setup(self) -> None:
        self.probe_times.append(import_probe_seconds(self.work))
        warm = run_child(cli_argv(*self.argv(10**6 + self.seed, 2, "warm.json", reps=4)),
                         self.work, "warm")
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up simulate failed:\n{warm.stderr}")

    def run_studies(self, out: Outcome, workers: int):
        start = time.perf_counter()
        ops = []
        for s in self.study_seeds:
            name = f"study{s}.w{workers}.json"
            child = run_child(cli_argv(*self.argv(s, workers, name)), self.work, name)
            ok = child.returncode == 0
            if ok:
                text = (self.work / name).read_text(encoding="utf-8")
                first = self.outputs.setdefault((s, workers), text)
                out.checks.expect(text == first, f"study {s}: output differs between rounds")
            else:
                out.notes.append(f"study {s}: exit {child.returncode}: {child.stderr.strip()}")
            ops.append((child.seconds, ok, child.maxrss_mb))
        return time.perf_counter() - start, ops

    def config(self, study_seed: int, replicates: int, workers: int) -> sf.SimConfig:
        return sf.SimConfig(model="m2", n=200, replicates=replicates, seed=study_seed,
                            workers=workers)

    def check(self, out: Outcome, workers: int) -> float:
        errors = []
        grid, kernel = sf.Grid.regular(25), sf.get_kernel("biweight")
        for s in self.study_seeds:
            text = self.outputs.get((s, workers))
            if not out.checks.expect(text is not None, f"study {s}: no output to check"):
                continue
            try:
                doc = strict_json(text)
            except ValueError as err:
                out.checks.expect(False, f"study {s}: report is not strict JSON ({err})")
                continue
            cfg = self.config(s, self.reps, workers)
            spec = cfg.search_spec()
            records = doc["replicates"]
            out.checks.expect(
                len(records) == self.reps
                and tuple(doc["config"]["selectors"]) == ("ase1", "pls1", "pl1"),
                f"study {s}: unexpected report layout",
            )
            for name, agg in doc["summary"].items():
                out.checks.expect(agg["count"] + agg["failed"] == self.reps,
                                  f"study {s} {name}: count + failed != replicates")
                values = [r["selectors"][name]["ase"] for r in records
                          if name in r["selectors"]]
                if values:
                    out.checks.expect(
                        abs(agg["mean_ase"] - float(np.mean(values)))
                        <= 1e-12 * agg["mean_ase"],
                        f"study {s} {name}: summary mean_ase is not the replicate mean",
                    )
            serial = sf.run_study(self.config(s, self.serial_prefix, 1))
            out.checks.expect(
                strict_json(serial.to_json())["replicates"] == records[: self.serial_prefix],
                f"study {s}: pooled records differ from a serial run",
            )
            for rec in records:
                r = rec["replicate"]
                data, generated = sf.generate(cfg, r)
                out.checks.expect(
                    np.allclose(data.y - truth.m2_truth(data.x), generated.noise,
                                rtol=0, atol=1e-12),
                    f"study {s} replicate {r}: data does not follow the m2 truth",
                )
                for name, entry in rec["selectors"].items():
                    label = f"study {s} replicate {r} {name}"
                    h = float(entry["h"][0])
                    ck.check_box(out.checks, label, np.array([h]), spec,
                                 on_grid=name != "pl1")
                    if name == "pls1":
                        ck.check_pls1_exhaustive(out.checks, label, data, h, spec,
                                                 grid, kernel)
                    if name == "ase1":
                        continue
                    fitted = ck.single_curve_at_data(data, h, grid, kernel)
                    err = fitted - truth.m2_truth(data.x)
                    value = float(err @ err) / data.n
                    out.checks.expect(abs(value - entry["ase"]) <= 1e-9 * value,
                                      f"{label}: reported ase {entry['ase']!r}, "
                                      f"recomputed {value!r}")
                    errors.append(value)
        return float(np.mean(errors)) if errors else float("nan")

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        setup_s = run_setup(self)
        rounds = timed_rounds(seconds, lambda k: self.run_studies(out, workers=2))
        ops = [op for _, round_ops in rounds for op in round_ops]
        out.attempted = len(ops)
        out.failed = sum(1 for _, ok, _ in ops if not ok)
        mean_ase = timed_check(out, lambda: self.check(out, workers=2))
        end_to_end(out, setup_s, [wall for wall, _ in rounds],
                   [t for t, ok, _ in ops if ok], max(rss for _, _, rss in ops), mean_ase)
        return out

    def trace(self) -> Outcome:
        out = Outcome()
        run_setup(self)
        walls = {}
        for workers in (2, 1):
            walls[workers], ops = self.run_studies(out, workers)
            out.attempted += len(ops)
            out.failed += sum(1 for _, ok, _ in ops if not ok)
        sf_cli.main(self.argv(10**6 + self.seed, 1, str(self.work / "warm.inproc.json"),
                              reps=4))
        tracer = spans.Tracer()
        texts = {}
        for label in ("plain", "traced"):
            path = self.work / f"inproc.{label}.json"
            argv = self.argv(self.study_seeds[0], 1, str(path))
            start = time.perf_counter()
            if label == "traced":
                with spans.traced(tracer):
                    code = tracer.call("cli.main", sf_cli.main, (argv,))
            else:
                code = sf_cli.main(argv)
            walls[label] = time.perf_counter() - start
            out.attempted += 1
            out.failed += code != 0
            texts[label] = path.read_text(encoding="utf-8") if code == 0 else None
        out.checks.expect(texts["plain"] == texts["traced"] == self.outputs.get(
            (self.study_seeds[0], 1)), "traced study differs from the untraced one")
        self.check(out, workers=2)
        out.metrics.update(spans.layer_metrics(tracer))
        out.metrics["cli.start_s"] = (median(self.probe_times), "s")
        out.metrics["pool.speedup"] = (walls[1] / walls[2], "ratio")
        out.metrics["trace.overhead_s"] = (walls["traced"] - walls["plain"], "s")
        tracer.dump(TRACE_DIR / f"{self.name}-seed{self.seed}.jsonl")
        return out


WORKLOADS = {w.name: w for w in (StudyN200, SelectN20000, StudyPool)}
