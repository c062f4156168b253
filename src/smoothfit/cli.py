"""Command-line interface: fit, select, and simulate subcommands.

Input data is CSV with header ``x1,...,xd,y`` and covariates in
[0, 1] (or ``--rescale minmax`` to map them there).  Results are JSON
documents with an embedded schema version; simulation studies can also
export CSV files with quantile-plot and bandwidth-difference data.

Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import _engine
from .backfit_ll import backfit_ll
from .backfit_nw import backfit_nw
from .data import Dataset, Grid
from .errors import NumericError, SmoothfitError
from .kernels import get_kernel
from .selectors import (
    BandwidthSearchSpec,
    _check_smoother,
    select_pl,
    select_pl_star,
    select_pls,
)
from .simulate import SimConfig, run_study

SCHEMA_VERSION = 1


class _InputError(Exception):
    pass


def _open_csv(path: str):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err}") from None


def _read_header(reader) -> int:
    """Check the header row ``x1,...,xd,y`` and return d."""
    header = next(reader, None)
    if not header:
        raise _InputError("input file is empty")
    header = [c.strip() for c in header]
    d = len(header) - 1
    expected = [f"x{i}" for i in range(1, d + 1)] + ["y"]
    if d < 1 or header != expected:
        raise _InputError(f"header must be x1,...,xd,y; got {','.join(header)}")
    return d


def _parse_fast(text: str, d: int):
    """The data rows after the header as an (m, d + 1) array, parsed by
    numpy's reader, or None where the row loop must decide.

    None unless every non-empty line (split at \\r\\n, \\r or \\n like
    the csv module) parses to d + 1 finite numbers: numpy rejects the
    quotes, blank fields, whitespace-only lines and ragged rows that the
    loop rejects or reads differently, and parses the numbers it accepts
    with the same correctly rounded conversion as ``float``.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [line for line in text.split("\n") if line]
    if not lines:
        return None
    try:
        arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if arr.shape != (len(lines), d + 1) or not np.all(np.isfinite(arr)):
        return None
    return arr


def _parse_rows(reader, d: int) -> np.ndarray:
    """The data rows after the header, one ``float`` per field, with the
    line number of the first bad row in the error."""
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != d + 1:
            raise _InputError(f"line {lineno}: expected {d + 1} fields, found {len(row)}")
        try:
            values = [float(c) for c in row]
        except ValueError:
            raise _InputError(f"line {lineno}: non-numeric value") from None
        if not all(map(math.isfinite, values)):
            raise _InputError(f"line {lineno}: non-finite value")
        rows.append(values)
    if not rows:
        raise _InputError("no data rows")
    return np.asarray(rows, dtype=float)


def _read_csv(path: str):
    """Covariates and responses of a CSV file with header x1,...,xd,y.

    Numpy's reader parses a well-formed file; any file it does not parse
    whole goes through the row loop, which gives bitwise the same arrays
    and names the first bad line.
    """
    with _open_csv(path) as fh:
        d = _read_header(csv.reader(fh))
        try:
            text = fh.read()
        except UnicodeDecodeError:
            text = None
    arr = None if text is None else _parse_fast(text, d)
    if arr is None:
        with _open_csv(path) as fh:
            reader = csv.reader(fh)
            _read_header(reader)
            arr = _parse_rows(reader, d)
    return arr[:, :d], arr[:, d]


def _load_dataset(args):
    x, y = _read_csv(args.input)
    rescale = None
    if getattr(args, "rescale", None) == "minmax":
        lo, hi = x.min(axis=0), x.max(axis=0)
        flat = np.nonzero(hi <= lo)[0]
        if flat.size:
            raise _InputError(
                f"column x{flat[0] + 1} is constant and cannot be min-max rescaled"
            )
        x = (x - lo) / (hi - lo)
        rescale = {
            f"x{j + 1}": {"min": float(lo[j]), "max": float(hi[j])}
            for j in range(x.shape[1])
        }
    else:
        bad = np.nonzero(np.any((x < 0.0) | (x > 1.0), axis=1))[0]
        if bad.size:
            raise _InputError(
                f"line {bad[0] + 2}: covariate outside [0, 1] "
                "(use --rescale minmax to map data into the unit cube)"
            )
    return Dataset(x=x, y=y), rescale


def _write_json(payload: dict, out: str) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise NumericError(f"result is not finite: {err}") from None
    if out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _parse_h(text: str, d: int) -> np.ndarray:
    try:
        h = np.array([float(c) for c in text.split(",")], dtype=float)
    except ValueError:
        raise _InputError(f"cannot parse bandwidths {text!r}") from None
    if h.size != d:
        raise _InputError(f"expected {d} bandwidths, got {h.size}")
    if not np.all((h > 0) & np.isfinite(h)):
        raise _InputError("bandwidths must be positive and finite")
    return h


def _search_spec(args, data: Dataset) -> BandwidthSearchSpec:
    if args.box:
        try:
            lo, hi = (float(c) for c in args.box.split(","))
        except ValueError:
            raise _InputError(f"cannot parse --box {args.box!r}") from None
        if not 0 < lo < hi < math.inf:
            raise _InputError("--box needs 0 < LO < HI, both finite")
        scale = float(data.n) ** (-0.2)
        return BandwidthSearchSpec.for_sample_size(
            data.n, data.d, lo_factor=lo / scale, hi_factor=hi / scale,
            num=args.candidates,
        )
    return BandwidthSearchSpec.for_sample_size(data.n, data.d, num=args.candidates)


def _run_selection(args, data, grid, kernel):
    """The selection the arguments ask for, and the workspace it ran on,
    which a final backfit of the same data can reuse."""
    spec = _search_spec(args, data)
    method = args.method.replace("-", "_")
    _check_smoother(method, args.smoother)
    ws = _engine.Workspace(data, grid, kernel)
    if method == "pls":
        sel = select_pls(data, args.smoother, spec, grid, kernel, workspace=ws)
    elif method == "pl":
        sel = select_pl(
            data, spec, args.mode.replace("-", "_"), grid, kernel,
            pilot_factor=args.pilot_factor, workspace=ws,
        )
    elif method == "pl_star":
        sel = select_pl_star(
            data, spec, grid, kernel, pilot_factor=args.pilot_factor, workspace=ws
        )
    else:
        raise _InputError(f"unknown selection method {args.method!r}")
    return sel, ws


def _selection_payload(sel) -> dict:
    return {
        "method": sel.method,
        "bandwidths": sel.bandwidths.tolist(),
        "outer_iterations": sel.outer_iterations,
        "converged": sel.converged,
        "criterion": sel.criterion,
        "flags": sel.flags,
        "trace": [
            {"h": np.asarray(t["h"]).tolist(), "criterion": t["criterion"]}
            for t in sel.trace
        ],
    }


def cmd_fit(args) -> int:
    data, rescale = _load_dataset(args)
    grid = Grid.regular(args.grid)
    kernel = get_kernel(args.kernel)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "smoother": args.smoother,
        "kernel": args.kernel,
        "grid": grid.points.tolist(),
        "rescale": rescale,
    }
    ws = None
    if args.h:
        h = _parse_h(args.h, data.d)
    else:
        sel, ws = _run_selection(args, data, grid, kernel)
        h = sel.bandwidths
        payload["selection"] = _selection_payload(sel)
    # A public backfit starts cold, so the selection's workspace changes
    # its cost, not its numbers.
    if args.smoother == "ll":
        fit = backfit_ll(data, h, grid, kernel, workspace=ws)
        payload["slopes"] = fit.slopes.tolist()
    else:
        fit = backfit_nw(data, h, grid, kernel, workspace=ws)
    payload.update(
        bandwidths=fit.bandwidths.tolist(),
        intercept=fit.intercept,
        components=fit.components.tolist(),
        iterations=fit.iterations,
        converged=fit.converged,
    )
    _write_json(payload, args.out)
    return 0


def cmd_select(args) -> int:
    data, rescale = _load_dataset(args)
    grid = Grid.regular(args.grid)
    kernel = get_kernel(args.kernel)
    sel, _ = _run_selection(args, data, grid, kernel)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "select",
        "smoother": args.smoother,
        "kernel": args.kernel,
        "rescale": rescale,
    }
    payload.update(_selection_payload(sel))
    _write_json(payload, args.out)
    return 0


def cmd_simulate(args) -> int:
    cap = os.environ.get("SMOOTHFIT_THREADS")
    workers = args.workers
    if cap is not None:
        try:
            limit = int(cap)
        except ValueError:
            raise _InputError(f"SMOOTHFIT_THREADS={cap!r} is not an integer") from None
        if limit < 1:
            raise _InputError(f"SMOOTHFIT_THREADS={cap!r} must be at least 1")
        workers = min(workers, limit)
    try:
        config = SimConfig(
            model=args.model,
            n=args.n,
            rho=args.rho,
            sigma2=args.sigma2,
            replicates=args.reps,
            seed=args.seed,
            selectors=tuple(args.selectors.split(",")) if args.selectors else (),
            smoother=args.smoother,
            kernel=args.kernel,
            pilot_factor=args.pilot_factor,
            cov_variance=args.cov_var,
            grid_size=args.grid,
            workers=workers,
        )
    except ValueError as err:
        raise _InputError(str(err)) from None
    report = run_study(config)
    if args.out == "-":
        print(report.to_json())
    else:
        report.save(args.out)
    if args.csv_prefix:
        with open(f"{args.csv_prefix}_quantiles.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["selector", "rank", "level", "ase"])
            writer.writerows(report.quantile_rows())
        with open(f"{args.csv_prefix}_logdiffs.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["selector", "replicate", "axis", "log_h_diff"])
            writer.writerows(report.logdiff_rows())
    return 0


def _add_common(parser, with_input=True):
    if with_input:
        parser.add_argument("input", help="CSV file with header x1,...,xd,y")
        parser.add_argument(
            "--rescale", choices=["minmax"],
            help="min-max rescale covariates into [0,1], recording the map",
        )
    parser.add_argument("--smoother", choices=["nw", "ll"], default="ll")
    parser.add_argument("--kernel", default="biweight",
                        choices=["biweight", "epanechnikov"])
    parser.add_argument("--grid", type=int, default=25,
                        help="number of evaluation grid points (default 25)")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")


def _add_selection_flags(parser):
    parser.add_argument("--method", default="pls",
                        choices=["pls", "pl", "pl-star"])
    parser.add_argument("--mode", default="full-grid",
                        choices=["full-grid", "coordinate"],
                        help="search mode for --method pl")
    parser.add_argument("--pilot-factor", type=float, default=1.5,
                        help="pilot bandwidth factor for curvature estimation")
    parser.add_argument("--candidates", type=int, default=25,
                        help="bandwidth candidates per axis")
    parser.add_argument("--box", default=None,
                        help="bandwidth search box LO,HI (absolute values)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothfit",
        description="Additive regression by smooth backfitting with "
                    "automatic bandwidth selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit an additive model to CSV data")
    _add_common(p_fit)
    _add_selection_flags(p_fit)
    p_fit.add_argument("--h", default=None,
                       help="comma-separated bandwidths, bypasses selection")
    p_fit.set_defaults(func=cmd_fit)

    p_sel = sub.add_parser("select", help="select bandwidths only")
    _add_common(p_sel)
    _add_selection_flags(p_sel)
    p_sel.set_defaults(func=cmd_select)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    _add_common(p_sim, with_input=False)
    p_sim.add_argument("--model", required=True, choices=["m1", "m2"])
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--rho", type=float, default=0.0)
    p_sim.add_argument("--sigma2", type=float, default=0.01)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--selectors", default=None,
                       help="comma list, e.g. ase,pls,pl,pl_star")
    p_sim.add_argument("--pilot-factor", type=float, default=1.5)
    p_sim.add_argument("--cov-var", type=float, default=0.5,
                       help="variance of the untruncated covariate normals")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--csv-prefix", default=None,
                       help="also write <prefix>_quantiles.csv and "
                            "<prefix>_logdiffs.csv")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as err:
        print(f"smoothfit: {err}", file=sys.stderr)
        return 2
    except SmoothfitError as err:
        print(f"smoothfit: numeric failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"smoothfit: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
