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
import sys

import numpy as np

from . import _engine
from .backfit_ll import backfit_ll
from .backfit_nw import backfit_nw
from .curvature import pilot_bandwidth
from .data import Dataset, Grid
from .errors import NumericError, SmoothfitError
from .kernels import get_kernel
from .selectors import (
    BandwidthSearchSpec,
    _check_selector,
    select_pl,
    select_pl_star,
    select_pls,
)
from .simulate import SimConfig, run_study

SCHEMA_VERSION = 1


class _InputError(Exception):
    pass


def _open(path: str, mode: str = "r"):
    """Every file the command line reads or writes opens here; a path it
    cannot open is an input error."""
    try:
        return open(path, mode, newline="", encoding="utf-8")
    except OSError as err:
        verb = "read" if mode == "r" else "write"
        raise _InputError(f"cannot {verb} {path}: {err}") from None


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


def _parse_fast(text: str, d: int, unit_cube: bool = False):
    """The data rows after the header as an (m, d + 1) array, parsed by
    numpy's reader, or None where the row loop must decide.

    None unless every non-empty line (split at \\r\\n, \\r or \\n like
    the csv module) parses to d + 1 finite numbers, with the covariates
    in [0, 1] if ``unit_cube`` is set: numpy rejects the
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
    if unit_cube and not np.all((arr[:, :d] >= 0.0) & (arr[:, :d] <= 1.0)):
        return None
    return arr


def _parse_rows(reader, d: int, unit_cube: bool) -> np.ndarray:
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
        if unit_cube and not all(0.0 <= v <= 1.0 for v in values[:d]):
            raise _InputError(
                f"line {lineno}: covariate outside [0, 1] "
                "(use --rescale minmax to map data into the unit cube)"
            )
        rows.append(values)
    if not rows:
        raise _InputError("no data rows")
    return np.asarray(rows, dtype=float)


def _read_csv(path: str, unit_cube: bool = False):
    """Covariates and responses of a CSV file with header x1,...,xd,y,
    with every covariate in [0, 1] if ``unit_cube`` is set.

    Numpy's reader parses a well-formed file; any file it does not parse
    whole goes through the row loop, which gives bitwise the same arrays
    and names the first bad line.
    """
    with _open(path) as fh:
        d = _read_header(csv.reader(fh))
        try:
            text = fh.read()
        except UnicodeDecodeError:
            text = None
    arr = None if text is None else _parse_fast(text, d, unit_cube)
    if arr is None:
        with _open(path) as fh:
            reader = csv.reader(fh)
            _read_header(reader)
            arr = _parse_rows(reader, d, unit_cube)
    return arr[:, :d], arr[:, d]


def _load_dataset(args):
    x, y = _read_csv(args.input, unit_cube=args.rescale != "minmax")
    rescale = None
    if args.rescale == "minmax":
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
    return Dataset(x=x, y=y), rescale


def _write_text(text: str, out: str) -> None:
    if out == "-":
        print(text)
    else:
        with _open(out, "w") as fh:
            fh.write(text + "\n")


def _write_json(payload: dict, out: str) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise NumericError(f"result is not finite: {err}") from None
    _write_text(text, out)


def _parse_h(text: str) -> np.ndarray:
    """The numbers of ``--h``; the backfit checks their count and values."""
    try:
        return np.array([float(c) for c in text.split(",")])
    except ValueError:
        raise _InputError(f"cannot parse bandwidths {text!r}") from None


def _search_spec(args, data: Dataset) -> BandwidthSearchSpec:
    if args.box:
        try:
            lo, hi = (float(c) for c in args.box.split(","))
        except ValueError:
            raise _InputError(f"cannot parse --box {args.box!r}") from None
        if not 0 < lo < hi < math.inf:
            raise _InputError("--box needs 0 < LO < HI, both finite")
        return BandwidthSearchSpec.in_box(lo, hi, data.d, num=args.candidates)
    return BandwidthSearchSpec.for_sample_size(data.n, data.d, num=args.candidates)


def _run_selection(args, data, grid, kernel):
    """The selection the arguments ask for, and the workspace it ran on,
    which a final backfit of the same data can reuse."""
    spec = _search_spec(args, data)
    method = args.method.replace("-", "_")
    _check_selector(method, args.smoother)
    ws = _engine.workspace_for(data, grid, kernel)
    if method == "pls":
        sel = select_pls(data, args.smoother, spec, workspace=ws)
    elif method == "pl":
        sel = select_pl(
            data, spec, args.mode.replace("-", "_"), pilot_factor=args.pilot_factor,
            workspace=ws,
        )
    else:  # pl_star, the last --method choice
        sel = select_pl_star(data, spec, pilot_factor=args.pilot_factor, workspace=ws)
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


def _prologue(args):
    """The data, grid and kernel of ``fit`` or ``select``, and the header
    of its JSON output.  The pilot factor is checked by the rule of the
    pilot bandwidth, as a study's is, whether or not the method uses it."""
    pilot_bandwidth(1.0, args.pilot_factor)
    data, rescale = _load_dataset(args)
    header = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "smoother": args.smoother,
        "kernel": args.kernel,
        "rescale": rescale,
    }
    return data, Grid.regular(args.grid), get_kernel(args.kernel), header


def cmd_fit(args) -> int:
    data, grid, kernel, payload = _prologue(args)
    payload["grid"] = grid.points.tolist()
    ws = None
    if args.h:
        h = _parse_h(args.h)
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
    data, grid, kernel, payload = _prologue(args)
    sel, _ = _run_selection(args, data, grid, kernel)
    payload.update(_selection_payload(sel))
    _write_json(payload, args.out)
    return 0


def cmd_simulate(args) -> int:
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
        workers=args.workers,
    )
    outputs = [] if args.out == "-" else [args.out]
    if args.csv_prefix:
        outputs += [f"{args.csv_prefix}_{name}.csv" for name in ("quantiles", "logdiffs")]
    # Every output opens before the study, appending nothing, so that an
    # unwritable path fails at once and a writable file is left as it was.
    for path in outputs:
        _open(path, "a").close()
    report = run_study(config)
    _write_text(report.to_json(), args.out)
    if args.csv_prefix:
        for name, header, rows in (
            ("quantiles", ["selector", "rank", "level", "ase"], report.quantile_rows()),
            ("logdiffs", ["selector", "replicate", "axis", "log_h_diff"],
             report.logdiff_rows()),
        ):
            with _open(f"{args.csv_prefix}_{name}.csv", "w") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
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
    except (_InputError, ValueError) as err:
        # Caught before SmoothfitError: an InvalidBandwidthError is both,
        # and it is bad input.
        print(f"smoothfit: {err}", file=sys.stderr)
        return 2
    except SmoothfitError as err:
        print(f"smoothfit: numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
