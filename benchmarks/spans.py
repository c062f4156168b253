"""Span tracing around smoothfit's layer entry points.

The tracer replaces the package's layer functions with wrappers for the
duration of a ``with traced(tracer):`` block and restores them on exit;
nothing inside the package changes.  A span records its name, start,
end, parent span and a few attributes taken from the call's arguments
or result.  Spans stay in memory until ``Tracer.dump``.

Cache lookups are counted without a span: the wrappers of
``Workspace.axis`` and ``Workspace._pair_blocks`` look the key up in the
workspace's cache dict first, and only a miss (a build) opens a span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

SELECTORS = ("ase", "pls", "pl", "pl_star", "ase1", "pls1", "pl1")
SOLVERS = ("ll_solve", "nw_solve")


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or -1, attrs].
        self.spans: list = []
        self.hits = {"axis": 0, "pair": 0}
        self._stack: list = []

    def call(self, name, fn, args, kwargs=None, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span; ``attrs(result)``
        returns the attributes recorded when it succeeds."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as err:
            span[4]["error"] = type(err).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span[4].update(attrs(result))
        return result

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, **attrs}) + "\n")


def _selection_attrs(sel):
    return {"iterations": int(sel.outer_iterations), "converged": bool(sel.converged)}


@contextmanager
def traced(tracer: Tracer):
    """Wrap the layer entry points of the imported smoothfit modules."""
    from smoothfit import _engine, cli, selectors, simulate

    saved = []

    def patch(owner, attr, make):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def axis(orig):
        def wrapper(ws, j, h):
            if (j, float(h)) in ws._axes:
                tracer.hits["axis"] += 1
                return orig(ws, j, h)
            return tracer.call(
                "axis.build", orig, (ws, j, h),
                attrs=lambda st: {"bytes": st.w.nbytes + st.b.nbytes},
            )
        return wrapper

    def pair_blocks(orig):
        def wrapper(ws, a, b, ha, hb):
            if (a, b, float(ha), float(hb)) in ws._pairs:
                tracer.hits["pair"] += 1
                return orig(ws, a, b, ha, hb)
            n = ws.data.n
            # Each block is a (G, n) @ (n, G) product: 2 G_a G_b n flop.
            return tracer.call(
                "pair.build", orig, (ws, a, b, ha, hb),
                attrs=lambda blocks: {
                    "flop": sum(2 * blk.shape[0] * blk.shape[1] * n for blk in blocks)
                },
            )
        return wrapper

    def solver(name, sweeps_at):
        def make(orig):
            def wrapper(*args, **kwargs):
                return tracer.call(name, orig, args, kwargs,
                                   attrs=lambda out: {"sweeps": int(out[sweeps_at])})
            return wrapper
        return make

    def span(name, attrs=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                return tracer.call(name, orig, args, kwargs, attrs=attrs)
            return wrapper
        return make

    def single_selector(orig):
        def wrapper(data, method, *args, **kwargs):
            return tracer.call(f"selector.{method}", orig, (data, method, *args),
                               kwargs, attrs=_selection_attrs)
        return wrapper

    def report_build(orig):
        def wrapper(cls, *args, **kwargs):
            return tracer.call("simulate.report", orig, args, kwargs)
        return classmethod(wrapper)

    try:
        patch(_engine.Workspace, "axis", axis)
        patch(_engine.Workspace, "_pair_blocks", pair_blocks)
        patch(_engine, "ll_solve", solver("ll_solve", 2))
        patch(_engine, "nw_solve", solver("nw_solve", 1))
        patch(selectors, "second_derivative", span("curvature"))
        for owner in (simulate, cli):
            patch(owner, "select_pls", span("selector.pls", _selection_attrs))
            patch(owner, "select_pl", span("selector.pl", _selection_attrs))
            patch(owner, "select_pl_star", span("selector.pl_star", _selection_attrs))
        patch(simulate, "oracle_ase_bandwidth", span("selector.ase", _selection_attrs))
        patch(simulate, "_select_ase1", span("selector.ase1", _selection_attrs))
        patch(simulate, "select_single", single_selector)
        patch(simulate, "generate", span("simulate.generate"))
        patch(simulate.SimReport, "build", report_build)
        patch(simulate.SimReport, "to_json",
              span("simulate.report", lambda text: {"bytes": len(text.encode())}))
        patch(cli, "_read_csv", span("cli.read_csv"))
        patch(cli, "_write_json", span("cli.write_json"))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans; a layer the run never reached
    reads 0.  Returns name -> (value, unit)."""
    spans = tracer.spans
    child_time = np.zeros(len(spans))
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict = {}
    for i, (name, start, end, _, attrs) in enumerate(spans):
        by_name.setdefault(name, []).append((end - start, end - start - child_time[i], attrs))

    def total(name, field=0):
        return float(sum(s[field] for s in by_name.get(name, [])))

    def attr_sum(name, key):
        return float(sum(s[2].get(key, 0) for s in by_name.get(name, [])))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer, size_key, size_name, size_unit, scale in (
        ("axis", "bytes", "computed_mb", "MB", 1e-6),
        ("pair", "flop", "computed_gflop", "GFLOP", 1e-9),
    ):
        builds = len(by_name.get(f"{layer}.build", []))
        hits = tracer.hits[layer]
        out[f"{layer}.builds"] = (builds, "count")
        out[f"{layer}.hits"] = (hits, "count")
        out[f"{layer}.hit_ratio"] = (ratio(hits, hits + builds), "ratio")
        out[f"{layer}.build_s"] = (total(f"{layer}.build", 1), "s")
        out[f"{layer}.{size_name}"] = (attr_sum(f"{layer}.build", size_key) * scale, size_unit)
    for name in SOLVERS:
        calls = by_name.get(name, [])
        failed = sum(1 for s in calls if "error" in s[2])
        sweeps = int(attr_sum(name, "sweeps"))
        self_s = total(name, 1)
        out[f"{name}.calls"] = (len(calls), "count")
        out[f"{name}.failed"] = (failed, "count")
        out[f"{name}.sweeps"] = (sweeps, "count")
        out[f"{name}.sweeps_per_call"] = (ratio(sweeps, len(calls) - failed), "sweeps/call")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.s_per_sweep"] = (ratio(self_s, sweeps), "s/sweep")
    out["curvature.calls"] = (len(by_name.get("curvature", [])), "count")
    out["curvature.s"] = (total("curvature"), "s")
    for sel in SELECTORS:
        calls = by_name.get(f"selector.{sel}", [])
        done = [s[2] for s in calls if "iterations" in s[2]]
        out[f"selector.{sel}.self_s"] = (total(f"selector.{sel}", 1), "s")
        out[f"selector.{sel}.outer_iterations"] = (
            ratio(sum(a["iterations"] for a in done), len(done)), "iter/call")
        out[f"selector.{sel}.unconverged"] = (
            sum(1 for a in done if not a["converged"]), "count")
    out["simulate.generate_s"] = (total("simulate.generate"), "s")
    out["simulate.report_s"] = (total("simulate.report"), "s")
    sizes = [s[2]["bytes"] for s in by_name.get("simulate.report", []) if "bytes" in s[2]]
    out["simulate.json_mb"] = (ratio(sum(sizes), len(sizes)) * 1e-6, "MB")
    out["cli.read_csv_s"] = (total("cli.read_csv"), "s")
    out["cli.write_json_s"] = (total("cli.write_json"), "s")
    return out
