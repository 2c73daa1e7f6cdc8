"""Names, units and computation of every metric the benchmark reports.

End-to-end metrics come from the untraced run (``--trace 0``); per-layer
metrics from the traced run (``--trace 1``).  ``BENCHMARK.json`` lists
the same names; ``test_bench.py`` keeps the two in step.

Per-layer names are ``<module>.<function>.<stat>``: ``calls`` per pass,
``self_s`` (span time minus child spans) and ``total_s`` (outermost span
time) per pass, each the median over traced passes; rates divide summed
work counters by summed seconds over all traced passes.  A layer that a
workload never calls reports 0.
"""

from __future__ import annotations

import statistics

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def end_to_end(setup_samples, worker: dict) -> dict:
    """Set-up time as a median; pass time and CPU as means over the run.

    A pass's cost is the run's timed seconds over its passes, the
    reciprocal of passes per second.  The host alternates fast and slow
    stretches of 5-60 s; when each covers about half a run, the median
    pass jumps between the two speeds while the mean moves in proportion
    (see README, Noise).
    """
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.fmean(worker["walls"]),
        "cpu_s": statistics.fmean(worker["cpus"]),
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


class Layers:
    """Read access to the worker's per-span-name, per-pass table."""

    def __init__(self, table: dict, passes: int):
        self.table = table
        self.passes = passes

    def _rows(self, span: str) -> list[dict]:
        return list(self.table.get(span, {}).values())

    def median(self, span: str, stat: str) -> float:
        rows = self._rows(span)
        return statistics.median(r[stat] for r in rows) if rows else 0.0

    def count_median(self, span: str, key: str) -> float:
        rows = self._rows(span)
        return statistics.median(r["counts"].get(key, 0) for r in rows) if rows else 0.0

    def summed(self, span: str, stat: str) -> float:
        return sum(r[stat] for r in self._rows(span))

    def count(self, span: str, key: str) -> float:
        return sum(r["counts"].get(key, 0) for r in self._rows(span))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def _catalog():
    """(name, unit, better, value(layers, run)) for every per-layer metric."""
    out = []

    def add(name, unit, better, fn):
        out.append((name, unit, better, fn))

    def calls(span):
        add(f"{span}.calls", "count", "lower", lambda L, r: L.median(span, "calls"))

    def self_s(span):
        add(f"{span}.self_s", "s", "lower", lambda L, r: L.median(span, "self_s"))

    def total_s(span):
        add(f"{span}.total_s", "s", "lower", lambda L, r: L.median(span, "total_s"))

    def per_unit(name, span, key, unit, scale):
        add(name, unit, "lower",
            lambda L, r: _ratio(L.summed(span, "self_s"), L.count(span, key), scale))

    calls("sde.step_normals")
    self_s("sde.step_normals")
    per_unit("sde.step_normals.ns_per_normal", "sde.step_normals", "normals", "ns", 1e9)
    add("sde.step_normals.draws_per_path_step", "ratio", "lower",
        lambda L, r: _ratio(L.count("sde.step_normals", "rows"),
                            L.count("sde.simulate", "path_steps")))
    calls("sde.simulate")
    self_s("sde.simulate")
    per_unit("sde.simulate.ns_per_path_step", "sde.simulate", "path_steps", "ns", 1e9)
    for stat in (calls, self_s, total_s):
        stat("sde.backward_flow_det")
    calls("sde.save_ensemble")
    self_s("sde.save_ensemble")
    add("sde.save_ensemble.bytes", "bytes", "lower",
        lambda L, r: L.count_median("sde.save_ensemble", "bytes"))
    for fn in ("feynman_kac_check", "krylov_verify", "jacobian_semigroup"):
        total_s(f"sde.{fn}")

    for op in ("eval", "div"):
        for kind in ("radial", "lattice", "zero"):
            span = f"drifts.{op}.{kind}"
            calls(span)
            self_s(span)
            per_unit(f"{span}.ns_per_point", span, "points", "ns", 1e9)
    total_s("drifts.check_admissibility")

    for span in ("pde.build_operator", "pde.splu", "pde.lu_solve"):
        calls(span)
        self_s(span)
    add("pde.splu.per_solve", "solves/factor", "higher",
        lambda L, r: _ratio(L.summed("pde.lu_solve", "calls"), L.summed("pde.splu", "calls")))
    calls("pde.solve")
    self_s("pde.solve")
    add("pde.solve.node_steps_per_s", "1/s", "higher",
        lambda L, r: _ratio(L.count("pde.solve", "node_steps"), L.summed("pde.solve", "total_s")))
    total_s("pde.stability_sweep")

    for span in ("norms.vnorm", "norms.spatial_gradient", "norms.mixed_norm",
                 "norms.CutoffFamily.evaluate", "norms.localized_norm"):
        calls(span)
        self_s(span)
    add("norms.localized_norm.centers", "count", "lower",
        lambda L, r: L.count_median("norms.localized_norm", "centers"))

    calls("degiorgi.run_iteration")
    self_s("degiorgi.run_iteration")
    add("degiorgi.run_iteration.per_threshold", "calls/search", "lower",
        lambda L, r: _ratio(L.summed("degiorgi.run_iteration", "calls"),
                            L.summed("degiorgi.threshold_kappa", "calls")))
    total_s("degiorgi.threshold_kappa")

    for span in ("grids.write_field", "cli._sha256"):
        calls(span)
        self_s(span)
        add(f"{span}.bytes", "bytes", "lower", lambda L, r, span=span: L.count_median(span, "bytes"))
    total_s("cli.run")

    # Euler steps advanced forward (simulate) and backward (flow
    # reconstruction) per second of an untraced pass.
    add("path_steps_per_s", "1/s", "higher",
        lambda L, r: _ratio(L.count("sde.simulate", "path_steps")
                            + L.count("sde.backward_flow_det", "path_steps"),
                            L.passes * statistics.fmean(r["walls"])))
    add("trace_overhead_s", "s", "lower",
        lambda L, r: statistics.fmean(r["traced_walls"]) - statistics.fmean(r["walls"]))
    add("traced_wall_s", "s", "lower", lambda L, r: statistics.fmean(r["traced_walls"]))
    add("layer_self_sum_s", "s", "lower", lambda L, r: statistics.fmean(r["layer_self_s"]))
    return out


PER_LAYER = _catalog()


def per_layer(worker: dict) -> dict:
    layers = Layers(worker["table"], worker["passes"])
    return {name: {"value": float(fn(layers, worker)), "unit": unit}
            for name, unit, _, fn in PER_LAYER}


def self_shares(worker: dict, top: int = 8) -> list[tuple[str, float]]:
    """Largest layers by self time, as shares of the median traced pass."""
    layers = Layers(worker["table"], worker["passes"])
    wall = statistics.median(worker["traced_walls"])
    shares = [(name, layers.median(name, "self_s") / wall) for name in worker["table"]
              if not name.startswith("bench.")]
    return sorted(shares, key=lambda s: -s[1])[:top]
