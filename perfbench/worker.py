"""One measuring process: build a workload's inputs, then run timed passes.

Started by ``run.py`` as a fresh interpreter, so its set-up time
includes importing sdlab, numpy, scipy and click.  It prints one JSON
object as its last line of output.

* ``--setup-only``: stop once the inputs are built and report the
  ``perf_counter`` reading at that moment (the parent took its own
  reading before starting the process; the clock is system-wide).
* ``--trace 0``: a warm-up pass, then timed passes while another one
  still ends within ``--seconds`` (at least ``MIN_PASSES``).  Each pass is
  timed with ``perf_counter`` and ``getrusage(RUSAGE_SELF)``.
* ``--trace 1``: after the warm-up, pairs of one untraced and one
  traced pass, alternating which runs first; spans are kept in memory
  and written to a file when the run ends.

Every pass is checked after its timer stops.  A pass that raises counts
as one failed check.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer=None):
        """Run and check one pass; returns (wall_s, cpu_s, part timings).

        The output is dropped before returning, so it does not add to the
        next pass's memory.

        With a tracer, its wrappers are in place for the pass only, and
        the pass runs inside a ``bench.pass`` span.
        """
        wl = self.workload
        if tracer is not None:
            tracer.install()
        c0, t0 = _cpu(), perf_counter()
        try:
            if tracer is None:
                out = wl.run_pass()
            else:
                with tracer.region("bench.pass"):
                    out = wl.run_pass(tracer.region)
        except Exception:
            self.attempted += 1
            self.failures.append("exception: " + traceback.format_exc(limit=4))
            out = None
        wall, cpu = perf_counter() - t0, _cpu() - c0
        if tracer is not None:
            tracer.uninstall()
        if out is None:
            return wall, cpu, {}
        parts = wl.part_walls(out) if hasattr(wl, "part_walls") else {}
        try:
            checks, digest = wl.check(out, self.reference)
        except Exception:
            self.attempted += 1
            self.failures.append("check raised: " + traceback.format_exc(limit=4))
            return wall, cpu, parts
        if self.reference is None:
            self.reference = digest
        self.attempted += len(checks)
        self.failures += [f"{c.name}: {c.detail}" for c in checks if not c.passed]
        return wall, cpu, parts


def fits(deadline: float, walls: list[float], passes: int) -> bool:
    """Whether ``passes`` more passes of median length end by the deadline.

    Stopping before the deadline instead of after it keeps a run's length
    near ``--seconds`` even when one pass takes seconds.
    """
    return perf_counter() + passes * statistics.median(walls) <= deadline


def run_untraced(runner: Runner, seconds: float) -> dict:
    deadline = perf_counter() + seconds
    runner.one_pass()  # warm-up: caches, lazy imports, first-touch pages
    walls, cpus, parts = [], [], []
    while len(walls) < MIN_PASSES or fits(deadline, walls, 1):
        wall, cpu, part = runner.one_pass()
        walls.append(wall)
        cpus.append(cpu)
        parts.append(part)
    return {"walls": walls, "cpus": cpus, "parts": parts}


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    from tracer import Tracer, layer_table, self_times

    tracer = Tracer()
    deadline = perf_counter() + seconds
    runner.one_pass()
    plain, traced, parts, traced_ids = [], [], [], []
    k = 0
    while len(traced) < MIN_PASSES or fits(deadline, traced, 2):
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced_turn:
                wall, _, part = runner.one_pass()
                plain.append(wall)
                parts.append(part)
                continue
            tracer.pass_id = k
            wall, _, _ = runner.one_pass(tracer)
            traced.append(wall)
            traced_ids.append(k)
        k += 1

    table = layer_table(tracer.spans, traced_ids)
    selfs = self_times(tracer.spans)
    layer_self = [sum(s for span, s in zip(tracer.spans, selfs)
                      if span[4] == p and not span[0].startswith("bench."))
                  for p in traced_ids]
    pass_spans = [s[2] - s[1] for s in tracer.spans if s[0] == "bench.pass"]
    for p, own, whole in zip(traced_ids, layer_self, pass_spans):
        runner.attempted += 1
        if not own <= whole:
            runner.failures.append(f"trace: layer self time {own} > traced wall {whole} in pass {p}")
    with open(spans_path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "pass", "counts"],
                   "spans": tracer.spans}, fh)
    return {"walls": plain, "traced_walls": traced, "parts": parts, "table": table,
            "layer_self_s": layer_self, "passes": len(traced_ids),
            "missing_layers": tracer.missing}


def blas_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        return {"name": "unknown"}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    args.scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    ready = perf_counter()
    result = {"ready": ready}
    if not args.setup_only:
        runner = Runner(workload)
        if args.trace:
            res = run_traced(runner, args.seconds, args.spans)
        else:
            res = run_untraced(runner, args.seconds)
        parts = [p for p in res.pop("parts") if p]
        res["part_walls"] = {name: statistics.median(p[name] for p in parts)
                             for name in (parts[0] if parts else {})}
        res.update(
            attempted=runner.attempted,
            failures=runner.failures,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            blas=blas_facts(),
        )
        result.update(res)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
