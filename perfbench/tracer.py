"""In-memory spans around the calls into each sdlab layer.

A span is ``[name, start, end, parent, pass_id, counts]``; ``parent`` is
the index of the enclosing span on the same thread (-1 at the top) and
``counts`` holds work done by that call (normals drawn, points evaluated,
bytes written).  Spans stay in a list until the run ends.

Wrappers are installed from outside the package: a function is replaced
in every ``sdlab`` namespace that holds it (``from x import y`` copies
the name), methods are patched on their class, and ``splu`` is reached
through a stand-in for ``sdlab.pde.spla`` whose factor object times
``solve``.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
from time import perf_counter

import numpy as np


def _points(X) -> int:
    shape = np.shape(X)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _drift_kind(drift) -> str:
    if drift.provenance == "custom":
        return str(drift.metadata.get("name", "custom"))
    return drift.provenance


def _file_bytes(path) -> int:
    return os.path.getsize(path)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = -1
        self._local = threading.local()
        self._restore: list[tuple] = []
        self.missing: list[str] = []  # layers this sdlab no longer has

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = perf_counter()
        self._stack().pop()

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call.

        ``name`` is a string or a function of the call's positional
        arguments; ``count(args, kwargs, result)`` returns the call's
        work counters, evaluated after the span has closed.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name if isinstance(name, str) else name(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if count is not None:
                rec[5] = count(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself (pass, scenario)."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sdlab" or modname.startswith("sdlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no sdlab namespace holds {original!r}")

    def install(self):
        """Wrap every layer; a layer sdlab no longer has goes to ``missing``."""
        self.missing = []
        from sdlab import cli, degiorgi, drifts, grids, norms, pde, sde

        functions = [
            (sde, "step_normals", lambda a, k, out: {"rows": out.shape[0], "normals": out.size}),
            (sde, "simulate", lambda a, k, out: {"path_steps": a[0].paths * a[0].n_steps}),
            (sde, "backward_flow_det",
             lambda a, k, out: {"path_steps": a[0].config.paths * a[0].config.n_steps}),
            (sde, "save_ensemble", lambda a, k, out: {"bytes": _file_bytes(a[1])}),
            (sde, "feynman_kac_check", None),
            (sde, "krylov_verify", None),
            (sde, "jacobian_semigroup", None),
            (drifts, "check_admissibility", None),
            (pde, "build_operator", None),
            (pde, "solve", lambda a, k, out: {
                "node_steps": a[0].grid.points_per_axis ** a[0].grid.spatial_dim
                * a[0].grid.time_steps}),
            (pde, "stability_sweep", None),
            (norms, "vnorm", None),
            (norms, "spatial_gradient", None),
            (norms, "mixed_norm", None),
            (norms, "localized_norm", _localized_centers),
            (degiorgi, "run_iteration", None),
            (degiorgi, "threshold_kappa", None),
            (grids, "write_field", lambda a, k, out: {"bytes": _file_bytes(a[0])}),
            (cli, "_sha256", lambda a, k, out: {"bytes": _file_bytes(a[0])}),
        ]
        points = lambda a, k, out: {"points": _points(a[2])}  # noqa: E731
        methods = [
            (drifts.DriftField, "__call__", lambda a: "drifts.eval." + _drift_kind(a[0]), points),
            (drifts.DriftField, "divergence", lambda a: "drifts.div." + _drift_kind(a[0]), points),
            (norms.CutoffFamily, "evaluate", "norms.CutoffFamily.evaluate", None),
            (getattr(cli, "run", None), "callback", "cli.run", None),
        ]
        try:
            for module, attr, count in functions:
                fn = getattr(module, attr, None)
                name = module.__name__.removeprefix("sdlab.") + "." + attr
                if fn is None:
                    self.missing.append(name)
                    continue
                self._replace_everywhere(fn, self.wrap(name, fn, count))
            for owner, attr, name, count in methods:
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(name if isinstance(name, str) else f"{owner!r}.{attr}")
                    continue
                self._set(owner, attr, self.wrap(name, fn, count))
            if hasattr(pde, "spla"):
                self._set(pde, "spla", _SplaProxy(pde.spla, self))
            else:
                self.missing.append("pde.splu")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def _localized_centers(args, kwargs, out) -> dict:
    from sdlab.norms import CutoffFamily

    f, spec = args[0], args[1]
    cutoffs = args[2] if len(args) > 2 else kwargs.get("cutoffs")
    if cutoffs is None:
        cutoffs = CutoffFamily(radius=spec.cutoff_radius)
    return {"centers": len(cutoffs.lattice_centers(f.grid))}


class _SplaProxy:
    """``scipy.sparse.linalg`` as seen by ``sdlab.pde``, with a traced ``splu``."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self.splu = tracer.wrap("pde.splu", self._splu)

    def _splu(self, *args, **kwargs):
        return _LUProxy(self._module.splu(*args, **kwargs), self._tracer)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class _LUProxy:
    """A SuperLU factor whose ``solve`` records ``pde.lu_solve`` spans."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.wrap("pde.lu_solve", lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def layer_table(spans: list[list], passes: list[int]) -> dict:
    """Per span name and per pass: calls, self and total seconds, counts.

    ``total`` counts only the outermost span of a name, so a layer that
    re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    table: dict = {}
    for i, (name, start, end, parent, pass_id, counts) in enumerate(spans):
        if pass_id not in passes:
            continue
        row = table.setdefault(name, {p: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": {}}
                                      for p in passes})[pass_id]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["total_s"] += end - start
        for key, value in (counts or {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return table
