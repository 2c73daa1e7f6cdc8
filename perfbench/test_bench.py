"""Tests of the benchmark itself: each output check fires on a seeded fault.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_table  # noqa: E402

from sdlab import degiorgi, drifts, norms, sde  # noqa: E402
from sdlab.grids import GridSpec, SpaceTimeField  # noqa: E402


def _radial_final(c: float):
    w = workloads.Ensemble3D
    steps = int(round(w.HORIZON / w.DT))
    cfg = sde.EnsembleConfig(drifts.radial_drift(c, w.D, w.EPS), (0.0, w.X0), w.HORIZON,
                             w.DT, 4000, 5, store_stride=steps)
    return sde.simulate(cfg).final_states


@pytest.mark.parametrize("c_sim, fires", [(0.5, False), (-0.5, True)])
def test_second_moment_check_fires_on_wrong_sign_of_c(c_sim, fires):
    w = workloads.Ensemble3D
    check = workloads.second_moment_check(_radial_final(c_sim), w.X0, w.C, w.D, w.HORIZON,
                                          w.DT, w.EPS)
    assert check.passed is not fires, check.detail


@pytest.fixture(scope="module")
def control_runs(tmp_path_factory):
    """Two passes of the negative-control scenario, kept on disk."""
    suite = workloads.ScenarioSuite(0, tmp_path_factory.mktemp("suite"))
    suite.order = ["unit-diffusion-control"]
    return suite, suite.run_pass(), suite.run_pass()


def test_exit_check_fires_on_swapped_verdict(control_runs):
    _, first, _ = control_runs
    codes = first[0]
    assert workloads.scenario_exit_check("unit-diffusion-control", codes["unit-diffusion-control"],
                                         workloads.EXPECTED_EXIT["unit-diffusion-control"]).passed
    swapped = workloads.scenario_exit_check("unit-diffusion-control",
                                            codes["unit-diffusion-control"], 0)
    assert not swapped.passed


def test_determinism_check_fires_on_perturbed_hash(control_runs):
    _, first, second = control_runs
    manifest_path = second[1] / "unit-diffusion-control" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert workloads.determinism_check(_digest(second), _digest(first)).passed
    sha = manifest["artifacts"]["ensemble"]["sha256"]
    manifest["artifacts"]["ensemble"]["sha256"] = ("0" if sha[0] != "0" else "1") + sha[1:]
    manifest_path.write_text(json.dumps(manifest))
    assert not workloads.determinism_check(_digest(second), _digest(first)).passed


def _digest(out):
    codes, outdir, _ = out
    return workloads.scenario_digest(codes, outdir)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [entry[:3] for entry in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_self_time_and_restore():
    originals = (norms.mixed_norm, degiorgi.mixed_norm, drifts.DriftField.__call__)
    tracer = Tracer()
    tracer.pass_id = 0
    tracer.install()
    try:
        assert degiorgi.mixed_norm is not originals[1]
        with tracer.region("bench.pass"):
            drifts.radial_drift(0.5, 2, 0.1)(0.0, np.ones((10, 2)))
            g = GridSpec(2, 4.0, 8, 0.0, 1.0, 2)
            norms.vnorm(SpaceTimeField(g, np.ones((g.nt, 8, 8)), 1))
    finally:
        tracer.uninstall()
    assert (norms.mixed_norm, degiorgi.mixed_norm, drifts.DriftField.__call__) == originals
    table = layer_table(tracer.spans, [0])
    assert table["drifts.eval.radial"][0]["counts"] == {"points": 10}
    vn, mn = table["norms.vnorm"][0], table["norms.mixed_norm"][0]
    assert mn["calls"] == 1
    assert vn["self_s"] == pytest.approx(vn["total_s"] - mn["total_s"]
                                         - table["norms.spatial_gradient"][0]["total_s"])
    whole = table["bench.pass"][0]["total_s"]
    assert sum(row[0]["self_s"] for row in table.values()) == pytest.approx(whole)
