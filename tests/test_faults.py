"""Every CLI verifier fails on a seeded fault, or is listed as one that no fault fails yet.

``FAULTS`` maps a verifier to ``(stage, drift_fault)``. ``stage(faulted)``
returns the run the check is built for and the output of the stage the
check takes, with or without the fault; ``drift_fault`` says whether the
fault is in the drift. ``UNFAILED`` names each verifier that no fault
fails yet, with the ROADMAP item meant to give it one; a verifier that
gains a fault moves to ``FAULTS``. One seed per case: the rates over
seeds are a calibration's business.
"""

from dataclasses import replace

import numpy as np
import pytest

from sdlab import sde
from sdlab.cli import VERIFIERS, validate_config_data
from sdlab.grids import SpaceTimeField
from sdlab.pde import SolutionBundle, build_operator, solve


def _unit_diffusion(faulted):
    """The zero-drift ensemble at 2000 paths; the fault is diffusion 1 where b = 0 has sqrt(2)."""
    cfg = {
        "schema_version": 1,
        "seed": 3,
        "grid": {"dim": 2, "extent": 8.0, "points": 8, "t0": 0.0, "t1": 0.5, "steps": 1},
        "drift": {"kind": "zero"},
        "ensemble": {"start": [0.0, 0.0], "s": 0.0, "horizon": 0.5, "dt": 0.05, "paths": 2000},
    }
    if faulted:
        cfg["diffusion"] = 1.0
    run = validate_config_data(cfg)
    return run, sde.simulate(run.ensemble)


def _explicit_euler_pulse(faulted):
    """A unit point source on the first two slices at dt/h^2 = 12.8; the fault is explicit Euler.

    Its step u + dt (A u + f) has diagonal 1 - 2d dt/h^2 < 0 there, so it rings
    below 0; the implicit scheme is monotone for any dt.  The CLI has no point
    source and no second scheme, so the stage is solved here.
    """
    run = validate_config_data({
        "schema_version": 1,
        "grid": {"dim": 2, "extent": 4.0, "points": 64, "t0": 0.0, "t1": 0.5, "steps": 10},
        "drift": {"kind": "zero"},
        "pde": {"direction": "forward"},
    })
    g = run.problem.grid
    values = np.zeros((g.nt, *g.spatial_shape()))
    values[:2, 32, 32] = 1.0
    problem = replace(run.problem, source=SpaceTimeField(g, values, 1))
    if not faulted:
        return run, solve(problem)
    A = build_operator(g, problem.drift(g.times[0], g.nodes()))
    f = values.reshape(g.nt, -1)
    u = np.zeros(f.shape)
    for k in range(g.time_steps):
        u[k + 1] = u[k] + g.dt * (A @ u[k] + f[k])
    u = u.reshape(values.shape)
    return run, SolutionBundle(SpaceTimeField(g, u, 1), float(np.abs(u).max()), 0.0)


FAULTS = {
    "brownian-variance": (_unit_diffusion, False),
    "density-ks": (_unit_diffusion, False),
    "max-principle": (_explicit_euler_pulse, False),
}

UNFAILED = {"feynman-kac": "item 1", "stability": "item 20", "krylov": "item 7"}


def test_every_verifier_has_a_fault_or_is_listed_unfailed():
    assert not set(FAULTS) & set(UNFAILED)
    assert set(FAULTS) | set(UNFAILED) == set(VERIFIERS)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_fails_the_check_and_the_unfaulted_stage_passes(name):
    stage, _ = FAULTS[name]
    build, _ = VERIFIERS[name]
    for faulted in (False, True):
        run, output = stage(faulted)
        assert build(run)(output)["passed"] is not faulted, f"faulted={faulted}"
