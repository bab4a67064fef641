"""`import lrusim` and the engine load no scipy submodule; each scipy user
imports its own on first use.

Each check runs in a fresh interpreter, because the test process has
imported scipy long before (test_analytics imports scipy.optimize itself),
so an in-process test cannot see a missing or an eager import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> None:
    """Run `code` in a new interpreter that imports lrusim from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr


def test_import_and_ensemble_load_no_scipy_submodule():
    # the size of the benchmark's warm-up call
    run_fresh("""
import sys
from lrusim import LatticeSpec, NoiseModel, ResetChannel, SimulationConfig, run_ensemble
run_ensemble(SimulationConfig(
    lattice=LatticeSpec(2, 0.0, 10.0, 1.0),
    channel=ResetChannel("dissipation", 0.5),
    t_max=1.0, dt=0.1, n_trajectories=4,
    noise=NoiseModel(0.01, 0.01),
))
loaded = {"scipy.integrate", "scipy.sparse", "scipy.optimize"} & set(sys.modules)
assert not loaded, sorted(loaded)
""")


@pytest.mark.parametrize("code", [
    pytest.param("""
import lrusim
import lrusim.trajectory
lrusim.solve_master_dense(lrusim.SimulationConfig(
    lattice=lrusim.LatticeSpec(2, 0.0, 10.0, 1.0),
    channel=lrusim.ResetChannel("random_feedback", 1.0),
    t_max=0.5, dt=0.1, n_trajectories=1,
))
import scipy.integrate
assert lrusim.trajectory.solve_ivp is scipy.integrate.solve_ivp
""", id="solve_master_dense"),
    pytest.param("""
import numpy as np
import lrusim
from lrusim.observables import LOG_FIT_FLOOR
t = np.linspace(0.0, 10.0, 50)
fit = lrusim.fit_exponential(t, 0.1 * LOG_FIT_FLOOR * np.exp(-t / 3.0))
assert fit.converged and abs(fit.decay_time - 3.0) < 1e-6, fit
""", id="fit_exponential-fallback"),
    pytest.param("""
import lrusim
assert 1.0 < lrusim.disintegration_threshold() < 3.0
""", id="disintegration_threshold"),
])
def test_first_use_imports_scipy(code):
    run_fresh(code)
