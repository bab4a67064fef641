"""Names that code outside the package relies on.

The benchmark's tracer (`lrubench/spans.py`) swaps the functions
`lrusim.trajectory` looks up, `solve_ivp` among them, and
`numpy.linalg.eig`, for recording wrappers. A rename there, or an eig
imported by name, breaks the traced benchmark run without failing any
physics test.
"""

import ast
from pathlib import Path

import numpy as np

import lrusim
import lrusim.trajectory

SPANS = Path(__file__).resolve().parents[1] / "lrubench" / "spans.py"


def module_constant(path: Path, name: str):
    """A literal assigned at module level, read without importing the module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {path}")


def test_traced_trajectory_names_exist():
    names = module_constant(SPANS, "TRAJECTORY_NAMES")
    assert names
    missing = [name for name in names if not hasattr(lrusim.trajectory, name)]
    assert not missing


def test_public_names_resolve():
    missing = [name for name in lrusim.__all__ if not hasattr(lrusim, name)]
    assert not missing


def test_ensemble_looks_up_eig_when_called(monkeypatch):
    shapes = []
    eig = np.linalg.eig

    def recording_eig(matrices):
        shapes.append(np.shape(matrices))
        return eig(matrices)

    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    config = lrusim.SimulationConfig(
        lattice=lrusim.LatticeSpec(2, 0.0, 10.0, 1.0),
        channel=lrusim.ResetChannel("dissipation", 0.5),
        t_max=1.0, dt=0.1, n_trajectories=4,
    )
    lrusim.run_ensemble(config)
    # one batched call per chunk, in the N <= 2 sector of ket2 (6 of 9 states)
    assert shapes == [(4, 6, 6)]


def test_oracle_looks_up_solve_ivp_when_called(monkeypatch):
    sizes = []
    solve_ivp = lrusim.trajectory.solve_ivp

    def recording_solve_ivp(fun, t_span, y0, **kwargs):
        sizes.append(np.size(y0))
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(lrusim.trajectory, "solve_ivp", recording_solve_ivp)
    config = lrusim.SimulationConfig(
        lattice=lrusim.LatticeSpec(4, 0.0, 10.0, 1.0),
        channel=lrusim.ResetChannel("random_feedback", 1.0),
        t_max=0.5, dt=0.01, n_trajectories=1,
        noise=lrusim.NoiseModel(0.01, 0.01), observable_stride=10,
    )
    lrusim.solve_master_dense(config)
    # one integration of the density over the N <= 2 sector of ket2 (15 of 81 states)
    assert sizes == [15 * 15]
