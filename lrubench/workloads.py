"""The benchmark's workloads: which ensembles each one runs, and why.

A workload is a list of cells; a cell is one `SimulationConfig` run through
`run_ensemble`, optionally checked against `solve_master_dense`, and fitted
with `fit_exponential`. One pass over a workload's cells is a round. The
master seed of every cell is derived from the benchmark seed, the round
index and the cell index, so one seed always gives the same inputs.

`lrusim` is imported inside the functions, so that `run.py` can parse its
arguments and report missing sources before anything imports the package.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

#: Chain parameters shared by every cell, in the dimensionless J = 1 units.
#: The mean frequency is zero (rotating frame); the uniform second level
#: then sits at -U.
HOPPING = 1.0
ANHARMONICITY = 10.0
MEAN_FREQUENCY = 0.0

#: Largest |z| allowed at any grid point between an ensemble and the dense
#: oracle. Reference runs at this commit give 1 to 3 over 2 x 61 points.
Z_BOUND = 5.0


@dataclass(frozen=True)
class Fit:
    """One decay-time fit: `series` is an `EnsembleObservables` field.

    `window` is "plateau" to open the window after the transport plateau
    (`leakage_fit_start`), or "origin" to fit from t = 0.
    """

    name: str
    series: str
    window: str


@dataclass(frozen=True)
class Cell:
    name: str
    length: int
    disorder: float
    channel: str
    rate: float
    relaxation: float
    dephasing: float
    coding: str
    t_max: float
    dt: float
    stride: int
    n_trajectories: int
    parallel: bool  # n_threads = nproc when set, else 1
    fits: tuple[Fit, ...]
    oracle: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple[Cell, ...]

    @property
    def single_threaded(self) -> bool:
        """No cell runs on more than one thread."""
        return not any(cell.parallel for cell in self.cells)


T_STAR = Fit("T_star", "leakage_total", "plateau")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "disorder-L5",
            "set-up bound: one disordered Hamiltonian per trajectory, eig of 243-dim "
            "matrices dominates; two chunks on nproc threads with default BLAS threads",
            (
                Cell("dissipation", length=5, disorder=4.0, channel="dissipation",
                     rate=0.4, relaxation=0.01, dephasing=0.01, coding="ket2",
                     t_max=40.0, dt=0.5, stride=1, n_trajectories=128,
                     parallel=True, fits=(T_STAR,)),
            ),
        ),
        Workload(
            "reset-L3",
            "event-loop bound and single-threaded: both feedback schedules, the "
            "measurement path, and T1/T2 from a plus state; one shared Hamiltonian",
            (
                Cell("periodic", length=3, disorder=0.0, channel="periodic_feedback",
                     rate=2.0, relaxation=0.05, dephasing=0.01, coding="ket2",
                     t_max=40.0, dt=0.02, stride=1, n_trajectories=128,
                     parallel=False, fits=(T_STAR,)),
                Cell("random", length=3, disorder=0.0, channel="random_feedback",
                     rate=2.0, relaxation=0.05, dephasing=0.01, coding="ket2",
                     t_max=40.0, dt=0.02, stride=1, n_trajectories=128,
                     parallel=False, fits=(T_STAR,)),
                Cell("plus", length=3, disorder=0.0, channel="dissipation",
                     rate=2.0, relaxation=0.05, dephasing=0.01, coding="plus",
                     t_max=40.0, dt=0.02, stride=1, n_trajectories=128,
                     parallel=False,
                     fits=(Fit("T1", "occupation_site1", "origin"),
                           Fit("T2", "coherence_envelope_site1", "origin"))),
            ),
        ),
        Workload(
            "oracle-L4",
            "oracle bound: solve_master_dense at dim 81 next to a random-feedback "
            "ensemble, every grid point checked by z-score",
            (
                # t_max ends before the transport plateau, so T* is fitted
                # from t = 0 and mostly reflects the background noise
                Cell("random", length=4, disorder=0.0, channel="random_feedback",
                     rate=1.0, relaxation=0.01, dephasing=0.01, coding="ket2",
                     t_max=6.0, dt=0.01, stride=10, n_trajectories=256,
                     parallel=False, oracle=True,
                     fits=(Fit("T_star", "leakage_total", "origin"),)),
            ),
        ),
    )
}


def cell_seed(seed: int, round_index: int, cell_index: int) -> int:
    """Master seed of one cell in one round."""
    return int(np.random.SeedSequence([seed, round_index, cell_index]).generate_state(1)[0])


def make_config(cell: Cell, master_seed: int):
    from lrusim import LatticeSpec, NoiseModel, ResetChannel, SimulationConfig

    spec = LatticeSpec(cell.length, MEAN_FREQUENCY, ANHARMONICITY, HOPPING, cell.disorder)
    return SimulationConfig(
        lattice=spec,
        channel=ResetChannel(cell.channel, cell.rate),
        t_max=cell.t_max,
        dt=cell.dt,
        n_trajectories=cell.n_trajectories,
        noise=NoiseModel(cell.relaxation, cell.dephasing),
        initial_coding_state=cell.coding,
        master_seed=master_seed,
        observable_stride=cell.stride,
    )


def fit_start(cell: Cell, fit: Fit) -> float:
    from lrusim.observables import leakage_fit_start

    if fit.window == "plateau":
        return leakage_fit_start(cell.length, HOPPING, ANHARMONICITY)
    return 0.0


def warm_up() -> None:
    """The first call made after import: a tiny dissipative ensemble."""
    from lrusim import LatticeSpec, NoiseModel, ResetChannel, SimulationConfig, run_ensemble

    config = SimulationConfig(
        lattice=LatticeSpec(2, MEAN_FREQUENCY, ANHARMONICITY, HOPPING),
        channel=ResetChannel("dissipation", 0.5),
        t_max=1.0, dt=0.1, n_trajectories=4,
        noise=NoiseModel(0.01, 0.01),
    )
    run_ensemble(config)


def describe(workload: Workload) -> dict:
    """Every parameter of a workload, for the run record."""
    return {
        "name": workload.name,
        "why": workload.why,
        "mean_frequency": MEAN_FREQUENCY,
        "anharmonicity": ANHARMONICITY,
        "hopping": HOPPING,
        "temperature": 0.0,
        "z_bound": Z_BOUND,
        "single_threaded": workload.single_threaded,
        "cells": [asdict(cell) for cell in workload.cells],
    }
