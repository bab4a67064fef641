"""Simulator and analytics for a passive leakage removal unit.

A chain of disordered three-level transmons keeps its two-boson (leakage)
level resonant across the array while detuning the single-excitation
levels, so leakage propagates to the last site where a reset channel --
periodic or random feedback measurement, or engineered dissipation --
removes it. The package provides the lattice operators, exact eigenbasis
propagation, stochastic trajectory ensembles with a dense master-equation
oracle, decay-time extraction and the closed-form two-site analytics.
"""

from .analytics import (
    TwoSiteParams,
    disintegration_frequency,
    disintegration_threshold,
    diss_norm_exact_L2,
    diss_norm_general_L,
    diss_qubit_times,
    diss_rate_high,
    diss_rate_low,
    fb_leakage_rate_high,
    fb_leakage_rate_low,
    fb_qubit_times,
    liouvillian_qubit_gap,
    two_site_populations,
)
from .channels import (
    NoiseModel,
    ResetChannel,
    noise_jump_operators,
    sample_thermal_initial,
)
from .lattice import (
    DisorderRealization,
    FockBasis,
    LatticeSpec,
    build_bose_hubbard,
    build_effective_propagation,
    build_site_operator,
    realize_disorder,
)
from .observables import (
    FitResult,
    coherence_envelope,
    fit_exponential,
    propagation_time,
)
from .propagator import propagate_nonhermitian_norm
from .trajectory import (
    EnsembleObservables,
    SimulationConfig,
    run_ensemble,
    run_trajectory,
    solve_master_dense,
)

__version__ = "0.1.0"

__all__ = [
    "DisorderRealization",
    "EnsembleObservables",
    "FitResult",
    "FockBasis",
    "LatticeSpec",
    "NoiseModel",
    "ResetChannel",
    "SimulationConfig",
    "TwoSiteParams",
    "build_bose_hubbard",
    "build_effective_propagation",
    "build_site_operator",
    "coherence_envelope",
    "disintegration_frequency",
    "disintegration_threshold",
    "diss_norm_exact_L2",
    "diss_norm_general_L",
    "diss_qubit_times",
    "diss_rate_high",
    "diss_rate_low",
    "fb_leakage_rate_high",
    "fb_leakage_rate_low",
    "fb_qubit_times",
    "fit_exponential",
    "liouvillian_qubit_gap",
    "noise_jump_operators",
    "propagate_nonhermitian_norm",
    "propagation_time",
    "realize_disorder",
    "run_ensemble",
    "run_trajectory",
    "sample_thermal_initial",
    "solve_master_dense",
    "two_site_populations",
]
