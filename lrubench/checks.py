"""Output checks that decide whether a cell failed.

A cell fails when any of these returns a problem:

- every series of the ensemble (and of the oracle) is finite;
- every mean stays in its physical range within one standard error;
- every fit is converged with a positive decay time;
- with an oracle, the largest |z| over the grid stays within a bound.

`self_test` corrupts a good result once per check and requires that
check to trip; the benchmark runs it before measuring.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np

#: Physical range of each ensemble mean, for T = 0 chains holding at most
#: one leakage pair.
RANGES = {
    "leakage_total": (0.0, 1.0),
    "leakage_site1": (0.0, 1.0),
    "occupation_site1": (0.0, 2.0),
    "coherence_envelope_site1": (0.0, 1.0),
}

#: Series compared against the oracle, grid point by grid point.
ORACLE_SERIES = ("leakage_total", "occupation_site1")

#: Rounding slack on top of the standard error in the range check.
RANGE_SLACK = 1e-9


def check_finite(ens, oracle=None) -> list[str]:
    problems = []
    for source, obj in (("ensemble", ens), ("oracle", oracle)):
        if obj is None:
            continue
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, np.ndarray) and not np.all(np.isfinite(value)):
                problems.append(f"{source}.{f.name} is not finite")
    return problems


def check_ranges(ens) -> list[str]:
    problems = []
    for name, (lo, hi) in RANGES.items():
        mean = getattr(ens, name)
        slack = getattr(ens, name + "_se") + RANGE_SLACK
        if np.any(mean < lo - slack) or np.any(mean > hi + slack):
            problems.append(f"{name} leaves [{lo}, {hi}]")
    return problems


def check_fits(fits: dict) -> list[str]:
    return [
        f"fit {name} not converged or decay time {fit.decay_time} not positive"
        for name, fit in fits.items()
        if not (fit.converged and fit.decay_time > 0)
    ]


def max_z(ens, oracle) -> float:
    """Largest |z| of the ensemble means against the oracle.

    The standard error gets a floor of three trajectories' worth of the
    mean (3/n). While only a few jumps are expected, the trajectories that
    have not jumped all agree, so the sample SE reads near zero although
    the mean is off by the missing jumps: with four relaxations expected by
    t = 0.8 and none drawn, the mean sits 4/n above the oracle. With the
    floor, |z| > 5 needs about 15 expected jumps and none drawn.
    """
    floor = 3.0 / ens.n_trajectories_used
    worst = 0.0
    for name in ORACLE_SERIES:
        diff = getattr(ens, name) - getattr(oracle, name)
        se = getattr(ens, name + "_se")
        worst = max(worst, float(np.max(np.abs(diff) / np.sqrt(se**2 + floor**2))))
    return worst


def check_oracle(ens, oracle, bound: float) -> list[str]:
    z = max_z(ens, oracle)
    return [] if z <= bound else [f"max |z| {z:.2f} against the oracle exceeds {bound}"]


def check_cell(ens, fits: dict, oracle=None, z_bound: float = math.inf) -> list[str]:
    problems = check_finite(ens, oracle) + check_ranges(ens) + check_fits(fits)
    if oracle is not None and not check_finite(ens, oracle):
        problems += check_oracle(ens, oracle, z_bound)
    return problems


def self_test() -> list[str]:
    """Corrupt a synthetic good result once per check; return what went wrong."""
    from lrusim.observables import fit_exponential
    from lrusim.trajectory import EnsembleObservables, ModelSeries

    n = 400
    t = np.linspace(0.0, 10.0, 101)
    decay = np.exp(-t / 4.0)
    se = np.full(t.size, 0.01)
    good = EnsembleObservables(
        time_grid=t,
        leakage_total=decay, leakage_total_se=se,
        leakage_site1=0.5 * decay, leakage_site1_se=se,
        occupation_site1=2.0 * decay, occupation_site1_se=se,
        coherence_site1=0.5 * decay + 0j, coherence_site1_se=se,
        coherence_envelope_site1=decay, coherence_envelope_site1_se=se,
        n_trajectories_used=n,
    )
    oracle = ModelSeries(time_grid=t, leakage_total=decay, leakage_site1=0.5 * decay,
                         occupation_site1=2.0 * decay, coherence_site1=0.5 * decay + 0j)

    def fits_of(ens):
        return {"T_star": fit_exponential(t, ens.leakage_total)}

    def run(ens):
        return check_cell(ens, fits_of(ens), oracle, z_bound=5.0)

    def spiked(series, index, value):
        out = series.copy()
        out[index] = value
        return out

    errors = []
    if run(good):
        errors.append(f"good result flagged: {run(good)}")
    corruptions = {
        "not finite": replace(good, occupation_site1=spiked(good.occupation_site1, 50, math.nan)),
        "leaves [0.0, 1.0]": replace(good, leakage_total=spiked(good.leakage_total, 0, 1.2)),
        "not converged": replace(good, leakage_total=decay[::-1].copy()),
        "against the oracle": replace(good, occupation_site1=good.occupation_site1 + 0.1),
    }
    for expected, ens in corruptions.items():
        problems = run(ens)
        if not any(expected in p for p in problems):
            errors.append(f"corruption '{expected}' not caught: {problems}")
    return errors
