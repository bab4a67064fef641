"""Observable extraction and exponential decay-time fitting.

Decay times are extracted from ensemble time series by single-exponential
fits: the array leakage population gives T_star (window opened after the
transport plateau), the coding-site excitation gives T1, and the envelope
of the coding-site coherence gives T2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import FockBasis

#: Below this floor the log-space linear fit gives way to nonlinear least squares.
LOG_FIT_FLOOR = 1e-6

MIN_FIT_POINTS = 10


@dataclass(frozen=True)
class FitResult:
    """Outcome of a single-exponential fit A exp(-t/tau)."""

    decay_time: float
    amplitude: float
    fit_window: tuple[float, float]
    rms_residual: float
    converged: bool

    def __post_init__(self):
        if self.converged and not self.decay_time > 0:
            raise ValueError("converged fit must carry a positive decay time")


def site_expectations(populations, basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """Per-site leakage n (n - 1)/2 and occupation n from Fock-basis populations.

    `populations` has shape (..., basis.dimension) over any leading batch
    axes (the trajectories of a chunk, or the points of a time grid) and is
    used as given, not renormalized. Both results have shape (..., L),
    site 1 first.
    """
    n = basis.occupations.astype(float)
    pops = np.asarray(populations)
    return pops @ (n * (n - 1.0) / 2.0), pops @ n


def chain_series(populations, coherence, basis: FockBasis) -> dict[str, np.ndarray]:
    """The series the figures of merit are read from, by their result-field names.

    `populations` (..., basis.dimension) and the site-1 coherence (...) are
    of normalized states; the array's leakage (T*) sums `site_expectations`
    over the sites, and site 1 gives its leakage, occupation (T1) and
    coherence (T2).
    """
    leak, occ = site_expectations(populations, basis)
    return {"leakage_total": leak.sum(axis=-1), "leakage_site1": leak[..., 0],
            "occupation_site1": occ[..., 0], "coherence_site1": coherence}


@functools.lru_cache(maxsize=16)
def _site1_pairs(basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """Rows of |0, rest> and of |1, rest>, for every rest that has both."""
    src, dst = basis.transitions({1: +1})
    empty = basis.occupations[src, 0] == 0
    zero, one = src[empty], dst[empty]
    zero.flags.writeable = one.flags.writeable = False  # shared through the cache
    return zero, one


def state_site1_coherence(amplitudes, basis: FockBasis) -> np.ndarray:
    """<0|rho_1|1> of state vectors (..., basis.dimension), not divided by the norm."""
    amps = np.asarray(amplitudes)
    zero, one = _site1_pairs(basis)
    return np.einsum("...r,...r->...", amps[..., zero], amps[..., one].conj())


def density_site1_coherence(rho, basis: FockBasis) -> np.ndarray:
    """<0|rho_1|1> of density matrices (..., D, D) over `basis`, over leading axes."""
    zero, one = _site1_pairs(basis)
    return np.asarray(rho)[..., zero, one].sum(axis=-1)


def coherence_envelope(series) -> np.ndarray:
    """Envelope of the sigma_x oscillations from the complex coherence.

    <sigma_x> = 2 Re <0|rho_1|1> oscillates at the qubit frequency; its
    envelope is twice the coherence modulus.
    """
    return 2.0 * np.abs(np.asarray(series, dtype=complex))


def propagation_time(hopping: float, anharmonicity: float) -> float:
    """Single-hop transport time of a leakage pair, pi U / (4 J^2)."""
    if not (0 < hopping < math.inf and 0 < anharmonicity < math.inf):
        raise ValueError("need positive, finite hopping and anharmonicity")
    return math.pi * anharmonicity / (4.0 * hopping**2)


def fit_exponential(times, values, t_start: float = 0.0,
                    t_end: float | None = None) -> FitResult:
    """Least-squares fit of A exp(-t/tau) on [t_start, t_end].

    Fits in log space (linear least squares) when every sample in the window
    exceeds LOG_FIT_FLOOR, otherwise falls back to nonlinear least squares
    (`scipy.optimize.curve_fit`, imported on first use of the fallback).
    Non-positive or growing data (a least-squares slope >= 0, of log y or
    in the fallback of y, on t), a degenerate window or a failed nonlinear
    fit yield converged = False, with NaN decay time, amplitude and residual.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have the same shape")
    t_end = float(times[-1]) if t_end is None else t_end
    mask = (times >= t_start) & (times <= t_end)
    t_win = times[mask]
    y_win = values[mask]
    window = (float(t_start), float(t_end))
    if t_win.size < MIN_FIT_POINTS:
        return FitResult(math.nan, math.nan, window, math.nan, False)

    if np.all(y_win > LOG_FIT_FLOOR):
        slope, intercept = np.polyfit(t_win, np.log(y_win), 1)
        if slope >= 0:
            return FitResult(math.nan, math.nan, window, math.nan, False)
        tau = -1.0 / slope
        amp = math.exp(intercept)
        model = amp * np.exp(-t_win / tau)
        return FitResult(tau, amp, window, _rms(y_win, model), True)

    if np.all(y_win <= 0) or (t_win - t_win.mean()) @ y_win >= 0:
        return FitResult(math.nan, math.nan, window, math.nan, False)
    from scipy.optimize import curve_fit

    scale = float(np.abs(y_win).max())
    span = max(t_win[-1] - t_win[0], 1e-12)
    try:
        amp0 = max(float(y_win[0]) / scale, 1e-6)
        popt, _ = curve_fit(
            lambda t, a, tau: a * np.exp(-t / tau),
            t_win, y_win / scale, p0=(amp0, span / 2.0),
            bounds=((0.0, 1e-12 * span), (np.inf, np.inf)), maxfev=10000,
        )
    except (RuntimeError, ValueError):
        return FitResult(math.nan, math.nan, window, math.nan, False)
    amp, tau = float(popt[0]) * scale, float(popt[1])
    model = amp * np.exp(-t_win / tau)
    return FitResult(tau, amp, window, _rms(y_win, model), True)


def _rms(data: np.ndarray, model: np.ndarray) -> float:
    return float(np.sqrt(np.mean((data - model) ** 2)))


def leakage_fit_start(length: int, hopping: float, anharmonicity: float) -> float:
    """Default fit-window opening for leakage series: the transport plateau
    (L - 1) times the single-hop time."""
    return (length - 1) * propagation_time(hopping, anharmonicity)
