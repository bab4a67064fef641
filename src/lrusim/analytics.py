"""Closed-form results for the leakage removal unit.

The two-excitation dynamics of two resonant transmons separates into
leakage propagation (the pair |20> <-> |02|, slow, effective hopping
J_prop = 2 J^2/U) and leakage disintegration (|20/02> <-> |11>, fast,
frequency sqrt(U^2 + 16 J^2)). Each reset mechanism at the last site has
two optimal rates, one per time scale. The functions below give decay
rates, survival norms and qubit-subspace lifetimes of the two-transmon
unit, the perturbative survival norms of longer chains
(`diss_norm_general_L`), and the decay gap of a measured, driven qubit
(`liouvillian_qubit_gap`), all in angular frequency units with hbar = 1.
All formulas are written dimensionless in the rates; callers supply
consistent units.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

GOLDEN_A = -(1.0 - math.sqrt(5.0)) / 2.0  # edge-localized L=3 constants
GOLDEN_B = -(1.0 + math.sqrt(5.0)) / 2.0


def _check_rates(*rates: float) -> None:
    """Rates and couplings must be non-negative and finite; NaN is neither."""
    if not all(0 <= rate < math.inf for rate in rates):
        raise ValueError("rates must be non-negative and finite")


def disintegration_frequency(anharmonicity: float, hopping: float) -> float:
    """Oscillation frequency sqrt(U^2 + 16 J^2) between the anharmonicity manifolds.

    Raises ValueError unless U > 0 and J >= 0, both finite.
    """
    if not 0 < anharmonicity < math.inf:
        raise ValueError("anharmonicity must be positive and finite")
    _check_rates(hopping)
    return math.hypot(anharmonicity, 4.0 * hopping)


def two_site_populations(anharmonicity: float, hopping: float, t: float,
                         initial: str = "localized"):
    """Unitary populations (rho_20, rho_02, rho_11) of the two-excitation sector.

    `initial` is "localized" for a leakage pair on site 1 or "symmetric" for
    (|20> + |02>)/sqrt(2). Closed forms of the resonant 3x3 sector; the sum
    of the three populations is one. Raises ValueError unless U > 0 and
    J >= 0, both finite.
    """
    u, j = anharmonicity, hopping
    w = disintegration_frequency(u, j)
    if initial == "symmetric":
        p_star = u**2 / (2 * w**2) * (1 - np.cos(w * t)) + 0.5 * (1 + np.cos(w * t))
        r11 = 8 * j**2 / w**2 * (1 - np.cos(w * t))
        return p_star / 2.0, p_star / 2.0, r11
    if initial == "localized":
        s, c = np.sin(w * t / 2), np.cos(w * t / 2)
        su, cu = np.sin(u * t / 2), np.cos(u * t / 2)
        r20 = (u / (2 * w) * s + 0.5 * su) ** 2 + (0.5 * c + 0.5 * cu) ** 2
        r02 = (u / (2 * w) * s - 0.5 * su) ** 2 + (0.5 * c - 0.5 * cu) ** 2
        r11 = 8 * j**2 / w**2 * s**2
        return r20, r02, r11
    raise ValueError(f"unknown initial condition {initial!r}")


def disintegration_threshold() -> float:
    """Anharmonicity-to-hopping ratio above which the pair propagates intact.

    Solves sin(U pi / (2 w_dis)) = (8 J^2 - U^2)/(U w_dis) for U/J by
    bracketing (brentq on [1, 3], the one sign change); below the root the
    pair disintegrates before it can hop as a whole.
    """
    from scipy.optimize import brentq

    def residual(u):
        w = math.hypot(u, 4.0)
        return math.sin(u * math.pi / (2 * w)) - (8 - u**2) / (u * w)

    return brentq(residual, 1.0, 3.0, xtol=1e-12)


def fb_leakage_rate_low(rate_fb: float, j_prop: float) -> float:
    """Leakage decay rate under feedback in the propagation regime.

    2 J_prop^2 Gamma / (4 J_prop^2 + Gamma^2); maximal at Gamma = 2 J_prop
    where the decay time is 2/J_prop.
    """
    _check_rates(rate_fb, j_prop)
    if rate_fb == 0 and j_prop == 0:
        return 0.0
    return 2.0 * j_prop**2 * rate_fb / (4.0 * j_prop**2 + rate_fb**2)


def fb_leakage_rate_high(rate_fb: float, hopping: float, anharmonicity: float) -> float:
    """Leakage decay rate under feedback in the disintegration regime.

    4 J^2 Gamma / (Gamma^2 + U^2); maximal at Gamma = U where the decay time
    is U/(2 J^2). The projector-counting time rescaling of the two-level
    mapping is already folded in.
    """
    _check_rates(rate_fb, hopping)
    if not math.isfinite(anharmonicity) or rate_fb == anharmonicity == 0:
        raise ValueError("anharmonicity must be finite, and non-zero at zero rate")
    return 4.0 * hopping**2 * rate_fb / (rate_fb**2 + anharmonicity**2)


def fb_qubit_times(rate_fb: float, hopping: float, detuning: float) -> tuple[float, float]:
    """Qubit-subspace lifetimes (T1, T2) under feedback at the far site.

    T1 = (Gamma^2 + d^2)/(2 J^2 Gamma), T2 = 2 T1; shortest (worst
    protection) at Gamma = |d|. Unbounded at zero rate, returned as inf.
    """
    _check_rates(rate_fb, hopping)
    if not math.isfinite(detuning):
        raise ValueError("detuning must be finite")
    if rate_fb == 0 or hopping == 0:
        return math.inf, math.inf
    t1 = (rate_fb**2 + detuning**2) / (2.0 * hopping**2 * rate_fb)
    return t1, 2.0 * t1


def _expm1_ratio(z):
    """f(z) = (1 - exp(-z))/z elementwise, with f(0) = 1."""
    return np.divide(-np.expm1(-z), z, out=np.ones_like(z), where=z != 0)


def diss_norm_exact_L2(rate_d: float, j_prop: float, t) -> np.ndarray:
    """Survival norm of a leakage pair on site 1 with dissipation on site 2.

    Exact two-site result in the propagation-regime effective model
    H = [[J_p, -J_p], [-J_p, J_p - i Gamma]]:

        N(t) = e^{-Gamma t} + e^{-a t} [(Gamma t)^2/2 f(s t)^2 + Gamma t f(2 s t)]

    with s = sqrt(Gamma^2 - 4 J_p^2), imaginary below the exceptional point
    Gamma = 2 J_p, a = Gamma - s = 4 J_p^2/(Gamma + s) and
    f(z) = (1 - e^{-z})/z. One expression at every rate: at s = 0 it is the
    limit e^{-Gamma t}(1 + Gamma t + (Gamma t)^2/2), and since no exponent
    has a positive real part it stays finite for any Gamma t.
    """
    if not (0 <= rate_d < math.inf and 0 < j_prop < math.inf):
        raise ValueError("need finite rate >= 0 and j_prop > 0")
    t = np.asarray(t, dtype=float)
    g, jp = rate_d, j_prop
    s = np.sqrt(complex((g - 2.0 * jp) * (g + 2.0 * jp)))
    a = 4.0 * jp**2 / (g + s)
    gt = g * t
    bracket = (gt * _expm1_ratio(s * t)) ** 2 / 2.0 + gt * _expm1_ratio(2.0 * s * t)
    return np.exp(-gt) + (np.exp(-a * t) * bracket).real


def diss_rate_low(rate_d: float, j_prop: float) -> float:
    """Leakage decay rate under dissipation in the propagation regime.

    2 J_prop^2 Gamma / (2 J_prop^2 + Gamma^2); maximal at Gamma =
    sqrt(2) J_prop with decay time sqrt(2)/J_prop.
    """
    _check_rates(rate_d, j_prop)
    if rate_d == 0 and j_prop == 0:
        return 0.0
    return 2.0 * j_prop**2 * rate_d / (2.0 * j_prop**2 + rate_d**2)


def diss_rate_high(rate_d: float, hopping: float, anharmonicity: float) -> float:
    """Leakage decay rate under dissipation in the disintegration regime.

    8 J^2 Gamma / (4 U^2 + Gamma^2); maximal at Gamma = 2 U with decay time
    U/(2 J^2); falls off as 8 J^2/Gamma in the Zeno limit.
    """
    _check_rates(rate_d, hopping)
    if not math.isfinite(anharmonicity) or rate_d == anharmonicity == 0:
        raise ValueError("anharmonicity must be finite, and non-zero at zero rate")
    return 8.0 * hopping**2 * rate_d / (4.0 * anharmonicity**2 + rate_d**2)


def diss_norm_general_L(length: int, rate_d: float, j_prop: float, t,
                        regime: str, borders: bool = False) -> np.ndarray:
    """Survival norm of a leakage pair for a chain of given length.

    Perturbative multi-exponential sums for the dissipative effective model:
    `regime` is "low" (Gamma << J_prop) or "high" (Gamma >> J_prop);
    `borders` selects the edge-localized closed forms, available for
    lengths 2 and 3 only. At L = 2 the chain has no bulk, so the edge forms
    and the bulk forms are the same single exponentials, exp(-Gamma t) and
    exp(-2 J_prop^2 t/Gamma). Weights sum to one at t = 0.

    The bulk sums (`borders=False`) use the open-chain modes and leave out
    the J_prop edge detuning of the two end sites that
    `lattice.build_effective_propagation` keeps. At L = 3..6 they differ
    from that model's survival norm by about 0.02 in the low regime and
    0.1-0.2 in the high regime, so treat them as a large-L guide; at L = 2
    and 3 compare numerics with `borders=True`, which keeps the edge terms.
    """
    if length < 2:
        raise ValueError("length must be >= 2")
    if regime not in ("low", "high"):
        raise ValueError("regime must be 'low' or 'high'")
    _check_rates(rate_d, j_prop)
    if regime == "high" and rate_d == 0:
        raise ValueError("the high regime needs a positive rate")
    t = np.asarray(t, dtype=float)
    g, jp = rate_d, j_prop

    if borders and length > 2:
        if length > 3:
            raise ValueError("edge-localized closed forms exist for lengths 2 and 3 only")
        if regime == "low":
            return (0.5 * np.exp(-g * t)
                    + np.exp(-g * t / 3.0) / 6.0
                    + np.exp(-2.0 * g * t / 3.0) / 3.0)
        a2, b2 = GOLDEN_A**2, GOLDEN_B**2
        wa, wb = (1.0 + a2) / 5.0, (1.0 + b2) / 5.0
        ra = (2.0 * jp**2 / g) / (1.0 + a2)
        rb = (2.0 * jp**2 / g) / (1.0 + b2)
        return wa * np.exp(-ra * t) + wb * np.exp(-rb * t)

    total = np.zeros_like(t, dtype=float)
    if regime == "low":
        for mode in range(1, length + 1):
            weight = (math.sin(mode * math.pi / (length + 1)) ** 2
                      / sum(math.sin(k * mode * math.pi / (length + 1)) ** 2
                            for k in range(1, length + 1)))
            decay = 4.0 / (length + 1) * math.sin(mode * length * math.pi / (length + 1)) ** 2 * g
            total = total + weight * np.exp(-decay * t)
        return total
    for mode in range(1, length):
        norm = sum(math.sin(k * mode * math.pi / length) ** 2 for k in range(1, length))
        weight = math.sin(mode * math.pi / length) ** 2 / norm
        decay = 2.0 * jp**2 / g * math.sin((length - 1) * mode * math.pi / length) ** 2 / norm
        total = total + weight * np.exp(-decay * t)
    return total


def diss_qubit_times(rate_d: float, hopping: float, detuning_first_last: float,
                     length: int = 2, intermediate_detunings=()) -> tuple[float, float]:
    """Qubit-subspace lifetimes (tau_1, tau_2) under last-site dissipation.

    tau_1 = (4 d^2 + Gamma^2)/(4 F J^2 Gamma) with the off-resonant
    suppression factor F = prod_n J^2/(omega_1 - omega_n)^2 over the
    intermediate sites; tau_2 = 2 tau_1. Worst protection at Gamma = 2|d|.
    Needs length >= 2 and exactly length - 2 intermediate detunings.
    """
    if not (0 < rate_d < math.inf and 0 < hopping < math.inf):
        raise ValueError("need positive, finite rate and hopping")
    if length < 2:
        raise ValueError("length must be >= 2")
    intermediate = list(intermediate_detunings)
    if len(intermediate) != length - 2:
        raise ValueError("need one intermediate detuning per site 2..L-1")
    if not all(math.isfinite(x) for x in (detuning_first_last, *intermediate)):
        raise ValueError("detunings must be finite")
    if any(x == 0 for x in intermediate):
        raise ValueError("zero intermediate detuning: degenerate perturbation regime")
    factor = 1.0
    for det in intermediate:
        factor *= hopping**2 / det**2
    tau1 = (4.0 * detuning_first_last**2 + rate_d**2) / (4.0 * factor * hopping**2 * rate_d)
    return tau1, 2.0 * tau1


def liouvillian_qubit_gap(detuning: float, drive: float, rate_st: float) -> complex:
    """Slowest nonzero decay eigenvalue of the measured driven qubit.

    On resonance (detuning = 0) the exact spectrum is
    {0, (-G +/- sqrt(G^2 - 16 b^2))/2, -G}, and the slowest nonzero mode is
    the + root, returned in its Vieta form -8 b^2/(G + sqrt(G^2 - 16 b^2))
    (complex root below the exceptional point G = 4|b|), which keeps full
    precision for b << G; at b = 0 it is -G. Off resonance it is the
    second-order perturbative gap -4 G b^2/(G^2 + 4 D^2) (valid for
    b/D << 1, warned above 0.35).
    """
    _check_rates(rate_st)
    if not (math.isfinite(detuning) and math.isfinite(drive)):
        raise ValueError("detuning and drive must be finite")
    if detuning == 0:
        if drive == 0:
            return complex(-rate_st)
        root = cmath.sqrt((rate_st - 4.0 * abs(drive)) * (rate_st + 4.0 * abs(drive)))
        return -8.0 * drive**2 / (rate_st + root)
    ratio = abs(drive / detuning)
    if ratio > 0.35:
        warnings.warn("drive/detuning > 0.35: perturbative gap unreliable",
                      stacklevel=2)
    return complex(-4.0 * rate_st * drive**2 / (rate_st**2 + 4.0 * detuning**2))

