"""Closed-form results for the minimal (two-transmon) leakage removal unit.

The two-excitation dynamics of two resonant transmons separates into
leakage propagation (the pair |20> <-> |02|, slow, effective hopping
J_prop = 2 J^2/U) and leakage disintegration (|20/02> <-> |11>, fast,
frequency sqrt(U^2 + 16 J^2)). Each reset mechanism at the second site has
two optimal rates, one per time scale; the functions below give decay
rates, survival norms and qubit-subspace lifetimes, all in angular
frequency units with hbar = 1. All formulas are written dimensionless in
the rates; callers supply consistent units.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

#: Relative guard band around exceptional points inside which limits are used.
EP_GUARD = 1e-6

GOLDEN_A = -(1.0 - math.sqrt(5.0)) / 2.0  # edge-localized L=3 constants
GOLDEN_B = -(1.0 + math.sqrt(5.0)) / 2.0


def disintegration_frequency(anharmonicity: float, hopping: float) -> float:
    """Oscillation frequency sqrt(U^2 + 16 J^2) between the anharmonicity manifolds.

    Raises ValueError unless U > 0 and J >= 0.
    """
    if not anharmonicity > 0:
        raise ValueError("anharmonicity must be positive")
    if not hopping >= 0:
        raise ValueError("hopping must be non-negative")
    return math.hypot(anharmonicity, 4.0 * hopping)


def two_site_populations(anharmonicity: float, hopping: float, t: float,
                         initial: str = "localized"):
    """Unitary populations (rho_20, rho_02, rho_11) of the two-excitation sector.

    `initial` is "localized" for a leakage pair on site 1 or "symmetric" for
    (|20> + |02>)/sqrt(2). Closed forms of the resonant 3x3 sector; the sum
    of the three populations is one. Raises ValueError unless U > 0 and
    J >= 0.
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

    Solves sin(U pi / (2 w_dis)) = (8 J^2 - U^2)/(U w_dis) for U/J; below the
    root the pair disintegrates before it can hop as a whole.
    """
    from scipy.optimize import brentq, newton

    def residual(u):
        w = math.hypot(u, 4.0)
        return math.sin(u * math.pi / (2 * w)) - (8 - u**2) / (u * w)

    root = brentq(residual, 1.0, 3.0, xtol=1e-12)
    check = newton(residual, 1.8, tol=1e-10)
    if abs(root - check) > 1e-8:
        raise ArithmeticError("root finders disagree on the threshold")
    return root


def fb_leakage_rate_low(rate_fb: float, j_prop: float) -> float:
    """Leakage decay rate under feedback in the propagation regime.

    2 J_prop^2 Gamma / (4 J_prop^2 + Gamma^2); maximal at Gamma = 2 J_prop
    where the decay time is 2/J_prop.
    """
    if not (rate_fb >= 0 and j_prop >= 0):
        raise ValueError("rates must be non-negative")
    if rate_fb == 0 and j_prop == 0:
        return 0.0
    return 2.0 * j_prop**2 * rate_fb / (4.0 * j_prop**2 + rate_fb**2)


def fb_leakage_rate_high(rate_fb: float, hopping: float, anharmonicity: float) -> float:
    """Leakage decay rate under feedback in the disintegration regime.

    4 J^2 Gamma / (Gamma^2 + U^2); maximal at Gamma = U where the decay time
    is U/(2 J^2). The projector-counting time rescaling of the two-level
    mapping is already folded in.
    """
    if not (rate_fb >= 0 and hopping >= 0):
        raise ValueError("rates must be non-negative")
    return 4.0 * hopping**2 * rate_fb / (rate_fb**2 + anharmonicity**2)


def fb_qubit_times(rate_fb: float, hopping: float, detuning: float) -> tuple[float, float]:
    """Qubit-subspace lifetimes (T1, T2) under feedback at the far site.

    T1 = (Gamma^2 + d^2)/(2 J^2 Gamma), T2 = 2 T1; shortest (worst
    protection) at Gamma = |d|. Unbounded at zero rate, returned as inf.
    """
    if not rate_fb >= 0:
        raise ValueError("rate must be non-negative")
    if rate_fb == 0 or hopping == 0:
        return math.inf, math.inf
    t1 = (rate_fb**2 + detuning**2) / (2.0 * hopping**2 * rate_fb)
    return t1, 2.0 * t1


def diss_norm_exact_L2(rate_d: float, j_prop: float, t) -> np.ndarray:
    """Survival norm of a leakage pair on site 1 with dissipation on site 2.

    Exact two-site result in the propagation-regime effective model:
    trigonometric branch below the exceptional point Gamma = 2 J_prop,
    hyperbolic above, polynomial limit inside a narrow guard band.
    """
    if not (rate_d >= 0 and j_prop > 0):
        raise ValueError("need rate >= 0 and j_prop > 0")
    t = np.asarray(t, dtype=float)
    g, jp = rate_d, j_prop
    gap = g**2 - 4.0 * jp**2
    if abs(g - 2.0 * jp) <= EP_GUARD * 2.0 * jp:
        # removable singularity: limit value at the exceptional point
        return np.exp(-g * t) * (1.0 + g * t + (g * t) ** 2 / 2.0)
    if g < 2.0 * jp:
        s = math.sqrt(-gap)
        pref = 1.0 / (4.0 - g**2 / jp**2)
        osc = (4.0 - g**2 / jp**2 * np.cos(s * t)
               + 2.0 * g / jp * math.sqrt(1.0 - g**2 / (4 * jp**2)) * np.sin(s * t))
        return np.exp(-g * t) * pref * osc
    s = math.sqrt(gap)
    pref = 1.0 / (g**2 / jp**2 - 4.0)
    osc = (-4.0 + g**2 / jp**2 * np.cosh(s * t)
           + 2.0 * g / jp * math.sqrt(g**2 / (4 * jp**2) - 1.0) * np.sinh(s * t))
    return np.exp(-g * t) * pref * osc


def diss_rate_low(rate_d: float, j_prop: float) -> float:
    """Leakage decay rate under dissipation in the propagation regime.

    2 J_prop^2 Gamma / (2 J_prop^2 + Gamma^2); maximal at Gamma =
    sqrt(2) J_prop with decay time sqrt(2)/J_prop.
    """
    if not (rate_d >= 0 and j_prop >= 0):
        raise ValueError("rates must be non-negative")
    if rate_d == 0 and j_prop == 0:
        return 0.0
    return 2.0 * j_prop**2 * rate_d / (2.0 * j_prop**2 + rate_d**2)


def diss_rate_high(rate_d: float, hopping: float, anharmonicity: float) -> float:
    """Leakage decay rate under dissipation in the disintegration regime.

    8 J^2 Gamma / (4 U^2 + Gamma^2); maximal at Gamma = 2 U with decay time
    U/(2 J^2); falls off as 8 J^2/Gamma in the Zeno limit.
    """
    if not (rate_d >= 0 and hopping >= 0):
        raise ValueError("rates must be non-negative")
    return 8.0 * hopping**2 * rate_d / (4.0 * anharmonicity**2 + rate_d**2)


def diss_norm_general_L(length: int, rate_d: float, j_prop: float, t,
                        regime: str, borders: bool = False) -> np.ndarray:
    """Survival norm of a leakage pair for a chain of given length.

    Perturbative multi-exponential sums for the dissipative effective model:
    `regime` is "low" (Gamma << J_prop) or "high" (Gamma >> J_prop);
    `borders` selects the edge-localized closed forms, available for
    lengths 2 and 3 only. Weights sum to one at t = 0.

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
    t = np.asarray(t, dtype=float)
    g, jp = rate_d, j_prop

    if borders:
        if length == 2:
            if regime == "low":
                return np.exp(-g * t)
            return np.exp(-(2.0 * jp**2 / g) * t)
        if length == 3:
            if regime == "low":
                return (0.5 * np.exp(-g * t)
                        + np.exp(-g * t / 3.0) / 6.0
                        + np.exp(-2.0 * g * t / 3.0) / 3.0)
            a2, b2 = GOLDEN_A**2, GOLDEN_B**2
            wa, wb = (1.0 + a2) / 5.0, (1.0 + b2) / 5.0
            ra = (2.0 * jp**2 / g) / (1.0 + a2)
            rb = (2.0 * jp**2 / g) / (1.0 + b2)
            return wa * np.exp(-ra * t) + wb * np.exp(-rb * t)
        raise ValueError("edge-localized closed forms exist for lengths 2 and 3 only")

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
    if not (rate_d > 0 and hopping > 0):
        raise ValueError("need positive rate and hopping")
    if length < 2:
        raise ValueError("length must be >= 2")
    intermediate = list(intermediate_detunings)
    if len(intermediate) != length - 2:
        raise ValueError("need one intermediate detuning per site 2..L-1")
    if any(x == 0 for x in intermediate):
        raise ValueError("zero intermediate detuning: degenerate perturbation regime")
    factor = 1.0
    for det in intermediate:
        factor *= hopping**2 / det**2
    tau1 = (4.0 * detuning_first_last**2 + rate_d**2) / (4.0 * factor * hopping**2 * rate_d)
    return tau1, 2.0 * tau1


def liouvillian_qubit_gap(detuning: float, drive: float, rate_st: float) -> complex:
    """Slowest nonzero decay eigenvalue of the measured driven qubit.

    On resonance (detuning = 0) the exact spectrum
    {0, (-G +/- sqrt(G^2 - 16 b^2))/2, -G} is used; off resonance the
    second-order perturbative gap -4 G b^2/(G^2 + 4 D^2) (valid for
    b/D << 1, warned above 0.35).
    """
    if not rate_st >= 0:
        raise ValueError("rate must be non-negative")
    if detuning == 0:
        disc = rate_st**2 - 16.0 * drive**2
        if abs(disc) <= (EP_GUARD * max(rate_st, 1e-300)) ** 2:
            return complex(-rate_st / 2.0)
        root = np.sqrt(complex(disc))
        lam_plus = (-rate_st + root) / 2.0
        lam_minus = (-rate_st - root) / 2.0
        candidates = [lam for lam in (lam_plus, lam_minus, complex(-rate_st))
                      if abs(lam) > 1e-14]
        return min(candidates, key=lambda lam: abs(lam.real))
    ratio = abs(drive / detuning)
    if ratio > 0.35:
        warnings.warn("drive/detuning > 0.35: perturbative gap unreliable",
                      stacklevel=2)
    return complex(-4.0 * rate_st * drive**2 / (rate_st**2 + 4.0 * detuning**2))


def qubit_liouvillian_matrix(detuning: float, drive: float, rate_st: float) -> np.ndarray:
    """Vectorized 4x4 Liouvillian of the measured driven qubit.

    Basis (rho_00, rho_01, rho_10, rho_11) for H = detuning*sigma_z +
    drive*sigma_x with standard projective measurements at rate_st.
    """
    d, b, g = detuning, drive, rate_st
    return np.array([
        [0, 1j * b, -1j * b, 0],
        [1j * b, -g - 2j * d, 0, -1j * b],
        [-1j * b, 0, -g + 2j * d, 1j * b],
        [0, -1j * b, 1j * b, 0],
    ], dtype=complex)
