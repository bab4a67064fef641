"""Reset channels, background noise operators and thermal initial states.

The reset acts on the last site of the chain: either a projective feedback
measurement that maps any outcome |n> to |0>, or an engineered dissipation
jump operator sqrt(Gamma) a_L. The measurement's Kraus operators |0><n|_L
are built in one place, `reset_kraus`, and read both by the engine's
`measure_and_reset` and by the oracle's measurement dissipator. Feedback
measurements follow one schedule (`next_measurement`): periodic with a
uniformly random first time, or at random times with geometric gaps over
steps of dt.
Background noise enters as per-site relaxation and dephasing jump
operators; non-zero temperature enters only through the sampled initial
state of the idle sites.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    LEVELS,
    DisorderRealization,
    FockBasis,
    Monomial,
    site_monomial,
)
from .units import HBAR_OVER_KB_US

CHANNEL_KINDS = ("periodic_feedback", "random_feedback", "dissipation")

#: Born-rule support cutoff: outcomes below this probability are excluded.
PROJECTION_EPS = 1e-15


class StepTooLargeError(Exception):
    """Per-step event probability rate*dt reached one; reduce dt."""


@dataclass(frozen=True)
class ResetChannel:
    """Reset mechanism at the last site of the chain."""

    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0 <= self.rate < math.inf:
            raise ValueError("rate must be non-negative and finite")

    @property
    def is_feedback(self) -> bool:
        return self.kind in ("periodic_feedback", "random_feedback")


@dataclass(frozen=True)
class NoiseModel:
    """Background noise rates and temperature.

    relaxation_rate is 1/T1 of a single transmon, dephasing_rate is 1/T_phi;
    temperature (kelvin) only shapes the initial Gibbs sampling of the idle
    sites, zero meaning ground-state initialization.
    """

    relaxation_rate: float = 0.0
    dephasing_rate: float = 0.0
    temperature: float = 0.0

    def __post_init__(self):
        if not all(0 <= value < math.inf for value in
                   (self.relaxation_rate, self.dephasing_rate, self.temperature)):
            raise ValueError("noise rates and temperature must be non-negative and finite")


def next_measurement(channel: ResetChannel | None, dt: float, rng,
                     after: float | None = None) -> float:
    """Time of the feedback measurement that follows the one at `after`.

    With `after` None this is the first measurement. Periodic: the first
    time is uniform on [0, 1/rate), because the leakage creation time is
    unknown, and each next one comes 1/rate later. Random: the gap is k*dt
    with k geometric, P(k) = p (1 - p)^(k - 1) for p = rate*dt, the first
    event of one Bernoulli draw per step, which realizes a Poisson process
    of the given rate for small dt; p >= 1 raises StepTooLargeError.
    A channel that does not measure (None, dissipation, or rate 0) gives inf.
    """
    if channel is None or not channel.is_feedback or channel.rate == 0:
        return math.inf
    if channel.kind == "periodic_feedback":
        period = 1.0 / channel.rate
        return rng.uniform(0.0, period) if after is None else after + period
    p = channel.rate * dt
    if p >= 1:
        raise StepTooLargeError(f"rate*dt = {p:.3f} >= 1")
    k = 1 + int(math.floor(math.log1p(-rng.random()) / math.log1p(-p)))
    return k * dt if after is None else after + k * dt


@functools.lru_cache(maxsize=16)
def reset_kraus(basis: FockBasis) -> tuple[Monomial, ...]:
    """Reset Kraus operators K_n = |0><n| at the last site, n = 0, 1, 2, over `basis`.

    K_n maps each state with n on the last site to the same state with that
    site emptied (emptying lowers N, so it is in the basis); the set is
    complete, sum_n K_n^dag K_n = 1. Its arrays are read-only, since they
    are shared by every caller through the cache.
    """
    site = basis.length
    kraus = []
    for n in range(LEVELS):
        src, dst = basis.transitions({site: -n})
        keep = basis.occupations[src, site - 1] == n
        op = Monomial(src[keep], dst[keep], np.ones(np.count_nonzero(keep)))
        for array in op:
            array.flags.writeable = False
        kraus.append(op)
    return tuple(kraus)


def measure_and_reset(amplitudes: np.ndarray, basis: FockBasis,
                      draws) -> tuple[np.ndarray, np.ndarray]:
    """Projective number measurement at the last site followed by the reset |n> -> |0>.

    Batched over the leading axes of `amplitudes` (..., basis.dimension),
    with one uniform on [0, 1) in `draws` (...) per state; the states need
    not be normalized. Each outcome n is sampled from the Born probabilities
    ||K_n psi||^2 / ||psi||^2 of `reset_kraus`; outcomes with probability
    below PROJECTION_EPS are excluded from the sampling support. Returns
    K_n psi for the sampled n (not renormalized) and the outcomes.
    """
    amps = np.asarray(amplitudes)
    kraus = reset_kraus(basis)
    weights = np.zeros((basis.dimension, LEVELS))
    for n, op in enumerate(kraus):
        weights[op.src, n] = np.abs(op.amp) ** 2
    probs = (amps.real**2 + amps.imag**2) @ weights
    total = probs.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("cannot measure a zero state")
    probs = probs / total
    probs = np.where(probs > PROJECTION_EPS, probs, 0.0)
    cums = np.cumsum(probs / probs.sum(axis=-1, keepdims=True), axis=-1)
    outcomes = np.minimum((cums <= np.asarray(draws)[..., None]).sum(axis=-1),
                          LEVELS - 1)

    flat = amps.reshape(-1, basis.dimension)
    new = np.zeros_like(flat)
    for n, op in enumerate(kraus):
        rows = np.flatnonzero(outcomes == n)[:, None]
        new[rows, op.dst] = op.amp * flat[rows, op.src]
    return new.reshape(amps.shape), outcomes


def noise_jump_operators(model: NoiseModel, basis: FockBasis) -> list[Monomial]:
    """Per-site Lindblad jump operators for relaxation and dephasing, in `basis`.

    Relaxation: sqrt(gamma) a_l. Dephasing: sqrt(2 kappa) n_l -- the factor
    of two comes from mapping qubit sigma_z dephasing onto the transmon
    number operator. Returns 2L operators when both rates are positive,
    relaxation first, each in its Monomial form.
    """
    ops: list[Monomial] = []
    for kind, rate in (("annihilation", model.relaxation_rate),
                       ("number", 2.0 * model.dephasing_rate)):
        if rate > 0:
            ops += [_with_rate(site_monomial(basis, site, kind), rate)
                    for site in range(1, basis.length + 1)]
    return ops


def dissipation_jump_operators(channel: ResetChannel | None,
                               basis: FockBasis) -> list[Monomial]:
    """The engineered-dissipation jump sqrt(Gamma) a_L, if `channel` is one with Gamma > 0."""
    if channel is None or channel.kind != "dissipation" or channel.rate == 0:
        return []
    return [_with_rate(site_monomial(basis, basis.length, "annihilation"), channel.rate)]


def _with_rate(op: Monomial, rate: float) -> Monomial:
    return op._replace(amp=math.sqrt(rate) * op.amp)


def decay_rates(jumps: list[Monomial], dimension: int) -> np.ndarray:
    """diag(sum_k L_k^dag L_k): each |amp|^2 accumulated at its source row.

    The no-jump Hamiltonian is H - (i/2) diag(decay_rates).
    """
    if not jumps:
        return np.zeros(dimension)
    return np.bincount(np.concatenate([op.src for op in jumps]),
                       weights=np.concatenate([np.abs(op.amp) ** 2 for op in jumps]),
                       minlength=dimension)


def local_thermal_weights(omega: float, anharmonicity: float,
                          temperature: float) -> np.ndarray:
    """Boltzmann weights of the local levels n = 0, 1, 2, renormalized.

    Level energies are omega*n - (U/2) n (n-1), the J = 0 on-site spectrum.
    At T > 0 they must increase with n (omega > 0 and omega - U > 0), as
    lab-frame energies do; otherwise ValueError.
    """
    n = np.arange(LEVELS, dtype=float)
    energies = omega * n - 0.5 * anharmonicity * n * (n - 1.0)
    if temperature == 0:
        weights = np.zeros(LEVELS)
        weights[0] = 1.0
        return weights
    if np.any(np.diff(energies) <= 0):
        # a rotating frame (omega = 0) would make every level about equally likely
        raise ValueError(
            f"thermal weights need increasing (lab-frame) level energies, got {energies.tolist()}"
        )
    exponents = HBAR_OVER_KB_US * energies / temperature
    exponents -= exponents.min()
    weights = np.exp(-exponents)
    return weights / weights.sum()


def sample_thermal_initial(real: DisorderRealization, model: NoiseModel,
                           coding_state, rng: np.random.Generator,
                           basis: FockBasis) -> np.ndarray:
    """Initial chain amplitudes: coding state on site 1, Gibbs-sampled idle sites.

    Sites 2..L are drawn independently from the J = 0 Boltzmann weights of
    their local levels (truncated at n = 2 and renormalized); each call
    returns one sampled product eigenstate, not the averaged Gibbs state,
    with amplitudes over `basis`. Raises ValueError if the coding state is
    zero or the state has weight outside the basis.
    """
    spec = real.spec
    coding = np.asarray(coding_state, dtype=complex).ravel()
    if coding.size != LEVELS:
        raise ValueError("coding state must be a single-site vector")
    norm = np.linalg.norm(coding)
    if norm == 0:
        raise ValueError("coding state must be non-zero")
    occupations = np.zeros((LEVELS, spec.length), dtype=np.int64)
    occupations[:, 0] = np.arange(LEVELS)
    for site in range(2, spec.length + 1):
        weights = local_thermal_weights(
            real.omegas[site - 1], real.anharmonicities[site - 1], model.temperature,
        )
        level = int(np.searchsorted(np.cumsum(weights), rng.random(), side="right"))
        occupations[:, site - 1] = min(level, LEVELS - 1)
    basis.check(spec)
    rows = basis.index(occupations)
    inside = rows >= 0
    if np.any(coding[~inside] != 0):
        raise ValueError("initial state has weight outside the basis")
    amplitudes = np.zeros(basis.dimension, dtype=complex)
    amplitudes[rows[inside]] = (coding / norm)[inside]
    return amplitudes
