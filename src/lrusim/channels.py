"""Reset channels, background noise operators and thermal initial states.

The reset acts on the last site of the chain. Engineered dissipation is
the jump sqrt(Gamma) a_L, and random feedback, measurements at Poisson
times that map any outcome |n> to |0>, is three jumps
(`channel_jump_operators`). Periodic feedback measures and resets on a
schedule (`next_measurement`). The Kraus operators |0><n|_L are built in
one place, `reset_kraus`, read by both kinds of feedback.
A feedback measurement and a quantum jump are one step, `sample_jump`:
Born-sample an operator of a `jump_table` and apply it.
Background noise enters as per-site relaxation and dephasing jump
operators; non-zero temperature enters only through the sampled initial
state of the idle sites.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


def next_measurement(channel: ResetChannel | None, draw,
                     after: float | np.ndarray | None = None) -> float | np.ndarray:
    """Times of the periodic feedback measurements that follow those at `after`.

    `draw()` returns uniforms on [0, 1), and the times have its shape:
    `rng.random` of one Generator gives one time, the engine's per-row
    buffers one time per row, with `after` holding each row's last one.
    With `after` None these are the first measurements: the first time is
    uniform on [0, 1/rate), period * u, because the leakage creation time
    is unknown, and each next one comes 1/rate later without a draw.
    Any other channel, random feedback (three jumps) included, or rate 0
    gives inf and draws nothing.
    """
    if channel is None or channel.kind != "periodic_feedback" or channel.rate == 0:
        return math.inf
    period = 1.0 / channel.rate
    return period * draw() if after is None else after + period


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


class JumpTable(NamedTuple):
    """Operators A_k over a basis of dimension D, one row k per operator.

    A_k maps row s to dst[k, s] with amplitude amp[k, s], or, where it has
    no entry, to the spare column D with amplitude 0. rates = |amp|^2, and
    decay = diag(sum_k A_k^dag A_k), the d of H - (i/2) diag(d).
    """

    dst: np.ndarray
    amp: np.ndarray
    rates: np.ndarray
    decay: np.ndarray


def jump_table(ops: list[Monomial], dimension: int) -> JumpTable:
    """The `JumpTable` of `ops` over a basis of `dimension` rows.

    Raises ValueError if an operator repeats a source or a destination row,
    since `sample_jump` scatters each row's entries in one assignment.
    """
    dst = np.full((len(ops), dimension), dimension)
    amp = np.zeros((len(ops), dimension), dtype=np.result_type(float, *(op.amp for op in ops)))
    for k, op in enumerate(ops):
        if max(np.bincount(rows).max(initial=0) for rows in (op.src, op.dst)) > 1:
            raise ValueError(f"operator {k} repeats a source or destination row")
        dst[k, op.src] = op.dst
        amp[k, op.src] = op.amp
    rates = np.abs(amp) ** 2
    return JumpTable(dst, amp, rates, rates.sum(axis=0))


def sample_jump(table: JumpTable, amplitudes: np.ndarray,
                draws) -> tuple[np.ndarray, np.ndarray]:
    """Born-sample one operator of `table` per state and apply it.

    Batched over the leading axes of `amplitudes` (..., D), with one uniform
    on [0, 1) in `draws` (...) per state; the states need not be
    normalized. Operator k is drawn with probability ||A_k psi||^2 /
    sum_j ||A_j psi||^2, excluding those below PROJECTION_EPS. Returns
    A_k psi (not renormalized) and k; a state no operator acts on raises
    ValueError.
    """
    amps = np.asarray(amplitudes)
    probs = (amps.real**2 + amps.imag**2) @ table.rates.T
    total = probs.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("no operator of the table acts on the state")
    probs = probs / total
    support = probs > PROJECTION_EPS
    probs = np.where(support, probs, 0.0)
    cums = np.cumsum(probs / probs.sum(axis=-1, keepdims=True), axis=-1)
    # a draw above a last cumulative sum rounded below 1 stays in the support
    last = support.shape[-1] - 1 - support[..., ::-1].argmax(axis=-1)
    picks = np.minimum((cums <= np.asarray(draws)[..., None]).sum(axis=-1), last)

    dim = amps.shape[-1]
    new = np.zeros((*amps.shape[:-1], dim + 1), dtype=amps.dtype)
    np.put_along_axis(new, table.dst[picks], table.amp[picks] * amps, axis=-1)
    return new[..., :dim], picks


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


def channel_jump_operators(channel: ResetChannel | None,
                           basis: FockBasis) -> list[Monomial]:
    """The jumps a reset channel adds at Gamma > 0, over `basis`.

    Dissipation: sqrt(Gamma) a_L. Random feedback: sqrt(Gamma) K_1 and
    sqrt(Gamma) K_2 of `reset_kraus`, then sqrt(Gamma) Q, Q = 1 - |0><0|_L.
    K_1^dag K_1 + K_2^dag K_2 = Q, so their dissipator is Gamma (sum_n K_n
    rho K_n^dag - rho), that of measurements at Poisson times (Wiseman and
    Milburn, "Quantum Measurement and Control", CUP 2010, ch. 4). Periodic
    feedback gives none: it follows `next_measurement`.
    """
    if channel is None or channel.kind == "periodic_feedback" or channel.rate == 0:
        return []
    if channel.kind == "dissipation":
        ops = [site_monomial(basis, basis.length, "annihilation")]
    else:
        _, *kraus = reset_kraus(basis)
        occupied = np.flatnonzero(basis.occupations[:, -1] >= 1)
        ops = [*kraus, Monomial(occupied, occupied, np.ones(occupied.size))]
    return [_with_rate(op, channel.rate) for op in ops]


def _with_rate(op: Monomial, rate: float) -> Monomial:
    return op._replace(amp=math.sqrt(rate) * op.amp)


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
                           basis: FockBasis, size: int | None = None) -> np.ndarray:
    """Initial chain amplitudes: coding state on site 1, Gibbs-sampled idle sites.

    Sites 2..L are drawn independently from the J = 0 Boltzmann weights of
    their local levels (truncated at n = 2 and renormalized), one uniform
    per site in site order; each sample is one product eigenstate, not the
    averaged Gibbs state, with amplitudes over `basis`. With `size` None
    this is one state (D,); with `size` n it is n states (n, D), bit for bit
    those of n successive calls on the same rng, which it advances as far.
    Raises ValueError if the coding state is zero or a state has weight
    outside the basis.
    """
    spec = real.spec
    coding = np.asarray(coding_state, dtype=complex).ravel()
    if coding.size != LEVELS:
        raise ValueError("coding state must be a single-site vector")
    norm = np.linalg.norm(coding)
    if norm == 0:
        raise ValueError("coding state must be non-zero")
    shape = () if size is None else (size,)
    # Generator.random(n) returns the doubles of n calls of random()
    draws = rng.random((*shape, spec.length - 1))
    occupations = np.zeros((*shape, LEVELS, spec.length), dtype=np.int64)
    occupations[..., 0] = np.arange(LEVELS)
    for site in range(2, spec.length + 1):
        weights = local_thermal_weights(
            real.omegas[site - 1], real.anharmonicities[site - 1], model.temperature,
        )
        level = np.searchsorted(np.cumsum(weights), draws[..., site - 2], side="right")
        occupations[..., site - 1] = np.minimum(level, LEVELS - 1)[..., None]
    basis.check(spec)
    rows = basis.index(occupations)
    inside = rows >= 0
    if np.any(~inside & (coding != 0)):
        raise ValueError("initial state has weight outside the basis")
    amplitudes = np.zeros((*shape, basis.dimension), dtype=complex)
    *samples, levels = np.nonzero(inside)
    amplitudes[(*samples, rows[inside])] = (coding / norm)[levels]
    return amplitudes
