"""Stochastic trajectory ensembles and the dense master-equation oracle.

Each trajectory draws its own disorder realization and thermal initial
state, evolves under the chain Hamiltonian with the reset channel and
background noise, and reports leakage/occupation/coherence series on a
common observable grid. Ensembles average trajectories and attach
standard errors. Draws that cannot differ are made once per chunk: at
W = 0 every realization is the same, so a chunk builds and diagonalizes
one no-jump Hamiltonian, whose one eigensystem every row reads, and at
T = 0 every trajectory starts in the same state
(`_ChunkEngine._build_states_and_hamiltonians`). The results are those of
per-trajectory draws, bit for bit.

The engine works in the excitation-number sector N <= N_max of the chain
(`lattice.FockBasis`). The no-jump Hamiltonian commutes with the total
boson number N, and no jump and no reset raises it, so a trajectory
never leaves the N <= N_0 subspace of its initial state. N_max is the
largest N an initial state of the configuration can have: the top level in
the coding state's support at zero temperature, the full space otherwise.

Every jump operator of `_jump_operators` -- relaxation sqrt(gamma) a_l,
dephasing sqrt(2 kappa) n_l, dissipation sqrt(Gamma) a_L, and random
feedback's sqrt(Gamma) K_1, sqrt(Gamma) K_2 and sqrt(Gamma) Q -- and each
periodic reset |0><n|_L maps each Fock state to at most one Fock state, so
it is kept as a `lattice.Monomial` of (src, dst, amp) entries and every
L^dag L is diagonal: the no-jump Hamiltonian is H - (i/2) diag(d), d the
decay vector of their `channels.jump_table`. The reset channel acts on the
last site L.

The integrator is event-driven: between periodic measurements and
observable grid points the state advances with the cached exact
eigendecomposition of the (generally non-Hermitian) no-jump Hamiltonian.
Stretches of the grid without an event are evaluated a block at a time:
every unfinished trajectory's no-jump state at its next K grid points is
one batched matmul of its eigenbasis coefficients, phased by factors
exp(-i lambda k observable_dt) computed once per chunk, and all of those
points are recorded at once. A block ends a trajectory's stretch at its
first event: a periodic measurement due at or before a grid point, or a
no-jump norm below its jump threshold (the norm never increases between
jumps, so the first such grid point follows the jump). From there to
that grid point the row goes through `_ChunkEngine._advance_to`, the one
event loop and the only way a row moves forward in time outside a block,
and only then is the grid point recorded.
Quantum jumps follow the waiting-time rule (Dalibard, Castin and Molmer,
PRL 68, 580 (1992)): a trajectory jumps when its no-jump norm falls to a
uniform threshold. Each pass of `_advance_to` evolves the open rows at
once, each to its target or to its next measurement if that is due first
(times compared exactly). The rows whose norm falls below their threshold
on the way have their crossing times solved together by a bracketed
Newton iteration on the log of the norm, whose derivative
-<psi|diag(d)|psi> is exact (`_jump_time`), and all their jumps are drawn
and applied by one `channels.sample_jump` call; the rows that reach their
measurement are measured and reset by one more. Passes repeat, one per
generation of events, so every row meets its jumps and measurements in
time order.

Each trajectory draws from its own streams, keyed by (master_seed, index,
purpose): 0 its disorder, 1 its thermal initial state, 2 its periodic
measurement times and outcomes, 3 its jump thresholds and jump outcomes.
Streams 2 and 3 are drawn in bulk into per-row buffers read through
cursors (`_Draws`), and `channels.next_measurement` gives the measurement
times of many rows at once. A row reads its streams' numbers in the order
one draw at a time would: the buffer length changes no result, and a
row's draws do not depend on its chunk.

The master-equation oracle integrates its density matrix in the same
sector, with the engine's Hamiltonian, its one jump list (`_jump_operators`)
and its observables, as one sparse Lindbladian, so the engine-oracle
agreement checks the sampling and the norm bookkeeping. Its initial
density is its own, built from the basis occupations, so that it remains
an independent reference for the engine's initial-state sampling.

scipy is imported on first use, not with this module: `_lindbladian`
imports scipy.sparse, and `solve_ivp` is resolved on first access through
the module `__getattr__` (PEP 562). `solve_master_dense` looks
`solve_ivp` up on this module at call time, so it must stay a patchable
attribute here: the benchmark's tracer and the tests swap it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .channels import (
    NoiseModel,
    ResetChannel,
    channel_jump_operators,
    jump_table,
    local_thermal_weights,
    next_measurement,
    noise_jump_operators,
    reset_kraus,
    sample_jump,
    sample_thermal_initial,
)
from .lattice import (
    LEVELS,
    DisorderRealization,
    FockBasis,
    LatticeSpec,
    Monomial,
    build_bose_hubbard,
    build_site_operator,  # noqa: F401 -- unused here, bound for the benchmark's tracer
    realize_disorder,
)
from .observables import (
    chain_series,
    coherence_envelope,
    density_site1_coherence,
    state_site1_coherence,
)
from .propagator import eigensystem, evolve

#: Per-chunk trajectory count, shrunk for large sectors so the cached
#: eigendecompositions (three sector-dimension squares per trajectory at
#: W > 0, per chunk at W = 0) stay within a fixed memory budget. Chunk
#: boundaries depend only on the configuration, never on the worker count.
_CHUNK_ENTRY_BUDGET = 4_000_000


CODING_STATES = {
    "ket0": np.array([1.0, 0.0, 0.0], dtype=complex),
    "ket1": np.array([0.0, 1.0, 0.0], dtype=complex),
    "ket2": np.array([0.0, 0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0),
}

#: Complex entries of one block of no-jump states (trajectories x grid
#: points x sector dimension). The block length follows from this and the
#: chunk's shape only, never from the worker count.
_BLOCK_ENTRIES = 2**15

#: Uniforms each row draws from one of its streams per refill of its buffer
#: (`_Draws`). Any length gives the same numbers in the same order.
_DRAW_BUFFER = 64

#: The jump-time solve stops once |log(||psi||^2 / threshold)| is this small,
#: or when its bracket is down to adjacent floats, or after this many norm
#: evaluations (bisection of a 40-unit span to float resolution takes ~57).
_LOG_NORM_TOL = 1e-14
_JUMP_TIME_EVALUATIONS = 100


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one ensemble run.

    `dt` only scales the observable grid, of spacing `observable_dt`:
    measurements and jumps happen in continuous time.
    """

    lattice: LatticeSpec
    channel: ResetChannel | None
    t_max: float
    dt: float
    n_trajectories: int
    noise: NoiseModel = NoiseModel()
    initial_coding_state: str = "ket2"
    master_seed: int = 0
    observable_stride: int = 1

    def __post_init__(self):
        if not (0 < self.t_max < math.inf and 0 < self.dt < math.inf):
            raise ValueError("t_max and dt must be positive and finite")
        if not isinstance(self.n_trajectories, numbers.Integral) or self.n_trajectories < 1:
            raise ValueError("n_trajectories must be an integer >= 1")
        if not isinstance(self.master_seed, numbers.Integral) or self.master_seed < 0:
            # SeedSequence takes only non-negative integers, and only once running
            raise ValueError("master_seed must be an integer >= 0")
        if not isinstance(self.observable_stride, numbers.Integral) or self.observable_stride < 1:
            raise ValueError("observable_stride must be an integer >= 1")
        steps = self.t_max / self.observable_dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            # the observable grid would stop short of t_max or run past it
            raise ValueError("t_max must be a multiple of observable_stride * dt")
        if self.initial_coding_state not in CODING_STATES:
            raise ValueError(f"unknown coding state {self.initial_coding_state!r}")

    @property
    def observable_dt(self) -> float:
        return self.observable_stride * self.dt

    @property
    def time_grid(self) -> np.ndarray:
        n = round(self.t_max / self.observable_dt)
        return np.arange(n + 1) * self.observable_dt

    def coding_vector(self) -> np.ndarray:
        return CODING_STATES[self.initial_coding_state].copy()


@dataclass
class EnsembleObservables:
    """Trajectory-averaged series with standard errors of the mean.

    `coherence_site1` is the plain complex ensemble mean; with per-trajectory
    disorder its phase spread hides the physical decoherence, so
    `coherence_envelope_site1` additionally averages the per-trajectory
    envelope 2|<0|rho_1|1>|, which T2 fits should use. That average is not
    linear in rho. From `plus` at T = 0 every jump leaves site 1 without
    coherence, so the rows of one realization that have not jumped share
    one state, and the average is that of what a per-realization experiment
    records. Periodic measurements at per-row times split those rows, and
    there the envelope can sit above it.
    """

    time_grid: np.ndarray
    leakage_total: np.ndarray
    leakage_total_se: np.ndarray
    leakage_site1: np.ndarray
    leakage_site1_se: np.ndarray
    occupation_site1: np.ndarray
    occupation_site1_se: np.ndarray
    coherence_site1: np.ndarray  # complex mean
    coherence_site1_se: np.ndarray
    coherence_envelope_site1: np.ndarray
    coherence_envelope_site1_se: np.ndarray
    n_trajectories_used: int


@dataclass
class ModelSeries:
    """Observable series of one trajectory or the master equation."""

    time_grid: np.ndarray
    leakage_total: np.ndarray
    leakage_site1: np.ndarray
    occupation_site1: np.ndarray
    coherence_site1: np.ndarray


# ---------------------------------------------------------------------------
# per-trajectory randomness


def _disorder_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, index, 0]).generate_state(1, np.uint64)[0])


def _stream(master_seed: int, index: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, index, purpose]))


class _Draws:
    """Uniforms on [0, 1) from one stream per row, drawn in bulk.

    Row r reads the stream (master_seed, indices[r], purpose) through a
    buffer of `_DRAW_BUFFER` doubles and a cursor to the next unread one,
    and refills the buffer when it is used up. `Generator.random(n)` returns
    the doubles of n calls of `random()`, so each row reads its stream's
    numbers in order, whatever the buffer length.
    """

    def __init__(self, master_seed: int, indices, purpose: int):
        self.rngs = [_stream(master_seed, idx, purpose) for idx in indices]
        self.buffer = np.empty((len(self.rngs), _DRAW_BUFFER))
        self.cursor = np.full(len(self.rngs), _DRAW_BUFFER)  # empty until first read

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of each of the distinct `rows`."""
        length = self.buffer.shape[1]
        for row in rows[self.cursor[rows] == length].tolist():
            self.buffer[row] = self.rngs[row].random(length)
            self.cursor[row] = 0
        draws = self.buffer[rows, self.cursor[rows]]
        self.cursor[rows] += 1
        return draws


# ---------------------------------------------------------------------------
# the batched event-driven engine


class _ChunkEngine:
    """Evolves one chunk of trajectories in lockstep."""

    def __init__(self, config: SimulationConfig, indices, basis: FockBasis):
        self.config = config
        self.indices = list(indices)
        self.spec = config.lattice
        self.basis = basis
        self.dim = basis.dimension
        self.batch = len(self.indices)
        self.channel = config.channel

        self.jumps = jump_table(_jump_operators(config, basis), self.dim)
        self.resets = jump_table(reset_kraus(basis), self.dim)
        self.has_jumps = len(self.jumps.dst) > 0
        self._build_states_and_hamiltonians()
        rows = np.arange(self.batch)
        measuring = self.channel is not None and self.channel.kind == "periodic_feedback"
        self.meas_draws = _Draws(config.master_seed, self.indices, 2) if measuring else None
        self.next_meas = np.full(self.batch, next_measurement(
            self.channel, lambda: self.meas_draws.take(rows)))
        self.jump_draws, self.thresholds = None, np.zeros(self.batch)
        if self.has_jumps:
            self.jump_draws = _Draws(config.master_seed, self.indices, 3)
            self.thresholds = self.jump_draws.take(rows)

    # -- setup ------------------------------------------------------------

    def _build_states_and_hamiltonians(self):
        """Each row's initial state and no-jump eigensystem, built once per distinct input.

        At W = 0 every row's realization is the first row's, bit for bit
        (its detunings are uniform(-0.0, 0.0) = +0.0 whatever the seed), so
        the chunk builds and diagonalizes one no-jump Hamiltonian. At T = 0
        every idle site starts in |0> with probability one, whatever the
        realization, so one initial state serves every row. At W > 0 each
        row has its own realization, and at T > 0 its own thermal draw, from
        its own streams. `self.eig` is (evals, vecs, vinv), of shapes (d,),
        (d, d), (d, d) when the chunk has one realization, and (B, d),
        (B, d, d), (B, d, d) for B rows otherwise; `_eig_rows` reads either.
        """
        cfg, spec, basis = self.config, self.spec, self.basis
        keys = self.indices[:1] if spec.disorder == 0 else self.indices
        reals = [realize_disorder(spec, _disorder_seed(cfg.master_seed, idx)) for idx in keys]
        hams = np.stack([build_bose_hubbard(real, basis) for real in reals])
        diagonal = np.arange(self.dim)
        hams[:, diagonal, diagonal] -= 0.5j * self.jumps.decay
        parts = eigensystem(hams, hermitian=not self.has_jumps)
        self.eig = tuple(part[0] for part in parts) if len(keys) == 1 else parts

        coding = cfg.coding_vector()
        starts = self.indices[:1] if cfg.noise.temperature == 0 else self.indices
        # `reals` holds one realization for every row, or one per row
        psi = [sample_thermal_initial(reals[row % len(reals)], cfg.noise, coding,
                                      _stream(cfg.master_seed, idx, 1), basis)
               for row, idx in enumerate(starts)]
        self.psi = np.array(np.broadcast_to(psi, (self.batch, self.dim)))
        self.t_cur = np.zeros(self.batch)

    # -- evolution ---------------------------------------------------------

    def _eig_rows(self, part: np.ndarray, rows) -> np.ndarray:
        """The `rows` of `part`, a part of `self.eig` or an array over it; all of it when shared."""
        return part[rows] if self.eig[0].ndim > 1 else part

    def _advance_to(self, rows: np.ndarray, targets: np.ndarray):
        """Advance rows to absolute times `targets` through their jumps and measurements.

        Each pass evolves every open row from its anchor, its state at the
        start of the pass, to its stop: its target, or its next measurement
        if that is due first. Rows whose norm falls below their threshold
        jump (one `_jump_time` and one `sample_jump` call for all of them,
        then a new threshold each); rows that reach a measurement are
        measured and reset (one more `sample_jump` call) and draw their next
        measurement time. Both start the next pass from their event; every
        other row is done. At W > 0 each part of the eigensystem is gathered
        right before its one use: gathering all three first ran slower.
        """
        anchors, t_from = self.psi[rows], self.t_cur[rows]
        self.t_cur[rows] = targets
        evals, vecs, vinv = self.eig
        while True:
            # a slice views the whole batch where an index array would copy it
            sel = slice(None) if rows.size == self.batch else rows
            coeffs = np.matmul(self._eig_rows(vinv, sel), anchors[:, :, None])[:, :, 0]
            due = self.next_meas[rows]
            stops = np.minimum(targets, due)
            spans = stops - t_from
            ends = evolve(self._eig_rows(vecs, sel), self._eig_rows(evals, sel), coeffs, spans)
            n_end = (ends.real**2 + ends.imag**2).sum(axis=1)
            crossing = n_end < self.thresholds[rows]
            measured = ~crossing & (due <= targets)
            done = ~(crossing | measured)
            self.psi[rows[done]] = ends[done]
            if done.all():
                return
            if crossing.any():
                jumping, starts = rows[crossing], anchors[crossing]
                n_start = (starts.real**2 + starts.imag**2).sum(axis=1)
                taus, amps = _jump_time(
                    self._eig_rows(vecs, jumping), self._eig_rows(evals, jumping), coeffs[crossing],
                    self.jumps.decay, self.thresholds[jumping], spans[crossing], n_start,
                    n_end[crossing])
                jumped, _ = sample_jump(self.jumps, amps, self.jump_draws.take(jumping))
                anchors[crossing] = jumped / np.linalg.norm(jumped, axis=1)[:, None]
                self.thresholds[jumping] = self.jump_draws.take(jumping)
                t_from[crossing] += taus
            if measured.any():
                meas, psi = rows[measured], ends[measured]
                reset, _ = sample_jump(self.resets, psi, self.meas_draws.take(meas))
                # preserve the pre-measurement norm so waiting-time bookkeeping
                # keeps tracking only the non-Hermitian (dissipative) norm loss
                scale = np.linalg.norm(psi, axis=1) / np.linalg.norm(reset, axis=1)
                anchors[measured] = reset * scale[:, None]
                t_from[measured] = due[measured]
                self.next_meas[meas] = next_measurement(
                    self.channel, lambda: self.meas_draws.take(meas), due[measured])
            rows, anchors, t_from, targets = (part[~done] for part in (rows, anchors, t_from, targets))

    # -- main loop -----------------------------------------------------------

    def run(self) -> dict[str, np.ndarray]:
        """Each per-trajectory `EnsembleObservables` series, as a (batch, grid) array.

        Each iteration evaluates every unfinished row's no-jump state at its
        next K grid points (`_no_jump_block`) and records the points before
        the row's first event. The row is then advanced to the event's grid
        point through every jump and measurement before it (`_advance_to`),
        so a measurement at or before a grid point is applied before that
        point is recorded. Every row meets its events in time order and
        draws from its own streams, so K changes a result only by round-off.
        """
        grid = self.config.time_grid
        size = grid.size
        first = self._series(self.psi)
        out = {name: np.empty((self.batch, size), dtype=values.dtype)
               for name, values in first.items()}
        for name, values in first.items():
            out[name][:, 0] = values
        offsets = np.arange(_block_length(self.batch, self.dim, size))
        steps = np.exp(-1j * self.eig[0][..., None, :]
                       * (offsets * self.config.observable_dt)[:, None])
        upcoming = np.ones(self.batch, dtype=int)  # each row's next grid index
        while (rows := np.nonzero(upcoming < size)[0]).size:
            # a slice views the whole batch where an index array would copy it
            sel = slice(None) if rows.size == self.batch else rows
            index = upcoming[sel, None] + offsets
            on_grid = index < size
            times = grid[np.minimum(index, size - 1)]
            amps = self._no_jump_block(sel, times[:, 0], self._eig_rows(steps, sel))
            norms = (np.einsum("rki,rki->rk", amps.real, amps.real)
                     + np.einsum("rki,rki->rk", amps.imag, amps.imag))
            due = self.next_meas[sel, None] <= times
            # the no-jump norm never increases, so the first grid point below
            # the jump threshold is the first one after the jump
            event = (due | (norms < self.thresholds[sel, None])) & on_grid
            has_event = event.any(axis=1)
            stop = np.where(has_event, event.argmax(axis=1), on_grid.sum(axis=1))

            local, ks = np.nonzero(offsets < stop[:, None])
            recorded = amps[local, ks]
            moved = np.nonzero(stop)[0]
            self.psi[rows[moved]] = amps[moved, stop[moved] - 1]
            self.t_cur[rows[moved]] = times[moved, stop[moved] - 1]
            del amps  # the largest array of an iteration; the series need only `recorded`
            for name, values in self._series(recorded).items():
                out[name][rows[local], index[local, ks]] = values
            upcoming[rows] += stop

            events = rows[has_event]
            if events.size:
                self._advance_to(events, grid[upcoming[events]])
                for name, values in self._series(self.psi[events]).items():
                    out[name][events, upcoming[events]] = values
                upcoming[events] += 1
        return out

    def _no_jump_block(self, rows, t_first: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """No-jump states (rows, K, dim) of `rows` at t_first + k observable_dt, k < K.

        `steps` holds exp(-i lambda k observable_dt) of the same rows; the
        coefficients V^-1 psi are phased from t_cur to t_first once.
        """
        evals, vecs, vinv = self.eig
        coeffs = np.matmul(self._eig_rows(vinv, rows), self.psi[rows, :, None])[:, :, 0]
        lead = t_first - self.t_cur[rows]
        coeffs *= np.exp(-1j * self._eig_rows(evals, rows) * lead[:, None])
        return np.matmul(coeffs[:, None, :] * steps, self._eig_rows(vecs, rows).swapaxes(-1, -2))

    def _series(self, amps: np.ndarray) -> dict[str, np.ndarray]:
        """The recorded series of states `amps` (..., dim), over leading axes."""
        pops = amps.real**2 + amps.imag**2
        norms = pops.sum(axis=-1)
        series = chain_series(pops / norms[..., None],
                              state_site1_coherence(amps, self.basis) / norms, self.basis)
        series["coherence_envelope_site1"] = coherence_envelope(series["coherence_site1"])
        return series


def _jump_time(vecs, evals, coeffs, decay, thresholds, spans, n_start,
               n_end) -> tuple[np.ndarray, np.ndarray]:
    """When each row's no-jump norm falls to its threshold within [0, span], and its state then.

    Row r's state is V exp(-i lambda tau) coeffs[r] (see `propagator.evolve`)
    under H_eff = H - (i/2) diag(decay); `vecs` (d, d) and `evals` (d,) are
    one eigensystem for every row, or (R, d, d) and (R, d) one per row. Its
    squared norm falls from n_start[r] >= thresholds[r] at tau = 0 to n_end[r]
    < thresholds[r] at tau = spans[r], with the exact derivative
    d||psi||^2/dtau = -<psi|diag(decay)|psi>. Newton's method on g(tau) =
    log(||psi||^2 / threshold) starts from the log-linear interpolation of
    the two ends, keeps a bracket of the root, and bisects it whenever a
    step would leave it. All rows step together, one norm evaluation per
    step, and each row drops out at the step that meets its stop rule.
    Returns the crossing times (R,) and the states there (R, d).
    """
    tiny = np.finfo(float).tiny
    g_lo = np.maximum(np.log(n_start / thresholds), 0.0)
    g_hi = np.log(np.maximum(n_end, tiny) / thresholds)
    lo, hi = np.zeros_like(spans), spans
    guess = spans * g_lo / (g_lo - g_hi)
    taus = np.empty_like(spans)
    amps = np.empty_like(coeffs)
    active = np.arange(spans.size)  # the rows not yet solved
    for _ in range(_JUMP_TIME_EVALUATIONS):
        tau = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
        amp = evolve(vecs, evals, coeffs, tau)
        pops = amp.real**2 + amp.imag**2
        norm = np.maximum(pops.sum(axis=-1), tiny)
        g = np.log(norm / thresholds)
        done = (np.abs(g) <= _LOG_NORM_TOL) | (tau == lo) | (tau == hi)
        taus[active] = tau
        amps[active] = amp
        if done.all():
            break
        if done.any():
            going = ~done
            if vecs.ndim > 2:
                vecs, evals = vecs[going], evals[going]
            active, coeffs, thresholds, tau, g, pops, norm, lo, hi = (
                part[going] for part in (active, coeffs, thresholds, tau, g, pops, norm, lo, hi))
        lo = np.where(g > 0, tau, lo)
        hi = np.where(g > 0, hi, tau)
        # g'(tau) = -rate, so the Newton step is g / rate
        rate = pops @ decay / norm
        guess = np.where(rate > 0, tau + g / np.where(rate > 0, rate, 1.0), np.nan)
    return taus, amps


# ---------------------------------------------------------------------------
# public entry points


def _chunk_size(dim: int) -> int:
    return max(1, min(256, _CHUNK_ENTRY_BUDGET // (dim * dim)))


def _block_length(batch: int, dim: int, grid_size: int) -> int:
    """Grid points K per no-jump block of a (batch, dim) chunk: within
    `_BLOCK_ENTRIES`, and never past the grid's last point."""
    return max(1, min(_BLOCK_ENTRIES // (batch * dim), grid_size - 1))


def _max_excitations(config: SimulationConfig) -> int:
    """Largest total excitation number of any initial state of `config`.

    At zero temperature the idle sites start empty and N_0 is the top level
    in the coding state's support; at T > 0 the idle sites may start
    excited, so the bound is the full space's 2L, every site at n = 2, the
    top level of the truncation.
    """
    if config.noise.temperature > 0:
        return config.lattice.length * (LEVELS - 1)
    return int(np.nonzero(config.coding_vector())[0].max())


def _sector(config: SimulationConfig) -> FockBasis:
    return FockBasis(config.lattice.length, _max_excitations(config))


def _jump_operators(config: SimulationConfig, basis: FockBasis) -> list[Monomial]:
    """The background-noise and reset-channel jumps of `config` over `basis`."""
    return (noise_jump_operators(config.noise, basis)
            + channel_jump_operators(config.channel, basis))


def run_trajectory(config: SimulationConfig, index: int) -> ModelSeries:
    """Run one trajectory; deterministic in (master_seed, index)."""
    if not isinstance(index, numbers.Integral) or index < 0:
        # SeedSequence takes only non-negative integers, and only once running
        raise ValueError("index must be an integer >= 0")
    series = _ChunkEngine(config, [index], _sector(config)).run()
    del series["coherence_envelope_site1"]  # 2 |coherence_site1| for one trajectory
    return ModelSeries(time_grid=config.time_grid,
                       **{name: values[0] for name, values in series.items()})


def run_ensemble(config: SimulationConfig, n_threads: int = 1) -> EnsembleObservables:
    """Average config.n_trajectories independent trajectories.

    Chunking (and therefore every random draw) depends only on the
    configuration; the thread count changes the execution schedule but not
    the result, and accumulation runs in fixed trajectory order.
    """
    n = config.n_trajectories
    basis = _sector(config)
    size = _chunk_size(basis.dimension)
    chunks = [list(range(start, min(start + size, n))) for start in range(0, n, size)]

    def work(indices):
        return _ChunkEngine(config, indices, basis).run()

    if n_threads > 1 and len(chunks) > 1:
        # imported here: concurrent.futures loads logging, queue and traceback
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = [work(c) for c in chunks]

    grid = config.time_grid
    fields = {}
    for name in results[0]:
        # the standard error of the mean; for complex series std is the
        # root-mean |z - mean|^2
        stack = np.concatenate([r[name] for r in results])
        fields[name] = stack.mean(axis=0)
        fields[f"{name}_se"] = (stack.std(axis=0, ddof=1) / math.sqrt(n) if n > 1
                                else np.zeros(grid.size))
    return EnsembleObservables(time_grid=grid, n_trajectories_used=n, **fields)


# ---------------------------------------------------------------------------
# dense master-equation oracle


def _initial_density(config: SimulationConfig, real: DisorderRealization,
                     basis: FockBasis) -> np.ndarray:
    """Coding state on site 1 times the idle sites' Gibbs weights, over `basis`.

    rho0 = |c><c| (x) prod_{l>=2} diag(w_l): entry (i, j) is
    c(n_1) c(n_1')* prod_{l>=2} w_l(n_l) where sites 2..L of rows i and j
    agree, and 0 elsewhere.
    """
    spec = real.spec
    occ = basis.occupations
    idle = np.ones(basis.dimension)
    for site in range(2, spec.length + 1):
        weights = local_thermal_weights(
            real.omegas[site - 1], real.anharmonicities[site - 1], config.noise.temperature,
        )
        idle = idle * weights[occ[:, site - 1]]
    same_rest = (occ[:, None, 1:] == occ[None, :, 1:]).all(axis=-1)
    amp = config.coding_vector()[occ[:, 0]]
    return np.outer(amp, amp.conj()) * (idle[:, None] * same_rest)


def _lindbladian(ham: np.ndarray, jumps: list[Monomial]) -> "scipy.sparse.csr_matrix":
    """Generator of d vec(rho)/dt for vec(rho)[i * dim + j] = rho[i, j], in CSR form.

    -i (H_eff rho - rho H_eff^dag) + sum_k L_k rho L_k^dag with H_eff = H -
    (i/2) diag(`jump_table(jumps).decay`); each monomial L_k puts amp_a
    amp_b^* rho[src_a, src_b] on entry [dst_a, dst_b].
    """
    from scipy import sparse

    dim = ham.shape[0]
    h_eff = sparse.csr_matrix(ham - 0.5j * np.diag(jump_table(jumps, dim).decay))
    eye = sparse.identity(dim, format="csr")
    gen = -1j * (sparse.kron(h_eff, eye) - sparse.kron(eye, h_eff.conj()))
    for op in jumps:
        entries = np.outer(op.amp, op.amp.conj()).ravel()
        rows = np.add.outer(op.dst * dim, op.dst).ravel()
        cols = np.add.outer(op.src * dim, op.src).ravel()
        gen = gen + sparse.coo_matrix((entries, (rows, cols)), shape=gen.shape)
    return gen.tocsr()


def solve_master_dense(config: SimulationConfig) -> ModelSeries:
    """Integrate the Lindblad master equation for one disorder realization.

    The reference the engine is checked against. Its generator is sparse
    and rho lives in the engine's sector, so its size is bounded by the
    sector limit `lattice.MAX_DIMENSION`, not by the full space (an L = 8
    ket2 chain has 45 states). The disorder is
    drawn once from the master seed, so quantitative comparison against a
    trajectory ensemble -- which redraws disorder per trajectory -- is
    meaningful at zero disorder. Background noise, engineered dissipation
    and random feedback enter through the engine's jumps (`_jump_operators`).
    Periodic feedback at a positive rate has no master equation of this
    form, so it raises ValueError; at rate 0 it never measures, as with no
    channel.

    The density matrix lives in the engine's excitation-number sector
    (`_sector`). This is exact: H conserves N and no jump or reset
    raises it, so rho never leaves N <= N_max; at T > 0 the sector is the
    full space. The Hamiltonian, jump operators and observables are the
    engine's, built in that basis, so agreement with the engine checks its
    Born sampling and norm bookkeeping, not the operators themselves; the
    tests check those against dense references. rho0 is built here from
    the basis occupations, independently of the engine's
    `sample_thermal_initial`, so that the oracle stays a reference for it.

    Every jump operator is a `Monomial`, so the whole right-hand
    side is one sparse Lindbladian (`_lindbladian`) over the dim^2 entries
    of rho, built once; the integrator only multiplies by it, on
    `config.time_grid` with rtol 1e-9 and atol 1e-11.
    """
    if config.channel is not None and config.channel.kind == "periodic_feedback" \
            and config.channel.rate > 0:
        raise ValueError("the master equation models random (Poisson) feedback, not periodic")
    basis = _sector(config)
    dim = basis.dimension
    grid = config.time_grid
    real = realize_disorder(config.lattice, _disorder_seed(config.master_seed, 0))
    ham = build_bose_hubbard(real, basis)
    lindbladian = _lindbladian(ham, _jump_operators(config, basis))
    rho0 = _initial_density(config, real, basis)

    def rhs(_t, flat):
        return lindbladian @ flat

    # looked up on the module at call time, so that a swapped solve_ivp is used
    solve_ivp = sys.modules[__name__].solve_ivp
    sol = solve_ivp(rhs, (grid[0], grid[-1]), rho0.ravel(), t_eval=grid,
                    method="DOP853", rtol=1e-9, atol=1e-11)
    if not sol.success:
        raise RuntimeError(f"master-equation integration failed: {sol.message}")

    rho = sol.y.T.reshape(grid.size, dim, dim)
    rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
    return ModelSeries(time_grid=grid, **chain_series(np.diagonal(rho, axis1=1, axis2=2).real,
                                                      density_site1_coherence(rho, basis), basis))


def __getattr__(name: str):
    """Resolve `solve_ivp` on first access (PEP 562) and cache it in the module.

    Importing the engine then loads no scipy.integrate; the oracle, and code
    that swaps `solve_ivp` for a wrapper, pay for it on first use.
    """
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        globals()[name] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
