"""Stochastic trajectory ensembles and the dense master-equation oracle.

Each trajectory draws its own disorder realization and thermal initial
state, evolves under the chain Hamiltonian with the reset channel and
background noise, and reports leakage/occupation/coherence series on a
common observable grid. Ensembles average trajectories and attach
standard errors.

The engine works in the excitation-number sector N <= N_max of the chain
(`lattice.FockBasis`). The no-jump Hamiltonian commutes with the total
boson number N, and every jump and every reset lowers it, so a trajectory
never leaves the N <= N_0 subspace of its initial state. N_max is the
largest N an initial state of the configuration can have: the top level in
the coding state's support at zero temperature, the full space otherwise.

Every jump operator -- relaxation sqrt(gamma) a_l, dephasing sqrt(2 kappa)
n_l, dissipation sqrt(Gamma) a_L, and the resets |0><n|_L -- maps each Fock
state to at most one Fock state, so it is kept as a `lattice.Monomial` of
(src, dst, amp) entries and every L^dag L is diagonal: the no-jump
Hamiltonian is H - (i/2) diag(d) with one decay vector d
(`channels.decay_rates`). The reset channel acts on the last site L.

The integrator is event-driven: between feedback measurements and
observable grid points the state advances with the cached exact
eigendecomposition of the (generally non-Hermitian) no-jump Hamiltonian.
Stretches of the grid without an event are evaluated a block at a time:
every unfinished trajectory's no-jump state at its next K grid points is
one batched matmul of its eigenbasis coefficients, phased by factors
exp(-i lambda k observable_dt) computed once per chunk, and all of those
points are recorded at once. A block ends a trajectory's stretch at its
first event: a feedback measurement due at or before a grid point, or a
no-jump norm below its jump threshold (the norm never increases between
jumps, so the first such grid point follows the jump). That grid point
is stepped on its own: measurements due at or before it are applied
first, each after the jumps before it, then the state advances to the
grid point, resolving jumps on the way, and only then is it recorded.
Quantum jumps follow the waiting-time rule (Dalibard, Castin and Molmer,
PRL 68, 580 (1992)): a trajectory jumps when its no-jump norm falls to a
uniform threshold. The crossing time is solved by a bracketed Newton
iteration on the log of the norm, whose derivative -<psi|diag(d)|psi> is
exact (`_jump_time`); the jump channel is then drawn from the weights
||L_k psi||^2 and applied as one scatter, both O(dim).

The master-equation oracle integrates its density matrix in the same
sector, with the engine's Hamiltonian, jump operators, reset Kraus
operators (`channels.reset_kraus`) and observables, as one sparse
Lindbladian. Feedback measurement is one unravelling of its measurement
dissipator: the oracle averages Gamma (sum_n K_n rho K_n^dag - rho), the
engine Born-samples K_n psi, so the engine-oracle agreement checks the
sampling, the norm bookkeeping and the schedule. Its initial density is
its own, built from the basis occupations, so that it remains an
independent reference for the engine's initial-state sampling.

scipy is imported on first use, not with this module: `_lindbladian`
imports scipy.sparse, and `solve_ivp` is resolved on first access through
the module `__getattr__` (PEP 562). `solve_master_dense` looks
`solve_ivp` up on this module at call time, so it must stay a patchable
attribute here: the benchmark's tracer and the tests swap it.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import (
    NoiseModel,
    ResetChannel,
    decay_rates,
    dissipation_jump_operators,
    local_thermal_weights,
    measure_and_reset,
    next_measurement,
    noise_jump_operators,
    reset_kraus,
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
#: eigendecompositions (three sector-dimension squares per trajectory) stay
#: within a fixed memory budget. Chunk boundaries depend only on the
#: configuration, never on the worker count.
_CHUNK_ENTRY_BUDGET = 4_000_000


CODING_STATES = {
    "ket0": np.array([1.0, 0.0, 0.0], dtype=complex),
    "ket1": np.array([0.0, 1.0, 0.0], dtype=complex),
    "ket2": np.array([0.0, 0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0),
}

_TIME_EPS = 1e-9

#: Complex entries of one block of no-jump states (trajectories x grid
#: points x sector dimension). The block length follows from this and the
#: chunk's shape only, never from the worker count.
_BLOCK_ENTRIES = 2**15

#: The jump-time solve stops once |log(||psi||^2 / threshold)| is this small,
#: or when its bracket is down to adjacent floats, or after this many norm
#: evaluations (bisection of a 40-unit span to float resolution takes ~57).
_LOG_NORM_TOL = 1e-14
_JUMP_TIME_EVALUATIONS = 100


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one ensemble run."""

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
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.observable_stride < 1:
            raise ValueError("observable_stride must be >= 1")
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
    envelope 2|<0|rho_1|1>|, which is what a per-realization experiment
    records and what T2 fits should use.
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

        self._build_jump_operators()
        self._build_states_and_hamiltonians()
        self._init_channel_schedule()
        self._init_thresholds()

    # -- setup ------------------------------------------------------------

    def _build_jump_operators(self):
        jumps = noise_jump_operators(self.config.noise, self.basis)
        jumps += dissipation_jump_operators(self.channel, self.basis)
        self.has_jumps = bool(jumps)
        self.n_jumps = len(jumps)
        self.decay = decay_rates(jumps, self.dim)
        if jumps:
            # every operator's entries in one Monomial; operator k owns the
            # entries bounds[k]:bounds[k + 1]
            sizes = [op.src.size for op in jumps]
            self.jump_entries = Monomial(*(np.concatenate(part) for part in zip(*jumps)))
            self.jump_owner = np.repeat(np.arange(len(jumps)), sizes)
            self.jump_bounds = np.cumsum([0, *sizes])

    def _build_states_and_hamiltonians(self):
        cfg, spec = self.config, self.spec
        dim, B = self.dim, self.batch
        hams = np.empty((B, dim, dim), dtype=complex)
        psi = np.empty((B, dim), dtype=complex)
        coding = cfg.coding_vector()

        for row, idx in enumerate(self.indices):
            real = realize_disorder(spec, _disorder_seed(cfg.master_seed, idx))
            hams[row] = build_bose_hubbard(real, self.basis)
            rng_th = _stream(cfg.master_seed, idx, 1)
            psi[row] = sample_thermal_initial(real, cfg.noise, coding, rng_th, self.basis)

        diagonal = np.arange(dim)
        hams[:, diagonal, diagonal] -= 0.5j * self.decay
        self.evals, self.vecs, self.vinv = eigensystem(hams, hermitian=not self.has_jumps)
        self.psi = psi
        self.t_cur = np.zeros(B)

    def _init_channel_schedule(self):
        cfg = self.config
        measuring = self.channel is not None and self.channel.is_feedback
        self.meas_rngs = [_stream(cfg.master_seed, idx, 2) if measuring else None
                          for idx in self.indices]
        self.next_meas = np.array([next_measurement(self.channel, cfg.dt, rng)
                                   for rng in self.meas_rngs])

    def _init_thresholds(self):
        cfg = self.config
        self.jump_rngs = [
            _stream(cfg.master_seed, idx, 3) if self.has_jumps else None
            for idx in self.indices
        ]
        if self.has_jumps:
            self.thresholds = np.array([rng.random() for rng in self.jump_rngs])
        else:
            self.thresholds = np.zeros(self.batch)

    # -- evolution primitives ---------------------------------------------

    def _evolve_rows(self, rows: np.ndarray, taus: np.ndarray):
        """Advance the given rows by per-row durations (states only)."""
        # a slice views the whole batch where an index array would copy it
        rows = slice(None) if rows.size == self.batch else rows
        coeffs = np.matmul(self.vinv[rows], self.psi[rows, :, None])[:, :, 0]
        self.psi[rows] = evolve(self.vecs[rows], self.evals[rows], coeffs, taus)

    def _advance_to(self, rows: np.ndarray, targets: np.ndarray):
        """Advance rows to absolute times, resolving jumps on the way."""
        taus = targets - self.t_cur[rows]
        taus = np.where(taus > 0, taus, 0.0)
        anchors = self.psi[rows].copy()
        t_from = self.t_cur[rows].copy()
        self._evolve_rows(rows, taus)
        self.t_cur[rows] = targets
        norms = np.einsum("bi,bi->b", self.psi[rows], self.psi[rows].conj()).real
        crossed = norms < self.thresholds[rows]
        for local in np.nonzero(crossed)[0]:
            row = int(rows[local])
            self._resolve_jumps(row, anchors[local], float(t_from[local]), float(targets[local]))

    def _resolve_jumps(self, row: int, anchor: np.ndarray, t_from: float, t_to: float):
        """Waiting-time jump resolution for one trajectory on [t_from, t_to]."""
        rng = self.jump_rngs[row]
        vecs, vinv, evals = self.vecs[row], self.vinv[row], self.evals[row]
        entries = self.jump_entries
        psi0 = anchor
        while True:
            coeffs = vinv @ psi0
            span = t_to - t_from
            amp_end = evolve(vecs, evals, coeffs, span)
            n_end = float(np.vdot(amp_end, amp_end).real)
            if n_end >= self.thresholds[row]:
                self.psi[row] = amp_end
                self.t_cur[row] = t_to
                return
            t_star, amp_star = _jump_time(vecs, evals, coeffs, self.decay, self.thresholds[row],
                                          span, float(np.vdot(psi0, psi0).real), n_end)
            flows = entries.amp * amp_star[entries.src]
            weights = np.bincount(self.jump_owner, weights=flows.real**2 + flows.imag**2,
                                  minlength=self.n_jumps)
            total = weights.sum()
            if total <= 0:
                # norm loss without any open jump channel cannot happen for
                # the diagonal dissipators used here; guard anyway
                self.psi[row] = amp_end
                self.t_cur[row] = t_to
                return
            pick = int(np.searchsorted(np.cumsum(weights / total), rng.random(), side="right"))
            pick = min(pick, self.n_jumps - 1)
            own = slice(self.jump_bounds[pick], self.jump_bounds[pick + 1])
            jumped = np.zeros_like(amp_star)
            jumped[entries.dst[own]] = flows[own]
            psi0 = jumped / np.linalg.norm(jumped)
            self.thresholds[row] = rng.random()
            t_from = t_from + t_star

    # -- feedback measurements ---------------------------------------------

    def _measure_rows(self, rows: np.ndarray):
        psi = self.psi[rows]
        draws = np.array([self.meas_rngs[int(r)].random() for r in rows])
        reset, _ = measure_and_reset(psi, self.basis, draws)
        # preserve the pre-measurement norm so waiting-time bookkeeping
        # keeps tracking only the non-Hermitian (dissipative) norm loss
        scale = np.linalg.norm(psi, axis=1) / np.linalg.norm(reset, axis=1)
        self.psi[rows] = reset * scale[:, None]

    def _schedule_next_measurement(self, rows: np.ndarray):
        for r in rows:
            r = int(r)
            self.next_meas[r] = next_measurement(self.channel, self.config.dt,
                                                 self.meas_rngs[r], float(self.next_meas[r]))

    # -- main loop -----------------------------------------------------------

    def run(self) -> dict[str, np.ndarray]:
        """Each per-trajectory `EnsembleObservables` series, as a (batch, grid) array.

        Each iteration evaluates every unfinished row's no-jump state at its
        next K grid points (`_no_jump_block`) and records the points before
        the row's first event. The event's grid point goes through
        `_step_to`: a measurement at or before a grid point is applied
        before that point is recorded. Every row meets its events in time
        order and draws from its own streams, so K changes a result only by
        round-off.
        """
        grid = self.config.time_grid
        size = grid.size
        first = self._series(self.psi)
        out = {name: np.empty((self.batch, size), dtype=values.dtype)
               for name, values in first.items()}
        for name, values in first.items():
            out[name][:, 0] = values
        offsets = np.arange(_block_length(self.batch, self.dim, size))
        steps = np.exp(-1j * self.evals[:, None, :]
                       * (offsets * self.config.observable_dt)[:, None])
        upcoming = np.ones(self.batch, dtype=int)  # each row's next grid index
        while (rows := np.nonzero(upcoming < size)[0]).size:
            # a slice views the whole batch where an index array would copy it
            sel = slice(None) if rows.size == self.batch else rows
            index = upcoming[sel, None] + offsets
            on_grid = index < size
            times = grid[np.minimum(index, size - 1)]
            amps = self._no_jump_block(sel, times[:, 0], steps[sel])
            norms = (np.einsum("rki,rki->rk", amps.real, amps.real)
                     + np.einsum("rki,rki->rk", amps.imag, amps.imag))
            due = self.next_meas[sel, None] <= times + _TIME_EPS * np.maximum(times, 1.0)
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
                for name, values in self._step_to(events, grid[upcoming[events]]).items():
                    out[name][events, upcoming[events]] = values
                upcoming[events] += 1
        return out

    def _no_jump_block(self, rows, t_first: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """No-jump states (rows, K, dim) of `rows` at t_first + k observable_dt, k < K.

        `steps` holds exp(-i lambda k observable_dt) of the same rows; the
        coefficients V^-1 psi are phased from t_cur to t_first once.
        """
        coeffs = np.matmul(self.vinv[rows], self.psi[rows, :, None])[:, :, 0]
        lead = np.maximum(t_first - self.t_cur[rows], 0.0)
        coeffs *= np.exp(-1j * self.evals[rows] * lead[:, None])
        return np.matmul(coeffs[:, None, :] * steps, self.vecs[rows].swapaxes(-1, -2))

    def _step_to(self, rows: np.ndarray, targets: np.ndarray) -> dict[str, np.ndarray]:
        """Step rows to their grid points `targets` through every event, and their series there."""
        eps = _TIME_EPS * np.maximum(targets, 1.0)
        while (pending := self.next_meas[rows] <= targets + eps).any():
            measured = rows[pending]
            self._advance_to(measured, self.next_meas[measured])
            self._measure_rows(measured)
            self._schedule_next_measurement(measured)
        self._advance_to(rows, targets)
        return self._series(self.psi[rows])

    def _series(self, amps: np.ndarray) -> dict[str, np.ndarray]:
        """The recorded series of states `amps` (..., dim), over leading axes."""
        pops = amps.real**2 + amps.imag**2
        norms = pops.sum(axis=-1)
        series = chain_series(pops / norms[..., None],
                              state_site1_coherence(amps, self.basis) / norms, self.basis)
        series["coherence_envelope_site1"] = coherence_envelope(series["coherence_site1"])
        return series


def _jump_time(vecs, evals, coeffs, decay, threshold: float, span: float,
               n_start: float, n_end: float) -> tuple[float, np.ndarray]:
    """When the no-jump norm falls to `threshold` within [0, span], and the state then.

    The state is V exp(-i lambda tau) coeffs (see `propagator.evolve`), under
    H_eff = H - (i/2) diag(decay); its squared norm falls from n_start >=
    threshold at tau = 0 to n_end < threshold at tau = span, with the exact
    derivative d||psi||^2/dtau = -<psi|diag(decay)|psi>. Newton's method on
    g(tau) = log(||psi||^2 / threshold) starts from the log-linear
    interpolation of the two ends, keeps a bracket of the root, and bisects
    it whenever a step would leave it.
    """
    tiny = np.finfo(float).tiny
    g_lo = max(math.log(n_start / threshold), 0.0)
    g_hi = math.log(max(n_end, tiny) / threshold)
    lo, hi = 0.0, span
    guess = span * g_lo / (g_lo - g_hi)
    for _ in range(_JUMP_TIME_EVALUATIONS):
        tau = guess if lo < guess < hi else 0.5 * (lo + hi)
        amp = evolve(vecs, evals, coeffs, tau)
        pops = amp.real**2 + amp.imag**2
        norm = max(float(pops.sum()), tiny)
        g = math.log(norm / threshold)
        if abs(g) <= _LOG_NORM_TOL or tau in (lo, hi):
            break
        if g > 0:
            lo = tau
        else:
            hi = tau
        # g'(tau) = -rate, so the Newton step is g / rate
        rate = float(pops @ decay) / norm
        guess = tau + g / rate if rate > 0 else math.nan
    return tau, amp


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


def run_trajectory(config: SimulationConfig, index: int) -> ModelSeries:
    """Run one trajectory; deterministic in (master_seed, index)."""
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
    (i/2) diag(decay_rates); each monomial L_k puts amp_a amp_b^* rho[src_a,
    src_b] on entry [dst_a, dst_b].
    """
    from scipy import sparse

    dim = ham.shape[0]
    h_eff = sparse.csr_matrix(ham - 0.5j * np.diag(decay_rates(jumps, dim)))
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

    Intended as a small-system oracle (the density matrix is dense). The
    disorder is drawn once from the master seed, so quantitative comparison
    against a trajectory ensemble -- which redraws disorder per trajectory --
    is meaningful at zero disorder. Feedback channels enter through the
    projector dissipator of randomly timed measurements; engineered
    dissipation and background noise through their standard jump operators.

    The density matrix lives in the engine's excitation-number sector
    (`_sector`). This is exact: H conserves N and every jump and reset
    lowers it, so rho never leaves N <= N_max; at T > 0 the sector is the
    full space. The Hamiltonian, jump operators, reset Kraus operators
    |0><n|_L (`channels.reset_kraus`, which `measure_and_reset` also
    applies) and observables are the engine's, built in that basis, so
    agreement with the engine checks its Born sampling, norm bookkeeping
    and measurement schedule, not the operators themselves;
    `reset_kraus` is checked against a dense lookup in the tests. rho0 is
    built here from the basis occupations, independently of the engine's
    `sample_thermal_initial`, so that the oracle stays a reference for it.

    Every jump and Kraus operator is a `Monomial`, so the whole right-hand
    side is one sparse Lindbladian (`_lindbladian`) over the dim^2 entries
    of rho, built once; the integrator only multiplies by it, on
    `config.time_grid` with rtol 1e-9 and atol 1e-11.
    """
    basis = _sector(config)
    dim = basis.dimension
    grid = config.time_grid
    real = realize_disorder(config.lattice, _disorder_seed(config.master_seed, 0))
    ham = build_bose_hubbard(real, basis)

    jumps = noise_jump_operators(config.noise, basis)
    jumps += dissipation_jump_operators(config.channel, basis)
    if config.channel is not None and config.channel.is_feedback and config.channel.rate > 0:
        # measurements at rate Gamma: Gamma (sum_n K_n rho K_n^dag - rho), and
        # the Kraus set is complete, so these are jumps sqrt(Gamma) K_n
        root = math.sqrt(config.channel.rate)
        jumps += [k._replace(amp=root * k.amp) for k in reset_kraus(basis)]
    lindbladian = _lindbladian(ham, jumps)
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
