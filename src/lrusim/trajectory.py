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

The dense master-equation oracle integrates its density matrix in the same
sector, with the engine's Hamiltonian, jump operators and observables. Its
reset Kraus operators |0><n| and its initial density are its own, built
from the basis occupations, so that it remains an independent reference
for the engine's measure-and-reset and initial-state sampling.

The integrator is event-driven: between feedback measurements and
observable grid points the state advances with the cached exact
eigendecomposition of the (generally non-Hermitian) no-jump Hamiltonian,
and quantum jumps are located by the norm-threshold (waiting-time) rule,
which is step-size free.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .channels import (
    NoiseModel,
    ResetChannel,
    StepTooLargeError,
    local_thermal_weights,
    measure_and_reset,
    noise_jump_operators,
    sample_thermal_initial,
)
from .lattice import (
    DisorderRealization,
    FockBasis,
    LatticeSpec,
    build_bose_hubbard,
    build_site_operator,
    realize_disorder,
)
from .observables import density_site1_coherence, site_expectations, state_site1_coherence
from .propagator import EXACT_DIM_LIMIT, eigensystem, evolve

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


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one ensemble run."""

    lattice: LatticeSpec
    channel: ResetChannel | None
    t_max: float
    dt: float
    n_trajectories: int
    noise: NoiseModel | None = None
    initial_coding_state: str = "ket2"
    master_seed: int = 0
    observable_stride: int = 1

    def __post_init__(self):
        if self.t_max <= 0 or self.dt <= 0:
            raise ValueError("t_max and dt must be positive")
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.observable_stride < 1:
            raise ValueError("observable_stride must be >= 1")
        if self.initial_coding_state not in CODING_STATES:
            raise ValueError(f"unknown coding state {self.initial_coding_state!r}")
        if self.lattice.local_dim != 3:
            raise ValueError("the engine is written for qutrit chains")

    @property
    def observable_dt(self) -> float:
        return self.observable_stride * self.dt

    @property
    def time_grid(self) -> np.ndarray:
        n = max(1, round(self.t_max / self.observable_dt))
        return np.arange(n + 1) * self.observable_dt

    def coding_vector(self) -> np.ndarray:
        return CODING_STATES[self.initial_coding_state].copy()


@dataclass
class TrajectoryResult:
    """Observable series of a single trajectory."""

    time_grid: np.ndarray
    leakage_total: np.ndarray
    leakage_site1: np.ndarray
    occupation_site1: np.ndarray
    coherence_site1: np.ndarray  # complex


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
    """Deterministic observable series (master equation or effective model)."""

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
        spec = config.lattice
        self.spec = spec
        self.basis = basis
        self.dim = basis.dimension
        if self.dim > EXACT_DIM_LIMIT:
            raise ValueError(
                f"trajectory engine supports sectors of up to {EXACT_DIM_LIMIT} states"
            )
        self.batch = len(self.indices)
        self.channel = config.channel
        self.noise = config.noise or NoiseModel()
        self.site = self.channel.site_index(spec) if self.channel else spec.length

        self._build_jump_operators()
        self._build_states_and_hamiltonians()
        self._init_channel_schedule()
        self._init_thresholds()

    # -- setup ------------------------------------------------------------

    def _build_jump_operators(self):
        ops = [op.dense() for op in noise_jump_operators(self.noise, self.spec, self.basis)]
        if self.channel is not None and self.channel.kind == "dissipation" and self.channel.rate > 0:
            a_last = build_site_operator(self.spec, self.site, "annihilation", self.basis).dense()
            ops.append(math.sqrt(self.channel.rate) * a_last)
        self.jump_ops = ops
        self.has_jumps = bool(ops)

    def _build_states_and_hamiltonians(self):
        cfg, spec = self.config, self.spec
        dim, B = self.dim, self.batch
        hams = np.empty((B, dim, dim), dtype=complex)
        psi = np.empty((B, dim), dtype=complex)
        coding = cfg.coding_vector()

        for row, idx in enumerate(self.indices):
            real = realize_disorder(spec, _disorder_seed(cfg.master_seed, idx))
            hams[row] = build_bose_hubbard(real, self.basis).dense()
            rng_th = _stream(cfg.master_seed, idx, 1)
            psi[row] = sample_thermal_initial(real, self.noise, coding, rng_th,
                                              self.basis).amplitudes

        if self.jump_ops:
            for op in self.jump_ops:
                ldl = op.conj().T @ op
                hams -= 0.5j * ldl[None, :, :]
        self.evals, self.vecs, self.vinv = eigensystem(hams, hermitian=not self.jump_ops)
        self.psi = psi
        self.t_cur = np.zeros(B)

    def _init_channel_schedule(self):
        cfg = self.config
        B = self.batch
        self.next_meas = np.full(B, math.inf)
        self.meas_rngs = [None] * B
        self.period = None
        if self.channel is None or not self.channel.is_feedback or self.channel.rate == 0:
            return
        if self.channel.kind == "periodic_feedback":
            self.period = 1.0 / self.channel.rate
            for row, idx in enumerate(self.indices):
                rng = _stream(cfg.master_seed, idx, 2)
                self.meas_rngs[row] = rng
                self.next_meas[row] = rng.uniform(0.0, self.period)
        else:
            p = self.channel.rate * cfg.dt
            if p >= 1:
                raise StepTooLargeError(f"rate*dt = {p:.3f} >= 1")
            for row, idx in enumerate(self.indices):
                rng = _stream(cfg.master_seed, idx, 2)
                self.meas_rngs[row] = rng
                self.next_meas[row] = self._draw_random_gap(rng)

    def _draw_random_gap(self, rng) -> float:
        """Steps-to-next-event of the per-dt Bernoulli process, as a time."""
        p = self.channel.rate * self.config.dt
        u = rng.random()
        k = 1 + int(math.floor(math.log1p(-u) / math.log1p(-p)))
        return k * self.config.dt

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
        if not self.has_jumps:
            self._evolve_rows(rows, taus)
            self.t_cur[rows] = targets
            return
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
        psi0 = anchor
        while True:
            c0 = vinv @ psi0
            span = t_to - t_from

            def norm_at(tau):
                amp = evolve(vecs, evals, c0, tau)
                return float(np.vdot(amp, amp).real), amp

            n_end, amp_end = norm_at(span)
            if n_end >= self.thresholds[row]:
                self.psi[row] = amp_end
                self.t_cur[row] = t_to
                return
            lo, hi = 0.0, span
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break  # the bracket is down to adjacent floats
                n_mid, _ = norm_at(mid)
                if n_mid < self.thresholds[row]:
                    hi = mid
                else:
                    lo = mid
            t_star = 0.5 * (lo + hi)
            _, amp_star = norm_at(t_star)
            weights = np.array([np.linalg.norm(op @ amp_star) ** 2 for op in self.jump_ops])
            total = weights.sum()
            if total <= 0:
                # norm loss without any open jump channel cannot happen for
                # the diagonal dissipators used here; guard anyway
                self.psi[row] = amp_end
                self.t_cur[row] = t_to
                return
            pick = int(np.searchsorted(np.cumsum(weights / total), rng.random(), side="right"))
            pick = min(pick, len(self.jump_ops) - 1)
            jumped = self.jump_ops[pick] @ amp_star
            psi0 = jumped / np.linalg.norm(jumped)
            self.thresholds[row] = rng.random()
            t_from = t_from + t_star

    # -- feedback measurements ---------------------------------------------

    def _measure_rows(self, rows: np.ndarray):
        psi = self.psi[rows]
        draws = np.array([self.meas_rngs[int(r)].random() for r in rows])
        reset, _ = measure_and_reset(psi, self.basis, self.site, draws)
        # preserve the pre-measurement norm so waiting-time bookkeeping
        # keeps tracking only the non-Hermitian (dissipative) norm loss
        scale = np.linalg.norm(psi, axis=1) / np.linalg.norm(reset, axis=1)
        self.psi[rows] = reset * scale[:, None]

    def _schedule_next_measurement(self, rows: np.ndarray):
        if self.period is not None:
            self.next_meas[rows] += self.period
            return
        for r in rows:
            self.next_meas[int(r)] += self._draw_random_gap(self.meas_rngs[int(r)])

    # -- main loops ---------------------------------------------------------

    def run(self):
        grid = self.config.time_grid
        out = {name: np.empty((self.batch, grid.size)) for name in
               ("leakage_total", "leakage_site1", "occupation_site1", "envelope")}
        coh = np.empty((self.batch, grid.size), dtype=complex)
        self._record(0, out, coh)
        all_rows = np.arange(self.batch)
        for g in range(1, grid.size):
            t_goal = grid[g]
            while True:
                pending = self.next_meas <= t_goal + _TIME_EPS * max(t_goal, 1.0)
                if not pending.any():
                    break
                rows = np.nonzero(pending)[0]
                self._advance_to(rows, self.next_meas[rows])
                self._measure_rows(rows)
                self._schedule_next_measurement(rows)
            self._advance_to(all_rows, np.full(self.batch, t_goal))
            self._record(g, out, coh)
        return out, coh

    def _record(self, g: int, out, coh):
        pops = self.psi.real**2 + self.psi.imag**2
        norms = pops.sum(axis=1)
        leak, occ = site_expectations(pops / norms[:, None], self.basis)
        c = state_site1_coherence(self.psi, self.basis) / norms
        out["leakage_total"][:, g] = leak.sum(axis=1)
        out["leakage_site1"][:, g] = leak[:, 0]
        out["occupation_site1"][:, g] = occ[:, 0]
        out["envelope"][:, g] = 2.0 * np.abs(c)
        coh[:, g] = c


# ---------------------------------------------------------------------------
# public entry points


def _chunk_size(dim: int) -> int:
    return max(1, min(256, _CHUNK_ENTRY_BUDGET // (dim * dim)))


def _max_excitations(config: SimulationConfig) -> int:
    """Largest total excitation number of any initial state of `config`.

    At zero temperature the idle sites start empty and N_0 is the top level
    in the coding state's support; at T > 0 the idle sites may start
    excited, so the bound is the full space's L (d - 1).
    """
    spec = config.lattice
    if config.noise is not None and config.noise.temperature > 0:
        return spec.length * (spec.local_dim - 1)
    return int(np.nonzero(config.coding_vector())[0].max())


def _sector(config: SimulationConfig) -> FockBasis:
    spec = config.lattice
    return FockBasis(spec.length, spec.local_dim, _max_excitations(config))


def run_trajectory(config: SimulationConfig, index: int) -> TrajectoryResult:
    """Run one trajectory; deterministic in (master_seed, index)."""
    engine = _ChunkEngine(config, [index], _sector(config))
    out, coh = engine.run()
    return TrajectoryResult(
        time_grid=config.time_grid,
        leakage_total=out["leakage_total"][0],
        leakage_site1=out["leakage_site1"][0],
        occupation_site1=out["occupation_site1"][0],
        coherence_site1=coh[0],
    )


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
    real_parts = {name: np.concatenate([r[0][name] for r in results], axis=0)
                  for name in ("leakage_total", "leakage_site1", "occupation_site1", "envelope")}
    coh = np.concatenate([r[1] for r in results], axis=0)

    def mean_se(stack):
        mean = stack.mean(axis=0)
        if stack.shape[0] > 1:
            se = stack.std(axis=0, ddof=1) / math.sqrt(stack.shape[0])
        else:
            se = np.zeros_like(mean)
        return mean, se

    lt, lt_se = mean_se(real_parts["leakage_total"])
    l1, l1_se = mean_se(real_parts["leakage_site1"])
    n1, n1_se = mean_se(real_parts["occupation_site1"])
    env, env_se = mean_se(real_parts["envelope"])
    coh_mean = coh.mean(axis=0)
    if n > 1:
        spread = (np.abs(coh - coh_mean[None, :]) ** 2).sum(axis=0) / (n - 1)
        coh_se = np.sqrt(spread / n)
    else:
        coh_se = np.zeros(grid.size)
    return EnsembleObservables(
        time_grid=grid,
        leakage_total=lt, leakage_total_se=lt_se,
        leakage_site1=l1, leakage_site1_se=l1_se,
        occupation_site1=n1, occupation_site1_se=n1_se,
        coherence_site1=coh_mean, coherence_site1_se=coh_se,
        coherence_envelope_site1=env, coherence_envelope_site1_se=env_se,
        n_trajectories_used=n,
    )


# ---------------------------------------------------------------------------
# dense master-equation oracle


def _initial_density(config: SimulationConfig, real: DisorderRealization,
                     noise: NoiseModel, basis: FockBasis) -> np.ndarray:
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
            real.omegas[site - 1], real.anharmonicities[site - 1],
            noise.temperature, spec.local_dim,
        )
        idle = idle * weights[occ[:, site - 1]]
    same_rest = (occ[:, None, 1:] == occ[None, :, 1:]).all(axis=-1)
    amp = config.coding_vector()[occ[:, 0]]
    return np.outer(amp, amp.conj()) * (idle[:, None] * same_rest)


def _reset_kraus(basis: FockBasis, site: int) -> list[np.ndarray]:
    """Reset Kraus operators |0><n| at `site`, one per level n, over `basis`."""
    kraus = []
    for n in range(basis.local_dim):
        src, dst = basis.transitions({site: -n})
        keep = basis.occupations[src, site - 1] == n
        op = np.zeros((basis.dimension, basis.dimension), dtype=complex)
        op[dst[keep], src[keep]] = 1.0
        kraus.append(op)
    return kraus


def solve_master_dense(config: SimulationConfig, t_grid=None,
                       rtol: float = 1e-9, atol: float = 1e-11) -> ModelSeries:
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
    full space. The Hamiltonian, jump operators and observables are the
    engine's, built in that basis. The reset Kraus operators |0><n| and
    rho0 are built here from the basis occupations, independently of the
    engine's `measure_and_reset` and `sample_thermal_initial`, so that the
    oracle stays a reference for them.
    """
    spec = config.lattice
    basis = _sector(config)
    dim = basis.dimension
    if dim**2 > 1_000_000:
        raise ValueError("density-matrix oracle limited to sector dimension^2 <= 1e6")
    grid = np.asarray(config.time_grid if t_grid is None else t_grid, dtype=float)
    noise = config.noise or NoiseModel()
    real = realize_disorder(spec, _disorder_seed(config.master_seed, 0))
    ham = build_bose_hubbard(real, basis).dense()

    jump_ops = [op.dense() for op in noise_jump_operators(noise, spec, basis)]
    projectors = []
    rate_fb = 0.0
    if config.channel is not None and config.channel.rate > 0:
        site = config.channel.site_index(spec)
        if config.channel.kind == "dissipation":
            a_last = build_site_operator(spec, site, "annihilation", basis).dense()
            jump_ops.append(math.sqrt(config.channel.rate) * a_last)
        else:
            rate_fb = config.channel.rate
            projectors = _reset_kraus(basis, site)

    rho0 = _initial_density(config, real, noise, basis)
    lindblad_pairs = [(op, op.conj().T @ op) for op in jump_ops]

    def rhs(_t, flat):
        rho = flat.reshape(dim, dim)
        drho = -1j * (ham @ rho - rho @ ham)
        for op, ldl in lindblad_pairs:
            drho += op @ rho @ op.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
        if rate_fb > 0:
            kick = sum(p @ rho @ p.conj().T for p in projectors)
            drho += rate_fb * (kick - rho)
        return drho.ravel()

    sol = solve_ivp(rhs, (grid[0], grid[-1]), rho0.ravel(), t_eval=grid,
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"master-equation integration failed: {sol.message}")

    rho = sol.y.T.reshape(grid.size, dim, dim)
    rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
    leak, occ = site_expectations(np.diagonal(rho, axis1=1, axis2=2).real, basis)
    return ModelSeries(time_grid=grid, leakage_total=leak.sum(axis=1), leakage_site1=leak[:, 0],
                       occupation_site1=occ[:, 0],
                       coherence_site1=density_site1_coherence(rho, basis))
