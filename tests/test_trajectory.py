"""The event-driven trajectory engine: oracle agreement and determinism.

`run_ensemble` locates jumps by the waiting-time rule and applies periodic
measurements at their scheduled times, so its only error is statistical.
The oracle tests bound that error point by point against the master
equation, whose sparse generator is checked against a dense Lindblad
right-hand side and whose decay rates are checked against the paper's
closed forms; the determinism and block-length tests pin that chunking,
threading and the engine's block length never change a result. The
sector tests pin that running in the N <= N_max excitation sector gives
what the same engine, or the same oracle, gives in the full space.
"""

import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import lrusim.trajectory
from lrusim import (
    FockBasis,
    LatticeSpec,
    NoiseModel,
    ResetChannel,
    SimulationConfig,
    run_ensemble,
    run_trajectory,
    solve_master_dense,
)
from lrusim.analytics import diss_rate_high, fb_leakage_rate_high
from lrusim.channels import (
    channel_jump_operators,
    jump_table,
    local_thermal_weights,
    noise_jump_operators,
    reset_kraus,
)
from lrusim.lattice import (
    MAX_DIMENSION,
    build_bose_hubbard,
    build_site_operator,
    realize_disorder,
)
from lrusim.observables import fit_exponential
from lrusim.propagator import eigensystem, evolve
from lrusim.trajectory import (
    _block_length,
    _ChunkEngine,
    _chunk_size,
    _disorder_seed,
    _initial_density,
    _jump_time,
    _stream,
)

from conftest import (
    densify,
    dense_bose_hubbard_oracle,
    dense_lindblad_rhs,
    evolve_nonhermitian_oracle,
    reset_kraus_oracle,
)

#: Largest |z| allowed at any grid point. At 256 trajectories, seeds 0-5
#: read 1.3-2.6 over 3 series x 51 points for either channel.
Z_BOUND = 4.0

ORACLE_SERIES = ("leakage_total", "leakage_site1", "occupation_site1")


def chain_config(kind, rate, n_trajectories, t_max, dt, stride, noise, seed=0,
                 coding="ket2", length=3, disorder=0.0):
    return SimulationConfig(
        lattice=LatticeSpec(length, 0.0, 10.0, 1.0, disorder),
        channel=ResetChannel(kind, rate),
        t_max=t_max,
        dt=dt,
        n_trajectories=n_trajectories,
        noise=noise,
        initial_coding_state=coding,
        master_seed=seed,
        observable_stride=stride,
    )


def hot_config(length):
    """A T > 0 chain with lab-frame level energies (about 7.5 GHz, U = 250 MHz)."""
    return SimulationConfig(
        lattice=LatticeSpec(length, 47000.0, 1570.0, 50.0),
        channel=ResetChannel("dissipation", 1.0),
        t_max=1.0, dt=0.1, n_trajectories=4, noise=NoiseModel(0.01, 0.01, 0.05),
    )


def max_z(ens, oracle, name) -> float:
    """Largest |z| of an ensemble series against the oracle.

    The standard error is floored at 3/n: while only a few jumps are
    expected, trajectories that have not jumped agree exactly and the
    sample SE reads near zero although the mean is off by the missing jumps.
    """
    floor = 3.0 / ens.n_trajectories_used
    se = np.maximum(getattr(ens, name + "_se"), floor)
    return float(np.max(np.abs(getattr(ens, name) - getattr(oracle, name)) / se))


class TestOracleAgreement:
    # 51 grid points over t = 0..20, past the transport plateau of L = 3
    @pytest.mark.parametrize("kind, rate, dt, stride", [
        pytest.param("dissipation", 1.0, 0.4, 1, id="dissipation-0.4-1"),
        pytest.param("random_feedback", 1.0, 0.01, 40, id="random_feedback-0.01-40"),
        # Gamma = U, with four measurements per grid step on average
        pytest.param("random_feedback", 10.0, 0.4, 1, id="random_feedback-rate10-0.4-1"),
    ])
    def test_every_grid_point_within_bound(self, kind, rate, dt, stride):
        config = chain_config(kind, rate, 256, 20.0, dt, stride, NoiseModel(0.01, 0.01))
        ens = run_ensemble(config)
        oracle = solve_master_dense(config)
        assert np.array_equal(ens.time_grid, oracle.time_grid)
        # the leakage pair must actually leave the chain for the check to mean much
        assert oracle.leakage_total[-1] < 0.5
        for name in ORACLE_SERIES:
            assert max_z(ens, oracle, name) < Z_BOUND, name

    @pytest.mark.parametrize("kind", ["random_feedback", "dissipation"])
    def test_plus_envelope_is_twice_the_coherence_modulus(self, kind):
        # from plus every jump leaves site 1 without coherence, so at W = 0 the
        # rows that have not jumped share one state: the mean envelope is
        # 2 |mean coherence|, linear in rho like the oracle's
        config = chain_config(kind, 2.0, 256, 40.0, 0.2, 1, NoiseModel(0.05, 0.01), seed=3,
                              coding="plus")
        ens = run_ensemble(config)
        modulus = 2.0 * np.abs(ens.coherence_site1)
        assert np.max(np.abs(ens.coherence_envelope_site1 - modulus)) < 1e-12
        oracle = solve_master_dense(config)
        envelope = SimpleNamespace(coherence_envelope_site1=2.0 * np.abs(oracle.coherence_site1))
        assert max_z(ens, envelope, "coherence_envelope_site1") < Z_BOUND


def short_config(kind, coding, **changes):
    # more trajectories than one chunk holds at L = 3, so run_ensemble
    # splits them and two threads really run chunks side by side
    n = _chunk_size(27) + 20
    config = chain_config(kind, 2.0, n, 2.0, 0.05, 2, NoiseModel(0.05, 0.05), seed=11,
                          coding=coding)
    return replace(config, **changes)


#: Chains whose rows do not share their set-up: at W = 4 each row has its
#: own realization, and at T > 0 its own thermal draw. The hot chain keeps
#: J = 1 and U = 10 but lifts omega to 30, so its level energies increase
#: (lab frame), at a temperature where k T is about hbar omega: each idle
#: site starts excited with probability 0.43. The phases omega t stay small
#: enough that a single trajectory and its chunk agree to round-off.
DISORDERED = short_config("random_feedback", "plus", lattice=LatticeSpec(3, 0.0, 10.0, 1.0, 4.0))
HOT = short_config("random_feedback", "plus", lattice=LatticeSpec(3, 30.0, 10.0, 1.0),
                   noise=NoiseModel(0.05, 0.05, 3e-4))


def jumpy_config(disorder, kind="dissipation", rate=4.0):
    """Strong noise and dissipation against a grid step of 1, so that rows
    jump several times between two grid points."""
    return chain_config(kind, rate, 12, 4.0, 0.5, 2, NoiseModel(1.0, 1.0),
                        coding="plus", length=2, disorder=disorder)


#: Jumpy chains, the same chains with random feedback's K_1, K_2 and Q
#: jumps among them, and with ten periodic measurements per grid step.
JUMPY = [
    pytest.param(jumpy_config(0.0), id="W0"),
    pytest.param(jumpy_config(2.0), id="W2"),
    pytest.param(jumpy_config(0.0, "random_feedback", 10.0), id="random_feedback-W0"),
    pytest.param(jumpy_config(2.0, "random_feedback", 10.0), id="random_feedback-W2"),
    pytest.param(jumpy_config(0.0, "periodic_feedback", 10.0), id="periodic_feedback-W0"),
    pytest.param(jumpy_config(2.0, "periodic_feedback", 10.0), id="periodic_feedback-W2"),
]


class TestDeterminism:
    @pytest.mark.parametrize("config", [
        pytest.param(short_config("periodic_feedback", "ket2"), id="periodic_feedback-ket2"),
        pytest.param(short_config("random_feedback", "plus"), id="random_feedback-plus"),
        pytest.param(DISORDERED, id="random_feedback-plus-W4"),
        pytest.param(HOT, id="random_feedback-plus-hot"),
    ])
    def test_thread_count_does_not_change_result(self, config):
        assert config.n_trajectories > _chunk_size(lrusim.trajectory._sector(config).dimension)
        one = run_ensemble(config, n_threads=1)
        two = run_ensemble(config, n_threads=2)
        for name, value in vars(one).items():
            assert np.array_equal(value, getattr(two, name)), name

    # random feedback from the plus state also jumps and dephases
    @pytest.mark.parametrize("config", [
        pytest.param(short_config("random_feedback", "plus"), id="W0"),
        pytest.param(DISORDERED, id="W4"),
        pytest.param(HOT, id="hot"),
    ])
    def test_single_trajectories_average_to_ensemble(self, monkeypatch, config):
        starts = []
        sample_thermal_initial = lrusim.trajectory.sample_thermal_initial

        def recording_sample_thermal_initial(*args):
            starts.append(sample_thermal_initial(*args))
            return starts[-1]

        monkeypatch.setattr(lrusim.trajectory, "sample_thermal_initial",
                            recording_sample_thermal_initial)
        ens = run_ensemble(config)
        # at T > 0 the rows must start apart, or the case pins no per-row draw
        assert len({state.tobytes() for state in starts}) > 1 or config.noise.temperature == 0
        n = config.n_trajectories
        singles = [run_trajectory(config, i) for i in range(n)]
        stacks = {name: np.array([getattr(s, name) for s in singles]) for name in
                  ("leakage_total", "leakage_site1", "occupation_site1", "coherence_site1")}
        stacks["coherence_envelope_site1"] = 2.0 * np.abs(stacks["coherence_site1"])
        for name, stack in stacks.items():
            mean = stack.mean(axis=0)
            se = np.sqrt((np.abs(stack - mean) ** 2).sum(axis=0) / (n * (n - 1)))
            assert np.max(np.abs(mean - getattr(ens, name))) < 1e-12, name
            assert np.max(np.abs(se - getattr(ens, name + "_se"))) < 1e-12, name

    @pytest.mark.parametrize("config", JUMPY)
    def test_chunk_rows_equal_single_trajectories(self, monkeypatch, config):
        draws = []  # the kind of each sample_jump call of each _advance_to call
        running = []  # the draws of the _advance_to call that runs, if one does
        advance_to = _ChunkEngine._advance_to
        sample_jump = lrusim.trajectory.sample_jump

        def counting_advance_to(self, *args):
            running.append([])
            try:
                return advance_to(self, *args)
            finally:
                draws.append(running.pop())

        def recording_sample_jump(table, *args):
            assert running, "a row drew a jump or a measurement outside _advance_to"
            running[-1].append("measure" if table is engine.resets else "jump")
            return sample_jump(table, *args)

        monkeypatch.setattr(_ChunkEngine, "_advance_to", counting_advance_to)
        monkeypatch.setattr(lrusim.trajectory, "sample_jump", recording_sample_jump)
        engine = _ChunkEngine(config, range(config.n_trajectories),
                              lrusim.trajectory._sector(config))
        chunk = engine.run()
        # a second pass: some row met a second event before the grid point it was stepped to
        assert max(map(len, draws)) > 1
        if config.channel.kind == "periodic_feedback":
            # one call took rows through both kinds of event
            assert any({"jump", "measure"} <= set(kinds) for kinds in draws)
        for index in range(config.n_trajectories):
            single = run_trajectory(config, index)
            for name, value in vars(single).items():
                if name != "time_grid":
                    assert np.max(np.abs(chunk[name][index] - value)) <= 1e-12, (index, name)

    @pytest.mark.parametrize("config", JUMPY)
    def test_one_evolution_per_pass(self, monkeypatch, config):
        # each pass of `_advance_to` evolves its open rows once, and a pass
        # follows the first one only after a jump or measurement draw
        calls = {"advance": 0, "evolve": 0}
        drawing = set()  # the evolve count at each sample_jump call: one per drawing pass
        shapes = []  # eigenvector shape of every evolve call
        solving = []  # set while a `_jump_time` call runs
        advance_to, jump_time = _ChunkEngine._advance_to, lrusim.trajectory._jump_time
        evolve_, sample_jump = lrusim.trajectory.evolve, lrusim.trajectory.sample_jump

        def counting_advance_to(self, *args):
            calls["advance"] += 1
            return advance_to(self, *args)

        def flagged_jump_time(*args):
            solving.append(True)
            try:
                return jump_time(*args)
            finally:
                solving.pop()

        def counting_evolve(vecs, *args):
            shapes.append(np.shape(vecs))
            calls["evolve"] += not solving
            return evolve_(vecs, *args)

        def counting_sample_jump(*args):
            drawing.add(calls["evolve"])
            return sample_jump(*args)

        monkeypatch.setattr(_ChunkEngine, "_advance_to", counting_advance_to)
        monkeypatch.setattr(lrusim.trajectory, "_jump_time", flagged_jump_time)
        monkeypatch.setattr(lrusim.trajectory, "evolve", counting_evolve)
        monkeypatch.setattr(lrusim.trajectory, "sample_jump", counting_sample_jump)
        _ChunkEngine(config, range(config.n_trajectories), lrusim.trajectory._sector(config)).run()
        assert drawing
        assert calls["evolve"] == calls["advance"] + len(drawing)
        if config.lattice.disorder == 0:
            # the chunk's one eigensystem, never a copy per row
            assert {len(shape) for shape in shapes} == {2}

    @pytest.mark.parametrize("name", ["periodic", "random", "plus"])
    def test_draw_buffer_length_does_not_change_result(self, monkeypatch, name):
        config = BLOCK_CONFIGS[name]
        default = run_ensemble(config)
        for length in (1, 3):
            monkeypatch.setattr(lrusim.trajectory, "_DRAW_BUFFER", length)
            other = run_ensemble(config)
            for field, value in vars(default).items():
                assert np.array_equal(value, getattr(other, field)), (length, field)

    def test_one_trajectory_has_zero_standard_errors(self):
        config = replace(short_config("random_feedback", "plus"), n_trajectories=1)
        ens = run_ensemble(config)
        single = run_trajectory(config, 0)
        for name, value in vars(single).items():
            assert np.array_equal(value, getattr(ens, name)), name
        errors = {name: value for name, value in vars(ens).items() if name.endswith("_se")}
        assert len(errors) == 5
        for name, value in errors.items():
            assert np.all(np.isfinite(value)) and not np.any(value), name


def record_calls(monkeypatch, module, name, log):
    """Swap `module.name` for a wrapper that appends its first argument's shape to `log`."""
    original = getattr(module, name)

    def recording(first, *args):
        log.append(np.shape(first))
        return original(first, *args)

    monkeypatch.setattr(module, name, recording)


class TestSharedSetUp:
    """A chunk builds and diagonalizes each distinct Hamiltonian, and draws
    each distinct initial state, once: per chunk at W = 0 and at T = 0, per
    row where the rows differ."""

    @pytest.mark.parametrize("disorder, frequency, temperature", [
        pytest.param(0.0, 0.0, 0.0, id="W0"),
        pytest.param(4.0, 0.0, 0.0, id="W4"),
        pytest.param(0.0, 30.0, 3e-4, id="hot"),
    ])
    def test_one_set_up_per_distinct_input(self, monkeypatch, disorder, frequency, temperature):
        eigs, builds, starts = [], [], []
        record_calls(monkeypatch, np.linalg, "eig", eigs)
        record_calls(monkeypatch, lrusim.trajectory, "build_bose_hubbard", builds)
        record_calls(monkeypatch, lrusim.trajectory, "sample_thermal_initial", starts)
        # two chunks, of 256 and 44 trajectories
        config = SimulationConfig(
            lattice=LatticeSpec(2, frequency, 10.0, 1.0, disorder),
            channel=ResetChannel("dissipation", 0.5), t_max=1.0, dt=0.1, n_trajectories=300,
            noise=NoiseModel(0.01, 0.01, temperature),
        )
        run_ensemble(config)
        chunks = [256, 44]
        dim = lrusim.trajectory._sector(config).dimension
        hamiltonians = chunks if disorder else [1, 1]
        assert eigs == [(count, dim, dim) for count in hamiltonians]
        assert len(builds) == sum(hamiltonians)
        assert len(starts) == (sum(chunks) if temperature else len(chunks))


BLOCK_CONFIGS = {
    # 1/rate = 0.1 < observable_dt = 0.2: several measurements per interval
    "periodic": chain_config("periodic_feedback", 10.0, 64, 12.0, 0.05, 4,
                             NoiseModel(0.05, 0.05), seed=2),
    # random feedback's K_1, K_2 and Q among the noise jumps
    "random": chain_config("random_feedback", 2.0, 64, 3.0, 0.05, 1,
                           NoiseModel(0.05, 0.05), seed=2),
    # no measurements: relaxation, dephasing and dissipation jumps
    "plus": chain_config("dissipation", 1.0, 64, 8.0, 0.05, 1, NoiseModel(0.05, 0.05),
                         seed=2, coding="plus"),
}


class TestBlockLength:
    """The no-jump block length K changes the cost of a run, never its result."""

    @pytest.mark.parametrize("entries", [1, 10**9], ids=["one-point", "whole-grid"])
    @pytest.mark.parametrize("name", list(BLOCK_CONFIGS))
    def test_block_length_does_not_change_result(self, monkeypatch, name, entries):
        config = BLOCK_CONFIGS[name]
        dim = lrusim.trajectory._sector(config).dimension
        size = config.time_grid.size
        # one chunk, whose default block is neither one point nor the whole grid
        assert config.n_trajectories <= _chunk_size(dim)
        assert 1 < _block_length(config.n_trajectories, dim, size) < size - 1
        default = run_ensemble(config)
        monkeypatch.setattr(lrusim.trajectory, "_BLOCK_ENTRIES", entries)
        assert _block_length(config.n_trajectories, dim, size) == (1 if entries == 1
                                                                   else size - 1)
        other = run_ensemble(config)
        for field, value in vars(default).items():
            assert np.max(np.abs(np.asarray(value) - getattr(other, field))) < 1e-12, field

    # 8 trajectories of 3 states: K = 1, 5 and the whole grid
    @pytest.mark.parametrize("entries", [1, 5 * 8 * 3, 10**9])
    def test_measurement_at_a_grid_point_comes_before_its_record(self, monkeypatch, entries):
        # one site holding |2>, no noise: the leakage is 1 until the first
        # measurement resets the site. Periodic times fall on a grid point
        # only by chance, so the schedule is swapped for one that measures
        # exactly at a grid point drawn from each row's stream, and never again
        monkeypatch.setattr(lrusim.trajectory, "_BLOCK_ENTRIES", entries)
        config = SimulationConfig(lattice=LatticeSpec(1, 0.0, 10.0, 1.0),
                                  channel=ResetChannel("periodic_feedback", 2.0),
                                  t_max=3.0, dt=0.05, n_trajectories=8, master_seed=3)
        grid = config.time_grid

        def on_the_grid(channel, draw, after=None):
            # one time per uniform that `draw` returns, as the schedule gives
            if after is not None:
                return np.full_like(after, math.inf)
            return grid[(1 + np.floor(draw() * (grid.size - 1))).astype(int)]

        monkeypatch.setattr(lrusim.trajectory, "next_measurement", on_the_grid)
        first = np.array([on_the_grid(config.channel, _stream(3, i, 2).random)
                          for i in range(config.n_trajectories)])
        assert np.unique(first).size > 1
        ens = run_ensemble(config)
        leaked = grid[:, None] < first
        assert np.max(np.abs(ens.leakage_total - leaked.mean(axis=1))) < 1e-12


def full_space(config):
    return 2 * config.lattice.length


class TestSector:
    def test_sector_bound_follows_the_initial_state(self):
        noise = NoiseModel(0.01, 0.01)
        for coding, n_max in (("ket0", 0), ("ket1", 1), ("ket2", 2), ("plus", 1)):
            config = chain_config("dissipation", 1.0, 4, 1.0, 0.1, 1, noise, coding=coding)
            assert lrusim.trajectory._max_excitations(config) == n_max
        assert lrusim.trajectory._max_excitations(hot_config(3)) == 6

    @pytest.mark.parametrize("length", [3, 4])
    @pytest.mark.parametrize("coding", ["ket2", "plus"])
    @pytest.mark.parametrize("kind", ["dissipation", "periodic_feedback", "random_feedback"])
    def test_sector_matches_full_space(self, monkeypatch, kind, coding, length):
        config = chain_config(kind, 2.0, 16, 3.0, 0.05, 4, NoiseModel(0.1, 0.1), seed=5,
                              coding=coding, length=length, disorder=2.0)
        sector = run_ensemble(config)
        monkeypatch.setattr(lrusim.trajectory, "_max_excitations", full_space)
        full = run_ensemble(config)
        for name, value in vars(sector).items():
            assert np.max(np.abs(np.asarray(value) - getattr(full, name))) < 1e-10, name

    def test_long_chain_runs_in_its_sector(self, monkeypatch):
        # 3**12 = 531441 states would exceed the operator budget; N <= 2 has 91
        shapes = []
        eig = np.linalg.eig

        def recording_eig(matrices):
            shapes.append(np.shape(matrices))
            return eig(matrices)

        monkeypatch.setattr(np.linalg, "eig", recording_eig)
        config = chain_config("dissipation", 2.0, 32, 2.0, 0.1, 2, NoiseModel(0.01, 0.01),
                              length=12)
        ens = run_ensemble(config)
        # W = 0: the 32 trajectories share one no-jump Hamiltonian
        assert shapes == [(1, 91, 91)]
        eps = 1e-12
        for name, top in (("leakage_total", 1.0), ("leakage_site1", 1.0),
                          ("occupation_site1", 2.0), ("coherence_envelope_site1", 1.0)):
            series = getattr(ens, name)
            assert np.all(np.isfinite(series)), name
            assert series.min() >= -eps and series.max() <= top + eps, name
        assert ens.leakage_total[0] == pytest.approx(1.0, abs=1e-12)

    def test_sector_above_exact_limit_raises(self):
        # at T > 0 the sector is the full space: 3**7 = 2187 states
        config = hot_config(7)
        assert 3**config.lattice.length > MAX_DIMENSION
        with pytest.raises(ValueError, match="exceeds budget"):
            run_ensemble(config)


class TestOracleSector:
    @pytest.mark.parametrize("length", [3, 4])
    @pytest.mark.parametrize("coding", ["ket2", "plus"])
    @pytest.mark.parametrize("kind", ["dissipation", "periodic_feedback", "random_feedback"])
    def test_sector_matches_full_space(self, monkeypatch, kind, coding, length):
        # the reset on the last site acts within t_max: against rate 0 it moves
        # the series by 7e-4 to 0.08 here, far above the tolerance. One that
        # leaves an excitation on the chain changes them, one that empties it
        # does not (see the next test)
        config = chain_config(kind, 2.0, 1, 2.0, 0.05, 4, NoiseModel(0.1, 0.1), seed=5,
                              coding=coding, length=length, disorder=2.0)
        if kind == "periodic_feedback":
            # the measurement dissipator is that of Poisson-timed measurements,
            # so both the sector and the full space refuse periodic ones
            for max_excitations in (lrusim.trajectory._max_excitations, full_space):
                monkeypatch.setattr(lrusim.trajectory, "_max_excitations", max_excitations)
                with pytest.raises(ValueError, match="periodic"):
                    solve_master_dense(config)
            return
        sector = solve_master_dense(config)
        monkeypatch.setattr(lrusim.trajectory, "_max_excitations", full_space)
        full = solve_master_dense(config)
        for name, value in vars(sector).items():
            assert np.max(np.abs(value - getattr(full, name))) < 1e-8, name

    def test_periodic_feedback_at_rate_zero_is_no_channel(self):
        # it never measures, so a sweep of the rate from 0 starts at the bare chain
        config = chain_config("periodic_feedback", 0.0, 1, 2.0, 0.05, 4, NoiseModel(0.1, 0.1),
                              seed=5, coding="plus", disorder=2.0)
        periodic = solve_master_dense(config)
        bare = solve_master_dense(replace(config, channel=None))
        for name, value in vars(periodic).items():
            assert np.array_equal(value, getattr(bare, name)), name

    @pytest.mark.parametrize("n_max", [1, 2, None])
    def test_reset_kraus_operators_are_complete(self, n_max):
        # resetting the top level empties the chain into the vacuum, which no
        # oracle series sees, so completeness is checked here directly
        basis = FockBasis(4, n_max)
        kraus = [densify(k, basis.dimension) for k in reset_kraus(basis)]
        assert len(kraus) == 3
        for op, reference in zip(kraus, reset_kraus_oracle(basis.occupations)):
            assert np.array_equal(op, reference)
        assert np.array_equal(sum(k.conj().T @ k for k in kraus), np.eye(basis.dimension))
        for n, op in enumerate(kraus):
            dst, src = np.nonzero(op)
            assert np.all(basis.occupations[src, -1] == n)
            emptied = basis.occupations[src].copy()
            emptied[:, -1] = 0
            assert np.array_equal(basis.occupations[dst], emptied)

    def test_initial_density_is_coding_times_gibbs(self):
        # a hot chain at a realistic frequency, so every idle level is populated
        config = SimulationConfig(
            lattice=LatticeSpec(3, 47000.0, 1570.0, 50.0, 300.0),
            channel=None, t_max=1.0, dt=0.1, n_trajectories=1,
            noise=NoiseModel(temperature=0.25), initial_coding_state="plus",
        )
        spec = config.lattice
        real = realize_disorder(spec, 9)
        coding = config.coding_vector()
        expected = np.outer(coding, coding.conj())
        for site in (2, 3):
            weights = local_thermal_weights(real.omegas[site - 1],
                                            real.anharmonicities[site - 1], 0.25)
            assert weights.min() > 1e-3
            expected = np.kron(expected, np.diag(weights))
        rho0 = _initial_density(config, real, FockBasis(3))
        assert np.max(np.abs(rho0 - expected)) < 1e-15
        # at T = 0 the N <= 1 sector holds all of the plus state
        sector = FockBasis(3, 1)
        rho0 = _initial_density(replace(config, noise=NoiseModel()), real, sector)
        cold = np.kron(np.outer(coding, coding.conj()), np.diag([1.0] + [0.0] * 8))
        full_rows = sector.occupations @ [9, 3, 1]
        assert np.array_equal(rho0, cold[np.ix_(full_rows, full_rows)])

    def test_long_chain_oracle_runs_in_its_sector(self):
        # 3**8 states would give 4.3e7 density entries; the ket2 sector has 45 states
        config = chain_config("dissipation", 2.0, 1, 0.5, 0.05, 2, NoiseModel(0.01, 0.01),
                              length=8)
        assert lrusim.trajectory._sector(config).dimension == 45
        series = solve_master_dense(config)
        assert series.leakage_total[0] == pytest.approx(1.0, abs=1e-12)
        for name in ORACLE_SERIES:
            assert np.all(np.isfinite(getattr(series, name))), name

    @pytest.mark.parametrize("length", [7, 8])
    def test_oracle_above_size_bound_raises(self, length):
        # at T > 0 the sector is the full space: 3**7 = 2187 and 3**8 = 6561
        # states are both above the basis budget
        with pytest.raises(ValueError, match="exceeds budget"):
            solve_master_dense(hot_config(length))



class TestTimeGrid:
    @pytest.mark.parametrize("t_max, dt, stride", [(40.0, 0.02, 1), (6.0, 0.01, 10),
                                                   (1.0, 0.1, 1), (2.0, 0.1, 4)])
    def test_grid_ends_at_t_max(self, t_max, dt, stride):
        config = chain_config("dissipation", 1.0, 1, t_max, dt, stride, NoiseModel())
        grid = config.time_grid
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(t_max, rel=1e-12)
        assert np.allclose(np.diff(grid), dt * stride, rtol=1e-12)

    @pytest.mark.parametrize("t_max, dt, stride", [(1.0, 0.6, 1), (1.0, 0.3, 1),
                                                   (1.0, 0.1, 3), (0.05, 0.1, 1)])
    def test_span_off_the_grid_rejected(self, t_max, dt, stride):
        # round(t_max / observable_dt) steps would run past t_max or stop short of it
        with pytest.raises(ValueError, match="multiple"):
            chain_config("dissipation", 1.0, 1, t_max, dt, stride, NoiseModel())

    @pytest.mark.parametrize("t_max, dt", [(math.inf, 0.1), (1.0, math.inf), (math.nan, 0.1),
                                           (1.0, math.nan)])
    def test_non_finite_span_or_step_rejected(self, t_max, dt):
        # an infinite dt used to give a one-point grid
        with pytest.raises(ValueError, match="finite"):
            chain_config("dissipation", 1.0, 1, t_max, dt, 1, NoiseModel())


class TestConfigValidation:
    @pytest.mark.parametrize("make, match", [
        (lambda: chain_config("dissipation", 1.0, 2.5, 1.0, 0.1, 1, NoiseModel()), "n_trajectories"),
        (lambda: chain_config("dissipation", 1.0, 4, 1.0, 0.1, 1, NoiseModel(), seed=-1),
         "master_seed"),
        (lambda: chain_config("dissipation", 1.0, 4, 1.0, 0.1, 1, NoiseModel(), seed=1.5),
         "master_seed"),
        (lambda: LatticeSpec(2.5, 0.0, 10.0, 1.0), "length"),
        # an infinite stride gave the grid [nan], a NaN one failed inside round()
        (lambda: chain_config("dissipation", 1.0, 4, 1.0, 0.1, math.inf, NoiseModel()),
         "observable_stride"),
        (lambda: chain_config("dissipation", 1.0, 4, 1.0, 0.1, math.nan, NoiseModel()),
         "observable_stride"),
        (lambda: chain_config("dissipation", 1.0, 4, 1.0, 0.1, 2.5, NoiseModel()),
         "observable_stride"),
    ], ids=["trajectories-2.5", "seed--1", "seed-1.5", "length-2.5", "stride-inf",
            "stride-nan", "stride-2.5"])
    def test_non_integer_count_rejected_at_construction(self, make, match):
        # each used to pass construction and fail only inside run_ensemble or FockBasis
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize("index", [-1, 2.5], ids=["index--1", "index-2.5"])
    def test_trajectory_index_rejected_at_the_call(self, index):
        # SeedSequence refused -1, and 2.5 raised TypeError inside numpy
        config = chain_config("dissipation", 1.0, 1, 1.0, 0.1, 1, NoiseModel())
        with pytest.raises(ValueError, match="index must be an integer >= 0"):
            run_trajectory(config, index)


class TestTemperature:
    def test_rotating_frame_temperature_raises(self):
        # mean frequency 0 would make every idle level about equally likely at T > 0
        config = chain_config("dissipation", 1.0, 4, 1.0, 0.1, 1,
                              NoiseModel(0.01, 0.01, 0.05), length=2)
        with pytest.raises(ValueError, match="increasing"):
            run_ensemble(config)
        with pytest.raises(ValueError, match="increasing"):
            solve_master_dense(config)


class TestLindbladian:
    @pytest.mark.parametrize("coding", ["ket2", "plus"])
    @pytest.mark.parametrize("kind", ["dissipation", "periodic_feedback", "random_feedback"])
    def test_generator_matches_dense_rhs(self, monkeypatch, rng, kind, coding):
        # the right-hand side the oracle hands to solve_ivp, against one
        # written from dense operators: the enumerated Hamiltonian, the site
        # operators and |0><n| read off the occupations
        config = chain_config(kind, 2.0, 1, 0.1, 0.05, 1, NoiseModel(0.1, 0.2), seed=5,
                              coding=coding, disorder=2.0)
        functions = []
        solve_ivp = lrusim.trajectory.solve_ivp

        def recording_solve_ivp(fun, t_span, y0, **kwargs):
            functions.append(fun)
            return solve_ivp(fun, t_span, y0, **kwargs)

        monkeypatch.setattr(lrusim.trajectory, "solve_ivp", recording_solve_ivp)
        if kind == "periodic_feedback":
            # the measurement dissipator is that of Poisson-timed measurements;
            # at L = 2 and Gamma = 2 the periodic rate is half of it, so the
            # oracle refuses before it builds a generator
            with pytest.raises(ValueError, match="periodic"):
                solve_master_dense(config)
            assert functions == []
            return
        solve_master_dense(config)
        (rhs,) = functions

        spec = config.lattice
        basis = lrusim.trajectory._sector(config)
        real = realize_disorder(spec, _disorder_seed(config.master_seed, 0))
        rows = basis.occupations @ [9, 3, 1]
        ham = dense_bose_hubbard_oracle(real.omegas, real.anharmonicities,
                                        spec.hopping)[np.ix_(rows, rows)]
        jumps = [math.sqrt(rate) * build_site_operator(basis, site, kind_)
                 for kind_, rate in (("annihilation", 0.1), ("number", 0.4))
                 for site in (1, 2, 3)]
        if kind == "dissipation":
            jumps.append(math.sqrt(2.0) * build_site_operator(basis, 3, "annihilation"))
        else:
            jumps += [math.sqrt(2.0) * k for k in reset_kraus_oracle(basis.occupations)]

        dim = basis.dimension
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = (a + a.conj().T) / np.linalg.norm(a + a.conj().T)
        got = rhs(0.0, rho.ravel()).reshape(dim, dim)
        assert np.max(np.abs(got - dense_lindblad_rhs(ham, jumps, rho))) < 1e-12


def no_jump_system(spec, noise, channel, basis):
    """H_eff = H - (i/2) diag(decay) of a chain, with its eigensystem."""
    jumps = noise_jump_operators(noise, basis)
    jumps += channel_jump_operators(channel, basis)
    decay = jump_table(jumps, basis.dimension).decay
    h_eff = build_bose_hubbard(realize_disorder(spec, 0), basis) - 0.5j * np.diag(decay)
    return h_eff, decay, eigensystem(h_eff, hermitian=False)


def bisects(points, span) -> bool:
    """Whether a solve that evaluated the norm at `points`, in order, ever bisected.

    A bisection step evaluates the midpoint of its bracket, whose ends are 0,
    the span or earlier points; a Newton step hits such a midpoint exactly
    only by chance.
    """
    ends = [0.0, span]
    for point in points:
        if any(point == 0.5 * (a + b) for a, b in itertools.combinations(ends, 2)):
            return True
        ends.append(point)
    return False


def relaxing_qutrit():
    """One site in (|0> + |1> + |2>)/sqrt(3) under sqrt(gamma) a: levels
    decaying at different rates, the norm tending to 1/3."""
    basis = FockBasis(1)
    h_eff, decay, system = no_jump_system(LatticeSpec(1, 2.0, 1.0, 0.0),
                                          NoiseModel(relaxation_rate=0.8), None, basis)
    return h_eff, decay, system, np.ones(3, dtype=complex) / math.sqrt(3.0)


class TestJumpTime:
    #: Norm evaluations allowed per solve; bisecting the span down to float
    #: resolution takes about 52. The cases below take 2 to 7.
    MAX_EVALUATIONS = 10

    @pytest.mark.parametrize("case", ["L1-relaxation", "L2-dissipation"])
    def test_norm_at_solution_is_the_threshold(self, monkeypatch, case):
        if case == "L1-relaxation":
            h_eff, decay, (evals, vecs, vinv), psi0 = relaxing_qutrit()
            span = 3.0
        else:
            # a leakage pair hopping onto a dissipative site: the norm falls
            # in steps, with near-flat stretches between them
            spec, basis = LatticeSpec(2, 0.0, 10.0, 1.0), FockBasis(2, 2)
            noise, channel, span = NoiseModel(0.01, 0.01), ResetChannel("dissipation", 2.0), 20.0
            h_eff, decay, (evals, vecs, vinv) = no_jump_system(spec, noise, channel, basis)
            psi0 = np.zeros(basis.dimension, dtype=complex)
            psi0[basis.index([2, 0])] = 1.0
        coeffs = vinv @ psi0
        end = evolve_nonhermitian_oracle(h_eff, psi0, span)
        n_end = float(np.vdot(end, end).real)
        assert n_end < 0.4

        calls = []

        def counting_evolve(*args):
            calls.append(args)
            return evolve(*args)

        monkeypatch.setattr(lrusim.trajectory, "evolve", counting_evolve)
        for threshold in (1.0 - 1e-9, 0.99, 0.9, 0.7, 0.5, 0.4, n_end + 1e-9):
            calls.clear()
            (tau,), (amp,) = _jump_time(vecs, evals, coeffs[None], decay, np.array([threshold]),
                                        np.array([span]), np.ones(1), np.array([n_end]))
            assert 0.0 < tau < span
            psi = evolve_nonhermitian_oracle(h_eff, psi0, tau)
            assert abs(np.vdot(psi, psi).real - threshold) <= 1e-12, threshold
            assert np.max(np.abs(amp - psi)) < 1e-10, threshold
            assert len(calls) <= self.MAX_EVALUATIONS, threshold

    #: (span, threshold) of each row of the batched solve. The row of span
    #: 10 meets the flat tail of the norm, where a Newton step leaves the
    #: bracket, and bisects.
    ROWS = ((3.0, 0.9), (3.0, 0.5), (10.0, 0.45), (5.0, 1.0 - 1e-9), (1.0, 0.7))
    BISECTING_ROW = 2

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
    def test_rows_solve_as_one(self, monkeypatch, per_row):
        # the engine passes one eigensystem for every row at W = 0, one per row otherwise
        h_eff, decay, (evals, vecs, vinv), psi0 = relaxing_qutrit()
        spans, thresholds = (np.array(column) for column in zip(*self.ROWS))
        n_end = np.array([np.sum(np.abs(evolve_nonhermitian_oracle(h_eff, psi0, span)) ** 2)
                          for span in spans])
        coeffs = np.tile(vinv @ psi0, (spans.size, 1))
        points = []

        def recording_evolve(vecs, evals, coeffs, taus):
            points.append(np.copy(taus))
            return evolve(vecs, evals, coeffs, taus)

        monkeypatch.setattr(lrusim.trajectory, "evolve", recording_evolve)
        if per_row:
            system = (np.broadcast_to(vecs, (spans.size, *vecs.shape)),
                      np.broadcast_to(evals, (spans.size, *evals.shape)))
        else:
            system = (vecs, evals)
        taus, amps = _jump_time(*system, coeffs, decay, thresholds, spans,
                                np.ones(spans.size), n_end)
        assert len(points) <= self.MAX_EVALUATIONS
        for row, (span, threshold) in enumerate(self.ROWS):
            points.clear()
            (tau,), (amp,) = _jump_time(vecs, evals, coeffs[row:row + 1], decay,
                                        thresholds[row:row + 1], spans[row:row + 1],
                                        np.ones(1), n_end[row:row + 1])
            assert bisects([p[0] for p in points], span) == (row == self.BISECTING_ROW), row
            assert abs(taus[row] - tau) <= 1e-12 and np.max(np.abs(amps[row] - amp)) <= 1e-12
            psi = evolve_nonhermitian_oracle(h_eff, psi0, taus[row])
            assert abs(np.vdot(psi, psi).real - threshold) <= 1e-12, row


class TestClosedForms:
    """The oracle's leakage decay rate against the paper's two-site closed forms.

    L = 2, W = 0, no noise, U = 10, J = 1; T* is fitted from t = 0. At the
    optimum (Gamma = U for feedback, 2U for dissipation) the high-rate forms
    are off by 1-2%; deeper in the regime they hold to a few parts in 1e3.
    """

    @pytest.mark.parametrize("kind, rate, closed_form, tolerance", [
        ("random_feedback", 10.0, fb_leakage_rate_high, 0.03),
        ("random_feedback", 31.6, fb_leakage_rate_high, 0.005),
        ("dissipation", 20.0, diss_rate_high, 0.03),
        ("dissipation", 60.0, diss_rate_high, 0.005),
    ])
    def test_leakage_rate(self, kind, rate, closed_form, tolerance):
        config = SimulationConfig(
            lattice=LatticeSpec(2, 0.0, 10.0, 1.0), channel=ResetChannel(kind, rate),
            t_max=30.0, dt=0.005, n_trajectories=1, observable_stride=20,
        )
        series = solve_master_dense(config)
        fit = fit_exponential(series.time_grid, series.leakage_total)
        assert fit.converged
        assert 1.0 / fit.decay_time == pytest.approx(closed_form(rate, 1.0, 10.0), rel=tolerance)
