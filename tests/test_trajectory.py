"""The event-driven trajectory engine: oracle agreement and determinism.

`run_ensemble` locates jumps by the waiting-time rule and applies feedback
measurements at their scheduled times, so its only error is statistical.
The oracle tests bound that error point by point against the master
equation, whose sparse generator is checked against a dense Lindblad
right-hand side and whose decay rates are checked against the paper's
closed forms; the determinism and block-length tests pin that chunking,
threading and the engine's block length never change a result. The
sector tests pin that running in the N <= N_max excitation sector gives
what the same engine, or the same oracle, gives in the full space.
"""

import math
from dataclasses import replace

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
    decay_rates,
    dissipation_jump_operators,
    local_thermal_weights,
    next_measurement,
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
    @pytest.mark.parametrize("kind, dt, stride", [
        ("dissipation", 0.4, 1),
        ("random_feedback", 0.01, 40),
    ])
    def test_every_grid_point_within_bound(self, kind, dt, stride):
        config = chain_config(kind, 1.0, 256, 20.0, dt, stride, NoiseModel(0.01, 0.01))
        ens = run_ensemble(config)
        oracle = solve_master_dense(config)
        assert np.array_equal(ens.time_grid, oracle.time_grid)
        # the leakage pair must actually leave the chain for the check to mean much
        assert oracle.leakage_total[-1] < 0.5
        for name in ORACLE_SERIES:
            assert max_z(ens, oracle, name) < Z_BOUND, name


def short_config(kind, coding):
    # more trajectories than one chunk holds at L = 3, so run_ensemble
    # splits them and two threads really run chunks side by side
    n = _chunk_size(27) + 20
    return chain_config(kind, 2.0, n, 2.0, 0.05, 2, NoiseModel(0.05, 0.05), seed=11,
                        coding=coding)


class TestDeterminism:
    @pytest.mark.parametrize("kind, coding", [
        ("periodic_feedback", "ket2"),
        ("random_feedback", "plus"),
    ])
    def test_thread_count_does_not_change_result(self, kind, coding):
        config = short_config(kind, coding)
        assert config.n_trajectories > _chunk_size(lrusim.trajectory._sector(config).dimension)
        one = run_ensemble(config, n_threads=1)
        two = run_ensemble(config, n_threads=2)
        for name, value in vars(one).items():
            assert np.array_equal(value, getattr(two, name)), name

    def test_single_trajectories_average_to_ensemble(self):
        # random feedback from the plus state also jumps and dephases
        config = short_config("random_feedback", "plus")
        ens = run_ensemble(config)
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


BLOCK_CONFIGS = {
    # 1/rate = 0.1 < observable_dt = 0.2: several measurements per interval
    "periodic": chain_config("periodic_feedback", 10.0, 64, 12.0, 0.05, 4,
                             NoiseModel(0.05, 0.05), seed=2),
    # geometric gaps of k dt put every measurement on a grid point
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
        # measurement resets the site, and random-feedback times are grid points
        monkeypatch.setattr(lrusim.trajectory, "_BLOCK_ENTRIES", entries)
        config = SimulationConfig(lattice=LatticeSpec(1, 0.0, 10.0, 1.0),
                                  channel=ResetChannel("random_feedback", 2.0),
                                  t_max=3.0, dt=0.05, n_trajectories=8, master_seed=3)
        first = np.array([next_measurement(config.channel, config.dt, _stream(3, i, 2))
                          for i in range(config.n_trajectories)])
        assert np.all(first < config.t_max)
        ens = run_ensemble(config)
        leaked = config.time_grid[:, None] < first - 1e-6
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
        assert shapes == [(32, 91, 91)]
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
        sector = solve_master_dense(config)
        monkeypatch.setattr(lrusim.trajectory, "_max_excitations", full_space)
        full = solve_master_dense(config)
        for name, value in vars(sector).items():
            assert np.max(np.abs(value - getattr(full, name))) < 1e-8, name

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
    jumps += dissipation_jump_operators(channel, basis)
    decay = decay_rates(jumps, basis.dimension)
    h_eff = build_bose_hubbard(realize_disorder(spec, 0), basis) - 0.5j * np.diag(decay)
    return h_eff, decay, eigensystem(h_eff, hermitian=False)


class TestJumpTime:
    #: Norm evaluations allowed per solve; bisecting the span down to float
    #: resolution takes about 52. The cases below take 2 to 6.
    MAX_EVALUATIONS = 10

    @pytest.mark.parametrize("case", ["L1-relaxation", "L2-dissipation"])
    def test_norm_at_solution_is_the_threshold(self, monkeypatch, case):
        if case == "L1-relaxation":
            # three levels decaying at different rates under sqrt(gamma) a
            spec, basis = LatticeSpec(1, 2.0, 1.0, 0.0), FockBasis(1)
            noise, channel, span = NoiseModel(relaxation_rate=0.8), None, 3.0
            psi0 = np.ones(3, dtype=complex) / math.sqrt(3.0)
        else:
            # a leakage pair hopping onto a dissipative site: the norm falls
            # in steps, with near-flat stretches between them
            spec, basis = LatticeSpec(2, 0.0, 10.0, 1.0), FockBasis(2, 2)
            noise, channel, span = NoiseModel(0.01, 0.01), ResetChannel("dissipation", 2.0), 20.0
            psi0 = np.zeros(basis.dimension, dtype=complex)
            psi0[basis.index([2, 0])] = 1.0
        h_eff, decay, (evals, vecs, vinv) = no_jump_system(spec, noise, channel, basis)
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
            tau, amp = _jump_time(vecs, evals, coeffs, decay, threshold, span, 1.0, n_end)
            assert 0.0 < tau < span
            psi = evolve_nonhermitian_oracle(h_eff, psi0, tau)
            assert abs(np.vdot(psi, psi).real - threshold) <= 1e-12, threshold
            assert np.max(np.abs(amp - psi)) < 1e-10, threshold
            assert len(calls) <= self.MAX_EVALUATIONS, threshold


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
