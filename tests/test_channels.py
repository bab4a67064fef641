import math
from types import SimpleNamespace

import numpy as np
import pytest

from lrusim.channels import (
    PROJECTION_EPS,
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
from lrusim.lattice import (
    FockBasis,
    LatticeSpec,
    Monomial,
    build_site_operator,
    realize_disorder,
)
from lrusim.trajectory import SimulationConfig, run_ensemble, run_trajectory

from conftest import basis_state, born_oracle, dense_lindblad_rhs, densify, reset_kraus_oracle
from test_trajectory import Z_BOUND, max_z


def measurement_schedule(channel, t_max, draw):
    """Every time next_measurement gives in [0, t_max], as the engine walks it."""
    times = []
    t = next_measurement(channel, draw)
    while t <= t_max:
        times.append(t)
        t = next_measurement(channel, draw, t)
    return np.array(times)


class TestResetChannel:
    def test_unknown_kind_and_negative_rate_rejected(self):
        # only the kinds of CHANNEL_KINDS, no "feedback" shorthand
        with pytest.raises(ValueError, match="unknown channel kind"):
            ResetChannel("feedback", 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            ResetChannel("dissipation", -1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["periodic_feedback", "random_feedback", "dissipation"])
    def test_non_finite_rate_rejected(self, kind, rate):
        # an infinite periodic rate made the period 0 and the schedule stand still
        with pytest.raises(ValueError, match="finite"):
            ResetChannel(kind, rate)


class TestMeasurementTimes:
    def test_periodic_progression(self):
        chan = ResetChannel("periodic_feedback", rate=1.0)
        # one uniform, for the first time only: a second draw would raise StopIteration
        times = measurement_schedule(chan, t_max=3.5, draw=iter([0.2]).__next__)
        assert np.allclose(times, [0.2, 1.2, 2.2, 3.2])

    def test_zero_rate_empty(self, rng):
        for kind in ("periodic_feedback", "random_feedback"):
            chan = ResetChannel(kind, rate=0.0)
            assert next_measurement(chan, rng.random) == math.inf
            assert measurement_schedule(chan, 10.0, rng.random).size == 0

    def test_dissipation_has_no_times(self, rng):
        assert next_measurement(ResetChannel("dissipation", rate=1.0), rng.random) == math.inf
        assert next_measurement(None, rng.random) == math.inf
        # random feedback measures through its jumps, not on a schedule
        assert next_measurement(ResetChannel("random_feedback", rate=1.0), rng.random) == math.inf


class TestChannelJumps:
    def test_random_feedback_is_the_measurement_dissipator(self, rng):
        # the L = 3 full space, the space of a T > 0 chain
        rate, basis = 2.0, FockBasis(3)
        ops = channel_jump_operators(ResetChannel("random_feedback", rate), basis)
        assert len(ops) == 3
        occupied = basis.occupations[:, -1] >= 1
        decay = jump_table(ops, basis.dimension).decay
        np.testing.assert_allclose(decay, np.where(occupied, 2.0 * rate, 0.0), rtol=0, atol=1e-12)

        a = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
        rho = (a + a.conj().T) / np.linalg.norm(a + a.conj().T)
        dense = [densify(op, basis.dimension) for op in ops]
        dissipator = dense_lindblad_rhs(np.zeros((27, 27)), dense, rho)
        measured = rate * (sum(k @ rho @ k.T for k in reset_kraus_oracle(basis.occupations)) - rho)
        assert np.max(np.abs(dissipator - measured)) < 1e-12

    @pytest.mark.parametrize("channel", [None, ResetChannel("periodic_feedback", 2.0),
                                         ResetChannel("random_feedback", 0.0),
                                         ResetChannel("dissipation", 0.0)],
                             ids=["none", "periodic", "random-rate0", "dissipation-rate0"])
    def test_no_jumps_without_a_rate_or_for_a_schedule(self, channel):
        assert channel_jump_operators(channel, FockBasis(2)) == []


def measure(amplitudes, basis, draws):
    """The engine's feedback measurement: `sample_jump` over the reset table."""
    return sample_jump(jump_table(reset_kraus(basis), basis.dimension), amplitudes, draws)


def operators(kind, basis):
    """The operators of one kind of table the engine draws from."""
    if kind == "reset":
        return list(reset_kraus(basis))
    if kind == "feedback":
        return channel_jump_operators(ResetChannel("random_feedback", 1.5), basis)
    return (noise_jump_operators(NoiseModel(relaxation_rate=0.3, dephasing_rate=0.2), basis)
            + channel_jump_operators(ResetChannel("dissipation", 1.5), basis))


#: The reset Kraus operators, the noise-plus-dissipation jumps and random
#: feedback's jumps, over a full space and a sector; K_2 of the reset has no
#: entry in FockBasis(3, 1).
TABLES = [pytest.param(kind, length, n_max, id=f"{kind}-L{length}-N{n_max}")
          for kind, length, n_max in (("reset", 2, None), ("reset", 3, 1),
                                      ("jumps", 2, None), ("jumps", 3, 2),
                                      ("feedback", 3, None))]


def random_state(rng, dimension):
    return rng.normal(size=dimension) + 1j * rng.normal(size=dimension)


class TestFeedbackMeasurement:
    """`sample_jump`, the one Born draw of feedback measurements and quantum jumps.

    The first tests measure with the reset table, one uniform draw per
    state; the parametrized ones run every kind of table against the dense
    products ||A_k psi||^2 and A_k psi of its operators.
    """

    def test_deterministic_projection(self, rng):
        basis = FockBasis(2)
        out, outcome = measure(basis_state([0, 2]), basis, rng.random())
        assert outcome == 2
        expected = basis_state([0, 0])
        assert np.abs(out - expected).max() < 1e-12

    def test_superposition_both_branches_reset(self, rng):
        basis = FockBasis(2)
        psi = (basis_state([0, 1]) + basis_state([0, 0])) / np.sqrt(2)
        seen = set()
        for _ in range(200):
            out, outcome = measure(psi, basis, rng.random())
            seen.add(int(outcome))
            # either way the measured site ends in |0>
            probs = born_oracle(out, basis.occupations)
            assert probs[0] == pytest.approx(1.0, abs=1e-12)
            # the branch is not renormalized: it keeps norm sqrt(1/2)
            assert abs(np.linalg.norm(out) - np.sqrt(0.5)) < 1e-12
        assert seen == {0, 1}

    def test_born_statistics(self, rng):
        basis = FockBasis(2)
        amp = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi = amp / np.linalg.norm(amp)
        probs = born_oracle(psi, basis.occupations)
        n_samples = 100_000
        _, outcomes = measure(np.broadcast_to(psi, (n_samples, 9)), basis,
                                        rng.random(n_samples))
        freq = np.bincount(outcomes, minlength=3) / n_samples
        sigma = np.sqrt(probs * (1 - probs) / n_samples)
        assert np.all(np.abs(freq - probs) < 3.5 * sigma + 1e-12)

    def test_measured_site_occupation_is_zero(self, rng):
        spec = LatticeSpec(3, 2.0, 1.5, 0.2, 0.5)
        basis = FockBasis(spec.length)
        amp = rng.normal(size=27) + 1j * rng.normal(size=27)
        psi = amp / np.linalg.norm(amp)
        number = build_site_operator(basis, 3, "number")
        out, _ = measure(psi, basis, rng.random())
        occ = np.vdot(out, number @ out).real
        assert occ == pytest.approx(0.0, abs=1e-12)

    def test_batch_matches_single_measurements(self, rng):
        # a (2, 3) batch of unnormalized states, one uniform each
        basis = FockBasis(3)
        amps = rng.normal(size=(2, 3, 27)) + 1j * rng.normal(size=(2, 3, 27))
        draws = rng.random((2, 3))
        probs = born_oracle(amps, basis.occupations)
        reset, outcomes = measure(amps, basis, draws)
        assert probs.shape == (2, 3, 3) and outcomes.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            psi = amps[idx] / np.linalg.norm(amps[idx])
            assert np.allclose(probs[idx], born_oracle(psi, basis.occupations))
            out, outcome = measure(amps[idx], basis, draws[idx])
            assert outcome == outcomes[idx]
            # the batch keeps the branch norm: sqrt(p_outcome) of the input norm
            norm = np.linalg.norm(reset[idx])
            assert norm == pytest.approx(
                np.linalg.norm(amps[idx]) * np.sqrt(probs[idx][outcome]), rel=1e-12)
            assert np.abs(reset[idx] - out).max() < 1e-12

    @pytest.mark.parametrize("n_max", [1, 2, None])
    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_applies_the_drawn_reset_operator(self, rng, length, n_max):
        # a draw in the middle of each outcome's Born interval picks that
        # outcome; the result is the dense |0><n| at the last site times psi
        basis = FockBasis(length, n_max)
        kraus = reset_kraus_oracle(basis.occupations)
        levels = np.unique(basis.occupations[:, -1])
        for _ in range(5):
            psi = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
            probs = born_oracle(psi, basis.occupations)
            draws = (np.cumsum(probs) - 0.5 * probs)[levels]
            reset, outcomes = measure(np.broadcast_to(psi, (levels.size, psi.size)),
                                                basis, draws)
            assert np.array_equal(outcomes, levels)
            for out, n, draw in zip(reset, outcomes, draws):
                assert np.array_equal(out, kraus[n] @ psi), n
                single, outcome = measure(psi, basis, draw)
                assert outcome == n and np.array_equal(single, out), n

    @pytest.mark.parametrize("kind, length, n_max", TABLES)
    def test_applies_the_drawn_operator(self, rng, kind, length, n_max):
        # a draw in the middle of each operator's Born interval picks it and
        # applies it, in a batch and one state at a time
        basis = FockBasis(length, n_max)
        ops = operators(kind, basis)
        table = jump_table(ops, basis.dimension)
        dense = [densify(op, basis.dimension) for op in ops]
        for _ in range(5):
            psi = random_state(rng, basis.dimension)
            weights = np.array([np.linalg.norm(op @ psi) ** 2 for op in dense])
            probs = weights / weights.sum()
            drawn = np.flatnonzero(probs > PROJECTION_EPS)
            draws = (np.cumsum(probs) - 0.5 * probs)[drawn]
            out, picks = sample_jump(table, np.broadcast_to(psi, (drawn.size, psi.size)), draws)
            assert np.array_equal(picks, drawn)
            for row, k, draw in zip(out, picks, draws):
                np.testing.assert_allclose(row, dense[k] @ psi, rtol=1e-14, atol=1e-15)
                single, pick = sample_jump(table, psi, draw)
                assert pick == k and np.array_equal(single, row), k

    @pytest.mark.parametrize("kind, length, n_max", TABLES)
    def test_born_statistics_of_every_table(self, rng, kind, length, n_max):
        basis = FockBasis(length, n_max)
        ops = operators(kind, basis)
        psi = random_state(rng, basis.dimension)
        weights = np.array([np.linalg.norm(densify(op, basis.dimension) @ psi) ** 2
                            for op in ops])
        probs = weights / weights.sum()
        n_samples = 20_000
        _, picks = sample_jump(jump_table(ops, basis.dimension),
                               np.broadcast_to(psi, (n_samples, psi.size)),
                               rng.random(n_samples))
        freq = np.bincount(picks, minlength=len(ops)) / n_samples
        sigma = np.sqrt(probs * (1 - probs) / n_samples)
        assert np.all(np.abs(freq - probs) < 3.5 * sigma + 1e-12)

    @pytest.mark.parametrize("kind, length, n_max", TABLES)
    def test_decay_is_the_dense_sum(self, kind, length, n_max):
        # the column sums of the table are diag(sum_k A_k^dag A_k)
        basis = FockBasis(length, n_max)
        ops = operators(kind, basis)
        dense = sum(op.conj().T @ op for op in (densify(o, basis.dimension) for o in ops))
        assert np.allclose(np.diag(jump_table(ops, basis.dimension).decay), dense,
                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("length", [2, 3])
    def test_operator_without_entries_is_never_drawn(self, rng, length):
        # no state of FockBasis(L, 1) has n = 2 on the last site, so K_2 is
        # all spare column; 1.0 stands in for a draw at or above a last
        # cumulative sum that rounded below 1
        basis = FockBasis(length, 1)
        table = jump_table(reset_kraus(basis), basis.dimension)
        assert np.all(table.dst[2] == basis.dimension) and not table.amp[2].any()
        draws = np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0])
        for _ in range(5):
            psi = random_state(rng, basis.dimension)
            out, picks = sample_jump(table, np.broadcast_to(psi, (draws.size, psi.size)), draws)
            assert np.all(picks < 2)
            assert np.all(np.linalg.norm(out, axis=1) > 0)

    @pytest.mark.parametrize("kind, main, tiny", [("reset", [0, 1], [0, 0]),
                                                  ("jumps", [0, 1], [1, 0])])
    def test_operator_below_cutoff_is_never_drawn(self, kind, main, tiny):
        # operator 0 acts only on the 1e-9 admixture, a Born weight near
        # 1e-18: without the PROJECTION_EPS cut a zero draw would pick it
        basis = FockBasis(2)
        ops = operators(kind, basis)
        psi = basis_state(main) + 1e-9 * basis_state(tiny)
        weights = np.array([np.linalg.norm(densify(op, 9) @ psi) ** 2 for op in ops])
        assert 0 < weights[0] < PROJECTION_EPS * weights.sum()
        out, pick = sample_jump(jump_table(ops, 9), psi, 0.0)
        assert pick == 1
        np.testing.assert_allclose(out, densify(ops[1], 9) @ psi, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("kind, state", [("reset", None), ("jumps", [0, 0])])
    def test_zero_total_raises(self, kind, state):
        # the zero state for the reset; the vacuum, which no jump acts on
        basis = FockBasis(2)
        psi = np.zeros(9, dtype=complex) if state is None else basis_state(state)
        with pytest.raises(ValueError, match="no operator"):
            sample_jump(jump_table(operators(kind, basis), 9), psi, 0.5)

    @pytest.mark.parametrize("src, dst", [([0, 1], [2, 2]), ([1, 1], [0, 2])])
    def test_table_rejects_repeated_rows(self, src, dst):
        # the scatter writes each operator's entries in one assignment
        op = Monomial(np.array(src), np.array(dst), np.ones(2))
        with pytest.raises(ValueError, match="repeats"):
            jump_table([op], 3)


class TestNoiseOperators:
    def test_empty_for_trivial_model(self):
        assert noise_jump_operators(NoiseModel(), FockBasis(2)) == []

    def test_operator_count(self):
        ops = noise_jump_operators(NoiseModel(relaxation_rate=0.1, dephasing_rate=0.2),
                                   FockBasis(3))
        assert len(ops) == 6

    def test_dephasing_amplitude_carries_factor_two(self):
        kappa = 0.13
        ops = noise_jump_operators(NoiseModel(dephasing_rate=kappa), FockBasis(1))
        assert len(ops) == 1
        element = densify(ops[0], 3)[1, 1]
        assert abs(element) ** 2 == pytest.approx(2 * kappa, rel=1e-12)

    def test_probability_budget_first_order(self, rng):
        # sum dp_k + ||no-jump branch||^2 = 1 within O(dt^2)
        ops = noise_jump_operators(NoiseModel(relaxation_rate=0.3, dephasing_rate=0.2),
                                   FockBasis(2))
        dense_ops = [densify(o, 9) for o in ops]
        decay = sum(o.conj().T @ o for o in dense_ops)
        evals, vecs = np.linalg.eigh(decay)
        for dt in (0.01, 0.003):
            for _ in range(20):
                amp = rng.normal(size=9) + 1j * rng.normal(size=9)
                amp /= np.linalg.norm(amp)
                dp = sum(dt * np.linalg.norm(o @ amp) ** 2 for o in dense_ops)
                no_jump = vecs @ (np.exp(-0.5 * dt * evals) * (vecs.conj().T @ amp))
                budget = dp + np.linalg.norm(no_jump) ** 2
                assert abs(budget - 1.0) < 10 * dt**2


def single_site_config(coding, t_max, dt, n_trajectories, noise=NoiseModel(), channel=None):
    return SimulationConfig(
        lattice=LatticeSpec(1, 2.0, 1.0, 0.0), channel=channel, t_max=t_max, dt=dt,
        n_trajectories=n_trajectories, noise=noise, initial_coding_state=coding,
    )


class TestJumpStep:
    """The quantum-jump rule as the trajectory engine applies it.

    The engine locates each jump by the waiting-time rule over the operators
    of `noise_jump_operators` and the reset channel, so these checks run
    whole trajectories.
    """

    def test_no_rates_pure_unitary(self):
        # no jump operators: |+> only picks up the phase e^{-i omega t} on |1>
        config = single_site_config("plus", t_max=3.0, dt=0.1, n_trajectories=1)
        out = run_trajectory(config, 0)
        omega = config.lattice.mean_frequency
        assert np.abs(out.occupation_site1 - 0.5).max() < 1e-12
        assert np.abs(out.coherence_site1 - 0.5 * np.exp(1j * omega * out.time_grid)).max() < 1e-12

    def test_vacuum_never_jumps(self):
        noise = NoiseModel(relaxation_rate=0.5, dephasing_rate=0.5)
        config = SimulationConfig(
            lattice=LatticeSpec(2, 1.0, 1.0, 0.1), channel=None, t_max=5.0, dt=0.1,
            n_trajectories=32, noise=noise, initial_coding_state="ket0",
        )
        ens = run_ensemble(config)
        for name in ("leakage_total", "occupation_site1", "coherence_envelope_site1"):
            assert np.all(getattr(ens, name) == 0.0), name

    def test_survival_matches_exponential_decay(self):
        # |1> with jump sqrt(gamma) a: the excitation survives with e^{-gamma t}
        gamma = 0.8
        config = single_site_config("ket1", t_max=4.0, dt=0.1, n_trajectories=1000,
                                    noise=NoiseModel(relaxation_rate=gamma))
        ens = run_ensemble(config)
        exact = SimpleNamespace(occupation_site1=np.exp(-gamma * ens.time_grid))
        assert max_z(ens, exact, "occupation_site1") < Z_BOUND
        assert ens.occupation_site1[-1] < 0.1

    def test_random_feedback_survival_is_exponential(self):
        # one site in |2>: the first measurement empties it, so the leakage
        # survives until the first time of a Poisson process, with exp(-rate t):
        # here the first K_2 jump, at rate Gamma (a Q jump keeps the |2>).
        # rate * dt = 0.5 here: jump times must not depend on dt
        rate = 10.0
        config = single_site_config("ket2", t_max=0.5, dt=0.05, n_trajectories=2000,
                                    channel=ResetChannel("random_feedback", rate))
        ens = run_ensemble(config)
        exact = SimpleNamespace(leakage_total=np.exp(-rate * ens.time_grid))
        assert max_z(ens, exact, "leakage_total") < Z_BOUND


class TestThermalSampling:
    def test_zero_temperature_all_ground(self, rng):
        spec = LatticeSpec.from_mhz(3, 7500, 250, 5, 100)
        real = realize_disorder(spec, 3)
        coding = np.array([0, 0, 1.0])
        psi = sample_thermal_initial(real, NoiseModel(), coding, rng, FockBasis(3))
        expected = basis_state([2, 0, 0])
        assert np.abs(psi - expected).max() < 1e-12

    def test_zero_coding_state_rejected(self, rng):
        # dividing by its zero norm gave NaN amplitudes and only a warning
        spec = LatticeSpec.from_mhz(2, 7500, 250, 5)
        real = realize_disorder(spec, 0)
        with pytest.raises(ValueError, match="non-zero"):
            sample_thermal_initial(real, NoiseModel(), np.zeros(3), rng, FockBasis(2))

    def test_sector_state_is_the_full_state_restricted(self):
        spec = LatticeSpec.from_mhz(4, 7500, 250, 5, 100)
        real = realize_disorder(spec, 3)
        model = NoiseModel(temperature=0.3)
        coding = np.array([1.0, 1.0, 0.0])
        sector = FockBasis(4, 2)
        basis = FockBasis(4)
        inside = sector.index(basis.occupations) >= 0
        outcomes = set()
        for seed in range(40):
            full = sample_thermal_initial(real, model, coding, np.random.default_rng(seed), basis)
            fits = not np.any(full[~inside])
            outcomes.add(fits)
            if fits:
                part = sample_thermal_initial(real, model, coding, np.random.default_rng(seed),
                                              sector)
                assert np.array_equal(full[inside], part)
            else:
                with pytest.raises(ValueError):
                    sample_thermal_initial(real, model, coding, np.random.default_rng(seed),
                                           sector)
        assert outcomes == {True, False}

    def test_boltzmann_ratio_at_100mk(self, rng):
        # 7.5 GHz at 100 mK: P1/P0 = exp(-3.6) within sampling error
        spec = LatticeSpec.from_mhz(2, 7500, 250, 0)
        real = realize_disorder(spec, 0)
        model = NoiseModel(temperature=0.1)
        weights = local_thermal_weights(real.omegas[1], real.anharmonicities[1], 0.1)
        ratio = weights[1] / weights[0]
        assert ratio == pytest.approx(math.exp(-3.5995), rel=1e-3)
        coding = np.array([1.0, 0, 0])
        basis = FockBasis(2)
        n_samples = 100_000
        psi = sample_thermal_initial(real, model, coding, rng, basis, size=n_samples)
        freq = np.bincount(np.argmax(np.abs(psi), axis=1) % 3, minlength=3) / n_samples
        sigma = np.sqrt(weights * (1 - weights) / n_samples)
        assert np.all(np.abs(freq - weights) < 3.5 * sigma + 1e-12)

    @pytest.mark.parametrize("length", [1, 3])
    def test_batch_equals_successive_calls(self, length):
        real = realize_disorder(LatticeSpec.from_mhz(length, 7500, 250, 5, 100), 3)
        model = NoiseModel(temperature=0.35)
        coding = np.array([1.0, 1.0j, 0.0])
        basis = FockBasis(length)
        one, batch = np.random.default_rng(5), np.random.default_rng(5)
        singles = np.array([sample_thermal_initial(real, model, coding, one, basis)
                            for _ in range(200)])
        together = sample_thermal_initial(real, model, coding, batch, basis, size=200)
        assert np.array_equal(singles, together)
        # both drew the same numbers, and with idle sites not all the same state
        assert one.random() == batch.random()
        assert (len(np.unique(singles, axis=0)) > 1) == (length > 1)

    def test_weights_normalized_after_truncation(self):
        weights = local_thermal_weights(47000.0, 1570.0, 0.25)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights >= 0)

    def test_product_form_no_correlations(self, rng):
        spec = LatticeSpec.from_mhz(3, 7500, 250, 0, 100)
        real = realize_disorder(spec, 8)
        model = NoiseModel(temperature=0.35)  # hotter for more excitation
        coding = np.array([1.0, 0, 0])
        basis = FockBasis(3)
        n_samples = 20_000
        psi = sample_thermal_initial(real, model, coding, rng, basis, size=n_samples)
        idx = np.argmax(np.abs(psi), axis=1)
        corr = np.corrcoef((idx // 3) % 3, idx % 3)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(n_samples)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(temperature=-1.0)


class TestNoiseModel:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["relaxation_rate", "dephasing_rate", "temperature"])
    def test_non_finite_values_rejected(self, field, value):
        # a NaN relaxation rate used to run as if it were zero
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(**{field: value})
