import math
from types import SimpleNamespace

import numpy as np
import pytest

from lrusim.channels import (
    NoiseModel,
    ResetChannel,
    StepTooLargeError,
    local_thermal_weights,
    measure_and_reset,
    next_measurement,
    noise_jump_operators,
    sample_thermal_initial,
)
from lrusim.lattice import FockBasis, LatticeSpec, build_site_operator, realize_disorder
from lrusim.trajectory import SimulationConfig, run_ensemble, run_trajectory

from conftest import basis_state, born_oracle, densify, reset_kraus_oracle
from test_trajectory import Z_BOUND, max_z


class _FixedUniform:
    """Minimal rng stub with a predetermined uniform draw."""

    def __init__(self, value):
        self.value = value

    def uniform(self, lo, hi):
        return lo + self.value * (hi - lo)

    def random(self):
        return self.value


def measurement_schedule(channel, t_max, rng, dt=0.1):
    """Every time next_measurement gives in [0, t_max], as the engine walks it."""
    times = []
    t = next_measurement(channel, dt, rng)
    while t <= t_max + 1e-9:
        times.append(t)
        t = next_measurement(channel, dt, rng, t)
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
        times = measurement_schedule(chan, t_max=3.5, rng=_FixedUniform(0.2))
        assert np.allclose(times, [0.2, 1.2, 2.2, 3.2])

    def test_zero_rate_empty(self, rng):
        for kind in ("periodic_feedback", "random_feedback"):
            chan = ResetChannel(kind, rate=0.0)
            assert next_measurement(chan, 0.1, rng) == math.inf
            assert measurement_schedule(chan, 10.0, rng).size == 0

    def test_random_event_count_statistics(self, rng):
        # rate * t_max = 10: the mean count over many draws is 10 +- 0.3
        chan = ResetChannel("random_feedback", rate=1.0)
        n_draws = 10_000
        counts = np.empty(n_draws)
        for k in range(n_draws):
            counts[k] = measurement_schedule(chan, 10.0, rng, dt=0.01).size
        assert abs(counts.mean() - 10.0) < 0.3

    def test_random_gaps_are_geometric(self, rng):
        # one Bernoulli draw per step with p = rate * dt = 0.2: the first
        # event is at k dt with P(k) = p (1 - p)^(k - 1)
        chan = ResetChannel("random_feedback", rate=2.0)
        dt, p = 0.1, 0.2
        n_draws = 20_000
        gaps = np.array([next_measurement(chan, dt, rng) for _ in range(n_draws)])
        steps = np.round(gaps / dt)
        assert np.all(steps >= 1)
        assert np.abs(gaps - steps * dt).max() < 1e-12
        for k, expected in ((1, p), (2, p * (1 - p))):
            freq = np.mean(steps == k)
            sigma = math.sqrt(expected * (1 - expected) / n_draws)
            assert abs(freq - expected) < 4 * sigma, k

    def test_dissipation_has_no_times(self, rng):
        assert next_measurement(ResetChannel("dissipation", rate=1.0), 0.1, rng) == math.inf
        assert next_measurement(None, 0.1, rng) == math.inf


class TestFeedbackMeasurement:
    """`measure_and_reset` on single states, one uniform draw each."""

    def test_deterministic_projection(self, rng):
        basis = FockBasis(2)
        out, outcome = measure_and_reset(basis_state([0, 2]), basis, rng.random())
        assert outcome == 2
        expected = basis_state([0, 0])
        assert np.abs(out - expected).max() < 1e-12

    def test_superposition_both_branches_reset(self, rng):
        basis = FockBasis(2)
        psi = (basis_state([0, 1]) + basis_state([0, 0])) / np.sqrt(2)
        seen = set()
        for _ in range(200):
            out, outcome = measure_and_reset(psi, basis, rng.random())
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
        _, outcomes = measure_and_reset(np.broadcast_to(psi, (n_samples, 9)), basis,
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
        out, _ = measure_and_reset(psi, basis, rng.random())
        occ = np.vdot(out, number @ out).real
        assert occ == pytest.approx(0.0, abs=1e-12)

    def test_batch_matches_single_measurements(self, rng):
        # a (2, 3) batch of unnormalized states, one uniform each
        basis = FockBasis(3)
        amps = rng.normal(size=(2, 3, 27)) + 1j * rng.normal(size=(2, 3, 27))
        draws = rng.random((2, 3))
        probs = born_oracle(amps, basis.occupations)
        reset, outcomes = measure_and_reset(amps, basis, draws)
        assert probs.shape == (2, 3, 3) and outcomes.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            psi = amps[idx] / np.linalg.norm(amps[idx])
            assert np.allclose(probs[idx], born_oracle(psi, basis.occupations))
            out, outcome = measure_and_reset(amps[idx], basis, draws[idx])
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
            reset, outcomes = measure_and_reset(np.broadcast_to(psi, (levels.size, psi.size)),
                                                basis, draws)
            assert np.array_equal(outcomes, levels)
            for out, n, draw in zip(reset, outcomes, draws):
                assert np.array_equal(out, kraus[n] @ psi), n
                single, outcome = measure_and_reset(psi, basis, draw)
                assert outcome == n and np.array_equal(single, out), n


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

    def test_too_large_dt_raises(self):
        # random feedback draws one Bernoulli event per dt with p = rate * dt
        channel = ResetChannel("random_feedback", rate=10.0)
        config = single_site_config("ket2", t_max=1.0, dt=0.1, n_trajectories=4,
                                    channel=channel)
        with pytest.raises(StepTooLargeError):
            run_ensemble(config)


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
        counts = np.zeros(3)
        for _ in range(n_samples):
            psi = sample_thermal_initial(real, model, coding, rng, basis)
            idx = int(np.argmax(np.abs(psi)))
            counts[idx % 3] += 1
        freq = counts / n_samples
        sigma = np.sqrt(weights * (1 - weights) / n_samples)
        assert np.all(np.abs(freq - weights) < 3.5 * sigma + 1e-12)

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
        n2 = np.empty(n_samples)
        n3 = np.empty(n_samples)
        for k in range(n_samples):
            psi = sample_thermal_initial(real, model, coding, rng, basis)
            idx = int(np.argmax(np.abs(psi)))
            n3[k] = idx % 3
            n2[k] = (idx // 3) % 3
        corr = np.corrcoef(n2, n3)[0, 1]
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
