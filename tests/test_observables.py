import math

import numpy as np
import pytest

from lrusim.lattice import FockBasis, build_site_operator
from lrusim.observables import (
    coherence_envelope,
    density_site1_coherence,
    fit_exponential,
    leakage_fit_start,
    propagation_time,
    site_expectations,
    state_site1_coherence,
)
from lrusim.units import angular_from_mhz

from conftest import basis_state


def leakage(amplitudes, basis):
    """Per-site leakage of a state vector, through `site_expectations`."""
    return site_expectations(np.abs(amplitudes) ** 2, basis)[0]


class TestLeakagePopulation:
    def test_fock_examples(self):
        basis = FockBasis(2)
        assert leakage(basis_state([2, 0]), basis).sum() == pytest.approx(1.0)
        assert leakage(basis_state([1, 1]), basis).sum() == pytest.approx(0.0)
        both = (basis_state([2, 0]) + basis_state([0, 2])) / math.sqrt(2)
        assert leakage(both, basis).sum() == pytest.approx(1.0)

    def test_single_site_selection(self):
        leak = leakage(basis_state([0, 2]), FockBasis(2))
        assert leak[0] == pytest.approx(0.0)
        assert leak[1] == pytest.approx(1.0)

    def test_phase_invariance(self, rng):
        # depends only on |amplitude|^2 in the Fock basis
        basis = FockBasis(3)
        amp = rng.normal(size=27) + 1j * rng.normal(size=27)
        amp /= np.linalg.norm(amp)
        phased = amp * np.exp(1j * rng.uniform(0, 2 * np.pi, 27))
        assert leakage(amp, basis).sum() == pytest.approx(leakage(phased, basis).sum(), abs=1e-12)

    def test_density_matrix_input(self):
        psi = basis_state([2, 0])
        rho = np.outer(psi, psi.conj())
        leak, _ = site_expectations(np.diagonal(rho).real, FockBasis(2))
        assert leak.sum() == pytest.approx(1.0)

    def test_occupations(self):
        _, occ = site_expectations(np.abs(basis_state([1, 2, 0])) ** 2, FockBasis(3))
        assert np.allclose(occ, [1, 2, 0])


class TestBatchedForms:
    def test_site_expectations_match_site_operators(self, rng):
        # a (2, 4) batch of unnormalized L = 3 states
        amps = rng.normal(size=(2, 4, 27)) + 1j * rng.normal(size=(2, 4, 27))
        leak, occ = site_expectations(np.abs(amps) ** 2, FockBasis(3))
        assert leak.shape == occ.shape == (2, 4, 3)
        for site in range(1, 4):
            for kind, got in (("leakage_number", leak), ("number", occ)):
                op = build_site_operator(FockBasis(3), site, kind)
                expect = np.einsum("...i,ij,...j->...", amps.conj(), op, amps).real
                assert np.abs(got[..., site - 1] - expect).max() < 1e-12

    def test_density_batch_matches_states(self, rng):
        amps = rng.normal(size=(5, 27)) + 1j * rng.normal(size=(5, 27))
        rho = np.einsum("ti,tj->tij", amps, amps.conj())
        basis = FockBasis(3)
        from_states = state_site1_coherence(amps, basis)
        from_densities = density_site1_coherence(rho, basis)
        assert from_states.shape == from_densities.shape == (5,)
        assert np.abs(from_states - from_densities).max() < 1e-12
        leak, occ = site_expectations(np.diagonal(rho, axis1=1, axis2=2).real, basis)
        leak_s, occ_s = site_expectations(np.abs(amps) ** 2, basis)
        assert np.abs(leak - leak_s).max() < 1e-12 and np.abs(occ - occ_s).max() < 1e-12


class TestCoherence:
    def test_plus_state_envelope_is_one(self):
        plus = np.kron(np.array([1, 1, 0]) / np.sqrt(2), [1, 0, 0]).astype(complex)
        coh = state_site1_coherence(plus, FockBasis(2))
        assert coherence_envelope([coh])[0] == pytest.approx(1.0)

    def test_modulus_strips_phase(self):
        t = np.linspace(0, 10, 101)
        t2 = 3.0
        series = 0.5 * np.exp(-t / t2) * np.exp(1j * 7.0 * t)
        env = coherence_envelope(series)
        assert np.allclose(env, np.exp(-t / t2))

    def test_qubit_block_only(self):
        psi = np.array([0.6, 0.0, 0.8], dtype=complex)
        assert state_site1_coherence(psi, FockBasis(1)) == pytest.approx(0.0)

    def test_density_input_matches_pure(self, rng):
        basis = FockBasis(2)
        amp = rng.normal(size=9) + 1j * rng.normal(size=9)
        amp /= np.linalg.norm(amp)
        rho = np.outer(amp, amp.conj())
        assert density_site1_coherence(rho, basis) == pytest.approx(
            state_site1_coherence(amp, basis), abs=1e-12)


class TestPropagationTime:
    def test_reference_values(self):
        t_us = propagation_time(angular_from_mhz(5.0), angular_from_mhz(250.0))
        assert t_us == pytest.approx(1.25, rel=1e-12)
        t_us = propagation_time(angular_from_mhz(10.0), angular_from_mhz(350.0))
        assert t_us == pytest.approx(0.44, abs=0.005)

    def test_quadratic_scaling(self):
        base = propagation_time(1.0, 10.0)
        assert propagation_time(2.0, 10.0) == pytest.approx(base / 4)

    def test_leakage_fit_start(self):
        j, u = angular_from_mhz(5.0), angular_from_mhz(250.0)
        assert leakage_fit_start(3, j, u) == pytest.approx(2 * 1.25)


class TestExponentialFit:
    def test_exact_exponential(self):
        t = np.linspace(0, 20, 200)
        fit = fit_exponential(t, np.exp(-t / 5.0))
        assert fit.converged
        assert fit.decay_time == pytest.approx(5.0, abs=1e-6)
        assert fit.amplitude == pytest.approx(1.0, abs=1e-8)
        assert fit.rms_residual < 1e-10

    def test_window_skips_plateau(self):
        t = np.linspace(0, 30, 400)
        plateau_until = 6.0
        y = np.where(t < plateau_until, 0.5, 0.5 * np.exp(-(t - plateau_until) / 3.0))
        fit = fit_exponential(t, y, t_start=plateau_until)
        assert fit.converged
        assert fit.decay_time == pytest.approx(3.0, rel=1e-6)
        assert fit.amplitude == pytest.approx(0.5 * math.exp(plateau_until / 3.0), rel=1e-6)

    def test_scale_equivariance(self):
        t = np.linspace(0, 12, 150)
        y = 0.8 * np.exp(-t / 2.5)
        a = fit_exponential(t, y)
        b = fit_exponential(t, 3.0 * y)
        assert b.decay_time == pytest.approx(a.decay_time, rel=1e-12)
        assert b.amplitude == pytest.approx(3.0 * a.amplitude, rel=1e-12)

    def test_nonpositive_data_flags_nonconverged(self):
        t = np.linspace(0, 5, 50)
        fit = fit_exponential(t, np.full(50, -1.0))
        assert not fit.converged
        assert math.isnan(fit.decay_time)

    def test_growing_data_flags_nonconverged(self):
        t = np.linspace(0, 5, 50)
        fit = fit_exponential(t, np.exp(+t))
        assert not fit.converged

    def test_too_few_points(self):
        fit = fit_exponential(np.linspace(0, 1, 5), np.exp(-np.linspace(0, 1, 5)))
        assert not fit.converged

    @pytest.mark.parametrize("times, values", [
        pytest.param(np.linspace(0, 1, 5), np.exp(-np.linspace(0, 1, 5)), id="too-few-points"),
        pytest.param(np.linspace(0, 5, 50), np.full(50, -1.0), id="nonpositive"),
        # the log-space slope is positive; its rms used to be that of the data
        pytest.param(np.linspace(0, 5, 50), np.exp(np.linspace(0, 5, 50)), id="growing"),
        # below the log floor, so curve_fit runs, and it refuses the NaN sample
        pytest.param(np.linspace(0, 5, 50), np.where(np.arange(50) == 3, np.nan, 1e-5),
                     id="curve-fit-fails"),
        # below the log floor as well, and growing: curve_fit used to call them
        # converged, with decay times of 9.6e7 and 3.4e6
        pytest.param(np.linspace(0, 5, 50), np.where(np.linspace(0, 5, 50) < 2.5, 0.0, 1.0),
                     id="step"),
        pytest.param(np.linspace(0, 5, 50), np.array([0.0] * 49 + [1.0]), id="last-point"),
    ])
    def test_every_nonconverged_branch_returns_nan(self, times, values):
        fit = fit_exponential(times, values)
        assert not fit.converged
        for value in (fit.decay_time, fit.amplitude, fit.rms_residual):
            assert math.isnan(value)

    def test_nonlinear_fallback_below_floor(self):
        t = np.linspace(0, 40, 400)
        y = 1e-5 * np.exp(-t / 4.0)  # dips below the log floor inside the window
        fit = fit_exponential(t, y)
        assert fit.converged
        assert fit.decay_time == pytest.approx(4.0, rel=1e-3)
