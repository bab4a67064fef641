import math

import numpy as np
import pytest
from scipy.optimize import brentq, newton

from lrusim.analytics import (
    disintegration_frequency,
    disintegration_threshold,
    diss_norm_exact_L2,
    diss_norm_general_L,
    diss_qubit_times,
    diss_rate_high,
    diss_rate_low,
    fb_leakage_rate_high,
    fb_leakage_rate_low,
    fb_qubit_times,
    liouvillian_qubit_gap,
    qubit_liouvillian_matrix,
    two_site_populations,
)
from lrusim.lattice import LatticeSpec, build_effective_propagation
from lrusim.observables import propagation_time

from conftest import evolve_nonhermitian_oracle


def sector_hamiltonian(u, j):
    """3x3 two-excitation sector in the basis |20>, |02>, |11>."""
    return np.array([
        [-u, 0, math.sqrt(2) * j],
        [0, -u, math.sqrt(2) * j],
        [math.sqrt(2) * j, math.sqrt(2) * j, 0],
    ], dtype=complex)


def oracle_populations(u, j, t, initial):
    ham = sector_hamiltonian(u, j)
    if initial == "symmetric":
        psi0 = np.array([1, 1, 0], dtype=complex) / math.sqrt(2)
    else:
        psi0 = np.array([1, 0, 0], dtype=complex)
    evals, vecs = np.linalg.eigh(ham)
    psi = vecs @ (np.exp(-1j * evals * t) * (vecs.conj().T @ psi0))
    return np.abs(psi) ** 2


class TestTwoSite:
    def test_disintegration_frequency_limits(self):
        assert disintegration_frequency(1e-12, 1.0) == pytest.approx(4.0)
        assert disintegration_frequency(3.0, 0.0) == pytest.approx(3.0)

    def test_symmetric_initial_values(self):
        r20, r02, r11 = two_site_populations(5.0, 0.7, 0.0, "symmetric")
        assert (r20, r02, r11) == (pytest.approx(0.5), pytest.approx(0.5), pytest.approx(0.0))

    def test_equal_manifold_populations_at_u_4j(self):
        j = 1.3
        t_dis = math.pi / (4 * math.sqrt(2) * j)
        r20, r02, r11 = two_site_populations(4 * j, j, t_dis, "symmetric")
        assert r20 + r02 == pytest.approx(0.5, abs=1e-12)
        assert r11 == pytest.approx(0.5, abs=1e-12)

    def test_zero_anharmonicity_localized_half_disintegrates(self):
        j = 0.9
        _, _, r11 = two_site_populations(1e-14, j, math.pi / (4 * j), "localized")
        assert r11 == pytest.approx(0.5, abs=1e-9)
        r20, r02, r11 = two_site_populations(1e-14, j, math.pi / (4 * j), "symmetric")
        assert r11 == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_oracle(self, rng):
        # acceptance-style check: 1000 random (U/J, t) samples below 1e-10
        worst = 0.0
        for _ in range(1000):
            u = float(rng.uniform(0.0, 30.0)) + 1e-9
            j = float(rng.uniform(0.01, 2.0))
            t = float(rng.uniform(0.0, 40.0))
            initial = "symmetric" if rng.random() < 0.5 else "localized"
            ana = np.array(two_site_populations(u, j, t, initial))
            num = oracle_populations(u, j, t, initial)
            worst = max(worst, np.abs(ana - num).max())
        assert worst < 1e-10

    def test_populations_sum_to_one_and_bounded(self, rng):
        for _ in range(200):
            u, j = float(rng.uniform(0.1, 20)), float(rng.uniform(0.01, 2))
            t = float(rng.uniform(0, 50))
            for initial in ("symmetric", "localized"):
                pops = np.array(two_site_populations(u, j, t, initial))
                assert np.all(pops >= -1e-12)
                assert np.all(pops <= 1 + 1e-12)
                assert pops.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("u, j", [(0.0, 1.0), (-2.0, 1.0), (5.0, -0.1)])
    def test_rejects_nonpositive_anharmonicity_and_negative_hopping(self, u, j):
        with pytest.raises(ValueError):
            disintegration_frequency(u, j)
        for initial in ("localized", "symmetric"):
            with pytest.raises(ValueError):
                two_site_populations(u, j, 1.0, initial)


class TestThreshold:
    def test_value_in_expected_range(self):
        ratio = disintegration_threshold()
        assert 1.7 < ratio < 1.9

    def test_residual_at_root(self):
        u = disintegration_threshold()
        w = math.hypot(u, 4.0)
        resid = math.sin(u * math.pi / (2 * w)) - (8 - u**2) / (u * w)
        assert abs(resid) < 1e-10

    def test_independent_root_finders_agree(self):
        def f(u):
            w = math.hypot(u, 4.0)
            return math.sin(u * math.pi / (2 * w)) - (8 - u**2) / (u * w)

        assert abs(brentq(f, 1.0, 3.0) - newton(f, 2.0)) < 1e-8


class TestFeedbackRates:
    def test_low_rate_optimum(self):
        jp = 0.37
        assert fb_leakage_rate_low(2 * jp, jp) == pytest.approx(jp / 2)
        grid = np.linspace(0.01 * jp, 10 * jp, 20001)
        rates = [fb_leakage_rate_low(g, jp) for g in grid]
        assert grid[int(np.argmax(rates))] == pytest.approx(2 * jp, rel=1e-3)

    def test_low_rate_limits(self):
        jp = 1.0
        for g in (1e-4, 1e-3):
            assert fb_leakage_rate_low(g, jp) == pytest.approx(g / 2, rel=1e-6)
        for g in (1e3, 1e4):
            assert fb_leakage_rate_low(g, jp) == pytest.approx(2 * jp**2 / g, rel=1e-5)

    def test_low_rate_branch_consistency(self):
        # both asymptotic branches reproduced within 5% outside the crossover
        jp = 1.0
        for g in np.geomspace(1e-3, jp / 5, 7):
            assert fb_leakage_rate_low(g, jp) == pytest.approx(g / 2, rel=0.05)
        for g in np.geomspace(20 * jp, 1e4, 7):
            assert fb_leakage_rate_low(g, jp) == pytest.approx(2 * jp**2 / g, rel=0.05)

    def test_high_rate_optimum(self):
        j, u = 1.0, 50.0
        assert fb_leakage_rate_high(u, j, u) == pytest.approx(2 * j**2 / u)
        assert fb_leakage_rate_high(0.0, j, u) == 0.0
        assert fb_leakage_rate_high(3.0, 0.0, u) == 0.0
        grid = np.geomspace(u / 100, 100 * u, 40001)
        rates = [fb_leakage_rate_high(g, j, u) for g in grid]
        assert grid[int(np.argmax(rates))] == pytest.approx(u, rel=1e-3)

    def test_qubit_times(self):
        j = 1.0
        t1, t2 = fb_qubit_times(2 * j, j, 0.0)
        assert t1 == pytest.approx(1.0 / j)
        assert t2 == pytest.approx(2.0 / j)
        detuning = 7.3
        grid = np.geomspace(detuning / 100, detuning * 100, 20001)
        t1s = [fb_qubit_times(g, j, detuning)[0] for g in grid]
        assert grid[int(np.argmin(t1s))] == pytest.approx(detuning, rel=1e-3)
        for g in (0.5, 3.0, 40.0):
            t1, t2 = fb_qubit_times(g, j, detuning)
            assert t2 / t1 == pytest.approx(2.0, abs=1e-14)

    def test_zero_rate_unbounded(self):
        t1, t2 = fb_qubit_times(0.0, 1.0, 3.0)
        assert math.isinf(t1) and math.isinf(t2)


class TestDissipationNorms:
    def test_t0_is_one(self):
        for rate in (0.1, 1.0, 5.0):
            assert diss_norm_exact_L2(rate, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_nonhermitian_oracle(self, rng):
        jp = 0.7
        worst = 0.0
        for _ in range(200):
            rate = float(rng.uniform(0, 6) * jp)
            if abs(rate - 2 * jp) < 1e-4 * jp:
                continue
            t = float(rng.uniform(0, 30 / jp))
            heff = np.array([[jp, -jp], [-jp, jp - 1j * rate]], dtype=complex)
            psi = evolve_nonhermitian_oracle(heff, np.array([1, 0], complex), t)
            numeric = float(np.vdot(psi, psi).real)
            worst = max(worst, abs(diss_norm_exact_L2(rate, jp, t) - numeric))
        assert worst < 1e-8

    def test_exceptional_point_limit_is_continuous(self):
        jp = 1.0
        t = np.linspace(0, 5, 50)
        at_ep = diss_norm_exact_L2(2 * jp, jp, t)
        assert np.all(np.isfinite(at_ep))
        below = diss_norm_exact_L2(2 * jp * (1 - 5e-6), jp, t)
        above = diss_norm_exact_L2(2 * jp * (1 + 5e-6), jp, t)
        assert np.abs(at_ep - below).max() < 1e-4
        assert np.abs(at_ep - above).max() < 1e-4

    def test_weak_rate_decay_tends_to_rate(self):
        jp = 1.0
        rate = 0.01 * jp
        t = np.linspace(0, 2 / rate, 400)
        norms = diss_norm_exact_L2(rate, jp, t)
        slope = np.polyfit(t, np.log(norms), 1)[0]
        assert -slope == pytest.approx(rate, rel=0.05)

    def test_low_and_high_optima(self):
        jp, j, u = 0.3, 1.0, 50.0
        assert diss_rate_low(math.sqrt(2) * jp, jp) == pytest.approx(jp / math.sqrt(2))
        assert diss_rate_high(2 * u, j, u) == pytest.approx(2 * j**2 / u)
        grid = np.geomspace(jp / 100, jp * 100, 40001)
        lows = [diss_rate_low(g, jp) for g in grid]
        assert grid[int(np.argmax(lows))] == pytest.approx(math.sqrt(2) * jp, rel=1e-3)
        grid = np.geomspace(u / 100, u * 100, 40001)
        highs = [diss_rate_high(g, j, u) for g in grid]
        assert grid[int(np.argmax(highs))] == pytest.approx(2 * u, rel=1e-3)
        for g in (1e3 * u, 1e4 * u):
            assert diss_rate_high(g, j, u) == pytest.approx(8 * j**2 / g, rel=1e-3)


class TestGeneralLengthNorms:
    def test_length_two_reduces_to_table_rows(self):
        g, jp = 0.23, 1.7
        t = np.linspace(0, 10, 50)
        for borders in (False, True):
            low = diss_norm_general_L(2, g, jp, t, "low", borders)
            assert np.abs(low - np.exp(-g * t)).max() < 1e-12
            high = diss_norm_general_L(2, g, jp, t, "high", borders)
            assert np.abs(high - np.exp(-2 * jp**2 / g * t)).max() < 1e-12

    def test_length_three_no_borders_low(self):
        g = 0.31
        t = np.linspace(0, 12, 60)
        out = diss_norm_general_L(3, g, 1.0, t, "low", borders=False)
        expected = 0.5 * np.exp(-g * t) + 0.5 * np.exp(-g * t / 2)
        assert np.abs(out - expected).max() < 1e-12

    def test_length_three_bordered_matches_numerics(self):
        # perturbative forms against the dense 3x3 effective model
        jp = 1.0
        heff = lambda g: np.array(
            [[jp, -jp, 0], [-jp, 0, -jp], [0, -jp, jp - 1j * g]], dtype=complex
        )
        psi0 = np.array([1, 0, 0], complex)
        g = 0.02 * jp
        ts = np.linspace(0, 2.0 / g, 9)
        low = diss_norm_general_L(3, g, jp, ts, "low", borders=True)
        numeric = [np.vdot(v := evolve_nonhermitian_oracle(heff(g), psi0, t), v).real
                   for t in ts]
        assert np.abs(low - numeric).max() < 0.01
        g = 60.0 * jp
        ts = np.linspace(0, g, 9)
        high = diss_norm_general_L(3, g, jp, ts, "high", borders=True)
        numeric = [np.vdot(v := evolve_nonhermitian_oracle(heff(g), psi0, t), v).real
                   for t in ts]
        assert np.abs(high - numeric).max() < 0.01

    def test_weights_positive_and_sum_to_one(self):
        for length in (2, 3, 4, 5, 7):
            for regime in ("low", "high"):
                val = diss_norm_general_L(length, 0.4, 1.0, 0.0, regime, borders=False)
                assert val == pytest.approx(1.0, abs=1e-12)

    def test_norm_non_increasing_on_grid(self):
        t = np.linspace(0, 20, 200)
        for length in (2, 3, 5):
            for regime, g in (("low", 0.05), ("high", 40.0)):
                out = diss_norm_general_L(length, g, 1.0, t, regime, borders=False)
                assert np.all(np.diff(out) <= 1e-12)

    def test_unsupported_combination(self):
        with pytest.raises(ValueError):
            diss_norm_general_L(4, 0.1, 1.0, 0.0, "low", borders=True)


class TestDissipationQubitTimes:
    def test_empty_product_at_length_two(self):
        j, det, g = 1.0, 11.0, 3.0
        tau1, tau2 = diss_qubit_times(g, j, det)
        assert tau1 == pytest.approx((4 * det**2 + g**2) / (4 * j**2 * g))
        assert tau2 == pytest.approx(2 * tau1)

    def test_worst_rate_at_twice_detuning(self):
        det = 5.0
        grid = np.geomspace(det / 50, det * 50, 20001)
        taus = [diss_qubit_times(g, 1.0, det)[0] for g in grid]
        assert grid[int(np.argmin(taus))] == pytest.approx(2 * det, rel=1e-3)

    def test_intermediate_site_suppression(self):
        j = 1.0
        base, _ = diss_qubit_times(3.0, j, 7.0, length=2)
        longer, _ = diss_qubit_times(3.0, j, 7.0, length=3, intermediate_detunings=[10 * j])
        assert longer / base == pytest.approx(100.0, rel=1e-9)

    def test_zero_intermediate_detuning_rejected(self):
        with pytest.raises(ValueError):
            diss_qubit_times(1.0, 1.0, 5.0, length=3, intermediate_detunings=[0.0])

    @pytest.mark.parametrize("length, intermediate", [
        (1, []), (2, [5.0]), (3, []), (3, [5.0, 5.0]), (4, [5.0]),
    ])
    def test_intermediate_count_must_match_length(self, length, intermediate):
        # one detuning per site 2..L-1, none at L = 2
        with pytest.raises(ValueError):
            diss_qubit_times(1.0, 1.0, 2.0, length=length, intermediate_detunings=intermediate)


class TestLiouvillianGap:
    def test_on_resonance_exceptional_point(self):
        beta = 0.7
        gap = liouvillian_qubit_gap(0.0, beta, 4 * beta)
        assert gap == pytest.approx(-2 * beta)

    def test_perturbative_maximum_at_twice_detuning(self):
        delta, beta = 1.0, 0.05
        grid = np.geomspace(0.01, 100, 20001)
        gaps = [abs(liouvillian_qubit_gap(delta, beta, g).real) for g in grid]
        assert grid[int(np.argmax(gaps))] == pytest.approx(2 * delta, rel=1e-3)

    def test_matches_dense_liouvillian(self):
        delta, beta = 1.0, 0.1
        for g in (0.3, 1.0, 2.0, 5.0):
            matrix = qubit_liouvillian_matrix(delta, beta, g)
            evals = np.linalg.eigvals(matrix)
            nonzero = evals[np.abs(evals) > 1e-12]
            slowest = nonzero[np.argmin(np.abs(nonzero.real))]
            gap = liouvillian_qubit_gap(delta, beta, g)
            assert gap.real == pytest.approx(slowest.real, rel=0.05)

    def test_warns_outside_perturbative_regime(self):
        with pytest.warns(UserWarning):
            liouvillian_qubit_gap(1.0, 0.5, 1.0)

    def test_on_resonance_real_branch(self):
        beta = 0.2
        g = 4.0  # above 4*beta: real eigenvalues, slowest is the + branch
        gap = liouvillian_qubit_gap(0.0, beta, g)
        expected = (-g + math.sqrt(g**2 - 16 * beta**2)) / 2
        assert gap.real == pytest.approx(expected)
        assert gap.imag == pytest.approx(0.0, abs=1e-12)


NAN = math.nan


@pytest.mark.parametrize("call", [
    pytest.param(lambda: disintegration_frequency(NAN, 1.0), id="disintegration_frequency-U"),
    pytest.param(lambda: disintegration_frequency(10.0, NAN), id="disintegration_frequency-J"),
    pytest.param(lambda: two_site_populations(NAN, 1.0, 1.0), id="two_site_populations"),
    pytest.param(lambda: fb_leakage_rate_low(NAN, 1.0), id="fb_leakage_rate_low-rate"),
    pytest.param(lambda: fb_leakage_rate_low(1.0, NAN), id="fb_leakage_rate_low-jprop"),
    pytest.param(lambda: fb_leakage_rate_high(NAN, 1.0, 10.0), id="fb_leakage_rate_high-rate"),
    pytest.param(lambda: fb_leakage_rate_high(1.0, NAN, 10.0), id="fb_leakage_rate_high-J"),
    pytest.param(lambda: fb_qubit_times(NAN, 1.0, 5.0), id="fb_qubit_times"),
    pytest.param(lambda: diss_norm_exact_L2(NAN, 1.0, 1.0), id="diss_norm_exact_L2-rate"),
    pytest.param(lambda: diss_norm_exact_L2(1.0, NAN, 1.0), id="diss_norm_exact_L2-jprop"),
    pytest.param(lambda: diss_rate_low(NAN, 1.0), id="diss_rate_low-rate"),
    pytest.param(lambda: diss_rate_low(1.0, NAN), id="diss_rate_low-jprop"),
    pytest.param(lambda: diss_rate_high(NAN, 1.0, 10.0), id="diss_rate_high-rate"),
    pytest.param(lambda: diss_rate_high(1.0, NAN, 10.0), id="diss_rate_high-J"),
    pytest.param(lambda: diss_qubit_times(NAN, 1.0, 5.0), id="diss_qubit_times-rate"),
    pytest.param(lambda: diss_qubit_times(1.0, NAN, 5.0), id="diss_qubit_times-J"),
    pytest.param(lambda: liouvillian_qubit_gap(0.0, 1.0, NAN), id="liouvillian_qubit_gap"),
    pytest.param(lambda: build_effective_propagation(LatticeSpec(2, 0.0, 10.0, 1.0), NAN),
                 id="build_effective_propagation"),
    pytest.param(lambda: propagation_time(NAN, 10.0), id="propagation_time-J"),
    pytest.param(lambda: propagation_time(1.0, NAN), id="propagation_time-U"),
])
def test_nan_rate_rejected(call):
    # a NaN rate or coupling fails every `x < 0` comparison; the guards must
    # still reject it instead of returning NaN (or failing further on)
    with pytest.raises(ValueError, match="positive|non-negative|>= 0"):
        call()
