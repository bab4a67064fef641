import numpy as np
import pytest

from lrusim.analytics import diss_norm_exact_L2, diss_norm_general_L
from lrusim.lattice import (
    DisorderRealization,
    FockBasis,
    LatticeSpec,
    build_bose_hubbard,
    build_effective_propagation,
    realize_disorder,
)
from lrusim.propagator import (
    eigensystem,
    evolve,
    propagate_nonhermitian_norm,
)

from conftest import (
    basis_state,
    dissipative_no_jump,
    evolve_dense_oracle,
    evolve_nonhermitian_oracle,
)


def random_state(dim, rng):
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amp / np.linalg.norm(amp)


def evolve_state(ham, psi, dt, hermitian=True):
    """exp(-i H dt) |psi> the way the engine computes it."""
    evals, vecs, vinv = eigensystem(ham, hermitian)
    return evolve(vecs, evals, vinv @ psi, dt)


class TestExact:
    def test_diagonal_phase(self):
        omega = 2.7
        spec = LatticeSpec(1, omega, 1.0, 0.0)
        ham = build_bose_hubbard(realize_disorder(spec, 0), FockBasis(1))
        psi = basis_state([1])
        out = evolve_state(ham, psi, dt=0.9)
        idx = 1
        assert abs(out[idx]) == pytest.approx(1.0, abs=1e-12)
        assert np.angle(out[idx]) == pytest.approx(-omega * 0.9, abs=1e-10)

    def test_pair_disintegration_at_zero_anharmonicity(self):
        # U = 0 at t = pi/(4J): the symmetric pair state disintegrates fully
        # into |11>, a localized pair only half (its own closed form)
        j = 0.8
        spec = LatticeSpec(2, 0.0, 1e-12, j)
        real = DisorderRealization.explicit(spec, [0.0, 0.0])
        object.__setattr__(real, "anharmonicities", np.zeros(2))
        ham = build_bose_hubbard(real, FockBasis(2))
        idx11 = 1 * 3 + 1
        sym = (basis_state([2, 0]) + basis_state([0, 2])) / np.sqrt(2)
        out = evolve_state(ham, sym, dt=np.pi / (4 * j))
        assert abs(out[idx11]) ** 2 == pytest.approx(1.0, abs=1e-10)
        loc = basis_state([2, 0])
        out = evolve_state(ham, loc, dt=np.pi / (4 * j))
        assert abs(out[idx11]) ** 2 == pytest.approx(0.5, abs=1e-10)

    def test_norm_preserved_many_steps(self):
        spec = LatticeSpec(2, 5.0, 3.0, 0.4, 1.0)
        ham = build_bose_hubbard(realize_disorder(spec, 5), FockBasis(2))
        evals, vecs, vinv = eigensystem(ham, hermitian=True)
        psi = random_state(9, np.random.default_rng(1))
        for _ in range(10_000):
            psi = evolve(vecs, evals, vinv @ psi, 0.01)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-9

    def test_energy_and_excitation_conserved(self):
        spec = LatticeSpec(3, 6.0, 4.0, 0.5, 2.0)
        basis = FockBasis(3)
        ham = build_bose_hubbard(realize_disorder(spec, 9), basis)
        number = np.diag(basis.occupations.sum(1)).astype(float)
        psi = random_state(27, np.random.default_rng(2))
        e0 = np.vdot(psi, ham @ psi).real
        n0 = np.vdot(psi, number @ psi).real
        for _ in range(200):
            psi = evolve_state(ham, psi, dt=0.05)
        e1 = np.vdot(psi, ham @ psi).real
        n1 = np.vdot(psi, number @ psi).real
        assert abs(e1 - e0) < 1e-8 * max(1.0, abs(e0))
        assert abs(n1 - n0) < 1e-8

    def test_composition(self):
        spec = LatticeSpec(2, 3.0, 2.0, 0.3, 0.5)
        ham = build_bose_hubbard(realize_disorder(spec, 2), FockBasis(2))
        psi = random_state(9, np.random.default_rng(3))
        once = evolve_state(ham, psi, 0.7 + 0.4)
        twice = evolve_state(ham, evolve_state(ham, psi, 0.7), 0.4)
        assert np.abs(once - twice).max() < 1e-8

    def test_matches_fresh_oracle(self):
        spec = LatticeSpec(3, 4.0, 3.0, 0.6, 1.0)
        real = realize_disorder(spec, 17)
        ham = build_bose_hubbard(real, FockBasis(3))
        psi = random_state(27, np.random.default_rng(4))
        out = evolve_state(ham, psi, 1.7)
        oracle = evolve_dense_oracle(ham, psi, 1.7)
        assert np.abs(out - oracle).max() < 1e-10

    def test_fresh_hamiltonians_get_their_own_eigensystem(self):
        # deleted Hamiltonians free their ids for the next ones: a propagator
        # that kept eigensystems by id handed back a stale one
        spec = LatticeSpec(2, 4.0, 3.0, 0.6, 2.0)
        psi = random_state(9, np.random.default_rng(8))
        basis = FockBasis(2)
        for seed in range(200):
            ham = build_bose_hubbard(realize_disorder(spec, seed), basis)
            out = evolve_state(ham, psi, 1.3)
            oracle = evolve_dense_oracle(ham, psi, 1.3)
            assert np.abs(out - oracle).max() < 1e-10, seed
            del ham


class TestEigensystem:
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_batch_reconstructs_each_matrix(self, hermitian):
        rng = np.random.default_rng(9)
        mats = rng.normal(size=(2, 3, 6, 6)) + 1j * rng.normal(size=(2, 3, 6, 6))
        if hermitian:
            mats = mats + mats.conj().swapaxes(-1, -2)
        evals, vecs, vinv = eigensystem(mats, hermitian)
        assert evals.shape == (2, 3, 6) and np.iscomplexobj(evals)
        assert np.abs(vinv @ vecs - np.eye(6)).max() < 1e-10
        assert np.abs(vecs @ (evals[..., None] * vinv) - mats).max() < 1e-10


class TestEvolve:
    def test_nonhermitian_matches_oracle(self):
        # a dissipative no-jump Hamiltonian: eig plus inverse, not eigh
        spec = LatticeSpec(2, 2.0, 3.0, 0.4)
        heff = dissipative_no_jump(realize_disorder(spec, 1), FockBasis(2), 1.1)
        psi = random_state(9, np.random.default_rng(7))
        out = evolve_state(heff, psi, 2.0, hermitian=False)
        oracle = evolve_nonhermitian_oracle(heff, psi, 2.0)
        assert np.abs(out - oracle).max() < 1e-10
        assert np.linalg.norm(out) < 1.0

    def test_batch_matches_rows(self):
        # a (2, 3) batch of Hamiltonians, states and durations
        spec = LatticeSpec(2, 4.0, 3.0, 0.6, 2.0)
        rng = np.random.default_rng(10)
        basis = FockBasis(2)
        hams = np.array([[dissipative_no_jump(realize_disorder(spec, 3 * i + j), basis, 0.7)
                          for j in range(3)] for i in range(2)])
        amps = rng.normal(size=(2, 3, 9)) + 1j * rng.normal(size=(2, 3, 9))
        taus = rng.uniform(0.0, 3.0, size=(2, 3))
        evals, vecs, vinv = eigensystem(hams, hermitian=False)
        batch = evolve(vecs, evals, np.matmul(vinv, amps[..., None])[..., 0], taus)
        assert batch.shape == (2, 3, 9)
        for idx in np.ndindex(2, 3):
            row = evolve(vecs[idx], evals[idx], vinv[idx] @ amps[idx], taus[idx])
            assert np.abs(batch[idx] - row).max() < 1e-12, idx
            oracle = evolve_nonhermitian_oracle(hams[idx], amps[idx], taus[idx])
            assert np.abs(batch[idx] - oracle).max() < 1e-10, idx


class TestNonHermitianNorm:
    def test_zero_rate_keeps_norm(self):
        spec = LatticeSpec(2, 0.0, 10.0, 1.0)
        eff = build_effective_propagation(spec)
        psi = np.array([1.0, 0.0], dtype=complex)
        norms = propagate_nonhermitian_norm(eff, psi, np.linspace(0, 5, 20))
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_t0_is_one_and_monotone(self):
        spec = LatticeSpec(2, 0.0, 10.0, 1.0)
        heff = build_effective_propagation(spec, 0.11)
        psi = np.array([1.0, 0.0], dtype=complex)
        grid = np.linspace(0, 40, 400)
        norms = propagate_nonhermitian_norm(heff, psi, grid)
        assert norms[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(norms) <= 1e-9)

    def test_matches_closed_form_below_exceptional_point(self):
        spec = LatticeSpec(2, 0.0, 10.0, 1.0)
        jp = spec.hopping_effective
        rate = 0.8 * jp  # below the exceptional point at 2 J_prop
        heff = build_effective_propagation(spec, rate)
        psi = np.array([1.0, 0.0], dtype=complex)
        grid = np.linspace(0, 30 / jp, 300)
        norms = propagate_nonhermitian_norm(heff, psi, grid)
        closed = diss_norm_exact_L2(rate, jp, grid)
        assert np.abs(norms - closed).max() < 1e-8

    @pytest.mark.parametrize("length, regime, bound", [
        (2, "low", 0.015), (2, "high", 0.002), (3, "low", 0.025), (3, "high", 0.012),
    ])
    def test_effective_model_matches_bordered_closed_forms(self, length, regime, bound):
        # the L x L model against the perturbative edge-localized sums, each in
        # its own regime: Gamma = 0.02 J_prop (low) or 50 J_prop (high); the
        # deviation is the first-order perturbative error, 0.001-0.015 here
        spec = LatticeSpec(length, 0.0, 10.0, 1.0)
        jp = spec.hopping_effective
        rate = 0.02 * jp if regime == "low" else 50.0 * jp
        decay_time = 1.0 / rate if regime == "low" else rate / (2.0 * jp**2)
        grid = np.linspace(0.0, 5.0 * decay_time, 501)
        psi = np.zeros(length, dtype=complex)
        psi[0] = 1.0  # the pair on site 1
        norms = propagate_nonhermitian_norm(build_effective_propagation(spec, rate), psi, grid)
        closed = diss_norm_general_L(length, rate, jp, grid, regime, borders=True)
        assert np.abs(norms - closed).max() < bound
