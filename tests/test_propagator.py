import numpy as np
import pytest

from lrusim.lattice import (
    DisorderRealization,
    LatticeSpec,
    OperatorMatrix,
    build_bose_hubbard,
    build_effective_nonhermitian,
    build_effective_propagation,
    realize_disorder,
    total_number_operator,
)
from lrusim.propagator import (
    KrylovConvergenceError,
    Propagator,
    StateVector,
    eigensystem,
    krylov_expm_apply,
    propagate,
    propagate_nonhermitian_norm,
)

from conftest import evolve_dense_oracle


def random_state(dim, rng):
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amp / np.linalg.norm(amp))


class TestExact:
    def test_diagonal_phase(self):
        omega = 2.7
        spec = LatticeSpec(1, omega, 1.0, 0.0)
        ham = build_bose_hubbard(realize_disorder(spec, 0))
        psi = StateVector.basis_state(spec, [1])
        out = propagate(Propagator(), ham, psi, dt=0.9)
        idx = 1
        assert abs(out.amplitudes[idx]) == pytest.approx(1.0, abs=1e-12)
        assert np.angle(out.amplitudes[idx]) == pytest.approx(-omega * 0.9, abs=1e-10)

    def test_pair_disintegration_at_zero_anharmonicity(self):
        # U = 0 at t = pi/(4J): the symmetric pair state disintegrates fully
        # into |11>, a localized pair only half (its own closed form)
        j = 0.8
        spec = LatticeSpec(2, 0.0, 1e-12, j)
        real = DisorderRealization.explicit(spec, [0.0, 0.0])
        object.__setattr__(real, "anharmonicities", np.zeros(2))
        ham = build_bose_hubbard(real)
        idx11 = 1 * 3 + 1
        sym = StateVector((StateVector.basis_state(spec, [2, 0]).amplitudes
                           + StateVector.basis_state(spec, [0, 2]).amplitudes) / np.sqrt(2))
        out = propagate(Propagator(), ham, sym, dt=np.pi / (4 * j))
        assert abs(out.amplitudes[idx11]) ** 2 == pytest.approx(1.0, abs=1e-10)
        loc = StateVector.basis_state(spec, [2, 0])
        out = propagate(Propagator(), ham, loc, dt=np.pi / (4 * j))
        assert abs(out.amplitudes[idx11]) ** 2 == pytest.approx(0.5, abs=1e-10)

    def test_norm_preserved_many_steps(self):
        spec = LatticeSpec(2, 5.0, 3.0, 0.4, 1.0)
        ham = build_bose_hubbard(realize_disorder(spec, 5))
        prop = Propagator()
        psi = random_state(9, np.random.default_rng(1))
        for _ in range(10_000):
            psi = propagate(prop, ham, psi, dt=0.01)
        assert abs(psi.norm() - 1.0) < 1e-9

    def test_energy_and_excitation_conserved(self):
        spec = LatticeSpec(3, 6.0, 4.0, 0.5, 2.0)
        ham = build_bose_hubbard(realize_disorder(spec, 9))
        number = total_number_operator(spec).dense()
        dense = ham.dense()
        prop = Propagator()
        psi = random_state(27, np.random.default_rng(2))
        e0 = np.vdot(psi.amplitudes, dense @ psi.amplitudes).real
        n0 = np.vdot(psi.amplitudes, number @ psi.amplitudes).real
        for _ in range(200):
            psi = propagate(prop, ham, psi, dt=0.05)
        e1 = np.vdot(psi.amplitudes, dense @ psi.amplitudes).real
        n1 = np.vdot(psi.amplitudes, number @ psi.amplitudes).real
        assert abs(e1 - e0) < 1e-8 * max(1.0, abs(e0))
        assert abs(n1 - n0) < 1e-8

    def test_composition(self):
        spec = LatticeSpec(2, 3.0, 2.0, 0.3, 0.5)
        ham = build_bose_hubbard(realize_disorder(spec, 2))
        prop = Propagator()
        psi = random_state(9, np.random.default_rng(3))
        once = propagate(prop, ham, psi, 0.7 + 0.4)
        twice = propagate(prop, ham, propagate(prop, ham, psi, 0.7), 0.4)
        assert np.abs(once.amplitudes - twice.amplitudes).max() < 1e-8

    def test_matches_fresh_oracle(self):
        spec = LatticeSpec(3, 4.0, 3.0, 0.6, 1.0)
        real = realize_disorder(spec, 17)
        ham = build_bose_hubbard(real)
        psi = random_state(27, np.random.default_rng(4))
        out = propagate(Propagator(), ham, psi, 1.7)
        oracle = evolve_dense_oracle(ham.dense(), psi.amplitudes, 1.7)
        assert np.abs(out.amplitudes - oracle).max() < 1e-10

    def test_fresh_hamiltonians_get_their_own_eigensystem(self):
        # deleted Hamiltonians free their ids for the next ones: a propagator
        # that kept eigensystems by id handed back a stale one
        spec = LatticeSpec(2, 4.0, 3.0, 0.6, 2.0)
        prop = Propagator()
        psi = random_state(9, np.random.default_rng(8))
        for seed in range(200):
            ham = build_bose_hubbard(realize_disorder(spec, seed))
            out = propagate(prop, ham, psi, 1.3)
            oracle = evolve_dense_oracle(ham.dense(), psi.amplitudes, 1.3)
            assert np.abs(out.amplitudes - oracle).max() < 1e-10, seed
            del ham

    def test_dimension_mismatch(self):
        spec = LatticeSpec(2, 1.0, 1.0, 0.1)
        ham = build_bose_hubbard(realize_disorder(spec, 0))
        with pytest.raises(ValueError):
            propagate(Propagator(), ham, StateVector(np.ones(4)), 0.1)


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


class TestKrylov:
    def test_agrees_with_exact_L4(self):
        # dim 81 random states, 100 steps, error below 1e-8
        spec = LatticeSpec(4, 8.0, 5.0, 0.7, 2.0)
        ham = build_bose_hubbard(realize_disorder(spec, 21))
        exact = Propagator(method="exact")
        krylov = Propagator(method="krylov")
        rng = np.random.default_rng(5)
        psi_e = random_state(81, rng)
        psi_k = StateVector(psi_e.amplitudes.copy())
        for _ in range(100):
            psi_e = propagate(exact, ham, psi_e, 0.05)
            psi_k = propagate(krylov, ham, psi_k, 0.05)
        assert np.abs(psi_e.amplitudes - psi_k.amplitudes).max() < 1e-8

    def test_large_single_step(self):
        spec = LatticeSpec(3, 5.0, 4.0, 0.9, 1.5)
        ham = build_bose_hubbard(realize_disorder(spec, 8))
        psi = random_state(27, np.random.default_rng(6))
        out_k = propagate(Propagator(method="krylov"), ham, psi, 4.0)
        out_e = propagate(Propagator(method="exact"), ham, psi, 4.0)
        assert np.abs(out_k.amplitudes - out_e.amplitudes).max() < 1e-8

    def test_nonhermitian_krylov(self):
        spec = LatticeSpec(2, 2.0, 3.0, 0.4)
        ham = build_bose_hubbard(realize_disorder(spec, 1))
        heff = build_effective_nonhermitian(ham, 2, 1.1, "dissipation")
        psi = random_state(9, np.random.default_rng(7))
        out = krylov_expm_apply(heff.dense(), psi.amplitudes, 2.0, hermitian=False)
        evals, vecs = np.linalg.eig(heff.dense())
        oracle = vecs @ (np.exp(-1j * evals * 2.0) * np.linalg.solve(vecs, psi.amplitudes))
        assert np.abs(out - oracle).max() < 1e-8

    def test_nonconvergence_signals_residual(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(80, 80))
        mat = mat + mat.T
        vec = rng.normal(size=80) + 0j
        with pytest.raises(KrylovConvergenceError) as err:
            krylov_expm_apply(mat, vec, 50.0, m=4, tol=1e-14, max_substeps=3)
        assert err.value.residual > 0

    def test_exact_refuses_large_dimension(self):
        with pytest.raises(ValueError):
            Propagator(method="exact")._resolve(1000)


class TestNonHermitianNorm:
    def test_zero_rate_keeps_norm(self):
        spec = LatticeSpec(2, 0.0, 10.0, 1.0)
        eff = build_effective_propagation(realize_disorder(spec, 0))
        psi = StateVector(np.array([1.0, 0.0], dtype=complex))
        norms = propagate_nonhermitian_norm(eff, psi, np.linspace(0, 5, 20))
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_t0_is_one_and_monotone(self):
        spec = LatticeSpec(2, 0.0, 10.0, 1.0)
        eff = build_effective_propagation(realize_disorder(spec, 0))
        heff = build_effective_nonhermitian(eff, 2, 0.11, "dissipation")
        psi = StateVector(np.array([1.0, 0.0], dtype=complex))
        grid = np.linspace(0, 40, 400)
        norms = propagate_nonhermitian_norm(heff, psi, grid)
        assert norms[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(norms) <= 1e-9)

    def test_matches_closed_form_below_exceptional_point(self):
        from lrusim.analytics import diss_norm_exact_L2

        spec = LatticeSpec(2, 0.0, 10.0, 1.0)
        jp = spec.hopping_effective
        rate = 0.8 * jp  # below the exceptional point at 2 J_prop
        eff = build_effective_propagation(realize_disorder(spec, 0))
        heff = build_effective_nonhermitian(eff, 2, rate, "dissipation")
        psi = StateVector(np.array([1.0, 0.0], dtype=complex))
        grid = np.linspace(0, 30 / jp, 300)
        norms = propagate_nonhermitian_norm(heff, psi, grid)
        closed = diss_norm_exact_L2(rate, jp, grid)
        assert np.abs(norms - closed).max() < 1e-8
