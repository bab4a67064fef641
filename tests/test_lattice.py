import math
import tracemalloc

import numpy as np
import pytest

from lrusim.channels import NoiseModel, noise_jump_operators, sample_thermal_initial
from lrusim.lattice import (
    MAX_DIMENSION,
    DimensionBudgetError,
    DisorderRealization,
    FockBasis,
    LatticeSpec,
    _dense,
    build_bose_hubbard,
    build_effective_propagation,
    build_site_operator,
    realize_disorder,
)
from lrusim.units import TWO_PI, angular_from_mhz

from conftest import (
    densify,
    dense_bose_hubbard_oracle,
    dissipative_no_jump,
    evolve_dense_oracle,
    fock_states,
)


FIG1 = dict(length=3, f_mhz=7500.0, u_mhz=250.0, j_mhz=5.0, w_mhz=100.0)


def fig1_spec(**over):
    kw = {**FIG1, **over}
    return LatticeSpec.from_mhz(kw["length"], kw["f_mhz"], kw["u_mhz"], kw["j_mhz"], kw["w_mhz"])


class TestDisorder:
    def test_zero_disorder_is_uniform(self):
        spec = fig1_spec(w_mhz=0.0)
        real = realize_disorder(spec, 7)
        assert np.all(real.omegas == spec.mean_frequency)
        assert np.all(real.anharmonicities == spec.mean_anharmonicity)

    def test_second_level_energy_is_pinned(self):
        spec = fig1_spec()
        target = TWO_PI * 14750.0  # 2*7.5 GHz - 250 MHz in rad/us
        for seed in range(20):
            real = realize_disorder(spec, seed)
            e2 = 2.0 * real.omegas - real.anharmonicities
            assert np.max(np.abs(e2 - target)) < 1e-12 * target

    def test_same_seed_is_bitwise_identical(self):
        spec = fig1_spec()
        a = realize_disorder(spec, 123)
        b = realize_disorder(spec, 123)
        assert np.array_equal(a.omegas, b.omegas)
        assert np.array_equal(a.anharmonicities, b.anharmonicities)

    def test_disorder_bounds(self):
        spec = fig1_spec()
        for seed in range(50):
            real = realize_disorder(spec, seed)
            assert np.max(np.abs(real.omegas - spec.mean_frequency)) <= spec.disorder / 2
            assert np.max(np.abs(real.anharmonicities - spec.mean_anharmonicity)) <= spec.disorder

    def test_resonance_constraint_residual(self):
        spec = fig1_spec()
        scale = abs(spec.second_level_energy)
        for seed in range(100):
            real = realize_disorder(spec, seed)
            resid = np.abs(2 * real.omegas - real.anharmonicities - spec.second_level_energy)
            assert resid.max() < 1e-12 * scale

    @pytest.mark.parametrize("omegas", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    def test_explicit_rejects_wrong_length(self, omegas):
        # a short or long array used to pass here and fail later inside
        # build_bose_hubbard with a bare matmul shape error
        with pytest.raises(ValueError, match=r"omegas must have shape \(3,\)"):
            DisorderRealization.explicit(LatticeSpec(3, 0.0, 10.0, 1.0), omegas)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mean_frequency", "mean_anharmonicity", "hopping",
                                       "disorder"])
    def test_spec_rejects_non_finite_values(self, field, value):
        # every comparison with NaN is false, so a bare "< 0" check let it through
        good = dict(length=3, mean_frequency=0.0, mean_anharmonicity=10.0, hopping=1.0,
                    disorder=0.5)
        with pytest.raises(ValueError, match="finite"):
            LatticeSpec(**{**good, field: value})


class TestSiteOperators:
    def test_annihilation_matrix_elements(self):
        a = build_site_operator(FockBasis(1), 1, "annihilation")
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(np.sqrt(2.0))
        assert np.count_nonzero(a) == 2

    def test_leakage_number_diagonal(self):
        leak = build_site_operator(FockBasis(1), 1, "leakage_number")
        assert np.allclose(np.diag(leak), [0.0, 0.0, 1.0])

    def test_invalid_site_raises(self):
        with pytest.raises(ValueError):
            build_site_operator(FockBasis(2), 3, "number")

    def test_number_commutes_with_hamiltonian(self, rng):
        spec = LatticeSpec(3, 10.0, 5.0, 0.7, 2.0)
        basis = FockBasis(3)
        number = np.diag(basis.occupations.sum(1)).astype(float)
        for seed in range(5):
            ham = build_bose_hubbard(realize_disorder(spec, seed), basis)
            comm = ham @ number - number @ ham
            assert np.abs(comm).max() < 1e-10


class TestFockBasis:
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_full_table_is_the_kronecker_order(self, length):
        basis = FockBasis(length)
        assert basis.occupations.tolist() == [list(s) for s in fock_states(length)]
        assert np.array_equal(basis.index(basis.occupations), np.arange(3**length))

    def test_sector_keeps_the_full_order(self):
        full = fock_states(5)
        for n_max in range(0, 11):
            sector = FockBasis(5, n_max)
            assert sector.occupations.tolist() == [list(s) for s in full if sum(s) <= n_max]
        assert [FockBasis(L, 2).dimension for L in (3, 4, 5, 8, 12)] == [10, 15, 21, 45, 91]

    def test_index_marks_states_outside(self):
        basis = FockBasis(3, 2)
        assert basis.index([[0, 1, 1], [1, 1, 1], [0, 0, 3], [0, -1, 0]]).tolist() == [4, -1, -1, -1]

    def test_sector_hamiltonian_is_the_oracle_block(self):
        spec = LatticeSpec(4, 9.0, 4.0, 0.8, 3.0)
        real = realize_disorder(spec, 6)
        oracle = dense_bose_hubbard_oracle(real.omegas, real.anharmonicities, spec.hopping)
        for n_max in (1, 2, 3):
            rows = [i for i, s in enumerate(fock_states(4)) if sum(s) <= n_max]
            ham = build_bose_hubbard(real, FockBasis(4, n_max))
            assert np.abs(ham - oracle[np.ix_(rows, rows)]).max() < 1e-12

    def test_sector_site_operators_are_full_blocks(self):
        rows = [i for i, s in enumerate(fock_states(3)) if sum(s) <= 2]
        sector = FockBasis(3, 2)
        for kind in ("annihilation", "creation", "number", "leakage_number"):
            full = build_site_operator(FockBasis(3), 2, kind)
            block = build_site_operator(sector, 2, kind)
            assert np.array_equal(block, full[np.ix_(rows, rows)]), kind

    def test_sector_no_jump_hamiltonian_is_the_full_block(self):
        spec = LatticeSpec(3, 2.0, 5.0, 0.4, 1.0)
        real = realize_disorder(spec, 2)
        rows = [i for i, s in enumerate(fock_states(3)) if sum(s) <= 2]
        full = dissipative_no_jump(real, FockBasis(3), 0.7)
        sector = dissipative_no_jump(real, FockBasis(3, 2), 0.7)
        assert np.abs(sector - full[np.ix_(rows, rows)]).max() < 1e-12

    def test_basis_must_match_lattice(self):
        # the two places where a disorder realization meets a basis
        real = realize_disorder(LatticeSpec(3, 1.0, 1.0, 0.1), 0)
        builders = {
            "build_bose_hubbard": lambda basis: build_bose_hubbard(real, basis),
            "sample_thermal_initial": lambda basis: sample_thermal_initial(
                real, NoiseModel(), [0.0, 0.0, 1.0], np.random.default_rng(0), basis),
        }
        for name, build in builders.items():
            for basis in (FockBasis(4, 2), FockBasis(2)):
                with pytest.raises(ValueError, match="disagree on length"):
                    build(basis)
                    pytest.fail(f"{name} accepted a basis of length {basis.length}")


class TestBoseHubbard:
    def test_two_excitation_sector_matrix(self):
        # omega = (0, 0), U = (U, U): sector {|20>,|02>,|11>} must be
        # diag(-U, -U, 0) with sqrt(2) J couplings
        u = 3.7
        j = 0.21
        spec = LatticeSpec(2, 0.0, u, j)
        real = DisorderRealization.explicit(spec, [0.0, 0.0])
        ham = build_bose_hubbard(real, FockBasis(2))
        idx20 = 2 * 3 + 0
        idx02 = 0 * 3 + 2
        idx11 = 1 * 3 + 1
        sector = np.ix_([idx20, idx02, idx11], [idx20, idx02, idx11])
        expected = np.array([
            [-u, 0, np.sqrt(2) * j],
            [0, -u, np.sqrt(2) * j],
            [np.sqrt(2) * j, np.sqrt(2) * j, 0],
        ])
        assert np.allclose(ham[sector], expected, atol=1e-12)

    def test_zero_hopping_is_diagonal(self):
        spec = LatticeSpec(2, 5.0, 2.0, 0.0, 1.0)
        ham = build_bose_hubbard(realize_disorder(spec, 3), FockBasis(2))
        assert np.abs(ham - np.diag(np.diag(ham))).max() == 0.0

    def test_matches_enumeration_oracle(self):
        spec = LatticeSpec(3, 9.0, 4.0, 0.8, 3.0)
        for seed in range(5):
            real = realize_disorder(spec, seed)
            ham = build_bose_hubbard(real, FockBasis(3))
            oracle = dense_bose_hubbard_oracle(real.omegas, real.anharmonicities, spec.hopping)
            evals = np.linalg.eigvalsh(ham)
            evals_oracle = np.linalg.eigvalsh(oracle)
            assert np.max(np.abs(evals - evals_oracle)) < 1e-10

    def test_hermitian_flag_checked(self):
        spec = fig1_spec()
        ham = build_bose_hubbard(realize_disorder(spec, 0), FockBasis(3))
        assert np.abs(ham - ham.conj().T).max() < 1e-12
        # the scatter refuses entries flagged hermitian that are not
        with pytest.raises(ValueError, match="not hermitian"):
            _dense(FockBasis(1), [0], [1], [1.0], hermitian=True)


class TestEffectivePropagation:
    def test_two_site_structure(self):
        spec = LatticeSpec(2, 0.0, 10.0, 1.0)
        mat = build_effective_propagation(spec)
        jp = spec.hopping_effective
        assert np.allclose(mat, [[jp, -jp], [-jp, jp]])

    def test_fig1_effective_hopping_value(self):
        spec = fig1_spec()
        assert spec.hopping_effective == pytest.approx(angular_from_mhz(0.2), rel=1e-12)

    def test_large_anharmonicity_limit(self):
        spec = LatticeSpec(3, 0.0, 1e12, 1.0)
        mat = build_effective_propagation(spec)
        assert np.abs(mat).max() < 1e-11

    def test_oscillation_frequency_matches_full_model(self):
        # at U/J = 250 the |20>-|02> oscillation of the full chain runs at
        # 2 J_prop within 2%
        j = 1.0
        u = 250.0
        spec = LatticeSpec(2, 0.0, u, j)
        real = DisorderRealization.explicit(spec, [0.0, 0.0])
        ham = build_bose_hubbard(real, FockBasis(2))
        psi0 = np.zeros(9, dtype=complex)
        psi0[2 * 3 + 0] = 1.0  # |20>
        t_prop = np.pi / (2 * spec.hopping_effective)
        times = np.linspace(0, 2.2 * t_prop, 4001)
        p02 = np.empty(times.size)
        evals, vecs = np.linalg.eigh(ham)
        coef = vecs.conj().T @ psi0
        for k, t in enumerate(times):
            psi = vecs @ (np.exp(-1j * evals * t) * coef)
            p02[k] = np.abs(psi[0 * 3 + 2]) ** 2
        t_star = times[np.argmax(p02)]
        fitted = np.pi / t_star
        assert fitted == pytest.approx(2 * spec.hopping_effective, rel=0.02)


class TestEffectiveNonHermitian:
    def test_effective_model_dissipation_matrix(self):
        # one leakage particle carries two bosons: the projector enters with
        # the full rate, matching the exactly solvable two-site model
        spec = LatticeSpec(2, 0.0, 10.0, 1.0)
        rate = 0.37
        out = build_effective_propagation(spec, rate)
        jp = spec.hopping_effective
        expected = np.array([[jp, -jp], [-jp, jp - 1j * rate]])
        assert np.allclose(out, expected, atol=1e-14)
        with pytest.raises(ValueError):
            build_effective_propagation(spec, -rate)

    def test_full_model_dissipation_uses_half_rate_number(self):
        spec = fig1_spec(length=2)
        real = realize_disorder(spec, 4)
        basis = FockBasis(2)
        rate = 1.3
        number = build_site_operator(basis, 2, "number")
        out = dissipative_no_jump(real, basis, rate)
        assert np.allclose(out, build_bose_hubbard(real, basis) - 0.5j * rate * number)

    def test_eigenvalues_have_nonpositive_imag(self, rng):
        spec = fig1_spec(length=2)
        basis = FockBasis(2)
        for seed in range(6):
            rate = float(rng.uniform(0, 50))
            out = dissipative_no_jump(realize_disorder(spec, seed), basis, rate)
            evals = np.linalg.eigvals(out)
            assert evals.imag.max() < 1e-9


class TestStorage:
    def test_every_builder_is_dense(self):
        spec = fig1_spec(length=3)
        real = realize_disorder(spec, 0)
        full, sector = FockBasis(3), FockBasis(3, 2)
        ops = [
            (build_bose_hubbard(real, full), full.dimension),
            (build_bose_hubbard(real, sector), sector.dimension),
            (build_site_operator(sector, 2, "creation"), sector.dimension),
            (build_effective_propagation(spec), spec.length),
            (build_effective_propagation(spec, 0.5), spec.length),
        ]
        for op, dimension in ops:
            assert isinstance(op, np.ndarray)
            assert op.shape == (dimension, dimension)
        # jump operators are monomials; densified, they are the sector's
        # sqrt(gamma) a_l and sqrt(2 kappa) n_l
        jumps = noise_jump_operators(NoiseModel(0.1, 0.1), sector)
        expected = [np.sqrt(rate) * build_site_operator(sector, site, kind)
                    for kind, rate in (("annihilation", 0.1), ("number", 0.2))
                    for site in (1, 2, 3)]
        assert len(jumps) == len(expected)
        for op, dense in zip(jumps, expected):
            matrix = densify(op, sector.dimension)
            assert isinstance(matrix, np.ndarray)
            assert matrix.shape == (sector.dimension, sector.dimension)
            assert np.array_equal(matrix, dense)

    def test_over_budget_raises_before_allocating(self):
        # 3**8 = 6561 states: a dense complex Hamiltonian would take 657 MiB
        spec = LatticeSpec(8, 10.0, 5.0, 0.3, 1.0)
        assert 3**spec.length > MAX_DIMENSION
        real = realize_disorder(spec, 0)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionBudgetError):
                build_bose_hubbard(real, FockBasis(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_unitary_sector_dynamics_of_oracle(self):
        # spot-check: library operator evolves a state identically to the
        # enumeration-oracle Hamiltonian
        spec = LatticeSpec(2, 3.0, 8.0, 0.5, 1.0)
        real = realize_disorder(spec, 11)
        ham = build_bose_hubbard(real, FockBasis(2))
        oracle = dense_bose_hubbard_oracle(real.omegas, real.anharmonicities, spec.hopping)
        psi0 = np.zeros(9, dtype=complex)
        psi0[6] = 1.0
        a = evolve_dense_oracle(ham, psi0, 2.3)
        b = evolve_dense_oracle(oracle, psi0, 2.3)
        assert np.abs(a - b).max() < 1e-10
