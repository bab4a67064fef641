"""Shared oracle helpers for the test suite.

The oracles here are written independently of the library paths they
check: the dense Hamiltonian is assembled by explicit basis enumeration
rather than Kronecker products, and time evolution uses a one-off
eigendecomposition.
"""

import numpy as np
import pytest

from lrusim.channels import ResetChannel, channel_jump_operators, jump_table
from lrusim.lattice import FockBasis, build_bose_hubbard


def fock_states(length: int, d: int = 3):
    """All occupation tuples, site 1 most significant (library ordering)."""
    states = [()]
    for _ in range(length):
        states = [s + (n,) for s in states for n in range(d)]
    return states


def dense_bose_hubbard_oracle(omegas, anharmonicities, hopping, d: int = 3) -> np.ndarray:
    """Dense chain Hamiltonian by explicit matrix-element enumeration."""
    omegas = np.asarray(omegas, float)
    anh = np.asarray(anharmonicities, float)
    length = omegas.size
    states = fock_states(length, d)
    index = {s: i for i, s in enumerate(states)}
    dim = len(states)
    ham = np.zeros((dim, dim), dtype=complex)
    for s in states:
        i = index[s]
        diag = sum(
            omegas[l] * s[l] - 0.5 * anh[l] * s[l] * (s[l] - 1)
            for l in range(length)
        )
        ham[i, i] = diag
        for l in range(length - 1):
            # a_l^dag a_{l+1}: moves one boson from site l+1 to site l
            if s[l + 1] >= 1 and s[l] + 1 < d:
                t = list(s)
                t[l] += 1
                t[l + 1] -= 1
                j = index[tuple(t)]
                amp = hopping * np.sqrt((s[l] + 1) * s[l + 1])
                ham[j, i] += amp
                ham[i, j] += amp
    return ham


def basis_state(occupations) -> np.ndarray:
    """Full-space amplitudes of the Fock state |n_1 n_2 ... n_L>, site 1 leftmost.

    Uses the library's row lookup, which `TestFockBasis` checks against
    `fock_states`.
    """
    basis = FockBasis(len(occupations))
    (row,) = basis.index([occupations])
    assert row >= 0, "occupation outside the local dimension"
    amp = np.zeros(basis.dimension, dtype=complex)
    amp[row] = 1.0
    return amp


def dissipative_no_jump(real, basis, rate: float) -> np.ndarray:
    """H - (i/2) diag(d) under dissipation sqrt(rate) a_L, the rule the engine runs."""
    jumps = channel_jump_operators(ResetChannel("dissipation", rate), basis)
    decay = jump_table(jumps, basis.dimension).decay
    return build_bose_hubbard(real, basis) - 0.5j * np.diag(decay)


def evolve_dense_oracle(ham: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) psi0 through a fresh eigendecomposition (Hermitian H)."""
    evals, vecs = np.linalg.eigh(ham)
    return vecs @ (np.exp(-1j * evals * t) * (vecs.conj().T @ psi0))


def evolve_nonhermitian_oracle(ham: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    evals, vecs = np.linalg.eig(ham)
    coeff = np.linalg.solve(vecs, psi0)
    return vecs @ (np.exp(-1j * evals * t) * coeff)


def densify(op, dimension: int) -> np.ndarray:
    """Dense matrix of a monomial operator (src, dst, amp): sum_k amp_k |dst_k><src_k|."""
    src, dst, amp = op
    matrix = np.zeros((dimension, dimension), dtype=complex)
    np.add.at(matrix, (dst, src), amp)
    return matrix


def reset_kraus_oracle(occupations) -> list[np.ndarray]:
    """Dense |0><n| at the last site for each level n, by looking up every emptied state."""
    index = {tuple(row): i for i, row in enumerate(occupations.tolist())}
    dim = len(occupations)
    kraus = [np.zeros((dim, dim)) for _ in range(3)]
    for i, row in enumerate(occupations.tolist()):
        emptied = list(row)
        emptied[-1] = 0
        kraus[row[-1]][index[tuple(emptied)], i] = 1.0
    return kraus


def born_oracle(amplitudes, occupations) -> np.ndarray:
    """Born probabilities (..., 3) of the last site's levels, ||K_n psi||^2 / ||psi||^2.

    Batched over the leading axes of `amplitudes`, with the dense K_n of
    `reset_kraus_oracle`; the states need not be normalized.
    """
    amps = np.asarray(amplitudes)
    probs = np.stack([np.linalg.norm(amps @ k.T, axis=-1) ** 2
                      for k in reset_kraus_oracle(occupations)], axis=-1)
    return probs / probs.sum(axis=-1, keepdims=True)


def dense_lindblad_rhs(ham: np.ndarray, jumps, rho: np.ndarray) -> np.ndarray:
    """-i [H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho} / 2), all dense."""
    drho = -1j * (ham @ rho - rho @ ham)
    for op in jumps:
        ldl = op.conj().T @ op
        drho += op @ rho @ op.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return drho


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
