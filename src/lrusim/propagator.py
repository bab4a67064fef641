"""Time evolution under Hermitian and non-Hermitian Hamiltonians.

Small systems diagonalize the Hamiltonian (exact for any step size);
larger ones use an Arnoldi/Krylov approximation of exp(-i H dt) psi with a
residual-controlled adaptive restart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .lattice import OperatorMatrix

#: Largest dimension for which the exact eigendecomposition path is used.
EXACT_DIM_LIMIT = 729

DEFAULT_KRYLOV_DIM = 20
DEFAULT_KRYLOV_TOL = 1e-10


class KrylovConvergenceError(Exception):
    """Krylov step failed to reach the requested tolerance."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"Krylov residual {residual:.3e} above tolerance {tol:.3e}")
        self.residual = residual
        self.tol = tol


@dataclass
class StateVector:
    """Complex amplitude vector over the product basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm() ** 2 - 1.0) < 1e-9

    def normalized(self) -> "StateVector":
        return StateVector(self.amplitudes / self.norm())

    @classmethod
    def basis_state(cls, spec, occupations) -> "StateVector":
        """Product Fock state |n_1 n_2 ... n_L>, site 1 leftmost."""
        occupations = list(occupations)
        if len(occupations) != spec.length:
            raise ValueError("need one occupation per site")
        idx = 0
        for n in occupations:
            if not 0 <= n < spec.local_dim:
                raise ValueError("occupation outside local dimension")
            idx = idx * spec.local_dim + n
        amp = np.zeros(spec.dimension, dtype=complex)
        amp[idx] = 1.0
        return cls(amp)

    @classmethod
    def product_state(cls, locals_) -> "StateVector":
        """Tensor product of per-site local state vectors."""
        amp = np.array([1.0], dtype=complex)
        for loc in locals_:
            amp = np.kron(amp, np.asarray(loc, dtype=complex))
        return cls(amp)


def eigensystem(matrices, hermitian: bool):
    """Eigenvalues, right eigenvectors and their inverse, over leading batch axes.

    `matrices` has shape (..., n, n). Hermitian input goes through `eigh`,
    whose eigenvector matrix inverts by conjugate transposition; anything
    else through `eig` plus an explicit inverse. Eigenvalues are complex
    either way, so exp(-i lambda t) reads the same for both.
    """
    if hermitian:
        evals, vecs = np.linalg.eigh(matrices)
        return evals.astype(complex), vecs, vecs.conj().swapaxes(-1, -2)
    evals, vecs = np.linalg.eig(matrices)
    return evals, vecs, np.linalg.inv(vecs)


@dataclass
class Propagator:
    """Evolution method selector.

    method "auto" picks exact eigendecomposition for dimensions up to
    EXACT_DIM_LIMIT and Krylov above; "exact" and "krylov" force a path.
    """

    method: str = "auto"
    krylov_dim: int = DEFAULT_KRYLOV_DIM
    krylov_tol: float = DEFAULT_KRYLOV_TOL

    def _resolve(self, dim: int) -> str:
        if self.method == "auto":
            return "exact" if dim <= EXACT_DIM_LIMIT else "krylov"
        if self.method == "exact" and dim > EXACT_DIM_LIMIT:
            raise ValueError(f"exact method limited to dimension {EXACT_DIM_LIMIT}")
        return self.method


def propagate(prop: Propagator, ham: OperatorMatrix, psi: StateVector, dt: float) -> StateVector:
    """Return exp(-i H dt) |psi>.

    Norm is preserved (to float rounding) for hermitian H; non-increasing
    for the no-jump Hamiltonians produced by the reset channels.
    """
    amp = psi.amplitudes
    if amp.size != ham.dimension:
        raise ValueError("state and operator dimensions differ")
    method = prop._resolve(ham.dimension)
    if method == "exact":
        evals, vecs, vinv = eigensystem(ham.dense(), ham.hermitian)
        return StateVector(vecs @ (np.exp(-1j * evals * dt) * (vinv @ amp)))
    out = krylov_expm_apply(
        ham.data, amp, dt, m=prop.krylov_dim, tol=prop.krylov_tol,
        hermitian=ham.hermitian,
    )
    return StateVector(out)


def propagate_nonhermitian_norm(ham_eff: OperatorMatrix, psi0: StateVector, t_grid) -> np.ndarray:
    """Squared norm of exp(-i H_eff t) |psi0> on a time grid.

    For a dissipative no-jump Hamiltonian the result is the trajectory
    survival probability and is monotone non-increasing.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    amp = psi0.amplitudes
    if ham_eff.dimension <= EXACT_DIM_LIMIT:
        evals, vecs, vinv = eigensystem(ham_eff.dense(), ham_eff.hermitian)
        phases = np.exp(-1j * np.outer(t_grid, evals))  # (nt, dim)
        states = phases * (vinv @ amp)  # eigenbasis coefficients at each time
        site = states @ vecs.T  # (nt, dim) amplitudes in the site basis
        return np.einsum("ti,ti->t", site, site.conj()).real
    norms = np.empty(t_grid.size)
    prop = Propagator(method="krylov")
    current = amp.copy()
    t_prev = 0.0
    for i, t in enumerate(t_grid):
        if t < t_prev:
            raise ValueError("t_grid must be non-decreasing")
        if t > t_prev:
            current = krylov_expm_apply(ham_eff.data, current, t - t_prev,
                                        m=prop.krylov_dim, tol=prop.krylov_tol,
                                        hermitian=False)
        norms[i] = np.vdot(current, current).real
        t_prev = t
    return norms


def krylov_expm_apply(matrix, vec: np.ndarray, dt: float, m: int = DEFAULT_KRYLOV_DIM,
                      tol: float = DEFAULT_KRYLOV_TOL, hermitian: bool = True,
                      max_substeps: int = 4096) -> np.ndarray:
    """Arnoldi approximation of exp(-i A dt) v with adaptive substepping.

    The step is split in half whenever the standard a-posteriori residual
    estimate (last-row coupling of the Hessenberg matrix) exceeds `tol`
    relative to the vector norm. Works for non-Hermitian A as well; the
    Arnoldi basis is built the same way, only without the short recurrence.
    """
    if dt == 0:
        return vec.copy()
    remaining = float(dt)
    sub = float(dt)
    current = vec.astype(complex)
    steps = 0
    while remaining > 0:
        step = min(sub, remaining)
        new, err = _arnoldi_step(matrix, current, step, m)
        scale = np.linalg.norm(current)
        if scale == 0:
            return current
        if err > tol * scale:
            sub = step / 2.0
            steps += 1
            if steps > max_substeps:
                raise KrylovConvergenceError(err / scale, tol)
            continue
        current = new
        remaining -= step
        steps += 1
        if steps > max_substeps:
            raise KrylovConvergenceError(err / scale, tol)
    return current


def _arnoldi_step(matrix, vec: np.ndarray, dt: float, m: int):
    """One Krylov step: returns (exp(-i A dt) v approx, residual estimate)."""
    beta = np.linalg.norm(vec)
    if beta == 0:
        return vec.copy(), 0.0
    n = vec.size
    m = min(m, n)
    basis = np.zeros((m + 1, n), dtype=complex)
    hess = np.zeros((m + 1, m), dtype=complex)
    basis[0] = vec / beta
    used = m
    breakdown = False
    for j in range(m):
        w = matrix @ basis[j]
        # modified Gram-Schmidt with one reorthogonalization pass
        for _ in range(2):
            for i in range(j + 1):
                h = np.vdot(basis[i], w)
                hess[i, j] += h
                w = w - h * basis[i]
        h_next = np.linalg.norm(w)
        hess[j + 1, j] = h_next
        if h_next < 1e-14 * beta:
            used = j + 1
            breakdown = True
            break
        basis[j + 1] = w / h_next
    h_small = hess[:used, :used]
    small_exp = scipy.linalg.expm(-1j * dt * h_small)
    coeff = beta * small_exp[:, 0]
    result = coeff @ basis[:used]
    if breakdown:
        return result, 0.0
    # residual estimate from the Hessenberg coupling to the discarded vector,
    # sampled at dt and dt/2 to guard against an endpoint zero-crossing
    half = beta * scipy.linalg.expm(-0.5j * dt * h_small)[:, 0]
    tail = max(abs(coeff[used - 1]), abs(half[used - 1]))
    err = float(abs(dt * hess[used, used - 1]) * tail)
    return result, err
