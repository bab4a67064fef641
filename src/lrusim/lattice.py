"""Disordered transmon array: domain types and Hamiltonian construction.

The array is a chain of L qutrits (bosonic modes truncated at n = 2) with
on-site frequency omega_l, attractive anharmonicity U_l and uniform
nearest-neighbor hopping J, open boundary conditions. Disorder is drawn so
that the second-level energy 2*omega_l - U_l is identical on every site:
the single-excitation levels are detuned site to site while the two-boson
("leakage") level stays resonant across the chain.

Every chain operator is a plain dense ndarray over a `FockBasis` the caller
passes: the full 3**L space, `FockBasis(L)`, or one of its
excitation-number sectors, with matrix elements read off the basis
occupation table. The one operator not over a `FockBasis` is the L x L
effective model of a single leakage pair
(`build_effective_propagation`). No-jump Hamiltonians are not built here:
they are H - (i/2) diag(d), with d from `channels.decay_rates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .units import angular_from_mhz

#: Largest Fock basis, full space or sector, that FockBasis builds: 3**6,
#: the full space of six qutrits. The engine diagonalizes one dense operator
#: per trajectory and the oracle integrates dimension**2 density entries,
#: both over such a basis, so this is the one size limit of the package.
MAX_DIMENSION = 729

#: Levels per site: the qubit pair |0>, |1> and the leakage level |2>.
LEVELS = 3

HERMITICITY_TOL = 1e-12

SITE_OPERATOR_KINDS = ("annihilation", "creation", "number", "leakage_number")


class DimensionBudgetError(ValueError):
    """Requested Hilbert space exceeds the configured memory budget."""


@dataclass(frozen=True)
class LatticeSpec:
    """Static parameters of the transmon chain (angular frequencies).

    Parameters
    ----------
    length : int
        Number of transmons L.
    mean_frequency : float
        Mean on-site frequency, rad/us.
    mean_anharmonicity : float
        Mean anharmonicity, rad/us. Must be positive.
    hopping : float
        Nearest-neighbor hopping rate J, rad/us.
    disorder : float
        Disorder strength W of the first-level spread, rad/us.
    """

    length: int
    mean_frequency: float
    mean_anharmonicity: float
    hopping: float
    disorder: float = 0.0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not math.isfinite(self.mean_frequency):
            raise ValueError("mean_frequency must be finite")
        if not (0 <= self.hopping < math.inf and 0 <= self.disorder < math.inf):
            raise ValueError("hopping and disorder must be non-negative and finite")
        if not 0 < self.mean_anharmonicity < math.inf:
            raise ValueError("mean_anharmonicity must be positive and finite")

    @classmethod
    def from_mhz(cls, length, f_mhz, u_mhz, j_mhz, w_mhz=0.0):
        """Build a spec from ordinary frequencies in MHz (times in us)."""
        return cls(
            length=length,
            mean_frequency=angular_from_mhz(f_mhz),
            mean_anharmonicity=angular_from_mhz(u_mhz),
            hopping=angular_from_mhz(j_mhz),
            disorder=angular_from_mhz(w_mhz),
        )

    @property
    def hopping_effective(self) -> float:
        """Leakage-pair hopping rate 2 J^2 / U_bar."""
        return 2.0 * self.hopping**2 / self.mean_anharmonicity

    @property
    def second_level_energy(self) -> float:
        """Uniform two-boson on-site energy 2*omega_bar - U_bar."""
        return 2.0 * self.mean_frequency - self.mean_anharmonicity


@dataclass(frozen=True)
class DisorderRealization:
    """One draw of per-site frequencies and anharmonicities.

    Satisfies 2*omegas - anharmonicities == spec.second_level_energy exactly
    (up to float rounding) on every site.
    """

    spec: LatticeSpec
    omegas: np.ndarray
    anharmonicities: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("omegas", "anharmonicities"):
            if np.shape(getattr(self, name)) != (self.spec.length,):
                raise ValueError(f"{name} must have shape ({self.spec.length},), "
                                 f"got {np.shape(getattr(self, name))}")
        e2 = 2.0 * self.omegas - self.anharmonicities
        if np.max(np.abs(e2 - self.spec.second_level_energy)) > 1e-9 * max(
            1.0, abs(self.spec.second_level_energy)
        ):
            raise ValueError("realization violates the uniform second-level constraint")

    @classmethod
    def explicit(cls, spec: LatticeSpec, omegas) -> "DisorderRealization":
        """Realization with given on-site frequencies; anharmonicities follow
        from the uniform second-level constraint."""
        omegas = np.asarray(omegas, dtype=float)
        anh = 2.0 * omegas - spec.second_level_energy
        return cls(spec=spec, omegas=omegas, anharmonicities=anh, seed=-1)


def realize_disorder(spec: LatticeSpec, seed: int) -> DisorderRealization:
    """Draw one disorder realization.

    The first-level detunings are i.i.d. uniform on [-W/2, +W/2]; the
    anharmonicities follow from the uniform second-level constraint,
    U_l = 2*omega_l - (2*omega_bar - U_bar), giving them spread W.
    Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-spec.disorder / 2.0, spec.disorder / 2.0, spec.length)
    omegas = spec.mean_frequency + delta
    # equivalent to 2*omega_l - (2*omega_bar - U_bar) but exact at delta = 0
    anh = spec.mean_anharmonicity + 2.0 * delta
    return DisorderRealization(spec=spec, omegas=omegas, anharmonicities=anh, seed=seed)


class FockBasis:
    """Occupation table of the Fock states |n_1 ... n_L> with N = sum_l n_l <= max_excitations.

    Rows keep the order of the full 3**L Kronecker space, site 1 most
    significant; with max_excitations = 2L, the default, the table is the
    full space itself. The Hamiltonian conserves N and every jump
    and reset lowers it, so all of them act inside one such sector.
    """

    def __init__(self, length: int, max_excitations: int | None = None):
        full = length * (LEVELS - 1)
        max_excitations = full if max_excitations is None else min(max_excitations, full)
        if length < 1 or max_excitations < 0:
            raise ValueError("need length >= 1 and max_excitations >= 0")
        if LEVELS**length > 2**62:
            raise ValueError("full-space indices would overflow 64 bits")
        occ = np.zeros((1, 0), dtype=np.int64)
        for _ in range(length):
            occ = np.column_stack([np.repeat(occ, LEVELS, axis=0),
                                   np.tile(np.arange(LEVELS), len(occ))])
            occ = occ[occ.sum(axis=1) <= max_excitations]
            if len(occ) > MAX_DIMENSION:
                raise DimensionBudgetError(f"basis exceeds budget {MAX_DIMENSION}")
        self.length = length
        self.max_excitations = max_excitations
        #: (dimension, L) occupations, one row per basis state
        self.occupations = occ
        self._place = LEVELS ** np.arange(length - 1, -1, -1)
        # full-space index of every row, ascending because the order is kept
        self._codes = occ @ self._place
        occ.flags.writeable = False

    @property
    def dimension(self) -> int:
        return len(self.occupations)

    def index(self, occupations) -> np.ndarray:
        """Row of each occupation tuple (..., L) in the table; -1 where absent."""
        occ = np.asarray(occupations)
        codes = occ @ self._place
        rows = np.minimum(np.searchsorted(self._codes, codes), self.dimension - 1)
        inside = (self._codes[rows] == codes) & ((occ >= 0) & (occ < LEVELS)).all(-1)
        return np.where(inside, rows, -1)

    def transitions(self, change: dict) -> tuple[np.ndarray, np.ndarray]:
        """Rows (i, j) with occupations[j] = occupations[i] + change, both in the table.

        `change` maps 1-based sites to occupation steps, e.g. {2: -1}.
        """
        step = np.zeros(self.length, dtype=np.int64)
        for site, delta in change.items():
            step[site - 1] = delta
        target = self.index(self.occupations + step)
        src = np.nonzero(target >= 0)[0]
        return src, target[src]

    def check(self, spec: LatticeSpec):
        if self.length != spec.length:
            raise ValueError("basis and lattice disagree on length")


def _dense(basis: FockBasis, rows, cols, values, hermitian: bool) -> np.ndarray:
    """Dense operator over `basis` with `values` accumulated at (rows, cols)."""
    values = np.asarray(values)
    matrix = np.zeros((basis.dimension, basis.dimension), dtype=values.dtype)
    np.add.at(matrix, (rows, cols), values)
    if hermitian:
        maxdiff = np.abs(matrix - matrix.conj().T).max(initial=0.0)
        if maxdiff > HERMITICITY_TOL * max(1.0, np.abs(matrix).max(initial=0.0)):
            raise ValueError("matrix flagged hermitian is not hermitian")
    return matrix


class Monomial(NamedTuple):
    """Operator sum_k amp_k |dst_k><src_k| over the rows of a FockBasis.

    Every operator of the model that is not the Hamiltonian maps each Fock
    state to at most one Fock state and no two states to the same one: the
    entries of `src` are distinct, and so are those of `dst`. Its L^dag L is
    therefore diagonal, with |amp_k|^2 at row src_k.
    """

    src: np.ndarray
    dst: np.ndarray
    amp: np.ndarray


def site_monomial(basis: FockBasis, site: int, kind: str) -> Monomial:
    """Local operator at `site` (1-based) as a Monomial over `basis`.

    Matrix elements are read off the basis occupations. A creation
    operator drops the states it would raise out of a sector.
    """
    if not 1 <= site <= basis.length:
        raise ValueError(f"site {site} outside 1..{basis.length}")
    if kind not in SITE_OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    n = basis.occupations[:, site - 1].astype(float)
    if kind in ("number", "leakage_number"):
        diag = n if kind == "number" else n * (n - 1.0) / 2.0
        rows = np.flatnonzero(diag)
        return Monomial(rows, rows, diag[rows])
    # <n-1|a|n> = sqrt(n) and <n+1|a^dag|n> = sqrt(n+1)
    lowering = kind == "annihilation"
    src, dst = basis.transitions({site: -1 if lowering else +1})
    return Monomial(src, dst, np.sqrt(n[src] if lowering else n[src] + 1.0))


def build_site_operator(basis: FockBasis, site: int, kind: str) -> np.ndarray:
    """Local operator at `site` (1-based) as a dense matrix over `basis`.

    The dense form of `site_monomial`.
    """
    op = site_monomial(basis, site, kind)
    return _dense(basis, op.dst, op.src, op.amp,
                  hermitian=kind in ("number", "leakage_number"))


def build_bose_hubbard(real: DisorderRealization, basis: FockBasis) -> np.ndarray:
    """Chain Hamiltonian for one disorder realization, as a dense matrix over `basis`.

    H = sum_l [omega_l n_l - (U_l/2) n_l (n_l - 1) + J (a_l^dag a_{l+1} + h.c.)]
    with open boundaries. H conserves the total excitation number, so it
    closes on every excitation-number sector.
    """
    spec = real.spec
    basis.check(spec)
    n = basis.occupations.astype(float)
    diagonal = np.arange(basis.dimension)
    rows, cols = [diagonal], [diagonal]
    values = [n @ real.omegas - 0.5 * (n * (n - 1.0)) @ real.anharmonicities]
    for site in range(1, spec.length):
        # a_l^dag a_{l+1} moves one boson from site l+1 to site l
        src, dst = basis.transitions({site: +1, site + 1: -1})
        amp = spec.hopping * np.sqrt((n[src, site - 1] + 1.0) * n[src, site])
        rows += [dst, src]
        cols += [src, dst]
        values += [amp, amp]
    return _dense(basis, np.concatenate(rows), np.concatenate(cols),
                  np.concatenate(values).astype(complex), hermitian=True)


def build_effective_propagation(spec: LatticeSpec, rate: float = 0.0) -> np.ndarray:
    """No-jump Hamiltonian of one leakage pair hopping along the chain.

    L x L matrix over the pair's position: H_prop has diagonal (J_prop, 0,
    ..., 0, J_prop) and off-diagonals -J_prop, where J_prop = 2 J^2 / U_bar;
    the edge entries are the boundary-induced detuning of the end sites.
    Valid for J/U_bar << 1. Dissipation sqrt(rate) a_L at the last site
    empties the pair state |2> at 2*rate, so the chain's no-jump rule
    H - (i/2) diag(d) subtracts i*rate at the last position.
    """
    if not rate >= 0:
        raise ValueError("rate must be non-negative")
    L = spec.length
    jp = spec.hopping_effective
    mat = np.zeros((L, L), dtype=complex)
    mat[0, 0] = jp
    mat[L - 1, L - 1] = jp
    bond = np.arange(L - 1)
    mat[bond, bond + 1] = -jp
    mat[bond + 1, bond] = -jp
    mat[L - 1, L - 1] -= 1j * rate
    return mat
