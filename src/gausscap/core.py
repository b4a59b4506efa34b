"""Covariance-matrix algebra for zero-mean bosonic Gaussian states.

Quadratures are ordered mode by mode as (q1, p1, ..., qn, pn) and the
vacuum covariance is the identity, so a thermal state with mean photon
number N has covariance (2N + 1) * I.  All entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

SYMMETRY_ATOL = 1e-12
PHYSICALITY_ATOL = 1e-9
PAIR_ATOL = 1e-8
SYMPLECTIC_ATOL = 1e-10

# Phase-space action of complex conjugation (q -> q, p -> -p).
PHASE_FLIP = np.diag([1.0, -1.0])
PHASE_FLIP.setflags(write=False)


class PhysicalityError(ValueError):
    """Matrix cannot be the covariance of a physical Gaussian state."""


@lru_cache(maxsize=None)
def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Block-diagonal symplectic form with [[0, 1], [-1, 0]] per mode (read-only)."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    form = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    form.setflags(write=False)
    return form


def symplectic_residual(matrix: NDArray[np.float64]) -> float:
    """Max-abs deviation of S @ Omega @ S.T from Omega."""
    matrix = np.asarray(matrix, dtype=float)
    omega = symplectic_form(matrix.shape[0] // 2)
    return float(np.max(np.abs(matrix @ omega @ matrix.T - omega)))


def _paired_spectrum(data: NDArray[np.float64]) -> NDArray[np.float64]:
    """Symplectic eigenvalues as |eig(Omega @ data)|, one per +/- pair, descending."""
    omega = symplectic_form(data.shape[0] // 2)
    mags = np.sort(np.abs(np.linalg.eigvals(omega @ data)))[::-1]
    pairs = mags.reshape(-1, 2)
    if np.any(pairs[:, 0] - pairs[:, 1] > PAIR_ATOL * np.maximum(pairs[:, 0], 1.0)):
        raise ArithmeticError("spectrum of Omega @ Gamma does not split into +/- pairs")
    return pairs.mean(axis=1)


@dataclass(frozen=True, eq=False, repr=False)
class CovarianceMatrix:
    """Quadrature covariance matrix of an n-mode Gaussian state.

    Construction validates symmetry (to 1e-12), positive definiteness and
    the uncertainty condition (every symplectic eigenvalue >= 1 - 1e-9).
    The stored array is read-only.
    """

    data: NDArray[np.float64]

    def __post_init__(self) -> None:
        data = np.array(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("covariance matrix must be square")
        if data.shape[0] == 0 or data.shape[0] % 2 != 0:
            raise ValueError("covariance matrix must be 2n x 2n with n >= 1")
        asymmetry = float(np.max(np.abs(data - data.T)))
        if asymmetry > SYMMETRY_ATOL:
            raise ValueError(f"covariance matrix is not symmetric (max asymmetry {asymmetry:.3e})")
        data = 0.5 * (data + data.T)
        if float(np.linalg.eigvalsh(data)[0]) <= 0.0:
            raise PhysicalityError("covariance matrix is not positive definite")
        spectrum = _paired_spectrum(data)
        nu_min = float(spectrum.min())
        if nu_min < 1.0 - PHYSICALITY_ATOL:
            raise PhysicalityError(
                f"uncertainty condition violated: min symplectic eigenvalue {nu_min:.12g} < 1"
            )
        data.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "data", data)
        # The matrix is immutable, so the spectrum computed for validation
        # can be reused by symplectic_eigenvalues/entropy.
        object.__setattr__(self, "_spectrum", spectrum)

    @property
    def n_modes(self) -> int:
        return self.data.shape[0] // 2

    def __repr__(self) -> str:  # keep reprs short; the payload is a matrix
        return f"CovarianceMatrix(n_modes={self.n_modes})"


@dataclass(frozen=True, eq=False, repr=False)
class SymplecticMatrix:
    """Gaussian unitary in phase space: S Omega S.T = Omega to 1e-10 * max(1, max|S|^2) (roundoff grows with |S|^2)."""

    data: NDArray[np.float64]

    def __post_init__(self) -> None:
        data = np.array(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] % 2 != 0:
            raise ValueError("symplectic matrix must be 2n x 2n")
        residual = symplectic_residual(data)
        if residual > SYMPLECTIC_ATOL * max(1.0, float(np.max(np.abs(data))) ** 2):
            raise ValueError(f"matrix is not symplectic (residual {residual:.3e})")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n_modes(self) -> int:
        return self.data.shape[0] // 2

    def __repr__(self) -> str:
        return f"SymplecticMatrix(n_modes={self.n_modes})"


@dataclass(frozen=True)
class ModePartition:
    """Split of the mode indices {0, ..., n-1} into kept and traced groups.

    Order inside ``kept`` is respected by ``partial_trace``, so a partition
    can also reorder the surviving modes.  For ``conditional_entropy`` the
    ``traced`` group plays the role of the conditioning system.
    """

    kept: tuple[int, ...]
    traced: tuple[int, ...]

    def __post_init__(self) -> None:
        kept = tuple(int(m) for m in self.kept)
        traced = tuple(int(m) for m in self.traced)
        seen = kept + traced
        if len(set(seen)) != len(seen):
            raise ValueError("kept and traced mode lists must be disjoint and free of duplicates")
        if set(seen) != set(range(len(seen))):
            raise ValueError("kept and traced must together cover modes 0..n-1")
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "traced", traced)

    @property
    def n_modes(self) -> int:
        return len(self.kept) + len(self.traced)

    @classmethod
    def keeping(cls, kept: Sequence[int], n_modes: int) -> "ModePartition":
        """Partition that keeps ``kept`` (in the given order) out of ``n_modes``."""
        kept = tuple(int(m) for m in kept)
        traced = tuple(m for m in range(n_modes) if m not in kept)
        return cls(kept=kept, traced=traced)


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def vacuum_state(n_modes: int = 1) -> CovarianceMatrix:
    """Vacuum covariance (identity) on ``n_modes`` modes."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return CovarianceMatrix(np.eye(2 * n_modes))


def thermal_state(mean_photon: float) -> CovarianceMatrix:
    """Single-mode thermal state: (2N + 1) * I, so det = (2N + 1)^2."""
    if mean_photon < 0:
        raise ValueError("mean photon number must be nonnegative")
    return CovarianceMatrix((2.0 * mean_photon + 1.0) * np.eye(2))


def squeezed_thermal_state(thermal_photon: float, squeeze: float) -> CovarianceMatrix:
    """Single-mode squeezed thermal state (2N + 1) * diag(e^{-2r}, e^{2r}).

    The determinant (2N + 1)^2 is independent of the squeezing r.
    """
    if thermal_photon < 0:
        raise ValueError("mean photon number must be nonnegative")
    if squeeze < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    diag = (2.0 * thermal_photon + 1.0) * np.array(
        [np.exp(-2.0 * squeeze), np.exp(2.0 * squeeze)]
    )
    return CovarianceMatrix(np.diag(diag))


def two_mode_squeezed_state(squeeze: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum; pure, with thermal marginals of sinh(r)^2 photons."""
    ch = np.cosh(2.0 * squeeze) * np.eye(2)
    sh = np.sinh(2.0 * squeeze) * PHASE_FLIP
    return CovarianceMatrix(np.block([[ch, sh], [sh, ch]]))


def _block_diag(*blocks: NDArray[np.float64]) -> NDArray[np.float64]:
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    start = 0
    for b in blocks:
        out[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    return out


def direct_sum(*states: CovarianceMatrix) -> CovarianceMatrix:
    """Covariance of the product state, modes concatenated in argument order."""
    if not states:
        raise ValueError("direct_sum needs at least one state")
    return CovarianceMatrix(_block_diag(*(s.data for s in states)))


# ---------------------------------------------------------------------------
# symplectic building blocks
# ---------------------------------------------------------------------------

def rotation_symplectic(angle: float) -> NDArray[np.float64]:
    """Single-mode phase rotation."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]])


def squeezing_symplectic(squeeze: float) -> NDArray[np.float64]:
    """Single-mode squeezer diag(e^{-r}, e^{r})."""
    return np.diag([np.exp(-squeeze), np.exp(squeeze)])


def mixing_symplectic(transmissivity: float) -> NDArray[np.float64]:
    """Two-mode beam-splitter block [[sqrt(t) I, sqrt(1-t) I], [-sqrt(1-t) I, sqrt(t) I]]."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    a, b = np.sqrt(transmissivity), np.sqrt(1.0 - transmissivity)
    return np.array([[a, 0.0, b, 0.0], [0.0, a, 0.0, b], [-b, 0.0, a, 0.0], [0.0, -b, 0.0, a]])


def amplifier_block(gain: float) -> NDArray[np.float64]:
    """Two-mode amplifier block [[sqrt(k) I, sqrt(k-1) Z], [sqrt(k-1) Z, sqrt(k) I]]."""
    if gain < 1.0:
        raise ValueError("amplifier gain must be >= 1")
    a = np.sqrt(gain) * np.eye(2)
    b = np.sqrt(gain - 1.0) * PHASE_FLIP
    return np.block([[a, b], [b, a]])


def two_mode_squeezing_symplectic(squeeze: float) -> NDArray[np.float64]:
    """Two-mode squeezer [[cosh(r) I, sinh(r) Z], [sinh(r) Z, cosh(r) I]]."""
    ch = np.cosh(squeeze) * np.eye(2)
    sh = np.sinh(squeeze) * PHASE_FLIP
    return np.block([[ch, sh], [sh, ch]])


def apply_symplectic(transform: SymplecticMatrix | NDArray[np.float64], state: CovarianceMatrix) -> CovarianceMatrix:
    """Conjugate a covariance matrix: S @ Gamma @ S.T."""
    s = transform.data if isinstance(transform, SymplecticMatrix) else np.asarray(transform, dtype=float)
    if s.shape != state.data.shape:
        raise ValueError("transform and state dimensions do not match")
    out = s @ state.data @ s.T
    return CovarianceMatrix(0.5 * (out + out.T))


# ---------------------------------------------------------------------------
# spectra and entropies
# ---------------------------------------------------------------------------

def symplectic_eigenvalues(state: CovarianceMatrix) -> NDArray[np.float64]:
    """Symplectic eigenvalues, sorted descending and clamped to >= 1.

    Values within 1e-9 below 1 are rounded up to exactly 1; anything lower
    is rejected at construction time with ``PhysicalityError``.
    """
    nu = getattr(state, "_spectrum", None)
    if nu is None:
        nu = _paired_spectrum(state.data)
    return np.where(nu < 1.0, 1.0, nu)


def thermal_entropy(mean_photon):
    """Entropy in nats of a thermal state with the given mean photon number.

    Evaluates g(x) = (x+1) ln(x+1) - x ln x as ln(1+x) + x ln(1 + 1/x), which
    does not cancel at large x, extended by continuity to 0 at x = 0.  Below
    x = 1 the second term is summed as x (ln(1+x) - ln x), so 1/x cannot
    overflow.  Accepts scalars or arrays.
    """
    x = np.asarray(mean_photon, dtype=float)
    if np.any(x < 0):
        raise ValueError("mean photon number must be nonnegative")
    safe = np.where(x > 0, x, 1.0)
    head = np.log1p(safe)
    tail = np.where(safe < 1.0, head - np.log(safe), np.log1p(1.0 / np.maximum(safe, 1.0)))
    value = np.where(x > 0, head + safe * tail, 0.0)
    if np.ndim(mean_photon) == 0:
        return float(value)
    return value


def entropy(state: CovarianceMatrix) -> float:
    """Von Neumann entropy in nats: sum of thermal_entropy((nu - 1) / 2)."""
    nu = symplectic_eigenvalues(state)
    return float(np.sum(thermal_entropy((nu - 1.0) / 2.0)))


def mean_photon_number(state: CovarianceMatrix) -> float:
    """Mean photon number of a single-mode state, (tr Gamma - 2) / 4."""
    if state.n_modes != 1:
        raise ValueError("mean_photon_number is defined for single-mode states")
    return float((np.trace(state.data) - 2.0) / 4.0)


def total_photon_number(state: CovarianceMatrix) -> float:
    """Total mean photon number over all modes, (tr Gamma - 2n) / 4."""
    return float((np.trace(state.data) - 2.0 * state.n_modes) / 4.0)


def partial_trace(state: CovarianceMatrix, partition: ModePartition) -> CovarianceMatrix:
    """Principal submatrix on the kept modes, in the order listed by the partition."""
    if partition.n_modes != state.n_modes:
        raise ValueError("partition does not match the number of modes")
    if not partition.kept:
        raise ValueError("at least one mode must be kept")
    idx = [q for m in partition.kept for q in (2 * m, 2 * m + 1)]
    return CovarianceMatrix(state.data[np.ix_(idx, idx)])


def conditional_entropy(state: CovarianceMatrix, partition: ModePartition) -> float:
    """S(kept | traced) = S(full state) - S(marginal on the traced modes).

    May be negative for entangled states.
    """
    if partition.n_modes != state.n_modes:
        raise ValueError("partition does not match the number of modes")
    joint = entropy(state)
    if not partition.traced:
        return joint
    conditioner = partial_trace(state, ModePartition(kept=partition.traced, traced=partition.kept))
    return joint - entropy(conditioner)


# ---------------------------------------------------------------------------
# Williamson decomposition, purification, sampling
# ---------------------------------------------------------------------------

def williamson(state: CovarianceMatrix) -> tuple[SymplecticMatrix, NDArray[np.float64]]:
    """Decompose Gamma = S D S.T with S symplectic and D diagonal.

    Returns
    -------
    (S, d):
        ``S`` is the symplectic factor and ``d`` the diagonal of D, i.e.
        each symplectic eigenvalue repeated twice, sorted descending.
    """
    from scipy.linalg import schur  # the only scipy use; imported here to keep it off the import path

    data = state.data
    n = state.n_modes
    evals, evecs = np.linalg.eigh(data)
    root = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    inv_root = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    skew = inv_root @ symplectic_form(n) @ inv_root
    skew = 0.5 * (skew - skew.T)
    t, q = schur(skew, output="real")
    # Canonicalise each 2x2 Schur block to [[0, b], [-b, 0]] with b > 0.
    flip = np.eye(2 * n)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    for j in range(n):
        if t[2 * j, 2 * j + 1] < 0.0:
            flip[2 * j:2 * j + 2, 2 * j:2 * j + 2] = swap
    q = q @ flip
    t = flip @ t @ flip
    nu = np.array([1.0 / t[2 * j, 2 * j + 1] for j in range(n)])
    order = np.argsort(-nu)
    perm = np.zeros((2 * n, 2 * n))
    for new, old in enumerate(order):
        perm[2 * old:2 * old + 2, 2 * new:2 * new + 2] = np.eye(2)
    q = q @ perm
    d = np.repeat(nu[order], 2)
    s = root @ q @ np.diag(1.0 / np.sqrt(d))
    return SymplecticMatrix(s), d


def purify(state: CovarianceMatrix) -> CovarianceMatrix:
    """Pure 2n-mode extension whose first n modes reduce to ``state``.

    Each Williamson thermal factor nu is extended to a two-mode squeezed
    block [[nu I, c Z], [c Z, nu I]] with c = sqrt(nu^2 - 1); the original
    symplectic factor then acts on the first n modes only.
    """
    s, d = williamson(state)
    n = state.n_modes
    nu = d[0::2]
    # nu within roundoff of 1 means a pure factor: couple nothing to the
    # reference so pure environments purify to exact products.
    excess = np.where(nu - 1.0 > 1e-12, nu - 1.0, 0.0)
    cross = np.kron(np.diag(np.sqrt(excess * (nu + 1.0))), PHASE_FLIP)
    big = np.block([[np.diag(d), cross], [cross, np.diag(d)]])
    widen = _block_diag(s.data, np.eye(2 * n))
    out = widen @ big @ widen.T
    return CovarianceMatrix(0.5 * (out + out.T))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _random_symplectic_data(n_modes: int, max_squeeze: float, rng: np.random.Generator) -> NDArray[np.float64]:
    blocks = []
    for _ in range(n_modes):
        pre = rotation_symplectic(rng.uniform(0.0, 2.0 * np.pi))
        sq = squeezing_symplectic(rng.uniform(0.0, max_squeeze))
        post = rotation_symplectic(rng.uniform(0.0, 2.0 * np.pi))
        blocks.append(pre @ sq @ post)
    s = _block_diag(*blocks)
    for i in range(n_modes):
        for j in range(i + 1, n_modes):
            # the pair mixer changes only the rows of modes i and j
            rows = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
            s[rows] = mixing_symplectic(rng.uniform(0.0, 1.0)) @ s[rows]
    return s


def random_symplectic(n_modes: int, max_squeeze: float = 1.0, seed=None) -> SymplecticMatrix:
    """Random symplectic built from per-mode rotations/squeezers and pair mixers."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    if max_squeeze < 0:
        raise ValueError("max_squeeze must be nonnegative")
    rng = _as_generator(seed)
    return SymplecticMatrix(_random_symplectic_data(n_modes, max_squeeze, rng))


def random_gaussian_state(
    n_modes: int,
    max_photon: float = 1.0,
    max_squeeze: float = 1.0,
    seed=None,
) -> CovarianceMatrix:
    """Random physical Gaussian state Gamma = S D S.T.

    Thermal occupations are uniform in [0, max_photon], squeezing uniform in
    [0, max_squeeze]; ``seed`` may be an int or a ``numpy.random.Generator``
    (deterministic for a fixed seed).  Parameter ranges are uniform by
    construction; no Haar-uniformity is claimed.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    if max_photon < 0 or max_squeeze < 0:
        raise ValueError("sampling bounds must be nonnegative")
    rng = _as_generator(seed)
    photons = rng.uniform(0.0, max_photon, size=n_modes) if max_photon > 0 else np.zeros(n_modes)
    s = _random_symplectic_data(n_modes, max_squeeze, rng)
    d = np.repeat(2.0 * photons + 1.0, 2)
    gamma = s @ np.diag(d) @ s.T
    return CovarianceMatrix(0.5 * (gamma + gamma.T))


# ---------------------------------------------------------------------------
# serialization (row-major lists inside JSON)
# ---------------------------------------------------------------------------

def serialize_covariance(state: CovarianceMatrix) -> dict:
    """JSON-friendly dict with the row-major matrix entries."""
    return {"n_modes": state.n_modes, "data": [float(v) for v in state.data.ravel()]}


def _as_square(values: NDArray[np.float64]) -> NDArray[np.float64]:
    if values.ndim == 1:
        side = int(round(np.sqrt(values.size)))
        if side * side != values.size:
            raise ValueError("flat matrix data must have a square number of entries")
        values = values.reshape(side, side)
    return values


def deserialize_covariance(obj) -> CovarianceMatrix:
    """Rebuild a state from ``serialize_covariance`` output, a flat row-major
    list, or a nested list of rows."""
    if isinstance(obj, dict):
        values = _as_square(np.asarray(obj["data"], dtype=float))
        if "n_modes" in obj and 2 * int(obj["n_modes"]) != values.shape[0]:
            raise ValueError("declared n_modes does not match the matrix size")
        return CovarianceMatrix(values)
    return CovarianceMatrix(_as_square(np.asarray(obj, dtype=float)))
