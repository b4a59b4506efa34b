"""Covariance-matrix algebra for zero-mean bosonic Gaussian states.

Quadratures are ordered mode by mode as (q1, p1, ..., qn, pn) and the
vacuum covariance is the identity, so a thermal state with mean photon
number N has covariance (2N + 1) * I.  All entropies are in nats.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

SYMMETRY_ATOL = 1e-12
PHYSICALITY_ATOL = 1e-9
PAIR_ATOL = 1e-8
# S Omega S.T = Omega entry by entry to this fraction of max(1, (|S| |Omega| |S.T|)_ij), the scale of its roundoff.
SYMPLECTIC_RTOL = 1e-12
# Symplectic eigenvalues within this of 1 count as pure (nothing couples to a purifying mode).
PURE_ATOL = 1e-12
# A single-mode state with sinh 2r at most this (r of ``_mode_parameters``) counts as thermal.
_THERMAL_ATOL = 1e-12
# Rounding unit of float arithmetic, and the decimal digits it carries.
_EPS = float(np.finfo(float).eps)
_DIGITS = -math.log10(_EPS)
# Matrices per stacked pass (campaign trials, bound-grid points): memory does not grow with the count.
_CHUNK = 512

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


def _symplectic_excess(matrix: NDArray[np.float64]) -> float:
    """Largest |S Omega S.T - Omega|_ij / max(1, (|S| |Omega| |S.T|)_ij).

    The denominator bounds the roundoff of entry (i, j) of the product, so
    each entry gets room for its own roundoff, while the deviation 2 eps Omega
    of a uniform rescale (1 + eps) S, which does not grow with |S|, is held to
    the same scale.
    """
    omega = symplectic_form(matrix.shape[0] // 2)
    scale = np.abs(matrix) @ np.abs(omega) @ np.abs(matrix.T)
    return float(np.max(np.abs(matrix @ omega @ matrix.T - omega) / np.maximum(scale, 1.0)))


def _everywhere(mask) -> bool:
    """Truth of a comparison on a scalar, or on every entry of an array."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) else bool(mask)


def _reject(failed, error: type[Exception], reason) -> None:
    """Raise ``error(reason(index))`` for the first index where the boolean array ``failed``, one entry per item
    of a stack, holds: the index is a tuple, ``()`` for a 0-d ``failed``.  The message does not name the index; a
    caller that evaluates a stack names the failing item itself (a campaign names the trial)."""
    if failed.any():
        raise error(reason(np.unravel_index(int(np.argmax(failed)), failed.shape)))


def _det2(gamma: NDArray[np.float64]) -> tuple[float, float, int]:
    """Determinant of a 2x2 matrix as (det / s^2, its rounding scale |u00 u11| + u01^2, e) for the entries
    u = Gamma / s and a power of two s = 2^e near sqrt(Gamma_00 Gamma_11): no product overflows, and
    (det / s^2) s s is the bits of the plain determinant wherever that is finite and normal."""
    (g00, g01), (g10, g11) = gamma.tolist()
    e = (math.frexp(g00)[1] + math.frexp(g11)[1]) // 2
    # ldexp(g, -e) is g / s exactly, and stays finite where s itself (s = 2^1024 from 9e307 on) would not be
    u00, u01, u10, u11 = (math.ldexp(g, -e) for g in (g00, g01, g10, g11))
    return u00 * u11 - u01 * u10, abs(u00 * u11) + u01 * u01, e


def _hermitian_form(factor: NDArray[np.float64]) -> NDArray[np.complex128]:
    """i L.T Omega L for a Cholesky factor Gamma = L L.T: Hermitian and similar to i Omega Gamma, so its
    eigenvalues are +/- each symplectic eigenvalue nu."""
    return 1j * (factor.T @ symplectic_form(factor.shape[0] // 2) @ factor)


def _validated(data: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Validate one covariance matrix, shape (2n, 2n).

    Checks finite entries and symmetry (to 1e-12, ``ValueError``), then
    symmetrises the entries and checks their spectrum (``_checked_spectrum``).
    Returns the symmetrised data and the symplectic eigenvalues, one per +/-
    pair, descending.
    """
    if not np.isfinite(data).all():
        raise ValueError("covariance matrix must be finite")
    if (asymmetry := float(np.abs(data - data.T).max())) > SYMMETRY_ATOL:
        raise ValueError(f"covariance matrix is not symmetric (max asymmetry {asymmetry:.3e})")
    data = 0.5 * data + 0.5 * data.T  # halves first: entries near the float maximum stay finite
    return data, _checked_spectrum(data)


def _checked_spectrum(data: NDArray[np.float64]) -> NDArray[np.float64]:
    """Symplectic eigenvalues of finite, exactly symmetric covariance entries, shape (2n, 2n), one per +/- pair,
    descending, once the entries are shown to fix them.

    Checks positive definiteness and the uncertainty condition (every
    symplectic eigenvalue >= 1 - 1e-9, ``PhysicalityError``).  One mode runs
    no eigensolver: it is positive definite iff Gamma_00 > 0 and det > 0, with
    spectrum sqrt(det).  A det whose rounding, eps (|Gamma_00 Gamma_11| +
    Gamma_01^2), exceeds 1e-9 of it fixes neither the sign nor the spectrum
    (``ArithmeticError``), unless it is negative beyond that rounding (not
    positive definite).  From two modes on, the Cholesky factor Gamma = L L.T
    is the positive-definiteness check, and the eigenvalues +/- nu of
    ``_hermitian_form``(L) = i L.T Omega L, the matrix ``williamson``
    diagonalises, must split into +/- pairs (``ArithmeticError``).  Their
    roundoff estimate eps max_i Gamma_ii / L_ii^2 must not exceed 1e-9
    (``ArithmeticError``), unless min nu falls short of 1 by more than that
    estimate (``PhysicalityError``, also for some rounded pure states).
    """
    if data.shape[0] == 2:
        det, magnitude, e = _det2(data)
        # u00 u11 - u01^2 rounds by up to about eps (|u00 u11| + u01^2): only a det below that is surely negative
        if not data[0, 0] > 0.0 or det <= -_EPS * magnitude:
            raise PhysicalityError("covariance matrix is not positive definite")
        if _EPS * magnitude > PHYSICALITY_ATOL * det:
            lost = min(_DIGITS, math.log10(magnitude / abs(det))) if det else _DIGITS
            raise ArithmeticError(f"det Gamma = Gamma_00 Gamma_11 - Gamma_01^2 cancels {lost:.1f} of its "
                                  f"{_DIGITS:.1f} digits, so the entries do not fix the symplectic eigenvalue to "
                                  f"{PHYSICALITY_ATOL:g}")
        nu_min = math.ldexp(math.sqrt(det), e)
        spectrum = np.array([nu_min])
    else:
        try:
            factor = np.linalg.cholesky(data)
        except np.linalg.LinAlgError:
            raise PhysicalityError("covariance matrix is not positive definite") from None
        n = data.shape[0] // 2
        # ascending: -nu_1 <= ... <= -nu_n <= nu_n <= ... <= nu_1
        values = np.linalg.eigvalsh(_hermitian_form(factor))
        big, small = values[:n - 1:-1], -values[:n]
        if (split := float((np.abs(big - small) / np.maximum(big, 1.0)).max())) > PAIR_ATOL:
            raise ArithmeticError(f"eigenvalues of i L.T Omega L do not split into +/- pairs: they differ by "
                                  f"{split:.3g} of max(nu, 1), more than {PAIR_ATOL:g}")
        # the mean of each pair, summed and halved exactly as np.mean does
        spectrum = (big + small) * 0.5
        nu_min = float(spectrum[-1])
        # whatever nu_min is, rounding may push it either way.  kappa of the unit-diagonal D^-1/2 Gamma D^-1/2
        # (D = diag Gamma), whose Cholesky factor has diagonal L_ii / sqrt(Gamma_ii) and leading entry 1: a
        # product of modes on different scales cancels nothing
        diagonal = np.diagonal(factor)
        bound = _EPS * float((np.diagonal(data) / (diagonal * diagonal)).max())
        if bound > PHYSICALITY_ATOL and 1.0 - nu_min <= bound:
            raise ArithmeticError(f"the entries fix min symplectic eigenvalue {nu_min:.12g} only to its roundoff "
                                  f"bound eps kappa = {bound:.3g} (kappa = max Gamma_ii / L_ii^2, L the Cholesky "
                                  f"factor), more than {PHYSICALITY_ATOL:g}")
    if nu_min < 1.0 - PHYSICALITY_ATOL:
        raise PhysicalityError(f"uncertainty condition violated: min symplectic eigenvalue {nu_min:.12g} < 1")
    return spectrum


@dataclass(frozen=True, eq=False, repr=False)
class CovarianceMatrix:
    """Quadrature covariance matrix of an n-mode Gaussian state.

    Construction validates symmetry (to 1e-12), positive definiteness and
    the uncertainty condition (every symplectic eigenvalue >= 1 - 1e-9).
    The stored array is read-only.  The state is immutable, so its entropy and
    Williamson decomposition are computed once, on first use, and kept, and
    each marginal is kept while the caller holds it.
    """

    data: NDArray[np.float64]

    def __post_init__(self) -> None:
        data = np.array(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("covariance matrix must be square")
        if data.shape[0] == 0 or data.shape[0] % 2 != 0:
            raise ValueError("covariance matrix must be 2n x 2n with n >= 1")
        self._store(*_validated(data))

    def _store(self, data: NDArray[np.float64], spectrum: NDArray[np.float64]) -> None:
        data.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "data", data)
        # The matrix is immutable, so the spectrum computed for validation
        # can be reused by symplectic_eigenvalues/entropy.
        object.__setattr__(self, "_spectrum", spectrum)

    @classmethod
    def _physical(cls, data: NDArray[np.float64], spectrum: NDArray[np.float64]) -> "CovarianceMatrix":
        """A matrix whose entries are finite and exactly symmetric, stored with a spectrum that is exact by
        construction or already checked (one value >= 1 - 1e-9 per mode, descending), without re-checking."""
        state = object.__new__(cls)
        state._store(data, spectrum)
        return state

    @cached_property
    def _marginals(self) -> weakref.WeakValueDictionary:
        """``_marginal``'s memo: each marginal by its kept-mode tuple, held only as long as something else holds it."""
        return weakref.WeakValueDictionary()

    @cached_property
    def _entropy(self) -> float:
        """``entropy``'s value, computed on first use."""
        return float(_spectral_entropy(self._spectrum))

    def __getstate__(self) -> dict:
        # weak references do not pickle: a copy starts with no memoised marginals
        return {key: value for key, value in self.__dict__.items() if key != "_marginals"}

    @cached_property
    def _williamson(self) -> tuple["SymplecticMatrix", NDArray[np.float64]]:
        """``williamson``'s ``(S, d)``, computed on first use."""
        n = self.n_modes
        if n == 1:
            m = self.data / self._spectrum[0]
            d = np.repeat(self._spectrum, 2)
            d.setflags(write=False)
            return SymplecticMatrix((m + np.eye(2)) / np.sqrt(m[0, 0] + m[1, 1] + 2.0)), d
        try:
            factor = np.linalg.cholesky(self.data)
        except np.linalg.LinAlgError:
            raise ArithmeticError("williamson: the stored covariance entries have no Cholesky factor") from None
        nu, v = np.linalg.eigh(_hermitian_form(factor))
        nu, v = nu[:n - 1:-1], v[:, :n - 1:-1]
        miss = np.abs(nu - self._spectrum) / self._spectrum
        _reject(miss > PHYSICALITY_ATOL, ArithmeticError,
                lambda k: f"williamson: the stored covariance entries give symplectic eigenvalue {nu[k]:.12g} for "
                          f"the state's {self._spectrum[k]:.12g}, off by {miss[k]:.3g} of it, more than "
                          f"{PHYSICALITY_ATOL:g}")
        w = factor @ v
        # S's block on mode m has rotation part ~ w_p - i w_q: make it real and >= 0 on the heaviest mode
        heaviest = np.argmax(np.abs(w[0::2]) ** 2 + np.abs(w[1::2]) ** 2, axis=0)
        phase = (w[1::2] - 1j * w[0::2])[heaviest, np.arange(n)]
        w = w * (np.conj(phase) / np.abs(phase))
        d = np.repeat(nu, 2)
        s = math.sqrt(2.0) * np.stack([w.imag, w.real], axis=-1).reshape(2 * n, 2 * n) / np.sqrt(d)
        d.setflags(write=False)
        return SymplecticMatrix(s), d

    @property
    def n_modes(self) -> int:
        return self.data.shape[0] // 2

    def __repr__(self) -> str:  # keep reprs short; the payload is a matrix
        return f"CovarianceMatrix(n_modes={self.n_modes})"


@dataclass(frozen=True, eq=False, repr=False)
class SymplecticMatrix:
    """Gaussian unitary in phase space: S Omega S.T = Omega entry by entry, to
    1e-12 of max(1, (|S| |Omega| |S.T|)_ij), the scale of that entry's roundoff."""

    data: NDArray[np.float64]

    def __post_init__(self) -> None:
        data = np.array(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] % 2 != 0:
            raise ValueError("symplectic matrix must be 2n x 2n")
        if not np.isfinite(data).all():  # NaN would pass the tolerance comparison below
            raise ValueError("symplectic matrix must be finite")
        if (excess := _symplectic_excess(data)) > SYMPLECTIC_RTOL:
            raise ValueError(f"matrix is not symplectic: S Omega S.T - Omega reaches {excess:.3e} of its roundoff "
                             f"scale max(1, (|S| |Omega| |S.T|)_ij), more than {SYMPLECTIC_RTOL:g}")
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
    """Single-mode thermal state: (2N + 1) * I, so det = (2N + 1)^2 (the squeezed thermal state at r = 0)."""
    return squeezed_thermal_state(mean_photon, 0.0)


def squeezed_thermal_state(thermal_photon: float, squeeze: float) -> CovarianceMatrix:
    """Single-mode squeezed thermal state (2N + 1) * diag(e^{-2r}, e^{2r}).

    Its symplectic eigenvalue is 2N + 1 >= 1 whatever r is, so no
    eigensolver runs.  The squeezing must keep (2N + 1) e^{2r} finite:
    r <= (ln(float max) - ln(2N + 1)) / 2, about 354.9 at N = 0.
    """
    if not 0 <= thermal_photon < np.inf:
        raise ValueError("mean photon number must be finite and nonnegative")
    if not 0 <= squeeze < np.inf:
        raise ValueError("squeezing parameter must be finite and nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        scale = 2.0 * thermal_photon + 1.0
        diag = scale * np.array([np.exp(-2.0 * squeeze), np.exp(2.0 * squeeze)])
    if not diag[1] < np.inf:
        # ln(2N + 1) as ln 2 + ln(N + 1/2), which cannot overflow; past N ~ 9e307 no r fits
        limit = 0.5 * (math.log(sys.float_info.max) - math.log(2.0) - math.log(thermal_photon + 0.5))
        bound = (f"the squeezing parameter must stay at or below {limit:.6g}" if limit >= 0.0 else
                 f"the photon number must stay below {0.5 * sys.float_info.max * math.exp(-squeeze) ** 2:.6g}")
        raise ValueError(f"(2N + 1) e^(2r) overflows at N = {thermal_photon:.6g}, r = {squeeze:.6g}: {bound}")
    return CovarianceMatrix._physical(np.diag(diag), np.array([scale]))


def two_mode_squeezed_state(squeeze: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum; pure, with thermal marginals of sinh(r)^2 photons.
    Stored with its exact spectrum (1, 1); r >= 0 must keep cosh(2r) finite (r up to about 355)."""
    with np.errstate(over="ignore"):
        ch, sh = np.cosh(2.0 * squeeze), np.sinh(2.0 * squeeze)
    if not (squeeze >= 0 and np.isfinite(ch)):
        raise ValueError("squeezing parameter must be nonnegative and keep cosh(2r) finite")
    data = ch * np.eye(4)
    data[0, 2] = data[2, 0] = sh
    data[1, 3] = data[3, 1] = -sh
    return CovarianceMatrix._physical(data, np.ones(2))


def direct_sum(*states: CovarianceMatrix) -> CovarianceMatrix:
    """Covariance of the product state, modes concatenated in argument order."""
    if not states:
        raise ValueError("direct_sum needs at least one state")
    out = np.zeros((sum(len(s.data) for s in states),) * 2)
    start = 0
    for s in states:
        out[start:start + len(s.data), start:start + len(s.data)] = s.data
        start += len(s.data)
    return CovarianceMatrix(out)


# ---------------------------------------------------------------------------
# symplectic building blocks
# ---------------------------------------------------------------------------

def rotation_symplectic(angle) -> NDArray[np.float64]:
    """Single-mode phase rotation [[cos, sin], [-sin, cos]]; an array of angles gives a stack."""
    c, s = np.cos(angle), np.sin(angle)
    out = np.empty(np.shape(angle) + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = s
    out[..., 1, 0] = -s
    return out


def squeezing_symplectic(squeeze) -> NDArray[np.float64]:
    """Single-mode squeezer diag(e^{-r}, e^{r}); an array of r gives a stack."""
    out = np.zeros(np.shape(squeeze) + (2, 2))
    out[..., 0, 0] = np.exp(-squeeze)
    out[..., 1, 1] = np.exp(squeeze)
    return out


def mixing_symplectic(transmissivity) -> NDArray[np.float64]:
    """Two-mode beam-splitter block [[sqrt(t) I, sqrt(1-t) I], [-sqrt(1-t) I, sqrt(t) I]].

    An array of transmissivities gives a stack of blocks.
    """
    if not _everywhere((transmissivity >= 0.0) & (transmissivity <= 1.0)):
        raise ValueError("transmissivity must lie in [0, 1]")
    a, b = np.sqrt(transmissivity), np.sqrt(1.0 - transmissivity)
    out = np.zeros(np.shape(transmissivity) + (4, 4))
    out[..., 0, 0] = out[..., 1, 1] = out[..., 2, 2] = out[..., 3, 3] = a
    out[..., 0, 2] = out[..., 1, 3] = b
    out[..., 2, 0] = out[..., 3, 1] = -b
    return out


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
    nu = state._spectrum
    return np.where(nu < 1.0, 1.0, nu)


def thermal_entropy(mean_photon):
    """Entropy in nats of a thermal state with the given mean photon number.

    Evaluates g(x) = (x+1) ln(x+1) - x ln x as ln(1+x) + x ln(1 + 1/x), which
    does not cancel at large x, extended by continuity to 0 at x = 0.  Below
    x = 1 the second term is summed as x (ln(1+x) - ln x), so 1/x cannot
    overflow.  Accepts scalars or arrays.
    """
    x = np.asarray(mean_photon, dtype=float)
    if x.size and not (x.min() >= 0.0 and x.max() < math.inf):  # a NaN is the min and fails too
        raise ValueError("mean photon number must be finite and nonnegative")
    positive = x > 0.0
    safe = np.where(positive, x, 1.0)
    head = np.log1p(safe)
    tail = np.where(safe < 1.0, head - np.log(safe), np.log1p(1.0 / np.maximum(safe, 1.0)))
    value = np.where(positive, head + safe * tail, 0.0)
    return float(value) if x.ndim == 0 else value


def _spectral_entropy(spectrum: NDArray[np.float64]) -> NDArray[np.float64]:
    """Entropy in nats of each symplectic spectrum along the last axis, values below 1 counted as 1."""
    nu = np.where(spectrum < 1.0, 1.0, spectrum)
    return thermal_entropy((nu - 1.0) / 2.0).sum(axis=-1)


def entropy(state: CovarianceMatrix) -> float:
    """Von Neumann entropy in nats: sum of thermal_entropy((nu - 1) / 2), computed once per state."""
    return state._entropy


def _mode_parameters(state: CovarianceMatrix) -> tuple[NDArray[np.float64], ...]:
    """(n, r, u) of a single-mode state G = (2n + 1) R(2 pi u) diag(e^(-2r), e^(2r)) R(2 pi u).T, each an array of
    one: n = (nu - 1) / 2 of the stored spectrum (0 within 1e-9 below nu = 1, negative for a state stored below
    that), sinh 2r = |(g11 - g00) / 2, g01| / nu and 4 pi u = atan2(g01, (g11 - g00) / 2)."""
    (nu,), ((g00, g01), (_, g11)) = state._spectrum.tolist(), state.data.tolist()
    half_gap = 0.5 * g11 - 0.5 * g00  # halves first: nothing overflows
    n = 0.0 if 1.0 - PHYSICALITY_ATOL <= nu < 1.0 else 0.5 * (nu - 1.0)
    r, u = 0.5 * math.asinh(math.hypot(half_gap, g01) / nu), math.atan2(g01, half_gap) / (4.0 * math.pi)
    return np.array([n]), np.array([r]), np.array([u])


def _is_thermal(modes: tuple[NDArray[np.float64], ...]) -> bool:
    """Whether the single-mode state of ``_mode_parameters`` (n, r, u) is (2N + 1) I up to squeezing sinh 2r <= 1e-12:
    relative to nu, so rounding of a rotated thermal state's entries never counts."""
    return bool(np.sinh(2.0 * modes[1][0]) <= _THERMAL_ATOL)


def total_photon_number(state: CovarianceMatrix) -> float:
    """Total mean photon number over all modes, (tr Gamma - 2n) / 4."""
    return float((np.trace(state.data) - 2.0 * state.n_modes) / 4.0)


def _marginal(state: CovarianceMatrix, modes: tuple[int, ...]) -> CovarianceMatrix:
    """Principal submatrix on ``modes``, in that order.  A stored matrix is finite and exactly symmetric, and so
    is its submatrix: only its spectrum is checked (``_checked_spectrum``), not its entries.  The same ``modes``
    give the same object for as long as the caller holds it (``CovarianceMatrix._marginals``)."""
    marginal = state._marginals.get(modes)
    if marginal is None:
        idx = (2 * np.array(modes)[:, None] + (0, 1)).ravel()
        data = state.data[idx[:, None], idx]
        marginal = state._marginals[modes] = CovarianceMatrix._physical(data, _checked_spectrum(data))
    return marginal


def partial_trace(state: CovarianceMatrix, partition: ModePartition) -> CovarianceMatrix:
    """Principal submatrix on the kept modes, in the order listed by the partition."""
    if partition.n_modes != state.n_modes:
        raise ValueError("partition does not match the number of modes")
    if not partition.kept:
        raise ValueError("at least one mode must be kept")
    return _marginal(state, partition.kept)


def conditional_entropy(state: CovarianceMatrix, partition: ModePartition) -> float:
    """S(kept | traced) = S(full state) - S(marginal on the traced modes).

    May be negative for entangled states.
    """
    if partition.n_modes != state.n_modes:
        raise ValueError("partition does not match the number of modes")
    joint = entropy(state)
    if not partition.traced:
        return joint
    return joint - entropy(_marginal(state, partition.traced))


# ---------------------------------------------------------------------------
# Williamson decomposition, purification, sampling
# ---------------------------------------------------------------------------

def williamson(state: CovarianceMatrix) -> tuple[SymplecticMatrix, NDArray[np.float64]]:
    """Decompose Gamma = S D S.T with S symplectic and D diagonal: returns ``(S, d)``, d the diagonal of D
    (read-only), each symplectic eigenvalue nu twice, descending.

    The decomposition runs once per state, on the first call (or ``purify``'s);
    later calls return the same ``(S, d)``.

    One mode runs no eigensolver: with nu the stored spectrum, M = Gamma / nu
    has det 1 and S is its symmetric root (M + I) / sqrt(tr M + 2).  From two
    modes on, the Cholesky factor Gamma = L L.T gives the positive
    eigenvalues nu of ``_hermitian_form``(L) = i L.T Omega L; an eigenvector
    x + iy gives the columns (sqrt2 y, sqrt2 x) of the orthogonal Q in
    S = L Q D^(-1/2).  Its phase makes S's 2x2 block on the mode carrying most
    of w = L (x + iy) symmetric with trace >= 0.  Entries with no Cholesky
    factor, or whose nu miss the state's spectrum (validation's, or the exact
    one stored at construction) by more than 1e-9 of it, fix no decomposition
    (``ArithmeticError``): the rounded entries of ``two_mode_squeezed_state``
    from r ~ 5, for example, whose nu fall below 1 or rise above it.
    """
    return state._williamson


def purify(state: CovarianceMatrix) -> CovarianceMatrix:
    """Pure 2n-mode extension [[Gamma, S C], [C S.T, D]] of Gamma = S D S.T (``williamson``), with
    C = direct sum of sqrt((nu - 1)(nu + 1)) Z: each thermal factor nu becomes a two-mode squeezed block.

    Its first n modes are ``state``'s entries bit for bit.  It reuses the
    state's one Williamson decomposition.  It is pure by
    construction, certified by the check on S, and stored with its exact
    spectrum (1, ..., 1).  Factors with nu - 1 <= 1e-12 count as pure and
    couple nothing to their reference mode, so a state whose stored spectrum
    is all pure becomes [[Gamma, 0], [0, I]] without a decomposition.
    """
    m = 2 * state.n_modes
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = state.data
    if np.any(state._spectrum - 1.0 > PURE_ATOL):
        s, d = williamson(state)
        nu = d[0::2]
        excess = np.where(nu - 1.0 > PURE_ATOL, nu - 1.0, 0.0)
        # S C scales column pair k of S by c_k Z
        np.multiply(s.data, (np.sqrt(excess * (nu + 1.0))[:, None] * np.diag(PHASE_FLIP)).ravel(), out=out[:m, m:])
        out[m:, :m] = out[:m, m:].T
    else:
        d = 1.0
    np.fill_diagonal(out[m:, m:], d)
    return CovarianceMatrix._physical(out, np.ones(m))


@lru_cache(maxsize=None)
def _mixer_layers(n_modes: int) -> tuple[tuple[NDArray[np.intp], NDArray[np.intp]], ...]:
    """The n(n-1)/2 pair mixers of ``_sampled_symplectic`` (pairs i < j in draw order) in layers: pair k goes
    one layer after the last earlier pair that shares a mode with it, so the pairs of a layer touch disjoint
    rows and applying the layers in turn applies every pair in draw order (29 layers at n = 16).  Each layer
    is (the draw-order indices of its pairs, their rows (2i, 2i + 1, 2j, 2j + 1)), both read-only."""
    depth = [0] * n_modes  # per mode: one past the layer of the last pair on it so far
    layers: list[list[int]] = []
    pairs = [(i, j) for i in range(n_modes) for j in range(i + 1, n_modes)]
    for k, (i, j) in enumerate(pairs):
        layer = max(depth[i], depth[j])
        depth[i] = depth[j] = layer + 1
        if layer == len(layers):
            layers.append([])
        layers[layer].append(k)
    schedule = []
    for members in layers:
        modes = np.array([pairs[k] for k in members])
        rows = (2 * modes[:, :, None] + (0, 1)).reshape(len(members), 4)
        index = np.array(members)
        index.setflags(write=False)
        rows.setflags(write=False)
        schedule.append((index, rows))
    return tuple(schedule)


def _sampled_symplectic(rng: np.random.Generator, n_modes: int, max_squeeze: float) -> NDArray[np.float64]:
    """Random 2n x 2n symplectic from the generator's next 3n + n(n-1)/2 ``random()`` draws.

    In draw order: (angle, squeezing, angle) per mode, then one
    transmissivity per mode pair i < j.  Mode m gets the local factor
    R(2 pi u) S(max_squeeze u') R(2 pi u''), and the pair mixers then act on
    the rows of modes i and j in turn, one ``_mixer_layers`` layer of
    disjoint pairs per batched product.  A generator's ``uniform(0, h)`` is
    exactly h times its next ``random()``, so scaling ``random()`` draws
    reproduces sampling one scalar at a time.
    """
    draws = rng.random(3 * n_modes + n_modes * (n_modes - 1) // 2)
    local = draws[:3 * n_modes].reshape(n_modes, 3)
    blocks = (
        rotation_symplectic(2.0 * np.pi * local[:, 0])
        @ squeezing_symplectic(max_squeeze * local[:, 1])
        @ rotation_symplectic(2.0 * np.pi * local[:, 2])
    )
    s = np.zeros((n_modes, 2, n_modes, 2))
    modes = np.arange(n_modes)
    s[modes, :, modes, :] = blocks
    s = s.reshape(2 * n_modes, 2 * n_modes)
    mixers = mixing_symplectic(draws[3 * n_modes:])
    for index, rows in _mixer_layers(n_modes):
        # each pair mixer changes only the rows of its modes i and j, and the pairs of a layer share none
        s[rows] = mixers[index] @ s[rows]
    return s


def _check_sampling_bounds(max_photon: float, max_squeeze: float) -> None:
    if not all(0.0 <= b < np.inf for b in (max_photon, max_squeeze)):
        raise ValueError("sampling bounds must be finite and nonnegative")
    # a draw's covariance entries reach (2N + 1) e^(2r) = 2 e^(2r + ln(N + 1/2)), below 6e307 while
    # r + ln(N + 1/2) / 2 <= 354; past that, squeezed_thermal_state checks the product exactly
    if max_squeeze + 0.5 * math.log(max_photon + 0.5) > 354.0:
        squeezed_thermal_state(max_photon, max_squeeze)  # raises, naming the largest r that fits


def random_symplectic(n_modes: int, max_squeeze: float = 1.0, seed=None) -> SymplecticMatrix:
    """Random symplectic built from per-mode rotations/squeezers and pair mixers."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    _check_sampling_bounds(0.0, max_squeeze)
    return SymplecticMatrix(_sampled_symplectic(np.random.default_rng(seed), n_modes, max_squeeze))


def random_gaussian_state(
    n_modes: int,
    max_photon: float = 1.0,
    max_squeeze: float = 1.0,
    seed=None,
) -> CovarianceMatrix:
    """Random physical Gaussian state Gamma = S D S.T.

    Thermal occupations are uniform in [0, max_photon], squeezing uniform in
    [0, max_squeeze]; ``seed`` may be an int or a ``numpy.random.Generator``
    (deterministic for a fixed seed).  Draws n photon numbers (if
    max_photon > 0), then those of ``_sampled_symplectic``.  Parameter ranges
    are uniform by construction; no Haar-uniformity is claimed.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    _check_sampling_bounds(max_photon, max_squeeze)
    rng = np.random.default_rng(seed)  # a Generator passes through unaltered
    photons = max_photon * rng.random(n_modes) if max_photon > 0 else np.zeros(n_modes)
    s = _sampled_symplectic(rng, n_modes, max_squeeze)
    # scaling the columns equals S @ diag(d) exactly: each entry has a single nonzero term
    gamma = (s * np.repeat(2.0 * photons + 1.0, 2)) @ s.T
    return CovarianceMatrix(0.5 * (gamma + gamma.T))


# ---------------------------------------------------------------------------
# serialization (row-major lists inside JSON)
# ---------------------------------------------------------------------------

def serialize_covariance(state: CovarianceMatrix) -> dict:
    """JSON-friendly dict with the row-major matrix entries."""
    return {"n_modes": state.n_modes, "data": state.data.ravel().tolist()}


def _as_square(payload) -> NDArray[np.float64]:
    """The float array of a flat row-major list (reshaped to its square) or of nested rows."""
    try:
        values = np.asarray(payload, dtype=float)
    except TypeError:  # an object or a string nested in the lists: a malformed payload, not a crash
        raise ValueError("matrix data must be a flat list of numbers or a list of rows of numbers") from None
    if values.ndim == 1:
        side = int(round(np.sqrt(values.size)))
        if side * side != values.size:
            raise ValueError("flat matrix data must have a square number of entries")
        values = values.reshape(side, side)
    return values


def deserialize_covariance(obj) -> CovarianceMatrix:
    """Rebuild a state from ``serialize_covariance`` output, a flat row-major
    list, or a nested list of rows.  A declared ``n_modes`` must be an integer (not a bool) that matches the
    matrix size; an object without ``data`` is a ``ValueError`` that names the accepted formats."""
    if isinstance(obj, dict):
        if "data" not in obj:
            raise ValueError('matrix object has no "data" field; the accepted formats are {"n_modes": n, "data": '
                             'entries}, a flat row-major list of entries, or a list of rows')
        values = _as_square(obj["data"])
        if "n_modes" in obj:
            declared = obj["n_modes"]
            if isinstance(declared, bool) or not isinstance(declared, (int, np.integer)):
                raise ValueError(f"declared n_modes must be an integer, not {declared!r}")
            if 2 * declared != values.shape[0]:
                raise ValueError("declared n_modes does not match the matrix size")
        return CovarianceMatrix(values)
    return CovarianceMatrix(_as_square(obj))
