"""Beam-splitter and amplifier channels in phase space.

A channel mixes a single-mode input with a single-mode Gaussian
environment through a two-mode symplectic; tracing one output mode gives
the channel, tracing the other gives the weak-complementary map.  Both are
one affine map, ``channel_map``, with input and environment exchanged.  The
complementary map first purifies a mixed environment with a reference
mode, so its output covers two modes (environment output F, reference C).
``coupling`` holds every per-family constant, and the output spectra of a
single-mode input come in closed form from ``_invariant_spectra``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    PHASE_FLIP,
    PHYSICALITY_ATOL,
    PURE_ATOL,
    CovarianceMatrix,
    PhysicalityError,
    SymplecticMatrix,
    _det2,
    _everywhere,
    _reject,
    amplifier_block,
    mixing_symplectic,
    thermal_entropy,
)

MAX_GAIN = 1e6
_IDENTITY = np.eye(2)
_IDENTITY.setflags(write=False)


class ChannelKind(Enum):
    BEAM_SPLITTER = "beam_splitter"
    AMPLIFIER = "amplifier"


@dataclass(frozen=True)
class ChannelSpec:
    """Channel family, mixing parameter, and single-mode environment state.

    The parameter lies in the family's range of ``coupling``, with gains
    capped at MAX_GAIN; gain 1 degenerates to the identity channel.
    """

    kind: ChannelKind
    parameter: float
    environment: CovarianceMatrix

    def __post_init__(self) -> None:
        if self.environment.n_modes != 1:
            raise ValueError("environment must be a single-mode state")
        coupling(self.kind, self.parameter)  # raises outside the family's range
        if self.parameter > MAX_GAIN:
            raise ValueError(f"gain must lie in [1, {MAX_GAIN:g}]")

    @classmethod
    def beam_splitter(cls, transmissivity: float, environment: CovarianceMatrix) -> "ChannelSpec":
        return cls(ChannelKind.BEAM_SPLITTER, float(transmissivity), environment)

    @classmethod
    def amplifier(cls, gain: float, environment: CovarianceMatrix) -> "ChannelSpec":
        return cls(ChannelKind.AMPLIFIER, float(gain), environment)


@dataclass(frozen=True)
class ChannelOutput:
    """Covariances of the three channel outputs for one input state."""

    output: CovarianceMatrix
    weak_complement: CovarianceMatrix
    complement: CovarianceMatrix | None = None


def beam_splitter_symplectic(transmissivity: float) -> SymplecticMatrix:
    """Two-mode beam-splitter symplectic at the given transmissivity."""
    return SymplecticMatrix(mixing_symplectic(transmissivity))


def amplifier_symplectic(gain: float) -> SymplecticMatrix:
    """Two-mode amplifier symplectic [[sqrt(k) I, sqrt(k-1) Z], [sqrt(k-1) Z, sqrt(k) I]]."""
    return SymplecticMatrix(amplifier_block(gain))


def channel_symplectic(spec: ChannelSpec) -> SymplecticMatrix:
    """Two-mode symplectic realising the channel's input-environment coupling."""
    if spec.kind is ChannelKind.BEAM_SPLITTER:
        return beam_splitter_symplectic(spec.parameter)
    return amplifier_symplectic(spec.parameter)


def coupling(kind: ChannelKind, parameter) -> tuple:
    """The per-family constants (p, q, M, d, v), the one place they are written:

        family          p       q       M    d         v
        beam splitter   t       1 - t   I    1         0
        amplifier       k       k - 1   Z    2k - 1    1

    B = sqrt(p) A + sqrt(q) M E is the output mode, d the normaliser of the
    entropy power inequality (``epi_rhs``) and v the vacuum noise: a vacuum
    input and environment leave q v photons in B.  t must lie in [0, 1] and
    k >= 1 (no gain cap here).  ``parameter`` may be an array shaped to
    broadcast against a stack of matrices, e.g. (T, 1, 1).
    """
    if kind is ChannelKind.BEAM_SPLITTER:
        if not _everywhere((parameter >= 0.0) & (parameter <= 1.0)):
            raise ValueError("transmissivity must lie in [0, 1]")
        return parameter, 1.0 - parameter, _IDENTITY, 1.0, 0.0
    if kind is not ChannelKind.AMPLIFIER:
        raise ValueError(f"unknown channel kind: {kind!r}")
    if not _everywhere(parameter >= 1.0):
        raise ValueError("gain must be >= 1")
    return parameter, parameter - 1.0, PHASE_FLIP, 2.0 * parameter - 1.0, 1.0


def epi_rhs(kind: ChannelKind, parameter, s1, s2):
    """Entropy power bound (p s1 + q s2) / d + ln d on S(B) for inputs of entropies s1 and s2,
    evaluated as p/d s1 + q/d s2 + ln d; at (0, g(Ne)) the output-entropy floor of a thermal environment."""
    p, q, _, d, _ = coupling(kind, parameter)
    return p / d * s1 + q / d * s2 + np.log(d)


def channel_map(kind: ChannelKind, parameter, gamma_a: np.ndarray, gamma_e: np.ndarray) -> np.ndarray:
    """Covariance of B = sqrt(p) A + sqrt(q) M E for independent A and E: p G_A + q M G_E M.

    Takes one pair of 2x2 covariances or stacks of them, shape (..., 2, 2),
    with ``parameter`` as in ``coupling``.
    """
    p, q, m, _, _ = coupling(kind, parameter)
    return p * gamma_a + q * (m @ gamma_e @ m)


def _complementary_map(kind: ChannelKind, parameter, gamma_a: np.ndarray, gamma_e: np.ndarray) -> np.ndarray:
    """Covariance on (F, C) of the complementary output, where C purifies the environment.

    With nu = sqrt(det G_E), the environment G_E = nu R R.T has the symplectic
    factor R = sqrt(G_E / nu) (symmetric, det 1) and purifies to
    [[G_E, c R Z], [c Z R, nu I]], c = sqrt((nu - 1)(nu + 1)).  The channel
    keeps C and scales the E-C block by sqrt(t) or sqrt(k) on the way to F,
    whose own block is ``channel_map`` with input and environment exchanged.
    Takes 2x2 covariances or stacks that broadcast together, shape (..., 2, 2),
    with ``parameter`` as in ``coupling``; returns shape (..., 4, 4).
    """
    det, scale = _det2(gamma_e)
    nu = (np.sqrt(det) * scale)[..., None, None]
    out = np.zeros(np.broadcast_shapes(gamma_a.shape, gamma_e.shape)[:-2] + (4, 4))
    out[..., :2, :2] = channel_map(kind, parameter, gamma_e, gamma_a)
    out[..., 2:, 2:] = nu * _IDENTITY
    # sqrt of a 2x2 positive matrix M with det M = 1 is (M + I) / sqrt(tr M + 2).
    m = gamma_e / nu
    root = (m + _IDENTITY) / np.sqrt(m[..., 0:1, 0:1] + m[..., 1:2, 1:2] + 2.0)
    # environments within PURE_ATOL of nu = 1 are pure and couple nothing to C
    excess = nu - 1.0
    excess = np.where(excess > PURE_ATOL, excess * (nu + 1.0), 0.0)
    # adding 0.0 turns the -0.0 entries of an uncoupled block into +0.0
    cross = np.sqrt(excess * coupling(kind, parameter)[0]) * (root @ PHASE_FLIP) + 0.0
    out[..., :2, 2:] = cross
    out[..., 2:, :2] = cross.swapaxes(-1, -2)
    return out


def _rounded_pure(excess):
    """An excess over a pure state's value (det - 1, tr / 2 - 1), scalar or array: a value
    within the 1e-9 uncertainty tolerance below 0 is roundoff of a pure state and counts as 0."""
    return np.where((excess < 0.0) & (excess >= -2.0 * PHYSICALITY_ATOL), 0.0, excess)


def _det_excess(gamma: np.ndarray) -> np.ndarray:
    """``_rounded_pure``(det - 1) of each 2x2 covariance of a stack, from the scaled ``_det2``; inf for a
    determinant beyond the float range, so call it under ``np.errstate(over="ignore")``."""
    det, scale = _det2(gamma)
    return _rounded_pure(det * scale * scale - 1.0)


_INVARIANTS = ("det G_A - 1", "det G_E - 1", "the cross term")


def _require_finite(arrays, label, detail, names=_INVARIANTS) -> None:
    """``_reject`` with ``FloatingPointError`` for the first of ``arrays``, by default the invariants (det G_A - 1,
    det G_E - 1, cross) of ``_invariant_spectra``, that left the float range, naming it, ``label(i)`` of its
    first non-finite entry and ``detail(k, i)``, the size of what array k comes from."""
    for k, values in enumerate(arrays):
        _reject(~np.isfinite(values), FloatingPointError,
                lambda i: f"overflow at {label(i)}: {names[k]} leaves the float range ({detail(k, i)})")


def _invariant_spectra(kind: ChannelKind, parameter, a_excess, e_excess, cross, label) -> np.ndarray:
    """nu^2 - 1 of the channel output B, then of the complementary pair (F, C), stacked on axis 0.

    The arguments are finite invariants of a single-mode input A and
    environment E, scalars or 1-D arrays that broadcast together:
    a_excess = det G_A - 1, e_excess = det G_E - 1 and
    cross = tr(G_A J M G_E M J.T) / 2 + 2v - 1, with J the single-mode
    symplectic form and (p, q, M, v) of ``coupling``.  The trace is
    >= 2 sqrt(det G_A det G_E) >= 2, so every term below is nonnegative and
    nothing cancels:

        nu_B^2 - 1 = p^2 a_excess + w,   w = q^2 e_excess + 2 p q cross
        S = nu_+^2 + nu_-^2 - 2 = q^2 a_excess + w
        K = (nu_+^2 - 1)(nu_-^2 - 1) = q^2 a_excess e_excess

    where nu_+ and nu_- are the (F, C) output's symplectic eigenvalues, from
    the invariants of Serafini, Illuminati and De Siena, J. Phys. B 37, L21
    (2004); x_+ = nu_+^2 - 1 is the larger root of x^2 - S x + K and
    x_- = K / x_+: a near-degenerate pair is split only to about sqrt(eps),
    but its product, and its entropy sum to second order, keep their digits.
    nu_B^2 - 1, S or K beyond the float range raises ``FloatingPointError``;
    K < 0, S < 0 or nu_B < 1 - 1e-9 raises ``PhysicalityError``; both go
    through ``core._reject`` and name ``label(i)`` of the first failing i.
    """
    p, q, _, _, _ = coupling(kind, parameter)
    with np.errstate(over="ignore", invalid="ignore"):
        w = q * q * e_excess + 2.0 * p * q * cross
        terms = (p * p * a_excess + w, q * q * a_excess + w, q * q * e_excess * a_excess)
    b, total, product = terms

    def invariants(k, i):
        a, e, c = (np.broadcast_to(v, np.shape(b))[i] for v in (a_excess, e_excess, cross))
        return f"det G_A - 1 = {a:.6g}, det G_E - 1 = {e:.6g}, cross term {c:.6g}"

    _require_finite(terms, label, invariants, ("nu_B^2 - 1", "S", "K"))
    ok = (product >= 0.0) & (total >= 0.0) & (b >= (1.0 - PHYSICALITY_ATOL) ** 2 - 1.0)
    _reject(~ok, PhysicalityError, lambda i: f"uncertainty condition violated at {label(i)}: "
                                             f"K = {product[i]:.6g}, S = {total[i]:.6g}, nu_B^2 - 1 = {b[i]:.6g}")
    root = np.sqrt(product)
    xs = np.zeros((3,) + np.shape(b))
    xs[0] = b
    # sqrt(S^2 - 4K) as a product of two roots and x_+ as a sum of halves, so nothing overflows
    xs[1] = 0.5 * total + 0.5 * (np.sqrt(np.maximum(total - 2.0 * root, 0.0)) * np.sqrt(total + 2.0 * root))
    np.divide(product, xs[1], out=xs[2], where=xs[1] > 0.0)
    return np.maximum(xs, 0.0, out=xs)  # nu within the tolerance below 1 counts as 1


def _matrix_invariants(kind: ChannelKind, parameter, gamma_a: np.ndarray, gamma_e: np.ndarray, label) -> tuple:
    """The invariants (det G_A - 1, det G_E - 1, cross) of ``_invariant_spectra`` for stacks of validated
    single-mode covariances, shape (T, 2, 2), with ``parameter`` a scalar or shape (T,).  J Y J.T is the
    adjugate [[y11, -y01], [-y01, y00]] of Y = M G_E M.  An invariant beyond the float range raises
    ``FloatingPointError`` naming it, ``label(i)`` and the largest entry of the matrices it comes from."""
    _, _, m, _, v = coupling(kind, parameter)
    a, y = gamma_a, m @ gamma_e @ m
    with np.errstate(over="ignore", invalid="ignore"):
        trace = a[..., 0, 0] * y[..., 1, 1] + a[..., 1, 1] * y[..., 0, 0] - 2.0 * a[..., 0, 1] * y[..., 0, 1]
        invariants = _det_excess(gamma_a), _det_excess(gamma_e), _rounded_pure(0.5 * trace + (2.0 * v - 1.0))
    sources = ((("G_A", gamma_a),), (("G_E", gamma_e),), (("G_A", gamma_a), ("G_E", gamma_e)))
    _require_finite(invariants, label, lambda k, i: ", ".join(
        f"entries of {name} up to {np.abs(g[i]).max():.3g}" for name, g in sources[k]))
    return invariants


def _factor_entropies(xs: np.ndarray) -> np.ndarray:
    """Entropies of symplectic factors given as x = nu^2 - 1, whose photon number
    (nu - 1) / 2 is x / (2 + 2 sqrt(1 + x)): one ``thermal_entropy`` call for a whole stack."""
    return thermal_entropy(xs / (2.0 + 2.0 * np.sqrt(1.0 + xs)))


def _single_mode_data(state: CovarianceMatrix) -> np.ndarray:
    if state.n_modes != 1:
        raise ValueError("channel input must be a single-mode state")
    return state.data


def apply_channel(state: CovarianceMatrix, spec: ChannelSpec) -> CovarianceMatrix:
    """Channel output (mode B): t G_A + (1-t) G_E, or k G_A + (k-1) Z G_E Z for the amplifier."""
    return CovarianceMatrix(channel_map(spec.kind, spec.parameter, _single_mode_data(state), spec.environment.data))


def weak_complementary(state: CovarianceMatrix, spec: ChannelSpec) -> CovarianceMatrix:
    """Environment-side output (mode F), A and E exchanged: (1-t) G_A + t G_E, or (k-1) Z G_A Z + k G_E."""
    return CovarianceMatrix(channel_map(spec.kind, spec.parameter, spec.environment.data, _single_mode_data(state)))


def complementary(state: CovarianceMatrix, spec: ChannelSpec) -> CovarianceMatrix:
    """Two-mode complementary output on (F, C), where C purifies the environment.

    The closed form is ``_complementary_map``.  Tracing out C recovers the
    weak-complementary output; the two maps coincide whenever the
    environment is pure.
    """
    return CovarianceMatrix(_complementary_map(spec.kind, spec.parameter, _single_mode_data(state), spec.environment.data))


def channel_outputs(state: CovarianceMatrix, spec: ChannelSpec, include_complement: bool = True) -> ChannelOutput:
    """Bundle the transmitted, weak-complementary and complementary outputs."""
    return ChannelOutput(
        output=apply_channel(state, spec),
        weak_complement=weak_complementary(state, spec),
        complement=complementary(state, spec) if include_complement else None,
    )


def output_entropies(state: CovarianceMatrix, spec: ChannelSpec) -> tuple[float, float, float]:
    """Entropies (S_B, S_F, S_FC) of the three channel outputs, in nats, from the ``_invariant_spectra`` of (A, E)
    and, for F, of (E, A), failing at "the input and environment"; no output is built or diagonalised."""
    a, e = _single_mode_data(state)[None], spec.environment.data[None]
    kind, parameter, label = spec.kind, spec.parameter, lambda i: "the input and environment"
    pair, swapped = (_invariant_spectra(kind, parameter, *_matrix_invariants(kind, parameter, *inputs, label), label)
                     for inputs in ((a, e), (e, a)))
    s_b, s_plus, s_minus, s_f = _factor_entropies(np.concatenate([pair, swapped[:1]]))[:, 0].tolist()
    return s_b, s_f, s_plus + s_minus
