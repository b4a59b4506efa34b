"""Beam-splitter and amplifier channels in phase space.

A channel mixes a single-mode input with a single-mode Gaussian
environment through a two-mode symplectic; tracing one output mode gives
the channel, tracing the other gives the weak-complementary map.  Both are
one affine map, ``channel_map``, with input and environment exchanged.  The
complementary map extends the environment by ``core.purify``'s reference
mode, so its output covers two modes (environment output F, reference C).
``coupling`` holds every per-family constant, and ``_pair_invariants``
gives the output spectrum of a single-mode input and the invariants of its
complementary pair in closed form from its and the environment's (n, r, u),
in one call: the one path for sampled draws and for validated matrices
(``core._mode_parameters``).  ``_complementary_roots`` takes the pair's
spectrum from those invariants, for the callers that read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    PHASE_FLIP,
    PHYSICALITY_ATOL,
    CovarianceMatrix,
    PhysicalityError,
    SymplecticMatrix,
    _everywhere,
    _mode_parameters,
    _reject,
    mixing_symplectic,
    purify,
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
    capped at MAX_GAIN; gain 1 degenerates to the identity channel.  The
    environment's ``core._mode_parameters`` (n, r, u) are computed once and
    stored as ``_environment_modes``, a plain attribute outside equality and repr.
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
        object.__setattr__(self, "_environment_modes", _mode_parameters(self.environment))

    @classmethod
    def beam_splitter(cls, transmissivity: float, environment: CovarianceMatrix) -> "ChannelSpec":
        return cls(ChannelKind.BEAM_SPLITTER, float(transmissivity), environment)

    @classmethod
    def amplifier(cls, gain: float, environment: CovarianceMatrix) -> "ChannelSpec":
        return cls(ChannelKind.AMPLIFIER, float(gain), environment)


def beam_splitter_symplectic(transmissivity: float) -> SymplecticMatrix:
    """Two-mode beam-splitter symplectic at the given transmissivity."""
    return SymplecticMatrix(mixing_symplectic(transmissivity))


def amplifier_symplectic(gain: float) -> SymplecticMatrix:
    """Two-mode amplifier symplectic [[sqrt(p) I, sqrt(q) M], [sqrt(q) M, sqrt(p) I]] with (p, q, M) = (k, k - 1, Z)
    of ``coupling``, which rejects a gain below 1."""
    p, q, m, _, _ = coupling(ChannelKind.AMPLIFIER, gain)
    a, b = np.sqrt(p) * _IDENTITY, np.sqrt(q) * m
    return SymplecticMatrix(np.block([[a, b], [b, a]]))


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


def epi_rhs(constants: tuple, s1, s2):
    """Entropy power bound (p s1 + q s2) / d + ln d on S(B) for inputs of entropies s1 and s2, with (p, q, d) of
    the ``coupling`` tuple ``constants``, evaluated as p/d s1 + q/d s2 + ln d; at (0, g(Ne)) the output-entropy
    floor of a thermal environment."""
    p, q, _, d, _ = constants
    return p / d * s1 + q / d * s2 + np.log(d)


def channel_map(kind: ChannelKind, parameter, gamma_a: np.ndarray, gamma_e: np.ndarray) -> np.ndarray:
    """Covariance of B = sqrt(p) A + sqrt(q) M E for independent A and E: p G_A + q M G_E M.

    Takes one pair of 2x2 covariances or stacks of them, shape (..., 2, 2),
    with ``parameter`` as in ``coupling``.
    """
    p, q, m, _, _ = coupling(kind, parameter)
    return p * gamma_a + q * (m @ gamma_e @ m)


def _complementary_map(kind: ChannelKind, parameter, gamma_a: np.ndarray, environment: CovarianceMatrix) -> np.ndarray:
    """Covariance on (F, C) of the complementary output: ``purify``'s extension of the environment E by C, its
    E-C block scaled by sqrt(p) of ``coupling`` on the way to F, whose own block is ``channel_map`` with input
    and environment exchanged.  Takes one 2x2 input covariance and a scalar ``parameter``; returns the 4x4 matrix."""
    out = purify(environment).data.copy()
    out[:2, :2] = channel_map(kind, parameter, environment.data, gamma_a)
    out[:2, 2:] *= np.sqrt(coupling(kind, parameter)[0])
    out[2:, :2] = out[:2, 2:].T
    return out


def _require_finite(arrays, label, detail, names) -> None:
    """``_reject`` with ``FloatingPointError`` for the first of ``arrays`` that left the float range, naming
    ``names[k]``, ``label(i)`` of its first non-finite entry and ``detail(k, i)``, the size of what it comes from."""
    for k, values in enumerate(arrays):
        _reject(~np.isfinite(values), FloatingPointError,
                lambda i: f"overflow at {label(i)}: {names[k]} leaves the float range ({detail(k, i)})")


def _pair_invariants(constants: tuple, a, e, label) -> tuple:
    """x_B = nu_B^2 - 1 of the channel output B (clamped at 0), then the invariants S and K of the complementary
    pair (F, C), for single-mode states G = (2n + 1) R(2 pi u) diag(e^(-2r), e^(2r)) R(2 pi u).T with a and e the
    (n, r, u) of the input A and the environment E, arrays or scalars that broadcast together (a campaign's
    draws, or ``core._mode_parameters`` of a validated matrix), and ``constants`` the ``coupling`` tuple.

    They follow from three invariants, each a sum of nonnegative terms, so
    nothing cancels, whatever the squeezing:

        det G - 1 = 4 n (n + 1)
        cross = tr(G_A J M G_E M J.T) / 2 + 2v - 1 = (nu_A nu_E - 1) X + (X - 1) + 2v
        X = cos^2 D cosh 2(r_A - r_E) + sin^2 D cosh 2(r_A + r_E)
        X - 1 = 2 cos^2 D sinh^2 (r_A - r_E) + 2 sin^2 D sinh^2 (r_A + r_E)

    with J the single-mode symplectic form, (p, q, M, v) of ``coupling``,
    nu = 2n + 1, nu_A nu_E - 1 = 2 (n_A + n_E + 2 n_A n_E), and
    D = 2 pi (s u_E - u_A) the angle between A and M G_E M, where M = diag(1, s)
    turns the rotation of E by 2 pi u_E into one by 2 pi s u_E.  Then

        nu_B^2 - 1 = p^2 (det G_A - 1) + w,   w = q^2 (det G_E - 1) + 2 p q cross
        S = nu_+^2 + nu_-^2 - 2 = q^2 (det G_A - 1) + w
        K = (nu_+^2 - 1)(nu_-^2 - 1) = q^2 (det G_A - 1)(det G_E - 1)

    where nu_+ and nu_- are the (F, C) output's symplectic eigenvalues, from
    the invariants of Serafini, Illuminati and De Siena, J. Phys. B 37, L21
    (2004); ``_complementary_roots`` takes them from S and K.  An invariant
    beyond the float range raises ``FloatingPointError`` naming it and the
    (n, r) it comes from; nu_B^2 - 1, S or K beyond it, naming the
    invariants.  K < 0, S < 0 or nu_B < 1 - 1e-9 raises ``PhysicalityError``.
    The six are checked in one pass, their sum (finite only if each is) and
    one physicality mask; only when that fails do the checks run one by one,
    in the order above, each through ``core._reject`` naming ``label(i)`` of
    the first failing i (if none fails, only the sum overflowed).
    """
    p, q, m, _, v = constants
    (n_a, r_a, u_a), (n_e, r_e, u_e) = a, e
    with np.errstate(over="ignore", invalid="ignore"):
        angle = 2.0 * np.pi * (m[1, 1] * u_e - u_a)
        x_excess = 2.0 * (np.cos(angle) ** 2 * np.sinh(r_a - r_e) ** 2 + np.sin(angle) ** 2 * np.sinh(r_a + r_e) ** 2)
        cross = 2.0 * (n_a + n_e + 2.0 * n_a * n_e) * (1.0 + x_excess) + x_excess + 2.0 * v
        a_excess, e_excess = 4.0 * n_a * (n_a + 1.0), 4.0 * n_e * (n_e + 1.0)
        w = q * q * e_excess + 2.0 * p * q * cross
        b, total, product = p * p * a_excess + w, q * q * a_excess + w, q * q * e_excess * a_excess
        ok = (product >= 0.0) & (total >= 0.0) & (b >= (1.0 - PHYSICALITY_ATOL) ** 2 - 1.0)
        finite = np.isfinite(a_excess + e_excess + cross + b + total + product)
    if not (finite & ok).all():
        def draws(k, i):
            na, ne, ra, re = (float(np.broadcast_to(x, np.shape(cross))[i]) for x in (n_a, n_e, r_a, r_e))
            return (f"n_A = {na:.6g}", f"n_E = {ne:.6g}",
                    f"r_A = {ra:.6g}, r_E = {re:.6g}, n_A = {na:.6g}, n_E = {ne:.6g}")[k]

        def invariants(k, i):
            x, y, c = (np.broadcast_to(t, np.shape(b))[i] for t in (a_excess, e_excess, cross))
            return f"det G_A - 1 = {x:.6g}, det G_E - 1 = {y:.6g}, cross term {c:.6g}"

        _require_finite((a_excess, e_excess, cross), label, draws, ("det G_A - 1", "det G_E - 1", "the cross term"))
        _require_finite((b, total, product), label, invariants, ("nu_B^2 - 1", "S", "K"))
        _reject(~ok, PhysicalityError, lambda i: f"uncertainty condition violated at {label(i)}: "
                                                 f"K = {product[i]:.6g}, S = {total[i]:.6g}, nu_B^2 - 1 = {b[i]:.6g}")
    return np.maximum(b, 0.0), total, product  # nu within the tolerance below 1 counts as 1


def _complementary_roots(total, product) -> np.ndarray:
    """x_+ and x_- = nu^2 - 1 of the complementary pair (F, C), stacked on axis 0, from the S and K of
    ``_pair_invariants``: x_+ is the larger root of x^2 - S x + K and x_- = K / x_+.  A near-degenerate pair is
    split only to about sqrt(eps), but its product, and its entropy sum to second order, keep their digits."""
    root = np.sqrt(product)
    xs = np.zeros((2,) + np.shape(total))
    # sqrt(S^2 - 4K) as a product of two roots and x_+ as a sum of halves, so nothing overflows
    xs[0] = 0.5 * total + 0.5 * (np.sqrt(np.maximum(total - 2.0 * root, 0.0)) * np.sqrt(total + 2.0 * root))
    np.divide(product, xs[0], out=xs[1], where=xs[0] > 0.0)
    return np.maximum(xs, 0.0, out=xs)  # nu within the tolerance below 1 counts as 1


def _factor_photons(xs):
    """Photon numbers (nu - 1) / 2 = x / (2 + 2 sqrt(1 + x)) of symplectic factors given as x = nu^2 - 1."""
    return xs / (2.0 + 2.0 * np.sqrt(1.0 + xs))


def _factor_entropies(xs: np.ndarray) -> np.ndarray:
    """Entropies of symplectic factors given as x = nu^2 - 1: one ``thermal_entropy`` call for a whole stack."""
    return thermal_entropy(_factor_photons(xs))


def _single_mode_data(state: CovarianceMatrix) -> np.ndarray:
    if state.n_modes != 1:
        raise ValueError("channel input must be a single-mode state")
    return state.data


def _input_modes(state: CovarianceMatrix, spec: ChannelSpec) -> tuple:
    """``core._mode_parameters`` (n, r, u) of the single-mode channel input, then the environment's stored ones."""
    _single_mode_data(state)
    return _mode_parameters(state), spec._environment_modes


def apply_channel(state: CovarianceMatrix, spec: ChannelSpec) -> CovarianceMatrix:
    """Channel output (mode B): t G_A + (1-t) G_E, or k G_A + (k-1) Z G_E Z for the amplifier."""
    return CovarianceMatrix(channel_map(spec.kind, spec.parameter, _single_mode_data(state), spec.environment.data))


def weak_complementary(state: CovarianceMatrix, spec: ChannelSpec) -> CovarianceMatrix:
    """Environment-side output (mode F), A and E exchanged: (1-t) G_A + t G_E, or (k-1) Z G_A Z + k G_E."""
    return CovarianceMatrix(channel_map(spec.kind, spec.parameter, spec.environment.data, _single_mode_data(state)))


def _input_label(i: tuple) -> str:
    """Where the spectra of one channel input and its environment fail."""
    return "the input and environment"


def complementary(state: CovarianceMatrix, spec: ChannelSpec) -> CovarianceMatrix:
    """Two-mode complementary output on (F, C), where C purifies the environment.

    The closed form is ``_complementary_map``, stored with the spectrum sqrt(1 + x_+/-) of
    ``_complementary_roots`` (the matrix's condition number grows like e^(4r) with the squeezing).  Tracing
    out C recovers the weak-complementary output; the two maps coincide whenever the environment is pure.
    """
    a, e = _input_modes(state, spec)
    _, total, product = _pair_invariants(coupling(spec.kind, spec.parameter), a, e, _input_label)
    spectrum = np.sqrt(1.0 + _complementary_roots(total, product)[:, 0])
    data = _complementary_map(spec.kind, spec.parameter, state.data, spec.environment)
    return CovarianceMatrix._physical(data, spectrum)


def output_entropies(state: CovarianceMatrix, spec: ChannelSpec) -> tuple[float, float, float]:
    """Entropies (S_B, S_F, S_FC) of the three channel outputs, in nats, from the ``_pair_invariants`` of (A, E)
    and, for F, of (E, A); no output is built or diagonalised."""
    a, e = _input_modes(state, spec)
    constants = coupling(spec.kind, spec.parameter)
    x_b, total, product = _pair_invariants(constants, a, e, _input_label)
    x_f = _pair_invariants(constants, e, a, _input_label)[0]
    xs = np.concatenate([x_b, *_complementary_roots(total, product), x_f])
    s_b, s_plus, s_minus, s_f = _factor_entropies(xs).tolist()
    return s_b, s_f, s_plus + s_minus
