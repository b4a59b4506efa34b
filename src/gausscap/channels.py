"""Beam-splitter and amplifier channels in phase space.

A channel mixes a single-mode input with a single-mode Gaussian
environment through a two-mode symplectic; tracing one output mode gives
the channel, tracing the other gives the weak-complementary map.  Both are
one affine map, ``channel_map``, with input and environment exchanged.  The
complementary map first purifies a mixed environment with a reference
mode, so its output covers two modes (environment output F, reference C).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    PHASE_FLIP,
    PURE_ATOL,
    CovarianceMatrix,
    SymplecticMatrix,
    _everywhere,
    amplifier_block,
    entropy,
    mixing_symplectic,
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

    Beam splitters take a transmissivity in [0, 1]; amplifiers a gain in
    [1, MAX_GAIN], where gain 1 degenerates to the identity channel.
    """

    kind: ChannelKind
    parameter: float
    environment: CovarianceMatrix

    def __post_init__(self) -> None:
        if self.environment.n_modes != 1:
            raise ValueError("environment must be a single-mode state")
        if self.kind is ChannelKind.BEAM_SPLITTER:
            if not 0.0 <= self.parameter <= 1.0:
                raise ValueError("beam-splitter transmissivity must lie in [0, 1]")
        elif self.kind is ChannelKind.AMPLIFIER:
            if not 1.0 <= self.parameter <= MAX_GAIN:
                raise ValueError(f"amplifier gain must lie in [1, {MAX_GAIN:g}]")
        else:
            raise ValueError(f"unknown channel kind: {self.kind!r}")

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
    """(p, q, M) of the output mode B = sqrt(p) A + sqrt(q) M E.

    (t, 1-t, I) for a beam splitter with t in [0, 1], (k, k-1, Z) for an
    amplifier with k >= 1.  No upper gain cap applies here.  ``parameter``
    may be an array of per-matrix values shaped to broadcast against a stack
    of matrices, e.g. (T, 1, 1); then p and q are arrays too.
    """
    if kind is ChannelKind.BEAM_SPLITTER:
        if not _everywhere((parameter >= 0.0) & (parameter <= 1.0)):
            raise ValueError("transmissivity must lie in [0, 1]")
        return parameter, 1.0 - parameter, _IDENTITY
    if not _everywhere(parameter >= 1.0):
        raise ValueError("gain must be >= 1")
    return parameter, parameter - 1.0, PHASE_FLIP


def channel_map(kind: ChannelKind, parameter, gamma_a: np.ndarray, gamma_e: np.ndarray) -> np.ndarray:
    """Covariance of B = sqrt(p) A + sqrt(q) M E for independent A and E: p G_A + q M G_E M.

    Takes one pair of 2x2 covariances or stacks of them, shape (..., 2, 2),
    with ``parameter`` as in ``coupling``.
    """
    p, q, m = coupling(kind, parameter)
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
    g = gamma_e
    nu = np.sqrt(g[..., 0:1, 0:1] * g[..., 1:2, 1:2] - g[..., 0:1, 1:2] * g[..., 1:2, 0:1])
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
    """Entropies (S_B, S_F, S_FC) of the three channel outputs, in nats."""
    outs = channel_outputs(state, spec)
    return entropy(outs.output), entropy(outs.weak_complement), entropy(outs.complement)
