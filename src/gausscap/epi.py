"""Monte Carlo checks of entropy power inequalities on Gaussian states.

Each check evaluates one inequality instance exactly and records the
slack lhs - rhs; a trial counts as a violation when the slack drops
below -tolerance (default 1e-9).  Near the degenerate amplifier gain
k -> 1 the slack itself shrinks to the scale of k - 1, so checks pinned
there should use a correspondingly wider band.

Every family is evaluated by one kernel over stacks of covariance matrices
(``_plain_kernel``, ``_conditional_kernel``, ``_chain_kernel``).  Sampled
single-mode inputs, the Z marginals and the conditional (B, Z1, Z2) output
are validated like a ``CovarianceMatrix``; the sampled two-mode squeezed
inputs carry their exact spectra; the output of a single-mode input comes
from the closed-form spectra of ``channels``, checked in invariant form.
The right-hand sides are ``channels.epi_rhs``.  A ``check_*`` call is a
stack of one.  Campaign results are reproducible: trial i draws all of its
randomness from a generator seeded with (seed, i), the trials are evaluated
in fixed-size chunks, and the mean is an exactly rounded sum in trial
order, so every chunking aggregates identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .capacities import _is_thermal
from .channels import ChannelKind, ChannelSpec, _channel_spectra, _factor_entropies, channel_map, coupling, epi_rhs
from .core import (
    _CHUNK,
    CovarianceMatrix,
    _check_sampling_bounds,
    _gaussian_state_stack,
    _spectral_entropy,
    _stack_entropy,
    _state_draw_count,
    _two_mode_squeezed_stack,
    _validated,
    symplectic_eigenvalues,
)

DEFAULT_TOLERANCE = 1e-9


class Inequality(Enum):
    QEPI_BS = "qepi-bs"
    QEPI_AMP = "qepi-amp"
    CQEPI_BS = "cqepi-bs"
    CQEPI_AMP = "cqepi-amp"
    MOE_CHAIN_BS = "moe-chain-bs"
    WC_CHAIN_BS = "wc-chain-bs"


@dataclass(frozen=True)
class EpiTrial:
    """One evaluated inequality instance."""

    inequality: Inequality
    parameter: float
    inputs: tuple[CovarianceMatrix, ...]
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    def is_violation(self, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        return self.slack < -tolerance


@dataclass(frozen=True)
class EpiReport:
    """Aggregate of a Monte Carlo campaign for one inequality family."""

    inequality: str
    trials: int
    violations: int
    min_slack: float
    mean_slack: float
    seed: int
    tolerance: float


_PLAIN = (Inequality.QEPI_BS, Inequality.QEPI_AMP)
_CONDITIONAL = (Inequality.CQEPI_BS, Inequality.CQEPI_AMP)
_AMPLIFIER = (Inequality.QEPI_AMP, Inequality.CQEPI_AMP)


# ---------------------------------------------------------------------------
# kernels: stacks of validated matrices in, lhs and rhs arrays out
# ---------------------------------------------------------------------------

def _plain_kernel(kind: ChannelKind, parameter: np.ndarray, x1, x2) -> tuple[np.ndarray, np.ndarray]:
    """Plain EPI on stacks of validated single-mode inputs x_i = (data, spectra): lhs = S(B) for B the
    channel map of (X1, X2), from its closed-form spectrum; rhs = ``epi_rhs``(S(X1), S(X2))."""
    lhs = _factor_entropies(_channel_spectra(kind, parameter, x1[0], x2[0])[0])
    return lhs, epi_rhs(kind, parameter, _spectral_entropy(x1[1]), _spectral_entropy(x2[1]))


def _conditional_kernel(kind: ChannelKind, parameter: np.ndarray, pair1, pair2) -> tuple[np.ndarray, np.ndarray]:
    """Conditional EPI on stacks of validated two-mode (X_i, Z_i) inputs pair_i = (data, spectra).

    lhs = S(B | Z1 Z2) for B = sqrt(p) X1 + sqrt(q) M X2.  The (B, Z1, Z2)
    covariance is built in closed form: the B block is the channel map of
    (X1, X2), B couples to Z1 through sqrt(p) C1 and to Z2 through
    sqrt(q) M C2 (C_i the X_i-Z_i block), and Z1, Z2 stay uncorrelated, so the
    conditioner's entropy is S(Z1) + S(Z2) of the single-mode marginals.  rhs
    = ``epi_rhs`` of the conditional entropies S(X_i | Z_i) = S(X_i Z_i) - S(Z_i).
    """
    column = parameter[:, None, None]
    p, q, m, _, _ = coupling(kind, column)
    g1, g2 = pair1[0], pair2[0]
    out = np.zeros((len(g1), 6, 6))
    out[:, :2, :2] = channel_map(kind, column, g1[:, :2, :2], g2[:, :2, :2])
    out[:, :2, 2:4] = np.sqrt(p) * g1[:, :2, 2:]
    out[:, :2, 4:] = np.sqrt(q) * (m @ g2[:, :2, 2:])
    out[:, 2:, :2] = out[:, :2, 2:].swapaxes(-1, -2)
    out[:, 2:4, 2:4] = g1[:, 2:, 2:]
    out[:, 4:, 4:] = g2[:, 2:, 2:]
    z1, z2 = _stack_entropy(g1[:, 2:, 2:]), _stack_entropy(g2[:, 2:, 2:])
    lhs = _stack_entropy(out) - (z1 + z2)
    return lhs, epi_rhs(kind, parameter, _spectral_entropy(pair1[1]) - z1, _spectral_entropy(pair2[1]) - z2)


def _chain_kernel(inequality: Inequality, transmissivity: np.ndarray, env, state) -> tuple[np.ndarray, np.ndarray]:
    """Chain inequality on stacks of validated thermal environments and single-mode inputs.

    lhs = S(output) of the beam splitter (channel output for moe, (F, C)
    complementary output for wc), from its closed-form spectrum; rhs =
    ``epi_rhs``(0, g(Ne)) = (1-t) g(Ne), the floor of a thermal environment,
    with g(Ne) the entropy of the validated spectrum, Ne = (nu - 1) / 2.
    """
    if not _is_thermal(env[0]):
        raise ValueError(f"the chain inequality {inequality.value} assumes a thermal environment (2N + 1) I")
    kind = _kind(inequality)
    rhs = epi_rhs(kind, transmissivity, 0.0, _spectral_entropy(env[1]))
    entropies = _factor_entropies(_channel_spectra(kind, transmissivity, state[0], env[0]))
    return (entropies[0] if inequality is Inequality.MOE_CHAIN_BS else entropies[1] + entropies[2]), rhs


# ---------------------------------------------------------------------------
# single checks: a stack of one
# ---------------------------------------------------------------------------

def _kind(inequality: Inequality) -> ChannelKind:
    return ChannelKind.AMPLIFIER if inequality in _AMPLIFIER else ChannelKind.BEAM_SPLITTER


def _stack_of_one(state: CovarianceMatrix):
    return state.data[None], symplectic_eigenvalues(state)[None]


def _trial(inequality: Inequality, parameter: float, inputs: tuple[CovarianceMatrix, ...], lhs_rhs) -> EpiTrial:
    lhs, rhs = lhs_rhs
    return EpiTrial(inequality, parameter, inputs, float(lhs[0]), float(rhs[0]))


def _pair_trial(inequality: Inequality, first: CovarianceMatrix, second: CovarianceMatrix, parameter: float) -> EpiTrial:
    """A qepi or cqepi check: its family's kernel on stacks of one."""
    kernel, n_modes = (_plain_kernel, 1) if inequality in _PLAIN else (_conditional_kernel, 2)
    _require_modes(n_modes, first, second)
    stacks = _stack_of_one(first), _stack_of_one(second)
    return _trial(inequality, parameter, (first, second), kernel(_kind(inequality), np.array([parameter], dtype=float), *stacks))


def _chain_trial(inequality: Inequality, state: CovarianceMatrix, spec: ChannelSpec) -> EpiTrial:
    """A chain check: the chain kernel on stacks of one."""
    if spec.kind is not ChannelKind.BEAM_SPLITTER:
        raise ValueError("chain inequalities are checked for the beam splitter")
    _require_modes(1, state)
    transmissivity = np.array([spec.parameter], dtype=float)
    lhs_rhs = _chain_kernel(inequality, transmissivity, _stack_of_one(spec.environment), _stack_of_one(state))
    return _trial(inequality, spec.parameter, (state,), lhs_rhs)


def check_qepi_bs(state1: CovarianceMatrix, state2: CovarianceMatrix, transmissivity: float) -> EpiTrial:
    """Beam-splitter entropy power inequality on two single-mode inputs: S(B) >= ``epi_rhs``(S(G1), S(G2))."""
    return _pair_trial(Inequality.QEPI_BS, state1, state2, transmissivity)


def check_qepi_amp(state1: CovarianceMatrix, state2: CovarianceMatrix, gain: float) -> EpiTrial:
    """Amplifier entropy power inequality on two single-mode inputs: S(B) >= ``epi_rhs``(S(G1), S(G2))."""
    return _pair_trial(Inequality.QEPI_AMP, state1, state2, gain)


def check_cqepi_bs(pair1: CovarianceMatrix, pair2: CovarianceMatrix, transmissivity: float) -> EpiTrial:
    """Conditional beam-splitter EPI on two-mode inputs (X_i, Z_i): S(B | Z1 Z2) >= ``epi_rhs``(S(X1|Z1), S(X2|Z2))."""
    return _pair_trial(Inequality.CQEPI_BS, pair1, pair2, transmissivity)


def check_cqepi_amp(pair1: CovarianceMatrix, pair2: CovarianceMatrix, gain: float) -> EpiTrial:
    """Conditional amplifier EPI on two-mode inputs (X_i, Z_i): S(B | Z1 Z2) >= ``epi_rhs``(S(X1|Z1), S(X2|Z2))."""
    return _pair_trial(Inequality.CQEPI_AMP, pair1, pair2, gain)


def check_moe_chain(state: CovarianceMatrix, spec: ChannelSpec) -> EpiTrial:
    """Single-use output-entropy floor S(channel(G)) >= (1-t) g(Ne)."""
    return _chain_trial(Inequality.MOE_CHAIN_BS, state, spec)


def check_wc_chain(state: CovarianceMatrix, spec: ChannelSpec) -> EpiTrial:
    """Complementary-side floor S(complement(G)) >= (1-t) g(Ne)."""
    return _chain_trial(Inequality.WC_CHAIN_BS, state, spec)


def _require_modes(n_modes: int, *states: CovarianceMatrix) -> None:
    if any(s.n_modes != n_modes for s in states):
        raise ValueError("expected single-mode input states" if n_modes == 1 else "expected two-mode (X, Z) input states")


def fock_entropy_oracle(mean_photon: float, cutoff: int) -> float:
    """Entropy of the truncated geometric photon-number distribution of a
    thermal state, renormalised; converges to thermal_entropy as the cutoff grows."""
    if mean_photon < 0:
        raise ValueError("mean photon number must be nonnegative")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if mean_photon == 0:
        return 0.0
    k = np.arange(cutoff)
    log_p = k * math.log(mean_photon) - (k + 1) * math.log(mean_photon + 1.0)
    p = np.exp(log_p)
    p = p / p.sum()
    p = p[p > 0.0]  # underflowed tail terms contribute nothing
    return float(-np.sum(p * np.log(p)))


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

_DEFAULT_RANGES = {
    Inequality.QEPI_BS: (0.0, 1.0),
    Inequality.CQEPI_BS: (0.0, 1.0),
    Inequality.MOE_CHAIN_BS: (0.0, 1.0),
    Inequality.WC_CHAIN_BS: (0.0, 1.0),
    Inequality.QEPI_AMP: (1.0, 10.0),
    Inequality.CQEPI_AMP: (1.0, 10.0),
}


@dataclass(frozen=True)
class _Campaign:
    """Sampling settings of one campaign; ``lhs_rhs`` evaluates a chunk of its trials."""

    inequality: Inequality
    seed: int
    max_photon: float
    max_squeeze: float
    parameter_range: tuple[float, float]
    env_photon: float | None

    def _draws(self, indices: range) -> tuple[np.ndarray, list[np.ndarray]]:
        """The trials' uniform [0, 1) draws, in each trial's draw order.

        Trial i takes, from a generator seeded with (seed, i): the mixing
        parameter (unless the range is a single value), then per family
        both single-mode states (qepi), the (photon, squeeze) pair of both
        two-mode states (cqepi), or the environment photon number (unless
        fixed) and the input state (chains).  Returns the parameters and
        the remaining draws split per input.
        """
        lo, hi = self.parameter_range
        varied = lo != hi
        state = _state_draw_count(1, self.max_photon)
        if self.inequality in _PLAIN:
            widths = [state, state]
        elif self.inequality in _CONDITIONAL:
            widths = [2, 2]
        else:
            widths = [int(self.env_photon is None), state]
        draws = np.array([np.random.default_rng((self.seed, i)).random(varied + sum(widths)) for i in indices])
        parameter = lo + (hi - lo) * draws[:, 0] if varied else np.full(len(indices), float(lo))
        return parameter, np.split(draws[:, int(varied):], np.cumsum(widths)[:-1], axis=1)

    def _state(self, draws: np.ndarray):
        return _validated(_gaussian_state_stack(draws, 1, self.max_photon, self.max_squeeze))

    def lhs_rhs(self, indices: range) -> tuple[np.ndarray, np.ndarray]:
        parameter, (first, second) = self._draws(indices)
        inequality, kind = self.inequality, _kind(self.inequality)
        if inequality in _PLAIN:
            return _plain_kernel(kind, parameter, self._state(first), self._state(second))
        if inequality in _CONDITIONAL:
            pair1, pair2 = (
                _two_mode_squeezed_stack(self.max_photon * d[:, 0], self.max_squeeze * d[:, 1]) for d in (first, second)
            )
            return _conditional_kernel(kind, parameter, pair1, pair2)
        photons = self.max_photon * first[:, 0] if self.env_photon is None else np.full(len(indices), self.env_photon)
        env = _validated((2.0 * photons + 1.0)[:, None, None] * np.eye(2))
        return _chain_kernel(inequality, parameter, env, self._state(second))

    def slacks(self, indices: range) -> np.ndarray:
        """Slacks of the trials ``indices``.  A failing trial raises its own
        error class, naming the first failing trial in index order."""
        try:
            lhs, rhs = self.lhs_rhs(indices)
        except (ValueError, ArithmeticError) as exc:
            if len(indices) == 1:
                raise type(exc)(
                    f"trial {indices[0]} of {self.inequality.value} failed (seed={self.seed}): {exc}"
                ) from exc
            for i in indices:  # find the first failing trial, one trial at a time
                self.slacks(range(i, i + 1))
            raise
        return lhs - rhs


def monte_carlo_verify(
    inequality: Inequality | str,
    trials: int,
    *,
    max_photon: float = 5.0,
    max_squeeze: float = 1.5,
    parameter_range: tuple[float, float] | None = None,
    env_photon: float | None = None,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    workers: int = 1,
) -> EpiReport:
    """Run ``trials`` random instances of one inequality family.

    Deterministic for a fixed seed: each trial owns a sub-seeded generator,
    the trials are evaluated serially in chunks of a fixed size, and the
    mean is an exactly rounded sum in trial order.  ``workers`` must be at
    least 1 and changes neither the speed nor the report.
    """
    inequality = Inequality(inequality) if not isinstance(inequality, Inequality) else inequality
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    _check_sampling_bounds(max_photon, max_squeeze)
    if not math.isfinite(tolerance):
        raise ValueError("tolerance must be finite")
    if env_photon is not None and not 0.0 <= env_photon < math.inf:
        raise ValueError("env_photon must be finite and nonnegative")
    prange = parameter_range if parameter_range is not None else _DEFAULT_RANGES[inequality]
    if not all(math.isfinite(v) for v in prange):
        raise ValueError("parameter_range must be finite")
    campaign = _Campaign(inequality, seed, max_photon, max_squeeze, tuple(prange), env_photon)

    chunks = (range(start, min(start + _CHUNK, trials)) for start in range(0, trials, _CHUNK))
    slacks = np.concatenate([campaign.slacks(chunk) for chunk in chunks])
    return EpiReport(
        inequality=inequality.value,
        trials=trials,
        violations=int(np.count_nonzero(slacks < -tolerance)),
        min_slack=float(slacks.min()),
        mean_slack=math.fsum(slacks.tolist()) / trials,
        seed=seed,
        tolerance=tolerance,
    )
