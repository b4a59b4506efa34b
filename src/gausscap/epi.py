"""Monte Carlo checks of entropy power inequalities on Gaussian states.

Each check evaluates one inequality instance exactly and records the
slack lhs - rhs; a trial counts as a violation when the slack drops
below -tolerance (default 1e-9).  Near the degenerate amplifier gain
k -> 1 the slack itself shrinks to the scale of k - 1, so checks pinned
there should use a correspondingly wider band.  Campaign results are
reproducible: trial i draws all of its randomness from a generator
seeded with (seed, i), so serial and parallel runs aggregate identically.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .capacities import thermal_environment_photon
from .channels import ChannelKind, ChannelSpec, apply_channel, channel_map, complementary, coupling
from .core import (
    CovarianceMatrix,
    ModePartition,
    conditional_entropy,
    entropy,
    random_gaussian_state,
    thermal_entropy,
    thermal_state,
    two_mode_squeezed_state,
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


def check_qepi_bs(state1: CovarianceMatrix, state2: CovarianceMatrix, transmissivity: float) -> EpiTrial:
    """Beam-splitter entropy power inequality on two single-mode inputs.

    lhs = S(t G1 + (1-t) G2), rhs = t S(G1) + (1-t) S(G2).
    """
    _require_single_mode(state1, state2)
    t = transmissivity
    lhs = entropy(CovarianceMatrix(channel_map(ChannelKind.BEAM_SPLITTER, t, state1.data, state2.data)))
    rhs = t * entropy(state1) + (1.0 - t) * entropy(state2)
    return EpiTrial(Inequality.QEPI_BS, t, (state1, state2), lhs, rhs)


def check_qepi_amp(state1: CovarianceMatrix, state2: CovarianceMatrix, gain: float) -> EpiTrial:
    """Amplifier entropy power inequality on two single-mode inputs.

    lhs = S(k G1 + (k-1) Z G2 Z),
    rhs = k/(2k-1) S(G1) + (k-1)/(2k-1) S(G2) + ln(2k-1).
    """
    _require_single_mode(state1, state2)
    k = gain
    lhs = entropy(CovarianceMatrix(channel_map(ChannelKind.AMPLIFIER, k, state1.data, state2.data)))
    rhs = _amplifier_rhs(k, entropy(state1), entropy(state2))
    return EpiTrial(Inequality.QEPI_AMP, k, (state1, state2), lhs, rhs)


def _amplifier_rhs(k: float, s1: float, s2: float) -> float:
    """k/(2k-1) s1 + (k-1)/(2k-1) s2 + ln(2k-1)."""
    return k / (2.0 * k - 1.0) * s1 + (k - 1.0) / (2.0 * k - 1.0) * s2 + math.log(2.0 * k - 1.0)


def _conditional_lhs(kind: ChannelKind, parameter: float, pair1: CovarianceMatrix, pair2: CovarianceMatrix) -> float:
    """S(B | Z1 Z2) for independent (X1, Z1), (X2, Z2) and B = sqrt(p) X1 + sqrt(q) M X2.

    The (B, Z1, Z2) covariance is built in closed form: the B block is the
    channel map of (X1, X2), B couples to Z1 through sqrt(p) C1 and to Z2
    through sqrt(q) M C2 (C_i the X_i-Z_i block), and Z1, Z2 stay
    uncorrelated.  The conditioner (Z1, Z2) is its trailing 4x4 block.
    """
    p, q, m = coupling(kind, parameter)
    g1, g2 = pair1.data, pair2.data
    out = np.zeros((6, 6))
    out[:2, :2] = channel_map(kind, parameter, g1[:2, :2], g2[:2, :2])
    out[:2, 2:4] = math.sqrt(p) * g1[:2, 2:]
    out[:2, 4:] = math.sqrt(q) * (m @ g2[:2, 2:])
    out[2:, :2] = out[:2, 2:].T
    out[2:4, 2:4] = g1[2:, 2:]
    out[4:, 4:] = g2[2:, 2:]
    return entropy(CovarianceMatrix(out)) - entropy(CovarianceMatrix(out[2:, 2:]))


def _conditional_rhs_terms(pair1: CovarianceMatrix, pair2: CovarianceMatrix) -> tuple[float, float]:
    cond = ModePartition(kept=(0,), traced=(1,))
    return conditional_entropy(pair1, cond), conditional_entropy(pair2, cond)


def check_cqepi_bs(pair1: CovarianceMatrix, pair2: CovarianceMatrix, transmissivity: float) -> EpiTrial:
    """Conditional beam-splitter EPI on two-mode inputs (X_i, Z_i).

    lhs = S(out | Z1 Z2), rhs = t S(X1|Z1) + (1-t) S(X2|Z2).
    """
    _require_two_mode(pair1, pair2)
    t = transmissivity
    lhs = _conditional_lhs(ChannelKind.BEAM_SPLITTER, t, pair1, pair2)
    c1, c2 = _conditional_rhs_terms(pair1, pair2)
    rhs = t * c1 + (1.0 - t) * c2
    return EpiTrial(Inequality.CQEPI_BS, t, (pair1, pair2), lhs, rhs)


def check_cqepi_amp(pair1: CovarianceMatrix, pair2: CovarianceMatrix, gain: float) -> EpiTrial:
    """Conditional amplifier EPI on two-mode inputs (X_i, Z_i).

    lhs = S(out | Z1 Z2),
    rhs = k/(2k-1) S(X1|Z1) + (k-1)/(2k-1) S(X2|Z2) + ln(2k-1).
    """
    _require_two_mode(pair1, pair2)
    k = gain
    lhs = _conditional_lhs(ChannelKind.AMPLIFIER, k, pair1, pair2)
    rhs = _amplifier_rhs(k, *_conditional_rhs_terms(pair1, pair2))
    return EpiTrial(Inequality.CQEPI_AMP, k, (pair1, pair2), lhs, rhs)


def check_moe_chain(state: CovarianceMatrix, spec: ChannelSpec) -> EpiTrial:
    """Single-use output-entropy floor S(channel(G)) >= (1-t) g(Ne)."""
    return _chain_trial(Inequality.MOE_CHAIN_BS, apply_channel, state, spec)


def check_wc_chain(state: CovarianceMatrix, spec: ChannelSpec) -> EpiTrial:
    """Complementary-side floor S(complement(G)) >= (1-t) g(Ne)."""
    return _chain_trial(Inequality.WC_CHAIN_BS, complementary, state, spec)


def _chain_trial(inequality: Inequality, output, state: CovarianceMatrix, spec: ChannelSpec) -> EpiTrial:
    """lhs = S(output(state, spec)) against the floor (1-t) g(Ne) of a thermal beam splitter."""
    if spec.kind is not ChannelKind.BEAM_SPLITTER:
        raise ValueError("chain inequalities are checked for the beam splitter")
    rhs = (1.0 - spec.parameter) * thermal_entropy(thermal_environment_photon(spec))
    lhs = entropy(output(state, spec))
    return EpiTrial(inequality, spec.parameter, (state,), lhs, rhs)


def _require_single_mode(*states: CovarianceMatrix) -> None:
    if any(s.n_modes != 1 for s in states):
        raise ValueError("expected single-mode input states")


def _require_two_mode(*states: CovarianceMatrix) -> None:
    if any(s.n_modes != 2 for s in states):
        raise ValueError("expected two-mode (X, Z) input states")


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


def _sample_two_mode_squeezed_thermal(rng: np.random.Generator, max_photon: float, max_squeeze: float) -> CovarianceMatrix:
    """Two-mode squeezed thermal state with random occupation and squeezing."""
    n = rng.uniform(0.0, max_photon)
    r = rng.uniform(0.0, max_squeeze)
    return CovarianceMatrix((2.0 * n + 1.0) * two_mode_squeezed_state(r).data)


_DEFAULT_RANGES = {
    Inequality.QEPI_BS: (0.0, 1.0),
    Inequality.CQEPI_BS: (0.0, 1.0),
    Inequality.MOE_CHAIN_BS: (0.0, 1.0),
    Inequality.WC_CHAIN_BS: (0.0, 1.0),
    Inequality.QEPI_AMP: (1.0, 10.0),
    Inequality.CQEPI_AMP: (1.0, 10.0),
}


def _run_trial(
    inequality: Inequality,
    index: int,
    seed: int,
    max_photon: float,
    max_squeeze: float,
    parameter_range: tuple[float, float],
    env_photon: float | None,
) -> EpiTrial:
    rng = np.random.default_rng((seed, index))
    lo, hi = parameter_range
    parameter = lo if lo == hi else rng.uniform(lo, hi)
    if inequality in (Inequality.QEPI_BS, Inequality.QEPI_AMP):
        s1 = random_gaussian_state(1, max_photon, max_squeeze, rng)
        s2 = random_gaussian_state(1, max_photon, max_squeeze, rng)
        if inequality is Inequality.QEPI_BS:
            return check_qepi_bs(s1, s2, parameter)
        return check_qepi_amp(s1, s2, parameter)
    if inequality in (Inequality.CQEPI_BS, Inequality.CQEPI_AMP):
        p1 = _sample_two_mode_squeezed_thermal(rng, max_photon, max_squeeze)
        p2 = _sample_two_mode_squeezed_thermal(rng, max_photon, max_squeeze)
        if inequality is Inequality.CQEPI_BS:
            return check_cqepi_bs(p1, p2, parameter)
        return check_cqepi_amp(p1, p2, parameter)
    ne = rng.uniform(0.0, max_photon) if env_photon is None else env_photon
    spec = ChannelSpec.beam_splitter(parameter, thermal_state(ne))
    state = random_gaussian_state(1, max_photon, max_squeeze, rng)
    if inequality is Inequality.MOE_CHAIN_BS:
        return check_moe_chain(state, spec)
    return check_wc_chain(state, spec)


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

    Deterministic for a fixed seed; with ``workers`` > 1 the trials run on a
    thread pool and the report is identical to the single-threaded one
    because each trial owns a sub-seeded generator and the mean is an
    exactly rounded sum.
    """
    inequality = Inequality(inequality) if not isinstance(inequality, Inequality) else inequality
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    prange = parameter_range if parameter_range is not None else _DEFAULT_RANGES[inequality]

    def run(index: int) -> EpiTrial:
        try:
            return _run_trial(inequality, index, seed, max_photon, max_squeeze, prange, env_photon)
        except Exception as exc:
            raise RuntimeError(
                f"trial {index} of {inequality.value} failed (seed={seed}): {exc}"
            ) from exc

    if workers == 1:
        results = [run(i) for i in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(trials)))

    slacks = [trial.slack for trial in results]
    violations = sum(1 for s in slacks if s < -tolerance)
    return EpiReport(
        inequality=inequality.value,
        trials=trials,
        violations=violations,
        min_slack=min(slacks),
        mean_slack=math.fsum(slacks) / trials,
        seed=seed,
        tolerance=tolerance,
    )
