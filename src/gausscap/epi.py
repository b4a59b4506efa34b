"""Monte Carlo checks of entropy power inequalities on Gaussian states.

Each check evaluates one inequality instance exactly and records the
slack lhs - rhs; a trial counts as a violation when the slack drops
below -tolerance (default 1e-9).  Near the degenerate amplifier gain
k -> 1 the slack itself shrinks to the scale of k - 1, so checks pinned
there should use a correspondingly wider band.

The qepi and chain families have single-mode inputs A and E, and their
kernel (``_single_mode_kernel``) takes each state's (n, r, u): lhs from the
closed-form output spectra of ``channels._pair_spectra``, which are sums of
nonnegative terms, so no determinant cancels at any squeezing, and rhs from
the input entropies g(n).  A campaign passes each trial's drawn photon
numbers, squeezings and angles and builds no matrix, and a ``check_*`` call
converts each validated input matrix once (``core._mode_parameters``; a chain
reads its environment's from the ``ChannelSpec``).  The cqepi kernel
(``_conditional_kernel``) builds the (B, Z1, Z2) output of two-mode inputs
and validates it and the Z marginals like a ``CovarianceMatrix``; sampled
two-mode squeezed inputs carry their exact spectra.  Every ``check_*`` call is
a stack of one through its family's kernel (``_trial``), whose channel is
``Inequality.kind``; the right-hand sides are ``channels.epi_rhs``.
Campaign results are reproducible: trial i's uniform draws
are those of ``numpy.random.default_rng((seed, i))``, bit for bit, computed
for a whole chunk at once as array arithmetic (``_uniform_draws``); the
trials are evaluated in fixed-size chunks, and the mean is an exactly
rounded sum in trial order, so every chunking aggregates identically.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .channels import (
    ChannelKind,
    ChannelSpec,
    _factor_entropies,
    _pair_spectra,
    channel_map,
    coupling,
    epi_rhs,
)
from .core import (
    _CHUNK,
    CovarianceMatrix,
    _check_sampling_bounds,
    _is_thermal,
    _mode_parameters,
    _spectral_entropy,
    _stack_entropy,
    _two_mode_squeezed_stack,
    symplectic_eigenvalues,
    thermal_entropy,
)

DEFAULT_TOLERANCE = 1e-9


class Inequality(Enum):
    QEPI_BS = "qepi-bs"
    QEPI_AMP = "qepi-amp"
    CQEPI_BS = "cqepi-bs"
    CQEPI_AMP = "cqepi-amp"
    MOE_CHAIN_BS = "moe-chain-bs"
    WC_CHAIN_BS = "wc-chain-bs"

    @property
    def kind(self) -> ChannelKind:
        """The channel the family is stated for: the amplifier (qepi-amp, cqepi-amp) or the beam splitter."""
        amplifier = self in (Inequality.QEPI_AMP, Inequality.CQEPI_AMP)
        return ChannelKind.AMPLIFIER if amplifier else ChannelKind.BEAM_SPLITTER


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


# ---------------------------------------------------------------------------
# kernels: (n, r, u) or stacks of validated matrices in, lhs and rhs arrays out
# ---------------------------------------------------------------------------

def _single_mode_kernel(inequality: Inequality, parameter, a, e, label) -> tuple[np.ndarray, np.ndarray]:
    """qepi and chain inequalities on single-mode inputs A and E given as their (n, r, u), as
    ``channels._pair_spectra`` takes them: lhs = S(B), from its closed-form spectrum, or for wc-chain-bs
    S(F, C) of the complementary output; rhs = ``epi_rhs``(s1, s2), with (s1, s2) = (g(n_A), g(n_E)), the
    inputs' entropies (qepi), or (0, g(n_E)) (chains), the output-entropy floor of a thermal environment."""
    kind = inequality.kind
    xs = _pair_spectra(kind, parameter, a, e, label)
    lhs = _factor_entropies(xs[1:]).sum(axis=0) if inequality is Inequality.WC_CHAIN_BS else _factor_entropies(xs[0])
    s1, s2 = thermal_entropy(np.stack([a[0], e[0]])) if inequality in _PLAIN else (0.0, thermal_entropy(e[0]))
    return lhs, epi_rhs(kind, parameter, s1, s2)


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


# ---------------------------------------------------------------------------
# single checks: user matrices turned into (n, r, u), or a stack of one
# ---------------------------------------------------------------------------

def _trial(inequality: Inequality, parameter: float, inputs: tuple[CovarianceMatrix, ...], first, second) -> EpiTrial:
    """Any of the six checks as a stack of one through its family's kernel, on the (n, r, u) of single-mode
    inputs (qepi, chains) or the (data, spectra) stacks of two-mode ones (cqepi)."""
    column = np.array([parameter], dtype=float)
    if inequality in _CONDITIONAL:
        lhs, rhs = _conditional_kernel(inequality.kind, column, first, second)
    else:
        lhs, rhs = _single_mode_kernel(inequality, column, first, second, lambda i: "the input matrices")
    return EpiTrial(inequality, parameter, inputs, float(lhs[0]), float(rhs[0]))


def _pair_trial(inequality: Inequality, first: CovarianceMatrix, second: CovarianceMatrix, parameter: float) -> EpiTrial:
    """A qepi check on the (n, r, u) of its inputs, or a cqepi check on their (data, spectra)."""
    if inequality in _PLAIN:
        _require_modes(1, first, second)
        return _trial(inequality, parameter, (first, second), _mode_parameters(first), _mode_parameters(second))
    _require_modes(2, first, second)
    pair1, pair2 = ((s.data[None], symplectic_eigenvalues(s)[None]) for s in (first, second))
    return _trial(inequality, parameter, (first, second), pair1, pair2)


def _chain_trial(inequality: Inequality, state: CovarianceMatrix, spec: ChannelSpec) -> EpiTrial:
    """A chain check on the (n, r, u) of the input and the spec's stored ones of its thermal environment."""
    if spec.kind is not ChannelKind.BEAM_SPLITTER:
        raise ValueError("chain inequalities are checked for the beam splitter")
    _require_modes(1, state)
    if not _is_thermal(spec._environment_modes):
        raise ValueError(f"the chain inequality {inequality.value} assumes a thermal environment (2N + 1) I")
    return _trial(inequality, spec.parameter, (state,), _mode_parameters(state), spec._environment_modes)


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
# per-trial streams: default_rng((seed, i)).random(k) for a chunk of i at once
# ---------------------------------------------------------------------------

# A campaign's trial indices are single uint32 entropy words.
MAX_TRIALS = 2**32
_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (a pool of 4 words) and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_keys(init: int, mult: int, count: int) -> list[int]:
    """The count + 1 keys h, h mult, h mult^2, ... (mod 2^32) a SeedSequence hash from h = init steps through."""
    keys = [init]
    for _ in range(count):
        keys.append(keys[-1] * mult & _MASK32)
    return keys


def _columns(keys: list[int], steps) -> tuple[np.ndarray, np.ndarray]:
    """(h_in, h_out) uint32 columns that hash row r with step steps[r]."""
    return tuple(np.array([keys[s + shift] for s in steps], dtype=np.uint32)[:, None] for shift in (0, 1))


@lru_cache(maxsize=None)
def _seed_keys(n_words: int):
    """SeedSequence's hash keys on an entropy of ``n_words`` words, as ``_columns`` per pass over its pool
    of 4: the fill (steps 0-3), the cross-mix of each source word into the other three (steps 4 + 3 src
    onwards; the source's own row repeats the first step and its result is discarded), one pass per word
    past the pool (4 steps each), and the 8 words of ``generate_state(4, np.uint64)``."""
    keys = _hash_keys(_INIT_A, _MULT_A, 16 + 4 * max(n_words - 4, 0))
    cross = []
    for src in range(4):
        steps = [4 + 3 * src + n for n in range(3)]
        steps.insert(src, steps[0])
        cross.append(_columns(keys, steps))
    tail = [_columns(keys, range(16 + 4 * n, 20 + 4 * n)) for n in range(max(n_words - 4, 0))]
    return _columns(keys, range(4)), cross, tail, _columns(_hash_keys(_INIT_B, _MULT_B, 8), range(8))


def _hashmix(values, keys):
    """SeedSequence's hashmix of uint32 rows (or one word) with ``_columns`` keys, wrapping mod 2^32."""
    mixed = (values ^ keys[0]) * keys[1]
    return mixed ^ (mixed >> 16)


def _mix(x, y):
    """SeedSequence's mix of y into x, wrapping mod 2^32."""
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> 16)


@lru_cache(maxsize=None)
def _jump_keys(count: int) -> tuple[np.ndarray, ...]:
    """P_j = M^(j+2) and Q_j = 1 + M + ... + M^(j+1) mod 2^128 for j < count, stacked as rows (2, 1, count)
    of their uint64 limbs hi and lo, then of the 32-bit halves of lo.

    Seeding PCG64 with (initstate, initseq) sets inc = 2 initseq + 1 and the
    state M (inc + initstate) + inc; output j is the XSL-RR of that state after
    j + 1 more steps s -> M s + inc, which is P_j (inc + initstate) + Q_j inc.
    """
    powers, sums = [], []
    power, total = _PCG_MULT, 1
    for _ in range(count):
        power, total = power * _PCG_MULT % 2**128, (total * _PCG_MULT + 1) % 2**128
        powers.append(power)
        sums.append(total)
    fields = ((64, 2**64 - 1), (0, 2**64 - 1), (32, _MASK32), (0, _MASK32))
    return tuple(np.array([[[v >> shift & mask for v in values]] for values in (powers, sums)], dtype=np.uint64)
                 for shift, mask in fields)


def _times(hi: np.ndarray, lo: np.ndarray, limbs: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 limbs of x c mod 2^128 for x in limbs ``hi``, ``lo`` and c from ``_jump_keys``, broadcast."""
    c_hi, c_lo, c1, c0 = limbs
    x0, x1 = lo & _MASK32, lo >> 32
    p01, p10 = x0 * c1, x1 * c0
    middle = ((x0 * c0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = x1 * c1 + (p01 >> 32) + (p10 >> 32) + (middle >> 32)  # the high limb of lo * c_lo
    return carry + lo * c_hi + hi * c_lo, lo * c_lo


def _uniform_draws(seed: int, indices: range, count: int) -> np.ndarray:
    """Row r is ``np.random.default_rng((seed, indices[r])).random(count)``, bit for bit, shape (T, count).

    The entropy is the seed's uint32 words, least significant first, then
    the index.  SeedSequence fills a pool of 4 words from it (zeros past its
    end), cross-mixes the pool, mixes in the words past the pool, and hashes
    it into PCG64's (initstate, initseq); each of these is a fixed uint32
    circuit whose keys do not depend on the data, so it runs on all indices
    at once.  Every output then comes from one jump-ahead (``_jump_keys``)
    instead of a step at a time, and ``random()`` is (XSL-RR >> 11) 2^-53.
    Indices must lie below ``MAX_TRIALS``.  Array arithmetic on uint32 and
    uint64 wraps silently, as the hash and the generator require.
    """
    seed = operator.index(seed)  # a numpy integer too, as SeedSequence accepts it
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = words + [np.arange(indices.start, indices.stop, dtype=np.int64).astype(np.uint32)]
    fill, cross, tail, generate = _seed_keys(len(entropy))
    pool = np.zeros((4, len(indices)), dtype=np.uint32)
    for row, word in enumerate(entropy[:4]):
        pool[row] = word
    pool = _hashmix(pool, fill)
    for src, keys in enumerate(cross):
        mixed = _mix(pool, _hashmix(pool[src], keys))
        mixed[src] = pool[src]
        pool = mixed
    for word, keys in zip(entropy[4:], tail):
        pool = _mix(pool, _hashmix(word, keys))
    state = _hashmix(np.concatenate([pool, pool]), generate).astype(np.uint64)
    # little-endian word pairs: initstate = (s0 | s1 << 32) << 64 | (s2 | s3 << 32), initseq likewise
    init_hi, init_lo, seq_hi, seq_lo = (state[0::2] | (state[1::2] << 32))[:, :, None]
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    x_lo = inc_lo + init_lo
    x_hi = inc_hi + init_hi + (x_lo < inc_lo)
    # (inc + initstate) P_j and inc Q_j in one pass, stacked on axis 0
    hi, lo = _times(np.stack([x_hi, inc_hi]), np.stack([x_lo, inc_lo]), _jump_keys(count))
    out_lo = lo[0] + lo[1]
    out_hi = hi[0] + hi[1] + (out_lo < lo[0])
    rotation, folded = out_hi >> 58, out_hi ^ out_lo
    out = (folded >> rotation) | (folded << ((64 - rotation) & 63))
    return (out >> 11) * (1.0 / 9007199254740992.0)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def _drawn_label(i: tuple) -> str:
    """Where the spectra of a campaign's drawn states fail; the campaign names the trial."""
    return "the drawn states"


@dataclass(frozen=True)
class _Campaign:
    """Sampling settings of one campaign; ``lhs_rhs`` evaluates a chunk of its trials."""

    inequality: Inequality
    seed: int
    max_photon: float
    max_squeeze: float
    parameter_range: tuple[float, float]
    env_photon: float | None

    def _widths(self) -> list[int]:
        """Draws per trial, in draw order: the mixing parameter (unless the range is a single value),
        then per family both single-mode states (qepi), the (photon, squeeze) pair of both two-mode
        states (cqepi), or the environment photon number (unless fixed) and the input state (chains)."""
        state = int(self.max_photon > 0) + 3  # one mode: its photon number (if drawn), then (angle, squeeze, angle)
        if self.inequality in _PLAIN:
            widths = [state, state]
        elif self.inequality in _CONDITIONAL:
            widths = [2, 2]
        else:
            widths = [int(self.env_photon is None), state]
        lo, hi = self.parameter_range
        return [int(lo != hi)] + widths

    def _modes(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, r, u) of the single-mode states drawn as rows of ``core.random_gaussian_state``(1)'s draws: the
        photon number (if max_photon > 0), then the rotation draw u of the angle 2 pi u, the squeezing and
        the sampler's last rotation, which acts on a thermal state and drops out."""
        if self.max_photon > 0:
            photons, draws = self.max_photon * draws[:, 0], draws[:, 1:]
        else:
            photons = np.zeros(len(draws))
        return photons, self.max_squeeze * draws[:, 1], draws[:, 0]

    def lhs_rhs(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lhs and rhs of the trials whose uniform draws are the rows of ``draws``, split as ``_widths``."""
        varied, first, second = np.split(draws, np.cumsum(self._widths())[:-1], axis=1)
        lo, hi = self.parameter_range
        parameter = lo + (hi - lo) * varied[:, 0] if varied.shape[1] else np.full(len(draws), float(lo))
        inequality = self.inequality
        if inequality in _CONDITIONAL:
            pair1, pair2 = (
                _two_mode_squeezed_stack(self.max_photon * d[:, 0], self.max_squeeze * d[:, 1]) for d in (first, second)
            )
            return _conditional_kernel(inequality.kind, parameter, pair1, pair2)
        if inequality in _PLAIN:
            a, e = self._modes(first), self._modes(second)
        else:  # a chain: the input against a thermal environment, r = 0
            photons = self.max_photon * first[:, 0] if self.env_photon is None else np.full(len(draws), self.env_photon)
            a, e = self._modes(second), (photons, 0.0, 0.0)
        return _single_mode_kernel(inequality, parameter, a, e, _drawn_label)

    def slacks(self, indices: range) -> np.ndarray:
        """Slacks of the trials ``indices``.  A failing trial raises its own
        error class, naming the first failing trial in index order."""
        draws = _uniform_draws(self.seed, indices, sum(self._widths()))
        try:
            lhs, rhs = self.lhs_rhs(draws)
        except (ValueError, ArithmeticError):
            for row, i in enumerate(indices):  # find the first failing trial, one row of the draws at a time
                try:
                    self.lhs_rhs(draws[row:row + 1])
                except (ValueError, ArithmeticError) as exc:
                    raise type(exc)(
                        f"trial {i} of {self.inequality.value} failed (seed={self.seed}): {exc}"
                    ) from exc
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

    Deterministic for a fixed seed: trial i draws the uniform stream of
    ``numpy.random.default_rng((seed, i))``, computed per chunk as array
    arithmetic, the trials are evaluated serially in chunks of a fixed size,
    and the mean is an exactly rounded sum in trial order.  ``trials`` must
    lie in [1, 2^32] (each index is one uint32 seed word).  ``workers`` must
    be at least 1 and changes neither the speed nor the report.
    """
    inequality = Inequality(inequality) if not isinstance(inequality, Inequality) else inequality
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must stay at or below 2^32 = {MAX_TRIALS}: each trial index is one uint32 seed word")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    _check_sampling_bounds(max_photon, max_squeeze)
    if not math.isfinite(tolerance):
        raise ValueError("tolerance must be finite")
    if env_photon is not None and not 0.0 <= env_photon < math.inf:
        raise ValueError("env_photon must be finite and nonnegative")
    if env_photon is not None and not 2.0 * env_photon + 1.0 < math.inf:
        raise ValueError(f"env_photon must keep 2N + 1 finite: N = {env_photon:.6g} is above {sys.float_info.max / 2:.6g}")
    if env_photon is not None and inequality in _PLAIN + _CONDITIONAL:
        raise ValueError(f"env_photon does not apply to {inequality.value}: it fixes a chain's thermal environment")
    if parameter_range is None:
        parameter_range = (1.0, 10.0) if inequality.kind is ChannelKind.AMPLIFIER else (0.0, 1.0)
    if not all(math.isfinite(v) for v in parameter_range):
        raise ValueError("parameter_range must be finite")
    campaign = _Campaign(inequality, seed, max_photon, max_squeeze, tuple(parameter_range), env_photon)

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
