"""Monte Carlo checks of entropy power inequalities on Gaussian states.

Each check evaluates one inequality instance exactly and records the
slack lhs - rhs; a trial counts as a violation when the slack drops
below -tolerance (default 1e-9).  Near the degenerate amplifier gain
k -> 1 the slack itself shrinks to the scale of k - 1, so checks pinned
there should use a correspondingly wider band.

Each family is one row of ``_FAMILIES``: its channel, the shapes of its
two inputs in draw order (``_STATE``, ``_THERMAL`` or ``_PAIR``, each of
which knows its draws per trial and how they, or a ``check_*`` argument,
become a kernel input), and the ``channels._pair_spectra`` rows its lhs
sums.  ``_kernel`` takes single-mode inputs to their closed-form output
spectra, sums of nonnegative terms, so no determinant cancels at any
squeezing, and two-mode ones to ``_conditional_kernel``, which builds and
validates the (B, Z1, Z2) output; the right-hand sides are ``epi_rhs``.
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
        """The channel the family is stated for, from its row of ``_FAMILIES``."""
        return _FAMILIES[self][0]


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


# ---------------------------------------------------------------------------
# families: input shapes, one row per family, the kernels, and the checks as stacks of one through them
# ---------------------------------------------------------------------------

class _State:
    """A single-mode state's (n, r, u), drawn as ``core.random_gaussian_state``(1) draws them: the photon number (if
    max_photon > 0), the rotation draw u of the angle 2 pi u, the squeezing and a last rotation, which drops out."""

    def width(self, campaign: _Campaign) -> int:
        return int(campaign.max_photon > 0) + 3

    def drawn(self, campaign: _Campaign, draws: np.ndarray) -> tuple:
        # max_photon = 0 draws no photon number, and its product with the rotation draw is n = 0 all the same
        return campaign.max_photon * draws[:, 0], campaign.max_squeeze * draws[:, -2], draws[:, -3]

    def require(self, state: CovarianceMatrix) -> None:
        if state.n_modes != 1:
            raise ValueError("expected single-mode input states")

    def given(self, state: CovarianceMatrix, inequality: Inequality) -> tuple:
        return _mode_parameters(state)


class _Thermal:
    """A chain's thermal environment as (n, 0, 0), n drawn unless ``env_photon`` pins it, or a spec's (n, r, u)."""

    def width(self, campaign: _Campaign) -> int:
        return int(campaign.env_photon is None)

    def drawn(self, campaign: _Campaign, draws: np.ndarray) -> tuple:
        pinned = campaign.env_photon
        return (campaign.max_photon * draws[:, 0] if pinned is None else np.full(len(draws), pinned)), 0.0, 0.0

    def require(self, spec: ChannelSpec) -> None:
        if spec.kind is not ChannelKind.BEAM_SPLITTER:
            raise ValueError("chain inequalities are checked for the beam splitter")

    def given(self, spec: ChannelSpec, inequality: Inequality) -> tuple:
        if not _is_thermal(spec._environment_modes):
            raise ValueError(f"the chain inequality {inequality.value} assumes a thermal environment (2N + 1) I")
        return spec._environment_modes


class _Pair:
    """A two-mode (X, Z) input's (data, spectra): (2n + 1) times a drawn two-mode squeezed vacuum, or a stack of one."""

    def width(self, campaign: _Campaign) -> int:
        return 2

    def drawn(self, campaign: _Campaign, draws: np.ndarray) -> tuple:
        return _two_mode_squeezed_stack(campaign.max_photon * draws[:, 0], campaign.max_squeeze * draws[:, 1])

    def require(self, pair: CovarianceMatrix) -> None:
        if pair.n_modes != 2:
            raise ValueError("expected two-mode (X, Z) input states")

    def given(self, pair: CovarianceMatrix, inequality: Inequality) -> tuple:
        return pair.data[None], symplectic_eigenvalues(pair)[None]


_STATE, _THERMAL, _PAIR = _State(), _Thermal(), _Pair()

# Each family once: its channel, the shapes of its two inputs in draw order, and the rows of ``_pair_spectra``
# whose entropies its lhs sums, S(B) or S(F, C) of the complementary output (None: the conditional kernel).
_FAMILIES = {
    Inequality.QEPI_BS: (ChannelKind.BEAM_SPLITTER, (_STATE, _STATE), slice(0, 1)),
    Inequality.QEPI_AMP: (ChannelKind.AMPLIFIER, (_STATE, _STATE), slice(0, 1)),
    Inequality.CQEPI_BS: (ChannelKind.BEAM_SPLITTER, (_PAIR, _PAIR), None),
    Inequality.CQEPI_AMP: (ChannelKind.AMPLIFIER, (_PAIR, _PAIR), None),
    Inequality.MOE_CHAIN_BS: (ChannelKind.BEAM_SPLITTER, (_THERMAL, _STATE), slice(0, 1)),
    Inequality.WC_CHAIN_BS: (ChannelKind.BEAM_SPLITTER, (_THERMAL, _STATE), slice(1, 3)),
}


def _kernel(inequality: Inequality, parameter: np.ndarray, inputs, label) -> tuple[np.ndarray, np.ndarray]:
    """lhs and rhs of a family on its kernel inputs in draw order: two-mode ones through ``_conditional_kernel``;
    single-mode ones, an input A and an environment E (a chain draws its thermal E first), give lhs from the row's
    ``_pair_spectra`` rows and rhs = ``epi_rhs``(s1, s2), (s1, s2) = (g(n_A), g(n_E)), the inputs' entropies (qepi),
    or (0, g(n_E)) (chains), the output-entropy floor of a thermal environment over every input."""
    kind, shapes, rows = _FAMILIES[inequality]
    if rows is None:
        return _conditional_kernel(kind, parameter, *inputs)
    chain = shapes[0] is _THERMAL
    a, e = inputs[::-1] if chain else inputs
    lhs = _factor_entropies(_pair_spectra(kind, parameter, a, e, label)[rows]).sum(axis=0)
    s1, s2 = (0.0, thermal_entropy(e[0])) if chain else thermal_entropy(np.stack([a[0], e[0]]))
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


def _trial(inequality: Inequality, parameter: float, values: tuple) -> EpiTrial:
    """Any of the six checks on its arguments in draw order (input states, or a chain's ``ChannelSpec`` for its
    environment): every argument passes its shape's ``require`` in turn, before any is converted by ``given``."""
    shapes = _FAMILIES[inequality][1]
    for shape, value in zip(shapes, values):
        shape.require(value)
    inputs = [shape.given(value, inequality) for shape, value in zip(shapes, values)]
    lhs, rhs = _kernel(inequality, np.array([parameter], dtype=float), inputs, lambda i: "the input matrices")
    states = tuple(value for value in values if isinstance(value, CovarianceMatrix))  # a spec is no input state
    return EpiTrial(inequality, parameter, states, float(lhs[0]), float(rhs[0]))


def check_qepi_bs(state1: CovarianceMatrix, state2: CovarianceMatrix, transmissivity: float) -> EpiTrial:
    """Beam-splitter entropy power inequality on two single-mode inputs: S(B) >= ``epi_rhs``(S(G1), S(G2))."""
    return _trial(Inequality.QEPI_BS, transmissivity, (state1, state2))


def check_qepi_amp(state1: CovarianceMatrix, state2: CovarianceMatrix, gain: float) -> EpiTrial:
    """Amplifier entropy power inequality on two single-mode inputs: S(B) >= ``epi_rhs``(S(G1), S(G2))."""
    return _trial(Inequality.QEPI_AMP, gain, (state1, state2))


def check_cqepi_bs(pair1: CovarianceMatrix, pair2: CovarianceMatrix, transmissivity: float) -> EpiTrial:
    """Conditional beam-splitter EPI on two-mode inputs (X_i, Z_i): S(B | Z1 Z2) >= ``epi_rhs``(S(X1|Z1), S(X2|Z2))."""
    return _trial(Inequality.CQEPI_BS, transmissivity, (pair1, pair2))


def check_cqepi_amp(pair1: CovarianceMatrix, pair2: CovarianceMatrix, gain: float) -> EpiTrial:
    """Conditional amplifier EPI on two-mode inputs (X_i, Z_i): S(B | Z1 Z2) >= ``epi_rhs``(S(X1|Z1), S(X2|Z2))."""
    return _trial(Inequality.CQEPI_AMP, gain, (pair1, pair2))


def check_moe_chain(state: CovarianceMatrix, spec: ChannelSpec) -> EpiTrial:
    """Single-use output-entropy floor S(channel(G)) >= (1-t) g(Ne)."""
    return _trial(Inequality.MOE_CHAIN_BS, spec.parameter, (spec, state))


def check_wc_chain(state: CovarianceMatrix, spec: ChannelSpec) -> EpiTrial:
    """Complementary-side floor S(complement(G)) >= (1-t) g(Ne)."""
    return _trial(Inequality.WC_CHAIN_BS, spec.parameter, (spec, state))


def fock_entropy_oracle(mean_photon: float, cutoff: int) -> float:
    """Entropy of the truncated geometric photon-number distribution of a
    thermal state, renormalised; converges to thermal_entropy as the cutoff grows."""
    if not 0.0 <= mean_photon < math.inf:  # also rejects NaN
        raise ValueError("mean photon number must be finite and nonnegative")
    if operator.index(cutoff) < 2:  # a fractional cutoff raises TypeError, as range() does
        raise ValueError("cutoff must be at least 2")
    if mean_photon == 0:
        return 0.0
    k = np.arange(cutoff)
    p = np.exp(k * math.log(mean_photon) - (k + 1) * math.log(mean_photon + 1.0))
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
        """Draws per trial, in draw order: the mixing parameter (unless the range is one value), then each input's."""
        lo, hi = self.parameter_range
        return [int(lo != hi)] + [shape.width(self) for shape in _FAMILIES[self.inequality][1]]

    def lhs_rhs(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lhs and rhs of the trials whose uniform draws are the rows of ``draws``, split as ``_widths``."""
        varied, *split = np.split(draws, np.cumsum(self._widths())[:-1], axis=1)
        lo, hi = self.parameter_range
        parameter = lo + (hi - lo) * varied[:, 0] if varied.shape[1] else np.full(len(draws), float(lo))
        inputs = [shape.drawn(self, d) for shape, d in zip(_FAMILIES[self.inequality][1], split)]
        return _kernel(self.inequality, parameter, inputs, lambda i: "the drawn states")

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
    inequality = Inequality(inequality)
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
    if env_photon is not None and _THERMAL not in _FAMILIES[inequality][1]:
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
