"""Monte Carlo checks of entropy power inequalities on Gaussian states.

Each check evaluates one inequality instance exactly and records the
slack lhs - rhs; a trial counts as a violation when the slack drops
below -tolerance (default 1e-9).  Near the degenerate amplifier gain
k -> 1 the slack itself shrinks to the scale of k - 1, so checks pinned
there should use a correspondingly wider band.

Each family is one row of ``_FAMILIES``: its channel, the shapes of its
two inputs in draw order (``_STATE``, ``_THERMAL`` or ``_PAIR``, each of
which knows its draws per trial and how they, or a ``check_*`` argument,
become a kernel input), and the output spectrum its lhs sums, taken from
``channels._pair_invariants``.  ``_kernel`` takes single-mode inputs to
their closed-form output spectra, sums of nonnegative terms, so no
determinant cancels at any squeezing, and two-mode ones to
``_conditional_kernel``, which takes the (B, Z1, Z2) spectrum from the
inputs' factors with one symmetric ``eigvalsh`` call per stack
(``_conditional_spectrum``); the right-hand sides are ``epi_rhs``.
Campaign results are reproducible: trial i's uniform draws
are those of ``numpy.random.default_rng((seed, i))``, bit for bit, computed
for a whole chunk at once as array arithmetic (``_uniform_draws``); the
trials are evaluated in fixed-size chunks, and the mean is an exactly
rounded sum in trial order, so every chunking aggregates identically.
"""

from __future__ import annotations

import itertools
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
    _complementary_roots,
    _factor_photons,
    _pair_invariants,
    coupling,
    epi_rhs,
)
from .core import (
    _CHUNK,
    _EPS,
    PHYSICALITY_ATOL,
    CovarianceMatrix,
    PhysicalityError,
    _check_sampling_bounds,
    _is_thermal,
    _mode_parameters,
    _reject,
    _spectral_entropy,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_entropy,
)

DEFAULT_TOLERANCE = 1e-9
# The (B, Z1, Z2) spectrum rounds within this many eps (s + nu) (``_conditional_spectrum``): at most 4.5 over 9,720
# drawn trials against mpmath (seeds 1, 7 and 42, squeezing up to r = 30), and 8.6 eps s for the value that vanishes.
_SPECTRUM_ROUNDOFF = 128.0


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
    """A two-mode (X, Z) input as (F, n, n_Z): a factor F of its covariance G = F F.T, the photon numbers (nu - 1) / 2
    of G's spectrum, one per column pair of F, and n_Z of its Z marginal.  A draw, (2n + 1) times a two-mode squeezed
    vacuum, has the exact factor sqrt(2n + 1) S_TMS(r), whose (q, p) blocks on (X, Z) are [[c, s], [s, c]] and
    [[c, -s], [-s, c]]; F is their first row (c, s) = sqrt(2n + 1) (cosh r, sinh r), shape (T, 2), all the kernel
    reads, with n_Z = n + (2n + 1) sinh^2 r.  A validated matrix gives its Cholesky factor, a stack of one (1, 4, 4)."""

    def width(self, campaign: _Campaign) -> int:
        return 2

    def drawn(self, campaign: _Campaign, draws: np.ndarray) -> tuple:
        n, r = campaign.max_photon * draws[:, 0], campaign.max_squeeze * draws[:, 1]
        root, sh = np.sqrt(2.0 * n + 1.0), np.sinh(r)
        rows = root[:, None] * np.stack([np.cosh(r), sh], axis=1)
        return rows, n[:, None].repeat(2, axis=1), n + (2.0 * n + 1.0) * sh * sh

    def require(self, pair: CovarianceMatrix) -> None:
        if pair.n_modes != 2:
            raise ValueError("expected two-mode (X, Z) input states")

    def given(self, pair: CovarianceMatrix, inequality: Inequality) -> tuple:
        try:
            factor = np.linalg.cholesky(pair.data)
        except np.linalg.LinAlgError:
            raise ArithmeticError("the stored covariance entries of the (X, Z) input have no Cholesky factor") from None
        z = symplectic_eigenvalues(CovarianceMatrix(pair.data[2:, 2:]))
        return factor[None], 0.5 * (symplectic_eigenvalues(pair)[None] - 1.0), 0.5 * (z - 1.0)


_STATE, _THERMAL, _PAIR = _State(), _Thermal(), _Pair()

# Each family once: its channel, the shapes of its two inputs in draw order, and whether its lhs sums the entropies
# of S(F, C), the complementary output's x_+ and x_- (True), or of S(B), the channel output's x_B (False), both from
# ``_pair_invariants`` (None: the conditional kernel).
_FAMILIES = {
    Inequality.QEPI_BS: (ChannelKind.BEAM_SPLITTER, (_STATE, _STATE), False),
    Inequality.QEPI_AMP: (ChannelKind.AMPLIFIER, (_STATE, _STATE), False),
    Inequality.CQEPI_BS: (ChannelKind.BEAM_SPLITTER, (_PAIR, _PAIR), None),
    Inequality.CQEPI_AMP: (ChannelKind.AMPLIFIER, (_PAIR, _PAIR), None),
    Inequality.MOE_CHAIN_BS: (ChannelKind.BEAM_SPLITTER, (_THERMAL, _STATE), False),
    Inequality.WC_CHAIN_BS: (ChannelKind.BEAM_SPLITTER, (_THERMAL, _STATE), True),
}


def _kernel(inequality: Inequality, parameter: np.ndarray, inputs, label,
            tolerance: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """lhs and rhs of a family on its kernel inputs in draw order: two-mode ones through ``_conditional_kernel``;
    single-mode ones, an input A and an environment E (a chain draws its thermal E first), give lhs from the row's
    output spectrum and rhs = ``epi_rhs``(s1, s2), (s1, s2) = (g(n_A), g(n_E)), the inputs' entropies (qepi), or
    (0, g(n_E)) (chains), the output-entropy floor of a thermal environment over every input, with g of the lhs and
    rhs photon numbers in one ``thermal_entropy`` call.  A campaign passes its ``tolerance``, below which the
    conditional kernel tells roundoff from a violation; a ``check_*`` passes None."""
    kind, shapes, reads_fc = _FAMILIES[inequality]
    constants = coupling(kind, parameter)
    if reads_fc is None:
        return _conditional_kernel(constants, *inputs, label, tolerance)
    chain = shapes[0] is _THERMAL
    a, e = inputs[::-1] if chain else inputs
    x_b, total, product = _pair_invariants(constants, a, e, label)
    xs = _complementary_roots(total, product) if reads_fc else x_b[None]
    given = (e[0],) if chain else (a[0], e[0])  # the photon numbers of the inputs whose entropies the rhs reads
    rows = len(xs)
    photons = np.empty((rows + len(given),) + xs.shape[1:])
    photons[:rows] = _factor_photons(xs)
    for row, n in enumerate(given, rows):
        photons[row] = n
    g = thermal_entropy(photons)
    s1, s2 = (0.0, g[rows]) if chain else g[rows:]
    return g[:rows].sum(axis=0), epi_rhs(constants, s1, s2)


def _conditional_kernel(constants: tuple, pair1, pair2, label,
                        tolerance: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Conditional EPI on stacks of two-mode (X_i, Z_i) inputs pair_i = (F_i, n_i, n_Zi) of ``_Pair``: lhs =
    S(B, Z1, Z2) - S(Z1) - S(Z2) for B = sqrt(p) X1 + sqrt(q) M X2, rhs = ``epi_rhs`` of S(X_i Z_i) - S(Z_i),
    with (p, q, M) of ``constants``, the ``coupling`` tuple of the stack's parameters, and the (B, Z1, Z2)
    spectrum of ``_conditional_spectrum``.

    Through ``core._reject``, naming ``label(i)``: the vanishing value past
    its bound, or a nu short of 1 by more than 1e-9 within its bound,
    ``ArithmeticError``; a larger shortfall ``PhysicalityError``; a
    campaign's slack (truly >= 0) below -``tolerance`` within its bounds'
    reach, ``ArithmeticError``.
    """
    (_, n1, z1), (_, n2, z2) = pair1, pair2
    nu, zero, scale = _conditional_spectrum(constants, pair1, pair2, label)
    bound = _SPECTRUM_ROUNDOFF * _EPS * (scale[:, None] + nu)
    zero_bound = _SPECTRUM_ROUNDOFF * _EPS * scale
    _reject(zero > zero_bound, ArithmeticError,
            lambda i: f"the (B, Z1, Z2) spectrum at {label(i)} has a singular value {zero[i]:.3g} that should vanish, "
                      f"above its roundoff bound {_SPECTRUM_ROUNDOFF:g} eps s = {zero_bound[i]:.3g}")
    nu_min, nu_bound = nu[:, -1], bound[:, -1]
    short = nu_min < 1.0 - PHYSICALITY_ATOL
    if short.any():
        _reject(short & (1.0 - nu_min <= nu_bound), ArithmeticError,
                lambda i: f"min symplectic eigenvalue {nu_min[i]:.12g} of the (B, Z1, Z2) output at {label(i)} is "
                          f"short of 1 by {1.0 - nu_min[i]:.3g}, within its roundoff bound {_SPECTRUM_ROUNDOFF:g} eps "
                          f"(s + nu) = {nu_bound[i]:.3g}, so it is not fixed to {PHYSICALITY_ATOL:g}")
        _reject(short, PhysicalityError, lambda i: f"uncertainty condition violated at {label(i)}: min symplectic "
                                                   f"eigenvalue {nu_min[i]:.12g} of the (B, Z1, Z2) output < 1")
    # one thermal_entropy call: the output's nu, values below 1 counted as 1, then both inputs' spectra and n_Z
    g = thermal_entropy(np.concatenate([0.5 * (np.maximum(nu, 1.0) - 1.0), n1, n2, z1[:, None], z2[:, None]], axis=1))
    s_z1, s_z2 = g[:, 7], g[:, 8]
    lhs = (g[:, 0] - s_z1) + (g[:, 1] - s_z2) + g[:, 2]  # the Z terms come off the largest ones: small partial sums
    rhs = epi_rhs(constants, g[:, 3:5].sum(axis=1) - s_z1, g[:, 5:7].sum(axis=1) - s_z2)
    # a true slack is >= 0: a campaign's slack below -tolerance is a violation only past the bounds' reach
    if tolerance is not None and (low := lhs - rhs < -tolerance).any():
        reach = _spectral_entropy(nu + bound) - _spectral_entropy(nu - bound)
        _reject(low & (rhs - lhs <= reach), ArithmeticError,
                lambda i: f"slack {lhs[i] - rhs[i]:.6g} at {label(i)} is below -{tolerance:g}, but the roundoff bounds "
                          f"{_SPECTRUM_ROUNDOFF:g} eps (s + nu) on its spectrum move the lhs by up to {reach[i]:.3g}")
    return lhs, rhs


def _conditional_spectrum(constants: tuple, pair1, pair2, label) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (B, Z1, Z2) spectrum of ``_conditional_kernel``'s inputs: nu, shape (T, 3), descending, the value that
    vanishes, and the scale s of their roundoff bounds, each value within ``_SPECTRUM_ROUNDOFF`` eps (s + nu).

    The spectrum is the nonzero singular values, each twice, of the real
    skew K = F.T (Omega - u.T Omega u) F, with F = F1 + F2 (direct sum) and
    u the rows of B' = sqrt(q) m M X1 - sqrt(p) X2 (m = M_11), the channel's
    other output.  A draw's factor, per quadrature sqrt(nu) times a
    symplectic, gives K = [[0, M], [-M.T, 0]] with M = diag(nu) - x y.T of
    rank 3 (x, y the rows u through F_q, F_p); there y = J x for the
    signature J = diag(m, -m, 1, -1), which commutes with diag(nu), so the
    singular values of M are |eig(diag(nu) J - x x.T)|, a symmetric 4x4
    with s = max nu_i.  A Cholesky factor L gives the 8x8 K, whose singular
    values are the eigenvalues of the symmetric [[0, K.T], [K, 0]], with
    s = kappa sigma_1 for kappa = (max diag L / min diag L)^2.  One
    ``eigvalsh`` call takes either.  K past the float range raises
    ``FloatingPointError`` through ``core._reject``, naming ``label(i)``.
    """
    p, q, m, _, _ = constants
    (f1, n1, z1), (f2, n2, z2) = pair1, pair2
    root_q, root_p = np.sqrt(q)[:, None], -np.sqrt(p)[:, None]  # u's weights on X1 (times m on the q row) and on X2
    exact = f1.ndim == 2
    with np.errstate(over="ignore", invalid="ignore"):
        if exact:
            x = np.concatenate([m[1, 1] * root_q * f1, root_p * f2], axis=1)  # u through F_q; through F_p it is J x
            nu_in = 2.0 * np.concatenate([n1, n2], axis=1) + 1.0
            scale = nu_in.max(axis=1)
            d = nu_in * np.array([m[1, 1], -m[1, 1], 1.0, -1.0])  # the diagonal of diag(nu) J
            # diag(d) - x x.T would cancel to eps |x|^2, so it is never formed: the reflection with H x = -a e_0
            # leaves its rank-one part in the corner of H diag(d) H - a^2 e_0 e_0.T, whose other entries are O(s),
            # and its small eigenvalues keep their digits
            v, a = _reflector(x)
            dv = d * v
            # H diag(d) H = diag(d) + v w.T - 2 (d v) v.T with w = 4 (v . d v) v - 2 d v
            w = 4.0 * (v * dv).sum(axis=1)[:, None] * v - 2.0 * dv
            k = v[:, :, None] * w[:, None, :] - 2.0 * dv[:, :, None] * v[:, None, :]
            k.reshape(-1, 16)[:, ::5] += d
            k[:, 0, 0] -= a * a
            # a corner past 2^60 s moves the other eigenvalues by under 2^-60 of themselves and is |lambda_1| to as
            # many digits: capped there, LAPACK never scales the other entries into underflow
            corner = np.abs(k[:, 0, 0])
            np.clip(k[:, 0, 0], -2.0**60 * scale, 2.0**60 * scale, out=k[:, 0, 0])
            # the one entry past O(s); n_Z < (2n + 1) e^(2r) stays finite by the sampling bounds
            finite = np.isfinite(corner)
        else:
            f = np.zeros((len(f1), 8, 8))
            f[:, :4, :4], f[:, 4:, 4:] = f1, f2
            u_q, u_p = m[1, 1] * root_q * f[:, 0] + root_p * f[:, 4], root_q * f[:, 1] + root_p * f[:, 5]
            outer = u_q[:, :, None] * u_p[:, None, :]
            skew = f.swapaxes(-1, -2) @ symplectic_form(4) @ f - (outer - outer.swapaxes(-1, -2))
            diagonal = np.diagonal(f, axis1=-2, axis2=-1)
            scale, corner = (diagonal.max(axis=-1) / diagonal.min(axis=-1)) ** 2, 0.0  # kappa, times sigma_1 below
            finite = np.isfinite(skew).all(axis=(-2, -1))
            # [[0, K.T], [K, 0]] in the order (row 7, column 7, row 6, ...) of K: its tridiagonalization is then a
            # Golub-Kahan bidiagonalization of K, so the small values keep as many digits as a singular value solver's
            k = np.zeros((len(f1), 16, 16))
            k[:, ::2, 1::2] = skew[:, ::-1, ::-1]
            k[:, 1::2, ::2] = k[:, ::2, 1::2].swapaxes(-1, -2)
    _reject(~finite, FloatingPointError, lambda i: f"overflow at {label(i)}: the (B, Z1, Z2) spectrum leaves the float "
                                                   f"range (n_Z1 = {z1[i]:.6g}, n_Z2 = {z2[i]:.6g})")
    values = np.abs(np.linalg.eigvalsh(k))
    values.sort(axis=1)
    values = values[:, ::-1]
    values[:, 0] = np.maximum(values[:, 0], corner)
    step = k.shape[-1] // 4  # each value once from the 4x4, four times from the 16x16
    if not exact:
        scale = scale * values[:, 0]
    return values[:, :3 * step:step], values[:, 3 * step], scale


def _reflector(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit u and a = sign(v_0) |v| with (I - 2 u u.T) v = -a e_0, for vectors v along the last axis; the norms
    are hypot reductions, so no square overflows."""
    a = np.copysign(np.hypot.reduce(v, axis=-1), v[..., 0])
    u = v.copy()
    u[..., 0] += a
    return u / np.hypot.reduce(u, axis=-1)[..., None], a


def _trial(inequality: Inequality, parameter: float, values: tuple) -> EpiTrial:
    """Any of the six checks on its arguments in draw order (input states, or a chain's ``ChannelSpec`` for its
    environment): every argument passes its shape's ``require`` in turn, before any is converted by ``given``."""
    shapes = _FAMILIES[inequality][1]
    for shape, value in zip(shapes, values):
        shape.require(value)
    inputs = [shape.given(value, inequality) for shape, value in zip(shapes, values)]
    lhs, rhs = _kernel(inequality, np.array([parameter], dtype=float), inputs, lambda i: "the input matrices")
    return EpiTrial(inequality, parameter, float(lhs[0]), float(rhs[0]))


def check_qepi_bs(state1: CovarianceMatrix, state2: CovarianceMatrix, transmissivity: float) -> EpiTrial:
    """Beam-splitter entropy power inequality on two single-mode inputs: S(B) >= ``epi_rhs``(S(G1), S(G2))."""
    return _trial(Inequality.QEPI_BS, transmissivity, (state1, state2))


def check_qepi_amp(state1: CovarianceMatrix, state2: CovarianceMatrix, gain: float) -> EpiTrial:
    """Amplifier entropy power inequality on two single-mode inputs: S(B) >= ``epi_rhs``(S(G1), S(G2))."""
    return _trial(Inequality.QEPI_AMP, gain, (state1, state2))


def check_cqepi_bs(pair1: CovarianceMatrix, pair2: CovarianceMatrix, transmissivity: float) -> EpiTrial:
    """Conditional beam-splitter EPI on two-mode inputs (X_i, Z_i): S(B | Z1 Z2) >= ``epi_rhs``(S(X1|Z1), S(X2|Z2)).

    Accurate to the rounding of the input entries times kappa = (max diag L / min diag L)^2 of each pair's Cholesky
    factor L: on two equal ``two_mode_squeezed_state``(r) at t = 1/2 (slack 0) it reads 3-15 eps kappa, from 4.5e-14
    at r = 1 to 6.4e-10 at r = 3.5; from r = 5 those entries fix no spectrum (``ArithmeticError``).
    """
    return _trial(Inequality.CQEPI_BS, transmissivity, (pair1, pair2))


def check_cqepi_amp(pair1: CovarianceMatrix, pair2: CovarianceMatrix, gain: float) -> EpiTrial:
    """Conditional amplifier EPI on two-mode inputs (X_i, Z_i): S(B | Z1 Z2) >= ``epi_rhs``(S(X1|Z1), S(X2|Z2)).
    Accurate to the rounding of the input entries, as ``check_cqepi_bs``."""
    return _trial(Inequality.CQEPI_AMP, gain, (pair1, pair2))


def check_moe_chain(state: CovarianceMatrix, spec: ChannelSpec) -> EpiTrial:
    """Single-use output-entropy floor S(channel(G)) >= (1-t) g(Ne)."""
    return _trial(Inequality.MOE_CHAIN_BS, spec.parameter, (spec, state))


def check_wc_chain(state: CovarianceMatrix, spec: ChannelSpec) -> EpiTrial:
    """Complementary-side floor S(complement(G)) >= (1-t) g(Ne)."""
    return _trial(Inequality.WC_CHAIN_BS, spec.parameter, (spec, state))


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
    tolerance: float = DEFAULT_TOLERANCE

    def _widths(self) -> list[int]:
        """Draws per trial, in draw order: the mixing parameter (unless the range is one value), then each input's."""
        lo, hi = self.parameter_range
        return [int(lo != hi)] + [shape.width(self) for shape in _FAMILIES[self.inequality][1]]

    def inputs(self, draws: np.ndarray) -> tuple[np.ndarray, list]:
        """The mixing parameters and the kernel inputs in draw order of the trials whose uniform draws are the rows
        of ``draws``, in the columns of ``_widths``."""
        lo, hi = self.parameter_range
        start, *widths = self._widths()
        parameter = lo + (hi - lo) * draws[:, 0] if start else np.full(len(draws), float(lo))
        inputs = []
        for shape, width in zip(_FAMILIES[self.inequality][1], widths):
            inputs.append(shape.drawn(self, draws[:, start:start + width]))
            start += width
        return parameter, inputs

    def lhs_rhs(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lhs and rhs of the trials whose uniform draws are the rows of ``draws``, in the columns of ``_widths``."""
        return _kernel(self.inequality, *self.inputs(draws), lambda i: "the drawn states", self.tolerance)

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
) -> EpiReport:
    """Run ``trials`` random instances of one inequality family.

    Deterministic for a fixed seed: trial i draws the uniform stream of
    ``numpy.random.default_rng((seed, i))``, computed per chunk as array
    arithmetic, the trials are evaluated serially in chunks of a fixed size,
    and the mean is an exactly rounded sum in trial order.  Memory holds one
    chunk's slacks at a time.  ``trials`` must lie in [1, 2^32] (each index
    is one uint32 seed word).
    """
    inequality = Inequality(inequality)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must stay at or below 2^32 = {MAX_TRIALS}: each trial index is one uint32 seed word")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
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
    try:  # both ends, before any draw: a trial then fails only for its own draws
        coupling(inequality.kind, np.array(parameter_range, dtype=float))
    except ValueError as exc:
        lo, hi = (float(v) for v in parameter_range)  # each end to the last digit: one just outside reads as outside
        raise ValueError(f"parameter_range ({lo!r}, {hi!r}) of {inequality.value}: {exc}") from None
    campaign = _Campaign(inequality, seed, max_photon, max_squeeze, tuple(parameter_range), env_photon, tolerance)

    violations, least = 0, np.inf

    def chunk_slacks():  # one chunk at a time, counted and minimised as fsum consumes it
        nonlocal violations, least
        for start in range(0, trials, _CHUNK):
            slacks = campaign.slacks(range(start, min(start + _CHUNK, trials)))
            violations, least = violations + int(np.count_nonzero(slacks < -tolerance)), np.minimum(least, slacks.min())
            yield slacks.tolist()

    total = math.fsum(itertools.chain.from_iterable(chunk_slacks()))  # the exact sum rounded once, as over one list
    return EpiReport(inequality=inequality.value, trials=trials, violations=violations, min_slack=float(least),
                     mean_slack=total / trials, seed=seed, tolerance=tolerance)
