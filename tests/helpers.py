"""Independent oracles shared by the test modules.

Everything here is computed from first principles (stdlib math, mpmath
and raw numpy eigensolvers) so the expectations do not reuse the library's
own code paths.  Two exceptions are on purpose: ``thermal_entropy_reference``,
a frozen copy of the library's formula for g, which the library must keep
bit for bit however it arranges its passes; and the per-point bounds chain
at the end, which reuses the library's per-matrix API: the bound grids'
closed forms must reproduce it bit for bit, and their closed-form coherent
information must reproduce it to a stated tolerance.
"""

import inspect
import math
import operator

import mpmath as mp
import numpy as np

from gausscap import (
    ChannelSpec,
    CovarianceMatrix,
    apply_channel,
    complementary,
    entropy,
    equivalent_thermal_photon,
    holevo_capacity,
    maximal_capacity,
    moe_sum_lower,
    private_capacity_lower_approx,
    private_capacity_upper_general,
    symplectic_form,
    thermal_state,
)


# Past this x the two terms of g_direct cancel beyond about 2e-12 relative (3.8e-9 absolute at 1.2e8, 0.0 at 5.9e16).
G_DIRECT_MAX = 1e4


def g_direct(x: float) -> float:
    """(x+1) ln(x+1) - x ln x evaluated directly with stdlib math, for x <= G_DIRECT_MAX; larger x raises."""
    if x > G_DIRECT_MAX:
        raise ValueError(f"g_direct cancels above x = {G_DIRECT_MAX:g} (got x = {x:.6g}): use g_mp")
    if x == 0:
        return 0.0
    return (x + 1.0) * math.log(x + 1.0) - x * math.log(x)


def thermal_entropy_reference(mean_photon):
    """``thermal_entropy`` as first written, one branch of ln(1+x) + x ln(1 + 1/x) per element and the x < 1 branch
    x (ln(1+x) - ln x) on every element: the bits the library's evaluation must keep."""
    x = np.asarray(mean_photon, dtype=float)
    if not ((x >= 0) & (x < math.inf)).all():  # also rejects NaN
        raise ValueError("mean photon number must be finite and nonnegative")
    safe = np.where(x > 0, x, 1.0)
    head = np.log1p(safe)
    tail = np.where(safe < 1.0, head - np.log(safe), np.log1p(1.0 / np.maximum(safe, 1.0)))
    value = np.where(x > 0, head + safe * tail, 0.0)
    return float(value) if np.ndim(mean_photon) == 0 else value


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


def raw_symplectic_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Distinct |eig(Omega @ V)| values computed with raw numpy, ascending."""
    n = matrix.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    mags = np.sort(np.abs(np.linalg.eigvals(omega @ matrix)))
    return mags[::2]


def symplectic_residual(matrix: np.ndarray) -> float:
    """Max-abs deviation of S @ Omega @ S.T from Omega, with no allowance for roundoff."""
    omega = symplectic_form(matrix.shape[0] // 2)
    return float(np.max(np.abs(matrix @ omega @ matrix.T - omega)))


def two_mode_block_sym_eigs(f: float, g: float, d: float) -> tuple[float, float]:
    """Symplectic eigenvalues of [[f I, d Z], [d Z, g I]] from the 2x2-block determinant formula."""
    delta = f * f + g * g - 2.0 * d * d
    det = (f * g - d * d) ** 2
    disc = math.sqrt(max(delta * delta - 4.0 * det, 0.0))
    hi = math.sqrt((delta + disc) / 2.0)
    lo = math.sqrt((delta - disc) / 2.0)
    return hi, lo


def fc_entropy_thermal_bs(transmissivity: float, n_in: float, n_env: float) -> float:
    """Closed-form complementary-output entropy for a beam splitter with
    thermal input and thermal environment.

    The (F, C) covariance is [[f I, d Z], [d Z, nu_e I]] with
    f = (1-t) nu_a + t nu_e and d = sqrt(t) * sqrt(nu_e^2 - 1).
    """
    nu_a = 2.0 * n_in + 1.0
    nu_e = 2.0 * n_env + 1.0
    f = (1.0 - transmissivity) * nu_a + transmissivity * nu_e
    d = math.sqrt(transmissivity) * math.sqrt(nu_e * nu_e - 1.0)
    hi, lo = two_mode_block_sym_eigs(f, nu_e, d)
    return g_direct((hi - 1.0) / 2.0) + g_direct((lo - 1.0) / 2.0)


def fc_entropy_thermal_amp(gain: float, n_in: float, n_env: float) -> float:
    """Closed-form complementary-output entropy for the amplifier with
    thermal input and thermal environment (F block (k-1) nu_a + k nu_e,
    F-C correlation sqrt(k) sqrt(nu_e^2 - 1))."""
    nu_a = 2.0 * n_in + 1.0
    nu_e = 2.0 * n_env + 1.0
    f = (gain - 1.0) * nu_a + gain * nu_e
    d = math.sqrt(gain) * math.sqrt(nu_e * nu_e - 1.0)
    hi, lo = two_mode_block_sym_eigs(f, nu_e, d)
    return g_direct((hi - 1.0) / 2.0) + g_direct((lo - 1.0) / 2.0)


# ---------------------------------------------------------------------------
# conjugate-and-trace channel oracle
# ---------------------------------------------------------------------------

PHASE_FLIP = np.diag([1.0, -1.0])


def raw_channel_symplectic(kind: str, parameter: float) -> np.ndarray:
    """Two-mode (A, E) symplectic: beam splitter ("bs") or amplifier ("amp")."""
    if kind == "bs":
        a, b = math.sqrt(parameter) * np.eye(2), math.sqrt(1.0 - parameter) * np.eye(2)
        return np.block([[a, b], [-b, a]])
    a, b = math.sqrt(parameter) * np.eye(2), math.sqrt(parameter - 1.0) * PHASE_FLIP
    return np.block([[a, b], [b, a]])


def raw_single_mode_purification(gamma_e: np.ndarray) -> np.ndarray:
    """Two-mode pure (E, C) state whose E marginal is ``gamma_e``.

    gamma_e = nu S S.T with nu = sqrt(det gamma_e) and S its symmetric,
    determinant-one square-root factor, taken from an eigendecomposition;
    the thermal factor nu I is extended to a two-mode squeezed block and S
    then acts on E.  Factors within 1e-12 of nu = 1 count as pure and couple
    nothing to C.
    """
    evals, evecs = np.linalg.eigh(gamma_e)
    nu = math.sqrt(evals[0] * evals[1])
    s = evecs @ np.diag(np.sqrt(evals / nu)) @ evecs.T
    c = math.sqrt((nu - 1.0) * (nu + 1.0)) if nu - 1.0 > 1e-12 else 0.0
    thermal = np.block([[nu * np.eye(2), c * PHASE_FLIP], [c * PHASE_FLIP, nu * np.eye(2)]])
    widen = np.eye(4)
    widen[:2, :2] = s
    return widen @ thermal @ widen.T


def rotated_squeezed(photon: float, squeeze: float, angle: float) -> np.ndarray:
    """(2N + 1) R diag(e^(-2r), e^(2r)) R.T with R = [[cos, sin], [-sin, cos]] of the angle, symmetrised."""
    c, s = math.cos(angle), math.sin(angle)
    rotation = np.array([[c, s], [-s, c]])
    gamma = rotation @ np.diag((2.0 * photon + 1.0) * np.exp([-2.0 * squeeze, 2.0 * squeeze])) @ rotation.T
    return 0.5 * (gamma + gamma.T)


def two_mode_squeezing_symplectic(squeeze: float) -> np.ndarray:
    """Two-mode squeezer [[cosh(r) I, sinh(r) Z], [sinh(r) Z, cosh(r) I]]."""
    ch = np.cosh(squeeze) * np.eye(2)
    sh = np.sinh(squeeze) * PHASE_FLIP
    return np.block([[ch, sh], [sh, ch]])


def embed_two_mode(block: np.ndarray, n_modes: int, mode_a: int, mode_b: int) -> np.ndarray:
    """Embed a two-mode symplectic block so it acts on (mode_a, mode_b) of n modes."""
    if mode_a == mode_b or not (0 <= mode_a < n_modes and 0 <= mode_b < n_modes):
        raise ValueError("mode indices must be distinct and within range")
    out = np.eye(2 * n_modes)
    placed = [(0, mode_a), (1, mode_b)]
    for bi, mi in placed:
        for bj, mj in placed:
            out[2 * mi:2 * mi + 2, 2 * mj:2 * mj + 2] = block[2 * bi:2 * bi + 2, 2 * bj:2 * bj + 2]
    return out


def conjugate_and_trace(kind: str, parameter: float, gamma_a: np.ndarray, gamma_e: np.ndarray):
    """Channel outputs by conjugating the joint state with the channel symplectic.

    Returns (B, F, (F, C)): the channel symplectic acts on gamma_a + gamma_e
    (direct sum) and each output is a principal block; for (F, C) the
    environment is first purified with a reference mode C that the channel
    leaves alone.
    """
    s = raw_channel_symplectic(kind, parameter)
    joint = np.zeros((4, 4))
    joint[:2, :2], joint[2:, 2:] = gamma_a, gamma_e
    pair = s @ joint @ s.T
    wide = np.eye(6)
    wide[:4, :4] = s
    joint = np.zeros((6, 6))
    joint[:2, :2], joint[2:, 2:] = gamma_a, raw_single_mode_purification(gamma_e)
    triple = wide @ joint @ wide.T
    return pair[:2, :2], pair[2:, 2:], triple[2:, 2:]


def conditional_conjugate_and_trace(kind: str, parameter: float, pair1: np.ndarray, pair2: np.ndarray):
    """(B, Z1, Z2) and (Z1, Z2) covariances of the conditional EPI lhs, by conjugation.

    The channel symplectic acts on modes (X1, X2) of the product
    (X1, Z1, X2, Z2); the kept blocks are the principal submatrices on
    modes (0, 1, 3) and (1, 3).
    """
    joint = np.zeros((8, 8))
    joint[:4, :4], joint[4:, 4:] = pair1, pair2
    s = embed_two_mode(raw_channel_symplectic(kind, parameter), 4, 0, 2)
    out = s @ joint @ s.T
    kept = [0, 1, 2, 3, 6, 7]
    return out[np.ix_(kept, kept)], out[np.ix_(kept[2:], kept[2:])]


def raw_entropy(matrix: np.ndarray) -> float:
    """Von Neumann entropy from raw numpy symplectic eigenvalues; factors below 1 count as pure."""
    return sum(g_direct(max((nu - 1.0) / 2.0, 0.0)) for nu in raw_symplectic_eigenvalues(matrix))


# ---------------------------------------------------------------------------
# Monte Carlo trial oracle
# ---------------------------------------------------------------------------

def reference_gaussian_state(n_modes: int, max_photon: float, max_squeeze: float, rng) -> np.ndarray:
    """Random covariance drawn one scalar at a time in the sampler's documented order.

    Photon numbers (if max_photon > 0), then per mode a rotation angle, a
    squeezing and a rotation angle, then one transmissivity per mode pair
    i < j, whose beam splitter acts on the rows of modes i and j.
    """
    photons = rng.uniform(0.0, max_photon, size=n_modes) if max_photon > 0 else np.zeros(n_modes)
    s = np.zeros((2 * n_modes, 2 * n_modes))

    def rotation(angle):
        c, si = np.cos(angle), np.sin(angle)
        return np.array([[c, si], [-si, c]])

    for m in range(n_modes):
        pre = rotation(rng.uniform(0.0, 2.0 * np.pi))
        r = rng.uniform(0.0, max_squeeze)
        post = rotation(rng.uniform(0.0, 2.0 * np.pi))
        s[2 * m:2 * m + 2, 2 * m:2 * m + 2] = pre @ np.diag([np.exp(-r), np.exp(r)]) @ post
    for i in range(n_modes):
        for j in range(i + 1, n_modes):
            t = rng.uniform(0.0, 1.0)
            a, b = np.sqrt(t), np.sqrt(1.0 - t)
            mixer = np.array([[a, 0.0, b, 0.0], [0.0, a, 0.0, b], [-b, 0.0, a, 0.0], [0.0, -b, 0.0, a]])
            rows = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
            s[rows] = mixer @ s[rows]
    gamma = s @ np.diag(np.repeat(2.0 * photons + 1.0, 2)) @ s.T
    return 0.5 * (gamma + gamma.T)


def _reference_rhs(kind: str, parameter: float, s1: float, s2: float) -> float:
    if kind == "bs":
        return parameter * s1 + (1.0 - parameter) * s2
    k = parameter
    return (k * s1 + (k - 1.0) * s2) / (2.0 * k - 1.0) + math.log(2.0 * k - 1.0)


def reference_trial(family: str, seed: int, index: int, max_photon: float, max_squeeze: float,
                    parameter_range: tuple[float, float], env_photon=None) -> tuple[float, float]:
    """(lhs, rhs) of Monte Carlo trial ``index`` of a campaign, recomputed from its (seed, index) draws.

    The draws follow the campaign's documented order: the mixing parameter
    (unless the range is one value), then both single-mode inputs (qepi),
    the (photon, squeeze) pair of both two-mode squeezed thermal inputs
    (cqepi), or the environment photon number (unless fixed) and the input
    (chains).  Outputs come from ``conjugate_and_trace`` and
    ``conditional_conjugate_and_trace``, entropies from raw eigenvalues.
    """
    rng = np.random.default_rng((seed, index))
    lo, hi = parameter_range
    parameter = lo if lo == hi else rng.uniform(lo, hi)
    kind = "amp" if family.endswith("amp") else "bs"
    if family.startswith("qepi"):
        g1 = reference_gaussian_state(1, max_photon, max_squeeze, rng)
        g2 = reference_gaussian_state(1, max_photon, max_squeeze, rng)
        out = conjugate_and_trace(kind, parameter, g1, g2)[0]
        return raw_entropy(out), _reference_rhs(kind, parameter, raw_entropy(g1), raw_entropy(g2))
    if family.startswith("cqepi"):
        pairs = []
        for _ in range(2):
            n, r = rng.uniform(0.0, max_photon), rng.uniform(0.0, max_squeeze)
            s = two_mode_squeezing_symplectic(r)
            pairs.append((2.0 * n + 1.0) * (s @ s.T))
        kept, conditioner = conditional_conjugate_and_trace(kind, parameter, *pairs)
        c1, c2 = (raw_entropy(g) - raw_entropy(g[2:, 2:]) for g in pairs)
        return raw_entropy(kept) - raw_entropy(conditioner), _reference_rhs(kind, parameter, c1, c2)
    ne = rng.uniform(0.0, max_photon) if env_photon is None else env_photon
    state = reference_gaussian_state(1, max_photon, max_squeeze, rng)
    out, _, fc = conjugate_and_trace("bs", parameter, state, (2.0 * ne + 1.0) * np.eye(2))
    return raw_entropy(out if family == "moe-chain-bs" else fc), (1.0 - parameter) * g_direct(ne)


# ---------------------------------------------------------------------------
# high-precision coherent information
# ---------------------------------------------------------------------------

def g_mp(x):
    """g(x) at mpmath's working precision; x <= 0 (a pure factor up to rounding) gives 0."""
    return mp.mpf(0) if x <= 0 else (x + 1) * mp.log(x + 1) - x * mp.log(x)


def _mp_channel_symplectic(kind: str, p):
    """``raw_channel_symplectic`` on modes (A, E) of (A, E, C) in mpmath, the identity on C."""
    # signs of the A-E and E-A blocks: [[I, I], [-I, I]] or [[I, Z], [Z, I]]
    if kind == "bs":
        root_q, upper, lower = mp.sqrt(1 - p), (1, 1), (-1, -1)
    else:
        root_q, upper, lower = mp.sqrt(p - 1), (1, -1), (1, -1)
    channel = mp.eye(6)
    for i in range(2):
        channel[i, i] = channel[i + 2, i + 2] = mp.sqrt(p)
        channel[i, i + 2], channel[i + 2, i] = root_q * upper[i], root_q * lower[i]
    return channel


def _output_entropies_mp(kind: str, parameter, n_in, n_env, squeeze):
    """(S_B, S_F, S_FC) as mpf at the caller's working precision; see ``output_entropies_mp``."""
    a, nu, r = 2 * mp.mpf(n_in) + 1, 2 * mp.mpf(n_env) + 1, mp.mpf(squeeze)
    c = mp.sqrt(nu * nu - 1)
    joint = mp.zeros(6, 6)
    joint[0, 0] = joint[1, 1] = a
    for i in range(2, 6):
        joint[i, i] = nu
    joint[2, 4] = joint[4, 2] = c
    joint[3, 5] = joint[5, 3] = -c
    squeezer = mp.eye(6)
    squeezer[2, 2], squeezer[3, 3] = mp.exp(-r), mp.exp(r)
    channel = _mp_channel_symplectic(kind, mp.mpf(parameter))
    out = channel * squeezer * joint * squeezer.T * channel.T

    def entropy_of(block):
        modes = block.rows // 2
        omega = mp.zeros(2 * modes, 2 * modes)
        for m in range(modes):
            omega[2 * m, 2 * m + 1], omega[2 * m + 1, 2 * m] = 1, -1
        mags = sorted(abs(v) for v in mp.eig(omega * block, left=False, right=False))
        return sum(g_mp((mags[2 * m] + mags[2 * m + 1]) / 4 - mp.mpf(1) / 2) for m in range(modes))

    return entropy_of(out[0:2, 0:2]), entropy_of(out[2:4, 2:4]), entropy_of(out[2:6, 2:6])


def _oracle_digits(n_in, squeeze) -> int:
    """50 digits plus what the entries' size eats: log10 N twice, and the e^(+-2r) of the squeezed environment."""
    return 50 + 2 * int(mp.log10(1 + mp.mpf(n_in))) + int(4 * abs(squeeze) / math.log(10))


def output_entropies_mp(kind: str, parameter, n_in, n_env, squeeze=0.0) -> tuple[float, float, float]:
    """(S_B, S_F, S_FC) for a thermal input of N photons, from matrix entries in
    at least 50-digit arithmetic.

    The environment (2 N_e + 1) diag(e^{-2r}, e^{2r}) is purified with a
    reference C: the thermal factor becomes the two-mode squeezed block
    [[nu I, c Z], [c Z, nu I]], c = sqrt(nu^2 - 1), and the squeezer
    diag(e^{-r}, e^{r}) then acts on E.  The channel symplectic of
    ``raw_channel_symplectic`` conjugates the (A, E, C) covariance entry by
    entry; B is the first 2x2 block, F the second and (F, C) the trailing 4x4
    block.  Each spectrum is the moduli of the eigenvalues of Omega @ Gamma.
    The precision grows with log10 N and with r, so the entries' size does
    not eat the 50 digits.
    """
    with mp.workdps(_oracle_digits(n_in, squeeze)):
        return tuple(float(s) for s in _output_entropies_mp(kind, parameter, n_in, n_env, squeeze))


def coherent_information_mp(kind: str, parameter, n_in, n_env, squeeze=0.0) -> float:
    """S(B) - S(F, C) for a thermal input of N photons, from the entropies of ``output_entropies_mp``."""
    with mp.workdps(_oracle_digits(n_in, squeeze)):
        s_b, _, s_fc = _output_entropies_mp(kind, parameter, n_in, n_env, squeeze)
        return float(s_b - s_fc)


def _mp_rotated_squeezed(nu, r, angle):
    """nu R(angle) diag(e^(-2r), e^(2r)) R(angle).T as an mpmath matrix, R = [[cos, sin], [-sin, cos]]."""
    c, s = mp.cos(angle), mp.sin(angle)
    rotation = mp.matrix([[c, s], [-s, c]])
    return nu * rotation * mp.diag([mp.exp(-2 * r), mp.exp(2 * r)]) * rotation.T


def _mp_pair_spectrum(gamma):
    """(nu_+, nu_-) of a two-mode covariance from its invariants det and Delta = det A + det B + 2 det C."""
    delta = mp.det(gamma[0:2, 0:2]) + mp.det(gamma[2:4, 2:4]) + 2 * mp.det(gamma[0:2, 2:4])
    root = mp.sqrt(delta * delta - 4 * mp.det(gamma))
    return mp.sqrt((delta + root) / 2), mp.sqrt((delta - root) / 2)


def drawn_trial_slack_mp(family: str, seed: int, index: int, max_photon: float, max_squeeze: float,
                         parameter_range: tuple[float, float], env_photon=None) -> float:
    """lhs - rhs of trial ``index`` of a qepi or chain campaign, from its (seed, index) draws in at least
    50-digit arithmetic.

    The draws come in the campaign's documented order and give the scalars
    it documents: the mixing parameter (unless the range is one value), then
    per single-mode state a photon number n (if max_photon > 0), a rotation
    angle 2 pi u, a squeezing r and a second angle, which acts on a thermal
    state and drops out (chains draw the environment photon number first,
    unless fixed).  Each state (2n + 1) R diag(e^(-2r), e^(2r)) R.T is built
    entry by entry with the angle 2 pi u taken exactly, conjugated with the
    channel symplectic, and for wc-chain-bs its thermal environment is first
    purified with a reference C; spectra come from determinants.  The
    precision grows with the squeezing, so the e^(4r) the determinants cancel
    does not eat the 50 digits.
    """
    rng = np.random.default_rng((seed, index))
    lo, hi = parameter_range
    parameter = lo if lo == hi else rng.uniform(lo, hi)
    kind = "amp" if family.endswith("amp") else "bs"

    def draw_state():
        n = rng.uniform(0.0, max_photon) if max_photon > 0 else 0.0
        u, r = rng.random(), rng.uniform(0.0, max_squeeze)
        rng.random()
        return n, r, u

    if family.startswith("qepi"):
        states = [draw_state(), draw_state()]
    else:
        ne = rng.uniform(0.0, max_photon) if env_photon is None else env_photon
        states = [draw_state(), (ne, 0.0, 0.0)]
    with mp.workdps(50 + int(8 * max_squeeze / math.log(10)) + 2 * int(math.log10(1.0 + max_photon))):
        gammas = [_mp_rotated_squeezed(2 * mp.mpf(n) + 1, mp.mpf(r), 2 * mp.pi * mp.mpf(u)) for n, r, u in states]
        entropies = [g_mp(mp.mpf(n)) for n, _, _ in states]
        p = mp.mpf(parameter)
        q, d = (1 - p, mp.mpf(1)) if kind == "bs" else (p - 1, 2 * p - 1)
        joint = mp.zeros(6, 6)
        joint[0:2, 0:2], joint[2:4, 2:4] = gammas
        # C purifies E as a thermal state, which only the wc chain reads, and its E is thermal
        nu_e = 2 * mp.mpf(states[1][0]) + 1
        c = mp.sqrt(nu_e * nu_e - 1)
        joint[4, 4] = joint[5, 5] = nu_e
        joint[2, 4] = joint[4, 2] = c
        joint[3, 5] = joint[5, 3] = -c
        channel = _mp_channel_symplectic(kind, p)
        out = channel * joint * channel.T
        if family == "wc-chain-bs":
            lhs = sum(g_mp((nu - 1) / 2) for nu in _mp_pair_spectrum(out[2:6, 2:6]))
        else:
            lhs = g_mp((mp.sqrt(mp.det(out[0:2, 0:2])) - 1) / 2)
        s1, s2 = (0, entropies[1]) if family.endswith("chain-bs") else entropies
        return float(lhs - ((p * s1 + q * s2) / d + mp.log(d)))


def drawn_cqepi_slack_mp(family: str, seed: int, index: int, max_photon: float, max_squeeze: float,
                         parameter_range: tuple[float, float]) -> float:
    """lhs - rhs of trial ``index`` of a cqepi campaign, from its (seed, index) draws in at least 50-digit arithmetic
    (``drawn_cqepi_spectrum_mp``)."""
    with mp.workdps(_cqepi_digits(max_photon, max_squeeze)):
        p, q, d, draws, spectrum = _drawn_cqepi_output_mp(family, seed, index, max_photon, max_squeeze, parameter_range)
        z1, z2 = (((2 * mp.mpf(n) + 1) * mp.cosh(2 * mp.mpf(r)) - 1) / 2 for n, r in draws)
        lhs = sum(g_mp((nu - 1) / 2) for nu in spectrum) - g_mp(z1) - g_mp(z2)
        s_1, s_2 = (2 * g_mp(mp.mpf(n)) - g_mp(z) for (n, _), z in zip(draws, (z1, z2)))
        return float(lhs - ((p * s_1 + q * s_2) / d + mp.log(d)))


def drawn_cqepi_spectrum_mp(family: str, seed: int, index: int, max_photon: float, max_squeeze: float,
                            parameter_range: tuple[float, float]) -> list[float]:
    """The (B, Z1, Z2) symplectic spectrum of trial ``index`` of a cqepi campaign, descending, from its (seed, index)
    draws in at least 50-digit arithmetic.

    The draws come in the campaign's documented order: the mixing parameter
    (unless the range is one value), then per (X, Z) input a photon number n
    and a squeezing r, the input (2n + 1) [[C I, S Z], [S Z, C I]] with
    (C, S) = (cosh 2r, sinh 2r).  Input, channel and kept modes are all
    quadrature-split, so the (B, Z1, Z2) output is written entry by entry
    as its q and p blocks V_q and V_p, and its spectrum is the square roots
    of the eigenvalues of V_q V_p, those of L.T V_p L for V_q = L L.T.  The precision grows with the squeezing,
    as in ``drawn_trial_slack_mp``.
    """
    with mp.workdps(_cqepi_digits(max_photon, max_squeeze)):
        spectrum = _drawn_cqepi_output_mp(family, seed, index, max_photon, max_squeeze, parameter_range)[-1]
        return [float(nu) for nu in spectrum]


def _cqepi_digits(max_photon: float, max_squeeze: float) -> int:
    return 50 + int(8 * max_squeeze / math.log(10)) + 2 * int(math.log10(1.0 + max_photon))


def _drawn_cqepi_output_mp(family, seed, index, max_photon, max_squeeze, parameter_range) -> tuple:
    """(p, q, d, the (n, r) draws of both inputs, the descending (B, Z1, Z2) spectrum) of ``drawn_cqepi_spectrum_mp``
    at the working precision."""
    rng = np.random.default_rng((seed, index))
    lo, hi = parameter_range
    parameter = lo if lo == hi else rng.uniform(lo, hi)
    draws = [(rng.uniform(0.0, max_photon), rng.uniform(0.0, max_squeeze)) for _ in range(2)]
    p = mp.mpf(parameter)
    # B = sqrt(p) X1 + sqrt(q) M X2 with M = diag(1, sign)
    q, d, sign = (1 - p, mp.mpf(1), 1) if family == "cqepi-bs" else (p - 1, 2 * p - 1, -1)
    (nu1, c1, s1), (nu2, c2, s2) = ((2 * mp.mpf(n) + 1, mp.cosh(2 * mp.mpf(r)), mp.sinh(2 * mp.mpf(r)))
                                    for n, r in draws)
    b = p * nu1 * c1 + q * nu2 * c2
    blocks = [mp.matrix([[b, mp.sqrt(p) * nu1 * s1 * z, mp.sqrt(q) * nu2 * s2 * z * m],
                         [mp.sqrt(p) * nu1 * s1 * z, nu1 * c1, 0],
                         [mp.sqrt(q) * nu2 * s2 * z * m, 0, nu2 * c2]])
              for z, m in ((1, 1), (-1, sign))]  # the Z of each input and M's entry, per quadrature
    lower = mp.cholesky(blocks[0])  # V_q V_p is similar to the symmetric L.T V_p L
    spectrum = sorted((mp.sqrt(v) for v in mp.eigsy(lower.T * blocks[1] * lower, eigvals_only=True)), reverse=True)
    return p, q, d, draws, spectrum


def eigensolver_calls(monkeypatch,names=("eig", "eigh", "eigvals", "eigvalsh")) -> list:
    """Record (name, shape of the matrix argument) of every call of the ``np.linalg`` functions
    ``names``, by default the eigensolvers, from now on."""
    calls = []
    for name in names:

        def counted(a, *args, _original=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def linalg_calls(monkeypatch) -> list:
    """``eigensolver_calls`` of every function ``np.linalg`` exports, ``det`` and ``solve`` included."""
    functions = [name for name in np.linalg.__all__ if not inspect.isclass(getattr(np.linalg, name))]
    return eigensolver_calls(monkeypatch, functions)


# ---------------------------------------------------------------------------
# per-point bounds chain
# ---------------------------------------------------------------------------

def coherent_information_per_point(spec: ChannelSpec, n_in: float) -> float:
    """S(B) - S(F, C) for one thermal input, one validated ``CovarianceMatrix``
    per step: ``thermal_state`` -> ``apply_channel`` / ``complementary`` -> ``entropy``.
    The (F, C) matrix is re-validated, so its spectrum is not the closed form that
    ``complementary`` stores."""
    state = thermal_state(n_in)
    return entropy(apply_channel(state, spec)) - entropy(CovarianceMatrix(complementary(state, spec).data))


def bounds_per_point(spec: ChannelSpec, n_in: float, second_argument: str = "square") -> tuple[float, ...]:
    """The numeric fields of ``evaluate_bounds`` at one N, in ``BoundResult`` order
    (N, holevo, maximal, moe_sum_lower, upper, lower_approx, coherent_info,
    coherent_lower), in nats: the closed forms called with a scalar N on the
    thermal environment of N* = (nu - 1) / 2, and the per-point chain."""
    formula = ChannelSpec(spec.kind, spec.parameter, thermal_state(equivalent_thermal_photon(spec.environment)))
    other = n_in * n_in if second_argument == "square" else n_in / 2.0
    info = coherent_information_per_point(spec, n_in)
    return (
        n_in,
        holevo_capacity(formula, n_in),
        maximal_capacity(formula, n_in),
        moe_sum_lower(formula),
        private_capacity_upper_general(spec, n_in),
        private_capacity_lower_approx(formula, n_in),
        info,
        info - coherent_information_per_point(spec, other),
    )
