"""Reference computations the benchmark checks gausscap's outputs against.

Nothing here imports gausscap.  Closed forms are evaluated in mpmath at
40 digits; symplectic spectra of general n-mode matrices come from raw
numpy eigenvalues of Omega @ Gamma; two-mode spectra use the symplectic
invariants of Serafini, Illuminati and De Siena (J. Phys. B 37, L21, 2004).
Conventions follow gausscap: quadratures (q1, p1, ..., qn, pn), vacuum
covariance I, entropies in nats.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp
import numpy as np

DPS = 40
Z = np.diag([1.0, -1.0])


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def g(x) -> mp.mpf:
    """Thermal entropy (x+1) ln(x+1) - x ln x in mpmath, g(0) = 0."""
    with mp.workdps(DPS):
        x = mp.mpf(x)
        if x <= 0:
            return mp.mpf(0)
        return (x + 1) * mp.log(x + 1) - x * mp.log(x)


def entropy_from_nu(nus) -> float:
    """Sum of g((nu - 1) / 2) over symplectic eigenvalues; nu below 1 counts as 1."""
    with mp.workdps(DPS):
        return float(mp.fsum(g((mp.mpf(float(nu)) - 1) / 2) for nu in nus))


def omega(n_modes: int) -> np.ndarray:
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def spectrum(gamma: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues as |eig(Omega @ Gamma)|, one per pair, descending."""
    gamma = np.asarray(gamma, dtype=float)
    mags = np.sort(np.abs(np.linalg.eigvals(omega(gamma.shape[0] // 2) @ gamma)))[::-1]
    return mags.reshape(-1, 2).mean(axis=1)


def entropy(gamma: np.ndarray) -> float:
    return entropy_from_nu(spectrum(gamma))


def block(gamma: np.ndarray, modes) -> np.ndarray:
    """Principal submatrix on the listed modes, in that order."""
    idx = [q for m in modes for q in (2 * m, 2 * m + 1)]
    return np.asarray(gamma)[np.ix_(idx, idx)]


# ---------------------------------------------------------------------------
# bound curves (paper's closed forms)
# ---------------------------------------------------------------------------

def closed_forms(kind: str, param: float, ne: float, n: float) -> dict[str, float]:
    """Holevo, maximal, moe-sum, private upper and rough lower bounds at (N, Ne).

    ``ne`` is the environment's thermal photon number; a squeezed thermal
    environment has the same determinant, so the same value applies.
    """
    with mp.workdps(DPS):
        p, ne, n = mp.mpf(param), mp.mpf(ne), mp.mpf(n)
        if kind == "bs":
            out = p * n + (1 - p) * ne
            holevo = g(out) - g((1 - p) * ne)
            maximal = 2 * g(out)
            moe = 2 * (1 - p) * g(ne)
            upper = 2 * (g(out) - (1 - p) * g(ne))
        else:
            holevo = g(p * n + (p - 1) * ne) - g((p - 1) * ne / (2 * p - 1))
            maximal = 2 * g(p * n + (p - 1) * (ne + 1))
            moe = 2 * (p - 1) / (2 * p - 1) * g(ne) + 2 * mp.log(2 * p - 1)
            upper = 2 * (g(p * n + (p - 1) * (ne + 1)) - (p - 1) / (2 * p - 1) * g(ne) - mp.log(2 * p - 1))
        return {
            "holevo": float(holevo),
            "maximal": float(maximal),
            "moe_sum_lower": float(moe),
            "upper": float(upper),
            "lower_approx": float(2 * holevo),
        }


def _mp_det2(m, r: int, c: int):
    return m[r, c] * m[r + 1, c + 1] - m[r, c + 1] * m[r + 1, c]


def _mp_channel_outputs(kind: str, param: float, ne: float, squeeze: float, n: float):
    """Three-mode (B, F, C) covariance for a thermal input of N photons, in mpmath.

    The environment diag(a e^{-2r}, a e^{2r}), a = 2 Ne + 1, is purified by
    a reference C as (S_r + I)[[a I, c Z], [c Z, a I]](S_r + I)^T with
    c = sqrt(a^2 - 1); the channel symplectic then acts on (A, E).
    """
    p, a, r = mp.mpf(param), 2 * mp.mpf(ne) + 1, mp.mpf(squeeze)
    c = mp.sqrt(a * a - 1)
    nu_in = 2 * mp.mpf(n) + 1
    gamma = mp.zeros(6, 6)
    gamma[0, 0] = gamma[1, 1] = nu_in
    for i in range(2, 6):
        gamma[i, i] = a
    gamma[2, 4] = gamma[4, 2] = c
    gamma[3, 5] = gamma[5, 3] = -c
    local = mp.eye(6)
    local[2, 2], local[3, 3] = mp.exp(-r), mp.exp(r)
    gamma = local * gamma * local.T
    s = mp.eye(6)
    if kind == "bs":
        x, y = mp.sqrt(p), mp.sqrt(1 - p)
        s[0, 0] = s[1, 1] = s[2, 2] = s[3, 3] = x
        s[0, 2] = s[1, 3] = y
        s[2, 0] = s[3, 1] = -y
    else:
        x, y = mp.sqrt(p), mp.sqrt(p - 1)
        s[0, 0] = s[1, 1] = s[2, 2] = s[3, 3] = x
        s[0, 2] = s[2, 0] = y
        s[1, 3] = s[3, 1] = -y
    return s * gamma * s.T


def _mp_single_entropy(m, mode: int):
    return g((mp.sqrt(_mp_det2(m, 2 * mode, 2 * mode)) - 1) / 2)


def _mp_two_mode_entropy(m, i: int, j: int):
    """Entropy of modes (i, j) from the two-mode invariants Delta and det."""
    rows = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
    sub = mp.matrix(4, 4)
    for u, ru in enumerate(rows):
        for v, rv in enumerate(rows):
            sub[u, v] = m[ru, rv]
    delta = _mp_det2(sub, 0, 0) + _mp_det2(sub, 2, 2) + 2 * _mp_det2(sub, 0, 2)
    det = mp.det(sub)
    disc = mp.sqrt(max(delta * delta - 4 * det, mp.mpf(0)))
    nus = [mp.sqrt((delta + disc) / 2), mp.sqrt(max((delta - disc) / 2, mp.mpf(1)))]
    return mp.fsum(g((nu - 1) / 2) for nu in nus)


@lru_cache(maxsize=None)
def output_entropies(kind: str, param: float, ne: float, squeeze: float, n: float) -> tuple[float, float, float]:
    """(S_B, S_F, S_FC) of the channel, weak-complementary and complementary outputs."""
    with mp.workdps(DPS):
        m = _mp_channel_outputs(kind, param, ne, squeeze, n)
        return (
            float(_mp_single_entropy(m, 0)),
            float(_mp_single_entropy(m, 1)),
            float(_mp_two_mode_entropy(m, 1, 2)),
        )


@lru_cache(maxsize=None)
def coherent_information(kind: str, param: float, ne: float, squeeze: float, n: float) -> mp.mpf:
    """S(B) - S(FC) for a thermal input of N photons, at 40 digits."""
    with mp.workdps(DPS):
        m = _mp_channel_outputs(kind, param, ne, squeeze, n)
        return _mp_single_entropy(m, 0) - _mp_two_mode_entropy(m, 1, 2)


# ---------------------------------------------------------------------------
# inequality instances (numpy spectra, mpmath g)
# ---------------------------------------------------------------------------

def mixer(kind: str, p: float) -> np.ndarray:
    """Two-mode beam-splitter ("bs", transmissivity p) or amplifier (gain p) symplectic."""
    if kind == "bs":
        a, b = np.sqrt(p) * np.eye(2), np.sqrt(1.0 - p) * np.eye(2)
        return np.block([[a, b], [-b, a]])
    a, b = np.sqrt(p) * np.eye(2), np.sqrt(p - 1.0) * Z
    return np.block([[a, b], [b, a]])


def _weights(family: str, p: float) -> tuple[float, float, float]:
    """(w1, w2, constant) of the right-hand side for the family's parameter."""
    if family.endswith("amp"):
        return p / (2 * p - 1), (p - 1) / (2 * p - 1), float(mp.log(2 * mp.mpf(p) - 1))
    return p, 1.0 - p, 0.0


def qepi(family: str, g1: np.ndarray, g2: np.ndarray, p: float) -> tuple[float, float]:
    """(lhs, rhs) of the plain EPI on two single-mode inputs."""
    mixed = p * g1 + (1 - p) * g2 if family == "qepi-bs" else p * g1 + (p - 1) * (Z @ g2 @ Z)
    w1, w2, const = _weights(family, p)
    return entropy(mixed), w1 * entropy(g1) + w2 * entropy(g2) + const


def cqepi(family: str, p1: np.ndarray, p2: np.ndarray, p: float) -> tuple[float, float]:
    """(lhs, rhs) of the conditional EPI on two-mode inputs (X_i, Z_i)."""
    joint = np.zeros((8, 8))
    joint[:4, :4], joint[4:, 4:] = p1, p2  # modes (X1, Z1, X2, Z2)
    mix = mixer("bs" if family == "cqepi-bs" else "amp", p)
    s = np.eye(8)
    idx = [0, 1, 4, 5]  # (X1, X2)
    s[np.ix_(idx, idx)] = mix
    out = s @ joint @ s.T
    lhs = entropy(block(out, (0, 1, 3))) - entropy(block(out, (1, 3)))
    c1 = entropy(p1) - entropy(block(p1, (1,)))
    c2 = entropy(p2) - entropy(block(p2, (1,)))
    w1, w2, const = _weights(family, p)
    return lhs, w1 * c1 + w2 * c2 + const


def chain(family: str, gamma: np.ndarray, t: float, ne: float) -> tuple[float, float]:
    """(lhs, rhs) of the moe or wc chain floor for a beam splitter, thermal env Ne."""
    a = 2.0 * ne + 1.0
    rhs = float((1 - mp.mpf(t)) * g(ne))
    if family == "moe-chain-bs":
        return entropy(t * gamma + (1 - t) * a * np.eye(2)), rhs
    c = np.sqrt(a * a - 1.0)
    joint = np.zeros((6, 6))  # modes (A, E, C): input, purified environment
    joint[:2, :2] = gamma
    joint[2:, 2:] = np.block([[a * np.eye(2), c * Z], [c * Z, a * np.eye(2)]])
    s = np.eye(6)
    s[:4, :4] = mixer("bs", t)
    return entropy(block(s @ joint @ s.T, (1, 2))), rhs
