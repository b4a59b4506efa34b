"""Closed-form capacity bounds for beam-splitter and amplifier channels.

All quantities are in nats unless converted.  Formulas that assume a
thermal environment accept general Gaussian noise through its
entropy-equivalent photon number N* = (sqrt(det Gamma) - 1) / 2, which
reduces to the thermal occupation when the environment is thermal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import ChannelKind, ChannelSpec, coupling
from .core import _CHUNK, PHYSICALITY_ATOL, CovarianceMatrix, PhysicalityError, _everywhere, thermal_entropy, thermal_state

_THERMAL_ATOL = 1e-12


def equivalent_thermal_photon(environment: CovarianceMatrix) -> float:
    """Photon number of the thermal state with the same entropy: (sqrt(det) - 1) / 2."""
    if environment.n_modes != 1:
        raise ValueError("expected a single-mode environment state")
    value = (math.sqrt(float(np.linalg.det(environment.data))) - 1.0) / 2.0
    # det >= 1 for physical states; only determinant roundoff can push this below 0
    return value if value > 0.0 else 0.0


def _thermal_photon(gamma: np.ndarray):
    """Mean photon number N of thermal covariances (2N + 1) I, one 2x2 matrix or a
    stack (..., 2, 2); error for other noise."""
    thermal = (abs(gamma[..., 0, 1]) <= _THERMAL_ATOL) & (abs(gamma[..., 0, 0] - gamma[..., 1, 1]) <= _THERMAL_ATOL)
    if not _everywhere(thermal):
        raise ValueError(
            "this formula assumes a thermal environment; "
            "use private_capacity_upper_general for general Gaussian noise"
        )
    return (gamma[..., 0, 0] - 1.0) / 2.0


def thermal_environment_photon(spec: ChannelSpec) -> float:
    """Mean photon number N of a thermal environment (2N + 1) I; error for other noise."""
    return float(_thermal_photon(spec.environment.data))


def _formula_environment(spec: ChannelSpec) -> tuple[str, float]:
    """Label and photon number of the thermal environment the closed forms use:
    the environment's own occupation if it is thermal, else N*."""
    try:
        return "thermal_photon", thermal_environment_photon(spec)
    except ValueError:
        return "equivalent_photon", equivalent_thermal_photon(spec.environment)


def _with_thermal_environment(spec: ChannelSpec, photon: float) -> ChannelSpec:
    return ChannelSpec(spec.kind, spec.parameter, thermal_state(photon))


def _validated_photon(input_photon):
    """N as a float, or a 1-D float array of N; error unless every entry is finite and nonnegative."""
    n = np.asarray(input_photon, dtype=float)
    if n.ndim > 1 or not _everywhere((n >= 0.0) & (n < math.inf)):
        raise ValueError("input mean photon number must be a finite, nonnegative scalar or 1-D array")
    return float(n) if n.ndim == 0 else n


@dataclass(frozen=True)
class BoundResult:
    """All capacity bounds evaluated at one (channel, input energy) point."""

    channel: str
    input_photon: float
    holevo: float
    maximal: float
    moe_sum_lower: float
    upper: float
    lower_approx: float
    coherent_info: float
    coherent_lower: float
    units: str = "nats"

    _ENTROPY_FIELDS = ("holevo", "maximal", "moe_sum_lower", "upper", "lower_approx", "coherent_info", "coherent_lower")

    def as_units(self, units: str) -> "BoundResult":
        """Return the result converted to ``nats`` or ``bits``."""
        if units not in ("nats", "bits"):
            raise ValueError("units must be 'nats' or 'bits'")
        if units == self.units:
            return self
        factor = math.log(2.0) if units == "bits" else 1.0 / math.log(2.0)
        converted = {name: getattr(self, name) / factor for name in self._ENTROPY_FIELDS}
        return replace(self, units=units, **converted)


def holevo_capacity(spec: ChannelSpec, input_photon: float) -> float:
    """Holevo capacity of the thermal-noise channel at input energy N.

    Beam splitter: g(tN + (1-t)Ne) - g((1-t)Ne).
    Amplifier:     g(kN + (k-1)Ne) - g((k-1)Ne / (2k-1)).
    """
    n = _validated_photon(input_photon)
    ne = thermal_environment_photon(spec)
    if spec.kind is ChannelKind.BEAM_SPLITTER:
        t = spec.parameter
        return thermal_entropy(t * n + (1.0 - t) * ne) - thermal_entropy((1.0 - t) * ne)
    k = spec.parameter
    return thermal_entropy(k * n + (k - 1.0) * ne) - thermal_entropy((k - 1.0) * ne / (2.0 * k - 1.0))


def maximal_capacity(spec: ChannelSpec, input_photon: float) -> float:
    """Twice the maximum output entropy at fixed input energy.

    Beam splitter: 2 g(tN + (1-t)Ne); amplifier: 2 g(kN + (k-1)(Ne+1)).
    """
    n = _validated_photon(input_photon)
    ne = thermal_environment_photon(spec)
    if spec.kind is ChannelKind.BEAM_SPLITTER:
        t = spec.parameter
        return 2.0 * thermal_entropy(t * n + (1.0 - t) * ne)
    k = spec.parameter
    return 2.0 * thermal_entropy(k * n + (k - 1.0) * (ne + 1.0))


def moe_sum_lower(spec: ChannelSpec) -> float:
    """Lower bound on the summed minimum output entropies of channel and complement.

    Beam splitter: 2 (1-t) g(Ne).  For the amplifier the subtracted terms of
    the upper bound are exposed in the same role: 2 (k-1)/(2k-1) g(Ne) + 2 ln(2k-1).
    """
    ne = thermal_environment_photon(spec)
    if spec.kind is ChannelKind.BEAM_SPLITTER:
        return 2.0 * (1.0 - spec.parameter) * thermal_entropy(ne)
    k = spec.parameter
    return 2.0 * (k - 1.0) / (2.0 * k - 1.0) * thermal_entropy(ne) + 2.0 * math.log(2.0 * k - 1.0)


def private_capacity_upper(spec: ChannelSpec, input_photon: float) -> float:
    """Upper bound on the private capacity for a thermal environment.

    Beam splitter: 2 [g(tN + (1-t)Ne) - (1-t) g(Ne)].
    Amplifier:     2 [g(kN + (k-1)(Ne+1)) - (k-1)/(2k-1) g(Ne) - ln(2k-1)].
    """
    n = _validated_photon(input_photon)
    ne = thermal_environment_photon(spec)
    if spec.kind is ChannelKind.BEAM_SPLITTER:
        t = spec.parameter
        return 2.0 * (thermal_entropy(t * n + (1.0 - t) * ne) - (1.0 - t) * thermal_entropy(ne))
    k = spec.parameter
    return 2.0 * (
        thermal_entropy(k * n + (k - 1.0) * (ne + 1.0))
        - (k - 1.0) / (2.0 * k - 1.0) * thermal_entropy(ne)
        - math.log(2.0 * k - 1.0)
    )


def private_capacity_upper_general(spec: ChannelSpec, input_photon: float) -> float:
    """Upper bound for a general Gaussian environment via its equivalent photon number.

    Substitutes N* = (sqrt(det Gamma_env) - 1) / 2 into the thermal formulas,
    so the bound depends on the environment only through its determinant
    (hence not on squeezing).
    """
    ne_star = equivalent_thermal_photon(spec.environment)
    return private_capacity_upper(_with_thermal_environment(spec, ne_star), input_photon)


def private_capacity_lower_approx(spec: ChannelSpec, input_photon: float) -> float:
    """Rough lower bound obtained by keeping the full g of the leaked energy.

    Beam splitter: 2 [g(tN + (1-t)Ne) - g((1-t)Ne)]; amplifier analogous.
    Coincides with twice the Holevo capacity.
    """
    return 2.0 * holevo_capacity(spec, input_photon)


def _rounded_pure(excess: float) -> float:
    """det - 1 or tr / 2 - 1 of a validated environment: a value within the
    1e-9 uncertainty tolerance below 0 is roundoff of a pure state and counts as 0."""
    return 0.0 if -2.0 * PHYSICALITY_ATOL <= excess < 0.0 else excess


def coherent_information(spec: ChannelSpec, input_photon):
    """S(channel output) - S(complementary output) for a thermal input of energy N.

    ``input_photon`` is a scalar or a 1-D array.  The spectra come in closed
    form from a = 2N + 1, the environment's trace tr and determinant det, and
    (p, q) of ``coupling``, with s = -1 for the beam splitter and +1 for the
    amplifier.  Every sum below has nonnegative terms, so nothing cancels:

        nu_B^2 - 1 = p^2 (a^2 - 1) + w,   w = q^2 (det - 1) + 2 p q (a tr / 2 + s)
        S = nu_+^2 + nu_-^2 - 2 = q^2 (a^2 - 1) + w
        K = (nu_+^2 - 1)(nu_-^2 - 1) = q^2 (a^2 - 1)(det - 1)

    where nu_+ and nu_- are the (F, C) output's symplectic eigenvalues, from
    the invariants of Serafini, Illuminati and De Siena, J. Phys. B 37, L21
    (2004).  x_+ = nu_+^2 - 1 is the larger root of x^2 - S x + K and
    x_- = K / x_+, so a degenerate pair loses no digits in the entropy sum.
    A factor with x = nu^2 - 1 has photon number (nu - 1) / 2 = x / (2 + 2 sqrt(1 + x)).
    Overflow raises ``FloatingPointError``; K < 0, S < 0 or nu_B < 1 - 1e-9
    raises ``PhysicalityError`` naming the input photon number.
    """
    n = _validated_photon(input_photon)
    grid = np.atleast_1d(n)
    p, q, _ = coupling(spec.kind, spec.parameter)
    g = spec.environment.data
    half_trace = 0.5 * (g[0, 0] + g[1, 1])
    det_excess = _rounded_pure(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] - 1.0)
    # a tr / 2 + s = N tr + (tr / 2 + s), whose constant is >= 0 for s = -1 because tr / 2 >= sqrt(det) >= 1
    offset = _rounded_pure(half_trace - 1.0) if spec.kind is ChannelKind.BEAM_SPLITTER else half_trace + 1.0
    with np.errstate(over="raise"):
        squares = 4.0 * grid * (grid + 1.0)  # a^2 - 1
        w = q * q * det_excess + 2.0 * p * q * (2.0 * half_trace * grid + offset)
        xs = np.zeros((3, len(grid)))  # nu^2 - 1 of B, then of the (F, C) pair
        xs[0] = p * p * squares + w
        total = q * q * squares + w
        product = q * q * det_excess * squares
    ok = (product >= 0.0) & (total >= 0.0) & (xs[0] >= (1.0 - PHYSICALITY_ATOL) ** 2 - 1.0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise PhysicalityError(
            f"uncertainty condition violated at input photon number {grid[i]:.17g}: "
            f"K = {product[i]:.6g}, S = {total[i]:.6g}, nu_B^2 - 1 = {xs[0, i]:.6g}"
        )
    root = np.sqrt(product)
    # sqrt(S^2 - 4K) as a product of two roots and x_+ as a sum of halves, so nothing overflows
    xs[1] = 0.5 * total + 0.5 * (np.sqrt(np.maximum(total - 2.0 * root, 0.0)) * np.sqrt(total + 2.0 * root))
    np.divide(product, xs[1], out=xs[2], where=xs[1] > 0.0)
    np.maximum(xs, 0.0, out=xs)  # nu within the tolerance below 1 counts as 1
    entropies = thermal_entropy(xs / (2.0 + 2.0 * np.sqrt(1.0 + xs)))
    info = entropies[0] - (entropies[1] + entropies[2])
    return float(info[0]) if np.ndim(n) == 0 else info


_SECOND_POINTS = {"square": lambda n: n * n, "half": lambda n: n / 2.0}


def _coherent_columns(spec: ChannelSpec, grid: np.ndarray, second_argument: str):
    """I_c(N) and I_c(N) - I_c(N') over a 1-D grid, from one coherent_information call on every N and N'.
    An N' beyond the float range, or an N or N' whose closed form overflows, raises ``FloatingPointError``."""
    if second_argument not in _SECOND_POINTS:
        raise ValueError("second_argument must be 'square' or 'half'")
    with np.errstate(over="raise"):
        second = _SECOND_POINTS[second_argument](grid)
    info = coherent_information(spec, np.concatenate([grid, second]))
    return info[:len(grid)], info[:len(grid)] - info[len(grid):]


def coherent_lower_bound(spec: ChannelSpec, input_photon, second_argument: str = "square"):
    """Coherent-information lower bound I_c(N) - I_c(N') with N' = N^2.

    ``second_argument`` switches N' to N/2 for sensitivity exploration.
    ``input_photon`` is a scalar (a grid of one) or a 1-D array.
    """
    n = _validated_photon(input_photon)
    lower = _coherent_columns(spec, np.atleast_1d(n), second_argument)[1]
    return float(lower[0]) if np.ndim(n) == 0 else lower


def evaluate_bounds(spec: ChannelSpec, input_photon, units: str = "nats", coherent_second_arg: str = "square"):
    """Evaluate every bound at one N, or at each N of a 1-D array (a list of results).

    Formula-based quantities use the environment's equivalent thermal photon
    number when the noise is not thermal; the coherent-information columns
    take the actual environment.  The grid runs in slices of ``_CHUNK``
    points, each one call of every closed form and one of
    ``coherent_information``, so memory does not grow with the grid; a scalar
    N is a grid of one.
    """
    n = _validated_photon(input_photon)
    label, ne = _formula_environment(spec)
    formula_spec = _with_thermal_environment(spec, ne)
    kind = "beam_splitter" if spec.kind is ChannelKind.BEAM_SPLITTER else "amplifier"
    knob = "transmissivity" if spec.kind is ChannelKind.BEAM_SPLITTER else "gain"
    channel = f"{kind}({knob}={spec.parameter:.12g}, {label}={ne:.12g})"
    grid, results = np.atleast_1d(n), []
    for start in range(0, len(grid), _CHUNK):
        chunk = grid[start:start + _CHUNK]
        columns = (
            chunk,
            holevo_capacity(formula_spec, chunk),
            maximal_capacity(formula_spec, chunk),
            np.full(len(chunk), moe_sum_lower(formula_spec)),
            private_capacity_upper_general(spec, chunk),
            private_capacity_lower_approx(formula_spec, chunk),
            *_coherent_columns(spec, chunk, coherent_second_arg),
        )
        results += [BoundResult(channel, *row).as_units(units) for row in zip(*(c.tolist() for c in columns))]
    return results[0] if np.ndim(n) == 0 else results
