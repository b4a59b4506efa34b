"""Closed-form capacity bounds for beam-splitter and amplifier channels.

All quantities are in nats unless converted.  The closed forms are written
in the per-family constants (p, q, d, v) of ``channels.coupling``, with
g(x) = ``thermal_entropy``, and do not branch on the family.  Formulas that
assume a thermal environment accept general Gaussian noise through its
entropy-equivalent photon number N* = (nu - 1) / 2, nu its stored symplectic
eigenvalue, which is the occupation of a thermal environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelKind,
    ChannelSpec,
    _complementary_roots,
    _factor_entropies,
    _pair_invariants,
    _require_finite,
    coupling,
    epi_rhs,
)
from .core import _CHUNK, CovarianceMatrix, _everywhere, _is_thermal, _mode_parameters, thermal_entropy


def equivalent_thermal_photon(environment: CovarianceMatrix) -> float:
    """Photon number n = (nu - 1) / 2 of the equal-entropy thermal state: the n of ``core._mode_parameters``."""
    if environment.n_modes != 1:
        raise ValueError("expected a single-mode environment state")
    return float(_mode_parameters(environment)[0][0])


def thermal_environment_photon(spec: ChannelSpec) -> float:
    """The stored n = (nu - 1) / 2 of a thermal environment (``_is_thermal``); error for other noise."""
    if not _is_thermal(spec._environment_modes):
        raise ValueError("this formula assumes a thermal environment; "
                         "use private_capacity_upper_general for general Gaussian noise")
    return float(spec._environment_modes[0][0])


def _validated_photon(input_photon):
    """N as a float, or a 1-D float array of N; error unless every entry is finite and nonnegative."""
    n = np.asarray(input_photon, dtype=float)
    if n.ndim > 1 or not _everywhere((n >= 0.0) & (n < math.inf)):
        raise ValueError("input mean photon number must be a finite, nonnegative scalar or 1-D array")
    return float(n) if n.ndim == 0 else n


def _nats_per(units: str) -> float:
    """Nats in one unit of ``units``, which must be ``nats`` or ``bits``."""
    if units not in ("nats", "bits"):
        raise ValueError("units must be 'nats' or 'bits'")
    return math.log(2.0) if units == "bits" else 1.0


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


_ARGUMENTS = ("pN + q Ne", "pN + q (Ne + v)")


def _closed_forms(spec: ChannelSpec, grid: np.ndarray, ne: float, lead: int = 0):
    """holevo = g(pN + q Ne) - g(q Ne / d), maximal = 2 g(pN + q (Ne + v)) over a 1-D grid of N, and
    moe_sum_lower = 2 ``epi_rhs``(0, g(Ne)), for a thermal environment of Ne photons: the one place these
    formulas are written, with g of all four arguments in one ``thermal_entropy`` call.

    The two arguments that grow with N leave the float range at the same N.
    ``channels._require_finite`` checks ``_ARGUMENTS[lead]`` first, so an
    overflow names the caller's own argument and the first N at which it
    left the range.
    """
    constants = coupling(spec.kind, spec.parameter)
    p, q, _, d, v = constants
    with np.errstate(over="ignore"):
        arguments = [p * grid + q * ne, p * grid + q * (ne + v)]
    order = (lead, 1 - lead)
    _require_finite([arguments[k] for k in order], lambda i: f"input photon number {grid[i]:.17g}",
                    lambda k, i: f"{spec.kind.value} parameter {spec.parameter:.6g}, Ne = {ne:.6g}",
                    [f"the argument {_ARGUMENTS[k]} of g" for k in order])
    size = len(grid)
    floor = q * ne / d if size else 0.0  # q Ne / d <= pN + q Ne is finite too; an empty grid subtracts it from nothing
    g = thermal_entropy(np.concatenate([*arguments, [floor, ne]]))
    return g[:size] - g[-2], 2.0 * g[size:2 * size], float(2.0 * epi_rhs(constants, 0.0, g[-1]))


def _shaped(values: np.ndarray, n):
    """A column evaluated on ``np.atleast_1d(n)``: a float for a scalar n, else the array."""
    return float(values[0]) if np.ndim(n) == 0 else values


def holevo_capacity(spec: ChannelSpec, input_photon: float) -> float:
    """Holevo capacity of the thermal-noise channel at input energy N: g(pN + q Ne) - g(q Ne / d)."""
    n = _validated_photon(input_photon)
    return _shaped(_closed_forms(spec, np.atleast_1d(n), thermal_environment_photon(spec))[0], n)


def maximal_capacity(spec: ChannelSpec, input_photon: float) -> float:
    """Twice the maximum output entropy at fixed input energy: 2 g(pN + q (Ne + v))."""
    n = _validated_photon(input_photon)
    return _shaped(_closed_forms(spec, np.atleast_1d(n), thermal_environment_photon(spec), lead=1)[1], n)


def moe_sum_lower(spec: ChannelSpec) -> float:
    """Lower bound on the summed minimum output entropies of channel and complement:
    twice the entropy floor ``epi_rhs``(0, g(Ne)) = q/d g(Ne) + ln d of a thermal environment."""
    return _closed_forms(spec, np.empty(0), thermal_environment_photon(spec))[2]


def private_capacity_upper(spec: ChannelSpec, input_photon: float) -> float:
    """Upper bound on the private capacity for a thermal environment:
    maximal - moe_sum_lower = 2 [g(pN + q (Ne + v)) - q/d g(Ne) - ln d]."""
    n = _validated_photon(input_photon)
    thermal_environment_photon(spec)  # error for other noise
    return private_capacity_upper_general(spec, n)


def private_capacity_upper_general(spec: ChannelSpec, input_photon: float) -> float:
    """Upper bound for a general Gaussian environment via its equivalent photon number.

    Substitutes N* = (nu - 1) / 2, the n of the spec's stored (n, r, u), into the
    thermal formulas, so the bound depends on the environment only through
    its symplectic eigenvalue nu, and not on squeezing.  On thermal noise it
    is ``private_capacity_upper``, which calls it after its thermal check.
    """
    n = _validated_photon(input_photon)
    _, maximal, moe = _closed_forms(spec, np.atleast_1d(n), float(spec._environment_modes[0][0]), lead=1)
    return _shaped(maximal - moe, n)


def private_capacity_lower_approx(spec: ChannelSpec, input_photon: float) -> float:
    """Rough lower bound obtained by keeping the full g of the leaked energy: twice the Holevo capacity."""
    return 2.0 * holevo_capacity(spec, input_photon)


def coherent_information(spec: ChannelSpec, input_photon):
    """S(channel output) - S(complementary output) for a thermal input of energy N.

    ``input_photon`` is a scalar or a 1-D array.  One ``channels._pair_invariants``
    call on the input (N, r = 0, u = 0) and the environment's stored
    ``core._mode_parameters``, with ``channels._complementary_roots``, gives the
    spectra for every N at once.  A failing
    check names the first failing input photon number; an overflow also names
    what left the float range and the (n, r) or invariants it comes from.
    """
    n = _validated_photon(input_photon)
    grid = np.atleast_1d(n)
    label = lambda i: f"input photon number {grid[i]:.17g}"  # noqa: E731
    modes = (grid, 0.0, 0.0), spec._environment_modes
    x_b, total, product = _pair_invariants(coupling(spec.kind, spec.parameter), *modes, label)
    entropies = _factor_entropies(np.concatenate([x_b[None], _complementary_roots(total, product)]))
    return _shaped(entropies[0] - (entropies[1] + entropies[2]), n)


_SECOND_POINTS = {"square": lambda n: n * n, "half": lambda n: n / 2.0}


def _coherent_columns(spec: ChannelSpec, grid: np.ndarray, second_argument: str):
    """I_c(N) and I_c(N) - I_c(N') over a 1-D grid, from one coherent_information call on every N and N'.
    An N' beyond the float range, or an N or N' whose closed form overflows, raises ``FloatingPointError``
    naming the input photon number (N for N') and what left the range."""
    if second_argument not in _SECOND_POINTS:
        raise ValueError("second_argument must be 'square' or 'half'")
    with np.errstate(over="ignore"):
        second = _SECOND_POINTS[second_argument](grid)
    _require_finite((second,), lambda i: f"input photon number {grid[i]:.17g}",
                    lambda k, i: f"the {second_argument} of N", ("N'",))
    info = coherent_information(spec, np.concatenate([grid, second]))
    return info[:len(grid)], info[:len(grid)] - info[len(grid):]


def coherent_lower_bound(spec: ChannelSpec, input_photon, second_argument: str = "square"):
    """Coherent-information difference I_c(N) - I_c(N') with N' = N^2.

    Not a lower bound on the private capacity, which is 0 where it is positive
    at gain 5 with one environment photon (an entanglement-breaking channel,
    every N > 1).  ``second_argument`` switches N' to N/2 for sensitivity
    exploration.  ``input_photon`` is a scalar (a grid of one) or a 1-D array.
    """
    n = _validated_photon(input_photon)
    return _shaped(_coherent_columns(spec, np.atleast_1d(n), second_argument)[1], n)


def bound_columns(spec: ChannelSpec, input_photon, units: str = "nats", coherent_second_arg: str = "square"):
    """The channel label and every bound at each N of a 1-D array (a scalar N is a grid of one), as one
    float array of shape (8, len): rows N, holevo, maximal, moe_sum_lower, upper, lower_approx, coherent_info
    and coherent_lower, the ``BoundResult`` fields in order, in ``units``.

    The closed forms take a thermal environment of the spec's stored n
    photons, the coherent-information columns the actual environment.  The
    grid runs in slices of ``_CHUNK`` points: per slice, one ``_closed_forms``
    call and one ``coherent_information`` call on every N and N' together,
    with upper = maximal - moe_sum_lower and lower_approx = 2 holevo.
    """
    grid = np.atleast_1d(_validated_photon(input_photon))
    unit = _nats_per(units)
    ne = float(spec._environment_modes[0][0])
    label = "thermal_photon" if _is_thermal(spec._environment_modes) else "equivalent_photon"
    knob = "transmissivity" if spec.kind is ChannelKind.BEAM_SPLITTER else "gain"
    columns = np.empty((8, len(grid)))
    columns[0] = grid
    for start in range(0, len(grid), _CHUNK):
        chunk = grid[start:start + _CHUNK]
        holevo, maximal, moe = _closed_forms(spec, chunk, ne)
        coherent = _coherent_columns(spec, chunk, coherent_second_arg)
        moe_column = np.full(len(chunk), moe)
        columns[1:, start:start + len(chunk)] = holevo, maximal, moe_column, maximal - moe, 2.0 * holevo, *coherent
    columns[1:] /= unit
    return f"{spec.kind.value}({knob}={spec.parameter:.12g}, {label}={ne:.12g})", columns


def evaluate_bounds(spec: ChannelSpec, input_photon, units: str = "nats", coherent_second_arg: str = "square"):
    """Every bound at one N (a ``BoundResult``), or at each N of a 1-D array (a list of them).

    The rows come from ``bound_columns``, one ``_CHUNK`` slice at a time, so
    memory does not grow with the grid beyond the results themselves.
    """
    n = _validated_photon(input_photon)
    grid, results = np.atleast_1d(n), []
    for start in range(0, max(len(grid), 1), _CHUNK):  # an empty grid still checks its units
        channel, columns = bound_columns(spec, grid[start:start + _CHUNK], units, coherent_second_arg)
        results += [BoundResult(channel, *row, units=units) for row in zip(*columns.tolist())]
    return results[0] if np.ndim(n) == 0 else results
