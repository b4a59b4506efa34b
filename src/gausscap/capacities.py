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
from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    ChannelKind,
    ChannelSpec,
    _factor_entropies,
    _pair_spectra,
    _require_finite,
    coupling,
    epi_rhs,
)
from .core import _CHUNK, CovarianceMatrix, _everywhere, _is_thermal, _mode_parameters, thermal_entropy, thermal_state


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

    _ENTROPY_FIELDS = ("holevo", "maximal", "moe_sum_lower", "upper", "lower_approx", "coherent_info", "coherent_lower")

    def as_units(self, units: str) -> "BoundResult":
        """Return the result converted to ``nats`` or ``bits``."""
        factor = _nats_per(units) / _nats_per(self.units)
        if units == self.units:
            return self
        converted = {name: getattr(self, name) / factor for name in self._ENTROPY_FIELDS}
        return replace(self, units=units, **converted)


def _finite_argument(argument, n, name: str, spec: ChannelSpec, ne: float):
    """``argument`` of g in a closed form at input photon number(s) n, shaped like n, after
    ``channels._require_finite`` names the first n at which it left the float range."""
    grid = np.atleast_1d(n)
    _require_finite((np.atleast_1d(argument),), lambda i: f"input photon number {grid[i]:.17g}",
                    lambda k, i: f"{spec.kind.value} parameter {spec.parameter:.6g}, Ne = {ne:.6g}",
                    (f"the argument {name} of g",))
    return argument


def holevo_capacity(spec: ChannelSpec, input_photon: float) -> float:
    """Holevo capacity of the thermal-noise channel at input energy N: g(pN + q Ne) - g(q Ne / d)."""
    n = _validated_photon(input_photon)
    ne = thermal_environment_photon(spec)
    p, q, _, d, _ = coupling(spec.kind, spec.parameter)
    with np.errstate(over="ignore"):
        output = _finite_argument(p * n + q * ne, n, "pN + q Ne", spec, ne)
    return thermal_entropy(output) - thermal_entropy(q * ne / d)  # q Ne / d <= pN + q Ne is finite too


def maximal_capacity(spec: ChannelSpec, input_photon: float) -> float:
    """Twice the maximum output entropy at fixed input energy: 2 g(pN + q (Ne + v))."""
    n = _validated_photon(input_photon)
    ne = thermal_environment_photon(spec)
    p, q, _, _, v = coupling(spec.kind, spec.parameter)
    with np.errstate(over="ignore"):
        output = _finite_argument(p * n + q * (ne + v), n, "pN + q (Ne + v)", spec, ne)
    return 2.0 * thermal_entropy(output)


def moe_sum_lower(spec: ChannelSpec) -> float:
    """Lower bound on the summed minimum output entropies of channel and complement:
    twice the entropy floor ``epi_rhs``(0, g(Ne)) = q/d g(Ne) + ln d of a thermal environment."""
    return float(2.0 * epi_rhs(spec.kind, spec.parameter, 0.0, thermal_entropy(thermal_environment_photon(spec))))


def private_capacity_upper(spec: ChannelSpec, input_photon: float) -> float:
    """Upper bound on the private capacity for a thermal environment:
    maximal - moe_sum_lower = 2 [g(pN + q (Ne + v)) - q/d g(Ne) - ln d]."""
    return maximal_capacity(spec, input_photon) - moe_sum_lower(spec)


def private_capacity_upper_general(spec: ChannelSpec, input_photon: float) -> float:
    """Upper bound for a general Gaussian environment via its equivalent photon number.

    Substitutes N* = (nu - 1) / 2, the n of the spec's stored (n, r, u), into the
    thermal formulas, so the bound depends on the environment only through
    its symplectic eigenvalue nu: it is ``private_capacity_upper`` bit for bit
    on thermal noise, and does not depend on squeezing.
    """
    ne_star = float(spec._environment_modes[0][0])
    return private_capacity_upper(ChannelSpec(spec.kind, spec.parameter, thermal_state(ne_star)), input_photon)


def private_capacity_lower_approx(spec: ChannelSpec, input_photon: float) -> float:
    """Rough lower bound obtained by keeping the full g of the leaked energy: twice the Holevo capacity."""
    return 2.0 * holevo_capacity(spec, input_photon)


def coherent_information(spec: ChannelSpec, input_photon):
    """S(channel output) - S(complementary output) for a thermal input of energy N.

    ``input_photon`` is a scalar or a 1-D array.  One ``channels._pair_spectra``
    call on the input (N, r = 0, u = 0) and the environment's stored
    ``core._mode_parameters`` gives the spectra for every N at once.  A failing
    check names the first failing input photon number; an overflow also names
    what left the float range and the (n, r) or invariants it comes from.
    """
    n = _validated_photon(input_photon)
    grid = np.atleast_1d(n)
    label = lambda i: f"input photon number {grid[i]:.17g}"  # noqa: E731
    modes = (grid, 0.0, 0.0), spec._environment_modes
    entropies = _factor_entropies(_pair_spectra(spec.kind, spec.parameter, *modes, label))
    info = entropies[0] - (entropies[1] + entropies[2])
    return float(info[0]) if np.ndim(n) == 0 else info


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
    lower = _coherent_columns(spec, np.atleast_1d(n), second_argument)[1]
    return float(lower[0]) if np.ndim(n) == 0 else lower


def evaluate_bounds(spec: ChannelSpec, input_photon, units: str = "nats", coherent_second_arg: str = "square"):
    """Evaluate every bound at one N, or at each N of a 1-D array (a list of results).

    The closed forms take a thermal environment of the spec's stored n
    photons, the coherent-information columns the actual environment.  The grid
    runs in slices of ``_CHUNK`` points, so memory does not grow with it: one
    call each of ``holevo_capacity``, ``maximal_capacity`` and
    ``coherent_information`` per slice, with upper = maximal - moe_sum_lower
    (once per grid) and lower_approx = 2 holevo.  A scalar N is a grid of one.
    """
    n = _validated_photon(input_photon)
    unit = _nats_per(units)
    ne = float(spec._environment_modes[0][0])
    formula_spec = ChannelSpec(spec.kind, spec.parameter, thermal_state(ne))
    label = "thermal_photon" if _is_thermal(spec._environment_modes) else "equivalent_photon"
    knob = "transmissivity" if spec.kind is ChannelKind.BEAM_SPLITTER else "gain"
    channel = f"{spec.kind.value}({knob}={spec.parameter:.12g}, {label}={ne:.12g})"
    moe = moe_sum_lower(formula_spec)
    grid, results = np.atleast_1d(n), []
    for start in range(0, len(grid), _CHUNK):
        chunk = grid[start:start + _CHUNK]
        holevo, maximal = holevo_capacity(formula_spec, chunk), maximal_capacity(formula_spec, chunk)
        coherent = _coherent_columns(spec, chunk, coherent_second_arg)
        # the BoundResult entropy fields in order, converted per column
        columns = np.stack([holevo, maximal, np.full(len(chunk), moe), maximal - moe, 2 * holevo, *coherent]) / unit
        results += [BoundResult(channel, *row, units=units) for row in zip(chunk.tolist(), *columns.tolist())]
    return results[0] if np.ndim(n) == 0 else results
