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

from .channels import ChannelKind, ChannelSpec, apply_channel, complementary
from .core import CovarianceMatrix, _everywhere, entropy, thermal_entropy, thermal_state

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


def _validated_photon(input_photon: float) -> float:
    if input_photon < 0:
        raise ValueError("input mean photon number must be nonnegative")
    return float(input_photon)


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

    _ENTROPY_FIELDS = (
        "holevo",
        "maximal",
        "moe_sum_lower",
        "upper",
        "lower_approx",
        "coherent_info",
        "coherent_lower",
    )

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


def coherent_information(spec: ChannelSpec, input_photon: float) -> float:
    """S(channel output) - S(complementary output) for a thermal input of energy N."""
    state = thermal_state(_validated_photon(input_photon))
    return entropy(apply_channel(state, spec)) - entropy(complementary(state, spec))


def coherent_lower_bound(spec: ChannelSpec, input_photon: float, second_argument: str = "square") -> float:
    """Coherent-information lower bound I_c(N) - I_c(N') with N' = N^2.

    ``second_argument`` switches N' to N/2 for sensitivity exploration.
    """
    n = _validated_photon(input_photon)
    if second_argument == "square":
        other = n * n
    elif second_argument == "half":
        other = n / 2.0
    else:
        raise ValueError("second_argument must be 'square' or 'half'")
    return coherent_information(spec, n) - coherent_information(spec, other)


def evaluate_bounds(
    spec: ChannelSpec,
    input_photon: float,
    units: str = "nats",
    coherent_second_arg: str = "square",
) -> BoundResult:
    """Evaluate every bound at one (channel, N) point.

    Formula-based quantities use the environment's equivalent thermal photon
    number when the noise is not thermal; the coherent-information columns go
    through the covariance pipeline with the actual environment.
    """
    label, ne = _formula_environment(spec)
    formula_spec = _with_thermal_environment(spec, ne)
    kind = "beam_splitter" if spec.kind is ChannelKind.BEAM_SPLITTER else "amplifier"
    knob = "transmissivity" if spec.kind is ChannelKind.BEAM_SPLITTER else "gain"
    result = BoundResult(
        channel=f"{kind}({knob}={spec.parameter:.12g}, {label}={ne:.12g})",
        input_photon=float(input_photon),
        holevo=holevo_capacity(formula_spec, input_photon),
        maximal=maximal_capacity(formula_spec, input_photon),
        moe_sum_lower=moe_sum_lower(formula_spec),
        upper=private_capacity_upper_general(spec, input_photon),
        lower_approx=private_capacity_lower_approx(formula_spec, input_photon),
        coherent_info=coherent_information(spec, input_photon),
        coherent_lower=coherent_lower_bound(spec, input_photon, coherent_second_arg),
    )
    return result.as_units(units)
