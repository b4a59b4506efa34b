import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausscap import (
    ChannelSpec,
    CovarianceMatrix,
    PhysicalityError,
    amplifier_symplectic,
    apply_symplectic,
    bound_columns,
    coherent_information,
    coherent_lower_bound,
    equivalent_thermal_photon,
    evaluate_bounds,
    holevo_capacity,
    maximal_capacity,
    moe_sum_lower,
    private_capacity_lower_approx,
    private_capacity_upper,
    private_capacity_upper_general,
    random_gaussian_state,
    squeezed_thermal_state,
    thermal_state,
    vacuum_state,
)
from gausscap import capacities, channels, core
from gausscap.channels import MAX_GAIN
from gausscap.core import _CHUNK, rotation_symplectic
from helpers import (
    bounds_per_point,
    coherent_information_mp,
    coherent_information_per_point,
    fc_entropy_thermal_bs,
    g_direct,
    linalg_calls,
)


def bs(tau, ne):
    return ChannelSpec.beam_splitter(tau, thermal_state(ne))


def amp(kappa, ne):
    return ChannelSpec.amplifier(kappa, thermal_state(ne))


class TestHolevo:
    def test_pure_loss_drops_second_term(self):
        assert holevo_capacity(bs(0.6, 0), 2) == pytest.approx(g_direct(1.2), rel=1e-13)

    def test_beam_splitter_formula(self):
        expected = g_direct(1.85) - g_direct(0.15)
        assert holevo_capacity(bs(0.85, 1), 2) == pytest.approx(expected, rel=1e-13)

    def test_amplifier_formula(self):
        expected = g_direct(9) - g_direct(4 / 9)
        assert holevo_capacity(amp(5, 1), 1) == pytest.approx(expected, rel=1e-13)

    def test_rejects_non_thermal_environment(self):
        spec = ChannelSpec.beam_splitter(0.5, squeezed_thermal_state(1, 0.3))
        with pytest.raises(ValueError, match="thermal"):
            holevo_capacity(spec, 1)

    def test_rejects_negative_input_energy(self):
        with pytest.raises(ValueError):
            holevo_capacity(bs(0.5, 1), -1)


class TestRotatedThermalEnvironment:
    """A rotated thermal state is thermal: its entries round off the diagonal by about eps (2N + 1), 3.6e-12 at
    N = 1e6 and 1.6e-9 at N = 1e9, which an absolute 1e-12 test on the entries took for squeezing."""

    @pytest.mark.parametrize("ne,expected", [(1e6, 21.392157161882075), (1e9, 33.135311982220465)])
    def test_bounds_equal_the_thermal_ones(self, ne, expected):
        rotated = ChannelSpec.beam_splitter(0.85, apply_symplectic(rotation_symplectic(0.3), thermal_state(ne)))
        assert private_capacity_upper(rotated, 2.0) == private_capacity_upper(bs(0.85, ne), 2.0) == expected
        assert holevo_capacity(rotated, 2.0) == holevo_capacity(bs(0.85, ne), 2.0)
        assert evaluate_bounds(rotated, 2.0).channel == evaluate_bounds(bs(0.85, ne), 2.0).channel


class TestMaximal:
    def test_transparent_channel(self):
        assert maximal_capacity(bs(1.0, 1), 1.5) == pytest.approx(2 * g_direct(1.5), rel=1e-13)

    def test_beam_splitter(self):
        assert maximal_capacity(bs(0.85, 1), 2) == pytest.approx(2 * g_direct(1.85), rel=1e-13)

    def test_zero_input(self):
        assert maximal_capacity(bs(0.85, 1), 0) == pytest.approx(2 * g_direct(0.15), rel=1e-13)

    def test_amplifier(self):
        assert maximal_capacity(amp(5, 1), 1) == pytest.approx(2 * g_direct(13), rel=1e-13)


class TestMoeSumLower:
    def test_vacuum_environment(self):
        assert moe_sum_lower(bs(0.85, 0)) == 0.0

    def test_beam_splitter_value(self):
        assert moe_sum_lower(bs(0.85, 1)) == pytest.approx(0.3 * g_direct(1), rel=1e-13)
        assert moe_sum_lower(bs(0.85, 1)) == pytest.approx(0.6 * math.log(2), rel=1e-13)

    def test_amplifier_vacuum_leaves_logarithm(self):
        assert moe_sum_lower(amp(5, 0)) == pytest.approx(2 * math.log(9), rel=1e-13)

    def test_amplifier_value(self):
        expected = 2 * (4 / 9) * g_direct(1) + 2 * math.log(9)
        assert moe_sum_lower(amp(5, 1)) == pytest.approx(expected, rel=1e-13)


class TestPrivateUpper:
    def test_fully_reflecting_is_zero(self):
        assert private_capacity_upper(bs(0.0, 1.7), 4) == 0.0

    def test_noiseless_limit(self):
        assert private_capacity_upper(bs(1.0, 1.7), 4) == pytest.approx(2 * g_direct(4), rel=1e-14)

    def test_pure_loss(self):
        assert private_capacity_upper(bs(0.85, 0), 2) == pytest.approx(2 * g_direct(1.7), rel=1e-13)

    def test_beam_splitter_value(self):
        expected = 2 * (g_direct(1.85) - 0.15 * g_direct(1))
        assert private_capacity_upper(bs(0.85, 1), 2) == pytest.approx(expected, rel=1e-13)

    def test_amplifier_value(self):
        expected = 2 * (g_direct(13) - (4 / 9) * g_direct(1) - math.log(9))
        assert private_capacity_upper(amp(5, 1), 1) == pytest.approx(expected, rel=1e-13)

    def test_factor_two_relation(self):
        single = g_direct(1.85) - 0.15 * g_direct(1)
        assert private_capacity_upper(bs(0.85, 1), 2) == pytest.approx(2 * single, rel=1e-13)

    def test_nondecreasing_in_input_energy(self):
        for spec in (bs(0.85, 1), amp(5, 1)):
            values = [private_capacity_upper(spec, n) for n in np.arange(0, 10.5, 0.5)]
            assert np.all(np.diff(values) >= 0)

    def test_nondecreasing_in_environment_energy_below_input(self):
        # Monotone growth in the environment energy holds where the
        # environment is at least as energetic as the input.
        tau, n = 0.7, 0.5
        values = [private_capacity_upper(bs(tau, ne), n) for ne in np.arange(n, 6.0, 0.25)]
        assert np.all(np.diff(values) >= -1e-12)


class TestPrivateUpperGeneral:
    def test_thermal_environment_reduces_exactly(self):
        spec = bs(0.85, 1)
        assert private_capacity_upper_general(spec, 2) == private_capacity_upper(spec, 2)
        aspec = amp(5, 1)
        assert private_capacity_upper_general(aspec, 1) == private_capacity_upper(aspec, 1)

    @pytest.mark.parametrize("r", [0.0, 0.4, 0.8, 1.2, 1.6, 2.0])
    def test_squeezing_invariance(self, r):
        general = ChannelSpec.beam_splitter(0.85, squeezed_thermal_state(1, r))
        value = private_capacity_upper_general(general, 2)
        reference = private_capacity_upper(bs(0.85, 1), 2)
        assert value == pytest.approx(reference, rel=1e-12)

    def test_squeezed_vacuum_reduces_to_pure_loss(self):
        general = ChannelSpec.beam_splitter(0.85, squeezed_thermal_state(0, 1.1))
        assert equivalent_thermal_photon(general.environment) == pytest.approx(0.0, abs=1e-12)
        assert private_capacity_upper_general(general, 2) == pytest.approx(2 * g_direct(1.7), rel=1e-12)

    @pytest.mark.parametrize("build,parameter", [(ChannelSpec.beam_splitter, 0.85), (ChannelSpec.amplifier, 5.0)])
    def test_equals_thermal_bound_bit_for_bit(self, build, parameter):
        # N_e is (nu - 1) / 2 of the stored symplectic eigenvalue on every path, so
        # neither a thermal environment nor squeezing moves the bound by a bit
        for ne in np.linspace(0.0, 5.0, 51).tolist():
            thermal = private_capacity_upper(build(parameter, thermal_state(ne)), 2)
            assert private_capacity_upper_general(build(parameter, thermal_state(ne)), 2) == thermal
            assert private_capacity_upper_general(build(parameter, squeezed_thermal_state(ne, 0.8)), 2) == thermal

    def test_equivalent_photon_from_determinant(self):
        assert equivalent_thermal_photon(squeezed_thermal_state(1.25, 0.9)) == pytest.approx(1.25, rel=1e-12)
        with pytest.raises(ValueError, match="^expected a single-mode environment state$"):
            equivalent_thermal_photon(vacuum_state(2))


class TestPrivateLowerApprox:
    def test_is_twice_holevo(self):
        for spec in (bs(0.85, 1), amp(5, 1)):
            assert private_capacity_lower_approx(spec, 2) == 2 * holevo_capacity(spec, 2)

    def test_beam_splitter_value(self):
        expected = 2 * (g_direct(1.85) - g_direct(0.15))
        assert private_capacity_lower_approx(bs(0.85, 1), 2) == pytest.approx(expected, rel=1e-13)

    def test_zero_input_collapses_for_beam_splitter(self):
        assert private_capacity_lower_approx(bs(0.85, 1), 0) == 0.0
        expected_amp = 2 * (g_direct(4) - g_direct(4 / 9))
        assert private_capacity_lower_approx(amp(5, 1), 0) == pytest.approx(expected_amp, rel=1e-13)


class TestOrdering:
    def test_beam_splitter_grid(self):
        taus = np.arange(0.05, 1.0, 0.05)
        photons = np.arange(0, 10.5, 0.5)
        envs = (0.0, 0.5, 1.0, 2.0)
        for tau in taus:
            for ne in envs:
                spec = bs(tau, ne)
                for n in photons:
                    upper = private_capacity_upper(spec, n)
                    lower = private_capacity_lower_approx(spec, n)
                    maximal = maximal_capacity(spec, n)
                    assert maximal - upper >= -1e-10
                    assert upper - lower >= -1e-10
                    assert lower >= -1e-10
                    gap = 2 * (g_direct((1 - tau) * ne) - (1 - tau) * g_direct(ne))
                    assert upper - lower == pytest.approx(gap, abs=1e-10)

    def test_amplifier_rough_lower_can_exceed_upper(self):
        # The amplifier's heuristic lower bound is not dominated by the
        # upper bound; at gain 5 with unit-photon input and environment it
        # lands well above it.
        spec = amp(5, 1)
        assert private_capacity_lower_approx(spec, 1) > private_capacity_upper(spec, 1)


class TestCoherentInformation:
    def test_all_vacuum(self):
        spec = ChannelSpec.beam_splitter(0.5, vacuum_state())
        assert coherent_information(spec, 0) == 0.0

    def test_pure_loss_closed_form(self):
        spec = bs(0.85, 0)
        expected = g_direct(1.7) - g_direct(0.3)
        assert coherent_information(spec, 2) == pytest.approx(expected, abs=1e-10)

    def test_balanced_splitter_with_matched_thermal_noise(self):
        # With the environment purified, the complementary output keeps the
        # reference correlations, so the coherent information is negative
        # here (it would vanish only against the weak complement).
        spec = bs(0.5, 1)
        nu = 3.0
        expected = g_direct(1) - 2 * g_direct((math.sqrt((nu * nu + 1) / 2) - 1) / 2)
        assert coherent_information(spec, 1) == pytest.approx(expected, abs=1e-10)
        assert coherent_information(spec, 1) < 0

    def test_thermal_environment_block_formula(self):
        spec = bs(0.85, 1)
        expected = g_direct(0.85 * 2 + 0.15 * 1) - fc_entropy_thermal_bs(0.85, 2, 1)
        assert coherent_information(spec, 2) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n", [0.5, 2.0])
    def test_matches_purified_input_route(self, n):
        # Independently purify the input; global purity then lets the
        # complementary entropy be read off the (B, A') marginal instead.
        from gausscap import apply_channel, entropy, partial_trace, purify
        from gausscap import ModePartition, direct_sum
        from gausscap.channels import channel_symplectic
        from gausscap.core import CovarianceMatrix
        from helpers import embed_two_mode

        spec = bs(0.7, 1.2)
        state = thermal_state(n)
        global_in = direct_sum(purify(state), purify(spec.environment))  # (A, A', E, C)
        s = embed_two_mode(channel_symplectic(spec).data, 4, 0, 2)
        out = s @ global_in.data @ s.T
        transformed = CovarianceMatrix(0.5 * (out + out.T))
        s_b = entropy(apply_channel(state, spec))
        s_ba = entropy(partial_trace(transformed, ModePartition.keeping([0, 1], 4)))
        assert coherent_information(spec, n) == pytest.approx(s_b - s_ba, abs=1e-8)

    def test_unphysical_environment_names_the_input(self):
        # an environment that skipped validation: det = 1/16 < 1
        environment = CovarianceMatrix._physical(0.25 * np.eye(2), np.array([0.25]))
        spec = ChannelSpec.beam_splitter(0.5, environment)
        with pytest.raises(PhysicalityError, match="uncertainty condition violated at input photon number 2(:|$)"):
            coherent_information(spec, np.array([2.0, 3.0]))


def _within(got, want, rtol=1e-12):
    return abs(got - want) <= rtol * max(1.0, abs(want))


class TestCoherentInformationAtLargeInput:
    """The closed form stays accurate when the input dwarfs the environment:
    against the 50-digit matrix oracle up to N = 1e18."""

    @pytest.mark.parametrize("n", [1e6, 1e10, 1e14])
    def test_beam_splitter_against_mpmath(self, n):
        expected = coherent_information_mp("bs", 0.85, n, 1)
        assert coherent_information(bs(0.85, 1), n) == pytest.approx(expected, abs=1e-12)

    def test_lower_bound_at_squared_argument(self):
        expected = coherent_information_mp("bs", 0.85, 1e7, 1) - coherent_information_mp("bs", 0.85, 1e14, 1)
        assert coherent_lower_bound(bs(0.85, 1), 1e7) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("kappa", [5.0, 1e6])
    def test_amplifier_against_mpmath(self, kappa):
        for n in (0.5, 10.0, 1e6):
            expected = coherent_information_mp("amp", kappa, n, 1)
            assert coherent_information(amp(kappa, 1), n) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n", [0.0, 1e-300, 0.5, 1e3, 1e9, 1e12, 1e15, 1e18])
    @pytest.mark.parametrize(
        "kind,parameter,ne,squeeze",
        [("bs", 0.5, 1.0, 0.0), ("bs", 0.85, 0.3, 1.2), ("bs", 1e-6, 2.0, 0.5), ("amp", 5.0, 1.0, 0.0),
         ("amp", 1.0 + 1e-9, 0.0, 0.7), ("amp", 1e6, 1.0, 0.0)],
    )
    def test_against_mpmath(self, kind, parameter, ne, squeeze, n):
        build = ChannelSpec.beam_splitter if kind == "bs" else ChannelSpec.amplifier
        spec = build(parameter, squeezed_thermal_state(ne, squeeze))
        assert _within(coherent_information(spec, n), coherent_information_mp(kind, parameter, n, ne, squeeze))

    def test_amplifier_at_maximum_gain_and_large_input(self):
        spec = amp(1e6, 1)
        result = evaluate_bounds(spec, 1e6)
        info = coherent_information_mp("amp", 1e6, 1e6, 1)
        assert _within(result.coherent_info, info)
        assert _within(result.coherent_lower, info - coherent_information_mp("amp", 1e6, 1e12, 1))

    def test_degenerate_pair_keeps_its_digits(self):
        # t = 1/2 and N = N_e: the (F, C) output has nu_+ = nu_-
        assert _within(coherent_information(bs(0.5, 1), 1.0), coherent_information_mp("bs", 0.5, 1.0, 1.0), 1e-15)


PHOTONS = st.floats(0.0, 1e6)
ENVIRONMENT_PHOTONS = st.floats(0.0, 10.0)
SQUEEZES = st.floats(0.0, 2.0)
TRANSMISSIVITIES = st.floats(0.0, 1.0)
GAINS = st.floats(1.0, MAX_GAIN)
# a squeezed vacuum this close to thermal once gave the thermal formulas N_e = (Gamma_00 - 1) / 2 < 0
NEAR_THERMAL_SQUEEZE = 4.639315145733146e-14


class TestDomainProperties:
    """Properties over the documented domain: t in [0, 1], k in [1, MAX_GAIN], N <= 1e6 with N' = N^2."""

    @staticmethod
    def _check_coherent_columns(kind, parameter, n, ne, squeeze):
        build = ChannelSpec.beam_splitter if kind == "bs" else ChannelSpec.amplifier
        result = evaluate_bounds(build(parameter, squeezed_thermal_state(ne, squeeze)), n)
        info = coherent_information_mp(kind, parameter, n, ne, squeeze)
        assert _within(result.coherent_info, info)
        assert _within(result.coherent_lower, info - coherent_information_mp(kind, parameter, n * n, ne, squeeze))

    @settings(deadline=None, max_examples=40)
    @given(t=TRANSMISSIVITIES, n=PHOTONS, ne=ENVIRONMENT_PHOTONS, squeeze=SQUEEZES)
    @example(t=0.0, n=0.0, ne=0.0, squeeze=NEAR_THERMAL_SQUEEZE)
    def test_beam_splitter_against_mpmath(self, t, n, ne, squeeze):
        self._check_coherent_columns("bs", t, n, ne, squeeze)

    @settings(deadline=None, max_examples=40)
    @given(k=GAINS, n=PHOTONS, ne=ENVIRONMENT_PHOTONS, squeeze=SQUEEZES)
    @example(k=1.0, n=0.0, ne=0.0, squeeze=NEAR_THERMAL_SQUEEZE)
    @example(k=5.0, n=2.0, ne=0.0, squeeze=NEAR_THERMAL_SQUEEZE)
    def test_amplifier_against_mpmath(self, k, n, ne, squeeze):
        self._check_coherent_columns("amp", k, n, ne, squeeze)

    @settings(deadline=None, max_examples=100)
    @given(t=TRANSMISSIVITIES, k=GAINS, n=PHOTONS, ne=ENVIRONMENT_PHOTONS, squeeze=SQUEEZES)
    def test_general_bound_is_squeezing_invariant(self, t, k, n, ne, squeeze):
        for build, parameter in ((ChannelSpec.beam_splitter, t), (ChannelSpec.amplifier, k)):
            squeezed = private_capacity_upper_general(build(parameter, squeezed_thermal_state(ne, squeeze)), n)
            assert _within(squeezed, private_capacity_upper(build(parameter, thermal_state(ne)), n))

    @settings(deadline=None, max_examples=100)
    @given(t=TRANSMISSIVITIES, n=PHOTONS)
    def test_beam_splitter_upper_is_lower_approx_without_noise(self, t, n):
        result = evaluate_bounds(bs(t, 0.0), n)
        assert result.upper == result.lower_approx


class TestCoherentLowerBound:
    def test_fixed_points(self):
        spec = bs(0.85, 1)
        assert coherent_lower_bound(spec, 1) == 0.0
        assert coherent_lower_bound(spec, 0) == 0.0

    def test_square_argument(self):
        spec = bs(0.85, 1)
        expected = coherent_information(spec, 2) - coherent_information(spec, 4)
        assert coherent_lower_bound(spec, 2) == expected

    def test_half_argument_switch(self):
        spec = bs(0.85, 1)
        expected = coherent_information(spec, 2) - coherent_information(spec, 1)
        assert coherent_lower_bound(spec, 2, second_argument="half") == expected

    def test_invalid_switch(self):
        with pytest.raises(ValueError):
            coherent_lower_bound(bs(0.85, 1), 2, second_argument="double")


_ENTROPY_FIELDS = ("holevo", "maximal", "moe_sum_lower", "upper", "lower_approx", "coherent_info", "coherent_lower")


class TestEvaluateBounds:
    def test_noiseless_collapse(self):
        result = evaluate_bounds(bs(1.0, 1), 1)
        assert result.upper == result.maximal == result.lower_approx
        assert result.upper == pytest.approx(2 * g_direct(1), rel=1e-13)

    def test_beam_splitter_grid_ordering(self):
        spec = bs(0.85, 1)
        for n in np.linspace(0, 10, 21):
            result = evaluate_bounds(spec, n)
            assert result.maximal >= result.upper >= result.lower_approx >= 0

    def test_amplifier_point_is_finite(self):
        result = evaluate_bounds(amp(5, 1), 1)
        for name in _ENTROPY_FIELDS:
            assert math.isfinite(getattr(result, name))
        # documented crossing: the rough lower bound exceeds the upper bound here
        assert result.lower_approx > result.upper

    def test_general_environment_uses_equivalent_photon(self):
        squeezed = ChannelSpec.beam_splitter(0.85, squeezed_thermal_state(1, 0.8))
        thermal = bs(0.85, 1)
        got = evaluate_bounds(squeezed, 2)
        ref = evaluate_bounds(thermal, 2)
        assert got.upper == pytest.approx(ref.upper, rel=1e-12)
        assert got.holevo == pytest.approx(ref.holevo, rel=1e-12)
        assert got.maximal == pytest.approx(ref.maximal, rel=1e-12)
        # the covariance pipeline sees the actual squeezed environment
        assert got.coherent_info != ref.coherent_info

    def test_units_conversion(self):
        nats = evaluate_bounds(bs(0.85, 1), 2)
        bits = evaluate_bounds(bs(0.85, 1), 2, units="bits")
        for name in _ENTROPY_FIELDS:
            assert getattr(bits, name) == pytest.approx(getattr(nats, name) / math.log(2), rel=1e-14)

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            evaluate_bounds(bs(0.85, 1), 2, units="dits")


def _bits(values):
    return [float(v).hex() for v in values]


def _fields(result):
    return _bits(dataclasses.astuple(result)[1:9])


# The coherent columns are a closed form; the per-point chain takes eigenvalues
# of validated matrices.  Over the grids below they differ by at most 1.7e-14.
CHAIN_RTOL = 1e-12


def _assert_matches_chain(result, expected):
    """Closed-form fields bit for bit, the coherent columns to CHAIN_RTOL * max(1, |value|)."""
    assert _fields(result)[:6] == _bits(expected[:6])
    for got, want in zip((result.coherent_info, result.coherent_lower), expected[6:]):
        assert abs(got - want) <= CHAIN_RTOL * max(1.0, abs(want))


_ENVIRONMENTS = {
    "thermal": thermal_state(1.0),
    "squeezed": squeezed_thermal_state(0.7, 0.8),
    "vacuum": vacuum_state(),
}
_CHANNELS = [("bs", t) for t in (0.3, 0.85, 1.0)] + [("amp", k) for k in (1.0, 5.0, 1e6)]


def _spec(kind, parameter, environment):
    build = ChannelSpec.beam_splitter if kind == "bs" else ChannelSpec.amplifier
    return build(parameter, _ENVIRONMENTS[environment])


class TestStackedBoundGrid:
    """A bound grid is one stacked pass; a scalar N is a grid of one."""

    @pytest.mark.parametrize("second", ["square", "half"])
    @pytest.mark.parametrize("environment", sorted(_ENVIRONMENTS))
    @pytest.mark.parametrize("kind,parameter", _CHANNELS)
    def test_grid_matches_points_and_per_point_chain(self, kind, parameter, environment, second):
        spec = _spec(kind, parameter, environment)
        grid = np.linspace(0.0, 10.0, 21)
        results = evaluate_bounds(spec, grid, coherent_second_arg=second)
        assert len(results) == len(grid)
        for n, result in zip(grid.tolist(), results):
            assert result == evaluate_bounds(spec, n, coherent_second_arg=second)
            _assert_matches_chain(result, bounds_per_point(spec, n, second))

    @pytest.mark.parametrize("points", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_chunk_boundaries_match_per_point_chain(self, points):
        spec = _spec("amp", 5.0, "squeezed")
        grid = np.linspace(0.0, 50.0, points)
        nats = evaluate_bounds(spec, grid)
        for n, result in zip(grid.tolist(), nats):
            _assert_matches_chain(result, bounds_per_point(spec, n))
        assert nats[-1] == evaluate_bounds(spec, grid[-1])
        # each field in nats divided by ln 2, as bound_columns converts it
        bits = [dataclasses.replace(r, units="bits", **{f: getattr(r, f) / math.log(2.0) for f in _ENTROPY_FIELDS})
                for r in nats]
        assert evaluate_bounds(spec, grid, units="bits") == bits

    def test_coherent_columns_take_arrays(self):
        spec = _spec("bs", 0.85, "squeezed")
        grid = np.linspace(0.0, 30.0, 2 * _CHUNK + 3)
        info = coherent_information(spec, grid)
        assert info.shape == grid.shape
        assert _bits(info) == _bits(coherent_information(spec, n) for n in grid.tolist())
        chain = np.array([coherent_information_per_point(spec, n) for n in grid.tolist()])
        assert np.all(np.abs(info - chain) <= CHAIN_RTOL * np.maximum(1.0, np.abs(chain)))
        lower = coherent_lower_bound(spec, grid, second_argument="half")
        assert _bits(lower) == _bits(coherent_lower_bound(spec, n, second_argument="half") for n in grid.tolist())
        assert isinstance(coherent_information(spec, 2.0), float)
        assert isinstance(coherent_lower_bound(spec, 2.0), float)

    def test_closed_forms_take_arrays(self):
        spec = bs(0.85, 1)
        grid = np.linspace(0.0, 10.0, 11)
        for form in (holevo_capacity, maximal_capacity, private_capacity_upper,
                     private_capacity_upper_general, private_capacity_lower_approx):
            assert _bits(form(spec, grid)) == _bits(form(spec, n) for n in grid.tolist())
            assert type(form(spec, 2.0)) is float  # not numpy.float64, which isinstance(..., float) accepts
        assert type(moe_sum_lower(spec)) is float

    def test_empty_grid(self):
        assert evaluate_bounds(bs(0.85, 1), np.array([])) == []

    def test_memory_does_not_grow_with_the_grid(self):
        spec = _spec("amp", 5.0, "squeezed")

        def transient_peak(points):
            grid = np.linspace(0.0, 10.0, points)
            tracemalloc.start()
            try:
                results = evaluate_bounds(spec, grid)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(results) == points
            return peak - current  # what the pass needed beyond the results it returns

        evaluate_bounds(spec, np.linspace(0.0, 10.0, 3))  # warm caches outside the measurement
        assert transient_peak(20_001) <= 2 * transient_peak(513)

    def test_large_second_point_matches_mpmath(self):
        # N^2 = 1e18 made the old eigenvalue path's (F, C) output numerically indefinite
        results = evaluate_bounds(bs(0.5, 1), np.array([0.0, 5e8, 1e9]))
        for result in results:
            n = result.input_photon
            info = coherent_information_mp("bs", 0.5, n, 1)
            lower = info - coherent_information_mp("bs", 0.5, n * n, 1)
            assert abs(result.coherent_info - info) <= 1e-12 * max(1.0, abs(info))
            assert abs(result.coherent_lower - lower) <= 1e-12 * max(1.0, abs(lower))

    def test_no_eigensolver_runs(self, monkeypatch):
        spec = _spec("amp", 5.0, "squeezed")  # built before counting: the environment is validated once
        calls = linalg_calls(monkeypatch)  # det included
        for coherent_arg in ("square", "half"):
            assert len(evaluate_bounds(spec, np.linspace(0.0, 10.0, 101), coherent_second_arg=coherent_arg)) == 101
        assert calls == []


class TestBoundColumns:
    """``bound_columns`` is the one pass behind every column: each public bound equals its row bit for bit."""

    _ROWS = {"holevo": 1, "maximal": 2, "moe_sum_lower": 3, "upper": 4, "lower_approx": 5,
             "coherent_info": 6, "coherent_lower": 7}

    @pytest.mark.parametrize("ne", [0.0, 1.0, 0.3, 1e6])
    @pytest.mark.parametrize("kind,parameter", _CHANNELS)
    def test_each_bound_equals_its_row(self, kind, parameter, ne):
        spec = (bs if kind == "bs" else amp)(parameter, ne)
        grid = np.linspace(0.0, 40.0, _CHUNK + 9)  # two slices
        for second in ("square", "half"):
            columns = bound_columns(spec, grid, coherent_second_arg=second)[1]
            assert columns.shape == (8, len(grid)) and _bits(columns[0]) == _bits(grid)
            assert _bits(columns[7]) == _bits(coherent_lower_bound(spec, grid, second_argument=second))
        columns = bound_columns(spec, grid)[1]
        rows = {
            "holevo": holevo_capacity(spec, grid),
            "maximal": maximal_capacity(spec, grid),
            "moe_sum_lower": np.full(len(grid), moe_sum_lower(spec)),
            "upper": private_capacity_upper(spec, grid),
            "lower_approx": private_capacity_lower_approx(spec, grid),
            "coherent_info": coherent_information(spec, grid),
        }
        for name, values in rows.items():
            assert _bits(columns[self._ROWS[name]]) == _bits(values), name
        bits = bound_columns(spec, grid, units="bits")[1]
        assert _bits(bits[1:].ravel()) == _bits((columns[1:] / math.log(2.0)).ravel())
        assert _bits(bits[0]) == _bits(grid)

    def test_evaluate_bounds_rows_are_the_columns(self):
        spec = _spec("amp", 5.0, "squeezed")
        grid = np.linspace(0.0, 10.0, 2 * _CHUNK + 3)
        channel, columns = bound_columns(spec, grid, units="bits", coherent_second_arg="half")
        results = evaluate_bounds(spec, grid, units="bits", coherent_second_arg="half")
        assert [dataclasses.astuple(r) for r in results] == [(channel, *row, "bits") for row in zip(*columns.tolist())]
        # under squeezed noise the upper row is the general bound on N* = (nu - 1) / 2
        assert _bits(bound_columns(spec, grid)[1][4]) == _bits(private_capacity_upper_general(spec, grid))
        assert bound_columns(spec, 2.0)[1].shape == (8, 1)
        assert bound_columns(spec, np.array([]))[1].shape == (8, 0)

    def test_two_entropy_calls_per_slice(self, monkeypatch):
        calls, original = [], core.thermal_entropy

        def counted(x):
            calls.append(np.shape(x))
            return original(x)

        for module in (core, channels, capacities):  # each module calls the name it imported
            monkeypatch.setattr(module, "thermal_entropy", counted)
        spec = _spec("bs", 0.85, "squeezed")
        for points, slices in ((1, 1), (101, 1), (_CHUNK, 1), (2 * _CHUNK + 3, 3)):
            calls.clear()
            bound_columns(spec, np.linspace(0.0, 10.0, points))
            assert len(calls) == 2 * slices, calls  # the closed forms, then the coherent columns
        calls.clear()
        evaluate_bounds(spec, np.linspace(0.0, 10.0, 2 * _CHUNK + 3))
        assert len(calls) == 6

    def test_checks_keep_their_order_and_messages(self):
        # an overflow in the first slice's closed forms is reported before the coherent columns of that slice
        grid = np.array([0.0, 1e308])
        with pytest.raises(FloatingPointError, match=r"the argument pN \+ q Ne of g"):
            bound_columns(amp(5, 1), grid)
        with pytest.raises(FloatingPointError, match=r"the argument pN \+ q \(Ne \+ v\) of g"):
            private_capacity_upper(amp(5, 1), grid)
        with pytest.raises(ValueError, match="^units must be 'nats' or 'bits'$"):
            evaluate_bounds(bs(0.85, 1), np.array([]), units="dits")
        with pytest.raises(ValueError, match="^second_argument must be 'square' or 'half'$"):
            bound_columns(bs(0.85, 1), 1.0, coherent_second_arg="double")
        with pytest.raises(ValueError, match="thermal"):
            moe_sum_lower(_spec("bs", 0.85, "squeezed"))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_closed_forms_and_coherent_information(self, value):
        spec = bs(0.85, 1)
        for call in (
            lambda: holevo_capacity(spec, value),
            lambda: private_capacity_upper_general(spec, value),
            lambda: coherent_information(spec, value),
            lambda: coherent_lower_bound(spec, value),
            lambda: evaluate_bounds(spec, value),
            lambda: evaluate_bounds(spec, np.array([1.0, value])),
        ):
            with pytest.raises(ValueError, match="finite") as caught:
                call()
            assert caught.type is ValueError

    def test_grid_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            evaluate_bounds(bs(0.85, 1), np.ones((2, 2)))


class TestClosedFormOverflow:
    # at gain 5, k N leaves the float range at N = 1e308: the closed forms returned nan with RuntimeWarnings
    @pytest.mark.parametrize("form,argument", [
        (holevo_capacity, r"pN \+ q Ne"),
        (private_capacity_lower_approx, r"pN \+ q Ne"),
        (maximal_capacity, r"pN \+ q \(Ne \+ v\)"),
        (private_capacity_upper, r"pN \+ q \(Ne \+ v\)"),
    ])
    @pytest.mark.parametrize("n", [1e308, np.array([0.0, 1e308])], ids=["scalar", "grid"])
    def test_names_the_input_and_the_argument(self, form, argument, n):
        message = (rf"^overflow at input photon number 1e\+308: the argument {argument} of g leaves the float range "
                   r"\(amplifier parameter 5, Ne = 1\)$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=message):
                form(amp(5, 1), n)


class TestOneOwnerPerFact:
    """The environment's photon number is ``core._mode_parameters``' n, and the amplifier symplectic is
    built from ``channels.coupling``: each agrees bit for bit with the rule it replaced, written out here."""

    @staticmethod
    def _environments():
        for n in (0.0, 1e-13, 0.3, 1.0, 2.5, 7.0, 1e6):
            for r in (0.0, 1e-14, 0.4, 1.5, 3.0):
                state = squeezed_thermal_state(n, r)
                yield state
                for angle in (0.3, 1.1, 2.9):
                    yield apply_symplectic(rotation_symplectic(angle), state)
        for seed in range(40):
            yield random_gaussian_state(1, 4.0, 2.0, seed=seed)
        yield CovarianceMatrix(np.eye(2) * (1.0 - 5e-10))  # validated within 1e-9 below nu = 1

    def test_equivalent_photon_matches_the_clamped_eigenvalue_rule(self):
        for state in self._environments():
            nu = float(state._spectrum[0])
            assert equivalent_thermal_photon(state).hex() == ((max(nu, 1.0) - 1.0) / 2.0).hex()

    @pytest.mark.parametrize("gain", [1.0, 1.0 + 1e-15, 1.5, 2.0, 5.0, 37.25, 1e3, MAX_GAIN])
    def test_amplifier_symplectic_entries(self, gain):
        a, b = math.sqrt(gain) * np.eye(2), math.sqrt(gain - 1.0) * np.diag([1.0, -1.0])
        expected = np.block([[a, b], [b, a]])
        assert amplifier_symplectic(gain).data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("gain", [0.5, 1.0 - 1e-15, math.nan])
    def test_amplifier_gain_below_one_is_rejected(self, gain):
        with pytest.raises(ValueError, match="^gain must be >= 1$"):
            amplifier_symplectic(gain)
