import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscap import (
    ChannelKind,
    ChannelSpec,
    ModePartition,
    amplifier_symplectic,
    apply_channel,
    beam_splitter_symplectic,
    channel_outputs,
    channel_symplectic,
    check_moe_chain,
    check_qepi_amp,
    check_qepi_bs,
    check_wc_chain,
    coherent_information,
    complementary,
    direct_sum,
    entropy,
    evaluate_bounds,
    holevo_capacity,
    mean_photon_number,
    output_entropies,
    partial_trace,
    private_capacity_upper,
    private_capacity_upper_general,
    purify,
    random_gaussian_state,
    squeezed_thermal_state,
    thermal_state,
    vacuum_state,
    weak_complementary,
)
from gausscap import capacities, channels, core, epi
from gausscap.channels import MAX_GAIN, _complementary_map, _pair_spectra, channel_map
from gausscap.core import PHASE_FLIP, CovarianceMatrix, _mode_parameters
from gausscap.epi import Inequality, _Campaign, _kernel
from helpers import (
    conjugate_and_trace,
    eigensolver_calls,
    embed_two_mode,
    fc_entropy_thermal_amp,
    fc_entropy_thermal_bs,
    g_direct,
    output_entropies_mp,
    raw_symplectic_eigenvalues,
    rotated_squeezed,
    symplectic_residual,
)


def _random_spec(seed: int) -> ChannelSpec:
    rng = np.random.default_rng(seed)
    env = random_gaussian_state(1, 2.0, 0.8, rng)
    if rng.uniform() < 0.5:
        return ChannelSpec.beam_splitter(rng.uniform(0.0, 1.0), env)
    return ChannelSpec.amplifier(rng.uniform(1.0, 10.0), env)


class TestChannelSpec:
    def test_transmissivity_range(self):
        env = thermal_state(1)
        with pytest.raises(ValueError):
            ChannelSpec.beam_splitter(1.5, env)
        with pytest.raises(ValueError):
            ChannelSpec.beam_splitter(-0.1, env)
        with pytest.raises(ValueError, match=r"^transmissivity must lie in \[0, 1\]$"):
            beam_splitter_symplectic(1.5)

    def test_gain_range(self):
        env = thermal_state(1)
        with pytest.raises(ValueError):
            ChannelSpec.amplifier(0.99, env)
        with pytest.raises(ValueError):
            ChannelSpec.amplifier(2e6, env)

    def test_environment_must_be_single_mode(self):
        with pytest.raises(ValueError):
            ChannelSpec.beam_splitter(0.5, vacuum_state(2))


class TestSymplectics:
    def test_transparent_splitter_is_identity(self):
        np.testing.assert_allclose(beam_splitter_symplectic(1.0).data, np.eye(4))

    def test_fully_reflecting_splitter_swaps_env_onto_output(self):
        s = beam_splitter_symplectic(0.0).data
        joint = direct_sum(thermal_state(2), thermal_state(0.5)).data
        out = s @ joint @ s.T
        np.testing.assert_allclose(out[:2, :2], thermal_state(0.5).data, atol=1e-14)
        np.testing.assert_allclose(out[2:, 2:], thermal_state(2).data, atol=1e-14)

    def test_unit_gain_amplifier_is_identity(self):
        np.testing.assert_allclose(amplifier_symplectic(1.0).data, np.eye(4))

    @pytest.mark.parametrize("transmissivity", np.linspace(0, 1, 11))
    def test_beam_splitter_symplecticity(self, transmissivity):
        assert symplectic_residual(beam_splitter_symplectic(transmissivity).data) < 1e-12

    @pytest.mark.parametrize("gain", np.arange(1.0, 10.5, 0.5))
    def test_amplifier_symplecticity(self, gain):
        assert symplectic_residual(amplifier_symplectic(gain).data) < 1e-12

    def test_figure_parameters(self):
        assert symplectic_residual(beam_splitter_symplectic(0.85).data) < 1e-12
        assert symplectic_residual(amplifier_symplectic(5.0).data) < 1e-12

    def test_amplifier_block_structure(self):
        s = amplifier_symplectic(2.0).data
        np.testing.assert_allclose(s[:2, :2], math.sqrt(2) * np.eye(2))
        np.testing.assert_allclose(s[:2, 2:], PHASE_FLIP)
        np.testing.assert_allclose(s[2:, :2], PHASE_FLIP)


class TestApplyChannel:
    def test_vacuum_fixed_point(self):
        for t in (0.0, 0.3, 1.0):
            spec = ChannelSpec.beam_splitter(t, vacuum_state())
            np.testing.assert_allclose(apply_channel(vacuum_state(), spec).data, np.eye(2), atol=1e-14)

    def test_beam_splitter_mixes_photon_numbers(self):
        spec = ChannelSpec.beam_splitter(0.85, thermal_state(1))
        out = apply_channel(thermal_state(2), spec)
        assert mean_photon_number(out) == pytest.approx(0.85 * 2 + 0.15 * 1, abs=1e-12)

    def test_amplifier_adds_gain_noise(self):
        spec = ChannelSpec.amplifier(5.0, thermal_state(1))
        out = apply_channel(thermal_state(1), spec)
        assert mean_photon_number(out) == pytest.approx(5 * 1 + 4 * (1 + 1), abs=1e-12)

    def test_two_photon_vacuum_amplifier(self):
        spec = ChannelSpec.amplifier(2.0, vacuum_state())
        out = apply_channel(vacuum_state(), spec)
        np.testing.assert_allclose(out.data, 3 * np.eye(2), atol=1e-13)
        assert mean_photon_number(out) == pytest.approx(1.0, abs=1e-13)

    def test_unit_gain_is_identity_channel(self):
        spec = ChannelSpec.amplifier(1.0, thermal_state(3))
        state = squeezed_thermal_state(0.5, 0.7)
        np.testing.assert_allclose(apply_channel(state, spec).data, state.data, atol=1e-13)

    def test_rejects_multimode_input(self):
        spec = ChannelSpec.beam_splitter(0.5, thermal_state(1))
        with pytest.raises(ValueError):
            apply_channel(vacuum_state(2), spec)

    @pytest.mark.parametrize("seed", range(50))
    def test_closed_form_agreement(self, seed):
        rng = np.random.default_rng(seed)
        state = random_gaussian_state(1, 3.0, 1.0, rng)
        spec = _random_spec(seed + 1000)
        gamma_a, gamma_e = state.data, spec.environment.data
        if spec.kind is ChannelKind.BEAM_SPLITTER:
            t = spec.parameter
            closed_out = t * gamma_a + (1 - t) * gamma_e
            closed_weak = (1 - t) * gamma_a + t * gamma_e
        else:
            k = spec.parameter
            closed_out = k * gamma_a + (k - 1) * PHASE_FLIP @ gamma_e @ PHASE_FLIP
            closed_weak = (k - 1) * PHASE_FLIP @ gamma_a @ PHASE_FLIP + k * gamma_e
        scale = max(1.0, np.max(np.abs(closed_out)), np.max(np.abs(closed_weak)))
        assert np.max(np.abs(apply_channel(state, spec).data - closed_out)) < 1e-12 * scale
        assert np.max(np.abs(weak_complementary(state, spec).data - closed_weak)) < 1e-12 * scale


class TestWeakComplementary:
    def test_transparent_splitter_leaks_nothing(self):
        env = squeezed_thermal_state(1, 0.5)
        spec = ChannelSpec.beam_splitter(1.0, env)
        out = weak_complementary(thermal_state(2), spec)
        np.testing.assert_allclose(out.data, env.data, atol=1e-13)

    def test_photon_mixing(self):
        spec = ChannelSpec.beam_splitter(0.85, thermal_state(1))
        out = weak_complementary(thermal_state(2), spec)
        assert mean_photon_number(out) == pytest.approx(0.15 * 2 + 0.85 * 1, abs=1e-12)

    @pytest.mark.parametrize("env", [vacuum_state(), squeezed_thermal_state(0, 0.9)])
    def test_pure_environment_weak_equals_complementary(self, env):
        spec = ChannelSpec.beam_splitter(0.6, env)
        state = thermal_state(1.5)
        weak = weak_complementary(state, spec)
        comp = complementary(state, spec)
        # reference mode stays in vacuum and decouples
        np.testing.assert_allclose(comp.data[:2, :2], weak.data, atol=1e-12)
        np.testing.assert_allclose(comp.data[:2, 2:], np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(comp.data[2:, 2:], np.eye(2), atol=1e-12)
        assert entropy(comp) == pytest.approx(entropy(weak), abs=1e-10)


class TestComplementary:
    @pytest.mark.parametrize("seed", range(40))
    def test_partial_trace_over_reference_gives_weak_complement(self, seed):
        spec = _random_spec(seed)
        state = random_gaussian_state(1, 3.0, 1.0, seed + 2000)
        comp = complementary(state, spec)
        reduced = partial_trace(comp, ModePartition.keeping([0], 2))
        np.testing.assert_allclose(reduced.data, weak_complementary(state, spec).data, atol=1e-10)

    def test_contract_example(self):
        spec = ChannelSpec.beam_splitter(0.85, thermal_state(1))
        state = thermal_state(2)
        comp = complementary(state, spec)
        reduced = partial_trace(comp, ModePartition.keeping([0], 2))
        np.testing.assert_allclose(reduced.data, weak_complementary(state, spec).data, atol=1e-10)

    @pytest.mark.parametrize("photon,squeeze", [(1.0, 2.0), (1.3, 0.5), (2.5, 2.0)])
    def test_reference_block_is_the_stored_symplectic_eigenvalue(self, photon, squeeze):
        # sqrt(det) of these environments' entries rounds away from their stored nu = 2N + 1 (3 - 4.4e-16 at (1, 2))
        spec = ChannelSpec.beam_splitter(0.5, squeezed_thermal_state(photon, squeeze))
        comp = complementary(thermal_state(1.0), spec)
        np.testing.assert_array_equal(comp.data[2:, 2:], (2.0 * photon + 1.0) * np.eye(2))

    @pytest.mark.parametrize("squeeze", [18.0, 19.5, 300.0])
    def test_strongly_squeezed_environment_stores_its_closed_form_spectrum(self, monkeypatch, squeeze):
        # validating the (F, C) matrix, whose condition number grows like e^(4r), raised ArithmeticError at
        # r = 18.0, 18.5, 18.75, 19.25 and 19.5, and PhysicalityError beyond
        spec, state = ChannelSpec.beam_splitter(0.5, squeezed_thermal_state(1.0, squeeze)), thermal_state(1.0)
        calls = eigensolver_calls(monkeypatch)
        comp = complementary(state, spec)
        assert calls == []
        expected = output_entropies_mp("bs", 0.5, 1.0, 1.0, squeeze)[2]
        assert abs(entropy(comp) - expected) <= 1e-12 * expected
        np.testing.assert_array_equal(comp.data, _complementary_map(spec.kind, 0.5, state.data, spec.environment))

    def test_pure_input_pure_env_balance(self):
        spec = ChannelSpec.beam_splitter(0.5, vacuum_state())
        s_b, s_f, s_fc = output_entropies(vacuum_state(), spec)
        assert abs(s_b) < 1e-10 and abs(s_f) < 1e-10 and abs(s_fc) < 1e-10

    @pytest.mark.parametrize("seed", range(30))
    def test_pure_pure_entropy_balance(self, seed):
        pure_in = random_gaussian_state(1, 0.0, 1.2, seed)
        pure_env = random_gaussian_state(1, 0.0, 1.2, seed + 500)
        rng = np.random.default_rng(seed)
        if seed % 2:
            spec = ChannelSpec.beam_splitter(rng.uniform(0, 1), pure_env)
        else:
            spec = ChannelSpec.amplifier(rng.uniform(1, 8), pure_env)
        s_b, s_f, _ = output_entropies(pure_in, spec)
        assert abs(s_b - s_f) < 1e-8


class TestOutputEntropies:
    def test_all_vacuum(self):
        spec = ChannelSpec.beam_splitter(0.3, vacuum_state())
        assert output_entropies(vacuum_state(), spec) == (0.0, 0.0, 0.0)

    def test_channel_entropy_matches_thermal_formula(self):
        spec = ChannelSpec.beam_splitter(0.85, thermal_state(1))
        s_b, _, _ = output_entropies(thermal_state(2), spec)
        assert s_b == pytest.approx(g_direct(1.85), rel=1e-12)

    def test_complement_entropy_matches_block_formula_bs(self):
        spec = ChannelSpec.beam_splitter(0.85, thermal_state(1))
        _, _, s_fc = output_entropies(thermal_state(2), spec)
        assert s_fc == pytest.approx(fc_entropy_thermal_bs(0.85, 2, 1), rel=1e-10)

    def test_complement_entropy_matches_block_formula_amp(self):
        spec = ChannelSpec.amplifier(5.0, thermal_state(1))
        _, _, s_fc = output_entropies(thermal_state(2), spec)
        assert s_fc == pytest.approx(fc_entropy_thermal_amp(5.0, 2, 1), rel=1e-10)

    @pytest.mark.parametrize("seed", range(0, 100, 1))
    def test_purified_input_balance(self, seed):
        """S(F, C) equals S(B, A') when the input purification A' rides along."""
        state = random_gaussian_state(1, 3.0, 1.0, seed)
        spec = _random_spec(seed + 4000)
        global_in = direct_sum(purify(state), purify(spec.environment))  # (A, A', E, C)
        s = embed_two_mode(channel_symplectic(spec).data, 4, 0, 2)
        out = s @ global_in.data @ s.T
        transformed = type(global_in)(0.5 * (out + out.T))
        s_fc = entropy(partial_trace(transformed, ModePartition.keeping([2, 3], 4)))
        s_ba = entropy(partial_trace(transformed, ModePartition.keeping([0, 1], 4)))
        assert abs(s_fc - s_ba) < 1e-8
        # and the (F, C) block agrees with the complementary construction
        comp = complementary(state, spec)
        np.testing.assert_allclose(
            partial_trace(transformed, ModePartition.keeping([2, 3], 4)).data,
            comp.data,
            atol=1e-10,
        )

    def test_channel_outputs_bundle(self):
        spec = ChannelSpec.beam_splitter(0.4, thermal_state(0.5))
        outs = channel_outputs(thermal_state(1), spec)
        assert outs.complement is not None and outs.complement.n_modes == 2
        lean = channel_outputs(thermal_state(1), spec, include_complement=False)
        assert lean.complement is None

    def test_overflow_names_the_input_and_environment(self):
        spec = ChannelSpec.amplifier(1e6, squeezed_thermal_state(1e300, 0.0))
        with pytest.raises(FloatingPointError, match=r"^overflow at the input and environment: det G_A - 1 leaves"):
            output_entropies(squeezed_thermal_state(1e307, 0.1), spec)


def _oracle_cases():
    """(id, spec, input) triples: random specs plus squeezed, pure and high-gain environments."""
    cases = []
    for seed in range(20):
        cases.append((f"random-{seed}", _random_spec(seed + 7000), random_gaussian_state(1, 3.0, 1.0, seed + 8000)))
    envs = {
        "squeezed": squeezed_thermal_state(0.7, 1.1),
        "rotated-squeezed": random_gaussian_state(1, 1.5, 1.2, 11),
        "vacuum": vacuum_state(),
        "pure-squeezed": random_gaussian_state(1, 0.0, 1.0, 12),
    }
    state = random_gaussian_state(1, 2.0, 0.8, 13)
    for name, env in envs.items():
        cases.append((f"bs-{name}", ChannelSpec.beam_splitter(0.37, env), state))
        for gain in (1.0, 3.5, 1e3):
            cases.append((f"amp{gain:g}-{name}", ChannelSpec.amplifier(gain, env), state))
    return cases


class TestConjugateAndTraceOracle:
    """The closed-form maps against conjugation by the channel symplectic."""

    @pytest.mark.parametrize("case", _oracle_cases(), ids=lambda case: case[0])
    def test_outputs_match_oracle(self, case):
        _, spec, state = case
        kind = "bs" if spec.kind is ChannelKind.BEAM_SPLITTER else "amp"
        out, weak, comp = conjugate_and_trace(kind, spec.parameter, state.data, spec.environment.data)
        for got, expected in (
            (apply_channel(state, spec), out),
            (weak_complementary(state, spec), weak),
            (complementary(state, spec), comp),
        ):
            scale = max(1.0, float(np.max(np.abs(expected))))
            np.testing.assert_allclose(got.data, expected, rtol=0, atol=1e-12 * scale)


class TestSymplecticsAtMaximumGain:
    def test_amplifier_at_max_gain_constructs(self):
        s = amplifier_symplectic(MAX_GAIN).data
        assert s[0, 0] == pytest.approx(1e3, rel=1e-15)
        spec = ChannelSpec.amplifier(MAX_GAIN, thermal_state(1))
        np.testing.assert_array_equal(channel_symplectic(spec).data, s)


KINDS = {"bs": ChannelKind.BEAM_SPLITTER, "amp": ChannelKind.AMPLIFIER}
STATES = st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0 * math.pi))


def _spectra(kind, parameter, gamma_a, gamma_e):
    """x = nu^2 - 1 of B, then of the (F, C) pair, for one single-mode input and environment."""
    label = lambda i: "the test matrices"  # noqa: E731
    a, e = (_mode_parameters(CovarianceMatrix(g)) for g in (gamma_a, gamma_e))
    return _pair_spectra(kind, parameter, a, e, label)[:, 0]


class TestClosedFormSpectra:
    """Spectra of the outputs of a single-mode input, in closed form from the
    invariants of its input and environment, against raw eigenvalues and mpmath."""

    @settings(deadline=None, max_examples=200)
    @given(kind=st.sampled_from(sorted(KINDS)), u=st.floats(0.0, 1.0), a=STATES, e=STATES)
    def test_match_raw_eigenvalues_of_the_output_maps(self, kind, u, a, e):
        parameter = u if kind == "bs" else 1.0 + 9.0 * u
        gamma_a, gamma_e = rotated_squeezed(*a), rotated_squeezed(*e)
        x_b, x_plus, x_minus = _spectra(KINDS[kind], parameter, gamma_a, gamma_e)
        x_f = _spectra(KINDS[kind], parameter, gamma_e, gamma_a)[0]
        nu_b, nu_plus, nu_minus, nu_f = np.sqrt(1.0 + np.array([x_b, x_plus, x_minus, x_f]))
        raw_b = raw_symplectic_eigenvalues(channel_map(KINDS[kind], parameter, gamma_a, gamma_e))[0]
        raw_f = raw_symplectic_eigenvalues(channel_map(KINDS[kind], parameter, gamma_e, gamma_a))[0]
        raw_minus, raw_plus = raw_symplectic_eigenvalues(
            _complementary_map(KINDS[kind], parameter, gamma_a, CovarianceMatrix(gamma_e))
        )
        np.testing.assert_allclose([nu_b, nu_f], [raw_b, raw_f], rtol=1e-11)
        # A near-degenerate (F, C) pair is split only to about sqrt(eps); its sum and product, and with
        # them the pair's entropy (to second order in the split), keep their digits.  The raw side
        # diagonalises the rounded (F, C) matrix, whose purification entries carry their own roundoff:
        # up to 6e-11 relative over 20,000 random pairs.
        np.testing.assert_allclose(
            [nu_plus + nu_minus, nu_plus * nu_minus], [raw_plus + raw_minus, raw_plus * raw_minus], rtol=1e-9
        )
        np.testing.assert_allclose([nu_plus, nu_minus], [raw_plus, raw_minus], rtol=1e-6)

    @pytest.mark.parametrize("squeeze", [19.0, 30.0, 100.0, 300.0])
    @pytest.mark.parametrize("kind,parameter", [("bs", 0.5), ("amp", 3.0)])
    def test_output_entropies_of_strongly_squeezed_environments(self, monkeypatch, kind, parameter, squeeze):
        # validating the (F, C) output, whose condition number grows like e^(4r), failed from r ~ 18.86
        build = ChannelSpec.beam_splitter if kind == "bs" else ChannelSpec.amplifier
        spec, state = build(parameter, squeezed_thermal_state(1.0, squeeze)), thermal_state(1.0)
        calls = eigensolver_calls(monkeypatch)
        got = output_entropies(state, spec)
        assert calls == []
        for value, expected in zip(got, output_entropies_mp(kind, parameter, 1.0, 1.0, squeeze)):
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


CHECKS = {
    "qepi-bs": check_qepi_bs,
    "qepi-amp": check_qepi_amp,
    "moe-chain-bs": check_moe_chain,
    "wc-chain-bs": check_wc_chain,
}


def _exact_state(photon, squeeze, angle):
    """``rotated_squeezed`` stored with its exact spectrum 2N + 1, as squeezed_thermal_state stores its own.  A
    validated spectrum sqrt(det) rounds by about eps cosh^2 2r, which the entropy's log slope near a pure state
    amplifies (up to 1.8e-12 for ``STATES``) whatever path the entries then take."""
    return CovarianceMatrix._physical(rotated_squeezed(photon, squeeze, angle), np.array([2.0 * photon + 1.0]))


class TestOneConversion:
    """A check's validated matrices and a campaign's draws reach the same spectra through
    ``core._mode_parameters`` and ``channels._pair_spectra``."""

    @settings(deadline=None, max_examples=200)
    @given(family=st.sampled_from(sorted(CHECKS)), u=st.floats(0.0, 1.0), a=STATES, e=STATES)
    def test_checks_on_matrices_equal_the_kernel_on_their_draws(self, family, u, a, e):
        amp = family.endswith("amp")
        parameter = 1.0 + 9.0 * u if amp else u
        draws = (a[0], a[1], a[2] / (2.0 * math.pi))
        if family.startswith("qepi"):
            trial = CHECKS[family](_exact_state(*a), _exact_state(*e), parameter)
            inputs = [draws, (e[0], e[1], e[2] / (2.0 * math.pi))]
        else:  # a chain draws its thermal environment first
            trial = CHECKS[family](_exact_state(*a), ChannelSpec.beam_splitter(parameter, thermal_state(e[0])))
            inputs = [(e[0], 0.0, 0.0), draws]
        label = lambda i: "the draws"  # noqa: E731
        lhs, rhs = _kernel(Inequality(family), np.array([parameter]), inputs, label)
        for got, want in ((trial.lhs, lhs[0]), (trial.rhs, rhs[0])):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_each_evaluation_converts_once(self, monkeypatch):
        calls, original = [], channels._pair_spectra

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        for module in (channels, capacities, epi):  # each module calls the name it imported
            monkeypatch.setattr(module, "_pair_spectra", counted)
        spec = ChannelSpec.beam_splitter(0.7, squeezed_thermal_state(1.0, 0.5))
        for run, expected in (
            (lambda: check_qepi_bs(thermal_state(1.0), squeezed_thermal_state(0.5, 0.3), 0.4), 1),
            (lambda: coherent_information(spec, np.linspace(0.0, 10.0, 11)), 1),
            (lambda: _Campaign(Inequality.QEPI_AMP, 3, 5.0, 1.5, (1.0, 10.0), None).slacks(range(100)), 1),
            (lambda: output_entropies(thermal_state(2.0), spec), 2),
        ):
            calls.clear()
            run()
            assert len(calls) == expected

    def test_each_environment_converts_once(self, monkeypatch):
        """A spec converts its environment to (n, r, u) once, when it is built; an evaluation converts its
        own input, but never the environment again, and the closed forms build no thermal stand-in spec."""
        calls, original = [], core._mode_parameters

        def counted(state):
            calls.append(state)
            return original(state)

        for module in (core, channels, capacities, epi):  # each module calls the name it imported
            monkeypatch.setattr(module, "_mode_parameters", counted)
        squeezed = ChannelSpec.beam_splitter(0.7, squeezed_thermal_state(1.0, 0.5))
        # stored outside the dataclass fields: equality and repr see kind, parameter and environment only
        assert [field.name for field in dataclasses.fields(squeezed)] == ["kind", "parameter", "environment"]
        assert "_environment_modes" not in repr(squeezed)
        thermal = ChannelSpec.beam_splitter(0.6, thermal_state(1.5))
        amplifier = ChannelSpec.amplifier(2.0, thermal_state(1.0))
        state = squeezed_thermal_state(0.5, 0.3)
        for run, expected in (
            (lambda: ChannelSpec.amplifier(3.0, squeezed_thermal_state(1.0, 0.2)), 1),
            (lambda: evaluate_bounds(squeezed, np.linspace(0.0, 10.0, 101)), 0),
            (lambda: evaluate_bounds(amplifier, np.linspace(0.0, 10.0, 1100)), 0),
            (lambda: private_capacity_upper(amplifier, 2.0), 0),
            (lambda: private_capacity_upper_general(squeezed, 2.0), 0),
            (lambda: holevo_capacity(thermal, np.linspace(0.0, 10.0, 11)), 0),
            (lambda: check_moe_chain(state, thermal), 1),
            (lambda: check_wc_chain(state, thermal), 1),
            (lambda: output_entropies(state, squeezed), 1),
            (lambda: complementary(state, squeezed), 1),
        ):
            calls.clear()
            run()
            assert len(calls) == expected
