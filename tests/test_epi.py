import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausscap import (
    ChannelKind,
    ChannelSpec,
    Inequality,
    channels,
    check_cqepi_amp,
    check_cqepi_bs,
    check_moe_chain,
    check_qepi_amp,
    check_qepi_bs,
    check_wc_chain,
    core,
    direct_sum,
    entropy,
    epi,
    monte_carlo_verify,
    output_entropies,
    random_gaussian_state,
    squeezed_thermal_state,
    thermal_entropy,
    thermal_state,
    two_mode_squeezed_state,
    vacuum_state,
)
from gausscap.channels import coupling, epi_rhs
from gausscap.core import CovarianceMatrix, PhysicalityError
from gausscap.epi import _CHUNK, MAX_TRIALS, _Campaign, _uniform_draws
from helpers import (
    drawn_cqepi_slack_mp,
    drawn_cqepi_spectrum_mp,
    drawn_trial_slack_mp,
    fock_entropy_oracle,
    g_direct,
    linalg_calls,
    reference_trial,
    rotated_squeezed,
    two_mode_squeezing_symplectic,
)


def tms_thermal(n, r):
    """Two-mode squeezed thermal state used as a correlated (X, Z) input."""
    s = two_mode_squeezing_symplectic(r)
    base = direct_sum(thermal_state(n), thermal_state(n))
    out = s @ base.data @ s.T
    return CovarianceMatrix(0.5 * (out + out.T))


class TestQepiBs:
    def test_identical_thermal_inputs_saturate(self):
        trial = check_qepi_bs(thermal_state(1.3), thermal_state(1.3), 0.4)
        assert abs(trial.slack) < 1e-10

    def test_transparent_splitter_saturates(self):
        trial = check_qepi_bs(thermal_state(2), vacuum_state(), 1.0)
        assert abs(trial.slack) < 1e-12

    def test_balanced_mix_of_thermal_and_vacuum(self):
        trial = check_qepi_bs(thermal_state(2), vacuum_state(), 0.5)
        assert trial.lhs == pytest.approx(g_direct(1), rel=1e-12)
        assert trial.rhs == pytest.approx(0.5 * g_direct(2), rel=1e-12)
        assert trial.slack == pytest.approx(g_direct(1) - 0.5 * g_direct(2), rel=1e-12)
        assert trial.slack > 0

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            check_qepi_bs(vacuum_state(), vacuum_state(), 1.2)


class TestQepiAmp:
    def test_vacuum_pair_at_gain_two(self):
        trial = check_qepi_amp(vacuum_state(), vacuum_state(), 2.0)
        assert trial.lhs == pytest.approx(2 * math.log(2), rel=1e-12)
        assert trial.rhs == pytest.approx(math.log(3), rel=1e-12)
        assert trial.slack == pytest.approx(2 * math.log(2) - math.log(3), rel=1e-11)

    def test_near_degenerate_gain(self):
        trial = check_qepi_amp(thermal_state(1), thermal_state(2), 1.0 + 1e-6)
        assert trial.slack >= -1e-6

    def test_random_squeezed_thermal_pairs(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            s1 = random_gaussian_state(1, 5.0, 1.5, rng)
            s2 = random_gaussian_state(1, 5.0, 1.5, rng)
            assert check_qepi_amp(s1, s2, 5.0).slack >= -1e-9


class TestCqepi:
    def test_product_ancillas_reduce_to_qepi_bs(self):
        x1, z1 = thermal_state(2), thermal_state(0.3)
        x2, z2 = thermal_state(0.7), thermal_state(1.1)
        trial = check_cqepi_bs(direct_sum(x1, z1), direct_sum(x2, z2), 0.35)
        plain = check_qepi_bs(x1, x2, 0.35)
        assert trial.slack == pytest.approx(plain.slack, abs=1e-9)

    def test_product_ancillas_reduce_to_qepi_amp(self):
        x1, z1 = thermal_state(2), thermal_state(0.3)
        x2, z2 = thermal_state(0.7), thermal_state(1.1)
        trial = check_cqepi_amp(direct_sum(x1, z1), direct_sum(x2, z2), 3.0)
        plain = check_qepi_amp(x1, x2, 3.0)
        assert trial.slack == pytest.approx(plain.slack, abs=1e-9)

    def test_entangled_ancillas_negative_conditional_entropies(self):
        pair = two_mode_squeezed_state(0.8)
        trial = check_cqepi_bs(pair, pair, 0.5)
        # both conditional entropies are negative, so the rhs is negative too
        assert trial.rhs < 0
        assert trial.slack >= -1e-9

    def test_entangled_ancillas_amplifier(self):
        pair = tms_thermal(1.0, 0.8)
        trial = check_cqepi_amp(pair, pair, 5.0)
        assert trial.slack >= -1e-9

    def test_fully_reflecting_splitter_passes_through(self):
        pair1 = tms_thermal(0.6, 0.5)
        pair2 = tms_thermal(1.4, 0.9)
        trial = check_cqepi_bs(pair1, pair2, 0.0)
        assert abs(trial.slack) <= 1e-9

    def test_degenerate_amplifier_gain(self):
        pair = tms_thermal(1.0, 0.4)
        trial = check_cqepi_amp(pair, pair, 1.0 + 1e-6)
        assert trial.slack >= -1e-6

    def test_rejects_single_mode_inputs(self):
        with pytest.raises(ValueError):
            check_cqepi_bs(vacuum_state(), vacuum_state(), 0.5)


class TestChains:
    def test_output_entropy_floor_vacuum_input(self):
        spec = ChannelSpec.beam_splitter(0.85, thermal_state(1))
        trial = check_moe_chain(vacuum_state(), spec)
        assert trial.lhs == pytest.approx(g_direct(0.15), rel=1e-12)
        assert trial.rhs == pytest.approx(0.15 * g_direct(1), rel=1e-12)
        assert trial.slack > 0

    def test_vacuum_environment_floor_is_zero(self):
        spec = ChannelSpec.beam_splitter(0.85, thermal_state(0))
        assert check_moe_chain(thermal_state(2), spec).rhs == 0.0
        assert check_wc_chain(thermal_state(2), spec).rhs == 0.0

    def test_slack_grows_with_input_energy(self):
        spec = ChannelSpec.beam_splitter(0.85, thermal_state(1))
        slacks = [check_moe_chain(thermal_state(n), spec).slack for n in (0, 1, 2, 5)]
        assert np.all(np.diff(slacks) > 0)

    def test_wc_chain_examples(self):
        spec = ChannelSpec.beam_splitter(0.85, thermal_state(1))
        assert check_wc_chain(vacuum_state(), spec).slack >= -1e-9
        for tau in np.linspace(0.05, 0.95, 10):
            spec = ChannelSpec.beam_splitter(tau, thermal_state(1))
            assert check_wc_chain(thermal_state(2), spec).slack >= -1e-9

    def test_requires_thermal_beam_splitter(self):
        amp_spec = ChannelSpec.amplifier(2.0, thermal_state(1))
        with pytest.raises(ValueError, match="checked for the beam splitter"):
            check_moe_chain(vacuum_state(), amp_spec)
        from gausscap import squeezed_thermal_state

        sq_spec = ChannelSpec.beam_splitter(0.5, squeezed_thermal_state(1, 0.5))
        with pytest.raises(ValueError, match="chain inequality wc-chain-bs assumes a thermal environment"):
            check_wc_chain(vacuum_state(), sq_spec)

    @pytest.mark.parametrize("ne", [1e6, 1e9])
    @pytest.mark.parametrize("check", [check_moe_chain, check_wc_chain])
    def test_rotated_thermal_environment_is_thermal(self, check, ne):
        # the rotation rounds the entries off the diagonal by about eps (2N + 1), far above an absolute 1e-12,
        # and its validated nu = sqrt(det) may differ from 2N + 1 in the last bit
        rotated = core.apply_symplectic(core.rotation_symplectic(0.3), thermal_state(ne))
        trial = check(thermal_state(2.0), ChannelSpec.beam_splitter(0.85, rotated))
        thermal = check(thermal_state(2.0), ChannelSpec.beam_splitter(0.85, thermal_state(ne)))
        assert (trial.lhs, trial.rhs) == pytest.approx((thermal.lhs, thermal.rhs), rel=1e-14)


SINGLE_MODE_MESSAGE = "expected single-mode input states"
TWO_MODE_MESSAGE = "expected two-mode (X, Z) input states"
BEAM_SPLITTER_MESSAGE = "chain inequalities are checked for the beam splitter"
SQUEEZED_SPLITTER = ChannelSpec.beam_splitter(0.5, squeezed_thermal_state(1, 0.5))
AMPLIFIER = ChannelSpec.amplifier(2.0, thermal_state(1))


def _thermal_message(family):
    return f"the chain inequality {family} assumes a thermal environment (2N + 1) I"


class TestRefusals:
    """Each ``check_*`` refusal with its class and exact text, and which one wins when several apply: the
    channel of a chain's spec, then the input's mode count, then a chain's thermal environment or a pair's
    mixing parameter."""

    @pytest.mark.parametrize(
        "run,message",
        [
            (lambda: check_qepi_bs(vacuum_state(2), vacuum_state(2), 0.5), SINGLE_MODE_MESSAGE),
            (lambda: check_qepi_bs(vacuum_state(), vacuum_state(2), 0.5), SINGLE_MODE_MESSAGE),
            (lambda: check_qepi_amp(vacuum_state(2), vacuum_state(), 2.0), SINGLE_MODE_MESSAGE),
            (lambda: check_cqepi_bs(vacuum_state(), vacuum_state(), 0.5), TWO_MODE_MESSAGE),
            (lambda: check_cqepi_amp(vacuum_state(2), vacuum_state(), 2.0), TWO_MODE_MESSAGE),
            (lambda: check_cqepi_amp(vacuum_state(3), vacuum_state(3), 2.0), TWO_MODE_MESSAGE),
            (lambda: check_moe_chain(vacuum_state(), AMPLIFIER), BEAM_SPLITTER_MESSAGE),
            (lambda: check_wc_chain(vacuum_state(), AMPLIFIER), BEAM_SPLITTER_MESSAGE),
            (lambda: check_moe_chain(vacuum_state(), SQUEEZED_SPLITTER), _thermal_message("moe-chain-bs")),
            (lambda: check_wc_chain(vacuum_state(), SQUEEZED_SPLITTER), _thermal_message("wc-chain-bs")),
            (lambda: check_moe_chain(vacuum_state(2), ChannelSpec.beam_splitter(0.5, thermal_state(1))),
             SINGLE_MODE_MESSAGE),
            (lambda: check_qepi_bs(vacuum_state(), vacuum_state(), 1.5), "transmissivity must lie in [0, 1]"),
            (lambda: check_cqepi_amp(vacuum_state(2), vacuum_state(2), 0.5), "gain must be >= 1"),
            # the channel before the input's modes
            (lambda: check_moe_chain(vacuum_state(2), AMPLIFIER), BEAM_SPLITTER_MESSAGE),
            (lambda: check_wc_chain(vacuum_state(2), ChannelSpec.amplifier(2.0, squeezed_thermal_state(1, 0.5))),
             BEAM_SPLITTER_MESSAGE),
            # the input's modes before the environment
            (lambda: check_wc_chain(vacuum_state(2), SQUEEZED_SPLITTER), SINGLE_MODE_MESSAGE),
            # the input's modes before the mixing parameter
            (lambda: check_qepi_bs(vacuum_state(2), vacuum_state(2), 1.5), SINGLE_MODE_MESSAGE),
            (lambda: check_qepi_amp(vacuum_state(2), vacuum_state(), 0.5), SINGLE_MODE_MESSAGE),
            (lambda: check_cqepi_bs(vacuum_state(), vacuum_state(2), 1.5), TWO_MODE_MESSAGE),
        ],
    )
    def test_class_text_and_precedence(self, run, message):
        with pytest.raises(ValueError) as caught:
            run()
        assert caught.type is ValueError
        assert str(caught.value) == message


def _near_vacuum(shortfall):
    """(1 - shortfall) I, stored with nu within the 1e-9 tolerance below 1: entropy 0, photon number 0."""
    return CovarianceMatrix((1.0 - shortfall) * np.eye(2))


NEAR_VACUA = st.floats(0.0, 0.99e-9).map(_near_vacuum)
SINGLE_MODE_STATES = st.one_of(
    st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0 * math.pi)).map(
        lambda s: CovarianceMatrix(rotated_squeezed(*s))
    ),
    NEAR_VACUA,
)
THERMAL_ENVIRONMENTS = st.one_of(st.floats(0.0, 5.0).map(thermal_state), NEAR_VACUA)


class TestRightHandSide:
    """The single-mode kernel derives its input entropies from each state's photon number n = (nu - 1) / 2:
    the same bits as ``entropy`` of the validated matrix, 0 within the tolerance below nu = 1 included."""

    @settings(deadline=None, max_examples=150)
    @given(amp=st.booleans(), u=st.floats(0.0, 1.0), a=SINGLE_MODE_STATES, e=SINGLE_MODE_STATES)
    @example(amp=False, u=0.3, a=_near_vacuum(0.9e-9), e=thermal_state(1.0))
    @example(amp=True, u=0.3, a=thermal_state(1.0), e=_near_vacuum(0.9e-9))
    def test_qepi_rhs_is_epi_rhs_of_the_input_entropies(self, amp, u, a, e):
        kind, check, parameter = (
            (ChannelKind.AMPLIFIER, check_qepi_amp, 1.0 + 9.0 * u) if amp else (ChannelKind.BEAM_SPLITTER, check_qepi_bs, u)
        )
        assert check(a, e, parameter).rhs == float(epi_rhs(coupling(kind, parameter), entropy(a), entropy(e)))

    @settings(deadline=None, max_examples=150)
    @given(wc=st.booleans(), t=st.floats(0.0, 1.0), a=SINGLE_MODE_STATES, environment=THERMAL_ENVIRONMENTS)
    @example(wc=False, t=0.3, a=thermal_state(1.0), environment=_near_vacuum(0.9e-9))
    @example(wc=True, t=0.3, a=_near_vacuum(0.9e-9), environment=_near_vacuum(0.5e-9))
    def test_chain_rhs_is_epi_rhs_of_the_environment_entropy(self, wc, t, a, environment):
        trial = (check_wc_chain if wc else check_moe_chain)(a, ChannelSpec.beam_splitter(t, environment))
        assert trial.rhs == float(epi_rhs(coupling(ChannelKind.BEAM_SPLITTER, t), 0.0, entropy(environment)))

    def test_near_vacuum_inputs_have_zero_entropy(self):
        state = _near_vacuum(0.9e-9)
        assert state._spectrum[0] < 1.0
        assert check_qepi_bs(state, state, 0.3).rhs == 0.0


class TestFockOracle:
    def test_vacuum(self):
        assert fock_entropy_oracle(0, 100) == 0.0

    @pytest.mark.parametrize(
        "n,cutoff", [(0.1, 400), (0.5, 200), (0.5, 400), (1.0, 400), (2.0, 400)]
    )
    def test_converges_to_thermal_entropy(self, n, cutoff):
        assert abs(fock_entropy_oracle(n, cutoff) - thermal_entropy(n)) < 1e-6

    def test_matches_two_log_two(self):
        assert abs(fock_entropy_oracle(1.0, 400) - 2 * math.log(2)) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            fock_entropy_oracle(-0.1, 100)
        with pytest.raises(ValueError):
            fock_entropy_oracle(1.0, 1)

    @pytest.mark.parametrize("n", [math.nan, math.inf, -0.1])
    def test_rejects_photon_numbers_outside_the_domain(self, n):
        # NaN and inf used to return -0.0, inf with numpy warnings on the way
        with pytest.raises(ValueError, match=r"^mean photon number must be finite and nonnegative$"):
            fock_entropy_oracle(n, 50)

    def test_rejects_a_fractional_cutoff(self):
        # 2.5 used to run as np.arange(2.5), three photon numbers
        with pytest.raises(TypeError):
            fock_entropy_oracle(1.0, 2.5)


class TestMonteCarlo:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_verify("qepi-bs", 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            monte_carlo_verify("qepi-bs", 10, seed=-1)

    def test_deterministic_reports(self):
        a = monte_carlo_verify(Inequality.QEPI_BS, 300, seed=42)
        b = monte_carlo_verify("qepi-bs", 300, seed=42)
        assert a == b
        assert json.dumps(dataclasses.asdict(a)) == json.dumps(dataclasses.asdict(b))

    @pytest.mark.parametrize("family", ["qepi-bs", "qepi-amp", "cqepi-bs", "cqepi-amp"])
    def test_no_violations_small_campaigns(self, family):
        report = monte_carlo_verify(family, 500, max_photon=5, max_squeeze=1.5, seed=42)
        assert report.violations == 0
        assert report.min_slack >= -1e-9
        assert report.trials == 500

    @pytest.mark.parametrize("family", ["moe-chain-bs", "wc-chain-bs"])
    def test_chain_campaigns(self, family):
        report = monte_carlo_verify(family, 300, seed=11)
        assert report.violations == 0

    def test_fixed_parameter_range(self):
        report = monte_carlo_verify("qepi-bs", 50, parameter_range=(0.85, 0.85), seed=3)
        assert report.violations == 0

    def test_fixed_env_photon_for_chains(self):
        report = monte_carlo_verify("wc-chain-bs", 50, env_photon=1.0, seed=3)
        assert report.violations == 0

    @pytest.mark.parametrize("family", ["qepi-bs", "qepi-amp", "cqepi-bs", "cqepi-amp"])
    def test_env_photon_outside_the_chains_is_refused(self, family):
        # only a chain family has a thermal environment for env_photon to fix; the others used to drop it
        with pytest.raises(ValueError, match=f"^env_photon does not apply to {family}: "):
            monte_carlo_verify(family, 50, env_photon=3.0, seed=2)

    def test_family_channel(self):
        amplifier = {family for family in Inequality if family.kind is ChannelKind.AMPLIFIER}
        assert amplifier == {Inequality.QEPI_AMP, Inequality.CQEPI_AMP}
        assert all(family.kind is ChannelKind.BEAM_SPLITTER for family in set(Inequality) - amplifier)

    def test_trial_errors_carry_context(self):
        # a^2 = (k - 1) cosh 2 r_1 + k cosh 2 r_2 of the reflected row overflows for this trial's draws alone
        with pytest.raises(FloatingPointError, match=r"^trial 1280 of cqepi-amp failed \(seed=1\): overflow at the "
                           r"drawn states: the \(B, Z1, Z2\) spectrum leaves the float range "
                           r"\(n_Z1 = \S+, n_Z2 = \S+\)$"):
            monte_carlo_verify("cqepi-amp", 1300, seed=1, max_photon=0.0, max_squeeze=354.5,
                               parameter_range=(10.0, 10.0))

    @pytest.mark.parametrize("family,prange,message", [
        ("qepi-bs", (0.5, 1.5), "transmissivity must lie in \\[0, 1\\]"),
        ("cqepi-bs", (-0.25, 0.75), "transmissivity must lie in \\[0, 1\\]"),
        ("qepi-amp", (0.5, 3.0), "gain must be >= 1"),
        ("moe-chain-bs", (1.0, 2.0), "transmissivity must lie in \\[0, 1\\]"),
        # an end just outside is printed to its last digit, not rounded back inside the family's range
        ("qepi-bs", (0.0, 1.0 + 1e-7), "transmissivity must lie in \\[0, 1\\]"),
        ("cqepi-amp", (1.0 - 1e-7, 2.0), "gain must be >= 1"),
    ])
    def test_range_partly_outside_the_family_is_named_before_any_draw(self, monkeypatch, family, prange, message):
        # both ends are checked up front: the error names the range, not whichever trial first drew outside it
        drawn = []
        monkeypatch.setattr(epi, "_uniform_draws", lambda *args: drawn.append(args))
        lo, hi = (re.escape(repr(v)) for v in prange)
        with pytest.raises(ValueError, match=rf"^parameter_range \({lo}, {hi}\) of {family}: {message}$") as caught:
            monte_carlo_verify(family, 2 * _CHUNK, seed=1, parameter_range=prange)
        assert caught.type is ValueError
        assert drawn == []

    def test_equality_trials_counted_exactly(self):
        trial = check_qepi_bs(thermal_state(1), thermal_state(1), 0.7)
        assert not trial.is_violation()
        assert abs(trial.slack) < 1e-10


FAMILIES = ["qepi-bs", "qepi-amp", "cqepi-bs", "cqepi-amp", "moe-chain-bs", "wc-chain-bs"]
SINGLE_MODE_FAMILIES = ["qepi-bs", "qepi-amp", "moe-chain-bs", "wc-chain-bs"]


def _oracle_report(family, trials, seed, max_photon=5.0, max_squeeze=1.5, parameter_range=None, env_photon=None):
    if parameter_range is None:
        parameter_range = (1.0, 10.0) if family.endswith("amp") else (0.0, 1.0)
    slacks = []
    for i in range(trials):
        lhs, rhs = reference_trial(family, seed, i, max_photon, max_squeeze, parameter_range, env_photon)
        slacks.append(lhs - rhs)
    return min(slacks), math.fsum(slacks) / trials


class TestBatchedCampaigns:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_per_trial_oracle(self, family):
        report = monte_carlo_verify(family, 200, seed=13)
        min_slack, mean_slack = _oracle_report(family, 200, 13)
        assert report.min_slack == pytest.approx(min_slack, abs=1e-12)
        assert report.mean_slack == pytest.approx(mean_slack, abs=1e-12)

    @pytest.mark.parametrize(
        "family,kwargs",
        [
            ("qepi-bs", {"parameter_range": (0.3, 0.3)}),
            ("qepi-amp", {"max_photon": 0.0}),
            ("cqepi-amp", {"parameter_range": (2.5, 2.5), "max_squeeze": 0.5}),
            ("moe-chain-bs", {"env_photon": 2.0}),
            ("wc-chain-bs", {"parameter_range": (0.85, 0.85), "env_photon": 1.0}),
        ],
    )
    def test_fixed_settings_match_per_trial_oracle(self, family, kwargs):
        report = monte_carlo_verify(family, 100, seed=2, **kwargs)
        min_slack, mean_slack = _oracle_report(family, 100, 2, **kwargs)
        assert report.min_slack == pytest.approx(min_slack, abs=1e-12)
        assert report.mean_slack == pytest.approx(mean_slack, abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_eigensolver_runs_only_on_the_conditional_output(self, monkeypatch, family):
        # qepi and chain trials are arithmetic on their draws, and Z marginals have closed-form spectra: only
        # the (B, Z1, Z2) spectrum takes a decomposition, one batched symmetric 4x4 eigvalsh per chunk
        calls = linalg_calls(monkeypatch)
        assert monte_carlo_verify(family, 50, seed=5).violations == 0
        if family.startswith("cqepi"):
            assert calls == [("eigvalsh", (50, 4, 4))]
        else:
            assert calls == []

    @pytest.mark.parametrize("check", [check_cqepi_bs, check_cqepi_amp])
    def test_a_check_takes_one_symmetric_eigvalsh(self, monkeypatch, check):
        # the Cholesky path's 8x8 K through the symmetric [[0, K.T], [K, 0]]: the one solver call of both paths
        pair = tms_thermal(0.5, 0.4)
        calls = linalg_calls(monkeypatch)
        check(pair, pair, 0.5 if check is check_cqepi_bs else 2.0)
        assert calls == [("cholesky", (4, 4))] * 2 + [("eigvalsh", (1, 16, 16))]

    def test_no_family_or_check_calls_an_svd(self, monkeypatch):
        calls = linalg_calls(monkeypatch)
        for family in FAMILIES:
            monte_carlo_verify(family, 20, seed=5)
        pair, state = tms_thermal(0.5, 0.4), thermal_state(1.0)
        spec = ChannelSpec.beam_splitter(0.5, thermal_state(1.0))
        trials = [check_qepi_bs(state, state, 0.5), check_qepi_amp(state, state, 2.0), check_cqepi_bs(pair, pair, 0.5),
                  check_cqepi_amp(pair, pair, 2.0), check_moe_chain(state, spec), check_wc_chain(state, spec)]
        assert not any(trial.is_violation() for trial in trials)
        assert calls and all(name != "svd" for name, _ in calls)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_campaigns_build_no_matrix(self, monkeypatch, family):
        # every input comes straight from the draws, a cqepi pair as its exact factor: nothing is sampled as a
        # matrix or validated
        calls = []
        for module in (core, epi):
            for name in ("_validated", "_sampled_symplectic"):
                if module is core or hasattr(module, name):  # core defines every one; epi imports some
                    monkeypatch.setattr(module, name, lambda *args, _name=name: calls.append(_name))
        monkeypatch.setattr(CovarianceMatrix, "__post_init__", lambda self: calls.append("CovarianceMatrix"))
        monkeypatch.setattr(CovarianceMatrix, "_physical", lambda *args: calls.append("CovarianceMatrix"))
        assert monte_carlo_verify(family, _CHUNK + 7, seed=5).violations == 0
        assert calls == []

    @pytest.mark.parametrize("family,expected", [
        ("qepi-bs", ["_pair_invariants", "thermal_entropy"]),
        ("qepi-amp", ["_pair_invariants", "thermal_entropy"]),
        ("moe-chain-bs", ["_pair_invariants", "thermal_entropy"]),
        ("wc-chain-bs", ["_complementary_roots", "_pair_invariants", "thermal_entropy"]),
    ])
    def test_one_chunk_pays_each_step_once(self, monkeypatch, family, expected):
        # a chunk checks its invariants in one pass (no per-invariant guard runs), evaluates g once for lhs and
        # rhs together, and takes the complementary roots only for the family that reads S(F, C)
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        steps = [(module, "thermal_entropy") for module in (core, channels, epi)]  # each module calls its import
        steps += [(epi, "_pair_invariants"), (epi, "_complementary_roots")]
        steps += [(channels, "_require_finite"), (channels, "_reject")]
        for module, name in steps:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for trials in (1, 100, _CHUNK):
            calls.clear()
            assert monte_carlo_verify(family, trials, seed=5).violations == 0
            assert sorted(calls) == expected

    def test_memory_does_not_grow_with_the_trials(self):
        # a campaign holds one chunk's slacks at a time: concatenating every slack, then listing them for the
        # exact sum, took about 40 bytes per trial
        def transient_peak(trials):
            tracemalloc.start()
            try:
                report = monte_carlo_verify("qepi-bs", trials, seed=3)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.trials == trials
            return peak - current  # what the campaign needed beyond the report it returns

        monte_carlo_verify("qepi-bs", 3, seed=3)  # warm caches outside the measurement
        assert transient_peak(100 * _CHUNK) <= 2 * transient_peak(_CHUNK + 1)

    def test_first_failing_trial_keeps_its_class(self):
        # qepi-amp at gain 1 with vacuum inputs: the cross term 2 (cos^2 D sinh^2 (r_A - r_E) + sin^2 D sinh^2 (r_A +
        # r_E)) + 2 overflows for draws with r_A + r_E near 355, and the first such trial lies past the first chunk
        max_squeeze, log_max = 181.0, math.log(np.finfo(float).max)
        for first in range(10_000):
            # per input: the rotation draw u, the squeezing and a last rotation (max_photon = 0 draws no photons)
            u_a, r_a, _, u_e, r_e, _ = np.random.default_rng((1, first)).random(6)
            r_a, r_e = max_squeeze * r_a, max_squeeze * r_e
            angle = 2.0 * math.pi * (-u_e - u_a)  # M = diag(1, -1) turns E's rotation around
            with np.errstate(divide="ignore"):  # a factor 0 has log -inf
                excess = math.log(2.0) + np.logaddexp(2.0 * np.log(abs(math.cos(angle) * math.sinh(r_a - r_e))),
                                                      2.0 * np.log(abs(math.sin(angle) * math.sinh(r_a + r_e))))
            assert abs(excess - log_max) > 1e-6  # no trial sits on the float range's edge
            if excess > log_max:
                break
        assert first >= _CHUNK
        message = (rf"^trial {first} of qepi-amp failed \(seed=1\): overflow at the drawn states: the cross term "
                   rf"leaves the float range \(r_A = {r_a:.6g}, r_E = {r_e:.6g}, n_A = 0, n_E = 0\)$")
        with pytest.raises(FloatingPointError, match=message) as caught:
            monte_carlo_verify("qepi-amp", first + _CHUNK, seed=1, max_photon=0.0, max_squeeze=max_squeeze,
                               parameter_range=(1.0, 1.0))
        assert caught.type is FloatingPointError

    def test_roundoff_below_the_tolerance_raises_arithmetic_error(self):
        # at t = 1 the slack is 0 exactly: at tolerance 0 its rounding below 0 is no violation (exit 4) but exit 3
        with pytest.raises(ArithmeticError, match=r"^trial 4 of cqepi-bs failed \(seed=1\): slack -\S+ at the drawn "
                           r"states is below -0, but the roundoff bounds 128 eps \(s \+ nu\) on its spectrum move the "
                           r"lhs by up to ") as caught:
            monte_carlo_verify("cqepi-bs", 10, seed=1, parameter_range=(1.0, 1.0), tolerance=0.0)
        assert caught.type is ArithmeticError

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_photon": math.nan},
            {"max_squeeze": math.inf},
            {"tolerance": math.nan},
            {"parameter_range": (math.nan, math.nan)},
            {"parameter_range": (0.5, math.inf)},
            {"env_photon": math.nan},
        ],
    )
    def test_rejects_non_finite_arguments(self, kwargs):
        family = "wc-chain-bs" if "env_photon" in kwargs else "qepi-bs"
        with pytest.raises(ValueError) as caught:
            monte_carlo_verify(family, 5, seed=1, **kwargs)
        assert caught.type is ValueError


class TestLargeSqueezing:
    @pytest.mark.parametrize(
        "max_squeeze,family",
        [(r, family) for r in (8.0, 9.0, 50.0) for family in SINGLE_MODE_FAMILIES]
        # a chain's thermal environment keeps its cross term finite at r = 300; a qepi pair's overflows (test_cli)
        + [(300.0, "moe-chain-bs"), (300.0, "wc-chain-bs")],
    )
    def test_slacks_match_the_drawn_oracle(self, family, max_squeeze):
        # 2x2 matrices of these draws lost their determinant to rounding (slacks off by 2e-3 at r = 8) and
        # were rejected from r ~ 9-12; every 8th of 200 trials, and the worst, against 50-digit mpmath
        prange = (1.0, 10.0) if family.endswith("amp") else (0.0, 1.0)
        campaign = _Campaign(Inequality(family), 7, 5.0, max_squeeze, prange, None)
        slacks = campaign.slacks(range(200))
        assert np.all(slacks > 0.0)
        for i in sorted({*range(0, 200, 8), int(np.argmin(slacks))}):
            expected = drawn_trial_slack_mp(family, 7, i, 5.0, max_squeeze, prange)
            assert abs(slacks[i] - expected) <= 1e-12 * max(1.0, abs(expected)), i

    @pytest.mark.parametrize("family", ["cqepi-bs", "cqepi-amp"])
    @pytest.mark.parametrize("max_squeeze", [1.5, 6.0, 8.0, 20.0, 50.0])
    def test_cqepi_slacks_match_the_drawn_oracle(self, family, max_squeeze):
        # the 6x6 (B, Z1, Z2) matrix these replaced was off by 5e-14, 1.6e-6 and 7e-4 at r up to 1.5, 6 and 8, and
        # rejected draws from r ~ 8-9; every 4th of 200 trials (8th from r = 20), and the worst, against mpmath
        prange = (1.0, 10.0) if family.endswith("amp") else (0.0, 1.0)
        slacks = _Campaign(Inequality(family), 7, 5.0, max_squeeze, prange, None).slacks(range(200))
        assert np.all(slacks > 0.0)
        for i in sorted({*range(0, 200, 4 if max_squeeze < 20.0 else 8), int(np.argmin(slacks))}):
            expected = drawn_cqepi_slack_mp(family, 7, i, 5.0, max_squeeze, prange)
            assert abs(slacks[i] - expected) <= 1e-12 * max(1.0, abs(expected)), i

    @pytest.mark.parametrize("family", ["cqepi-bs", "cqepi-amp"])
    @pytest.mark.parametrize("max_squeeze", [1.5, 8.0, 30.0])
    def test_cqepi_spectrum_is_within_its_roundoff_bounds(self, family, max_squeeze):
        # the bounds the kernel's checks stand on, against mpmath: each nu within _SPECTRUM_ROUNDOFF eps (s + nu) and
        # the value that vanishes within _SPECTRUM_ROUNDOFF eps s, for the first 100 trials
        prange = (1.0, 10.0) if family.endswith("amp") else (0.0, 1.0)
        campaign = _Campaign(Inequality(family), 42, 5.0, max_squeeze, prange, None)
        parameter, inputs = campaign.inputs(_uniform_draws(42, range(100), sum(campaign._widths())))
        constants = coupling(campaign.inequality.kind, parameter)
        nu, zero, scale = epi._conditional_spectrum(constants, *inputs, lambda i: "the drawn states")
        unit = epi._SPECTRUM_ROUNDOFF * np.finfo(float).eps
        assert np.all(zero <= unit * scale)
        for i in range(100):
            expected = np.array(drawn_cqepi_spectrum_mp(family, 42, i, 5.0, max_squeeze, prange))
            assert np.all(np.abs(nu[i] - expected) <= unit * (scale[i] + expected)), i

    def test_cqepi_spectrum_past_the_lapack_range(self):
        # gain 1e6 and r_2 = 345.5 put sigma_1 near 6e305: scaled into LAPACK's range, the other entries of the
        # deflated matrix would underflow (trial 15 gave nu = 0.99998, a PhysicalityError), so its corner is capped
        slacks = _Campaign(Inequality.CQEPI_AMP, 1, 0.0, 354.0, (1e6, 1e6), None).slacks(range(20))
        for i in (15, int(np.argmin(slacks))):
            expected = drawn_cqepi_slack_mp("cqepi-amp", 1, i, 0.0, 354.0, (1e6, 1e6))
            assert abs(slacks[i] - expected) <= 1e-12 * max(1.0, abs(expected)), i

    def test_drawn_overflow_names_the_invariant(self):
        with pytest.raises(FloatingPointError, match=r"^trial \d+ of qepi-amp failed \(seed=1\): overflow at the drawn "
                           r"states: the cross term leaves the float range \(r_A = \S+, r_E = \S+, n_A = \S+, n_E = \S+\)$"):
            monte_carlo_verify("qepi-amp", 20, seed=1, max_squeeze=353.0)


def _drawn_pair(n, r):
    """One ``_PAIR`` kernel input drawn as (n, r)."""
    return epi._PAIR.drawn(_Campaign(Inequality.CQEPI_BS, 0, 1.0, 1.0, (0.5, 0.5), None), np.array([[n, r]]))


def _conditional(pair1, pair2, tolerance=1e-9):
    return epi._conditional_kernel(coupling(ChannelKind.BEAM_SPLITTER, np.array([0.5])), pair1, pair2,
                                   lambda i: "the inputs", tolerance)


class TestConditionalKernel:
    def test_unphysical_factor_raises_physicality_error(self):
        # sqrt(0.2) times a symplectic, with the matching spectrum: every output nu is 0.2, far past the bound
        factor, photons, z = _drawn_pair(0.0, 0.3)
        pair = (np.sqrt(0.2) * factor, photons - 0.4, z)
        with pytest.raises(PhysicalityError, match=r"^uncertainty condition violated at the inputs: min symplectic "
                           r"eigenvalue 0\.2\d* of the \(B, Z1, Z2\) output < 1$"):
            _conditional(pair, pair)

    def test_factor_off_its_spectrum_fails_the_rank_check(self):
        # F_q.T F_p = diag(nu) holds only for the factor's own nu: one more photon leaves M of full rank
        factor, photons, z = _drawn_pair(1.0, 0.3)
        with pytest.raises(ArithmeticError, match=r"^the \(B, Z1, Z2\) spectrum at the inputs has a singular value "
                           r"\S+ that should vanish, above its roundoff bound 128 eps s = "):
            _conditional((factor, photons + 1.0, z), _drawn_pair(0.5, 0.2))

    def test_a_fixed_negative_slack_is_returned(self):
        # an inflated n_Z1 lowers the slack by (1 - t) g(n_Z1), far past the bound: a violation, not roundoff
        factor, photons, z = _drawn_pair(1.0, 0.3)
        lhs, rhs = _conditional((factor, photons, z + 10.0), _drawn_pair(0.5, 0.2))
        assert lhs[0] - rhs[0] < -0.5

    def test_check_without_a_cholesky_factor_is_arithmetic_error(self):
        # r = 10 stores cosh 20 ~ 2.4e8 on the diagonal: the rounded entries are not numerically positive definite
        pair = two_mode_squeezed_state(10.0)
        with pytest.raises(ArithmeticError, match="^the stored covariance entries of the \\(X, Z\\) input have no "
                           "Cholesky factor$"):
            check_cqepi_bs(pair, pair, 0.5)


class TestMatrixBoundary:
    def test_lost_determinant_never_reaches_a_check(self):
        # N = 1, r = 180 rotated by 0.3 rad once validated with nu = 2.557e148 and gave lhs = 341.3
        spec = ChannelSpec.beam_splitter(0.85, thermal_state(1.0))
        with pytest.raises(ArithmeticError, match=r"^det Gamma = Gamma_00 Gamma_11 - Gamma_01\^2 cancels 15\.7 of"):
            check_moe_chain(CovarianceMatrix(rotated_squeezed(1.0, 180.0, 0.3)), spec)

    @pytest.mark.parametrize(
        "check,message",
        [
            # nu_A nu_E cosh 2r_A = 21 cosh 708 (the 9 cosh 708 of a thermal N_E = 1 stays finite, below)
            (lambda: check_moe_chain(squeezed_thermal_state(1.0, 354.0), ChannelSpec.beam_splitter(0.5, thermal_state(3))),
             r"the cross term leaves the float range \(r_A = 354, r_E = 0, n_A = 1, n_E = 3\)"),
            (lambda: check_qepi_bs(thermal_state(1.0), thermal_state(1e200), 0.5),
             r"det G_E - 1 leaves the float range \(n_E = 1e\+200\)"),
            (lambda: check_qepi_amp(thermal_state(1e200), thermal_state(1.0), 2.0),
             r"det G_A - 1 leaves the float range \(n_A = 1e\+200\)"),
            # finite invariants, but p^2 (det G_A - 1) at gain 1e200 (EPI checks cap no gain)
            (lambda: check_qepi_amp(thermal_state(1.0), thermal_state(1.0), 1e200),
             r"nu_B\^2 - 1 leaves the float range \(det G_A - 1 = 8, det G_E - 1 = 8, cross term 10\)"),
        ],
        ids=["cross-term", "det-e", "det-a", "output"],
    )
    def test_matrix_overflow_names_the_invariant(self, check, message):
        with pytest.raises(FloatingPointError, match=r"^overflow at the input matrices: " + message + "$"):
            check()

    def test_finite_invariants_whose_sum_overflows_are_evaluated(self):
        # det G_A - 1 = 4 n (n + 1) and nu_B^2 - 1 at t = 1 are each finite, but their sum, the one finiteness test
        # of a passing evaluation, is not: the per-invariant checks then find nothing, and the evaluation goes on
        n = 6.6e153
        assert math.isfinite(4.0 * n * (n + 1.0)) and not math.isfinite(2.0 * (4.0 * n * (n + 1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trial = check_qepi_bs(thermal_state(n), vacuum_state(1), 1.0)
            outputs = output_entropies(thermal_state(n), ChannelSpec.beam_splitter(1.0, vacuum_state(1)))
        assert (trial.lhs, trial.rhs) == (355.18258887712136, 355.18258887712136)
        assert outputs == (355.18258887712136, 0.0, 0.0)

    def test_largest_squeezing_against_a_vacuum_floor_is_evaluated(self):
        # the entry products of the 2x2 matrices overflowed here; the cross term 9 cosh 708 - 1 is finite
        spec = ChannelSpec.beam_splitter(0.5, thermal_state(1.0))
        trial = check_moe_chain(squeezed_thermal_state(1.0, 354.0), spec)
        with mpmath.workdps(60):
            half = mpmath.mpf(3) / 2
            x = (mpmath.sqrt((half * mpmath.exp(-708) + half) * (half * mpmath.exp(708) + half)) - 1) / 2
            expected = float(mpmath.log1p(x) + x * mpmath.log1p(1 / x))
        assert abs(trial.lhs - expected) <= 1e-12 * expected


def _default_rng_rows(seed, indices, count):
    return np.array([np.random.default_rng((seed, i)).random(count) for i in indices])


# one to five uint32 seed words, each boundary of the word count included
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64, 2**96, 2**128 + 5]
WINDOW_STARTS = [0, 2**31, MAX_TRIALS - 1]


class TestUniformStream:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("start", WINDOW_STARTS)
    def test_word_count_corners_equal_default_rng(self, seed, start):
        indices = range(start, min(start + 3, MAX_TRIALS))
        assert np.array_equal(_uniform_draws(seed, indices, 9), _default_rng_rows(seed, indices, 9))

    @settings(deadline=None, max_examples=200)
    @given(
        seed=st.sampled_from(STREAM_SEEDS) | st.integers(0, 2**200),
        start=st.sampled_from(WINDOW_STARTS) | st.integers(0, MAX_TRIALS - 1),
        length=st.integers(1, 4),
        count=st.integers(1, 9),
    )
    def test_rows_equal_default_rng_bit_for_bit(self, seed, start, length, count):
        indices = range(start, min(start + length, MAX_TRIALS))
        assert np.array_equal(_uniform_draws(seed, indices, count), _default_rng_rows(seed, indices, count))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_campaigns_build_no_generator(self, monkeypatch, family):
        built = []
        for name in ("default_rng", "Generator", "SeedSequence", "PCG64"):

            def counted(*args, _original=getattr(np.random, name), _name=name, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counted)
        assert monte_carlo_verify(family, _CHUNK + 7, seed=5).violations == 0
        assert built == []

    def test_first_failing_trial_is_found_in_the_drawn_rows(self, monkeypatch):
        calls = []

        def counted(seed, indices, count, _original=epi._uniform_draws):
            calls.append(indices)
            return _original(seed, indices, count)

        monkeypatch.setattr(epi, "_uniform_draws", counted)
        # the cross term overflows for trials 3 and 15 of these 20 (and for no other, at max_squeeze 240 to 255):
        # the row-by-row re-run names the first, from the chunk's one draw
        with pytest.raises(FloatingPointError, match=r"^trial 3 of qepi-amp failed \(seed=1\): overflow at the drawn "
                           r"states: the cross term leaves the float range \(r_A = 228\.003, r_E = 149\.155, "
                           r"n_A = 0\.683041, n_E = 0\.480298\)$"):
            monte_carlo_verify("qepi-amp", 20, seed=1, max_squeeze=250.0)
        assert calls == [range(0, 20)]

    def test_numpy_integer_seed_draws_the_same_stream(self):
        assert monte_carlo_verify("cqepi-bs", 20, seed=np.uint64(2**63)) == monte_carlo_verify("cqepi-bs", 20, seed=2**63)

    def test_trials_past_the_index_words_are_rejected(self):
        with pytest.raises(ValueError, match=r"trials must stay at or below 2\^32 = 4294967296"):
            monte_carlo_verify("qepi-bs", MAX_TRIALS + 1)
