"""The conditional EPI checks against conjugate-and-trace, and over inputs
the Monte Carlo campaign never draws (squeezed, arbitrarily correlated)."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscap import (
    check_cqepi_amp,
    epi,
    check_cqepi_bs,
    check_qepi_amp,
    check_qepi_bs,
    direct_sum,
    random_gaussian_state,
    two_mode_squeezed_state,
)
from gausscap.epi import _PAIR, _Campaign, Inequality
from helpers import conditional_conjugate_and_trace, raw_entropy, raw_symplectic_eigenvalues
from test_epi import tms_thermal

CHECKS = {"bs": check_cqepi_bs, "amp": check_cqepi_amp}
PARAMETERS = [("bs", 0.0), ("bs", 0.35), ("bs", 1.0), ("amp", 1.0), ("amp", 1.0 + 1e-6), ("amp", 3.5), ("amp", 1e3)]


def _pairs(family: str, seed: int):
    rng = np.random.default_rng(seed)
    if family == "general":
        return random_gaussian_state(2, seed=rng), random_gaussian_state(2, seed=rng)
    if family == "product":
        x1, z1, x2, z2 = (random_gaussian_state(1, seed=rng) for _ in range(4))
        return direct_sum(x1, z1), direct_sum(x2, z2)
    return two_mode_squeezed_state(rng.uniform(0.0, 1.0)), two_mode_squeezed_state(rng.uniform(0.0, 1.0))


class TestConditionalOutputOracle:
    @pytest.mark.parametrize("kind,parameter", PARAMETERS)
    @pytest.mark.parametrize("family", ["general", "product", "pure"])
    @pytest.mark.parametrize("seed", range(3))
    def test_lhs_matches_conjugate_and_trace(self, kind, parameter, family, seed):
        pair1, pair2 = _pairs(family, seed)
        kept, conditioner = conditional_conjugate_and_trace(kind, parameter, pair1.data, pair2.data)
        s_kept = raw_entropy(kept)
        lhs = CHECKS[kind](pair1, pair2, parameter).lhs
        assert abs(lhs - (s_kept - raw_entropy(conditioner))) <= 1e-12 * max(1.0, abs(s_kept))

    @pytest.mark.parametrize("kind,parameter", PARAMETERS)
    @pytest.mark.parametrize("family", ["general", "product", "pure"])
    def test_check_spectrum_matches_the_singular_values_of_its_form(self, monkeypatch, kind, parameter, family):
        # a check's 8x8 skew K goes to one svd: against 50-digit singular values of the K it was given, each value
        # keeps a singular value solver's accuracy on the LAPACK that runs it
        pairs = [_pairs(family, seed) for seed in range(3)]
        forms, spectra = [], []

        def recorded_form(a, *args, _original=np.linalg.svd, **kwargs):
            forms.append(a.copy())
            return _original(a, *args, **kwargs)

        def recorded_spectrum(*args, _original=epi._conditional_spectrum):
            spectra.append(_original(*args))
            return spectra[-1]

        monkeypatch.setattr(np.linalg, "svd", recorded_form)
        monkeypatch.setattr(epi, "_conditional_spectrum", recorded_spectrum)
        for pair1, pair2 in pairs:
            CHECKS[kind](pair1, pair2, parameter)
        assert [form.shape for form in forms] == [(1, 8, 8)] * 3
        small = 1.0 if parameter == 1e3 and family != "product" else 8.0  # in eps sigma_1, for all but sigma_1
        with mpmath.workdps(50):
            for form, (nu, zero, _) in zip(forms, spectra):
                skew = mpmath.matrix(form[0].tolist())
                squares = mpmath.eigsy(skew.T * skew, eigvals_only=True)  # each singular value of K twice
                expected = sorted((float(mpmath.sqrt(abs(v))) for v in squares), reverse=True)[::2]
                error = np.abs(np.append(nu[0], zero[0]) - expected) / (np.finfo(float).eps * expected[0])
                assert error[0] <= 8.0 and error[1:].max() <= small, error

    @pytest.mark.parametrize("seed", range(20))
    def test_sampler_matches_two_mode_squeezed_thermal(self, seed):
        drawn = np.random.default_rng(seed)
        n, r = drawn.uniform(0.0, 5.0), drawn.uniform(0.0, 1.5)
        campaign = _Campaign(Inequality.CQEPI_BS, 0, 1.0, 1.0, (0.5, 0.5), None)
        rows, photons, z_photons = _PAIR.drawn(campaign, np.array([[n, r]]))
        (c, s), factor = rows[0], np.zeros((4, 4))
        # the (q, p) blocks [[c, s], [s, c]] and [[c, -s], [-s, c]] on (X, Z), in mode order (q_X, p_X, q_Z, p_Z)
        for quadrature, sign in enumerate((1.0, -1.0)):
            factor[quadrature::2, quadrature::2] = [[c, sign * s], [sign * s, c]]
        expected = tms_thermal(n, r).data
        np.testing.assert_allclose(factor @ factor.T, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
        np.testing.assert_allclose(photons[0], (raw_symplectic_eigenvalues(expected) - 1.0) / 2.0, rtol=1e-12)
        assert z_photons[0] == pytest.approx((expected[2, 2] - 1.0) / 2.0, rel=1e-12)


def _general_pairs(seed: int):
    rng = np.random.default_rng(seed)
    return random_gaussian_state(2, 5.0, 1.5, rng), random_gaussian_state(2, 5.0, 1.5, rng)


def _product_pairs(seed: int):
    rng = np.random.default_rng(seed)
    x1, z1, x2, z2 = (random_gaussian_state(1, 5.0, 1.5, rng) for _ in range(4))
    return (x1, x2), (direct_sum(x1, z1), direct_sum(x2, z2))


SEEDS = st.integers(0, 2**31 - 1)
TRANSMISSIVITIES = st.floats(0.0, 1.0)
GAINS = st.floats(1.0 + 1e-3, 1e3)


class TestConditionalEpiProperties:
    @settings(deadline=None, max_examples=100)
    @given(seed=SEEDS, t=TRANSMISSIVITIES)
    def test_general_pairs_bs(self, seed, t):
        assert check_cqepi_bs(*_general_pairs(seed), t).slack >= -1e-9

    @settings(deadline=None, max_examples=100)
    @given(seed=SEEDS, k=GAINS)
    def test_general_pairs_amp(self, seed, k):
        assert check_cqepi_amp(*_general_pairs(seed), k).slack >= -1e-9

    @settings(deadline=None, max_examples=50)
    @given(seed=SEEDS, t=TRANSMISSIVITIES)
    def test_product_pairs_reduce_to_qepi_bs(self, seed, t):
        singles, pairs = _product_pairs(seed)
        assert check_cqepi_bs(*pairs, t).slack == pytest.approx(check_qepi_bs(*singles, t).slack, abs=1e-9)

    @settings(deadline=None, max_examples=50)
    @given(seed=SEEDS, k=GAINS)
    def test_product_pairs_reduce_to_qepi_amp(self, seed, k):
        singles, pairs = _product_pairs(seed)
        assert check_cqepi_amp(*pairs, k).slack == pytest.approx(check_qepi_amp(*singles, k).slack, abs=1e-9)


class TestCheckAccuracy:
    # two equal two-mode squeezed vacua at t = 1/2 meet the bound with equality; the check carries the rounding of
    # the pairs' entries, which their Cholesky factor L amplifies by kappa = (max diag L / min diag L)^2
    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0, 3.5])
    def test_slack_is_within_the_rounding_of_the_entries(self, r):
        pair = two_mode_squeezed_state(r)
        diagonal = np.diag(np.linalg.cholesky(pair.data))
        kappa = (diagonal.max() / diagonal.min()) ** 2
        assert abs(check_cqepi_bs(pair, pair, 0.5).slack) <= 32.0 * np.finfo(float).eps * kappa

    @pytest.mark.parametrize("r", [5.0, 6.0])
    def test_entries_that_fix_no_spectrum_raise(self, r):
        pair = two_mode_squeezed_state(r)
        with pytest.raises(ArithmeticError, match=r"^min symplectic eigenvalue 0\.9999\d* of the \(B, Z1, Z2\) output "
                                                  r"at the input matrices is short of 1 by .*, within its roundoff "
                                                  r"bound 128 eps \(s \+ nu\)") as caught:
            check_cqepi_bs(pair, pair, 0.5)
        assert caught.type is ArithmeticError
