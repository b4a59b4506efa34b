import gc
import json
import math
import pickle
import re
import warnings
import weakref
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscap import (
    ChannelSpec,
    CovarianceMatrix,
    ModePartition,
    PhysicalityError,
    SymplecticMatrix,
    apply_symplectic,
    check_moe_chain,
    check_qepi_amp,
    check_qepi_bs,
    check_wc_chain,
    complementary,
    conditional_entropy,
    deserialize_covariance,
    direct_sum,
    entropy,
    output_entropies,
    partial_trace,
    purify,
    random_gaussian_state,
    random_symplectic,
    serialize_covariance,
    squeezed_thermal_state,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_entropy,
    thermal_state,
    total_photon_number,
    two_mode_squeezed_state,
    vacuum_state,
    williamson,
)
from gausscap import core
from gausscap.channels import amplifier_symplectic
from gausscap.core import _EPS, _mixer_layers, _mode_parameters, _validated, rotation_symplectic
from helpers import (
    G_DIRECT_MAX,
    g_direct,
    g_mp,
    linalg_calls,
    raw_symplectic_eigenvalues,
    reference_gaussian_state,
    rotated_squeezed,
    symplectic_residual,
    thermal_entropy_reference,
)


class TestConstructors:
    def test_vacuum_is_identity(self):
        np.testing.assert_array_equal(vacuum_state().data, np.eye(2))

    def test_thermal_scales_identity(self):
        np.testing.assert_allclose(thermal_state(1).data, 3 * np.eye(2))
        assert np.linalg.det(thermal_state(1).data) == pytest.approx(9.0, rel=1e-14)

    def test_thermal_rejects_negative(self):
        with pytest.raises(ValueError):
            thermal_state(-0.1)

    def test_squeezed_thermal_reduces_to_thermal(self):
        np.testing.assert_allclose(squeezed_thermal_state(1, 0).data, 3 * np.eye(2))

    def test_squeezed_vacuum_diagonal(self):
        expected = np.diag([math.exp(-2), math.exp(2)])
        np.testing.assert_allclose(squeezed_thermal_state(0, 1).data, expected, rtol=1e-15)

    def test_squeezed_thermal_det_is_squeeze_free(self):
        assert np.linalg.det(squeezed_thermal_state(2, 0.7).data) == pytest.approx(25.0, rel=1e-10)
        for r in np.linspace(0, 2, 9):
            det = np.linalg.det(squeezed_thermal_state(1.3, r).data)
            assert det == pytest.approx((2 * 1.3 + 1) ** 2, rel=1e-10)

    @pytest.mark.parametrize("n,r", [(0.0, 1e-3), (1.0, 0.0), (0.7, 0.8), (3.0, 20.0), (0.0, 354.0)])
    def test_squeezed_thermal_spectrum_is_exact(self, n, r):
        # built without an eigensolver: the symplectic eigenvalue is 2N + 1 by construction
        state = squeezed_thermal_state(n, r)
        assert symplectic_eigenvalues(state).tolist() == [2.0 * n + 1.0]
        with mpmath.workdps(50):
            d = [mpmath.mpf(float(v)) for v in state.data.diagonal()]
            assert float(mpmath.sqrt(d[0] * d[1])) == pytest.approx(2.0 * n + 1.0, rel=1e-13)
        if r <= 20.0:
            assert raw_symplectic_eigenvalues(state.data)[0] == pytest.approx(2.0 * n + 1.0, rel=1e-12)

    @pytest.mark.parametrize("n,limit", [(0.0, 354.891), (1.0, 354.342)])
    def test_overflowing_squeeze_is_rejected_with_its_domain(self, n, limit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning from exp(2r)
            squeezed_thermal_state(n, limit - 1e-3)
            with pytest.raises(ValueError, match=f"at or below {limit}") as caught:
                squeezed_thermal_state(n, limit + 1e-3)
            assert caught.type is ValueError
            with pytest.raises(ValueError, match=f"at or below {limit}") as caught:
                random_gaussian_state(1, n, limit + 1e-3, seed=0)
        assert caught.type is ValueError

    def test_squeezed_thermal_rejects_negative(self):
        with pytest.raises(ValueError):
            squeezed_thermal_state(-1, 0.5)
        with pytest.raises(ValueError):
            squeezed_thermal_state(1, -0.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: thermal_state(math.nan),
            lambda: thermal_state(math.inf),
            lambda: squeezed_thermal_state(math.nan, 0.5),
            lambda: squeezed_thermal_state(math.inf, 0.5),
            lambda: squeezed_thermal_state(1, math.nan),
            lambda: squeezed_thermal_state(1, math.inf),
        ],
    )
    def test_non_finite_arguments_rejected(self, build):
        with pytest.raises(ValueError, match="must be finite and nonnegative") as caught:
            build()
        assert caught.type is ValueError

    def test_asymmetric_matrix_rejected(self):
        bad = np.array([[1.0, 1e-6], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(bad)

    def test_unphysical_matrix_rejected(self):
        with pytest.raises(PhysicalityError):
            CovarianceMatrix(0.5 * np.eye(2))
        with pytest.raises(PhysicalityError):
            CovarianceMatrix(np.diag([1.0, -1.0]))


class TestSymplecticForm:
    def test_antisymmetric_and_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            omega = symplectic_form(n)
            np.testing.assert_array_equal(omega, -omega.T)
            np.testing.assert_allclose(omega @ omega, -np.eye(2 * n))

    def test_non_symplectic_rejected(self):
        with pytest.raises(ValueError, match="symplectic"):
            SymplecticMatrix(np.diag([2.0, 2.0]))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        np.testing.assert_allclose(symplectic_eigenvalues(vacuum_state()), [1.0])

    def test_thermal(self):
        np.testing.assert_allclose(symplectic_eigenvalues(thermal_state(1)), [3.0])

    def test_squeezed_thermal_matches_raw_eigenvalues(self):
        state = squeezed_thermal_state(1, 0.9)
        oracle = raw_symplectic_eigenvalues(state.data)
        np.testing.assert_allclose(symplectic_eigenvalues(state), sorted(oracle, reverse=True), rtol=1e-12)
        np.testing.assert_allclose(symplectic_eigenvalues(state), [3.0], rtol=1e-12)

    def test_sorted_descending(self):
        state = direct_sum(thermal_state(0.2), thermal_state(3), thermal_state(1))
        np.testing.assert_allclose(symplectic_eigenvalues(state), [7.0, 3.0, 1.4], rtol=1e-12)


class TestThermalEntropy:
    def test_zero_by_continuity(self):
        assert thermal_entropy(0) == 0.0

    def test_exact_point(self):
        assert thermal_entropy(1) == pytest.approx(2 * math.log(2), rel=1e-15)

    def test_half_point_against_direct_evaluation(self):
        expected = 1.5 * math.log(3) - math.log(2)
        assert thermal_entropy(0.5) == pytest.approx(expected, rel=1e-13)

    def test_small_argument_stability(self):
        for x in (1e-12, 1e-8, 1e-5):
            assert thermal_entropy(x) == pytest.approx(g_direct(x), rel=1e-10)
            assert thermal_entropy(x) > 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            thermal_entropy(-1e-9)

    @pytest.mark.parametrize("x", [math.nan, np.array([1.0, math.nan]), math.inf, np.array([1.0, math.inf])])
    def test_rejects_nan(self, x):
        # NaN fails both x < 0 and x > 0, so it used to come back as a zero entropy; infinity came back as NaN
        with pytest.raises(ValueError, match="^mean photon number must be finite and nonnegative$"):
            thermal_entropy(x)

    def test_direct_oracle_refuses_to_cancel(self):
        # (x+1) ln(x+1) - x ln x cancels at large x: past G_DIRECT_MAX the oracle raises instead
        assert g_direct(G_DIRECT_MAX) == pytest.approx(thermal_entropy(G_DIRECT_MAX), rel=1e-11)
        with pytest.raises(ValueError, match="use g_mp"):
            g_direct(math.sinh(10) ** 2)

    @pytest.mark.parametrize("x", [1e8, 1e12, 1e15])
    def test_large_argument_against_mpmath(self, x):
        with mpmath.workdps(50):
            expected = float(g_mp(mpmath.mpf(x)))
        assert abs(thermal_entropy(x) - expected) <= 1e-13 * expected

    def test_subnormal_argument_stays_finite(self):
        x = 5e-324
        assert thermal_entropy(x) == pytest.approx(x * (1.0 - math.log(x)), rel=1e-12)

    def test_array_input(self):
        xs = np.array([0.0, 0.5, 1.0])
        values = thermal_entropy(xs)
        np.testing.assert_allclose(values, [g_direct(x) for x in xs], rtol=1e-13)

    def test_strictly_increasing_and_concave(self):
        xs = np.linspace(0.01, 50, 200)
        values = thermal_entropy(xs)
        first = np.diff(values)
        assert np.all(first > 0)
        assert np.all(np.diff(first) < 0)

    def test_scaling_superadditivity(self):
        lambdas = np.linspace(0, 1, 50)
        xs = np.linspace(0, 20, 50)
        for lam in lambdas:
            assert np.all(thermal_entropy(lam * xs) - lam * thermal_entropy(xs) >= -1e-12)


    # 0, the floats next to 1 and a log grid from the subnormals to 1e300, alone and in every arrangement a caller
    # stacks them: with and without values below 1, since that branch is built only where present
    BIT_GRID = np.concatenate([[0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)],
                               np.logspace(-320, 300, 4001)])

    @pytest.mark.parametrize("part", ["all", "below-1", "from-1", "scalars"])
    def test_bits_match_the_reference_formula(self, part):
        xs = {"all": self.BIT_GRID, "below-1": self.BIT_GRID[self.BIT_GRID < 1.0],
              "from-1": self.BIT_GRID[self.BIT_GRID >= 1.0], "scalars": self.BIT_GRID[::13]}[part]
        if part == "scalars":
            got, want = [thermal_entropy(float(x)) for x in xs], [thermal_entropy_reference(float(x)) for x in xs]
            assert [type(v) for v in got] == [float] * len(xs)
            assert np.array(got).tobytes() == np.array(want).tobytes()
        else:
            for shaped in (xs, xs[:len(xs) // 2 * 2].reshape(2, -1)):
                got = thermal_entropy(shaped)
                assert got.shape == shaped.shape
                assert got.tobytes() == thermal_entropy_reference(shaped).tobytes()

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_input_gives_an_empty_array(self, shape):
        got = thermal_entropy(np.zeros(shape))
        assert isinstance(got, np.ndarray) and got.shape == shape

    @pytest.mark.parametrize("x", [0.0, 2.0, np.float64(0.5), np.array(3.0)])
    def test_zero_dimensional_input_gives_a_float(self, x):
        got = thermal_entropy(x)
        assert type(got) is float and got == thermal_entropy_reference(x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-9])
    @pytest.mark.parametrize("container", ["scalar", "array"])
    def test_rejects_each_value_outside_the_domain(self, bad, container):
        x = bad if container == "scalar" else np.array([[0.5, 2.0], [bad, 1.0]])
        with pytest.raises(ValueError, match="^mean photon number must be finite and nonnegative$"):
            thermal_entropy(x)


class TestEntropy:
    def test_vacuum_is_pure(self):
        assert entropy(vacuum_state()) == 0.0

    def test_thermal(self):
        assert entropy(thermal_state(1)) == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_two_mode_squeezed_is_pure(self):
        assert abs(entropy(two_mode_squeezed_state(0.8))) < 1e-10

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**31 - 1), n_modes=st.integers(1, 3))
    def test_symplectic_invariance(self, seed, n_modes):
        state = random_gaussian_state(n_modes, 2.0, 1.0, seed)
        transform = random_symplectic(n_modes, 1.0, seed + 1)
        assert abs(entropy(apply_symplectic(transform, state)) - entropy(state)) < 1e-8


class TestMeanPhoton:
    def test_vacuum(self):
        assert total_photon_number(vacuum_state()) == 0.0

    def test_thermal_round_trip(self):
        assert total_photon_number(thermal_state(2.5)) == pytest.approx(2.5, abs=1e-14)

    def test_squeezed_vacuum_carries_squeezing_energy(self):
        expected = (math.exp(2) + math.exp(-2) - 2) / 4  # sinh(1)^2
        assert total_photon_number(squeezed_thermal_state(0, 1)) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(math.sinh(1) ** 2, rel=1e-14)


_THERMAL_PRODUCT = direct_sum(thermal_state(1), thermal_state(1), thermal_state(0.5))
# Random states of 1-16 modes plus products with repeated symplectic eigenvalues.
_WILLIAMSON_STATES = [
    *(pytest.param(random_gaussian_state(seed % 3 + 1, 3.0, 1.2, seed), id=f"seed{seed}") for seed in range(0, 100, 7)),
    *(
        pytest.param(random_gaussian_state(n_modes, 5.0, 1.5, seed), id=f"{n_modes}modes-seed{seed}")
        for n_modes in (1, 2, 3, 4, 6, 8, 12, 16)
        for seed in (0, 7, 19)
    ),
    pytest.param(vacuum_state(3), id="vacuum3"),
    pytest.param(_THERMAL_PRODUCT, id="thermal-1-1-0.5"),
]


class TestWilliamson:
    def test_vacuum(self):
        s, d = williamson(vacuum_state())
        np.testing.assert_allclose(d, [1.0, 1.0])
        np.testing.assert_allclose(s.data @ s.data.T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize(
        "state",
        [vacuum_state(), thermal_state(1), squeezed_thermal_state(1, 0.6), squeezed_thermal_state(0, 2.0)]
        + [random_gaussian_state(1, 5.0, 1.5, seed) for seed in range(5)]
        # at 45 degrees det Gamma cancels most: 6.6 of its digits at r = 4, past which validation refuses it
        + [CovarianceMatrix(rotated_squeezed(n, r, a)) for n, r, a in
           ((0.0, 2.0, math.pi / 4), (0.0, 3.0, math.pi / 4), (0.0, 4.0, math.pi / 4), (3.0, 4.0, math.pi / 3))],
    )
    def test_single_mode_factor_is_symmetric_root(self, state):
        # S = sqrt(Gamma / nu) with nu the stored spectrum, against a 50-digit root
        s, d = williamson(state)
        nu = float(state._spectrum[0])
        np.testing.assert_array_equal(d, [nu, nu])
        with mpmath.workdps(50):
            m = mpmath.matrix(state.data.tolist()) / nu
            root = mpmath.sqrtm(m)
            entries = [(float(s.data[i, j]), root[i, j]) for i in range(2) for j in range(2)]
            scale = max(abs(y) for _, y in entries)
            # a stored nu that misses sqrt(det Gamma) of the rounded entries leaves det M = 1 + delta, and no
            # det-1 factor comes closer to the root than about |delta| / (tr M + 2) of its size
            mismatch = abs(mpmath.det(m) - 1) / (m[0, 0] + m[1, 1] + 2)
            error = max(abs(x - y) for x, y in entries)
            assert error <= (4 * _EPS + mismatch) * scale

    @pytest.mark.parametrize("state", _WILLIAMSON_STATES)
    def test_decomposition(self, state):
        s, d = williamson(state)
        assert isinstance(s, SymplecticMatrix)
        gamma = state.data
        assert np.max(np.abs((s.data * d) @ s.data.T - gamma)) <= 1e-12 * max(1.0, np.max(np.abs(gamma)))
        np.testing.assert_array_equal(d[0::2], d[1::2])
        assert np.all(np.diff(d[0::2]) <= 0.0)
        np.testing.assert_allclose(d[0::2], symplectic_eigenvalues(state), rtol=1e-12)

    def test_reconstruction_hundred_states(self):
        worst = 0.0
        for seed in range(100):
            state = random_gaussian_state(seed % 3 + 1, 3.0, 1.2, seed)
            s, d = williamson(state)
            worst = max(worst, float(np.max(np.abs(s.data @ np.diag(d) @ s.data.T - state.data))))
        assert worst < 1e-8

    @pytest.mark.parametrize(
        ("state", "expected"),
        [
            (direct_sum(thermal_state(0.5), thermal_state(4)), [9.0, 9.0, 2.0, 2.0]),
            (_THERMAL_PRODUCT, [3.0, 3.0, 3.0, 3.0, 2.0, 2.0]),
            (vacuum_state(3), [1.0] * 6),
        ],
    )
    def test_diagonal_sorted_descending(self, state, expected):
        _, d = williamson(state)
        np.testing.assert_allclose(d, expected, rtol=1e-12)

    @pytest.mark.parametrize("n_modes", [1, 2, 5])
    def test_one_cholesky_and_one_eigh(self, monkeypatch, n_modes):
        # Gamma = L L.T, then i L.T Omega L, once per state; one mode runs none (its factor is the closed-form root)
        state = random_gaussian_state(n_modes, 2.0, 1.0, seed=n_modes)
        calls = linalg_calls(monkeypatch)
        williamson(state)
        shape = (2 * n_modes, 2 * n_modes)
        expected = [] if n_modes == 1 else [("cholesky", shape), ("eigh", shape)]
        assert calls == expected
        # purify reuses the state's decomposition: no solver call is added
        purify(state)
        assert calls == expected

    @pytest.mark.parametrize("n_modes", [1, 2, 5])
    def test_decomposition_is_stored_read_only(self, n_modes):
        state = random_gaussian_state(n_modes, 2.0, 1.0, seed=n_modes)
        s, d = williamson(state)
        again = williamson(state)
        assert again[0] is s and again[1] is d
        assert not d.flags.writeable and not s.data.flags.writeable
        with pytest.raises(ValueError):
            d[0] = 0.0

    @pytest.mark.parametrize("squeeze", [5.0, 8.0, 9.0, 10.0, 10.5])
    def test_rounded_entries_of_an_exact_state_raise(self, squeeze):
        # the state is stored with its exact spectrum (1, 1); its rounded entries fix no decomposition, whether
        # their nu falls short of 1 (0.999999994 at r = 5, 0.9986 at r = 8), exceeds it (1.049 at r = 9, 8.87 at
        # r = 10.5) or there is no Cholesky factor (r = 10), and no numpy warning is raised on the way
        reason = (r"^williamson: the stored covariance entries (have no Cholesky factor|give symplectic eigenvalue "
                  r"\S+ for the state's 1, off by \S+ of it, more than 1e-09)$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=reason) as caught:
                williamson(two_mode_squeezed_state(squeeze))
        assert caught.type is ArithmeticError


class TestPurify:
    def test_pure_input_gets_vacuum_reference(self):
        purified = purify(vacuum_state())
        np.testing.assert_allclose(purified.data, np.eye(4), atol=1e-12)

    def test_thermal_structure(self):
        purified = purify(thermal_state(1))
        data = purified.data
        np.testing.assert_allclose(data[:2, :2], 3 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(data[2:, 2:], 3 * np.eye(2), atol=1e-12)
        off = data[:2, 2:]
        np.testing.assert_allclose(off @ off.T, 8 * np.eye(2), atol=1e-10)
        assert entropy(purified) < 1e-8

    def test_contract_on_random_single_mode_states(self):
        for seed in range(100):
            state = random_gaussian_state(1, 3.0, 1.0, seed)
            purified = purify(state)
            assert purified.n_modes == 2
            recovered = partial_trace(purified, ModePartition.keeping([0], 2))
            np.testing.assert_allclose(recovered.data, state.data, atol=1e-10)
            assert entropy(purified) < 1e-8

    @pytest.mark.parametrize("state", _WILLIAMSON_STATES)
    def test_reduces_to_its_input_bit_for_bit(self, state):
        n = state.n_modes
        purified = purify(state)
        assert purified.data[:2 * n, :2 * n].tobytes() == state.data.tobytes()
        np.testing.assert_array_equal(symplectic_eigenvalues(purified), np.ones(2 * n))
        # validating the entries afresh, independently of the stored spectrum, finds a pure state too
        revalidated = CovarianceMatrix(purified.data)
        assert np.max(np.abs(revalidated._spectrum - 1.0)) <= 1e-9

    @pytest.mark.parametrize("squeeze", [5.0, 6.0, 20.0])
    def test_pure_state_needs_no_decomposition(self, monkeypatch, squeeze):
        # the rounded entries fix no williamson decomposition from r ~ 5 (ArithmeticError), although every
        # reference coupling sqrt((nu - 1)(nu + 1)) of the stored spectrum (1, 1) is 0
        state = two_mode_squeezed_state(squeeze)
        calls = linalg_calls(monkeypatch)
        purified = purify(state)
        assert calls == []
        assert entropy(purified) == 0.0
        assert purified.data[:4, :4].tobytes() == state.data.tobytes()
        np.testing.assert_array_equal(purified.data[4:, 4:], np.eye(4))
        assert not purified.data[:4, 4:].any()

    def test_state_whose_revalidation_fell_short_of_one(self):
        # re-validating the old 4n x 4n triple product gave min nu 0.999999998549 < 1 - 1e-9 for this state
        purified = purify(random_gaussian_state(2, 5.0, 4.0, seed=14))
        with mpmath.workdps(60):
            product = mpmath.matrix(symplectic_form(4).tolist()) * mpmath.matrix(purified.data.tolist())
            spectrum = [abs(mpmath.im(value)) for value in mpmath.eig(product, left=False, right=False)]
            assert max(float(abs(nu - 1)) for nu in spectrum) <= 1e-9

    def test_multimode_purification(self):
        state = random_gaussian_state(2, 2.0, 0.8, seed=5)
        purified = purify(state)
        assert purified.n_modes == 4
        recovered = partial_trace(purified, ModePartition.keeping([0, 1], 4))
        np.testing.assert_allclose(recovered.data, state.data, atol=1e-10)
        assert entropy(purified) < 1e-8


_SINGLE_MODE_INPUTS = {
    "thermal": thermal_state(1.5),
    "squeezed": squeezed_thermal_state(0.5, 1.2),
    "rotated": CovarianceMatrix(rotated_squeezed(2.0, 0.8, 0.6)),
}
# every public call that takes only single-mode states: the channel's environment is the input itself,
# except for the chains, which assume a thermal one
_SINGLE_MODE_CALLS = {
    "CovarianceMatrix": lambda x, spec: CovarianceMatrix(x.data),
    "entropy": lambda x, spec: entropy(x),
    "williamson": lambda x, spec: williamson(x),
    "purify": lambda x, spec: purify(x),
    "complementary": lambda x, spec: complementary(x, spec),
    "output_entropies": lambda x, spec: output_entropies(x, spec),
    "check_qepi_bs": lambda x, spec: check_qepi_bs(x, x, 0.3),
    "check_qepi_amp": lambda x, spec: check_qepi_amp(x, x, 2.0),
    "check_moe_chain": lambda x, spec: check_moe_chain(x, ChannelSpec.beam_splitter(0.3, thermal_state(1.0))),
    "check_wc_chain": lambda x, spec: check_wc_chain(x, ChannelSpec.beam_splitter(0.3, thermal_state(1.0))),
    "random_gaussian_state": lambda x, spec: random_gaussian_state(1, 2.0, 1.0, seed=3),
    "apply_symplectic": lambda x, spec: apply_symplectic(rotation_symplectic(0.7), x),
}


@pytest.mark.parametrize("kind", sorted(_SINGLE_MODE_INPUTS))
@pytest.mark.parametrize("call", sorted(_SINGLE_MODE_CALLS))
def test_single_mode_calls_reach_no_linalg(monkeypatch, call, kind):
    state = _SINGLE_MODE_INPUTS[kind]
    spec = ChannelSpec.beam_splitter(0.3, state)
    calls = linalg_calls(monkeypatch)
    _SINGLE_MODE_CALLS[call](state, spec)
    assert calls == []


class TestModeParameters:
    @settings(deadline=None, max_examples=200)
    @given(photon=st.floats(0.0, 1e100), squeeze=st.floats(0.0, 300.0))
    def test_squeezed_thermal_state_round_trips(self, photon, squeeze):
        try:
            state = squeezed_thermal_state(photon, squeeze)
        except ValueError:  # (2N + 1) e^(2r) past the float range
            return
        n, r, u = _mode_parameters(state)
        assert n.shape == r.shape == u.shape == (1,)
        assert abs(n[0] - photon) <= _EPS * (2.0 * photon + 1.0)
        assert abs(r[0] - squeeze) <= 2.0 * _EPS * max(1.0, squeeze)
        assert u[0] == 0.0

    def test_rotated_state_gives_its_angle(self):
        n, r, u = _mode_parameters(CovarianceMatrix(rotated_squeezed(2.0, 0.75, 0.3)))
        np.testing.assert_allclose([n[0], r[0], u[0]], [2.0, 0.75, 0.3 / (2.0 * math.pi)], rtol=1e-14)

    def test_spectrum_within_the_tolerance_below_one_is_pure(self):
        # validation accepts nu down to 1 - 1e-9; a state stored farther below keeps its negative n
        near = CovarianceMatrix._physical(np.eye(2), np.array([1.0 - 1e-10]))
        below = CovarianceMatrix._physical(0.25 * np.eye(2), np.array([0.25]))
        assert _mode_parameters(near)[0][0] == 0.0
        assert _mode_parameters(below)[0][0] == -0.375


class TestPartialTrace:
    def test_keep_everything_is_identity(self):
        state = random_gaussian_state(2, 1.0, 0.5, seed=3)
        kept = partial_trace(state, ModePartition(kept=(0, 1), traced=()))
        np.testing.assert_array_equal(kept.data, state.data)

    def test_two_mode_squeezed_marginal_is_thermal(self):
        r = 0.8
        marginal = partial_trace(two_mode_squeezed_state(r), ModePartition.keeping([0], 2))
        np.testing.assert_allclose(marginal.data, math.cosh(2 * r) * np.eye(2), rtol=1e-12)
        assert total_photon_number(marginal) == pytest.approx(math.sinh(r) ** 2, rel=1e-12)

    @pytest.mark.parametrize("r", [4.5, 10.0, 20.0])
    def test_two_mode_squeezed_state_at_large_squeezing(self, r):
        # validating |eig(Omega Gamma)| rejected these pure states from r ~ 4.44; the exact spectrum is stored
        state = two_mode_squeezed_state(r)
        assert entropy(state) == 0.0
        with mpmath.workdps(50):
            expected = float(g_mp(mpmath.sinh(r) ** 2))
        for mode in (0, 1):
            assert entropy(partial_trace(state, ModePartition.keeping([mode], 2))) == pytest.approx(expected, rel=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(n_modes=st.integers(2, 16), seed=st.integers(0, 2**31 - 1), data=st.data())
    def test_marginal_spectrum_matches_validating_the_submatrix(self, n_modes, seed, data):
        # a marginal skips the entry checks its parent's stored matrix guarantees, not a bit of its spectrum
        state = random_gaussian_state(n_modes, 3.0, 1.0, seed)
        kept = data.draw(st.permutations(range(n_modes)).flatmap(lambda p: st.integers(1, n_modes).map(lambda k: p[:k])))
        marginal = partial_trace(state, ModePartition.keeping(kept, n_modes))
        idx = [q for m in kept for q in (2 * m, 2 * m + 1)]
        revalidated = CovarianceMatrix(state.data[np.ix_(idx, idx)])
        assert marginal.data.tobytes() == revalidated.data.tobytes()
        assert marginal._spectrum.tobytes() == revalidated._spectrum.tobytes()
        assert not marginal.data.flags.writeable

    def test_stored_matrices_are_exactly_symmetric(self):
        # marginals skip the symmetry check: every matrix a state can store, validated or built, is symmetric
        states = [random_gaussian_state(seed % 4 + 1, 3.0, 1.5, seed) for seed in range(40)]
        spec = ChannelSpec.amplifier(3.0, squeezed_thermal_state(0.7, 0.8))
        stored = states + [purify(state) for state in states] + [two_mode_squeezed_state(2.5)] + [
            complementary(state, spec) for state in states if state.n_modes == 1]
        for state in stored:
            assert state.data.tobytes() == state.data.T.copy().tobytes()

    def test_kept_order_reorders_modes(self):
        state = direct_sum(thermal_state(1), thermal_state(2))
        swapped = partial_trace(state, ModePartition(kept=(1, 0), traced=()))
        np.testing.assert_allclose(swapped.data[:2, :2], 5 * np.eye(2))
        np.testing.assert_allclose(swapped.data[2:, 2:], 3 * np.eye(2))

    def test_invalid_partition(self):
        state = vacuum_state(2)
        with pytest.raises(ValueError):
            partial_trace(state, ModePartition(kept=(0,), traced=()))
        with pytest.raises(ValueError):
            ModePartition(kept=(0, 1), traced=(1,))
        with pytest.raises(ValueError):
            ModePartition(kept=(0, 2), traced=())


def test_state_analysis_solver_calls(monkeypatch):
    # one Cholesky and eigvalsh per sampled state and per marginal of two or more modes, one Cholesky and eigh
    # for the one Williamson decomposition; later williamson, purify and entropy calls add none
    calls = linalg_calls(monkeypatch)
    state = random_gaussian_state(5, 2.0, 1.0, seed=11)
    for kept in ((0, 2), (1,), (4, 3, 0)):  # marginals of 2, 1 and 3 modes; conditioners of 3, 4 and 2
        partition = ModePartition.keeping(kept, 5)
        partial_trace(state, partition)
        conditional_entropy(state, partition)
    williamson(state)
    purify(state)
    williamson(state)
    entropy(state)
    assert Counter(name for name, _ in calls) == {"cholesky": 7, "eigvalsh": 6, "eigh": 1}


class TestMarginalMemo:
    @staticmethod
    def bipartition(kept, n_modes):
        part = ModePartition.keeping(kept, n_modes)
        return part, ModePartition(kept=part.traced, traced=part.kept)

    @pytest.mark.parametrize("kept", [(0, 2), (1,), (4, 3, 0), (3, 1, 2, 0)])
    def test_bipartition_solves_each_marginal_once(self, monkeypatch, kept):
        # S(A), S(B) and S(A|B): conditional_entropy reuses the B marginal partial_trace built, so one Cholesky
        # and one eigvalsh per distinct marginal of two or more modes
        state = random_gaussian_state(5, 2.0, 1.0, seed=11)
        part, conditioner = self.bipartition(kept, 5)
        calls = linalg_calls(monkeypatch)
        a, b = partial_trace(state, part), partial_trace(state, conditioner)
        entropy(a), entropy(b), conditional_entropy(state, part)
        assert partial_trace(state, conditioner) is b
        solved = sum(len(modes) >= 2 for modes in (part.kept, part.traced))
        assert Counter(name for name, _ in calls) == Counter(cholesky=solved, eigvalsh=solved)

    def test_entropy_is_summed_once_per_state(self, monkeypatch):
        summed = []
        spectral_entropy = core._spectral_entropy
        monkeypatch.setattr(core, "_spectral_entropy", lambda nu: summed.append(len(nu)) or spectral_entropy(nu))
        state = random_gaussian_state(5, 2.0, 1.0, seed=11)
        part, conditioner = self.bipartition((4, 0), 5)
        b = partial_trace(state, conditioner)
        for _ in range(2):
            conditional_entropy(state, part), entropy(state), entropy(b)
        assert summed == [5, 3]

    def test_dropped_marginals_are_not_kept_alive(self):
        state = random_gaussian_state(4, 2.0, 1.0, seed=3)
        part, conditioner = self.bipartition((2, 0), 4)
        marginal = partial_trace(state, conditioner)
        conditional_entropy(state, part)  # finds the same marginal in the memo
        ref = weakref.ref(marginal)
        del marginal
        gc.collect()
        assert ref() is None
        assert len(state._marginals) == 0

    @settings(deadline=None, max_examples=60)
    @given(n_modes=st.integers(2, 16), seed=st.integers(0, 2**31 - 1), data=st.data())
    def test_memoised_values_equal_a_fresh_state(self, n_modes, seed, data):
        state = random_gaussian_state(n_modes, 3.0, 1.0, seed)
        prefixes = st.permutations(range(n_modes)).flatmap(lambda p: st.integers(1, n_modes - 1).map(lambda k: p[:k]))
        kept = data.draw(prefixes)
        part, conditioner = self.bipartition(kept, n_modes)
        a, b = partial_trace(state, part), partial_trace(state, conditioner)
        memoised = [conditional_entropy(state, part), entropy(state), entropy(a), entropy(b)]
        assert [conditional_entropy(state, part), entropy(state), entropy(a), entropy(b)] == memoised
        assert partial_trace(state, part) is a
        # a state with no memo: its conditional entropy builds (and drops) the conditioner itself
        fresh = CovarianceMatrix._physical(state.data, state._spectrum)
        cond = conditional_entropy(fresh, part)
        fresh_a, fresh_b = partial_trace(fresh, part), partial_trace(fresh, conditioner)
        expected = [cond, entropy(fresh), entropy(fresh_a), entropy(fresh_b)]
        assert [value.hex() for value in memoised] == [value.hex() for value in expected]
        for marginal, other in ((a, fresh_a), (b, fresh_b)):
            assert marginal.data.tobytes() == other.data.tobytes()
            assert marginal._spectrum.tobytes() == other._spectrum.tobytes()

    def test_state_with_memoised_marginals_pickles(self):
        state = random_gaussian_state(3, 2.0, 1.0, seed=5)
        part = ModePartition.keeping((2, 0), 3)
        marginal = partial_trace(state, part)
        williamson(state), entropy(state)
        copy = pickle.loads(pickle.dumps(state))
        assert copy.data.tobytes() == state.data.tobytes()
        assert entropy(copy) == entropy(state)
        assert williamson(copy)[0].data.tobytes() == williamson(state)[0].data.tobytes()
        assert partial_trace(copy, part).data.tobytes() == marginal.data.tobytes()


class TestConditionalEntropy:
    def test_product_state_additivity(self):
        state = direct_sum(thermal_state(1.3), thermal_state(0.4))
        cond = conditional_entropy(state, ModePartition(kept=(0,), traced=(1,)))
        assert cond == pytest.approx(entropy(thermal_state(1.3)), abs=1e-12)
        # nothing traced: conditioning on nothing leaves the joint entropy
        assert conditional_entropy(state, ModePartition(kept=(1, 0), traced=())) == entropy(state)

    def test_two_mode_squeezed_is_negative(self):
        r = 0.8
        cond = conditional_entropy(two_mode_squeezed_state(r), ModePartition(kept=(0,), traced=(1,)))
        assert cond == pytest.approx(-g_direct(math.sinh(r) ** 2), abs=1e-10)

    def test_vacuum_pair_is_zero(self):
        cond = conditional_entropy(vacuum_state(2), ModePartition(kept=(0,), traced=(1,)))
        assert cond == 0.0


class TestRandomStates:
    def test_degenerate_ranges_give_vacuum(self):
        for seed in (0, 7, 123):
            state = random_gaussian_state(1, 0.0, 0.0, seed)
            np.testing.assert_allclose(state.data, np.eye(2), atol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        a = random_gaussian_state(2, 3.0, 1.0, seed=99)
        b = random_gaussian_state(2, 3.0, 1.0, seed=99)
        np.testing.assert_array_equal(a.data, b.data)

    def test_many_samples_are_physical(self):
        # Construction itself enforces physicality, so surviving the loop is
        # the assertion; spot-check the spectra anyway.
        worst = np.inf
        for seed in range(10_000):
            state = random_gaussian_state(2, 5.0, 1.5, seed)
            worst = min(worst, float(symplectic_eigenvalues(state).min()))
        assert worst >= 1.0 - 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            random_gaussian_state(0, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            random_gaussian_state(1, -1.0, 1.0, 0)
        with pytest.raises(ValueError):
            random_gaussian_state(1, 1.0, -0.5, 0)


class TestSerialization:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**31 - 1), n_modes=st.integers(1, 3))
    def test_round_trip(self, seed, n_modes):
        state = random_gaussian_state(n_modes, 2.0, 1.0, seed)
        rebuilt = deserialize_covariance(serialize_covariance(state))
        np.testing.assert_array_equal(rebuilt.data, state.data)

    @pytest.mark.parametrize("n_modes", [1, 4, 16])
    def test_json_matches_per_entry_floats(self, n_modes):
        state = random_gaussian_state(n_modes, 2.0, 1.0, seed=n_modes)
        per_entry = {"n_modes": n_modes, "data": [float(v) for v in state.data.ravel()]}
        assert json.dumps(serialize_covariance(state)) == json.dumps(per_entry)

    def test_flat_and_nested_forms(self):
        flat = [3.0, 0.0, 0.0, 3.0]
        nested = [[3.0, 0.0], [0.0, 3.0]]
        np.testing.assert_array_equal(deserialize_covariance(flat).data, 3 * np.eye(2))
        np.testing.assert_array_equal(deserialize_covariance(nested).data, 3 * np.eye(2))

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            deserialize_covariance([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            deserialize_covariance({"n_modes": 2, "data": [3.0, 0.0, 0.0, 3.0]})

    @pytest.mark.parametrize("declared", [1.5, 1.9, 1.0, True, "1", None, [1]])
    def test_declared_mode_count_must_be_an_integer(self, declared):
        # int() once truncated 1.5 and 1.9 to 1 and read true and "1" as 1
        with pytest.raises(ValueError, match=r"^declared n_modes must be an integer, not "):
            deserialize_covariance({"n_modes": declared, "data": [3.0, 0.0, 0.0, 3.0]})

    @pytest.mark.parametrize("payload", [{"data": {"a": 1.0}}, [{"a": 1.0}], [[3.0, {}], [0.0, 3.0]]])
    def test_data_that_is_not_numbers_is_a_value_error(self, payload):
        # numpy's TypeError for an object among the entries once escaped as a crash
        with pytest.raises(ValueError, match=r"^matrix data must be a flat list of numbers or a list of rows"):
            deserialize_covariance(payload)

    @pytest.mark.parametrize("payload", [{"n_modes": 1}, {}, {"entries": [3.0, 0.0, 0.0, 3.0]}])
    def test_object_without_data_names_the_field(self, payload):
        # obj["data"] once escaped as a bare KeyError('data')
        with pytest.raises(ValueError, match=r'^matrix object has no "data" field; the accepted formats are '
                                             r'\{"n_modes": n, "data": entries\}, a flat row-major list of entries, '
                                             r'or a list of rows$'):
            deserialize_covariance(payload)

    def test_declared_numpy_integer_is_an_integer(self):
        state = deserialize_covariance({"n_modes": np.int64(1), "data": [3.0, 0.0, 0.0, 3.0]})
        assert state.n_modes == 1


class TestSymplecticTolerance:
    def test_large_entries_pass_within_roundoff(self):
        # two-mode squeezer at r = 8, cosh(8)^2 ~ 2e6: the residual's roundoff exceeds an absolute 1e-10
        ch, sh = np.cosh(8.0) * np.eye(2), np.sinh(8.0) * np.diag([1.0, -1.0])
        s = np.block([[ch, sh], [sh, ch]])
        assert symplectic_residual(s) > 1e-10
        SymplecticMatrix(s)

    def test_large_perturbed_matrix_rejected(self):
        s = np.diag([np.exp(-7.0), np.exp(7.0)])
        s[1, 1] *= 1.0 + 1e-3
        with pytest.raises(ValueError, match="symplectic"):
            SymplecticMatrix(s)

    @pytest.mark.parametrize("scale", [1.0 + 4e-5, 1.0 - 4e-5, 1.0 + 1e-4])
    def test_uniform_rescale_of_large_matrix_rejected(self, scale):
        # (1 + eps) S deviates by 2 eps Omega, which does not grow with |S|
        with pytest.raises(ValueError, match="symplectic"):
            SymplecticMatrix(amplifier_symplectic(1e6).data * scale)

    def test_message_names_the_checked_excess_and_bound(self):
        # the raw residual of this matrix is 8e-5; the checked excess, relative to the roundoff scale, is 4e-11
        with pytest.raises(ValueError, match=r"^matrix is not symplectic: S Omega S\.T - Omega reaches 4\.000e-11 "
                                             r"of its roundoff scale .*, more than 1e-12$"):
            SymplecticMatrix(amplifier_symplectic(1e6).data * (1.0 + 4e-5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SymplecticMatrix(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_roundoff_of_exact_symplectics_accepted(self):
        SymplecticMatrix(amplifier_symplectic(1e6).data)
        for seed in range(20):
            random_symplectic(4, max_squeeze=3.0, seed=seed)
        for seed in range(5):
            williamson(random_gaussian_state(16, 5.0, 1.5, seed))


class TestValidation:
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_validation_is_what_a_state_stores(self, n_modes):
        rng = np.random.default_rng(n_modes)
        for _ in range(25):
            matrix = random_gaussian_state(n_modes, 5.0, 1.5, rng).data
            data, spectrum = _validated(matrix)
            state = CovarianceMatrix(matrix)
            assert data.tobytes() == state.data.tobytes()
            assert spectrum.tobytes() == state._spectrum.tobytes()
            assert symplectic_eigenvalues(state).tobytes() == spectrum.tobytes()

    @pytest.mark.parametrize(
        "defect,error,reason",
        [
            (np.array([[2.0, 1e-6], [0.0, 2.0]]), ValueError, "covariance matrix is not symmetric"),
            (-np.eye(2), PhysicalityError, "covariance matrix is not positive definite"),
            (0.5 * np.eye(2), PhysicalityError, "uncertainty condition violated"),
        ],
    )
    def test_bad_matrix_is_caught(self, defect, error, reason):
        with pytest.raises(error, match=f"^{reason}") as caught:
            _validated(defect)
        assert caught.type is error

    @pytest.mark.parametrize("n_modes", [2, 3])
    @pytest.mark.parametrize("kind", ["negative", "indefinite"])
    def test_matrix_without_cholesky_factor_is_caught(self, n_modes, kind):
        matrix = 3.0 * np.eye(2 * n_modes)
        if kind == "negative":
            matrix[1, 1] = -1.0
        else:  # eigenvalues 3 +/- 4 on the outer pair of quadratures
            matrix[0, -1] = matrix[-1, 0] = 4.0
        with pytest.raises(PhysicalityError, match=r"^covariance matrix is not positive definite$"):
            _validated(matrix)

    def test_messages_name_no_index(self):
        with pytest.raises(PhysicalityError, match=r"^uncertainty condition violated: min symplectic eigenvalue "
                                                   r"0\.5 < 1$"):
            _validated(0.5 * np.eye(2))
        with pytest.raises(PhysicalityError, match="^covariance matrix is not positive definite$"):
            _validated(-np.eye(2))

    @pytest.mark.parametrize("diagonal", [(1e308, 1e308), (2.0 ** 1023, 2.0 ** 1023), (9e307, 1e308)])
    def test_entries_past_half_the_float_range_keep_their_spectrum(self, diagonal):
        # both diagonal entries from 2^1023 on once scaled the determinant by an overflowing 2^1024, and a thermal
        # state was rejected as not positive definite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = CovarianceMatrix(np.diag(diagonal))
        expected = math.sqrt(diagonal[0]) * math.sqrt(diagonal[1])
        assert symplectic_eigenvalues(state)[0] == pytest.approx(expected, rel=4 * _EPS)


class TestSingleModeCancellation:
    def test_lost_determinant_is_a_numerical_error(self):
        # entries up to 6e156 whose determinant is 9: the rounded matrix once validated with nu = 2.557e148
        gamma = rotated_squeezed(1.0, 180.0, 0.3)
        message = r"cancels 15\.7 of its 15\.7 digits, so the entries do not fix the symplectic eigenvalue to 1e-09$"
        with pytest.raises(ArithmeticError, match=r"^det Gamma = Gamma_00 Gamma_11 - Gamma_01\^2 " + message):
            CovarianceMatrix(gamma)
        with pytest.raises(ArithmeticError, match=r"^det Gamma = Gamma_00 Gamma_11 - Gamma_01\^2 " + message):
            _validated(gamma)

    @pytest.mark.parametrize("squeeze,valid", [(2.0, True), (3.9, True), (4.1, False), (20.0, False)])
    def test_cancellation_bound_at_45_degrees(self, squeeze, valid):
        # |Gamma_00 Gamma_11| + Gamma_01^2 = det cosh 4r: eps times it passes 1e-9 det at r = 4.003
        gamma = rotated_squeezed(1.0, squeeze, math.pi / 4)
        if valid:
            assert symplectic_eigenvalues(CovarianceMatrix(gamma))[0] == pytest.approx(3.0, rel=1e-9)
        else:
            with pytest.raises(ArithmeticError, match="digits"):
                CovarianceMatrix(gamma)

    @pytest.mark.parametrize("photon,squeeze", [(1.0, 354.0), (0.0, 354.8), (0.0, 1.0), (5.0, 100.0)])
    def test_diagonal_squeezed_states_validate_to_the_float_limit(self, photon, squeeze):
        # a diagonal matrix cancels nothing; halving before the symmetrising sum keeps 9e307 entries finite
        state = squeezed_thermal_state(photon, squeeze)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rebuilt = CovarianceMatrix(state.data)
            assert deserialize_covariance(serialize_covariance(state)).data.tobytes() == state.data.tobytes()
        assert symplectic_eigenvalues(rebuilt).tobytes() == np.array([2.0 * photon + 1.0]).tobytes()


_ROUNDOFF_MESSAGE = (r"^the entries fix min symplectic eigenvalue {nu} only to its roundoff bound eps kappa = \S+ "
                     r"\(kappa = max Gamma_ii / L_ii\^2, L the Cholesky factor\), more than 1e-09$")


class TestMultiModeRoundoff:
    @pytest.mark.parametrize("squeeze", [5.0, 6.0])
    def test_pure_state_short_of_one_by_roundoff_is_a_numerical_error(self, squeeze):
        # a two-mode squeezed vacuum is pure; validating its entries loses nu_min to 1 - 5.7e-9 (r = 5)
        # and 1 - 6.6e-7 (r = 6), within eps max Gamma_ii / L_ii^2 = eps cosh^2 2r = 2.7e-8 and 1.5e-6
        with pytest.raises(ArithmeticError, match=_ROUNDOFF_MESSAGE.format(nu=r"0\.9999\d*")) as caught:
            CovarianceMatrix(two_mode_squeezed_state(squeeze).data)
        assert caught.type is ArithmeticError

    @pytest.mark.parametrize("squeeze", [9.0, 9.5])
    def test_pure_state_above_one_by_roundoff_is_a_numerical_error(self, squeeze):
        # the same entries from r ~ 8 give nu_min above 1 (1.049 at r = 9 and 1.63 at r = 9.5, entropy 0.232
        # and 1.449 for a pure state) with eps kappa = 0.22 and 0.67: the bound applies whatever nu_min is
        with pytest.raises(ArithmeticError, match=_ROUNDOFF_MESSAGE.format(nu=r"1\.\d+")) as caught:
            CovarianceMatrix(two_mode_squeezed_state(squeeze).data)
        assert caught.type is ArithmeticError

    def test_shortfall_beyond_a_large_roundoff_bound_is_unphysical(self):
        # eps kappa = 1.1e-7 exceeds 1e-9, but nu_min = 0.5 falls short of 1 by far more than that
        with pytest.raises(PhysicalityError, match=r"^uncertainty condition violated: min symplectic eigenvalue "):
            CovarianceMatrix(0.5 * two_mode_squeezed_state(5.0).data)

    @pytest.mark.parametrize("modes,spectrum", [
        ((squeezed_thermal_state(0.0, 4.0), vacuum_state()), (1.0, 1.0)),
        ((squeezed_thermal_state(0.0, 100.0), vacuum_state()), (1.0, 1.0)),
        ((thermal_state(0.0), thermal_state(3e6)), (6e6 + 1.0, 1.0)),
    ])
    def test_products_of_modes_on_different_scales_validate(self, modes, spectrum):
        # a diagonal matrix cancels nothing, however far apart its modes' scales: its bound is eps
        rebuilt = CovarianceMatrix(direct_sum(*modes).data)
        assert symplectic_eigenvalues(rebuilt).tolist() == list(spectrum)

    def test_shortfall_beyond_roundoff_is_unphysical(self):
        with pytest.raises(PhysicalityError, match=r"^uncertainty condition violated: min symplectic eigenvalue 0\.5 < 1$"):
            CovarianceMatrix(0.5 * np.eye(4))


class TestMixerLayers:
    @settings(deadline=None, max_examples=30)
    @given(n_modes=st.integers(1, 24))
    def test_schedule_keeps_the_draw_order_of_overlapping_pairs(self, n_modes):
        pairs = [(i, j) for i in range(n_modes) for j in range(i + 1, n_modes)]
        layer_of = {}
        for layer, (index, rows) in enumerate(_mixer_layers(n_modes)):
            assert not index.flags.writeable and not rows.flags.writeable
            members = [pairs[k] for k in index.tolist()]
            modes = [m for pair in members for m in pair]
            assert len(set(modes)) == len(modes)  # the pairs of a layer are disjoint
            assert rows.tolist() == [[2 * i, 2 * i + 1, 2 * j, 2 * j + 1] for i, j in members]
            layer_of.update(dict.fromkeys(index.tolist(), layer))
        assert sorted(layer_of) == list(range(len(pairs)))  # every pair appears once
        for k, pair in enumerate(pairs):
            for earlier in range(k):
                if set(pairs[earlier]) & set(pair):
                    assert layer_of[earlier] < layer_of[k]

    def test_layer_count(self):
        assert [len(_mixer_layers(n)) for n in (1, 2, 3, 4, 8, 16)] == [0, 1, 3, 5, 13, 29]


class TestSamplerDrawOrder:
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 5, 8, 16])
    def test_matches_scalar_draws_bit_for_bit(self, n_modes):
        for seed in range(50):
            state = random_gaussian_state(n_modes, 5.0, 1.5, seed)
            expected = reference_gaussian_state(n_modes, 5.0, 1.5, np.random.default_rng(seed))
            assert state.data.tobytes() == expected.tobytes()

    def test_consumes_the_generator_like_scalar_draws(self):
        rng, reference = np.random.default_rng(4), np.random.default_rng(4)
        random_gaussian_state(3, 0.0, 1.0, rng)
        reference_gaussian_state(3, 0.0, 1.0, reference)
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(ValueError):
            random_gaussian_state(1, *bounds, seed=0)


# input checks that no other test reaches, each a ValueError with its own message
_REJECTED_INPUTS = {
    "symplectic_form(0)": (lambda: symplectic_form(0), "n_modes must be a positive integer"),
    "vacuum_state(0)": (lambda: vacuum_state(0), "n_modes must be a positive integer"),
    "random_symplectic(0)": (lambda: random_symplectic(0), "n_modes must be a positive integer"),
    "covariance-2x3": (lambda: CovarianceMatrix(np.ones((2, 3))), "covariance matrix must be square"),
    "covariance-3x3": (lambda: CovarianceMatrix(np.eye(3)), "covariance matrix must be 2n x 2n with n >= 1"),
    "covariance-0x0": (lambda: CovarianceMatrix(np.zeros((0, 0))), "covariance matrix must be 2n x 2n with n >= 1"),
    "symplectic-3x3": (lambda: SymplecticMatrix(np.eye(3)), "symplectic matrix must be 2n x 2n"),
    "tmsv-negative": (lambda: two_mode_squeezed_state(-0.5),
                      "squeezing parameter must be nonnegative and keep cosh(2r) finite"),
    "tmsv-overflow": (lambda: two_mode_squeezed_state(400.0),
                      "squeezing parameter must be nonnegative and keep cosh(2r) finite"),
    "direct_sum()": (lambda: direct_sum(), "direct_sum needs at least one state"),
    "apply_symplectic-4x4-on-one-mode": (lambda: apply_symplectic(np.eye(4), thermal_state(1)),
                                         "transform and state dimensions do not match"),
    "partial_trace-keeps-nothing": (lambda: partial_trace(vacuum_state(2), ModePartition(kept=(), traced=(0, 1))),
                                    "at least one mode must be kept"),
    "conditional_entropy-wrong-partition": (lambda: conditional_entropy(vacuum_state(2), ModePartition.keeping([0], 3)),
                                            "partition does not match the number of modes"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED_INPUTS))
def test_rejected_input_raises_its_message(case):
    call, message = _REJECTED_INPUTS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        call()
    assert caught.type is ValueError
