"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Expected values are produced by independent oracles: high-precision
arithmetic (mpmath), direct stdlib evaluation, closed-form block
spectra, and the truncated Fock-space sum.
"""

import functools
import json
import math
import time

import mpmath as mp
import numpy as np

from gausscap import (
    ChannelSpec,
    ModePartition,
    check_moe_chain,
    check_wc_chain,
    complementary,
    entropy,
    maximal_capacity,
    monte_carlo_verify,
    output_entropies,
    partial_trace,
    private_capacity_lower_approx,
    private_capacity_upper,
    private_capacity_upper_general,
    purify,
    random_gaussian_state,
    squeezed_thermal_state,
    thermal_state,
    weak_complementary,
)
from gausscap.cli import main
from helpers import fock_entropy_oracle, g_direct

mp.mp.dps = 60


def g_highprec(x) -> mp.mpf:
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(0)
    return (x + 1) * mp.log(x + 1) - x * mp.log(x)


def report(number: int, name: str):
    """Print one PASS/FAIL line per criterion around the wrapped test."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] {name}: FAIL")
                raise
            elapsed = time.perf_counter() - started
            print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")

        return run

    return wrap


@report(1, "formula exactness against high-precision evaluation")
def test_criterion_1_formula_exactness():
    bs_value = private_capacity_upper(ChannelSpec.beam_splitter(0.85, thermal_state(1)), 2)
    bs_expected = 2 * (g_highprec("1.85") - mp.mpf("0.15") * g_highprec(1))
    assert abs(bs_value - float(bs_expected)) / float(bs_expected) < 1e-12

    amp_value = private_capacity_upper(ChannelSpec.amplifier(5, thermal_state(1)), 1)
    amp_expected = 2 * (g_highprec(13) - mp.mpf(4) / 9 * g_highprec(1) - mp.log(9))
    assert abs(amp_value - float(amp_expected)) / float(amp_expected) < 1e-12


@report(2, "beam-splitter bound ordering over the parameter grid")
def test_criterion_2_ordering_grid():
    started = time.perf_counter()
    for tau in np.arange(0.05, 0.951, 0.05):
        for ne in (0.0, 0.5, 1.0, 2.0):
            spec = ChannelSpec.beam_splitter(tau, thermal_state(ne))
            gap_expected = 2 * (g_direct((1 - tau) * ne) - (1 - tau) * g_direct(ne))
            for n in np.arange(0.0, 10.01, 0.5):
                maximal = maximal_capacity(spec, n)
                upper = private_capacity_upper(spec, n)
                lower = private_capacity_lower_approx(spec, n)
                assert maximal - upper >= -1e-10
                assert upper - lower >= -1e-10
                assert lower >= -1e-10
                assert abs((upper - lower) - gap_expected) <= 1e-10
    assert time.perf_counter() - started < 5.0


@report(3, "entropy power inequalities, 10^4 Monte Carlo trials per family")
def test_criterion_3_epi_monte_carlo():
    started = time.perf_counter()
    for family in ("qepi-bs", "qepi-amp", "cqepi-bs", "cqepi-amp"):
        result = monte_carlo_verify(
            family, 10_000, max_photon=5.0, max_squeeze=1.5, seed=42, tolerance=1e-9
        )
        assert result.violations == 0, f"{family}: min slack {result.min_slack}"
        assert result.min_slack >= -1e-9
    assert time.perf_counter() - started < 60.0


@report(4, "chain inequalities on 10^3 random inputs per family")
def test_criterion_4_chain_inequalities():
    started = time.perf_counter()
    taus = np.arange(0.1, 0.91, 0.1)
    envs = (0.5, 1.0, 2.0)
    for check in (check_moe_chain, check_wc_chain):
        for i in range(1000):
            tau = taus[i % len(taus)]
            ne = envs[(i // len(taus)) % len(envs)]
            state = random_gaussian_state(1, 5.0, 1.5, seed=(42, i))
            trial = check(state, ChannelSpec.beam_splitter(tau, thermal_state(ne)))
            assert trial.slack >= -1e-9, f"{check.__name__} failed at trial {i}"
    assert time.perf_counter() - started < 30.0


@report(5, "general-noise upper bound is squeezing independent")
def test_criterion_5_squeezing_invariance():
    reference = private_capacity_upper(ChannelSpec.beam_splitter(0.85, thermal_state(1)), 2)
    for r in (0.0, 0.4, 0.8, 1.2, 1.6, 2.0):
        spec = ChannelSpec.beam_splitter(0.85, squeezed_thermal_state(1, r))
        value = private_capacity_upper_general(spec, 2)
        assert abs(value - reference) / reference < 1e-12


@report(6, "Gaussian entropy agrees with the truncated Fock oracle")
def test_criterion_6_entropy_oracle():
    for n in (0.1, 0.5, 1.0, 2.0):
        assert abs(entropy(thermal_state(n)) - fock_entropy_oracle(n, 400)) < 1e-6


@report(7, "purification, complement consistency, and pure-pure balance")
def test_criterion_7_structural_identities():
    started = time.perf_counter()
    for seed in range(100):
        state = random_gaussian_state(1, 3.0, 1.0, seed=(1, seed))
        purified = purify(state)
        recovered = partial_trace(purified, ModePartition.keeping([0], 2))
        assert np.max(np.abs(recovered.data - state.data)) < 1e-10
        assert entropy(purified) < 1e-8

    for seed in range(100):
        rng = np.random.default_rng((2, seed))
        env = random_gaussian_state(1, 2.0, 0.8, rng)
        if seed % 2:
            spec = ChannelSpec.beam_splitter(rng.uniform(0, 1), env)
        else:
            spec = ChannelSpec.amplifier(rng.uniform(1, 10), env)
        state = random_gaussian_state(1, 3.0, 1.0, rng)
        comp = complementary(state, spec)
        reduced = partial_trace(comp, ModePartition.keeping([0], 2))
        assert np.max(np.abs(reduced.data - weak_complementary(state, spec).data)) < 1e-10

    for seed in range(100):
        rng = np.random.default_rng((3, seed))
        pure_in = random_gaussian_state(1, 0.0, 1.2, rng)
        pure_env = random_gaussian_state(1, 0.0, 1.2, rng)
        if seed % 2:
            spec = ChannelSpec.beam_splitter(rng.uniform(0, 1), pure_env)
        else:
            spec = ChannelSpec.amplifier(rng.uniform(1, 10), pure_env)
        s_b, s_f, _ = output_entropies(pure_in, spec)
        assert abs(s_b - s_f) < 1e-8
    assert time.perf_counter() - started < 10.0


@report(8, "figure-style dataset regeneration through the CLI")
def test_criterion_8_fig2_regeneration(tmp_path):
    started = time.perf_counter()
    prefix = tmp_path / "fig2"
    assert main(["fig2", "--out", str(prefix)]) == 0
    for tag in ("bs", "amp"):
        lines = (tmp_path / f"fig2_{tag}.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == 101
        for row in rows:
            assert all(math.isfinite(v) for v in row)
        if tag == "bs":
            for row in rows:
                assert (
                    row[header.index("maximal")]
                    >= row[header.index("upper")]
                    >= row[header.index("lower_approx")]
                    >= 0
                )

    lossless = tmp_path / "lossless"
    assert main(["fig2", "--out", str(lossless), "--ne", "0"]) == 0
    lines = (tmp_path / "lossless_bs.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = [float(v) for v in line.split(",")]
        assert row[header.index("upper")] == row[header.index("lower_approx")]
    assert time.perf_counter() - started < 5.0


@report(9, "byte-identical verification reports across runs and thread counts")
def test_criterion_9_determinism(tmp_path):
    args = ["verify-epi", "--family", "qepi-bs", "--trials", "2000", "--seed", "42"]
    outputs = []
    for extra in ([], [], ["--workers", "4"], ["--workers", "8"]):
        path = tmp_path / f"report_{len(outputs)}.json"
        assert main(args + extra + ["--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    payload = json.loads(outputs[0])
    assert payload["violations"] == 0
