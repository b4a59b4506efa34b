import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from gausscap.cli import BOUNDS_COLUMNS, EXIT_CONFIG, EXIT_NUMERICAL, format_float, main
from helpers import coherent_information_mp, g_direct, g_mp


def parse_csv(text):
    lines = text.strip().splitlines()
    header = tuple(lines[0].split(","))
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return header, rows


def column(rows, header, name):
    return [row[header.index(name)] for row in rows]


class TestBounds:
    def test_transparent_channel_upper_column(self, capsys):
        rc = main([
            "bounds", "--channel", "bs", "--tau", "1", "--ne", "1",
            "--n-start", "0", "--n-stop", "1", "--n-steps", "2",
        ])
        assert rc == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == BOUNDS_COLUMNS
        upper = column(rows, header, "upper")
        assert upper[0] == 0.0
        assert upper[1] == pytest.approx(2 * g_direct(1), rel=1e-12)

    def test_row_wise_ordering(self, capsys):
        rc = main([
            "bounds", "--channel", "bs", "--tau", "0.85", "--ne", "1",
            "--n-start", "0", "--n-stop", "10", "--n-steps", "21",
        ])
        assert rc == 0
        header, rows = parse_csv(capsys.readouterr().out)
        for row in rows:
            assert row[header.index("maximal")] >= row[header.index("upper")]
            assert row[header.index("upper")] >= row[header.index("lower_approx")]
            assert row[header.index("lower_approx")] >= 0

    def test_amplifier_at_maximum_gain(self, capsys):
        rc = main([
            "bounds", "--channel", "amp", "--kappa", "1e6", "--ne", "1",
            "--n-stop", "10", "--n-steps", "11",
        ])
        assert rc == 0
        header, rows = parse_csv(capsys.readouterr().out)
        with mpmath.workdps(50):
            k, ne = mpmath.mpf(10) ** 6, mpmath.mpf(1)
            for row in rows:
                n = mpmath.mpf(row[header.index("N")])
                holevo = g_mp(k * n + (k - 1) * ne) - g_mp((k - 1) * ne / (2 * k - 1))
                maximal = 2 * g_mp(k * n + (k - 1) * (ne + 1))
                upper = maximal - 2 * (k - 1) / (2 * k - 1) * g_mp(ne) - 2 * mpmath.log(2 * k - 1)
                for name, value in (
                    ("holevo", holevo), ("maximal", maximal), ("upper", upper), ("lower_approx", 2 * holevo),
                ):
                    assert row[header.index(name)] == pytest.approx(float(value), rel=1e-9), name
                n = float(n)
                coherent = coherent_information_mp("amp", 1e6, n, 1)
                assert row[header.index("coherent_info")] == pytest.approx(coherent, abs=1e-8)
                lower = coherent - coherent_information_mp("amp", 1e6, n * n, 1)
                assert row[header.index("coherent_lower")] == pytest.approx(lower, abs=1e-8)

    def test_squeezed_environment_upper_matches_thermal(self, capsys):
        args = [
            "bounds", "--channel", "bs", "--tau", "0.85",
            "--n-start", "0", "--n-stop", "4", "--n-steps", "5",
        ]
        assert main(args + ["--ne", "1"]) == 0
        thermal_out = capsys.readouterr().out
        assert main(args + ["--ne", "1", "--squeeze", "0.8"]) == 0
        squeezed_out = capsys.readouterr().out
        header, thermal_rows = parse_csv(thermal_out)
        _, squeezed_rows = parse_csv(squeezed_out)
        for t_row, s_row in zip(thermal_rows, squeezed_rows):
            assert s_row[header.index("upper")] == pytest.approx(
                t_row[header.index("upper")], rel=1e-12
            )

    def test_near_thermal_environment_matches_thermal(self, capsys):
        # a squeezed vacuum with r ~ 5e-14 counts as thermal; its N_e once came out as (Gamma_00 - 1) / 2 < 0 (exit 2)
        args = ["bounds", "--channel", "bs", "--tau", "0.5", "--ne", "0", "--n-stop", "4", "--n-steps", "5"]
        assert main(args) == 0
        _, thermal_rows = parse_csv(capsys.readouterr().out)
        assert main(args + ["--squeeze", "4.6e-14"]) == 0
        _, squeezed_rows = parse_csv(capsys.readouterr().out)
        for t_row, s_row in zip(thermal_rows, squeezed_rows):
            assert s_row == pytest.approx(t_row, rel=1e-12, abs=1e-12)

    def test_csv_round_trip_is_byte_identical(self, capsys):
        rc = main([
            "bounds", "--channel", "amp", "--kappa", "5", "--ne", "1",
            "--n-start", "0", "--n-stop", "3", "--n-steps", "7",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        header, rows = parse_csv(text)
        rebuilt = ",".join(header) + "\n"
        rebuilt += "\n".join(",".join(format_float(v) for v in row) for row in rows) + "\n"
        assert rebuilt == text

    def test_bits_are_nats_over_ln2(self, capsys):
        args = [
            "bounds", "--channel", "bs", "--tau", "0.6", "--ne", "0.5",
            "--n-start", "0", "--n-stop", "2", "--n-steps", "5",
        ]
        assert main(args) == 0
        header, nats_rows = parse_csv(capsys.readouterr().out)
        assert main(args + ["--units", "bits"]) == 0
        _, bits_rows = parse_csv(capsys.readouterr().out)
        for nats_row, bits_row in zip(nats_rows, bits_rows):
            for name in header[1:]:
                idx = header.index(name)
                assert bits_row[idx] == pytest.approx(nats_row[idx] / math.log(2), abs=1e-12)

    def test_json_format(self, capsys):
        rc = main([
            "bounds", "--channel", "bs", "--tau", "0.5", "--ne", "1",
            "--n-start", "1", "--n-stop", "1", "--n-steps", "1", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        row = payload[0]
        assert {"channel", "input_photon", "holevo", "maximal", "moe_sum_lower",
                "upper", "lower_approx", "coherent_info", "coherent_lower", "units"} <= set(row)

    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        rc = main([
            "bounds", "--channel", "bs", "--tau", "0.5", "--ne", "1",
            "--n-start", "0", "--n-stop", "1", "--n-steps", "2", "--out", str(out),
        ])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out.exists()

    def test_missing_parameter_is_config_error(self, capsys):
        assert main(["bounds", "--channel", "bs", "--ne", "1"]) == EXIT_CONFIG
        assert "tau" in capsys.readouterr().err

    def test_out_of_range_parameter_is_config_error(self, capsys):
        rc = main(["bounds", "--channel", "bs", "--tau", "1.5", "--ne", "1"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err != ""

    def test_bad_steps_is_config_error(self):
        rc = main(["bounds", "--channel", "bs", "--tau", "0.5", "--n-steps", "0"])
        assert rc == EXIT_CONFIG


class TestFig2:
    def test_default_run_produces_two_panels(self, tmp_path, capsys):
        prefix = tmp_path / "fig2"
        rc = main(["fig2", "--out", str(prefix)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        bs_text = (tmp_path / "fig2_bs.csv").read_text()
        amp_text = (tmp_path / "fig2_amp.csv").read_text()
        header, bs_rows = parse_csv(bs_text)
        _, amp_rows = parse_csv(amp_text)
        assert len(bs_rows) == 101 and len(amp_rows) == 101
        for rows in (bs_rows, amp_rows):
            for row in rows:
                assert all(math.isfinite(v) for v in row)
        for row in bs_rows:
            assert row[header.index("maximal")] >= row[header.index("upper")]
            assert row[header.index("upper")] >= row[header.index("lower_approx")]

    def test_amplifier_columns_increase_with_input_energy(self, tmp_path):
        prefix = tmp_path / "fig2"
        assert main(["fig2", "--out", str(prefix)]) == 0
        header, amp_rows = parse_csv((tmp_path / "fig2_amp.csv").read_text())
        for name in ("holevo", "maximal", "upper", "lower_approx"):
            values = column(amp_rows, header, name)
            assert np.all(np.diff(values) > 0)

    def test_vacuum_environment_collapses_bounds(self, tmp_path):
        prefix = tmp_path / "lossless"
        assert main(["fig2", "--out", str(prefix), "--ne", "0"]) == 0
        header, bs_rows = parse_csv((tmp_path / "lossless_bs.csv").read_text())
        for row in bs_rows:
            assert row[header.index("upper")] == row[header.index("lower_approx")]

    def test_note_goes_to_stderr(self, tmp_path, capsys):
        prefix = tmp_path / "fig2"
        assert main(["fig2", "--out", str(prefix), "--note"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "omit" in captured.err or "not computed" in captured.err


class TestVerifyEpi:
    def test_small_campaign_passes(self, capsys):
        rc = main(["verify-epi", "--family", "qepi-bs", "--trials", "300", "--seed", "42"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == 0
        assert report["trials"] == 300
        assert report["seed"] == 42
        assert "timestamp" not in report

    def test_zero_trials_is_config_error(self, capsys):
        assert main(["verify-epi", "--trials", "0"]) == EXIT_CONFIG

    def test_seed_gives_byte_identical_json(self, capsys):
        args = ["verify-epi", "--family", "cqepi-amp", "--trials", "100", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_workers_do_not_change_output(self, capsys):
        base = ["verify-epi", "--family", "qepi-amp", "--trials", "200", "--seed", "5"]
        assert main(base + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--workers", "4"]) == 0
        threaded = capsys.readouterr().out
        assert serial == threaded

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSSCAP_SEED", "42")
        assert main(["verify-epi", "--family", "qepi-bs", "--trials", "50"]) == 0
        from_env = capsys.readouterr().out
        assert main(["verify-epi", "--family", "qepi-bs", "--trials", "50", "--seed", "42"]) == 0
        explicit = capsys.readouterr().out
        assert from_env == explicit
        assert json.loads(from_env)["seed"] == 42

    def test_bad_env_seed_is_config_error(self, monkeypatch):
        monkeypatch.setenv("GAUSSCAP_SEED", "not-a-number")
        assert main(["verify-epi", "--trials", "10"]) == EXIT_CONFIG

    def test_fixed_tau(self, capsys):
        rc = main(["verify-epi", "--family", "qepi-bs", "--trials", "50", "--tau", "0.85", "--seed", "1"])
        assert rc == 0

    def test_violations_exit_code(self, capsys, monkeypatch):
        # A genuine violation would falsify the inequality, so fake one to
        # pin the exit-code contract.
        from gausscap import EpiReport
        from gausscap import cli as cli_module

        fake = EpiReport(
            inequality="qepi-bs", trials=10, violations=2,
            min_slack=-1e-3, mean_slack=0.1, seed=0, tolerance=1e-9,
        )
        monkeypatch.setattr(cli_module, "monte_carlo_verify", lambda *a, **k: fake)
        rc = main(["verify-epi", "--family", "qepi-bs", "--trials", "10"])
        captured = capsys.readouterr()
        assert rc == 4
        assert json.loads(captured.out)["violations"] == 2
        assert "violation" in captured.err


class TestEntropyCommand:
    def test_identity_matrix(self, capsys):
        rc = main(["entropy", "--matrix", "[1, 0, 0, 1]"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symplectic_eigenvalues"] == [1.0]
        assert payload["entropy_nats"] == 0.0
        assert payload["mean_photon"] == 0.0

    def test_thermal_matrix_bits(self, capsys):
        rc = main(["entropy", "--matrix", "[[3, 0], [0, 3]]"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symplectic_eigenvalues"][0] == pytest.approx(3.0, rel=1e-12)
        assert payload["entropy_nats"] == pytest.approx(2 * math.log(2), rel=1e-12)
        assert payload["entropy_bits"] == pytest.approx(2.0, rel=1e-12)

    def test_squeezed_vacuum(self, capsys):
        matrix = json.dumps([[math.exp(-2), 0], [0, math.exp(2)]])
        rc = main(["entropy", "--matrix", matrix])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symplectic_eigenvalues"][0] == pytest.approx(1.0, abs=1e-9)
        assert abs(payload["entropy_nats"]) < 1e-8

    def test_unphysical_matrix_is_numerical_error(self, capsys):
        rc = main(["entropy", "--matrix", "[0.5, 0, 0, 0.5]"])
        assert rc == EXIT_NUMERICAL
        assert "physicality" in capsys.readouterr().err

    def test_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text('{"n_modes": 1, "data": [3, 0, 0, 3]}')
        rc = main(["entropy", "--matrix-file", str(path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_modes"] == 1

    def test_malformed_json_is_config_error(self):
        assert main(["entropy", "--matrix", "[1, 0, 0"]) == EXIT_CONFIG


class TestVerifyEpiErrors:
    @pytest.mark.parametrize(
        "extra,code,message",
        [
            (["--family", "qepi-amp", "--kappa", "nan"], EXIT_CONFIG, "parameter_range must be finite"),
            (["--tau", "1.5"], EXIT_CONFIG, r"trial 0 of qepi-bs failed \(seed=1\): transmissivity must lie in \[0, 1\]"),
            (["--max-r", "50"], EXIT_NUMERICAL, r"trial 0 of qepi-bs failed \(seed=1\): covariance matrix is not positive definite"),
            (["--tolerance", "nan"], EXIT_CONFIG, "tolerance must be finite"),
            (["--max-n", "nan"], EXIT_CONFIG, "sampling bounds must be finite"),
            (["--family", "wc-chain-bs", "--ne", "inf"], EXIT_CONFIG, "env_photon must be finite"),
        ],
    )
    def test_exit_code_and_message(self, capsys, extra, code, message):
        assert main(["verify-epi", "--trials", "20", "--seed", "1"] + extra) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(message, captured.err)

    @pytest.mark.parametrize("extra", [["--max-r", "1000"], ["--max-n", "1e308"]])
    @pytest.mark.parametrize(
        "family", ["qepi-bs", "qepi-amp", "cqepi-bs", "cqepi-amp", "moe-chain-bs", "wc-chain-bs"]
    )
    def test_overflowing_sampling_bounds_are_config_errors(self, capsys, family, extra):
        # (2N + 1) e^(2r) past the float range: rejected up front, before any state is drawn
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the message
            assert main(["verify-epi", "--family", family, "--trials", "5"] + extra) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = r"the (squeezing parameter|photon number) must stay"
        assert re.match(r"configuration error: \(2N \+ 1\) e\^\(2r\) overflows at N = .*: " + limit, captured.err)


class TestBoundsErrors:
    @pytest.mark.parametrize("command", ["bounds", "fig2"])
    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--n-start", "nan"], r"the N range must be finite"),
            (["--n-stop", "nan"], r"the N range must be finite"),
            (["--n-stop", "inf"], r"the N range must be finite"),
            (["--ne", "nan"], r"mean photon number must be finite and nonnegative"),
            (["--ne", "inf"], r"mean photon number must be finite and nonnegative"),
            (["--squeeze", "nan"], r"squeezing parameter must be finite and nonnegative"),
        ],
    )
    def test_non_finite_argument_is_config_error(self, tmp_path, capsys, command, extra, message):
        base = ["bounds", "--channel", "bs", "--tau", "0.5"] if command == "bounds" else ["fig2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the message
            rc = main(base + ["--out", str(tmp_path / "out")] + extra)
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search("configuration error: " + message, captured.err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "n_stop,message",
        [
            ("1e154", "numerical error: overflow"),  # (2 N^2 + 1)^2 overflows
            ("1e300", "numerical error: overflow"),  # N^2 itself overflows
        ],
    )
    def test_unevaluable_second_point_is_numerical_error(self, capsys, n_stop, message):
        argv = ["bounds", "--channel", "bs", "--tau", "0.5", "--ne", "1", "--n-start", "0", "--n-stop", n_stop, "--n-steps", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    def test_large_second_point_matches_mpmath(self, capsys):
        # N^2 = 1e18 made the old eigenvalue path's (F, C) output numerically indefinite (exit 3)
        argv = ["bounds", "--channel", "bs", "--tau", "0.5", "--ne", "1", "--n-start", "0", "--n-stop", "1e9", "--n-steps", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        for row in rows:
            n = row[header.index("N")]
            info = coherent_information_mp("bs", 0.5, n, 1)
            lower = info - coherent_information_mp("bs", 0.5, n * n, 1)
            assert abs(row[header.index("coherent_info")] - info) <= 1e-12 * max(1.0, abs(info))
            assert abs(row[header.index("coherent_lower")] - lower) <= 1e-12 * max(1.0, abs(lower))

    def test_overflowing_squeeze_is_config_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning from exp(2r)
            assert main(["bounds", "--channel", "bs", "--tau", "0.5", "--squeeze", "400"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match(r"configuration error: .*overflows.* at or below 354\.34", captured.err)
