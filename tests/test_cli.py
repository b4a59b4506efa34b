import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausscap import ChannelSpec, evaluate_bounds, squeezed_thermal_state
from gausscap.cli import BOUNDS_COLUMNS, EXIT_CONFIG, EXIT_NUMERICAL, build_parser, main
from helpers import coherent_information_mp, g_direct, g_mp, rotated_squeezed, unpaired_eigvalsh


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
        rebuilt += "\n".join(",".join(format(v, ".17g") for v in row) for row in rows) + "\n"
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
        assert main(["bounds", "--channel", "amp"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: --kappa is required for the amplifier channel\n"

    @pytest.mark.parametrize("channel,extra,message", [
        ("bs", ["--tau", "0.5", "--kappa", "5"], "--kappa does not apply to the beam_splitter channel; use --tau"),
        ("amp", ["--kappa", "5", "--tau", "0.5"], "--tau does not apply to the amplifier channel; use --kappa"),
    ])
    def test_option_of_the_other_channel_is_config_error(self, capsys, channel, extra, message):
        assert main(["bounds", "--channel", channel] + extra) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"configuration error: {message}\n"

    def test_out_of_range_parameter_is_config_error(self, capsys):
        rc = main(["bounds", "--channel", "bs", "--tau", "1.5", "--ne", "1"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err != ""

    def test_bad_steps_is_config_error(self):
        rc = main(["bounds", "--channel", "bs", "--tau", "0.5", "--n-steps", "0"])
        assert rc == EXIT_CONFIG


class TestColumnRendering:
    """``bounds`` renders straight from the column arrays; the bytes are those of the ``BoundResult`` rows, written
    as 17-digit CSV or through ``json.dumps(indent=2)``, on every grid size, across the 512-point slice."""

    @settings(deadline=None, max_examples=60)
    @given(
        channel=st.sampled_from(["bs", "amp"]),
        u=st.floats(0.0, 1.0),
        ne=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e4),
        squeeze=st.sampled_from([0.0]) | st.floats(0.0, 3.0),
        start=st.floats(0.0, 1e3),
        width=st.sampled_from([0.0, 10.0]) | st.floats(0.0, 1e6),
        steps=st.integers(1, 600),
        units=st.sampled_from(["nats", "bits"]),
        second=st.sampled_from(["square", "half"]),
        fmt=st.sampled_from(["csv", "json"]),
    )
    @example(channel="amp", u=0.004, ne=1.0, squeeze=0.5, start=0.0, width=10.0, steps=513, units="bits",
             second="half", fmt="json")
    def test_bytes_equal_the_rows(self, channel, u, ne, squeeze, start, width, steps, units, second, fmt):
        parameter = u if channel == "bs" else 1.0 + 1e3 * u
        knob = "--tau" if channel == "bs" else "--kappa"
        argv = ["bounds", "--channel", channel, knob, repr(parameter), "--ne", repr(ne), "--squeeze", repr(squeeze),
                "--n-start", repr(start), "--n-stop", repr(start + width), "--n-steps", str(steps),
                "--units", units, "--coherent-arg", second, "--format", fmt]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        build = ChannelSpec.beam_splitter if channel == "bs" else ChannelSpec.amplifier
        spec = build(parameter, squeezed_thermal_state(ne, squeeze))
        grid = np.linspace(start, start + width, steps)
        rows = evaluate_bounds(spec, grid, units=units, coherent_second_arg=second)
        if fmt == "csv":
            names = ("input_photon",) + BOUNDS_COLUMNS[1:]
            lines = [",".join(BOUNDS_COLUMNS)] + [",".join("%.17g" % getattr(r, name) for name in names) for r in rows]
            expected = "\n".join(lines) + "\n"
        else:
            expected = json.dumps([dataclasses.asdict(r) for r in rows], indent=2) + "\n"
        # line lists: pytest names the first differing line, where a text diff of the whole output is slow
        assert out.getvalue().splitlines(keepends=True) == expected.splitlines(keepends=True)


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

    def test_takes_both_channel_options(self, tmp_path, capsys):
        # one panel per channel: --tau sets the beam splitter's parameter, --kappa the amplifier's
        prefix = tmp_path / "fig2"
        assert main(["fig2", "--out", str(prefix), "--tau", "0.5", "--kappa", "3", "--n-steps", "3"]) == 0
        for tag, option, value in (("bs", "--tau", "0.5"), ("amp", "--kappa", "3")):
            assert main(["bounds", "--channel", tag, option, value, "--n-steps", "3"]) == 0
            assert (tmp_path / f"fig2_{tag}.csv").read_text() == capsys.readouterr().out

    def test_note_goes_to_stderr(self, tmp_path, capsys):
        prefix = tmp_path / "fig2"
        assert main(["fig2", "--out", str(prefix), "--note"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "omit" in captured.err or "not computed" in captured.err


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv", [
        ["gausscap", "fig2", "--out", "{tmp}/fig2"],
        ["gausscap", "verify-epi", "--trials", "200", "--seed", "42"],
        ["gausscap", "--help"],  # the package's __main__
        ["gausscap.cli", "--help"],  # the module run as a script
    ])
    def test_python_dash_m_runs_without_numpy_warnings(self, tmp_path, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        command = [sys.executable, "-W", "error::RuntimeWarning", "-m"] + [a.format(tmp=tmp_path) for a in argv]
        done = subprocess.run(command, capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        if argv[-1] == "--help":
            assert done.stdout.startswith("usage: gausscap ") and done.stderr == ""


def _subcommand_parsers():
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


_TOP_USAGE = "usage: gausscap [-h] {bounds,fig2,verify-epi,entropy} ...\n"
_BOUNDS_USAGE = """\
usage: gausscap bounds [-h] --channel {bs,amp} [--tau TAU] [--kappa KAPPA]
                       [--ne NE] [--squeeze SQUEEZE] [--n-start N_START]
                       [--n-stop N_STOP] [--n-steps N_STEPS]
                       [--units {nats,bits}] [--format {csv,json}] [--out OUT]
                       [--coherent-arg {square,half}]
"""
_VERIFY_USAGE = """\
usage: gausscap verify-epi [-h]
                           [--family {qepi-bs,qepi-amp,cqepi-bs,cqepi-amp,moe-chain-bs,wc-chain-bs}]
                           [--trials TRIALS] [--seed SEED]
                           [--tolerance TOLERANCE] [--tau TAU] [--kappa KAPPA]
                           [--ne NE] [--max-n MAX_N] [--max-r MAX_R]
                           [--workers WORKERS] [--out OUT]
"""
_ENTROPY_USAGE = """\
usage: gausscap entropy [-h] (--matrix MATRIX | --matrix-file MATRIX_FILE)
                        [--out OUT]
"""


class TestParseBehaviour:
    """What the command line prints and returns as it parses its arguments, with usage wrapped at 80 columns."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        # some Python releases print an invalid choice's options unquoted: compare them unquoted
        return code, out, re.sub(r"'([^' ]*)'(?=[,)])", r"\1", err)

    @pytest.mark.parametrize("argv,code,stderr", [
        ([], 2, _TOP_USAGE + "gausscap: error: the following arguments are required: command\n"),
        (["nope"], 2, _TOP_USAGE + "gausscap: error: argument command: invalid choice: 'nope' "
                                   "(choose from bounds, fig2, verify-epi, entropy)\n"),
        # arguments no parser takes are the top level's error, with its usage, as it collects them
        (["verify-epi", "--bogus"], 2, _TOP_USAGE + "gausscap: error: unrecognized arguments: --bogus\n"),
        (["verify-epi", "extra"], 2, _TOP_USAGE + "gausscap: error: unrecognized arguments: extra\n"),
        (["verify-epi", "--trials", "3", "--bogus", "1", "extra"], 2,
         _TOP_USAGE + "gausscap: error: unrecognized arguments: --bogus 1 extra\n"),
        (["--bogus", "verify-epi"], 2, _TOP_USAGE + "gausscap: error: unrecognized arguments: --bogus\n"),
        # a subcommand's own errors carry its usage
        (["verify-epi", "--trials", "x"], 2,
         _VERIFY_USAGE + "gausscap verify-epi: error: argument --trials: invalid int value: 'x'\n"),
        (["bounds"], 2, _BOUNDS_USAGE + "gausscap bounds: error: the following arguments are required: --channel\n"),
        (["bounds", "--channel", "xx"], 2,
         _BOUNDS_USAGE + "gausscap bounds: error: argument --channel: invalid choice: 'xx' (choose from bs, amp)\n"),
        (["entropy"], 2,
         _ENTROPY_USAGE + "gausscap entropy: error: one of the arguments --matrix --matrix-file is required\n"),
    ])
    def test_usage_errors(self, capsys, argv, code, stderr):
        assert self.run(argv, capsys) == (code, "", stderr)

    @pytest.mark.parametrize("command", [None, "bounds", "fig2", "verify-epi", "entropy"])
    def test_help_is_the_named_parsers(self, capsys, command):
        argv, parser = (["-h"], build_parser()) if command is None else ([command, "-h"], _subcommand_parsers()[command])
        assert self.run(argv, capsys) == (0, parser.format_help(), "")

    def test_options_are_matched_by_prefix(self, capsys):
        full = self.run(["verify-epi", "--trials", "3", "--seed", "1"], capsys)
        assert full[0] == 0 and json.loads(full[1])["trials"] == 3
        assert self.run(["verify-epi", "--tr", "3", "--se", "1"], capsys) == full

    def test_a_command_is_parsed_once(self, capsys, monkeypatch):
        parsed = []

        def counted(parser, *args, _original=argparse.ArgumentParser.parse_known_args, **kwargs):
            parsed.append(parser.prog)
            return _original(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert main(["verify-epi", "--trials", "3", "--seed", "1"]) == 0
        assert parsed == ["gausscap verify-epi"]


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

    @pytest.mark.parametrize("value", ["not-a-number", "abc", "1e3", "-3"])
    def test_bad_env_seed_is_config_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GAUSSCAP_SEED", value)
        assert main(["verify-epi", "--trials", "10"]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"configuration error: GAUSSCAP_SEED must be a nonnegative integer, "
                                          f"not {value!r}\n")

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


# (min_slack, mean_slack) of `verify-epi --seed 42 --trials 10000`.  The qepi and chain values were
# printed when every trial built its own numpy.random.default_rng((42, i)) and validated its sampled
# matrices; the per-chunk stream and the drawn invariants keep them to the byte.  The cqepi values are
# those of the (B, Z1, Z2) spectrum from the draws' factors through one symmetric eigvalsh per chunk; each
# lies within 5e-15 of a 50-digit oracle (min and mean over every trial), here and in GOLDEN_DRAW_PATHS.
GOLDEN_REPORTS = {
    "qepi-bs": ("8.398428660161272e-05", "0.539112881565692"),
    "qepi-amp": ("0.002764301899059518", "0.6734030973899553"),
    "cqepi-bs": ("1.0436497466237427e-07", "0.150773120969198"),
    "cqepi-amp": ("8.342785249431175e-06", "0.2002226496002053"),
    "moe-chain-bs": ("0.00029866392241495454", "1.2522473089888968"),
    "wc-chain-bs": ("0.01480334292601194", "2.0891677515364555"),
}

# SHA-256 of the default fig2 datasets, then the first 8 hex digits of each line's SHA-256, header first, which
# locate the first line that moved.
GOLDEN_FIG2 = {
    "bs": (
        "85a841bcb082c78ef9643669d0d218511869dca4475e04654b027caf93a52397",
        "a38cb6e73b3c17a099544ced208e2d64e75dbc3c3091256de73319f17de8c70bcef655a616c10150698e879a79af7077"
        "c67f9c978f4a391ee4ceec402a150ca1693a9251cd6570ecb589b453ffbd285737ffef6e35382415a006e9d1e5fafb0e"
        "7674335309b3a3614ccaedb743a9a85f508eb575379c5b7fb6a8ff6da0c309c5e23f12fac92cc63da47539659fae6f74"
        "6a24b6c033bdc12d43c6229cd6144f30b9125c37900e1782e357daac3524901f6ddd9a5f9bbab3be7699a9ba56ae6b6b"
        "4d53f539dd35f6ddff4af45f0e11696a4a70006092680a5e7d8080735e5bc039b46b75a3f67e5629edbe4d8bdc6bd6da"
        "855bc150f5b18274d0d34d2d84a087f87f6c7b09cf23e614095529431bb8fd98a8b60ec14b07a0358adb04adfc6e66b1"
        "5ddd3213a04896d6249c0d5022c5c44fb79b7ffbcc02526518f871a6220a335ae307925967bb91d283427cea988b33e2"
        "63aded4240e9837b6f13c8c5fa04c7743f3945e99fa63d3be9a233704fef8a96c1008bbc7e5232fe614e33e2b29041bf"
        "fa9c5a1dd94df601465d383164f1714329c1a2f4df407966",
    ),
    "amp": (
        "e703986f01afab6237ee12f5058f020ad3802d314598c1a65eaaf156175159a3",
        "a38cb6e764e1457db9a79330fd33a67e2f2373a859e510e4fae319775defa3a5947655b650aace36e1350a13870bab80"
        "69a63ab657913de4dec72069c8503cab13ca0b94677c7c2313a1bf4cd22bb7aa9e6cfe453b69f487b22c64aef4160fdf"
        "c178355de67ff36b9fadf85ecb3044ac26ad59fcf88f044bcc8776e5366cb38d62fb1221857c8a850ca37f5a4c9944b7"
        "6828a1a49d9416b7c99ef3412cf45c7b597482770692781004c977fa440c7df684e67dbe8685a4114079f049048b7762"
        "999f14c1eddcf021a249219b52489e177c686ae13d8da5cbe0e26c59dcdb3633ddad41fa42210856aa512d4400f786b0"
        "4d1cd1df78ad2bd96bf0e8e04d6d837ae70c6d63517270f383bf793034a81813b5dd37f7f54114799d4ca3ffa892c8b3"
        "ae3383a6046a9f4f39a3646e125a91c81699c9c9b3ada989baedd61fd5378cbb8a5135234fc67e2339d1573055783391"
        "9a592b03e17e7fcb98e205114fdc058722857e2162677e50d4037738845b43b95eb8be48922d9e7994c41deb6dde5d33"
        "3643791038801530c9cad2cf19fe416e97ecf8e561289842",
    ),
}


class TestGoldenFig2:
    @pytest.mark.parametrize("tag", sorted(GOLDEN_FIG2))
    def test_default_dataset_is_byte_identical(self, tmp_path, tag):
        assert main(["fig2", "--out", str(tmp_path / "fig2")]) == 0
        data = (tmp_path / f"fig2_{tag}.csv").read_bytes()
        digest, line_digests = GOLDEN_FIG2[tag]
        if hashlib.sha256(data).hexdigest() != digest:
            lines = data.decode().splitlines()
            golden = [line_digests[i:i + 8] for i in range(0, len(line_digests), 8)]
            digests = [hashlib.sha256(line.encode()).hexdigest()[:8] for line in lines]
            moved = [i for i, d in enumerate(digests) if i >= len(golden) or d != golden[i]]
            first = moved[0] if moved else len(lines)
            pytest.fail(f"fig2_{tag}.csv differs from its golden first at line {first} (0 is the header; "
                        f"{len(lines)} lines, golden {len(golden)}): {lines[first] if moved else '<missing>'}")


class TestGoldenReports:
    @pytest.mark.parametrize("family", sorted(GOLDEN_REPORTS))
    def test_seed_42_report_is_byte_identical(self, capsys, family):
        assert main(["verify-epi", "--family", family, "--seed", "42", "--trials", "10000"]) == 0
        assert capsys.readouterr().out == _report(family, 10000, 42, *GOLDEN_REPORTS[family])


def _report(family, trials, seed, min_slack, mean_slack):
    """The bytes of a campaign report without violations at the default tolerance."""
    return (
        "{\n"
        f'  "inequality": "{family}",\n'
        f'  "trials": {trials},\n'
        '  "violations": 0,\n'
        f'  "min_slack": {min_slack},\n'
        f'  "mean_slack": {mean_slack},\n'
        f'  "seed": {seed},\n'
        '  "tolerance": 1e-09\n'
        "}\n"
    )


# (min_slack, mean_slack) of `verify-epi --seed 7 --trials 1500` with one more setting, for the draw paths
# the seed-42 reports do not take: --max-n 0 draws a single-mode state as 3 numbers instead of 4, a pinned
# --tau/--kappa draws no mixing parameter, and a chain's --ne draws no environment photon number.  1500
# trials cross a chunk boundary.
GOLDEN_DRAW_PATHS = {
    ("qepi-bs", "--max-n", "0"): ("0.0014074620535703378", "0.6757723560915183"),
    ("qepi-bs", "--tau", "0.3"): ("0.0005010252801487258", "0.6348996454818063"),
    ("qepi-amp", "--max-n", "0"): ("0.10439144502906203", "0.8969527249785272"),
    ("qepi-amp", "--kappa", "2.5"): ("0.004674173988092889", "0.657571220601425"),
    ("cqepi-bs", "--max-n", "0"): ("1.0579966158719145e-07", "0.11151867427286519"),
    ("cqepi-bs", "--tau", "0.3"): ("9.441847712565732e-07", "0.17795715437113435"),
    ("cqepi-amp", "--max-n", "0"): ("0.0018477282071898138", "0.1906546840900935"),
    ("cqepi-amp", "--kappa", "2.5"): ("8.040747431214967e-05", "0.19217401702020584"),
    ("moe-chain-bs", "--max-n", "0"): ("4.811018160521691e-07", "0.37400570566872066"),
    ("moe-chain-bs", "--tau", "0.3"): ("0.07837078929640906", "0.9334265393846399"),
    ("moe-chain-bs", "--ne", "2"): ("0.004006026746028013", "1.257776475321858"),
    ("wc-chain-bs", "--max-n", "0"): ("4.811018160521691e-07", "0.37400570566872066"),
    ("wc-chain-bs", "--tau", "0.3"): ("0.08442844881763811", "2.221308408560545"),
    ("wc-chain-bs", "--ne", "2"): ("0.049496208847468415", "2.095011598715378"),
}


class TestGoldenDrawPaths:
    @pytest.mark.parametrize("family,option,value", sorted(GOLDEN_DRAW_PATHS))
    def test_seed_7_report_is_byte_identical(self, capsys, family, option, value):
        assert main(["verify-epi", "--family", family, "--seed", "7", "--trials", "1500", option, value]) == 0
        assert capsys.readouterr().out == _report(family, 1500, 7, *GOLDEN_DRAW_PATHS[family, option, value])


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

    def test_eigenvalues_that_do_not_pair_are_numerical_error(self, capsys, monkeypatch):
        unpaired_eigvalsh(monkeypatch)
        assert main(["entropy", "--matrix", json.dumps(np.eye(4).tolist())]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical error: eigenvalues of i L.T Omega L do not split into +/- pairs: they differ "
                                "by 1e-06 of max(nu, 1), more than 1e-08\n")

    def test_lost_determinant_is_numerical_error(self, capsys):
        # N = 1, r = 180 rotated by 0.3 rad: the rounded entries once reported nu = 2.557e148 instead of 3
        matrix = json.dumps(rotated_squeezed(1.0, 180.0, 0.3).tolist())
        assert main(["entropy", "--matrix", matrix]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical error: det Gamma = Gamma_00 Gamma_11 - Gamma_01^2 cancels 15.7 of its 15.7 digits, "
            "so the entries do not fix the symplectic eigenvalue to 1e-09\n"
        )

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_is_config_error(self, capsys, entry):
        assert main(["entropy", "--matrix", f"[{entry}, 0, 0, 1]"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: covariance matrix must be finite\n"

    def test_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text('{"n_modes": 1, "data": [3, 0, 0, 3]}')
        rc = main(["entropy", "--matrix-file", str(path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_modes"] == 1

    @pytest.mark.parametrize("source", ["--matrix", "--matrix-file"])
    @pytest.mark.parametrize("declared,shown", [("1.5", "1.5"), ("1.9", "1.9"), ("true", "True"), ('"1"', "'1'")])
    def test_non_integer_mode_count_is_config_error(self, tmp_path, capsys, source, declared, shown):
        text = f'{{"n_modes": {declared}, "data": [3, 0, 0, 3]}}'
        if source == "--matrix-file":
            path = tmp_path / "state.json"
            path.write_text(text)
            text = str(path)
        assert main(["entropy", source, text]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: declared n_modes must be an integer, not {shown}\n"

    @pytest.mark.parametrize("matrix", ['{"n_modes": 1, "data": {"a": 1}}', '[{"a": 1}]', '[[3, {}], [0, 3]]'])
    def test_data_that_is_not_numbers_is_config_error(self, capsys, matrix):
        assert main(["entropy", "--matrix", matrix]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("configuration error: matrix data must be a flat list of numbers or a list of rows "
                                "of numbers\n")

    def test_object_without_data_is_config_error(self, capsys):
        # printed only "configuration error: 'data'" (a KeyError's repr)
        assert main(["entropy", "--matrix", '{"n_modes": 1}']) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ('configuration error: matrix object has no "data" field; the accepted formats are '
                                '{"n_modes": n, "data": entries}, a flat row-major list of entries, or a list of rows\n')

    def test_malformed_json_is_config_error(self):
        assert main(["entropy", "--matrix", "[1, 0, 0"]) == EXIT_CONFIG


class TestVerifyEpiErrors:
    @pytest.mark.parametrize(
        "extra,code,message",
        [
            (["--family", "qepi-amp", "--kappa", "nan"], EXIT_CONFIG, "parameter_range must be finite"),
            # both ends of the range are checked before any draw: the message names the setting, not a trial
            (["--tau", "1.5"], EXIT_CONFIG,
             r"^configuration error: parameter_range \(1\.5, 1\.5\) of qepi-bs: transmissivity must lie in \[0, 1\]$"),
            (["--tau", "1.0000001"], EXIT_CONFIG, r"^configuration error: parameter_range \(1\.0000001, 1\.0000001\) of "
                                                  r"qepi-bs: transmissivity must lie in \[0, 1\]$"),
            # t = 1 passes X1 through, so the slack is 0 exactly: at tolerance 0, its rounding below 0 is exit 3, not 4
            (["--family", "cqepi-bs", "--tau", "1", "--tolerance", "0"], EXIT_NUMERICAL,
             r"trial 4 of cqepi-bs failed \(seed=1\): slack -\S+ at the drawn states is below -0, but the roundoff "
             r"bounds 128 eps \(s \+ nu\) on its spectrum move the lhs by up to \S+$"),
            (["--tolerance", "nan"], EXIT_CONFIG, "tolerance must be finite"),
            (["--max-n", "nan"], EXIT_CONFIG, "sampling bounds must be finite"),
            (["--family", "wc-chain-bs", "--ne", "inf"], EXIT_CONFIG, "env_photon must be finite"),
            # an option that does not apply to the family is refused, not dropped
            (["--family", "qepi-amp", "--tau", "0.5"], EXIT_CONFIG,
             "^configuration error: --tau does not apply to the qepi-amp family; use --kappa$"),
            (["--family", "qepi-bs", "--kappa", "7"], EXIT_CONFIG,
             "^configuration error: --kappa does not apply to the qepi-bs family; use --tau$"),
            (["--family", "moe-chain-bs", "--kappa", "2"], EXIT_CONFIG, "--kappa does not apply to the moe-chain-bs"),
            (["--workers", "0"], EXIT_CONFIG, "^configuration error: workers must be at least 1$"),
            *((["--family", family, "--ne", "3"], EXIT_CONFIG,
               f"^configuration error: env_photon does not apply to {family}: it fixes a chain's thermal environment$")
              for family in ("qepi-bs", "qepi-amp", "cqepi-bs", "cqepi-amp")),
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


    @pytest.mark.parametrize("family", ["moe-chain-bs", "wc-chain-bs"])
    def test_overflowing_chain_environment_is_config_error(self, capsys, family):
        # 2N + 1 past the float range: rejected before an environment is built
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify-epi", "--family", family, "--trials", "5", "--ne", "1e308"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: env_photon must keep 2N + 1 finite: N = 1e+308 is above 8.98847e+307\n"

    @pytest.mark.parametrize("family", ["moe-chain-bs", "wc-chain-bs"])
    @pytest.mark.parametrize(
        "extra,overflow",
        [
            (["--max-r", "353.6"], r"the cross term leaves the float range \(r_A = 353\.\d+, r_E = 0, n_A = \S+, n_E = \S+\)"),
            (["--ne", "1e200"], r"det G_E - 1 leaves the float range \(n_E = 1e\+200\)"),
        ],
        ids=["extra0", "extra1"],
    )
    def test_overflowing_determinant_is_numerical_error(self, capsys, family, extra, overflow):
        # nu_A nu_E cosh 2r_A past the float range (r_A near 353.6, first at trial 5141), or
        # det G_E - 1 = 4 n (n + 1) at n = 1e200: the message names the invariant and its draws, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify-epi", "--family", family, "--trials", "10000"] + extra) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"numerical error: trial \d+ of {family} failed \(seed=0\): overflow at the drawn states: {overflow}\n",
                            captured.err)

    @pytest.mark.parametrize("family", ["qepi-bs", "qepi-amp"])
    def test_qepi_cross_term_overflows_from_half_the_chain_squeezing(self, capsys, family):
        # X holds cosh 2(r_A + r_E), past the float range once r_A + r_E ~ 354: possible from --max-r ~ 177,
        # where a chain's thermal environment (r_E = 0) still evaluates --max-r 300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["verify-epi", "--family", family, "--trials", "10", "--seed", "7", "--max-r", "300"]
            assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"numerical error: trial 4 of {family} failed (seed=7): overflow at the drawn states: "
                                "the cross term leaves the float range (r_A = 155.34, r_E = 224.009, n_A = 1.44057, "
                                "n_E = 1.22886)\n")

    @pytest.mark.parametrize("family", ["cqepi-bs", "cqepi-amp"])
    def test_cqepi_at_squeezing_8_has_no_false_violation(self, capsys, family):
        # the 6x6 (B, Z1, Z2) matrix of these draws fixed its spectrum only to eps e^(4r): cqepi-bs reported
        # 4 violations (exit 4), and cqepi-amp's +/- pairs split by 2.8e-8 at trial 4 (exit 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["verify-epi", "--family", family, "--trials", "10000", "--seed", "42", "--max-r", "8"]
            assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == 0 and report["min_slack"] > 0.0

    @pytest.mark.parametrize("family", ["cqepi-bs", "cqepi-amp"])
    @pytest.mark.parametrize("max_r", ["20", "50"])
    def test_cqepi_large_squeezing_is_evaluated(self, capsys, family, max_r):
        # the 6x6 matrix exited 3 from r ~ 8-9; the factors' spectrum keeps its digits (test_epi checks the slacks)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["verify-epi", "--family", family, "--trials", "10000", "--seed", "42", "--max-r", max_r]
            assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == 0 and report["min_slack"] > 0.0

    def test_cqepi_overflow_is_numerical_error(self, capsys):
        # gain 1e6 and r_2 = 350.6 put (k - 1) (2n + 1) cosh^2 r_2 in M past the float range, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["verify-epi", "--family", "cqepi-amp", "--trials", "5", "--seed", "60", "--kappa", "1e6",
                    "--max-r", "354", "--max-n", "0"]
            assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical error: trial 0 of cqepi-amp failed (seed=60): overflow at the drawn states: "
                                "the (B, Z1, Z2) spectrum leaves the float range (n_Z1 = 5.5581e+07, n_Z2 = 9.01076e+303)\n")

    def test_large_squeezing_is_evaluated(self, capsys):
        # the 2x2 matrices of these draws lost their determinant to rounding, and were rejected, from r ~ 9-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify-epi", "--family", "qepi-bs", "--trials", "200", "--seed", "1", "--max-r", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == 0 and report["min_slack"] > 0.0

    def test_trials_past_the_index_words_are_config_error(self, capsys):
        # trial indices are single uint32 seed words; the run is refused before any array is allocated
        tracemalloc.start()
        try:
            code = main(["verify-epi", "--trials", str(2**32 + 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert peak < 2**20
        assert capsys.readouterr().err == (
            "configuration error: trials must stay at or below 2^32 = 4294967296: each trial index is one uint32 seed word\n"
        )


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
            # det G_A - 1 = 4N(N + 1) overflows at N = 1e154 itself
            ("1e154", "numerical error: overflow at input photon number 1e+154: det G_A - 1 leaves the float range"),
            # N' = N^2 itself overflows at the second grid point
            ("1e300", "numerical error: overflow at input photon number 5.0000000000000003e+299: N' leaves the float range"),
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

    def test_amplifier_closed_form_overflow_is_numerical_error(self, capsys):
        # k N leaves the float range at the second grid point: the closed forms returned nan after RuntimeWarnings
        argv = ["bounds", "--channel", "amp", "--kappa", "5", "--ne", "1", "--n-stop", "1e308", "--n-steps", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical error: overflow at input photon number 5.0000000000000001e+307: the argument "
                                "pN + q Ne of g leaves the float range (amplifier parameter 5, Ne = 1)\n")

    def test_environment_beyond_the_float_range_is_numerical_error(self, capsys):
        # (2N + 1) I is finite at N = 8e307, but det G_E - 1 = 4N(N + 1) is not: the message names N_E
        argv = ["bounds", "--channel", "bs", "--tau", "0.5", "--ne", "8e307", "--n-stop", "1", "--n-steps", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical error: overflow at input photon number 0: det G_E - 1 leaves the float range "
                                "(n_E = 8e+307)\n")

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
