"""Command-line front end: bound curves, figure-style datasets, EPI campaigns.

Exit codes: 0 success, 2 invalid configuration, 3 physicality/numerical
failure, 4 inequality violation detected.  Data goes to stdout or the
requested output files; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import (  # the front end reads the package's public names only
    BoundResult,
    ChannelKind,
    ChannelSpec,
    Inequality,
    PhysicalityError,
    bound_columns,
    deserialize_covariance,
    entropy,
    monte_carlo_verify,
    squeezed_thermal_state,
    symplectic_eigenvalues,
    total_photon_number,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATION = 4

BOUNDS_COLUMNS = ("N", "holevo", "maximal", "upper", "lower_approx", "coherent_info", "coherent_lower")
_BOUND_FIELDS = tuple(field.name for field in dataclasses.fields(BoundResult))
# the rows of ``bound_columns``, one per numeric BoundResult field, that the CSV prints
_CSV_ROWS = [_BOUND_FIELDS.index(name) - 1 for name in ("input_photon",) + BOUNDS_COLUMNS[1:]]

_OMISSION_NOTE = (
    "note: externally published enhanced lower-bound curves are not computed here; "
    "the datasets carry the closed-form bounds plus the coherent-information difference "
    "I_c(N) - I_c(N'), which is not a lower bound on the private capacity."
)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _fixed(args: argparse.Namespace, kind: ChannelKind, owner: str) -> tuple[str, float | None]:
    """The option fixing a ``kind`` channel's parameter (--tau or --kappa) and its value; error if the other is set."""
    used, unused = ("kappa", "tau") if kind is ChannelKind.AMPLIFIER else ("tau", "kappa")
    if getattr(args, unused) is not None:
        raise ValueError(f"--{unused} does not apply to {owner}; use --{used}")
    return used, getattr(args, used)


def _channel_spec(args: argparse.Namespace) -> ChannelSpec:
    env = squeezed_thermal_state(args.ne, args.squeeze)
    kind = ChannelKind.BEAM_SPLITTER if args.channel == "bs" else ChannelKind.AMPLIFIER  # choices: bs, amp
    option, parameter = _fixed(args, kind, f"the {kind.value} channel")
    if parameter is None:
        raise ValueError(f"--{option} is required for the {kind.value} channel")
    return ChannelSpec(kind, parameter, env)


def _photon_grid(args: argparse.Namespace) -> np.ndarray:
    if args.n_steps < 1:
        raise ValueError("--n-steps must be at least 1")
    if not 0 <= args.n_start <= args.n_stop < math.inf:
        raise ValueError("the N range must be finite and satisfy 0 <= start <= stop")
    return np.linspace(args.n_start, args.n_stop, args.n_steps)


def _bounds_text(spec: ChannelSpec, grid: np.ndarray, args: argparse.Namespace) -> str:
    """Every bound of one channel at each grid point, rendered as CSV or JSON: one %-format of a row
    template repeated over the flattened columns, as Python floats (numpy 2's repr of a float64 is np.float64(x))."""
    channel, columns = bound_columns(spec, grid, units=args.units, coherent_second_arg=args.coherent_arg)
    if args.fmt == "csv":
        values = columns[_CSV_ROWS].T.ravel().tolist()
        line = ",".join(["%.17g"] * len(BOUNDS_COLUMNS)) + "\n"  # 17 significant digits round-trip float64 exactly
        return ",".join(BOUNDS_COLUMNS) + "\n" + line * len(grid) % tuple(values)
    # The bytes of json.dumps(rows, indent=2): its repr of a float is %r, and every column is finite,
    # since each overflow raises first (json would write a non-finite float as NaN or Infinity).
    head, tail = (json.dumps(text).replace("%", "%%") for text in (channel, args.units))
    fields = "".join(f'    "{name}": %r,\n' for name in _BOUND_FIELDS[1:-1])
    row = f'  {{\n    "{_BOUND_FIELDS[0]}": {head},\n{fields}    "{_BOUND_FIELDS[-1]}": {tail}\n  }}'
    return "[\n" + ",\n".join([row] * len(grid)) % tuple(columns.T.ravel().tolist()) + "\n]\n"


def cmd_bounds(args: argparse.Namespace) -> int:
    """One row of capacity bounds per input photon number."""
    spec = _channel_spec(args)
    _emit(_bounds_text(spec, _photon_grid(args), args), args.out)
    return EXIT_OK


def cmd_fig2(args: argparse.Namespace) -> int:
    """Reference datasets: a beam-splitter panel and an amplifier panel.

    Defaults: transmissivity 0.85, gain 5, thermal environment photon 1,
    N from 0 to 10 in 101 points.
    """
    if args.note:
        print(_OMISSION_NOTE, file=sys.stderr)
    env = squeezed_thermal_state(args.ne, args.squeeze)
    tau = 0.85 if args.tau is None else args.tau
    kappa = 5.0 if args.kappa is None else args.kappa
    grid = _photon_grid(args)
    panels = (
        ("bs", ChannelSpec.beam_splitter(tau, env)),
        ("amp", ChannelSpec.amplifier(kappa, env)),
    )
    ext = "csv" if args.fmt == "csv" else "json"
    prefix = args.out if args.out is not None else "fig2"
    for tag, spec in panels:
        path = f"{prefix}_{tag}.{ext}"
        Path(path).write_text(_bounds_text(spec, grid, args))
        print(f"wrote {path} ({len(grid)} rows)", file=sys.stderr)
    return EXIT_OK


def cmd_verify_epi(args: argparse.Namespace) -> int:
    """Monte Carlo campaign for one inequality family; exit 4 on any violation."""
    if args.workers < 1:
        raise ValueError("workers must be at least 1")
    fixed = _fixed(args, Inequality(args.family).kind, f"the {args.family} family")[1]
    env_seed = os.environ.get("GAUSSCAP_SEED", "0")
    if args.seed is None and not env_seed.strip().isdecimal():  # the digits int() reads, no sign or underscore
        raise ValueError(f"GAUSSCAP_SEED must be a nonnegative integer, not {env_seed!r}")
    report = monte_carlo_verify(
        args.family,
        args.trials,
        max_photon=args.max_n,
        max_squeeze=args.max_r,
        parameter_range=None if fixed is None else (fixed, fixed),
        env_photon=args.ne,
        seed=int(env_seed) if args.seed is None else args.seed,
        tolerance=args.tolerance,
    )
    _emit(json.dumps(vars(report), indent=2, allow_nan=False) + "\n", args.out)  # the fields in order, uncopied
    if report.violations > 0:
        print(
            f"{report.violations} violation(s) of {report.inequality} at tolerance {report.tolerance:g}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_entropy(args: argparse.Namespace) -> int:
    """Inspect a serialized covariance matrix: spectrum, entropy, photon number."""
    text = args.matrix if args.matrix is not None else Path(args.matrix_file).read_text()
    state = deserialize_covariance(json.loads(text))
    nats = entropy(state)
    payload = {
        "n_modes": state.n_modes,
        "symplectic_eigenvalues": [float(v) for v in symplectic_eigenvalues(state)],
        "entropy_nats": nats,
        "entropy_bits": nats / math.log(2.0),
        "mean_photon": total_photon_number(state),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _add_channel_args(parser: argparse.ArgumentParser, with_channel: bool) -> None:
    if with_channel:
        parser.add_argument("--channel", choices=("bs", "amp"), required=True, help="channel family")
    parser.add_argument("--tau", type=float, default=None, help="beam-splitter transmissivity in [0, 1]")
    parser.add_argument("--kappa", type=float, default=None, help="amplifier gain >= 1")
    parser.add_argument("--ne", type=float, default=1.0, help="environment thermal photon number")
    parser.add_argument("--squeeze", type=float, default=0.0, help="environment squeezing parameter")


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-start", type=float, default=0.0, help="first input photon number")
    parser.add_argument("--n-stop", type=float, default=10.0, help="last input photon number")
    parser.add_argument("--n-steps", type=int, default=101, help="number of grid points")
    parser.add_argument("--units", choices=("nats", "bits"), default="nats")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (fig2: path prefix)")
    parser.add_argument(
        "--coherent-arg",
        choices=("square", "half"),
        default="square",
        help="second point N' of the coherent-information difference I_c(N) - I_c(N'): N^2 or N/2",
    )


@lru_cache(maxsize=None)  # built once per process: main reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausscap",
        description="Capacity bounds and entropy-power-inequality checks for Gaussian channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="evaluate all bounds over an input-energy grid")
    bounds.set_defaults(run=cmd_bounds)
    _add_channel_args(bounds, with_channel=True)
    _add_grid_args(bounds)

    fig2 = sub.add_parser("fig2", help="emit the two reference panel datasets")
    fig2.set_defaults(run=cmd_fig2)
    _add_channel_args(fig2, with_channel=False)
    _add_grid_args(fig2)
    fig2.add_argument("--note", action="store_true", help="print why external curves are omitted")

    verify = sub.add_parser("verify-epi", help="Monte Carlo check of one inequality family")
    verify.set_defaults(run=cmd_verify_epi)
    verify.add_argument(
        "--family",
        choices=tuple(family.value for family in Inequality),
        default=Inequality.QEPI_BS.value,
    )
    verify.add_argument("--trials", type=int, default=10000, help="1 to 2^32 trials (each index is one seed word)")
    verify.add_argument("--seed", type=int, default=None, help="defaults to $GAUSSCAP_SEED or 0")
    verify.add_argument("--tolerance", type=float, default=1e-9)
    verify.add_argument("--tau", type=float, default=None, help="fix the transmissivity instead of sampling")
    verify.add_argument("--kappa", type=float, default=None, help="fix the gain instead of sampling")
    verify.add_argument("--ne", type=float, default=None, help="fix the chain-env photon number instead of sampling")
    verify.add_argument("--max-n", type=float, default=5.0, help="upper bound for sampled photon numbers")
    verify.add_argument("--max-r", type=float, default=1.5, help="upper bound for sampled squeezing")
    verify.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility (>= 1); trial chunks run serially and the report does not depend on it",
    )
    verify.add_argument("--out", default=None)

    entropy_cmd = sub.add_parser("entropy", help="inspect a serialized covariance matrix")
    entropy_cmd.set_defaults(run=cmd_entropy)
    group = entropy_cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", default=None, help="JSON matrix: flat row-major list, nested rows, or {n_modes, data}")
    group.add_argument("--matrix-file", default=None, help="path to a JSON matrix file")
    entropy_cmd.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    if argv and argv[0] in commands:  # one pass, by the parser the top level would hand the other arguments to
        args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = parser.parse_args(argv)
    try:
        return args.run(args)
    except PhysicalityError as exc:
        print(f"physicality error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
