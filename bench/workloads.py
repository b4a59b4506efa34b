"""The benchmark's workloads: rounds of gausscap operations with their checks.

A round is a fixed list of operations built from the run's seed.  Every
operation has a ``run`` that calls gausscap (and only gausscap, so that
its time is the program's) and a ``check`` that tests the output against
the independent computations in ``oracle``.  Calls go through module
attributes at call time (``cli.main``, ``gc.entropy``), so a traced run
sees the wrappers the tracer installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import mpmath as mp
import numpy as np

import gausscap as gc
from gausscap import cli

import oracle

NPROC = len(os.sched_getaffinity(0))

CURVE_COLUMNS = ("N", "holevo", "maximal", "upper", "lower_approx", "coherent_info", "coherent_lower")
FORMULA_COLUMNS = ("holevo", "maximal", "upper", "lower_approx")
JSON_FIELDS = (
    "channel", "input_photon", "holevo", "maximal", "moe_sum_lower", "upper",
    "lower_approx", "coherent_info", "coherent_lower", "units",
)
FAMILIES = ("qepi-bs", "qepi-amp", "cqepi-bs", "cqepi-amp", "moe-chain-bs", "wc-chain-bs")
CONDITIONAL = ("cqepi-bs", "cqepi-amp")
REPORT_FIELDS = ("inequality", "trials", "violations", "min_slack", "mean_slack", "seed", "tolerance")
STATE_SIZES = (1, 2, 3, 4, 6, 8, 12, 16)
EPI_TOLERANCE = 1e-9

# Tolerances against the oracles.  Observed worst cases on the workloads'
# inputs: closed forms 3e-11 (relative to max(1, |value|)), coherent
# information 5e-10 (absolute, amplifier at gain 20 and N = 1e4),
# entropies from |eig(Omega Gamma)| 1e-12.  Each limit leaves a margin of
# 20x or more and still rejects a 1e-6 perturbation.
FORMULA_RTOL = 1e-9
COHERENT_ATOL = 1e-8
ENTROPY_RTOL = 1e-8
ORDER_EPS = 1e-12


class CommandFailed(RuntimeError):
    """A CLI command exited with a nonzero code."""


@dataclass
class Op:
    """One benchmark operation.

    ``check(output, round_outputs)`` returns a list of problems; an empty
    list means the output is right.  ``round_outputs`` holds the outputs of
    the other operations of the same round (None where one failed), for
    checks that relate two commands.
    """

    name: str
    group: str
    units: int
    run: Callable[[], Any]
    check: Callable[[Any, list], list[str]]
    kept_failing: bool = False  # fails today because of a known fault; see README


def run_cli(argv: list[str]) -> str:
    """Run ``gausscap`` in-process; return its stdout or raise CommandFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _far(value: float, reference: float, tol: float) -> bool:
    return not math.isfinite(value) or abs(value - reference) > tol


def _seed32(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0] & 0x7FFFFFFF)


# ---------------------------------------------------------------------------
# curves: bound curves through gausscap.cli.main
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    """One ``bounds`` grid (or one ``fig2`` panel) and what its rows must be."""

    kind: str  # "bs" or "amp"
    param: float
    ne: float
    squeeze: float
    fmt: str
    coherent_arg: str
    start: float
    stop: float
    steps: int

    def argv(self) -> list[str]:
        knob = "--tau" if self.kind == "bs" else "--kappa"
        return [
            "bounds", "--channel", self.kind, knob, repr(self.param), "--ne", repr(self.ne),
            "--squeeze", repr(self.squeeze), "--n-start", repr(self.start), "--n-stop", repr(self.stop),
            "--n-steps", str(self.steps), "--format", self.fmt, "--coherent-arg", self.coherent_arg,
        ]

    def label(self) -> str:
        return " ".join(self.argv())


def parse_rows(text: str, fmt: str) -> tuple[list[dict], list[str]]:
    """Rows of a bounds output and the serialization problems found."""
    problems: list[str] = []
    if fmt == "csv":
        lines = text.split("\n")
        if lines[-1] != "" or lines[0] != ",".join(CURVE_COLUMNS):
            return [], ["csv header or final newline is wrong"]
        rows = []
        for line in lines[1:-1]:
            fields = line.split(",")
            if len(fields) != len(CURVE_COLUMNS):
                return [], [f"csv row has {len(fields)} fields"]
            try:
                values = [float(f) for f in fields]
            except ValueError:
                return [], [f"csv row does not parse: {line!r}"]
            bad = [f for f, v in zip(fields, values) if format(v, ".17g") != f]
            if bad:
                problems.append(f"fields are not 17-digit round trips: {bad[:3]}")
            rows.append(dict(zip(CURVE_COLUMNS, values)))
        return rows, problems
    try:
        items = json.loads(text)
    except json.JSONDecodeError as exc:
        return [], [f"json does not parse: {exc}"]
    if json.dumps(items, indent=2) + "\n" != text:
        problems.append("json does not re-serialize byte for byte")
    if not isinstance(items, list) or any(not isinstance(r, dict) or tuple(r) != JSON_FIELDS for r in items):
        return [], problems + ["json rows do not carry the documented fields"]
    rows = []
    for item in items:
        if item["units"] != "nats":
            problems.append(f"units {item['units']!r}")
        row = {name: float(item[name]) for name in JSON_FIELDS if name not in ("channel", "units")}
        row["N"] = row.pop("input_photon")
        row["channel"] = item["channel"]
        rows.append(row)
    return rows, problems


def check_curve(curve: Curve, text: str, partner_text: str | None = None) -> list[str]:
    """Check a bounds output against mpmath closed forms and the paper's ordering.

    ``partner_text`` is the same grid with an unsqueezed environment; the
    private upper bound must not depend on squeezing.
    """
    rows, problems = parse_rows(text, curve.fmt)
    if not rows:
        return problems or ["no rows"]
    if len(rows) != curve.steps:
        return problems + [f"{len(rows)} rows, expected {curve.steps}"]
    prefix = "beam_splitter(" if curve.kind == "bs" else "amplifier("
    with mp.workdps(oracle.DPS):
        start, stop = mp.mpf(curve.start), mp.mpf(curve.stop)
        grid = [float(start + (stop - start) * i / max(curve.steps - 1, 1)) for i in range(curve.steps)]
    for i, (row, n) in enumerate(zip(rows, grid)):
        where = f"row {i} (N={row['N']!r})"
        if _far(row["N"], n, 1e-14 * max(1.0, n)):
            problems.append(f"{where}: N differs from the grid value {n!r}")
            continue
        n = row["N"]
        if "channel" in row and not row["channel"].startswith(prefix):
            problems.append(f"{where}: channel {row['channel']!r}")
        ref = oracle.closed_forms(curve.kind, curve.param, curve.ne, n)
        for name in FORMULA_COLUMNS + (("moe_sum_lower",) if "moe_sum_lower" in row else ()):
            if _far(row[name], ref[name], FORMULA_RTOL * max(1.0, abs(ref[name]))):
                problems.append(f"{where}: {name} {row[name]!r} != mpmath {ref[name]!r}")
        other = n * n if curve.coherent_arg == "square" else n / 2.0
        key = (curve.kind, curve.param, curve.ne, curve.squeeze)
        ic = oracle.coherent_information(*key, n)
        with mp.workdps(oracle.DPS):
            lower = float(ic - oracle.coherent_information(*key, other))
        if _far(row["coherent_info"], float(ic), COHERENT_ATOL):
            problems.append(f"{where}: coherent_info {row['coherent_info']!r} != mpmath {float(ic)!r}")
        if _far(row["coherent_lower"], lower, COHERENT_ATOL):
            problems.append(f"{where}: coherent_lower {row['coherent_lower']!r} != mpmath {lower!r}")
        eps = ORDER_EPS * (1.0 + abs(row["maximal"]))
        if curve.kind == "bs" and not (
            row["maximal"] >= row["upper"] - eps and row["upper"] >= row["lower_approx"] - eps
            and row["lower_approx"] >= -eps
        ):
            problems.append(f"{where}: maximal >= upper >= lower_approx >= 0 fails")
        if curve.ne == 0.0 and curve.squeeze == 0.0 and _far(row["upper"], row["lower_approx"], eps):
            problems.append(f"{where}: upper != lower_approx with a vacuum environment")
    if partner_text is not None:
        partner, _ = parse_rows(partner_text, "csv" if partner_text.startswith("N,") else "json")
        for i, (row, base) in enumerate(zip(rows, partner)):
            if _far(row["upper"], base["upper"], ORDER_EPS * (1.0 + abs(base["upper"]))):
                problems.append(f"row {i}: upper {row['upper']!r} changes with squeezing (unsqueezed {base['upper']!r})")
    return problems


FIG2_PANELS = (
    Curve("bs", 0.85, 1.0, 0.0, "csv", "square", 0.0, 10.0, 101),
    Curve("amp", 5.0, 1.0, 0.0, "csv", "square", 0.0, 10.0, 101),
)
KEPT_FAILING = Curve("amp", 1e6, 1.0, 0.0, "csv", "square", 0.0, 10.0, 11)


def _run_fig2(prefix: Path) -> tuple[str, str]:
    run_cli(["fig2", "--out", str(prefix)])
    return tuple(Path(f"{prefix}_{tag}.csv").read_text() for tag in ("bs", "amp"))


def _check_fig2(texts, _round) -> list[str]:
    return [f"fig2 {c.kind}: {p}" for c, t in zip(FIG2_PANELS, texts) for p in check_curve(c, t)]


def _run_output_entropies(points) -> list[tuple[float, float, float]]:
    results = []
    for kind, param, ne, squeeze, n in points:
        env = gc.squeezed_thermal_state(ne, squeeze)
        spec = gc.ChannelSpec.beam_splitter(param, env) if kind == "bs" else gc.ChannelSpec.amplifier(param, env)
        results.append(gc.output_entropies(gc.thermal_state(n), spec))
    return results


def _check_output_entropies(points, values, _round) -> list[str]:
    problems = []
    for point, got in zip(points, values):
        ref = oracle.output_entropies(*point)
        if any(_far(a, b, ENTROPY_RTOL * max(1.0, abs(b))) for a, b in zip(got, ref)):
            problems.append(f"output_entropies{point}: {got} != mpmath {ref}")
    return problems


def curves_round(seed: int, steps: int, workdir: Path) -> list[Op]:
    """fig2 at its defaults, five seeded bounds grids, output entropies, and
    the kept-failing amplifier command at the documented maximum gain."""
    rng = np.random.default_rng([seed, 1])

    def draw(lo: float, hi: float, digits: int = 6) -> float:
        return round(float(rng.uniform(lo, hi)), digits)

    tau, ne, r = draw(0.05, 0.95), draw(0.1, 3.0), draw(0.2, 1.2)
    tau_vacuum = draw(0.05, 0.95)
    kappa, ne_amp, r_amp = draw(1.2, 20.0), draw(0.1, 3.0), draw(0.2, 1.2)
    start, stop = draw(0.0, 2.0, 4), draw(20.0, 100.0, 4)  # N <= 100 keeps N^2 <= 1e4
    curves = [
        Curve("bs", tau, ne, 0.0, "csv", "square", start, stop, steps),
        Curve("bs", tau, ne, r, "json", "half", start, stop, steps),
        Curve("bs", tau_vacuum, 0.0, 0.0, "csv", "half", start, stop, steps),
        Curve("amp", kappa, ne_amp, 0.0, "json", "square", start, stop, steps),
        Curve("amp", kappa, ne_amp, r_amp, "csv", "half", start, stop, steps),
    ]
    partners = {1: 0, 4: 3}  # squeezed grid -> same grid unsqueezed
    ops = [Op("fig2", "fig2", 202, partial(_run_fig2, workdir / "fig2"), _check_fig2)]
    for i, curve in enumerate(curves):
        def check(text, outputs, curve=curve, i=i):
            partner = outputs[1 + partners[i]] if i in partners else None
            return check_curve(curve, text, partner)
        ops.append(Op(curve.label(), "bounds", steps, partial(run_cli, curve.argv()), check))
    points = [(c.kind, c.param, c.ne, c.squeeze, n) for c in (curves[1], curves[4]) for n in (0.0, stop / 3, stop)]
    ops.append(Op("output_entropies", "entropies", len(points), partial(_run_output_entropies, points),
                  partial(_check_output_entropies, points)))
    ops.append(Op(KEPT_FAILING.label(), "bounds", KEPT_FAILING.steps, partial(run_cli, KEPT_FAILING.argv()),
                  lambda text, _round: check_curve(KEPT_FAILING, text), kept_failing=True))
    return ops


# ---------------------------------------------------------------------------
# campaign: verify-epi on all six families, plus direct check_* calls
# ---------------------------------------------------------------------------

def check_report(family: str, trials: int, seed: int, text: str) -> list[str]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report does not parse: {exc}"]
    if not isinstance(report, dict) or tuple(report) != REPORT_FIELDS:
        return [f"report fields {list(report) if isinstance(report, dict) else report!r}"]
    problems = []
    if json.dumps(report, indent=2) + "\n" != text:
        problems.append("report does not re-serialize byte for byte")
    expected = {"inequality": family, "trials": trials, "violations": 0, "seed": seed, "tolerance": EPI_TOLERANCE}
    problems += [f"{k} = {report[k]!r}, expected {v!r}" for k, v in expected.items() if report[k] != v]
    if not report["min_slack"] >= -EPI_TOLERANCE:
        problems.append(f"min_slack {report['min_slack']!r} below -tolerance")
    if not report["min_slack"] <= report["mean_slack"]:
        problems.append("min_slack exceeds mean_slack")
    return problems


def _local_symplectic(rng, max_squeeze: float) -> np.ndarray:
    """Single-mode rotation after a squeezer, drawn at random."""
    r, theta = rng.uniform(0.0, max_squeeze), rng.uniform(0.0, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]]) @ np.diag([np.exp(-r), np.exp(r)])


def _random_single_mode(rng) -> np.ndarray:
    local = _local_symplectic(rng, 1.0)
    return (2.0 * rng.uniform(0.0, 3.0) + 1.0) * (local @ local.T)


def _random_pair(rng) -> np.ndarray:
    """Two-mode (X, Z) state: local squeezers after a two-mode squeezer and a beam splitter."""
    thermal = np.diag(np.repeat(2.0 * rng.uniform(0.0, 3.0, size=2) + 1.0, 2))
    r, t = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
    tms = np.block([[np.cosh(r) * np.eye(2), np.sinh(r) * oracle.Z], [np.sinh(r) * oracle.Z, np.cosh(r) * np.eye(2)]])
    local = np.zeros((4, 4))
    local[:2, :2], local[2:, 2:] = _local_symplectic(rng, 0.5), _local_symplectic(rng, 0.5)
    s = local @ tms @ oracle.mixer("bs", t)
    gamma = s @ thermal @ s.T
    return 0.5 * (gamma + gamma.T)


def draw_instances(family: str, seed: int, count: int) -> list[tuple]:
    """The benchmark's own inputs for ``count`` direct calls of a check_* function."""
    rng = np.random.default_rng([seed, 3, FAMILIES.index(family)])
    out = []
    for _ in range(count):
        p = float(rng.uniform(1.0, 10.0)) if family.endswith("amp") else float(rng.uniform(0.0, 1.0))
        if family.startswith("qepi"):
            out.append((_random_single_mode(rng), _random_single_mode(rng), p))
        elif family.startswith("cqepi"):
            out.append((_random_pair(rng), _random_pair(rng), p))
        else:
            out.append((_random_single_mode(rng), p, float(rng.uniform(0.0, 3.0))))
    return out


def _run_direct(family: str, instances) -> list[tuple[float, float]]:
    results = []
    for inst in instances:
        if family.startswith("qepi") or family.startswith("cqepi"):
            fn = {"qepi-bs": gc.check_qepi_bs, "qepi-amp": gc.check_qepi_amp,
                  "cqepi-bs": gc.check_cqepi_bs, "cqepi-amp": gc.check_cqepi_amp}[family]
            trial = fn(gc.CovarianceMatrix(inst[0]), gc.CovarianceMatrix(inst[1]), inst[2])
        else:
            gamma, t, ne = inst
            spec = gc.ChannelSpec.beam_splitter(t, gc.thermal_state(ne))
            fn = gc.check_moe_chain if family == "moe-chain-bs" else gc.check_wc_chain
            trial = fn(gc.CovarianceMatrix(gamma), spec)
        results.append((trial.lhs, trial.rhs))
    return results


def check_direct(family: str, instances, values, _round=None) -> list[str]:
    problems = []
    if len(values) != len(instances):
        return [f"{len(values)} results for {len(instances)} instances"]
    for i, (inst, (lhs, rhs)) in enumerate(zip(instances, values)):
        if family.startswith("qepi"):
            ref = oracle.qepi(family, *inst)
        elif family.startswith("cqepi"):
            ref = oracle.cqepi(family, *inst)
        else:
            ref = oracle.chain(family, *inst)
        for name, got, want in (("lhs", lhs, ref[0]), ("rhs", rhs, ref[1])):
            if _far(got, want, ENTROPY_RTOL * max(1.0, abs(want))):
                problems.append(f"instance {i}: {name} {got!r} != reference {want!r}")
        if not lhs - rhs >= -EPI_TOLERANCE:
            problems.append(f"instance {i}: slack {lhs - rhs!r} is a violation")
    return problems


def campaign_round(seed: int, trials: int, instances: int) -> list[Op]:
    """verify-epi on all six families with --workers 1, cqepi-bs again with
    --workers nproc (byte-compared), and direct check_* calls per family."""
    ops = []
    for f, family in enumerate(FAMILIES):
        fam_seed = _seed32(seed, 2, f)
        argv = ["verify-epi", "--family", family, "--trials", str(trials), "--seed", str(fam_seed)]
        group = "conditional" if family in CONDITIONAL else "trials"
        ops.append(Op(f"verify-epi {family}", group, trials, partial(run_cli, argv + ["--workers", "1"]),
                      lambda text, _r, fam=family, s=fam_seed: check_report(fam, trials, s, text)))
        if family == "cqepi-bs":
            serial, parallel_argv = f, argv + ["--workers", str(NPROC)]

    def check_parallel(text, outputs):
        problems = ops[serial].check(text, outputs)
        if outputs[serial] is not None and text != outputs[serial]:
            problems.append(f"--workers {NPROC} report differs from the --workers 1 report")
        return problems

    ops.append(Op(f"verify-epi cqepi-bs --workers {NPROC}", "parallel", trials,
                  partial(run_cli, parallel_argv), check_parallel))
    for family in FAMILIES:
        inst = draw_instances(family, seed, instances)
        ops.append(Op(f"check {family}", "check", instances, partial(_run_direct, family, inst),
                      partial(check_direct, family, inst)))
    return ops


# ---------------------------------------------------------------------------
# states: n-mode state analysis in gausscap.core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateJob:
    n_modes: int
    max_photon: float
    max_squeeze: float
    seed: int
    kept: tuple[tuple[int, ...], ...]  # kept-mode lists of the bipartitions


def state_jobs(seed: int, per_size: int) -> list[StateJob]:
    rng = np.random.default_rng([seed, 4])
    jobs = []
    for n in STATE_SIZES:
        for j in range(per_size):
            kept = tuple(
                tuple(int(m) for m in rng.permutation(n)[: int(rng.integers(1, n))]) for _ in range(3 if n > 1 else 0)
            )
            jobs.append(StateJob(n, round(float(rng.uniform(0.5, 3.0)), 6), round(float(rng.uniform(0.2, 1.0)), 6),
                                 _seed32(seed, 5, n, j), kept))
    return jobs


def run_state(job: StateJob) -> dict:
    state = gc.random_gaussian_state(job.n_modes, job.max_photon, job.max_squeeze, seed=job.seed)
    parts = []
    for kept in job.kept:
        part = gc.ModePartition.keeping(kept, job.n_modes)
        marginal = gc.partial_trace(state, part)
        conditioner = gc.partial_trace(state, gc.ModePartition(kept=part.traced, traced=part.kept))
        parts.append((gc.conditional_entropy(state, part), gc.entropy(marginal), gc.entropy(conditioner)))
    sym, diag = gc.williamson(state)
    pure = gc.purify(state)
    return {
        "gamma": state.data,
        "entropy": gc.entropy(state),
        "nu": gc.symplectic_eigenvalues(state),
        "parts": parts,
        "S": sym.data,
        "d": diag,
        "pure": pure.data,
        "pure_entropy": gc.entropy(pure),
        "cli": run_cli(["entropy", "--matrix", json.dumps(gc.serialize_covariance(state))]),
    }


def check_state(job: StateJob, out: dict, _round=None) -> list[str]:
    n = job.n_modes
    gamma = out["gamma"]
    if gamma.shape != (2 * n, 2 * n) or not np.array_equal(gamma, gamma.T):
        return [f"state is not a symmetric {2 * n}x{2 * n} matrix"]
    problems = []
    nu = oracle.spectrum(gamma)
    scale = max(1.0, float(np.max(np.abs(gamma))))
    if nu.min() < 1.0 - 1e-9:
        problems.append(f"state violates the uncertainty condition (min nu {nu.min()!r})")
    s_ref = oracle.entropy_from_nu(nu)
    if _far(out["entropy"], s_ref, ENTROPY_RTOL * max(1.0, s_ref)):
        problems.append(f"entropy {out['entropy']!r} != reference {s_ref!r}")
    if out["nu"].shape != (n,) or np.any(np.abs(out["nu"] - np.maximum(nu, 1.0)) > 1e-9 * nu):
        problems.append("symplectic_eigenvalues differ from |eig(Omega Gamma)|")
    for kept, (cond, s_a, s_b) in zip(job.kept, out["parts"]):
        traced = [m for m in range(n) if m not in kept]
        ref_a, ref_b = oracle.entropy(oracle.block(gamma, kept)), oracle.entropy(oracle.block(gamma, traced))
        for name, got, want in (("S(A|B)", cond, s_ref - ref_b), ("S(A)", s_a, ref_a), ("S(B)", s_b, ref_b)):
            if _far(got, want, ENTROPY_RTOL * max(1.0, abs(want), s_ref)):
                problems.append(f"kept {kept}: {name} {got!r} != reference {want!r}")
        if not out["entropy"] <= s_a + s_b + ENTROPY_RTOL * max(1.0, s_a + s_b):
            problems.append(f"kept {kept}: subadditivity fails")
    s, d = out["S"], out["d"]
    if d.shape != (2 * n,) or np.any(d[0::2] != d[1::2]) or np.any(np.diff(d[0::2]) > 0):
        problems.append("williamson diagonal is not descending pairs")
    elif np.any(np.abs(d[0::2] - nu) > 1e-9 * nu):
        problems.append("williamson diagonal differs from the symplectic spectrum")
    if np.max(np.abs(s @ np.diag(d) @ s.T - gamma)) > 1e-9 * scale:
        problems.append("williamson: S D S^T != Gamma")
    om = oracle.omega(n)
    if np.max(np.abs(s @ om @ s.T - om)) > 1e-9 * max(1.0, float(np.max(np.abs(s))) ** 2):
        problems.append("williamson: S is not symplectic")
    pure = out["pure"]
    if pure.shape != (4 * n, 4 * n) or np.max(np.abs(pure[: 2 * n, : 2 * n] - gamma)) > 1e-9 * scale:
        problems.append("purify does not reduce to its input")
    elif np.max(np.abs(oracle.spectrum(pure) - 1.0)) > 1e-6 or not 0.0 <= out["pure_entropy"] <= 1e-6:
        problems.append(f"purified state is not pure (entropy {out['pure_entropy']!r})")
    try:
        report = json.loads(out["cli"])
    except json.JSONDecodeError:
        return problems + ["entropy CLI output does not parse"]
    photons = (float(np.trace(gamma)) - 2.0 * n) / 4.0
    expected = {
        "n_modes": n,
        "symplectic_eigenvalues": out["nu"].tolist(),
        "entropy_nats": out["entropy"],
        "entropy_bits": out["entropy"] / math.log(2.0),
        "mean_photon": photons,
    }
    if sorted(report) != sorted(expected):
        return problems + [f"entropy CLI fields {sorted(report)}"]
    for key, want in expected.items():
        got = report[key]
        if np.shape(got) != np.shape(want) or np.any(np.abs(np.subtract(got, want)) > 1e-12 * np.maximum(1.0, np.abs(want))):
            problems.append(f"entropy CLI {key} {got!r} != library {want!r}")
    return problems


def states_round(seed: int, per_size: int) -> list[Op]:
    """``per_size`` random states for each n in STATE_SIZES, each analysed in full."""
    return [
        Op(f"state n={job.n_modes} seed={job.seed}", "states", 1, partial(run_state, job), partial(check_state, job))
        for job in state_jobs(seed, per_size)
    ]


def build_round(workload: str, seed: int, scale: dict, workdir: Path) -> list[Op]:
    if workload == "curves":
        return curves_round(seed, scale["steps"], workdir)
    if workload == "campaign":
        return campaign_round(seed, scale["trials"], scale["instances"])
    return states_round(seed, scale["per_size"])
