"""Benchmark for gausscap: bound curves, EPI campaigns and n-mode state analysis.

    python3 bench/run.py --workload curves --seed 1 --seconds 15 --trace 0

runs from the root of a source checkout and imports gausscap from its
``src/`` directory.  One process runs the workload's operations back to
back (a closed loop) in whole rounds until ``--seconds`` of operation time
have passed; smaller rounds of the other two workloads are interleaved, so
that every end-to-end metric is measured in every run.  The first time each
operation succeeds, its output is checked against independent computations;
later rounds must reproduce it exactly.  Timings are gauged against a
calibration kernel (see below).  ``--trace 1`` reports the per-layer
metrics instead, from spans recorded around gausscap's public functions.
The last line of stdout is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("curves", "campaign", "states")
MAIN_SCALE = {"curves": {"steps": 41}, "campaign": {"trials": 100, "instances": 5}, "states": {"per_size": 2}}
REF_SCALE = {"curves": {"steps": 5}, "campaign": {"trials": 25, "instances": 2}, "states": {"per_size": 2}}
QUICK_SCALE = {"curves": {"steps": 3}, "campaign": {"trials": 4, "instances": 1}, "states": {"per_size": 1}}
# Reference rounds per run; the cheap ones get more, for a steadier median.
REF_ROUNDS = {"curves": 8, "campaign": 12, "states": 12}
# The 16-mode states call multi-threaded BLAS, whose threads fall asleep
# during the other workloads' rounds but stay awake in the states main
# loop; so each reference visit to states starts with one untimed round.
WARM_REFERENCE = {"states"}
SETUP_RUNS = 5
IMPORT_RUNS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fig2_s": "s",
    "points_per_s": "points/s",
    "trials_per_s": "trials/s",
    "cqepi_trials_per_s": "trials/s",
    "states_per_s": "states/s",
}
FAMILIES = ("qepi-bs", "qepi-amp", "cqepi-bs", "cqepi-amp", "moe-chain-bs", "wc-chain-bs")
PER_LAYER = {
    "core.covariance_us": "us",
    "core.covariance_per_op": "count",
    **{f"core.random_state_us.n{n}": "us" for n in (1, 2, 4, 8, 16)},
    "core.entropy_us": "us",
    "core.conditional_entropy_us": "us",
    "core.symplectic_eigenvalues_us": "us",
    "core.purify_us": "us",
    "core.williamson_us": "us",
    "channels.apply_channel_us": "us",
    "channels.weak_complementary_us": "us",
    "channels.complementary_us": "us",
    "channels.calls_per_op": "count",
    "capacities.evaluate_bounds_us": "us",
    "capacities.coherent_information_us": "us",
    "capacities.closed_form_us": "us",
    "capacities.coherent_share": "ratio",
    **{f"epi.trial_us.{f}": "us" for f in FAMILIES},
    **{f"epi.check_us.{f}": "us" for f in FAMILIES},
    "epi.workers_speedup": "ratio",
    "cli.self_ms.fig2": "ms",
    "cli.self_ms.bounds": "ms",
    "cli.self_ms.verify_epi": "ms",
    "cli.entropy_ms": "ms",
    "setup.import_s.numpy": "s",
    "setup.import_s.scipy": "s",
    "setup.import_s.gausscap": "s",
    "trace.overhead_ratio": "ratio",
}

# A fresh interpreter imports gausscap and evaluates one bound point, so
# import work moved into a first call still counts as set-up.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import gausscap as gc; "
    "gc.evaluate_bounds(gc.ChannelSpec.beam_splitter(0.85, gc.thermal_state(1.0)), 1.0)"
)


# The machine's speed is gauged by a fixed kernel of small numpy linear
# algebra and Python calls, like gausscap's own mix, that takes
# CALIBRATION_S on a quiet 2-core host.  Neighbours on a shared host slow
# whole seconds of a run by up to 1.9x, so each timing is divided by the
# mean slowdown the kernel saw just before, during and just after it
# (README.md, "Statistics").  Readings between operations are the median
# of GAUGE_REPEATS kernel runs, at most GAUGE_EVERY_S of operation time
# apart; during an operation a timer signal takes one kernel run every
# TICK_S, and its time is subtracted from the operation's.
CALIBRATION_S = 1.0e-3
GAUGE_REPEATS = 5
GAUGE_EVERY_S = 0.05
TICK_S = 0.02
_GAUGE_MATRIX = np.arange(16.0).reshape(4, 4) / 7.0 + np.eye(4)


def _kernel() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(60):
        eig = np.linalg.eigvals(_GAUGE_MATRIX @ _GAUGE_MATRIX.T)
        acc += float(np.sort(np.abs(eig))[0]) + math.log1p(i)
        acc += sum({"i": i, "acc": acc}.values()) * 1e-9
    return time.perf_counter() - start


def gauge() -> float:
    """The calibration kernel's time now: median of GAUGE_REPEATS runs."""
    return statistics.median(_kernel() for _ in range(GAUGE_REPEATS))


class GaugeDuring:
    """Kernel readings taken by SIGALRM while the block runs (main thread only)."""

    def __init__(self, active: bool) -> None:
        self.active, self.readings, self.spent = active, [], 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.readings.append(_kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "GaugeDuring":
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *_exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "gausscap" / "__init__.py").is_file():
        sys.exit(f"bench: gausscap sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gausscap

    if Path(gausscap.__file__).resolve().parent != (SRC / "gausscap").resolve():
        sys.exit(f"bench: imported gausscap from {gausscap.__file__}, not from {SRC}")


def fresh_interpreter(*flags: str) -> tuple[float, str]:
    """Wall time and stderr of a new interpreter running SETUP_CODE."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return elapsed, proc.stderr


def same(a, b) -> bool:
    """Exact equality of operation outputs (strings, floats, arrays, containers)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


@dataclass
class Round:
    ops: list
    times: list[float]  # wall seconds per operation
    norm: list[float]  # the same, divided by the machine slowdown gauged around it
    status: list[str]  # "ok", "failed" (raised or nonzero exit) or "wrong" (output rejected)
    traced: bool
    spans: range

    @property
    def elapsed(self) -> float:
        return sum(self.times)

    def norm_of(self, group: str) -> float:
        return sum(t for op, t in zip(self.ops, self.norm) if op.group == group)


class RoundRunner:
    """Runs one round of operations repeatedly and judges every output.

    The first successful output of each operation goes through its check;
    once accepted it becomes the reference that later rounds must equal.
    """

    def __init__(self, ops: list, label: str) -> None:
        self.ops, self.label = ops, label
        self.reference: list = [None] * len(ops)
        self.reported: set[tuple[int, str]] = set()

    def _report(self, i: int, kind: str, lines: list[str]) -> None:
        if (i, kind) not in self.reported:
            self.reported.add((i, kind))
            print(f"[{self.label}] {kind}: {self.ops[i].name}", file=sys.stderr)
            for line in lines[:5]:
                print(f"    {line}", file=sys.stderr)

    def run(self, traced: bool, tracer) -> Round:
        first_span = len(tracer.spans) if tracer else 0
        outputs, times, errors, windows, during = [], [], [], [], []
        readings = [(time.perf_counter(), gauge())]  # (when taken, kernel seconds)
        if traced:
            tracer.install()
        try:
            for op in self.ops:
                if time.perf_counter() - readings[-1][0] >= GAUGE_EVERY_S:
                    readings.append((time.perf_counter(), gauge()))
                # The signal would compete with --workers threads for the
                # interpreter lock, so that operation is only gauged around.
                with GaugeDuring(op.group != "parallel") as sampler:
                    start = time.perf_counter()
                    try:
                        out, err = op.run(), None
                    except Exception as exc:  # the operation failed; count it and go on
                        out, err = None, f"{type(exc).__name__}: {exc}"
                    end = time.perf_counter()
                times.append(end - start - sampler.spent)
                windows.append((start, end))
                during.append(sampler.readings)
                outputs.append(out)
                errors.append(err)
        finally:
            if traced:
                tracer.uninstall()
        readings.append((time.perf_counter(), gauge()))
        norm = []
        for (start, end), seconds, inside in zip(windows, times, during):
            before = next(g for when, g in reversed(readings) if when <= start)
            after = next(g for when, g in readings if when >= end)
            norm.append(seconds * CALIBRATION_S / statistics.fmean([before, *inside, after]))
        status = []
        for i, op in enumerate(self.ops):
            if errors[i] is not None:
                self._report(i, "failed", [errors[i]])
                status.append("failed")
                continue
            if self.reference[i] is None:
                problems = op.check(outputs[i], outputs)
                if not problems:
                    self.reference[i] = outputs[i]
            elif not same(outputs[i], self.reference[i]):
                problems = ["output differs from the accepted output of an earlier round"]
            else:
                problems = []
            if problems:
                self._report(i, "wrong output", problems)
            status.append("wrong" if problems else "ok")
        span_range = range(first_span, len(tracer.spans)) if traced else range(0)
        return Round(self.ops, times, norm, status, traced, span_range)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rate(rounds: list[Round], groups: set[str]) -> float:
    """Units per second of a typical round of the operations in ``groups``.

    Each operation's time is the median over the rounds of its gauged
    time; its units are counted for the rounds in which it succeeded.
    """
    if not rounds:
        return 0.0
    units = seconds = 0.0
    for i, op in enumerate(rounds[0].ops):
        if op.group in groups:
            seconds += _median(r.norm[i] for r in rounds)
            units += op.units * sum(r.status[i] == "ok" for r in rounds) / len(rounds)
    return units / seconds if seconds else 0.0


def end_to_end(rounds_of: dict[str, list[Round]], setup: list[float]) -> dict[str, float]:
    curves, campaign, states = (rounds_of[w] for w in WORKLOADS)
    return {
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fig2_s": _median(r.norm_of("fig2") for r in curves),
        "points_per_s": _rate(curves, {"fig2", "bounds"}),
        "trials_per_s": _rate(campaign, {"trials", "conditional"}),
        "cqepi_trials_per_s": _rate(campaign, {"conditional"}),
        "states_per_s": _rate(states, {"states"}),
    }


def workers_speedup(rounds: list[Round]) -> float:
    """(cqepi-bs time with --workers 1) / (time with --workers nproc), medians over rounds."""
    if not rounds:
        return 0.0
    names = [op.name for op in rounds[0].ops]
    serial = names.index("verify-epi cqepi-bs")
    parallel = next(i for i, name in enumerate(names) if name.startswith("verify-epi cqepi-bs --workers"))
    return _median(r.times[serial] for r in rounds) / _median(r.times[parallel] for r in rounds)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    tracer = tracing.Tracer() if trace else None
    try:
        runner = RoundRunner(workloads.build_round(workload, seed, (QUICK_SCALE if quick else MAIN_SCALE)[workload],
                                                   workdir), workload)
        others = {}
        for other in WORKLOADS:
            if other != workload:
                scale = (QUICK_SCALE if quick else REF_SCALE)[other]
                ops = [op for op in workloads.build_round(other, seed, scale, workdir) if not op.kept_failing]
                others[other] = RoundRunner(ops, f"{workload}/reference {other}")

        # Side measurements (set-up interpreters and the reference rounds of
        # the other workloads) are spread evenly over the main loop, so a
        # slow spell on the machine does not fall on one kind of sample.
        setup, imports = [], []
        rounds_of: dict[str, list[Round]] = {other: [] for other in others}
        counts = {"setup": IMPORT_RUNS if trace else SETUP_RUNS, **{o: REF_ROUNDS[o] for o in others}}
        if quick:
            counts = dict.fromkeys(counts, 1)
        side = [task for k in range(max(counts.values())) for task in counts if k < counts[task]]

        def run_side(task: str) -> None:
            if task in WARM_REFERENCE:
                others[task].run(trace, tracer)
            if task != "setup":
                rounds_of[task].append(others[task].run(trace, tracer))
            elif trace:
                imports.append(tracing.import_times(fresh_interpreter("-X", "importtime")[1]))
            else:
                before = gauge()
                with GaugeDuring(True) as sampler:  # ticks run beside the child, not in its time
                    seconds_taken = fresh_interpreter()[0]
                setup.append(seconds_taken * CALIBRATION_S / statistics.fmean([before, *sampler.readings, gauge()]))

        fresh_interpreter()  # compiles bytecode, so the timed interpreters start alike
        for _ in range(4):  # the first linear-algebra calls load and warm LAPACK
            gauge()
        main: list[Round] = []
        done = 0
        # Traced runs alternate untraced and traced main rounds, so the
        # tracing overhead is measured on the same work.
        while not main or (trace and len(main) < 2) or sum(r.elapsed for r in main) < seconds:
            main.append(runner.run(trace and len(main) % 2 == 1, tracer))
            elapsed = sum(r.elapsed for r in main)
            while done < len(side) and elapsed >= done * seconds / len(side):
                run_side(side[done])
                done += 1
        for task in side[done:]:
            run_side(task)

        statuses = [s for r in main for s in r.status]
        reference_ok = all(s == "ok" for rounds in rounds_of.values() for r in rounds for s in r.status)
        result = {
            "correct": reference_ok and "wrong" not in statuses,
            "attempted": len(statuses),
            "failed": sum(s != "ok" for s in statuses),
        }
        rounds_of[workload] = [r for r in main if not r.traced]
        samples = {"setup_s": setup, **{
            w: {op.name: {"wall": [r.times[i] for r in rounds], "gauged": [r.norm[i] for r in rounds]}
                for i, op in enumerate(rounds[0].ops)}
            for w, rounds in rounds_of.items() if rounds
        }}
        (OUT / f"samples-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(samples))
        if not trace:
            values = end_to_end(rounds_of, setup)
            result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            return result

        traced = [r for r in main if r.traced]
        units = sum(op.units for r in traced for op, s in zip(r.ops, r.status) if s == "ok")
        values = tracing.layer_metrics(tracer.spans, [r.spans for r in traced], units)
        values["epi.workers_speedup"] = workers_speedup(rounds_of["campaign"])
        values["trace.overhead_ratio"] = _median(sum(r.norm) for r in traced) / _median(
            sum(r.norm) for r in main if not r.traced)
        for package in ("numpy", "scipy", "gausscap"):
            values[f"setup.import_s.{package}"] = _median(t[package] for t in imports)
        tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="operation time of the main loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny rounds, one of each (for the benchmark's tests)")
    args = parser.parse_args(argv)
    load_program()
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(f"workload {args.workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
