"""Tests of the benchmark itself: quick runs of every workload, and every
checker fed a deliberately perturbed output, so that no check passes
vacuously.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def bump(text: str, field: str, row: int = 1, factor: float = 1 + 1e-6) -> str:
    """Multiply one CSV field of one data row by ``factor``."""
    lines = text.split("\n")
    col = wl.CURVE_COLUMNS.index(field)
    fields = lines[1 + row].split(",")
    fields[col] = format(float(fields[col]) * factor + (1e-6 if float(fields[col]) == 0 else 0), ".17g")
    lines[1 + row] = ",".join(fields)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the benchmark end to end
# ---------------------------------------------------------------------------

def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quick(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_prints_every_metric(workload, trace):
    proc = quick(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    spec = bench_json()["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # Only the documented kept-failing command may fail: once per curves round.
    if workload == "curves":
        per_round = len(wl.curves_round(7, 3, Path(".")))
        assert result["failed"] * per_round == result["attempted"]
        assert "kappa 1000000.0" in proc.stderr
    else:
        assert result["failed"] == 0


def test_benchmark_json_matches_the_runner():
    spec = bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert run.FAMILIES == wl.FAMILIES == tuple(tracing.CHECKS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = quick("states", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_round_runner_rejects_a_changed_repeat():
    outputs = iter(["a", "a", "b"])
    op = wl.Op("op", "g", 1, lambda: next(outputs), lambda out, _round: [])
    runner = run.RoundRunner([op], "test")
    assert [runner.run(False, None).status[0] for _ in range(3)] == ["ok", "ok", "wrong"]


def test_same_compares_arrays_exactly():
    a = {"x": np.eye(2), "y": [1.0, "s"]}
    assert run.same(a, {"x": np.eye(2), "y": [1.0, "s"]})
    assert not run.same(a, {"x": np.eye(2) + np.diag([2.3e-16, 0.0]), "y": [1.0, "s"]})
    assert not run.same(a, {"x": np.eye(2), "y": [1.0000000000000002, "s"]})


# ---------------------------------------------------------------------------
# curves checkers
# ---------------------------------------------------------------------------

BS = wl.Curve("bs", 0.7, 1.3, 0.0, "csv", "square", 0.5, 40.0, 4)
BS_SQUEEZED = wl.Curve("bs", 0.7, 1.3, 0.8, "json", "half", 0.5, 40.0, 4)
BS_VACUUM = wl.Curve("bs", 0.4, 0.0, 0.0, "csv", "half", 0.5, 40.0, 4)
AMP = wl.Curve("amp", 6.0, 0.5, 0.3, "csv", "square", 0.5, 40.0, 4)


@pytest.fixture(scope="module")
def curves():
    return {c: wl.run_cli(c.argv()) for c in (BS, BS_SQUEEZED, BS_VACUUM, AMP)}


def test_curve_checker_accepts_the_program(curves):
    assert wl.check_curve(BS, curves[BS]) == []
    assert wl.check_curve(BS_SQUEEZED, curves[BS_SQUEEZED], curves[BS]) == []
    assert wl.check_curve(BS_VACUUM, curves[BS_VACUUM]) == []
    assert wl.check_curve(AMP, curves[AMP]) == []


@pytest.mark.parametrize("field", wl.CURVE_COLUMNS[1:])
def test_curve_checker_rejects_a_perturbed_value(curves, field):
    assert wl.check_curve(BS, bump(curves[BS], field))
    assert wl.check_curve(AMP, bump(curves[AMP], field))


def test_curve_checker_rejects_a_perturbed_grid_point(curves):
    assert wl.check_curve(BS, bump(curves[BS], "N"))


def test_curve_checker_rejects_serialization_faults(curves):
    text = curves[BS]
    fields = text.split("\n")[2].split(",")
    short = ",".join([fields[0]] + [format(float(f), ".16g") for f in fields[1:]])
    assert any("17-digit" in p for p in wl.check_curve(BS, text.replace(text.split("\n")[2], short)))
    assert wl.check_curve(BS, "\n".join(text.split("\n")[:-2]) + "\n")  # a row dropped
    assert wl.check_curve(BS, text.replace("coherent_info", "coherent"))
    assert wl.check_curve(BS_SQUEEZED, json.dumps(json.loads(curves[BS_SQUEEZED]), indent=1) + "\n", curves[BS])
    rows = json.loads(curves[BS_SQUEEZED])
    rows[0]["units"] = "bits"
    assert wl.check_curve(BS_SQUEEZED, json.dumps(rows, indent=2) + "\n", curves[BS])


def test_curve_checker_rejects_upper_that_moves_with_squeezing(curves):
    # The partner's upper bound differs by one part in 1e10: below the mpmath
    # tolerance, so only the squeezing-invariance check can catch it.
    partner = bump(curves[BS], "upper", row=2, factor=1 + 1e-10)
    assert wl.check_curve(BS, partner) == []
    problems = wl.check_curve(BS_SQUEEZED, curves[BS_SQUEEZED], partner)
    assert any("squeezing" in p for p in problems)


def test_curve_checker_rejects_upper_above_lower_for_vacuum_noise(curves):
    problems = wl.check_curve(BS_VACUUM, bump(curves[BS_VACUUM], "upper", factor=1 + 1e-10))
    assert any("vacuum" in p for p in problems)


def test_curve_checker_rejects_broken_ordering():
    curve = wl.Curve("bs", 0.5, 1.0, 0.0, "csv", "square", 0.0, 1.0, 2)
    text = wl.run_cli(curve.argv())
    lines = text.split("\n")
    fields = lines[2].split(",")
    fields[2], fields[4] = fields[4], fields[2]  # maximal <-> lower_approx
    lines[2] = ",".join(fields)
    assert any(">=" in p for p in wl.check_curve(curve, "\n".join(lines)))


def test_fig2_and_output_entropy_checkers(tmp_path):
    texts = wl._run_fig2(tmp_path / "fig2")
    assert wl._check_fig2(texts, []) == []
    assert wl._check_fig2((texts[0], bump(texts[1], "holevo", row=50)), [])
    points = [("bs", 0.3, 1.0, 0.5, 2.0), ("amp", 3.0, 0.2, 0.0, 7.0)]
    values = wl._run_output_entropies(points)
    assert wl._check_output_entropies(points, values, []) == []
    values[1] = (values[1][0], values[1][1] * (1 + 1e-6), values[1][2])
    assert wl._check_output_entropies(points, values, [])


# ---------------------------------------------------------------------------
# campaign checkers
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def campaign():
    ops = wl.campaign_round(3, 6, 2)
    return ops, [op.run() for op in ops]


def test_campaign_checkers_accept_the_program(campaign):
    ops, outputs = campaign
    assert all(op.check(out, outputs) == [] for op, out in zip(ops, outputs))


@pytest.mark.parametrize("edit", [
    {"violations": 1}, {"trials": 5}, {"seed": 1}, {"min_slack": -1e-6}, {"tolerance": 1e-8},
    {"inequality": "qepi-amp"}, {"mean_slack": -1.0},
])
def test_report_checker_rejects_a_perturbed_report(campaign, edit):
    ops, outputs = campaign
    report = json.loads(outputs[0]) | edit
    assert ops[0].check(json.dumps(report, indent=2) + "\n", outputs)


def test_report_checker_rejects_reserialized_text(campaign):
    ops, outputs = campaign
    assert ops[0].check(json.dumps(json.loads(outputs[0])) + "\n", outputs)


def test_parallel_report_must_equal_the_serial_one(campaign):
    ops, outputs = campaign
    parallel = len(wl.FAMILIES)
    serial_edit = json.dumps(json.loads(outputs[2]) | {"mean_slack": 0.5}, indent=2) + "\n"
    changed = outputs[:2] + [serial_edit] + outputs[3:]
    assert any("differs" in p for p in ops[parallel].check(outputs[parallel], changed))


@pytest.mark.parametrize("family", wl.FAMILIES)
@pytest.mark.parametrize("side", [0, 1])
def test_direct_checker_rejects_a_perturbed_trial(campaign, family, side):
    ops, outputs = campaign
    i = len(wl.FAMILIES) + 1 + wl.FAMILIES.index(family)
    values = [list(v) for v in outputs[i]]
    values[1][side] *= 1 + 1e-6
    assert ops[i].check([tuple(v) for v in values], outputs)


def test_direct_checker_rejects_a_violation():
    inst = wl.draw_instances("qepi-bs", 1, 1)
    lhs, rhs = oracle.qepi("qepi-bs", *inst[0])
    assert wl.check_direct("qepi-bs", inst, [(lhs, rhs)]) == []
    assert any("violation" in p for p in wl.check_direct("qepi-bs", inst, [(rhs - 1e-6, rhs)]))


# ---------------------------------------------------------------------------
# states checker
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def state():
    job = next(j for j in wl.state_jobs(5, 1) if j.n_modes == 3)
    return job, wl.run_state(job)


def test_state_checker_accepts_the_program(state):
    job, out = state
    assert wl.check_state(job, out) == []


def _perturbed(out: dict, key: str) -> dict:
    out = dict(out)
    if key == "parts":
        out[key] = [(c * (1 + 1e-6) + 1e-6, a, b) for c, a, b in out[key]]
    elif key == "cli":
        report = json.loads(out[key])
        report["entropy_nats"] *= 1 + 1e-9
        out[key] = json.dumps(report)
    elif isinstance(out[key], np.ndarray):
        arr = out[key].copy()
        arr.flat[1] += 1e-6 * max(1.0, abs(arr.flat[1]))
        out[key] = arr
    else:
        out[key] = out[key] * (1 + 1e-6) + 1e-6
    return out


@pytest.mark.parametrize("key", ["entropy", "nu", "parts", "S", "d", "pure", "pure_entropy", "cli"])
def test_state_checker_rejects_a_perturbed_output(state, key):
    job, out = state
    assert wl.check_state(job, _perturbed(out, key))


def test_state_checker_rejects_broken_subadditivity(state):
    job, out = state
    out = dict(out, parts=[(c, a * 0.5, b * 0.5) for c, a, b in out["parts"]])
    assert any("subadditivity" in p for p in wl.check_state(job, out))


# ---------------------------------------------------------------------------
# tracing helpers
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    assert tracing._covered(0, 100, [(10, 30), (20, 40), (90, 120)]) == 40


def test_import_times_take_outermost_lines():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |     scipy.linalg._x",
        "import time:        40 |         50 |   scipy.linalg",
        "import time:        30 |        230 | gausscap",
    ])
    assert tracing.import_times(stderr) == {"numpy": 150e-6, "scipy": 50e-6, "gausscap": 230e-6}


def test_tracer_records_nested_spans_and_restores_the_program():
    import gausscap as gc
    from gausscap import capacities

    original = capacities.coherent_information
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gc.evaluate_bounds(gc.ChannelSpec.beam_splitter(0.5, gc.thermal_state(1.0)), 1.0)
    finally:
        tracer.uninstall()
    assert capacities.coherent_information is original
    names = {s[0]: s[2] for s in tracer.spans}
    parents = {names[s[0]]: names.get(s[1]) for s in tracer.spans}
    assert parents["capacities.coherent_information"] == "capacities.evaluate_bounds"
    assert parents["channels.complementary"] == "capacities.coherent_information"
    assert sum(1 for s in tracer.spans if s[2] == "capacities.coherent_information") == 3
