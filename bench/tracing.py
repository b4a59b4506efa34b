"""Span tracing around gausscap's layer boundaries, from outside the package.

``Tracer.install`` replaces each traced public function in every gausscap
module namespace that holds it, so callers inside the package see the
wrapper too, and wraps the ``CovarianceMatrix`` constructor.  Each call
records a span (id, parent id, name, tag, start ns, end ns) in memory;
``uninstall`` restores the originals.  Parents are tracked per thread, so
spans from ``verify-epi --workers`` threads start their own trees.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from gausscap import capacities, channels, cli, core, epi


def _n_modes(args, kwargs) -> str:
    return str(args[0] if args else kwargs["n_modes"])


def _campaign(args, kwargs) -> str:
    family = args[0] if args else kwargs["inequality"]
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    return f"{getattr(family, 'value', family)}|{trials}|{kwargs.get('workers', 1)}"


def _command(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else ""


CLOSED_FORMS = (
    "holevo_capacity", "maximal_capacity", "moe_sum_lower",
    "private_capacity_upper_general", "private_capacity_lower_approx",
)
CHECKS = {
    "qepi-bs": "check_qepi_bs", "qepi-amp": "check_qepi_amp", "cqepi-bs": "check_cqepi_bs",
    "cqepi-amp": "check_cqepi_amp", "moe-chain-bs": "check_moe_chain", "wc-chain-bs": "check_wc_chain",
}

# (module, function, tag) for every traced public function.
TARGETS = (
    [(core, name, None) for name in ("entropy", "conditional_entropy", "symplectic_eigenvalues", "purify", "williamson")]
    + [(core, "random_gaussian_state", _n_modes)]
    + [(channels, name, None) for name in ("apply_channel", "weak_complementary", "complementary")]
    + [(capacities, name, None) for name in ("evaluate_bounds", "coherent_information") + CLOSED_FORMS]
    + [(epi, "monte_carlo_verify", _campaign)]
    + [(epi, name, None) for name in CHECKS.values()]
    + [(cli, "main", _command)]
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, tag):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, tag(args, kwargs) if tag else "", start, end))

        return traced

    def install(self) -> None:
        wrappers = {}
        for module, fname, tag in TARGETS:
            original = getattr(module, fname)
            wrappers[id(original)] = (original, self._wrap(f"{module.__name__.split('.')[-1]}.{fname}", original, tag))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gausscap" and not mod_name.startswith("gausscap."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        init = core.CovarianceMatrix.__init__
        self._restore.append((core.CovarianceMatrix, "__init__", init))
        core.CovarianceMatrix.__init__ = self._wrap("core.covariance", init, None)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        """Write the spans as JSON: one [id, parent, name, tag, start_ns, end_ns] per span."""
        path.write_text(json.dumps({"fields": ["id", "parent", "name", "tag", "start_ns", "end_ns"],
                                    "spans": self.spans}))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _covered(start: int, end: int, children: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of the child intervals."""
    total, reach = 0, start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, reach), min(c1, end)
        if c1 > c0:
            total += c1 - c0
            reach = c1
    return total


def layer_metrics(spans, counted: list[range], units: int) -> dict[str, float]:
    """Per-layer timings from all spans; per-operation counts from the spans
    whose list positions fall in ``counted`` (traced main rounds), divided by
    the ``units`` (points, trials or states) those rounds produced."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def us(name, pred=lambda s: True):
        return _mean((s[5] - s[4]) / 1e3 for s in by_name[name] if pred(s))

    out = {f"core.{key}_us": us(f"core.{key}") for key in
           ("covariance", "entropy", "conditional_entropy", "symplectic_eigenvalues", "purify", "williamson")}
    for n in (1, 2, 4, 8, 16):
        out[f"core.random_state_us.n{n}"] = us("core.random_gaussian_state", lambda s, n=str(n): s[3] == n)
    for key in ("apply_channel", "weak_complementary", "complementary"):
        out[f"channels.{key}_us"] = us(f"channels.{key}")

    bounds = by_name["capacities.evaluate_bounds"]
    bound_ids = {s[0] for s in bounds}
    bounds_ns = sum(s[5] - s[4] for s in bounds)
    closed_ns = sum(s[5] - s[4] for name in CLOSED_FORMS for s in by_name[f"capacities.{name}"] if s[1] in bound_ids)
    coherent_ns = sum(s[5] - s[4] for s in by_name["capacities.coherent_information"])
    out["capacities.evaluate_bounds_us"] = us("capacities.evaluate_bounds")
    out["capacities.coherent_information_us"] = us("capacities.coherent_information")
    out["capacities.closed_form_us"] = closed_ns / 1e3 / len(bounds) if bounds else 0.0
    out["capacities.coherent_share"] = coherent_ns / bounds_ns if bounds_ns else 0.0

    campaigns = [(s, s[3].split("|")) for s in by_name["epi.monte_carlo_verify"]]
    for family, fname in CHECKS.items():
        out[f"epi.trial_us.{family}"] = _mean(
            (s[5] - s[4]) / 1e3 / int(trials) for s, (fam, trials, workers) in campaigns
            if fam == family and workers == "1"
        )
        out[f"epi.check_us.{family}"] = us(f"epi.{fname}")

    commands = by_name["cli.main"]
    command_ids = {s[0] for s in commands}
    children = defaultdict(list)
    for span in spans:
        if span[1] in command_ids:
            children[span[1]].append((span[4], span[5]))
    for cmd in ("fig2", "bounds", "verify-epi"):
        own = [s for s in commands if s[3] == cmd]
        out[f"cli.self_ms.{cmd.replace('-', '_')}"] = _mean(
            (s[5] - s[4] - _covered(s[4], s[5], children[s[0]])) / 1e6 for s in own
        )
    out["cli.entropy_ms"] = _mean((s[5] - s[4]) / 1e6 for s in commands if s[3] == "entropy")

    in_main = [spans[i] for r in counted for i in r]
    covariances = sum(1 for s in in_main if s[2] == "core.covariance")
    channel_calls = sum(1 for s in in_main if s[2].startswith("channels."))
    out["core.covariance_per_op"] = covariances / units if units else 0.0
    out["channels.calls_per_op"] = channel_calls / units if units else 0.0
    return out


def import_times(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and gausscap, from ``-X importtime``.

    A package's time is the cumulative time of its outermost import lines
    (those not nested inside another import of the same package).
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line[12:]:
            continue
        _, cumulative, name = line[12:].split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    totals = {"numpy": 0, "scipy": 0, "gausscap": 0}
    stack: list[tuple[int, str]] = []
    for depth, cumulative, name in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if root in totals and all(a.split(".")[0] != root for _, a in stack):
            totals[root] += cumulative
        stack.append((depth, name))
    return {k: v / 1e6 for k, v in totals.items()}

