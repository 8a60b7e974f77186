"""One run: one process executing one workload once, under the fixed protocol."""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

from . import metrics as M
from .micro import copy_bandwidth
from .protocol import (
    append_history,
    git_state,
    host_fingerprint,
    peak_rss_mb,
    summarize,
    utc_now,
)
from .tracing import (
    NAME, OP, START, NullTracer, Tracer, aggregate, save_chrome_trace, span_cost_s,
)
from .workloads import WORKLOADS
from .workloads.base import Timed, inputs_digest

__all__ = ["RunData", "run_workload", "contract_line", "E2E_DIR", "RESULTS_DIR"]

E2E_DIR = Path(__file__).resolve().parent.parent
RESULTS_DIR = E2E_DIR / "results"
EXPECTED_COUNTS = E2E_DIR / "expected_counts.json"

#: Layers whose self time makes up the budget shares.
_SHARE_LAYERS = ("dirac", "solvers", "serve", "store", "comm", "hmc", "campaign")

#: A run stops measuring by itself long before the driver's 180 s limit.
_HARD_STOP_S = 120.0

#: A run measures past ``--seconds`` until every op type has this many
#: samples: a quartile of fewer is one sample's word.
_MIN_SAMPLES = 5


class RunData:
    """Everything a run measured, with the lookups layer metrics need."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.first: dict[str, object] = {}
        self.first_counters: dict[str, dict] = {}
        self.agg: dict[str, dict] = {}
        self.micro: dict[str, float] = {}
        self.spans: list[list] = []
        self.op_types: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- span lookups (traced run) ---------------------------------------------

    def cell(self, op_type: str, name: str) -> dict:
        blank = {"layer": None, "self": 0.0, "total": 0.0, "calls": 0}
        return self.agg.get(op_type, {}).get("spans", {}).get(name, blank)

    def calls(self, op_type: str, name: str) -> int:
        return self.cell(op_type, name)["calls"]

    def mean_self(self, op_type: str, name: str) -> float:
        cell = self.cell(op_type, name)
        return cell["self"] / cell["calls"] if cell["calls"] else 0.0

    def mean_total(self, op_type: str, name: str) -> float:
        cell = self.cell(op_type, name)
        return cell["total"] / cell["calls"] if cell["calls"] else 0.0

    def self_per_op(self, op_type: str, name: str) -> float:
        ops = self.agg.get(op_type, {}).get("ops", 0)
        return self.cell(op_type, name)["self"] / ops if ops else 0.0

    def queue_wait(self, op_type: str) -> float:
        """Mean time from a ``serve.submit`` start to the next flush start."""
        waits = []
        pending: list[float] = []
        for rec in self.spans:
            if self.op_types[rec[OP]] != op_type:
                continue
            if rec[NAME] == "serve.submit":
                pending.append(rec[START])
            elif rec[NAME] == "serve.flush":
                waits.extend(rec[START] - t for t in pending)
                pending = []
        return sum(waits) / len(waits) if waits else 0.0

    def note_failure(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)


def _counter_delta(before: dict, after: dict) -> dict:
    delta = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
    delta["applies"] = sum(v for k, v in delta.items() if k.startswith("applies/"))
    return delta


def _measure(workload, state, tracer, run: RunData, seconds: float, min_samples: int) -> None:
    """The closed loop: one client, next op only after the previous returns."""
    from repro.telemetry.registry import get_registry

    roots = {t.name: t.root_layer for t in workload.op_types}
    progress = dict.fromkeys(roots, 0)  # samples (or failed attempts) per op type
    registry = get_registry()
    t_start = time.perf_counter()
    for op in workload.schedule(state):
        first = tracer.enabled and op.type not in run.first
        before = dict(registry.counters()) if first else None
        result = None
        error = None
        tracer.begin_op(op.type, roots[op.type])
        t0 = time.perf_counter()
        try:
            result = op.fn()
        except Exception:  # a failed op is a data point, not a crash
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        tracer.end_op()
        run.attempted += 1
        if error is not None:
            run.note_failure(f"{op.type} raised:\n{error}")
            progress[op.type] += 1
        else:
            samples = [elapsed]
            if isinstance(result, Timed):
                samples, result = result.samples, result.result
            run.samples.setdefault(op.type, []).extend(samples)
            progress[op.type] += len(samples)
            if op.type not in run.first:
                run.first[op.type] = result
                if before is not None:
                    run.first_counters[op.type] = _counter_delta(
                        before, dict(registry.counters())
                    )
            try:
                ok = op.check(result)
            except Exception:
                ok = False
                traceback.print_exc()
            if not ok:
                run.note_failure(f"{op.type} failed verification")
        spent = time.perf_counter() - t_start
        enough = min(progress.values()) >= min_samples
        if spent >= _HARD_STOP_S or (spent >= seconds and enough):
            break


def _pinned_counts(workload_name: str, seed: int, smoke: bool) -> dict:
    doc = json.loads(EXPECTED_COUNTS.read_text())
    section = doc["smoke"] if smoke else doc["full"]
    pinned = dict(section.get("any_seed", {}).get(workload_name, {}))
    pinned.update(section.get("seeds", {}).get(str(seed), {}).get(workload_name, {}))
    return pinned


def _shares(run: RunData) -> dict[str, float]:
    wall = sum(bucket["wall"] for bucket in run.agg.values())
    totals = dict.fromkeys(
        ("kernels_single", "kernels_batch", "unattributed", *_SHARE_LAYERS), 0.0
    )
    for bucket in run.agg.values():
        for name, cell in bucket["spans"].items():
            layer = cell["layer"]
            if layer == "kernels":
                key = "kernels_batch" if name.endswith("_batch") else "kernels_single"
            elif layer in _SHARE_LAYERS:
                key = layer
            else:
                key = "unattributed"
            totals[key] += cell["self"]
    return {k: (v / wall if wall else 0.0) for k, v in totals.items()}


def _budget_table(run: RunData) -> str:
    """Per op type: where the wall clock went, layer by layer (self time)."""
    lines = ["layer budget (self time per op, share of op wall):"]
    for op_type, bucket in run.agg.items():
        ops, wall = bucket["ops"], bucket["wall"]
        lines.append(f"  {op_type}: {ops} ops, {wall / ops:.6f} s/op")
        rows = sorted(bucket["spans"].items(), key=lambda kv: -kv[1]["self"])
        for name, cell in rows:
            share = cell["self"] / wall if wall else 0.0
            if share < 0.001:
                continue
            lines.append(
                f"    {name:<34} {cell['layer'] or '-':<9} "
                f"{cell['self'] / ops:>11.6f} s {100 * share:>6.1f} %  "
                f"({cell['calls'] / ops:.1f} calls/op)"
            )
    return "\n".join(lines)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
) -> dict:
    """Generate inputs, set up, measure, verify, record; returns the result."""
    from repro.telemetry import full_reset, telemetry_mode

    workload = WORKLOADS[name]()
    workdir = RESULTS_DIR / "tmp" / f"{name}-{seed}-{int(trace)}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if trace else NullTracer()
    run = RunData()
    full_reset()
    mode = telemetry_mode("counters") if trace else contextlib.nullcontext()
    try:
        with mode:
            host = host_fingerprint()
            t0 = time.perf_counter()
            inputs = workload.generate(seed, smoke)
            inputgen_s = time.perf_counter() - t0
            digest = inputs_digest(inputs)

            setup_times = []
            state = None
            for k in range(workload.setup_repeats):
                if state is not None:
                    workload.teardown(state)
                t0 = time.perf_counter()
                state = workload.setup(inputs, tracer, workdir / f"setup{k}")
                setup_times.append(time.perf_counter() - t0)
            try:
                micro = run.micro = workload.micro(inputs, state, workdir) if trace else {}
                _measure(workload, state, tracer, run, seconds, 1 if smoke else _MIN_SAMPLES)
                run.spans, run.op_types = tracer.spans, tracer.op_types
                if trace:
                    run.agg = aggregate(run.spans, run.op_types)
                counts, layer = {}, {}
                # An op type that raised every time is in ``failed`` already;
                # counts and layer metrics need one completed op of each type.
                if all(t.name in run.samples for t in workload.op_types):
                    counts = workload.counts(state, run)
                    for what, ok, detail in workload.final_checks(state, run):
                        run.attempted += 1
                        if not ok:
                            run.note_failure(f"check {what}: {detail}")
                    for key, want in _pinned_counts(name, seed, smoke).items():
                        run.attempted += 1
                        if counts.get(key) != want:
                            run.note_failure(
                                f"pinned count {key}: expected {want!r}, got {counts.get(key)!r}"
                            )
                    if trace:
                        layer = workload.layer_metrics(state, run)
                if trace:  # after everything timed: see copy_bandwidth
                    layer.update(copy_bandwidth())
            finally:
                workload.teardown(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # leave no empty scratch directory
            workdir.parent.rmdir()

    # -- the numbers -------------------------------------------------------------
    latencies = {}
    wall_s = wall_p50_s = 0.0
    for op_type in workload.op_types:
        if op_type.name not in run.samples:
            continue
        stats = summarize(run.samples[op_type.name])
        latencies[op_type.metric] = stats
        wall_s += op_type.count * stats["low"]
        wall_p50_s += op_type.count * stats["value"]
    end_to_end = {  # peak RSS is read before git_state() forks a child
        "setup_s": summarize(setup_times),
        "wall_s": {"value": wall_s, "at_p50": wall_p50_s},
        "peak_rss_mb": {"value": peak_rss_mb()},
    }
    failed_fraction = run.failed / run.attempted
    per_layer = {}
    if trace:
        per_layer.update(micro)
        per_layer.update(layer)
        # The roofline fraction needs a bandwidth measured in this run, on
        # arrays the cache cannot hold; without one it is not published.
        bw = per_layer["machine.copy_bw_gbps"]
        per_layer["kernels.frac_of_bw_bound"] = (
            per_layer["kernels.gflops_nominal"] / (per_layer["kernels.ai_computed"] * bw)
            if bw > 0
            else 0.0
        )
        shares = _shares(run)
        for key, value in shares.items():
            if key != "unattributed":
                per_layer[f"share.{key}"] = value
        op_wall = sum(bucket["wall"] for bucket in run.agg.values())
        per_layer["trace.unattributed_frac"] = shares["unattributed"]
        per_layer["trace.spans"] = len(run.spans)
        per_layer["dirac.applies"] = sum(c["applies"] for c in run.first_counters.values())
        per_layer["telemetry.span_overhead_frac"] = (
            len(run.spans) * span_cost_s() / op_wall if op_wall else 0.0
        )
        per_layer["failed_fraction"] = failed_fraction
        for metric, stats in latencies.items():
            per_layer[metric] = stats["value"]
        unknown = set(per_layer) - set(M.per_layer_names())
        if unknown:
            raise KeyError(f"layer metrics not in the catalogue: {sorted(unknown)}")
        save_chrome_trace(RESULTS_DIR / f"trace_{name}.json", run.spans, run.op_types)

    result = {
        "schema": 1,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "smoke": bool(smoke),
        "utc": utc_now(),
        "git": git_state(E2E_DIR),
        "host": host,
        "inputs_sha256": digest,
        "inputgen_s": inputgen_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": [f.splitlines()[0] for f in run.failures],
        "failed_fraction": failed_fraction,
        "end_to_end": end_to_end,
        "latencies": latencies,
        "per_layer": per_layer,
        "counts": counts,
    }
    if not smoke:  # smoke runs are checks, not measurements
        append_history(RESULTS_DIR / "history.jsonl", result)
    print(render(result))
    if trace:
        print(_budget_table(run))
    return result


def render(result: dict) -> str:
    """Every metric by name with its unit, one per line."""
    lines = [
        f"== {result['workload']} seed={result['seed']} "
        f"{'traced' if result['trace'] else 'untraced'} "
        f"sha={str(result['git']['sha'])[:12]} dirty={result['git']['dirty']} "
        f"kernel={result['host']['kernel']} batch_cap={result['host']['batch_cap']} "
        f"nproc={result['host']['nproc']}",
        f"   inputs sha256 {result['inputs_sha256'][:16]}  generated in "
        f"{result['inputgen_s']:.2f} s; {result['attempted']} ops attempted, "
        f"{result['failed']} failed",
    ]

    def row(name: str, stats: dict) -> str:
        text = f"   {name:<34} {stats['value']:>14.6g} {M.unit_of(name):<8}"
        if "n" in stats:
            text += f" q1={stats['q1']:.6g} q3={stats['q3']:.6g} n={stats['n']}"
        if "tail" in stats:
            text += f" p{stats['tail_pct']:g}={stats['tail']:.6g}"
        if "at_p50" in stats:
            text += f" (list at p50 latencies: {stats['at_p50']:.6g})"
        return text

    for name, stats in result["end_to_end"].items():
        lines.append(row(name, stats))
    lines.append(
        f"   {'failed_fraction':<34} {result['failed_fraction']:>14.6g} ratio"
    )
    for name, stats in result["latencies"].items():
        lines.append(row(name, stats))
    latency_names = set(result["latencies"])
    for name in M.per_layer_names():
        if name in result["per_layer"] and name not in latency_names:
            lines.append(row(name, {"value": result["per_layer"][name]}))
    return "\n".join(lines)


def contract_line(result: dict) -> str:
    """The driver's last-line JSON: exactly the metrics BENCHMARK.json lists."""
    if result["trace"]:
        values = {n: result["per_layer"].get(n, 0.0) for n in M.per_layer_names()}
    else:
        values = {n: result["end_to_end"][n]["value"] for n, *_ in M.END_TO_END}
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {
                n: {"value": float(v), "unit": M.unit_of(n)} for n, v in values.items()
            },
        }
    )
