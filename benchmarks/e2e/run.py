#!/usr/bin/env python3
"""The end-to-end benchmark: one command, four workloads, every metric by name.

    python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
        one run (one process, one workload); the last stdout line is the
        driver's JSON object
    python benchmarks/e2e/run.py --seed S [--runs R] [--seconds T] [--out SET.json]
        a set: every workload R times, interleaved, each run its own
        process, plus one traced run per workload; prints every metric
    python benchmarks/e2e/run.py compare A.json B.json
        one row per (metric, workload) with its verdict
    python benchmarks/e2e/run.py --smoke
        tiny volumes, all four workloads, all checks, traced; < 60 s
    python benchmarks/e2e/run.py baseline
        rewrite the baseline table in README.md from results/history.jsonl

See README.md beside this file for the protocol and the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_SEED = 20130817
DEFAULT_SECONDS = 18


def _bootstrap() -> None:
    """Pin the environment, then make ``repro`` and the harness importable.

    Order matters: BLAS reads its thread count when numpy is first imported.
    """
    sys.path.insert(0, str(HERE))
    from harness import protocol

    protocol.CLEARED_ENV = protocol.pin_environment()
    protocol.ALLOCATOR = protocol.pin_allocator()
    protocol.adopt_orphans()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").exists():
        sys.exit(f"{src} holds no repro package: nothing to benchmark")
    sys.path.insert(0, str(src))


def _single(args) -> int:
    from harness.runner import contract_line, run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke
    )
    print(contract_line(result), flush=True)
    return 0 if result["failed"] == 0 else 1


def _smoke(args) -> int:
    from harness.runner import run_workload
    from harness.workloads import WORKLOADS

    failed = 0
    for name in WORKLOADS:
        result = run_workload(name, args.seed, 0.0, trace=True, smoke=True)
        failed += result["failed"]
    print(f"smoke: {'ok' if failed == 0 else f'{failed} failed op(s)'}")
    return 0 if failed == 0 else 1


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in its own process; its result is the newest history line."""
    from harness.protocol import read_history
    from harness.runner import RESULTS_DIR

    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n" if done.stdout else "")
    sys.stderr.write(done.stderr)
    if done.returncode not in (0, 1) or not done.stdout.strip():  # 1: ops failed, result recorded
        raise RuntimeError(f"{' '.join(cmd)} gave no result (exit {done.returncode})")
    result = read_history(RESULTS_DIR / "history.jsonl")[-1]
    if (result["workload"], result["seed"], result["trace"]) != (workload, seed, bool(trace)):
        raise RuntimeError("the newest history line is not this run's")
    return result


def _set(args) -> int:
    from harness import compare, metrics as M
    from harness.workloads import WORKLOADS

    results = []
    for _ in range(args.runs):  # interleaved: a slow minute hits every workload
        for name in WORKLOADS:
            results.append(_child(name, args.seed, args.seconds, 0))
    for name in WORKLOADS:
        results.append(_child(name, args.seed, args.seconds, 1))
    summary = compare.summarise_set(results)
    summary["seed"] = args.seed
    summary["git"] = results[-1]["git"]
    summary["host"] = results[-1]["host"]

    print("\n== set summary: median of per-run medians [min .. max] ==")
    overhead = {}
    for workload, rows in summary["metrics"].items():
        for name, cell in rows.items():
            bound = M.bound_of(name, workload)
            print(
                f"{workload:<17} {name:<16} {cell['value']:>12.6g} {M.unit_of(name):<3} "
                f"[{min(cell['runs']):.6g} .. {max(cell['runs']):.6g}] "
                f"spread {compare.spread(cell['runs']):.3f} "
                + ("ungated" if bound is None else f"bound {bound:.2f}")
            )
        traced = next(r for r in results if r["trace"] and r["workload"] == workload)
        overhead[workload] = traced["end_to_end"]["wall_s"]["value"] / rows["wall_s"]["value"] - 1
        print(
            f"{workload:<17} telemetry.trace_overhead_frac {overhead[workload]:+.4f}   "
            f"trace.unattributed_frac {traced['per_layer']['trace.unattributed_frac']:.4f}   "
            f"failed_fraction {summary['failed_fraction'][workload]:g}"
        )
    summary["trace_overhead_frac"] = overhead
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        print(f"set written to {args.out}")
    return 0 if not any(summary["failed_fraction"].values()) else 1


def _compare(args) -> int:
    from harness import compare

    base, new = (json.loads(Path(p).read_text()) for p in args.sets)
    if base.get("seed") != new.get("seed"):  # exact counts only repeat per seed
        base["counts"] = new["counts"] = {w: [{}] for w in base["counts"]}
    rows = compare.compare_sets(base, new)
    print(compare.render_rows(rows))
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    print(f"{len(rows)} rows, {len(bad)} regressed or unresolved")
    return 1 if bad else 0


def _baseline(args) -> int:
    from harness.report import rewrite_baseline

    rewrite_baseline(HERE / "README.md", HERE / "results" / "history.jsonl")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=("compare", "baseline"))
    parser.add_argument("sets", nargs="*", help="compare: base set, new set")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    _bootstrap()
    from harness.workloads import WORKLOADS

    if args.command == "compare":
        if len(args.sets) != 2:
            parser.error("compare takes exactly two set files")
        return _compare(args)
    if args.command == "baseline":
        return _baseline(args)
    if args.workload is not None:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return _single(args)
    if args.smoke:
        return _smoke(args)
    return _set(args)


def _stop_children() -> None:
    """Leave no process behind, whichever way ``main`` ended."""
    protocol = sys.modules.get("harness.protocol")
    if protocol is not None:
        protocol.stop_child_processes()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_children()
    sys.exit(code)
