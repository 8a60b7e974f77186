"""Capture and diff telemetry snapshots — the perf-regression gate.

Usage::

    # run the deterministic smoke workload and save its counters
    python -m repro.tools.perf_report capture --out metrics.json

    # hold a snapshot to a stored baseline (CI: exit 1 on regression)
    python -m repro.tools.perf_report diff metrics.json \\
        --baseline tests/data/perf_baseline.json --rtol 0.1

    # human-readable dump of any snapshot
    python -m repro.tools.perf_report show metrics.json

``capture`` runs a small fixed workload — Wilson and domain-wall operator
applications, a CG solve on the normal equations, an SPMD solve over the
virtual communicator, and a plaquette sweep — under
``REPRO_TELEMETRY=counters`` and saves the registry snapshot with all
wall-clock-derived counters (``time/...``) stripped, leaving only nominal
counts: flops, sites, applies, halo bytes, collectives, iterations.
Those are invariants of the *code*, not the machine, so a diff against a
committed baseline catches silent cost growth (an extra operator apply
per iteration, doubled halo traffic, a dropped fused path) the moment a
PR introduces it.  ``--rtol`` absorbs the one legitimately
platform-sensitive family, solver iteration counts.

Exit codes: 0 clean, 1 regressions found, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["main", "build_parser", "capture_snapshot"]


def capture_snapshot() -> dict:
    """Run the deterministic smoke workload; return its counter snapshot.

    Everything is seeded and the virtual comm backend is used explicitly,
    so two runs of this function on any machine produce identical counters
    up to solver iteration counts (floating-point accumulation order can
    shift an iteration across platforms — hence ``diff --rtol``).
    """
    import numpy as np

    from repro import telemetry
    from repro.comm import VirtualComm
    from repro.comm.rankgrid import RankGrid
    from repro.dirac import DomainWallDirac, WilsonDirac
    from repro.dirac.decomposed import DecomposedWilsonDirac
    from repro.fields import GaugeField, random_fermion
    from repro.lattice import Lattice4D
    from repro.loops import average_plaquette
    from repro.solvers import cg
    from repro.solvers.spmd import cg_spmd

    lat = Lattice4D((4, 4, 4, 4))
    gauge = GaugeField.warm(lat, eps=0.3, rng=41)
    with telemetry.telemetry_mode("counters"):
        telemetry.full_reset()
        # Wilson: forward applies + a normal-equations CG solve.
        wilson = WilsonDirac(gauge, mass=0.2)
        psi = random_fermion(lat, rng=42)
        out = np.empty_like(psi)
        for _ in range(4):
            wilson(psi, out=out)
        rhs = wilson.apply_dagger(psi)
        cg(wilson.normal_op(), rhs, tol=1e-8, max_iter=2000, guard="off")
        # Domain wall: forward applies.
        dwf = DomainWallDirac(gauge, mf=0.04, ls=4)
        psi5 = (
            np.random.default_rng(43).normal(size=dwf.field_shape())
            + 1j * np.random.default_rng(44).normal(size=dwf.field_shape())
        )
        out5 = np.empty_like(psi5)
        for _ in range(2):
            dwf(psi5, out=out5)
        # SPMD solve over the virtual backend: halo + collective counters.
        comm = VirtualComm(RankGrid((1, 1, 2, 2)))
        dop = DecomposedWilsonDirac(gauge, mass=0.2, comm=comm)
        cg_spmd(dop, psi, tol=1e-6, max_iter=2000, guard="off")
        # Coalesced multi-RHS solve through the serve queue (synchronous
        # flush: no coalesce-wait wall clock, so the ``serve/*`` and
        # ``batch/*`` counters are deterministic nominal counts).
        from repro.fields import point_source
        from repro.serve import SolveQueue

        queue = SolveQueue(max_nrhs=3)
        futures = [
            queue.submit(wilson, point_source(lat, (0, 0, 0, 0), spin=s, color=c))
            for s, c in ((0, 0), (0, 1), (1, 2), (3, 0))
        ]
        queue.flush()
        for f in futures:
            f.result(timeout=0)
        # Plaquette sweep.
        average_plaquette(gauge.u)
        snap = telemetry.snapshot()
        telemetry.full_reset()
    # Wall-clock counters are measurements, not invariants.
    snap["counters"] = {
        k: v
        for k, v in snap["counters"].items()
        if not (k.startswith("time/") or k.startswith("calls/"))
    }
    snap["histograms"] = {}
    # Keep the kernel-selection gauges (``kernel/<label>/backend/<name>``):
    # ``diff`` only compares counters, but ``show`` needs them to attribute
    # counter movement to the Dslash backend the snapshot was captured with.
    snap["gauges"] = {
        k: v for k, v in snap["gauges"].items() if k.startswith("kernel/")
    }
    return snap


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capture", help="run the smoke workload, save counters")
    cap.add_argument("--out", type=Path, required=True, help="snapshot JSON path")

    diff = sub.add_parser("diff", help="compare a snapshot against a baseline")
    diff.add_argument("current", type=Path, help="snapshot JSON to check")
    diff.add_argument(
        "--baseline", type=Path, required=True, help="stored baseline JSON"
    )
    diff.add_argument(
        "--rtol",
        type=float,
        default=0.0,
        help="relative tolerance per counter (default: exact)",
    )

    show = sub.add_parser("show", help="print a snapshot as a table")
    show.add_argument("snapshot", type=Path)
    return p


def _cmd_capture(args) -> int:
    from repro.telemetry import save_snapshot

    snap = capture_snapshot()
    save_snapshot(args.out, snap)
    print(f"captured {len(snap['counters'])} counters -> {args.out}")
    return 0


def _cmd_diff(args) -> int:
    from repro.telemetry import diff_snapshots, load_snapshot

    try:
        current = load_snapshot(args.current)
        baseline = load_snapshot(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    regressions = diff_snapshots(current, baseline, rtol=args.rtol)
    if not regressions:
        n = len(baseline.get("counters", {}))
        print(f"ok: {n} baseline counters reproduced (rtol {args.rtol:g})")
        return 0
    print(f"{len(regressions)} counter(s) moved outside rtol {args.rtol:g}:")
    for r in regressions:
        print(f"  {r.describe()}")
    return 1


def _cmd_show(args) -> int:
    from repro.telemetry import MetricsRegistry, load_snapshot, report

    try:
        snap = load_snapshot(args.snapshot)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    reg = MetricsRegistry()
    reg.merge(snap)
    print(report(reg))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "capture":
        return _cmd_capture(args)
    if args.command == "diff":
        return _cmd_diff(args)
    return _cmd_show(args)


if __name__ == "__main__":
    raise SystemExit(main())
