"""Run, resume, and inspect fault-tolerant campaigns.

Usage::

    # start (or resume — same command) a checkpointed HMC stream
    python -m repro.tools.run_campaign run --dir ./camp \\
        --shape 4 4 4 4 --beta 5.6 --trajectories 50 --checkpoint-interval 5

    # journaled measurement sweep over a stored ensemble
    python -m repro.tools.run_campaign measure --dir ./meas \\
        --ensemble ./ensemble --observable plaquette

    # what happened so far?
    python -m repro.tools.run_campaign status --dir ./camp

A rerun of the exact ``run`` command after a crash (or SIGKILL) resumes
from the last good checkpoint and produces a ledger bit-for-bit identical
to an uninterrupted run.  ``--crash-after K`` SIGKILLs the driver before
trajectory ``K`` — the fault-injection hook the crash-resume CI leg uses.

``--flip-link-at K`` silently flips one bit of a gauge link before
trajectory ``K`` (the SDC fault), and ``--guard LEVEL`` selects the guard
response (default: the ``REPRO_GUARD`` environment variable).  With
``--guard heal`` the corrupted campaign rolls back to its last good
checkpoint and finishes with a ledger bit-for-bit identical to an
unfaulted run; with ``--guard off`` the corruption silently propagates —
the pair of behaviours the guard CI leg asserts.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.campaign import (
    CampaignConfig,
    FaultPlan,
    HMCCampaign,
    MEASUREMENTS,
    MeasurementCampaign,
    RetryPolicy,
    run_resilient,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start or resume a checkpointed HMC stream")
    run.add_argument("--dir", type=Path, required=True, help="campaign directory")
    run.add_argument("--shape", type=int, nargs=4, metavar=("T", "Z", "Y", "X"))
    run.add_argument("--beta", type=float, help="Wilson gauge coupling")
    run.add_argument("--trajectories", type=int, help="total trajectories to reach")
    run.add_argument("--step-size", type=float, default=0.1)
    run.add_argument("--n-steps", type=int, default=10)
    run.add_argument("--integrator", default="leapfrog")
    run.add_argument("--seed", type=int, default=12345)
    run.add_argument("--start", choices=("hot", "cold"), default="hot")
    run.add_argument("--checkpoint-interval", type=int, default=5)
    run.add_argument("--keep-checkpoints", type=int, default=3)
    run.add_argument("--max-retries", type=int, default=3)
    run.add_argument(
        "--crash-after",
        type=int,
        metavar="K",
        help="fault injection: SIGKILL this process before trajectory K",
    )
    run.add_argument(
        "--flip-link-at",
        type=int,
        metavar="K",
        help="fault injection: silently flip one gauge-link bit before trajectory K",
    )
    run.add_argument(
        "--guard",
        choices=("off", "detect", "heal"),
        default=None,
        help="SDC guard level (default: $REPRO_GUARD, else off)",
    )
    run.add_argument("--quiet", action="store_true")
    run.add_argument(
        "--telemetry",
        choices=("off", "counters", "trace"),
        default=None,
        help="telemetry mode for this run (default: $REPRO_TELEMETRY, else off)",
    )

    meas = sub.add_parser("measure", help="journaled measurement sweep")
    meas.add_argument("--dir", type=Path, required=True, help="campaign directory")
    meas.add_argument("--ensemble", type=Path, required=True, help="cfg_*.npz directory")
    meas.add_argument(
        "--observable", default="plaquette", choices=sorted(MEASUREMENTS)
    )
    meas.add_argument("--quiet", action="store_true")

    stat = sub.add_parser("status", help="summarise ledger and checkpoints")
    stat.add_argument("--dir", type=Path, required=True, help="campaign directory")
    stat.add_argument(
        "--metrics",
        action="store_true",
        help="aggregate the telemetry counter deltas journaled per trajectory "
        "(metrics.jsonl, written when REPRO_TELEMETRY is on)",
    )
    return p


def _cmd_run(args) -> int:
    if args.telemetry is not None:
        from repro.telemetry import set_mode

        set_mode(args.telemetry)
    config = None
    if args.shape is not None or args.beta is not None or args.trajectories is not None:
        if args.shape is None or args.beta is None or args.trajectories is None:
            raise SystemExit(
                "either give --shape, --beta and --trajectories together, "
                "or none of them (resume from an existing campaign directory)"
            )
        config = CampaignConfig(
            shape=tuple(args.shape),
            beta=args.beta,
            n_trajectories=args.trajectories,
            step_size=args.step_size,
            n_steps=args.n_steps,
            integrator=args.integrator,
            seed=args.seed,
            start=args.start,
            checkpoint_interval=args.checkpoint_interval,
            keep_checkpoints=args.keep_checkpoints,
        )
    campaign = HMCCampaign(args.dir, config)
    fault = None
    if args.crash_after is not None or args.flip_link_at is not None:
        fault = FaultPlan()
        if args.crash_after is not None:
            fault.sigkill_at(args.crash_after)
        if args.flip_link_at is not None:
            fault.flip_gauge_bit_at(args.flip_link_at)

    progress = None
    if not args.quiet:
        def progress(step, result):  # noqa: E306 - tiny CLI callback
            flag = "acc" if result.accepted else "rej"
            print(
                f"traj {step:5d}: {flag}  dH={result.delta_h:+.3e}  "
                f"plaq={result.plaquette:.6f}"
            )

    summary = run_resilient(
        campaign,
        retry=RetryPolicy(max_retries=args.max_retries),
        fault=fault,
        on_failure=lambda n, e: print(f"attempt {n} failed: {e}; resuming"),
        progress=progress,
        guard=args.guard,
    )
    resumed = (
        f"resumed from trajectory {summary.resumed_from}"
        if summary.resumed_from is not None
        else "fresh start"
    )
    print(
        f"campaign complete: {summary.n_trajectories} trajectories ({resumed}), "
        f"acceptance {summary.acceptance_rate:.2f}, "
        f"final plaquette {summary.final_plaquette:.6f}"
    )
    if summary.skipped_checkpoints:
        print(f"warning: skipped {summary.skipped_checkpoints} corrupt checkpoint(s)")
    if summary.faults_detected:
        print(
            f"guard: {summary.faults_detected} SDC fault(s) detected, "
            f"{summary.rollbacks} rollback(s) -> faults.jsonl"
        )
    return 0


def _cmd_measure(args) -> int:
    campaign = MeasurementCampaign(args.ensemble, args.dir, measure=args.observable)
    progress = None
    if not args.quiet:
        def progress(i, record):  # noqa: E306 - tiny CLI callback
            values = {
                k: v
                for k, v in record.items()
                if k not in ("step", "kind", "config", "measure")
            }
            print(f"cfg {i:4d} ({record['config']}): {values}")

    records = campaign.run(progress=progress)
    print(f"measured {len(records)} configurations -> {campaign.ledger.path}")
    return 0


def _cmd_status(args) -> int:
    directory = Path(args.dir)
    cfg_path = directory / "campaign.json"
    if cfg_path.exists():
        print(f"config: {json.dumps(json.loads(cfg_path.read_text()), sort_keys=True)}")
    from repro.campaign import CheckpointStore, Ledger

    for name in ("ledger.jsonl", "measurements.jsonl"):
        ledger = Ledger(directory / name)
        records = ledger.records()
        if records:
            last = records[-1]
            print(f"{name}: {len(records)} records, last step {last['step']}")
            if "plaquette" in last:
                print(f"  last plaquette: {last['plaquette']:.6f}")
    ckpt_dir = directory / "checkpoints"
    if ckpt_dir.is_dir():
        store = CheckpointStore(ckpt_dir)
        steps = store.steps()
        print(f"checkpoints: {steps}")
        latest = store.latest()
        if latest is not None:
            step, _, meta = latest
            print(
                f"latest good: step {step}, plaquette {meta.get('plaquette', float('nan')):.6f}"
            )
        for path, reason in store.skipped:
            print(f"  skipped corrupt: {path.name} ({reason})")
    faults_path = directory / "faults.jsonl"
    if faults_path.exists():
        faults = Ledger(faults_path).records()
        if faults:
            print(f"faults.jsonl: {len(faults)} record(s)")
            for f in faults[-3:]:
                where = f" in span {f['span']!r}" if f.get("span") else ""
                print(f"  step {f['step']}: {f.get('kind')}/{f.get('action')}{where}")
    if getattr(args, "metrics", False):
        _print_metrics(directory)
    return 0


def _print_metrics(directory: Path) -> int:
    """Aggregate metrics.jsonl (per-trajectory counter deltas) into totals."""
    from repro.campaign.ledger import Ledger, sum_counters
    from repro.util.report import Table

    metrics_path = directory / "metrics.jsonl"
    if not metrics_path.exists():
        print(
            "no metrics.jsonl — run the campaign with REPRO_TELEMETRY=counters "
            "(or trace) to journal per-trajectory counters"
        )
        return 0
    rows = Ledger(metrics_path).records()
    totals = sum_counters(rows)
    print(f"metrics.jsonl: {len(rows)} trajectory row(s)")
    t = Table("campaign telemetry totals", ["counter", "total"])
    for name in sorted(totals):
        if name.startswith("time/"):
            continue  # wall-clock noise, not an invariant
        t.add_row([name, totals[name]])
    print(t.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "measure":
        return _cmd_measure(args)
    return _cmd_status(args)


if __name__ == "__main__":
    raise SystemExit(main())
