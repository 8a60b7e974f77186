"""Supervised fleet worker: one campaign segment under heartbeat liveness.

``python -m repro.fleet.worker --dir <point_dir> [--config JSON]`` runs (or
resumes) one :class:`~repro.campaign.runner.HMCCampaign` and emits a
heartbeat after every trajectory so the orchestrator can tell *wedged*
from *working*.  The heartbeat is ``heartbeat.json`` in the point
directory — pid, last completed trajectory, wall clock — written
atomically (readers never see a torn JSON) but not fsynced: liveness is
advisory, the durable truth stays in the campaign's own ledger and
checkpoints, whose mtimes the supervisor also consults (piggyback
liveness, so a worker that is making checkpoint progress is never falsely
reaped just because one heartbeat write was slow).

The worker deliberately does *not* retry internally: segment supervision
(reap → backoff → respawn → resume-from-checkpoint) belongs to the
orchestrator, which owns the retry budget and the quarantine decision.
Exit codes: 0 — campaign reached ``n_trajectories``; 1 — campaign raised
(the orchestrator journals the tail of the log as fault evidence).

Fault-injection flags (armed per spawn by
:meth:`~repro.fleet.plan.FleetFaultPlan.worker_args`) fill one campaign-level
:class:`~repro.campaign.faults.FaultPlan`: ``--sigkill-at N``,
``--crash-at N``, and ``--hang-at N``, which sleeps ``--hang-seconds`` at
the boundary *without* heartbeating — the failure mode only a liveness
timeout can detect.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.campaign.faults import FaultPlan
from repro.campaign.runner import CampaignConfig, HMCCampaign
from repro.io.atomic import atomic_write_bytes

__all__ = ["HEARTBEAT_FILE", "main", "read_heartbeat", "write_heartbeat"]

HEARTBEAT_FILE = "heartbeat.json"


def write_heartbeat(directory: str | Path, step: int) -> None:
    """Atomically stamp liveness: pid + last completed trajectory + wall."""
    payload = {"pid": os.getpid(), "step": int(step), "wall": time.time()}
    atomic_write_bytes(
        Path(directory) / HEARTBEAT_FILE,
        (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
        durable=False,
    )


def read_heartbeat(directory: str | Path) -> dict | None:
    """The last heartbeat of ``directory``'s worker, or ``None``."""
    path = Path(directory) / HEARTBEAT_FILE
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dir", type=Path, required=True, help="point campaign directory")
    p.add_argument(
        "--config",
        help="CampaignConfig as JSON (omit to resume from the stored campaign.json)",
    )
    p.add_argument("--guard", choices=("off", "detect", "heal"), default=None)
    p.add_argument("--sigkill-at", type=int, metavar="N", default=None)
    p.add_argument("--crash-at", type=int, metavar="N", default=None)
    p.add_argument("--hang-at", type=int, metavar="N", default=None)
    p.add_argument("--hang-seconds", type=float, default=3600.0)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = (
        CampaignConfig.from_dict(json.loads(args.config))
        if args.config is not None
        else None
    )
    campaign = HMCCampaign(args.dir, config)

    plan = FaultPlan()
    if args.hang_at is not None:  # registered first: it fires first at its step
        plan.hang_at(args.hang_at, args.hang_seconds)
    if args.sigkill_at is not None:
        plan.sigkill_at(args.sigkill_at)
    if args.crash_at is not None:
        plan.crash_at(args.crash_at)

    # First heartbeat before any trajectory: a freshly resumed worker on a
    # slow import path must not look dead to the supervisor.
    start = campaign.ledger.last_step()
    write_heartbeat(args.dir, start if start is not None else -1)

    def progress(step, result):
        write_heartbeat(args.dir, step)

    summary = campaign.run(fault=plan, progress=progress, guard=args.guard)
    write_heartbeat(args.dir, summary.n_trajectories - 1)
    print(
        f"worker done: {summary.n_trajectories} trajectories, "
        f"acceptance {summary.acceptance_rate:.2f}, "
        f"plaquette {summary.final_plaquette:.6f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
