"""E16 — campaign resilience: checkpoint overhead and time-to-recover.

The durability layer's two costs, measured on a real HMC stream:

* **overhead** — wall-clock cost of checkpointing every ``k`` trajectories
  relative to a stream that only checkpoints at the end;
* **time-to-recover** — wall clock for a crash-interrupted campaign
  (injected at a fixed trajectory) to resume from its last good checkpoint
  and finish, including the re-done trajectories inside the lost interval.

Every crashed-and-resumed run is also checked for the headline guarantee:
its ledger must be line-for-line identical to the uninterrupted reference.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.campaign import (
    CampaignConfig,
    FaultPlan,
    HMCCampaign,
    RetryPolicy,
    run_resilient,
)
from repro.util import Table, Timer

__all__ = ["e16_campaign_resilience"]


def _ledger_lines(directory: Path) -> list[str]:
    path = directory / "ledger.jsonl"
    return path.read_text().splitlines() if path.exists() else []


def e16_campaign_resilience(
    shape: tuple[int, int, int, int] = (4, 4, 4, 4),
    beta: float = 5.6,
    n_trajectories: int = 12,
    intervals: tuple[int, ...] = (1, 2, 4),
    crash_fraction: float = 0.75,
    n_steps: int = 4,
    seed: int = 2024,
    workdir: str | Path | None = None,
) -> tuple[Table, list[dict]]:
    """Overhead and recovery cost versus checkpoint interval."""
    tmp = None
    if workdir is None:
        tmp = tempfile.mkdtemp(prefix="repro-e16-")
        workdir = tmp
    workdir = Path(workdir)
    crash_step = max(1, int(n_trajectories * crash_fraction))

    def config(interval: int) -> CampaignConfig:
        return CampaignConfig(
            shape=shape,
            beta=beta,
            n_trajectories=n_trajectories,
            n_steps=n_steps,
            seed=seed,
            checkpoint_interval=interval,
        )

    try:
        # Reference: checkpoint only at the end — minimal durability cost,
        # and the parity target for every crashed run's ledger.
        with Timer() as t:
            HMCCampaign(workdir / "ref", config(n_trajectories)).run()
        baseline_s = t.elapsed
        ref_ledger = _ledger_lines(workdir / "ref")

        table = Table(
            f"E16 — campaign resilience ({shape}, beta={beta}, "
            f"{n_trajectories} traj, crash before traj {crash_step})",
            [
                "ckpt interval",
                "run wall [s]",
                "overhead [%]",
                "redo traj",
                "crash+resume wall [s]",
                "ledger parity",
            ],
        )
        rows = []
        for interval in intervals:
            with Timer() as t:
                HMCCampaign(workdir / f"full-{interval}", config(interval)).run()
            full_s = t.elapsed
            overhead = 100.0 * (full_s - baseline_s) / baseline_s

            # Crash before `crash_step`, then let the supervisor resume.
            # The lost work is the tail of the interval containing the crash.
            campaign = HMCCampaign(workdir / f"crash-{interval}", config(interval))
            fault = FaultPlan().crash_at(crash_step)
            with Timer() as t:
                summary = run_resilient(
                    campaign,
                    retry=RetryPolicy(max_retries=1, backoff_base=0.0),
                    fault=fault,
                    sleep=lambda s: None,
                )
            recover_s = t.elapsed
            redo = crash_step - (crash_step // interval) * interval
            parity = _ledger_lines(workdir / f"crash-{interval}") == ref_ledger

            row = {
                "interval": interval,
                "wall_s": full_s,
                "overhead_pct": overhead,
                "crash_step": crash_step,
                "redo_trajectories": redo,
                "recover_wall_s": recover_s,
                "resumed_from": summary.resumed_from,
                "ledger_parity": parity,
            }
            rows.append(row)
            table.add_row(
                [interval, full_s, overhead, redo, recover_s, "yes" if parity else "NO"]
            )
        return table, rows
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
