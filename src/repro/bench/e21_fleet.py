"""E21 — fleet orchestration: sweep throughput and time-to-recover.

Two questions a farm operator asks of the fleet layer:

* **Scaling** — how does wall-clock for a fixed design sweep fall as the
  worker pool widens?  Each scaling row runs the same β grid under 1, 2,
  then 4 concurrent workers and reports points/minute plus the parallel
  efficiency against the 1-worker baseline.
* **Recovery** — what does a worker SIGKILL cost?  The recovery row
  re-runs the sweep with one worker killed mid-campaign and reports the
  time-to-recover (faulted minus clean wall-clock) and the respawn count.
  The killed point's ledger must be bit-identical to the unfaulted run —
  fault tolerance is only worth benchmarking if it is also *correct*.
"""

from __future__ import annotations

from pathlib import Path

from repro.campaign import RetryPolicy
from repro.fleet import Fleet, FleetFaultPlan, grid_design
from repro.util import Table, Timer

__all__ = ["e21_fleet"]


def _design(shape, betas, n_trajectories, seed):
    return grid_design(
        shape,
        list(betas),
        n_trajectories,
        n_steps=4,
        checkpoint_interval=2,
        seed=seed,
    )


def _ledger_bytes(fleet: Fleet) -> list[bytes]:
    return [
        (fleet.point_dir(p) / "ledger.jsonl").read_bytes() for p in fleet.points
    ]


def e21_fleet(
    tmp_dir,
    shape: tuple[int, int, int, int] = (4, 4, 4, 4),
    betas: tuple = (5.5, 5.6, 5.7, 5.8),
    n_trajectories: int = 6,
    worker_counts: tuple = (1, 2, 4),
    kill_at: int = 4,
    seed: int = 23,
) -> tuple[Table, list[dict]]:
    """Sweep throughput vs pool width, plus one injected-kill recovery row.

    ``tmp_dir`` hosts one fleet directory per row.  Recovery reuses the
    widest pool and SIGKILLs the first point's worker before trajectory
    ``kill_at``; the row records the wall-clock penalty and asserts (via
    the ``ledgers_identical`` flag) that the resumed sweep matches the
    clean one bit-for-bit.
    """
    tmp_dir = Path(tmp_dir)
    design = _design(shape, betas, n_trajectories, seed)
    retry = RetryPolicy(max_retries=2, backoff_base=0.05, jitter=0.25)
    rows = []
    baseline = None
    baseline_ledgers = None
    widest_fleet = None
    widest_wall = None
    for workers in worker_counts:
        fleet = Fleet(
            tmp_dir / f"w{workers}",
            design,
            max_workers=workers,
            retry=retry,
        )
        with Timer() as t:
            summary = fleet.run()
        wall = t.elapsed
        if summary.completed != len(design) or summary.quarantined:
            raise RuntimeError(f"scaling sweep degraded: {summary}")
        ledgers = _ledger_bytes(fleet)
        if baseline is None:
            baseline, baseline_ledgers = wall, ledgers
        widest_fleet, widest_wall = fleet, wall
        rows.append(
            {
                "mode": f"scaling x{workers}",
                "workers": workers,
                "points": len(design),
                "wall_s": wall,
                "points_per_min": len(design) / wall * 60.0,
                "speedup": baseline / wall,
                "efficiency": baseline / wall / workers,
                "spawns": summary.spawns,
                "reaps": summary.reaps,
                "recover_s": None,
                # scheduling must not leak into physics: every pool width
                # produces the same ledger bytes as the serial sweep
                "ledgers_identical": ledgers == baseline_ledgers,
            }
        )

    # -- recovery: same sweep, widest pool, one worker SIGKILLed ------------
    workers = worker_counts[-1]
    fault = FleetFaultPlan().kill_worker(0, at_trajectory=kill_at)
    faulted = Fleet(
        tmp_dir / "faulted",
        design,
        max_workers=workers,
        retry=retry,
    )
    with Timer() as t:
        summary = faulted.run(fault=fault)
    wall = t.elapsed
    if summary.completed != len(design) or summary.reaps != 1:
        raise RuntimeError(f"recovery sweep degraded: {summary}")
    rows.append(
        {
            "mode": f"recovery x{workers}",
            "workers": workers,
            "points": len(design),
            "wall_s": wall,
            "points_per_min": len(design) / wall * 60.0,
            "speedup": baseline / wall,
            "efficiency": baseline / wall / workers,
            "spawns": summary.spawns,
            "reaps": summary.reaps,
            "recover_s": wall - widest_wall,
            "ledgers_identical": _ledger_bytes(faulted)
            == _ledger_bytes(widest_fleet),
        }
    )

    table = Table(
        f"E21 — fleet sweep on {tuple(shape)} "
        f"({len(design)} points x {n_trajectories} traj)",
        [
            "mode",
            "workers",
            "wall s",
            "pts/min",
            "speedup",
            "efficiency",
            "spawns",
            "recover s",
            "identical",
        ],
    )
    for r in rows:
        table.add_row(
            [
                r["mode"],
                r["workers"],
                r["wall_s"],
                r["points_per_min"],
                r["speedup"],
                r["efficiency"],
                r["spawns"],
                "-" if r["recover_s"] is None else r["recover_s"],
                r["ledgers_identical"],
            ]
        )
    return table, rows
