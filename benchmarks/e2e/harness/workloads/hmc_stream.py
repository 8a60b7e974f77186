"""hmc_stream — dynamical trajectories, then a checkpointed quenched campaign.

Why it exists: the third ROADMAP path, force + solve + Dslash: many short
solves on a *changing* gauge field (kernel link caches invalidated every
step), then the ``campaign``/``io`` checkpoint and ledger cost per
trajectory.  Kernel-cache or set-up-amortising tricks that help the
frozen-field workloads can hurt here; batching, the store and comm do
nothing.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.campaign import CampaignConfig, HMCCampaign
from repro.campaign.checkpoint import read_checkpoint
from repro.fields import GaugeField
from repro.hmc import HMC, TwoFlavorWilsonAction, WilsonGaugeAction
from repro.lattice import Lattice4D
from repro.telemetry.registry import get_registry

from .. import micro
from .base import Op, OpType, Timed, Workload, thermalised_links

__all__ = ["HmcStream"]

BETA = 5.6
SEA_MASS = 0.5
# Trajectory length 0.5 in 8 Omelyan steps, not 10: a run must hold five
# dynamical trajectories (3.9 s each at 10 steps) beside the campaign chunks.
DYN_STEPS, DYN_EPS = 8, 0.0625
QUENCHED_STEPS, QUENCHED_EPS = 10, 0.1
CHUNK = 6  # trajectories per campaign directory; the first is not a sample


class HmcStream(Workload):
    name = "hmc_stream"
    op_types = (
        OpType("traj_dyn", 10, "traj_dyn_s"),
        # The root span of a campaign chunk is HMCCampaign.run: everything in
        # it that is not a checkpoint or a ledger append is the HMC itself.
        OpType("traj_campaign", 40, "traj_campaign_s", root_layer="hmc"),
    )
    setup_repeats = 5

    def generate(self, seed: int, smoke: bool) -> dict:
        shape = (2, 2, 2, 2) if smoke else (4, 4, 4, 4)
        rng = np.random.default_rng([seed, 4])
        u = thermalised_links(shape, BETA, 10, rng)
        # The program draws its own momenta and noise; the harness hands it
        # integers from the seed's stream, never the seed.
        streams = rng.integers(0, 2**31 - 1, size=2)
        return {"shape": shape, "u": u, "streams": streams}

    def setup(self, inputs: dict, tracer, workdir: Path):
        st = SimpleNamespace()
        st.tracer = tracer
        st.workdir = workdir
        st.shape = tuple(inputs["shape"])
        st.gauge = GaugeField(Lattice4D(st.shape), inputs["u"].copy())
        st.campaign_seed = int(inputs["streams"][1])
        st.gauge_term = WilsonGaugeAction(BETA)
        st.fermion_term = TwoFlavorWilsonAction(SEA_MASS)
        st.hmc = HMC(
            [st.gauge_term, st.fermion_term],
            step_size=DYN_EPS,
            n_steps=DYN_STEPS,
            integrator="omelyan",
            rng=np.random.default_rng(int(inputs["streams"][0])),
        )
        tracer.wrap(st.hmc, "trajectory", "hmc.trajectory", "hmc")
        tracer.wrap(st.gauge_term, "force", "hmc.gauge_force", "hmc")
        tracer.wrap(st.gauge_term, "action", "hmc.gauge_action", "hmc")
        tracer.wrap(st.fermion_term, "force", "hmc.fermion_force", "hmc")
        tracer.wrap(st.fermion_term, "action", "hmc.fermion_action", "hmc")
        tracer.wrap(st.fermion_term, "refresh", "hmc.refresh", "hmc")
        st.chunks = 0
        st.ledger_hashes = []
        st.dyn = []
        # Warm-up: one force of each term and one journaled trajectory, so
        # imports, kernel arenas and the checkpoint path exist before timing.
        scratch = st.gauge.copy()
        st.fermion_term.refresh(scratch, np.random.default_rng(0))
        st.fermion_term.force(scratch)
        st.gauge_term.force(scratch)
        self._campaign(st, workdir / "warmup", n=1).run()
        return st

    def _campaign(self, st, directory: Path, n: int) -> HMCCampaign:
        campaign = HMCCampaign(
            directory,
            CampaignConfig(
                shape=st.shape,
                beta=BETA,
                n_trajectories=n,
                step_size=QUENCHED_EPS,
                n_steps=QUENCHED_STEPS,
                seed=st.campaign_seed,
                checkpoint_interval=1,
            ),
        )
        st.tracer.wrap(campaign.store, "save", "campaign.checkpoint_save", "campaign")
        st.tracer.wrap(campaign.ledger, "append", "campaign.ledger_append", "campaign")
        return campaign

    def schedule(self, st):
        registry = get_registry()

        def dyn():
            before = dict(registry.counters())
            result = st.hmc.trajectory(st.gauge)
            after = registry.counters()
            st.dyn.append(
                {
                    "accepted": result.accepted,
                    "delta_h": result.delta_h,
                    "solves": after.get("calls/cg", 0) - before.get("calls/cg", 0),
                    "solve_s": after.get("time/cg", 0.0) - before.get("time/cg", 0.0),
                    "cg_iters": after.get("solver/cg/iterations", 0)
                    - before.get("solver/cg/iterations", 0),
                }
            )
            return result

        def check_dyn(result) -> bool:
            return (
                math.isfinite(result.delta_h)
                and abs(result.delta_h) < 1.0
                and 0.0 < result.plaquette < 1.0
                and st.gauge.unitarity_violation() < 1e-10
            )

        def chunk():
            # Every chunk is a fresh campaign directory run from the same
            # config, so all chunks of a run must journal the same bytes.
            directory = st.workdir / f"campaign{st.chunks}"
            st.chunks += 1
            campaign = self._campaign(st, directory, n=CHUNK)
            stamps = [time.perf_counter()]
            summary = campaign.run(progress=lambda step, res: stamps.append(time.perf_counter()))
            # The first trajectory's interval also holds the hot start; drop it.
            samples = [b - a for a, b in zip(stamps[1:], stamps[2:])]
            return Timed((directory, summary), samples)

        def check_chunk(result) -> bool:
            directory, summary = result
            ledger = (directory / "ledger.jsonl").read_bytes()
            st.ledger_hashes.append(hashlib.sha256(ledger).hexdigest())
            newest = max((directory / "checkpoints").iterdir())
            st.checkpoint_bytes = newest.stat().st_size
            arrays, meta = read_checkpoint(newest)  # CRC-verified read
            return (
                summary.n_trajectories == CHUNK
                and ledger.count(b"\n") == CHUNK
                and arrays["u"].shape == (4,) + st.shape + (3, 3)
                and st.ledger_hashes[-1] == st.ledger_hashes[0]
            )

        while True:
            yield Op("traj_dyn", dyn, check_dyn)
            yield Op("traj_campaign", chunk, check_chunk)

    def counts(self, st, run) -> dict:
        out = {"campaign.ledger_sha256": st.ledger_hashes[0][:16]}
        if st.tracer.enabled:
            out["hmc.solves_per_traj"] = st.dyn[0]["solves"]
            out["hmc.cg_iters_per_traj"] = st.dyn[0]["cg_iters"]
        return out

    def micro(self, inputs, st, workdir) -> dict:
        out = micro.kernel_suite(st.gauge, SEA_MASS)
        out.update(micro.io_suite(st.gauge, workdir))
        # The bare quenched trajectory the campaign wraps, for overhead_frac.
        bare = HMC(
            WilsonGaugeAction(BETA), step_size=QUENCHED_EPS, n_steps=QUENCHED_STEPS,
            rng=np.random.default_rng(1),
        )
        field = GaugeField.hot(Lattice4D(st.shape), rng=2)
        st.bare_traj_s = micro.p50_of(lambda: bare.trajectory(field), 9, warmup=1)
        return out

    def layer_metrics(self, st, run) -> dict:
        n_dyn = len(st.dyn)
        solves = sum(d["solves"] for d in st.dyn)
        campaign_p50 = statistics.median(run.samples["traj_campaign"])
        return {
            "hmc.gauge_force_s": run.mean_total("traj_dyn", "hmc.gauge_force"),
            "hmc.fermion_force_s": run.mean_total("traj_dyn", "hmc.fermion_force"),
            "hmc.force_solve_s": sum(d["solve_s"] for d in st.dyn) / solves,
            "hmc.action_s": run.mean_total("traj_dyn", "hmc.fermion_action"),
            "hmc.refresh_s": run.mean_total("traj_dyn", "hmc.refresh"),
            "hmc.integrate_self_s": run.self_per_op("traj_dyn", "hmc.trajectory"),
            "hmc.solves_per_traj": st.dyn[0]["solves"],
            "hmc.cg_iters_per_traj": st.dyn[0]["cg_iters"],
            "hmc.acceptance": sum(d["accepted"] for d in st.dyn) / n_dyn,
            "hmc.mean_abs_dh": sum(abs(d["delta_h"]) for d in st.dyn) / n_dyn,
            "campaign.checkpoint_save_s": run.mean_total(
                "traj_campaign", "campaign.checkpoint_save"),
            "campaign.checkpoint_bytes": st.checkpoint_bytes,
            "campaign.ledger_append_s": run.mean_total(
                "traj_campaign", "campaign.ledger_append"),
            "campaign.overhead_frac": campaign_p50 / st.bare_traj_s - 1.0,
        }
