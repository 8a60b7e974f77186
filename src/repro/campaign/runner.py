"""Resumable campaign drivers: journaled HMC streams and measurement sweeps.

A campaign directory is the unit of durability::

    <dir>/campaign.json            frozen run parameters (physics must match on resume)
    <dir>/ledger.jsonl             one JSON line per completed trajectory/measurement
    <dir>/checkpoints/ckpt_*.rpckpt   CRC-stamped gauge + RNG + driver state

The exact-resume contract: a checkpoint captures the gauge links, the full
serialised RNG state, and the HMC driver counters at a trajectory boundary.
Because every stochastic decision downstream is drawn from that one RNG
stream, a run killed at any point and resumed from its last good checkpoint
replays the *identical* trajectory sequence — same momenta, same
accept/reject draws, same plaquette stamps, bit for bit — and its ledger
ends up line-for-line equal to an uninterrupted run's.  A crash therefore
loses at most one checkpoint interval of work, never correctness.

:func:`run_resilient` adds the supervisor loop used under real fault
injection: it watches the attached :class:`~repro.comm.shm.ShmComm` (a dead
rank process trips the watchdog), tears the comm down leak-free, backs off
exponentially, and restarts the segment from the last good checkpoint.
"""

from __future__ import annotations

import json
import random
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.campaign._seed_md import SeedHMC, SeedWilsonGaugeAction
from repro.campaign.checkpoint import CheckpointStore
from repro.campaign.faults import FaultPlan, InjectedCrash
from repro.campaign.ledger import Ledger
from repro.fields import GaugeField
from repro.guard import (
    GuardPolicy,
    SDCDetected,
    UnitarityViolation,
    inspect_gauge,
    resolve_policy,
)
from repro.hmc import HMC
from repro.io import atomic_write_bytes, load_gauge
from repro.lattice import Lattice4D
from repro.measure.observables import gauge_record
from repro.telemetry import registry as _tm_registry
from repro.telemetry.spans import current_span_path
from repro.telemetry.state import STATE
from repro.util.rng import restore_rng, rng_state

__all__ = [
    "CampaignConfig",
    "CampaignSummary",
    "CommFault",
    "ConfigMismatchError",
    "HMCCampaign",
    "MeasurementCampaign",
    "MEASUREMENTS",
    "RetryDeadlineExceeded",
    "RetryPolicy",
    "run_resilient",
]

#: Config fields that define the physics of a stream.  A resume with any of
#: these changed would splice two different Markov chains, so it is refused;
#: ``n_trajectories`` (stream extension) and ``checkpoint_interval`` /
#: ``keep_checkpoints`` (durability tuning) may change freely.
_PHYSICS_FIELDS = (
    "shape",
    "beta",
    "step_size",
    "n_steps",
    "integrator",
    "seed",
    "start",
    "reunit_interval",
)


class CommFault(RuntimeError):
    """The watchdog found the communicator unhealthy (e.g. a dead rank)."""


class ConfigMismatchError(ValueError):
    """Resume attempted with physics parameters that differ from the stored run."""


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one HMC generation campaign."""

    shape: tuple[int, int, int, int]
    beta: float
    n_trajectories: int
    step_size: float = 0.1
    n_steps: int = 10
    integrator: str = "leapfrog"
    seed: int = 12345
    start: str = "hot"
    checkpoint_interval: int = 5
    reunit_interval: int = 25
    keep_checkpoints: int = 3

    def to_dict(self) -> dict:
        d = asdict(self)
        d["shape"] = list(self.shape)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        d = dict(d)
        d["shape"] = tuple(d["shape"])
        return cls(**d)


@dataclass
class CampaignSummary:
    """Outcome of one (possibly resumed) campaign run."""

    n_trajectories: int
    resumed_from: int | None
    acceptance_rate: float
    final_plaquette: float
    skipped_checkpoints: int
    retries: int = 0
    faults_detected: int = 0
    rollbacks: int = 0


class HMCCampaign:
    """A crash-consistent, exactly-resumable HMC trajectory stream."""

    def __init__(self, directory: str | Path, config: CampaignConfig | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._config_path = self.directory / "campaign.json"
        stored = None
        if self._config_path.exists():
            stored = CampaignConfig.from_dict(
                json.loads(self._config_path.read_text())
            )
        if config is None:
            if stored is None:
                raise ValueError(
                    f"no campaign.json in {self.directory} and no config given"
                )
            config = stored
        elif stored is not None:
            for name in _PHYSICS_FIELDS:
                if getattr(config, name) != getattr(stored, name):
                    raise ConfigMismatchError(
                        f"cannot resume: {name} changed "
                        f"({getattr(stored, name)!r} -> {getattr(config, name)!r})"
                    )
        self.config = config
        atomic_write_bytes(
            self._config_path,
            (json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n").encode(),
        )
        self.store = CheckpointStore(
            self.directory / "checkpoints", keep=config.keep_checkpoints
        )
        self.ledger = Ledger(self.directory / "ledger.jsonl")

    # -- state assembly -------------------------------------------------------

    def _fresh(self) -> tuple[GaugeField, HMC]:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        lattice = Lattice4D(cfg.shape)
        if cfg.start == "cold":
            gauge = GaugeField.cold(lattice)
        else:
            gauge = GaugeField.hot(lattice, rng=rng)
        return gauge, self._make_hmc(rng)

    def _make_hmc(self, rng: np.random.Generator) -> HMC:
        cfg = self.config
        return SeedHMC(
            SeedWilsonGaugeAction(cfg.beta),
            step_size=cfg.step_size,
            n_steps=cfg.n_steps,
            integrator=cfg.integrator,
            rng=rng,
        )

    def _restore(self, arrays: dict, meta: dict) -> tuple[GaugeField, HMC]:
        lattice = Lattice4D(self.config.shape)
        gauge = GaugeField(lattice, np.ascontiguousarray(arrays["u"]))
        hmc = self._make_hmc(restore_rng(meta["rng"]))
        hmc.load_state_dict(meta["hmc"])
        return gauge, hmc

    def _checkpoint(self, step: int, gauge: GaugeField, hmc: HMC) -> None:
        self.store.save(
            step,
            {"u": gauge.u},
            {
                "rng": rng_state(hmc.rng),
                "hmc": hmc.state_dict(),
                "plaquette": hmc.plaquette(gauge),
            },
        )

    # -- the driver loop ------------------------------------------------------

    def _journal_fault(self, step: int, record: dict) -> None:
        """Append an SDC fault record to the side journal ``faults.jsonl``.

        Fault records deliberately do NOT go into the main ledger: the
        ledger must stay bit-for-bit identical to an unfaulted run's after
        a successful heal, which is the reproducibility contract the guard
        tests enforce.  When telemetry tracing is on, the record carries the
        open span path so faults can be cross-referenced to the trace.
        """
        span_path = current_span_path()
        if span_path:
            record = {**record, "span": span_path}
        if STATE.counting:
            _tm_registry.get_registry().add("campaign/faults", 1)
        Ledger(self.directory / "faults.jsonl").append({"step": step, **record})

    def _metrics_ledger(self) -> Ledger:
        """The side journal of per-trajectory telemetry counter deltas.

        Kept out of the main ledger (and non-durable) so turning telemetry
        on cannot change ``ledger.jsonl`` by a single byte — the off/
        counters/trace ledger-parity contract the telemetry tests enforce.
        """
        return Ledger(self.directory / "metrics.jsonl", durable=False)

    def _rollback(self) -> tuple[GaugeField, HMC, int]:
        """Restore the last good checkpoint (or the fresh start) and truncate
        the journals to it.  Returns the state to resume from.

        Work journaled after that point — even before the first checkpoint —
        will be redone, so its records go and the replayed stream journals
        identically.  This — not SU(3) reprojection — is also the
        campaign-level heal: reprojection restores validity but not the
        original bits, while the exact-resume contract (gauge + RNG +
        counters) makes the replayed stream bit-for-bit an unfaulted one.
        """
        latest = self.store.latest()
        if latest is None:
            gauge, hmc = self._fresh()
            good = 0
        else:
            good, arrays, meta = latest
            gauge, hmc = self._restore(arrays, meta)
        self.ledger.truncate_to(good)
        if (self.directory / "metrics.jsonl").exists():
            self._metrics_ledger().truncate_to(good)
        return gauge, hmc, good

    def run(
        self,
        fault: FaultPlan | None = None,
        comm=None,
        progress=None,
        guard: GuardPolicy | str | None = None,
    ) -> CampaignSummary:
        """Run (or resume) the stream to ``n_trajectories`` completed.

        ``comm`` is an optional supervised communicator: before every
        trajectory the watchdog checks it is still healthy and raises
        :class:`CommFault` otherwise, so a killed rank costs one retry, not
        a hang.  ``fault`` is a :class:`~repro.campaign.faults.FaultPlan`
        fired at trajectory boundaries.  ``progress`` is called with
        ``(step, TrajectoryResult)`` after each trajectory.

        ``guard`` (``REPRO_GUARD``-resolved when None) adds a gauge
        inspection at every trajectory boundary.  On corruption, ``detect``
        raises :class:`~repro.guard.SDCDetected` and ``heal`` rolls back to
        the last good checkpoint — recording the incident in
        ``faults.jsonl`` either way.
        """
        cfg = self.config
        policy = resolve_policy(guard)
        gauge, hmc, start_step = self._rollback()
        resumed_from = start_step or None  # checkpoints are at steps >= 1

        faults_detected = 0
        rollbacks = 0
        max_rollbacks = 8  # persistent-corruption backstop, not a tuning knob
        step = start_step
        metrics = self._metrics_ledger() if STATE.counting else None
        counters_prev = _tm_registry.snapshot()["counters"] if metrics else None
        while step < cfg.n_trajectories:
            if fault is not None:
                fault.fire(step, comm=comm, store=self.store, gauge=gauge)
            if comm is not None and not getattr(comm, "healthy", True):
                dead = [
                    r for r, ok in enumerate(comm.workers_alive()) if not ok
                ] if hasattr(comm, "workers_alive") else []
                raise CommFault(
                    f"communicator unhealthy before trajectory {step}"
                    + (f" (dead ranks: {dead})" if dead else "")
                )
            if policy.enabled:
                report = inspect_gauge(gauge.u, policy, context=f"trajectory:{step}")
                if not report.ok:
                    faults_detected += 1
                    action = "rollback" if policy.heal else "detect"
                    self._journal_fault(
                        step, {"kind": "sdc", "action": action, **report.as_record()}
                    )
                    if not policy.heal:
                        exc = UnitarityViolation if report.n_bad_links else SDCDetected
                        raise exc(
                            f"gauge corruption before trajectory {step}: "
                            f"{report.n_bad_links} bad link(s), plaquette range "
                            f"[{report.plaquette_min:.6f}, {report.plaquette_max:.6f}]"
                        )
                    rollbacks += 1
                    if rollbacks > max_rollbacks:
                        raise SDCDetected(
                            f"corruption persists after {max_rollbacks} rollbacks "
                            f"(step {step})"
                        )
                    gauge, hmc, step = self._rollback()
                    if STATE.counting:
                        _tm_registry.get_registry().add("campaign/rollbacks", 1)
                    continue
            result = hmc.trajectory(gauge)
            if (step + 1) % cfg.reunit_interval == 0:
                gauge.reunitarize()
            self.ledger.append(
                {
                    "step": step,
                    "kind": "trajectory",
                    "accepted": result.accepted,
                    "delta_h": result.delta_h,
                    "plaquette": result.plaquette,
                }
            )
            if (step + 1) % cfg.checkpoint_interval == 0 or step + 1 == cfg.n_trajectories:
                self._checkpoint(step + 1, gauge, hmc)
            if metrics is not None:
                cur = _tm_registry.snapshot()["counters"]
                delta = {
                    k: v - counters_prev.get(k, 0)
                    for k, v in cur.items()
                    if v != counters_prev.get(k, 0)
                }
                counters_prev = cur
                metrics.append(
                    {"step": step, "kind": "metrics", "counters": delta}
                )
            if progress is not None:
                progress(step, result)
            step += 1

        return CampaignSummary(
            n_trajectories=cfg.n_trajectories,
            resumed_from=resumed_from,
            acceptance_rate=hmc.acceptance_rate,
            final_plaquette=hmc.plaquette(gauge),
            skipped_checkpoints=len(self.store.skipped),
            faults_detected=faults_detected,
            rollbacks=rollbacks,
        )


# -- measurement sweeps -------------------------------------------------------


def _measure_spectrum(gauge: GaugeField, meta: dict) -> dict:
    from repro.measure.spectrum import measure_spectrum

    res = measure_spectrum(
        gauge, quark_mass=float(meta.get("quark_mass", 0.1)), include_nucleon=False
    )
    return {"pion_mass": float(res.pion.mass), "rho_mass": float(res.rho.mass)}


#: Named per-configuration measurement tasks for :class:`MeasurementCampaign`.
MEASUREMENTS = {
    "plaquette": lambda gauge, meta: gauge_record(gauge, "plaquette"),
    "observables": lambda gauge, meta: gauge_record(gauge, "observables"),
    "spectrum": _measure_spectrum,
}


class MeasurementCampaign:
    """A journaled sweep of per-configuration measurements over an ensemble.

    The ledger *is* the checkpoint: each configuration's results are one
    fsynced JSON line keyed by config index, so a resumed sweep skips
    exactly the completed configurations and re-measures nothing.  Results
    are deterministic functions of the stored gauge field, so the finished
    ledger is identical whether or not the sweep was interrupted.
    """

    def __init__(
        self,
        ensemble_dir: str | Path,
        directory: str | Path,
        measure: str | None = "plaquette",
    ) -> None:
        self.ensemble_dir = Path(ensemble_dir)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.ledger = Ledger(self.directory / "measurements.jsonl")
        if callable(measure):
            self._measure = measure
            self.measure_name = getattr(measure, "__name__", "custom")
        else:
            if measure not in MEASUREMENTS:
                raise ValueError(
                    f"unknown measurement {measure!r}; available: {sorted(MEASUREMENTS)}"
                )
            self._measure = MEASUREMENTS[measure]
            self.measure_name = measure

    def run(
        self,
        fault: FaultPlan | None = None,
        comm=None,
        progress=None,
        guard: GuardPolicy | str | None = None,
    ) -> list[dict]:
        policy = resolve_policy(guard)
        paths = sorted(self.ensemble_dir.glob("cfg_*.npz"))
        if not paths:
            raise FileNotFoundError(f"no cfg_*.npz files in {self.ensemble_dir}")
        done = {int(r["step"]) for r in self.ledger.records()}
        for i, path in enumerate(paths):
            if i in done:
                continue
            if fault is not None:
                fault.fire(i)
            gauge, meta = load_gauge(path, guard=policy)
            values = self._measure(gauge, meta)
            record = {
                "step": i,
                "kind": "measurement",
                "config": path.name,
                "measure": self.measure_name,
                **values,
            }
            self.ledger.append(record)
            if progress is not None:
                progress(i, record)
        return self.ledger.records()


# -- the supervisor loop ------------------------------------------------------


class RetryDeadlineExceeded(RuntimeError):
    """The retry loop's total-deadline budget ran out before success.

    Raised *instead of* sleeping when the next backoff would cross
    :attr:`RetryPolicy.deadline`; the triggering failure rides along as
    ``__cause__``, so callers see both why the attempt failed and why the
    supervisor refused to keep trying.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff for restarts.

    ``jitter`` decorrelates the restart stampede of a fleet (every backed-
    off worker sleeping exactly ``base * factor**k`` seconds retries in
    lockstep) while staying replayable: the jitter fraction is a pure hash
    of ``(jitter_seed, key, attempt)``, so the same policy object hands the
    same schedule to the same slot on every resume.  Pass the design-point
    index (or any stable slot id) as ``key``.

    ``deadline`` caps the *total* wall-clock a supervised slot may spend
    across all attempts: a retry whose backoff would cross it raises
    :class:`RetryDeadlineExceeded` instead of sleeping, so unbounded
    backoff can never stall a fleet slot forever.
    """

    max_retries: int = 3
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    jitter: float = 0.0
    jitter_seed: int = 0
    deadline: float | None = None

    def delay(self, attempt: int, key: int = 0) -> float:
        """Backoff before retry ``attempt`` (0-based) of slot ``key``.

        The exponential ramp is capped at ``backoff_max`` first; the
        seeded jitter then scales by up to ``1 + jitter``, so the worst
        case is ``backoff_max * (1 + jitter)`` — bounded either way.
        """
        base = min(self.backoff_base * self.backoff_factor**attempt, self.backoff_max)
        if self.jitter:
            token = f"{self.jitter_seed}:{int(key)}:{int(attempt)}".encode()
            u = random.Random(zlib.crc32(token)).random()
            base *= 1.0 + self.jitter * u
        return base


def run_resilient(
    campaign,
    comm_factory=None,
    retry: RetryPolicy | None = None,
    fault: FaultPlan | None = None,
    sleep=time.sleep,
    on_failure=None,
    progress=None,
    guard: GuardPolicy | str | None = None,
    clock=time.monotonic,
    retry_key: int = 0,
) -> CampaignSummary:
    """Supervise ``campaign.run`` through faults: teardown, back off, resume.

    Each attempt gets a fresh communicator from ``comm_factory`` (if given)
    which is *always* closed — worker processes joined, ``/dev/shm``
    segments unlinked — in a ``finally``, so a failed segment cannot leak
    resources.  A failing attempt resumes from the last good checkpoint; a
    fault that persists past ``retry.max_retries`` attempts re-raises.
    ``on_failure`` is called with ``(attempt, exception)`` per failure.

    Guard faults compose naturally: :class:`~repro.guard.SDCDetected` is a
    ``RuntimeError``, so a ``detect``-level campaign that trips a guard is
    torn down and resumed from its last good checkpoint here — supervisor-
    level healing even without ``REPRO_GUARD=heal``.  So does the whole
    communicator fault taxonomy (:class:`~repro.comm.CommError` and its
    subclasses — connect refusal, recv timeout, peer death, torn frame):
    all of them are ``RuntimeError``\\ s, so a socket fault on the ``tcp``
    backend costs one retry with a fresh communicator, not a hang.

    With ``retry.deadline`` set, the loop also tracks total supervised
    wall-clock (``clock``, injectable for tests): a retry whose backoff
    would cross the deadline raises :class:`RetryDeadlineExceeded` from
    the triggering failure instead of sleeping.
    """
    retry = retry if retry is not None else RetryPolicy()
    failures = 0
    started = clock()
    while True:
        comm = comm_factory() if comm_factory is not None else None
        try:
            summary = campaign.run(
                fault=fault, comm=comm, progress=progress, guard=guard
            )
            summary.retries = failures
            return summary
        except (CommFault, InjectedCrash, RuntimeError) as e:
            failures += 1
            if failures > retry.max_retries:
                raise
            delay = retry.delay(failures - 1, key=retry_key)
            if (
                retry.deadline is not None
                and clock() - started + delay > retry.deadline
            ):
                raise RetryDeadlineExceeded(
                    f"retry deadline {retry.deadline:.3g}s would be exceeded "
                    f"after {failures} failure(s); last: {e}"
                ) from e
            if on_failure is not None:
                on_failure(failures, e)
            sleep(delay)
        finally:
            if comm is not None:
                comm.close()
