"""Fault-tolerant campaign layer: checkpoint/restart, journaling, fault injection.

Production lattice QCD is a months-long stream of trajectories and
measurements on hardware where rank death is routine; this package supplies
the durability layer that makes long runs safe to start:

:mod:`repro.campaign.checkpoint`
    crash-consistent checkpoint store — the :mod:`repro.io.container`
    format (atomic write, versioned, every byte under a CRC), fallback past
    corrupt files;
:mod:`repro.campaign.ledger`
    fsynced JSON-lines journal of completed work, tolerant of exactly the
    torn tail a crash can produce;
:mod:`repro.campaign.runner`
    resumable HMC and measurement drivers with a comm watchdog and the
    :func:`~repro.campaign.runner.run_resilient` supervisor
    (teardown → backoff → restart from last good checkpoint);
:mod:`repro.campaign.faults`
    deterministic fault injection — crash/SIGKILL the driver, kill a ShmComm
    rank, delay/drop acks, corrupt checkpoints, and silent in-memory bit
    flips (gauge links, spinors, solver scratch) for the guard layer.

The headline guarantee (enforced by tests): a SIGKILL at any trajectory
boundary loses at most one checkpoint interval, and the resumed campaign's
ledger and final observables are bit-for-bit identical to an uninterrupted
run with the same seed.
"""

from repro.campaign.checkpoint import (
    CheckpointStore,
    CorruptCheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.campaign.faults import (
    FaultedOperator,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    corrupt_checkpoint,
    flip_bit,
)
from repro.campaign.ledger import Ledger, LedgerError
from repro.campaign.runner import (
    MEASUREMENTS,
    CampaignConfig,
    CampaignSummary,
    CommFault,
    ConfigMismatchError,
    HMCCampaign,
    MeasurementCampaign,
    RetryDeadlineExceeded,
    RetryPolicy,
    run_resilient,
)

__all__ = [
    "CampaignConfig",
    "CampaignSummary",
    "CheckpointStore",
    "CommFault",
    "ConfigMismatchError",
    "CorruptCheckpointError",
    "FaultedOperator",
    "FaultInjector",
    "FaultPlan",
    "HMCCampaign",
    "InjectedCrash",
    "Ledger",
    "LedgerError",
    "MEASUREMENTS",
    "MeasurementCampaign",
    "RetryDeadlineExceeded",
    "RetryPolicy",
    "corrupt_checkpoint",
    "flip_bit",
    "read_checkpoint",
    "run_resilient",
    "write_checkpoint",
]
