"""What a workload is, and the helpers all four share."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField, norm
from repro.hmc import heatbath_sweep, overrelaxation_sweep
from repro.lattice import Lattice4D
from repro.serve import SolveQueue
from repro.solvers import solve_wilson_batch

__all__ = [
    "OpType",
    "Op",
    "Timed",
    "Workload",
    "inputs_digest",
    "sweep",
    "thermalised_links",
    "reference_residual",
    "trace_wilson",
    "make_queue",
    "queue_metrics",
]


@dataclass(frozen=True)
class OpType:
    """One kind of timed operation in a workload's fixed op list."""

    name: str
    count: int  # occurrences in the fixed list; weights ``wall_s``
    metric: str  # the OP_LATENCIES name its p50 is published under
    root_layer: str | None = None  # layer owning the root span's self time


@dataclass
class Timed:
    """An op that reports its own latency samples (e.g. per trajectory)."""

    result: object
    samples: list[float]


@dataclass
class Op:
    """One scheduled operation: run ``fn`` timed, then ``check`` untimed."""

    type: str
    fn: Callable[[], object]
    check: Callable[[object], bool]


class Workload:
    """A fixed, closed-loop op list over inputs generated from a seed.

    ``generate`` may use the library to *make* inputs (a heatbath chain is
    the only way to get a thermalised field) but hands back plain arrays:
    the measured program never sees the seed.  ``setup`` is the program's
    own set-up — constructing operators, ingesting, spawning ranks, one
    untimed warm-up of every op type — and is repeated, so it must be
    paired with ``teardown``.
    """

    name: str = ""
    op_types: tuple[OpType, ...] = ()
    setup_repeats: int = 3

    def generate(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict, tracer, workdir: Path):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def schedule(self, state) -> Iterator[Op]:
        """The fixed op list, cycled for as long as the run measures."""
        raise NotImplementedError

    def final_checks(self, state, run) -> list[tuple[str, bool, str]]:
        """Whole-run checks ``(name, ok, detail)``; each counts as one op."""
        return []

    def counts(self, state, run) -> dict[str, int | str]:
        """Exact counts of the first op of each type, for pinning."""
        return {}

    def micro(self, inputs: dict, state, workdir: Path) -> dict[str, float]:
        """Traced-run microbenchmarks at this workload's own volume."""
        return {}

    def layer_metrics(self, state, run) -> dict[str, float]:
        """Per-layer metrics of the traced run (missing names read 0)."""
        return {}


def inputs_digest(inputs: dict) -> str:
    """SHA-256 over the generated inputs, arrays by their raw bytes."""
    h = hashlib.sha256()
    for key in sorted(inputs):
        value = inputs[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(str(value.dtype).encode() + str(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def sweep(gauge: GaugeField, beta: float, n: int, rng) -> None:
    """``n`` heatbath+overrelaxation sweeps, in place."""
    for _ in range(n):
        heatbath_sweep(gauge, beta, rng)
        overrelaxation_sweep(gauge, beta, rng)


def thermalised_links(
    shape: tuple[int, int, int, int], beta: float, sweeps: int, rng
) -> np.ndarray:
    """Links after ``sweeps`` heatbath+overrelaxation sweeps from a hot start."""
    gauge = GaugeField.hot(Lattice4D(shape), rng=rng)
    sweep(gauge, beta, sweeps, rng)
    gauge.reunitarize()
    return gauge.u


def reference_residual(reference: WilsonDirac, x: np.ndarray, b: np.ndarray) -> float:
    """``|b - M x| / |b|`` with ``M`` applied by the ``reference`` kernel."""
    return float(norm(b - reference.apply(x)) / norm(b))


_WILSON_METHODS = (
    "apply",
    "apply_into",
    "apply_dagger",
    "apply_dagger_into",
    "apply_batch_into",
    "apply_dagger_batch_into",
)


def trace_wilson(tracer, dirac, tag: str = "") -> None:
    """Span the operator's layer-boundary methods, its kernel and fp32 clones."""
    if not tracer.enabled or getattr(dirac, "_e2e_traced", False):
        return
    dirac._e2e_traced = True
    for attr in _WILSON_METHODS:
        tracer.wrap(dirac, attr, f"dirac.{attr}{tag}", "dirac")
    tracer.wrap_kernel(dirac, f"kernels.hop{tag}")
    astype = dirac.astype

    def traced_astype(dtype):
        clone = astype(dtype)
        trace_wilson(tracer, clone, tag="_fp32")
        return clone

    dirac.astype = traced_astype


def make_queue(tracer, on_results=None) -> SolveQueue:
    """A default-width ``SolveQueue`` observed through its public ``solver=`` hook.

    The hook is the one place the harness meets operators the service builds
    internally: it spans them, runs the stock ``solve_wilson_batch`` and hands
    the solutions to ``on_results(operator, B, results)`` for verification.
    """

    if not tracer.enabled and on_results is None:
        return SolveQueue()

    def solver(operator, B, **kwargs):
        trace_wilson(tracer, operator)
        results = tracer.call(
            "solvers.solve_wilson_batch", "solvers",
            solve_wilson_batch, operator, B, **kwargs,
        )
        if on_results is not None:
            on_results(operator, B, results)
        return results

    queue = SolveQueue(solver=solver)
    tracer.wrap(queue, "submit", "serve.submit", "serve")
    tracer.wrap(queue, "flush", "serve.flush", "serve")
    return queue


def queue_metrics(run, op_type: str) -> dict[str, float]:
    """The ``serve.*`` rows, from the spans and counters of ``op_type`` ops."""
    counters = run.first_counters[op_type]
    batches = counters.get("serve/batches", 0)
    rhs = counters.get("serve/batched_rhs", 0)
    return {
        "serve.submit_s": run.mean_total(op_type, "serve.submit"),
        "serve.flush_self_s": run.mean_self(op_type, "serve.flush"),
        "serve.queue_wait_s": run.queue_wait(op_type),
        "serve.batches": batches,
        "serve.batched_rhs": rhs,
        "serve.coalescing_factor": rhs / batches if batches else 0.0,
    }
