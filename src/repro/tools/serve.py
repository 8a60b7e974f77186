"""Smoke-test the coalescing solve queue on a synthetic request burst.

Builds a Wilson operator on a warm configuration, submits a burst of
point-source solve requests through :class:`repro.serve.SolveQueue`, and
reports how they coalesced: batches executed, mean batch width, solves/s
and sites*RHS/s, plus per-request convergence.  Exit status is nonzero
if any request fails to converge — the same contract as the other
``repro.tools`` production stages.

    python -m repro.tools.serve --dims 4 4 4 4 --requests 12 --nrhs 6

On exit the ``serve/*`` telemetry counters (requests, batches, coalesced
RHS columns) are printed, so the achieved batching factor is visible
without enabling telemetry by hand.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField
from repro.lattice import Lattice4D
from repro.measure.propagator import point_sources
from repro.serve import SolveQueue
from repro.telemetry import telemetry_mode
from repro.telemetry.registry import get_registry
from repro.telemetry.state import STATE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--dims", type=int, nargs=4, default=(4, 4, 4, 4),
        metavar=("NT", "NZ", "NY", "NX"), help="lattice extents",
    )
    p.add_argument("--mass", type=float, default=0.2, help="bare quark mass")
    p.add_argument(
        "--requests", type=int, default=12,
        help="solve requests to submit (spin/colour point sources, cycled)",
    )
    p.add_argument(
        "--nrhs", "--max-nrhs", dest="max_nrhs", type=int, default=None,
        help="batch-width cap, i.e. $REPRO_BATCH_NRHS as a flag "
        "(default: the env var, then 12)",
    )
    p.add_argument("--tol", type=float, default=1e-8, help="solve tolerance")
    p.add_argument(
        "--background", action="store_true",
        help="dispatch through the background coalescing thread instead of "
        "a synchronous flush",
    )
    p.add_argument("--seed", type=int, default=7, help="gauge-field seed")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    lat = Lattice4D(tuple(args.dims))
    gauge = GaugeField.warm(lat, rng=args.seed)
    dirac = WilsonDirac(gauge, args.mass)
    queue = SolveQueue(max_nrhs=args.max_nrhs)

    sources = point_sources(lat, (0, 0, 0, 0))
    # Counters stay on for the run so the exit summary is always available;
    # an already-active mode (e.g. REPRO_TELEMETRY=trace) is left alone.
    with telemetry_mode(STATE.mode if STATE.counting else "counters"):
        counters0 = dict(get_registry().counters())
        t0 = time.perf_counter()
        if args.background:
            with queue:
                futures = [
                    queue.submit(
                        dirac, sources[i % len(sources)], tol=args.tol
                    )
                    for i in range(args.requests)
                ]
                results = [f.result(timeout=600) for f in futures]
        else:
            futures = [
                queue.submit(dirac, sources[i % len(sources)], tol=args.tol)
                for i in range(args.requests)
            ]
            queue.flush()
            results = [f.result(timeout=0) for f in futures]
        elapsed = time.perf_counter() - t0
        serve_counters = {
            k: v - counters0.get(k, 0)
            for k, v in get_registry().counters().items()
            if k.startswith("serve/") and v != counters0.get(k, 0)
        }

    n = len(results)
    converged = sum(r.converged for r in results)
    iters = [r.iterations for r in results]
    print(f"lattice {tuple(args.dims)}  mass {args.mass}  requests {n}")
    print(
        f"batch width cap {queue.max_nrhs}  "
        f"mode {'background' if args.background else 'flush'}"
    )
    print(
        f"converged {converged}/{n}  iterations "
        f"min/mean/max {min(iters)}/{sum(iters) / n:.1f}/{max(iters)}"
    )
    print(
        f"{n / elapsed:.2f} solves/s  "
        f"{n * lat.volume / elapsed:.3e} sites*RHS/s  "
        f"({elapsed:.2f} s total)"
    )
    for name in sorted(serve_counters):
        print(f"  {name} = {serve_counters[name]}")
    return 0 if converged == n else 1


if __name__ == "__main__":
    sys.exit(main())
