"""Calibration: build a machine spec for *this* host's Python kernels.

E9 validates the time model against reality at the only scale we can
measure — one Python process.  We time the Dslash core every rank (and the
default single-domain operator) executes, the ``fused`` kernel, convert to
a sustained flop rate, and construct a single-node spec whose model
predictions must then match further measurements within a stated tolerance.

With the process-parallel backends the *network* side becomes measurable
too: an shm "link" is a memcpy through shared memory, a tcp "link" is a
loopback (or real Ethernet) socket, and :func:`host_comm_spec` builds a
per-backend spec from the measured bandwidth and latency of each — the
second anchor the E22 comm-model validation compares modelled scaling
curves against.
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.fields import GaugeField, random_fermion
from repro.kernels import make_kernel
from repro.lattice import Lattice4D
from repro.machine.spec import MachineSpec
from repro.util.flops import WILSON_DSLASH_FLOPS_PER_SITE
from repro.util.timing import timed_rounds

__all__ = [
    "measured_dslash_rate",
    "calibrate_python_node",
    "measured_memcpy_bandwidth",
    "measured_tcp_link",
    "host_comm_spec",
]


def measured_dslash_rate(
    lattice: Lattice4D,
    repeats: int = 3,
    rng: int = 12345,
    dtype=None,
) -> tuple[float, float]:
    """(sites/s, nominal flop/s) of the ``fused`` hopping kernel on ``lattice``.

    The kernel the ranks run (:class:`repro.kernels.HaloStencil` evaluates
    its boxes on the same core), not the ``hopping_term`` specification,
    which is several times slower and which no rank executes.
    Best-of-``repeats`` timing to suppress scheduler noise, as the
    optimisation guide recommends for sub-second kernels.
    """
    import numpy as np

    dtype = dtype or np.complex128
    gauge = GaugeField.hot(lattice, rng=rng, dtype=dtype)
    psi = random_fermion(lattice, rng=rng + 1, dtype=dtype)
    out = np.empty_like(psi)
    kernel = make_kernel("fused")
    [samples] = timed_rounds(
        [lambda: kernel(gauge.u, psi, DEFAULT_FERMION_PHASES, out=out)], repeats
    )  # after one warm-up apply: link planes, arena
    sites_per_s = lattice.volume / min(samples)
    return sites_per_s, sites_per_s * WILSON_DSLASH_FLOPS_PER_SITE


def calibrate_python_node(
    lattice: Lattice4D | None = None,
    repeats: int = 3,
) -> MachineSpec:
    """A single-"node" spec whose sustained rate is this host's measured
    ``fused`` Dslash throughput.

    Network parameters are placeholders (one Python process has no
    network); only the compute side of the model is calibrated — exactly
    what E9 checks.
    """
    lattice = lattice or Lattice4D((8, 8, 8, 8))
    _, flops = measured_dslash_rate(lattice, repeats=repeats)
    return MachineSpec(
        name="python-node (calibrated)",
        peak_flops=flops,
        sustained_fraction=1.0,
        # Set memory bandwidth high enough that the roofline reproduces the
        # measured rate: the calibration folds all bottlenecks into flops.
        mem_bandwidth=flops * 10.0,
        link_bandwidth=1e9,
        n_links=1,
        latency=1e-6,
        per_hop_latency=0.0,
        torus_dims=0,
        cores_per_node=1,
        overlap_fraction=0.0,
    )


def measured_memcpy_bandwidth(nbytes: int = 1 << 25, repeats: int = 3) -> float:
    """Bytes/s of a large in-memory copy — the shm backend's "link"."""
    import numpy as np

    src = np.empty(nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    [samples] = timed_rounds([lambda: np.copyto(dst, src)], repeats)
    return nbytes / min(samples)


def measured_tcp_link(
    nbytes: int = 1 << 24, repeats: int = 3, host: str = "127.0.0.1"
) -> tuple[float, float]:
    """``(bytes/s, seconds)`` of the tcp backend's link on this host.

    Bandwidth: one large CRC-framed transfer (frame + tiny ack) through a
    real loopback TCP connection — the same framing the backend uses, so
    header and checksum costs are charged.  Latency: best-of half
    round-trip of an empty frame, the per-message cost the machine model's
    ``latency`` parameter represents.
    """
    import socket
    import threading

    from repro.comm.frame import recv_frame, send_frame

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind((host, 0))
    listener.listen(1)

    def echo_acks() -> None:
        peer, _ = listener.accept()
        peer.settimeout(30.0)
        peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                recv_frame(peer)
                send_frame(peer, b"")
        except Exception:
            pass
        finally:
            peer.close()

    server = threading.Thread(target=echo_acks, daemon=True)
    server.start()
    sock = socket.create_connection(listener.getsockname()[:2], timeout=30.0)
    sock.settimeout(30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def round_trip(payload: bytes):
        def run() -> None:
            send_frame(sock, payload)
            recv_frame(sock)

        return run

    try:
        # Each after one untimed round trip (buffers, congestion window).
        [bw] = timed_rounds([round_trip(b"\0" * nbytes)], repeats)
        [rtt] = timed_rounds([round_trip(b"")], max(8, repeats))
    finally:
        sock.close()
        listener.close()
    return nbytes / min(bw), min(rtt) / 2.0


def host_comm_spec(
    comm_name: str = "shm",
    lattice: Lattice4D | None = None,
    repeats: int = 3,
) -> MachineSpec:
    """A spec for *this* host running one rank process per "node" of the
    named communicator backend.

    Compute side: the measured ``fused`` Dslash rate (as E9's calibration),
    identical across backends.  Network side, per backend:

    ``shm``
        a halo "message" is a memcpy through shared memory — link
        bandwidth is the measured copy bandwidth; latency is one
        command/ack pipe round-trip (~tens of us);
    ``tcp``
        a halo message is a CRC-framed loopback socket transfer — link
        bandwidth and per-message latency are both measured through a
        real socket (:func:`measured_tcp_link`);
    ``virtual``
        falls back to the shm parameters, the host's only other real
        transport.

    The E22 driver feeds the resulting specs to the scaling model and
    tabulates modelled vs measured efficiency per backend.
    """
    base = calibrate_python_node(lattice, repeats=repeats)
    if comm_name == "tcp":
        link_bw, latency = measured_tcp_link(repeats=repeats)
    else:
        link_bw, latency = measured_memcpy_bandwidth(repeats=repeats), 50e-6
    return replace(
        base,
        name=f"{comm_name}-host (calibrated)",
        link_bandwidth=link_bw,
        n_links=1,
        latency=latency,
        per_hop_latency=0.0,
        torus_dims=0,
        cores_per_node=os.cpu_count() or 1,
    )
