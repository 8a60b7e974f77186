"""Tcp-specific drills: framing, rendezvous, faults, and leak-free teardown.

The bit-parity matrix runs in ``tests/test_comm_backends.py``; this module
covers what is inherently about the socket transport — torn-frame
detection (a rank killed mid-send must never let a partial length-prefixed
message be read as data), typed connect/recv faults that ``run_resilient``
retries, the cross-host ``--connect`` rendezvous, and ``/proc``-verified
absence of orphan rank processes and leaked sockets.
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CommConnectError,
    CommError,
    CommPeerError,
    CommTimeoutError,
    RankGrid,
    TcpComm,
    TornFrameError,
    VirtualComm,
    make_comm,
)
from repro.comm.frame import (
    FRAME_MAGIC,
    TAG_OBJ,
    TAG_RAW,
    recv_frame,
    recv_msg,
    send_frame,
    send_msg,
)
from repro.comm.tcp import run_worker

GRID2 = RankGrid((2, 1, 1, 1))
KW = {"timeout": 20.0, "connect_timeout": 20.0}


def _proc_alive(pid: int) -> bool:
    """True when ``pid`` exists in /proc and is not a reaped zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split()[2] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


# -- framing: the torn-frame regression satellite -----------------------------


class TestFraming:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_roundtrip(self):
        a, b = self._pair()
        send_frame(a, b"halo-face-bytes", tag=TAG_RAW)
        assert recv_frame(b) == (TAG_RAW, b"halo-face-bytes")
        a.close(), b.close()

    def test_partial_payload_is_torn_not_data(self):
        # A peer killed mid-send leaves a prefix of the frame in the buffer:
        # the receiver must raise, never return the partial bytes as payload.
        a, b = self._pair()
        payload = b"x" * 4096
        header = struct.pack("<4sBII", FRAME_MAGIC, TAG_RAW, len(payload), zlib.crc32(payload))
        a.sendall(header + payload[: len(payload) // 2])
        a.close()  # rank dies mid-send
        with pytest.raises(TornFrameError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_partial_header_is_torn(self):
        a, b = self._pair()
        a.sendall(struct.pack("<4sBII", FRAME_MAGIC, TAG_RAW, 100, 0)[:7])
        a.close()
        with pytest.raises(TornFrameError):
            recv_frame(b)
        b.close()

    def test_corrupt_payload_fails_crc(self):
        a, b = self._pair()
        payload = b"y" * 64
        header = struct.pack("<4sBII", FRAME_MAGIC, TAG_RAW, len(payload), zlib.crc32(payload))
        corrupted = bytearray(payload)
        corrupted[10] ^= 0xFF
        a.sendall(header + bytes(corrupted))
        with pytest.raises(TornFrameError, match="CRC"):
            recv_frame(b)
        a.close(), b.close()

    def test_bad_magic_is_torn(self):
        a, b = self._pair()
        a.sendall(struct.pack("<4sBII", b"JUNK", TAG_RAW, 0, 0))
        with pytest.raises(TornFrameError, match="magic"):
            recv_frame(b)
        a.close(), b.close()

    def test_clean_eof_is_peer_gone_not_torn(self):
        a, b = self._pair()
        a.close()
        with pytest.raises(CommPeerError):
            recv_frame(b)
        b.close()

    def test_recv_timeout_is_typed(self):
        a, b = self._pair()
        b.settimeout(0.1)
        with pytest.raises(CommTimeoutError):
            recv_frame(b)
        a.close(), b.close()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_adversarial_stream_raises_only_typed_faults(self, data):
        # A valid control stream (what master and ranks exchange), then
        # CRC-valid frames with arbitrary payloads spliced in, then one
        # truncation / bit flip / splice of the byte stream.  The reader
        # may decode some messages; it must end in a CommError subclass —
        # never a pickle error, a struct error, or a hang.
        a, b = self._pair()
        send_msg(a, ("dslash", "psi1", 1, (1.0, -1.0)), b"\x01" * 64)
        send_msg(a, ("ok", None))
        junk = st.tuples(st.sampled_from([TAG_OBJ, TAG_RAW, 9]), st.binary(max_size=48))
        for tag, payload in data.draw(st.lists(junk, max_size=3)):
            send_frame(a, payload, tag)
        stream = bytearray(b.recv(1 << 16))  # the wire bytes, to damage and replay
        mutation = data.draw(st.sampled_from(["none", "truncate", "flip", "splice"]))
        at = data.draw(st.integers(0, len(stream) - 1))
        if mutation == "truncate":
            del stream[at:]
        elif mutation == "flip":
            stream[at] ^= 1 << data.draw(st.integers(0, 7))
        elif mutation == "splice":
            lo = data.draw(st.integers(0, len(stream) - 1))
            stream[at:at] = stream[lo : lo + data.draw(st.integers(1, 32))]
        b.settimeout(0.2)
        a.sendall(bytes(stream))
        a.close()
        t0 = time.monotonic()
        with pytest.raises(CommError):
            while True:
                recv_msg(b)
        assert time.monotonic() - t0 < 2.0
        b.close()


# -- connect / rendezvous faults ----------------------------------------------


class TestConnectFaults:
    def test_worker_connect_refusal_is_typed(self):
        # Port 1 is never listening; the retry window expires quickly.
        with pytest.raises(CommConnectError, match="connect"):
            run_worker(("127.0.0.1", 1), rank=0, connect_timeout=0.5)

    def test_master_rendezvous_timeout_is_typed(self):
        # One rank is reserved for an external joiner that never appears.
        t0 = time.monotonic()
        with pytest.raises(CommTimeoutError, match="never connected"):
            TcpComm(GRID2, timeout=5.0, connect_timeout=1.5, n_external=1)
        assert time.monotonic() - t0 < 10.0

    def test_failed_rendezvous_leaves_no_orphans_or_sockets(self):
        before = _open_fds()
        with pytest.raises(CommTimeoutError):
            TcpComm(GRID2, timeout=5.0, connect_timeout=1.0, n_external=2)
        time.sleep(0.2)
        assert _open_fds() <= before + 1  # transient fd churn only


# -- runtime faults -----------------------------------------------------------


class TestRuntimeFaults:
    def test_kill_rank_mid_exchange_is_typed_and_leak_free(self):
        comm = TcpComm(GRID2, **KW)
        pids = list(comm._pids)
        key = comm.new_key("x")
        comm.alloc_blocks(key, (4, 4, 4, 4, 4, 3), np.complex128)
        comm.kill_rank(1)
        assert comm.workers_alive() == [True, False]
        assert not comm.healthy
        # The surviving rank's peer recv and the dead rank's ack both fail
        # with typed errors naming the rank, instead of hanging.
        with pytest.raises(CommError, match="rank 1"):
            comm.exchange_shared(key, width=1)
        comm.close()
        time.sleep(0.2)
        assert not any(_proc_alive(p) for p in pids), "orphan rank process"

    def test_recv_timeout_via_wedged_rank(self):
        # Same drill on both process transports: the deadline lives in the
        # shared command sweep, the ``sleep`` op in the shared executor.
        for backend, kw in (("tcp", {"connect_timeout": 20.0}), ("shm", {})):
            with make_comm(GRID2, backend, timeout=1.0, **kw) as comm:
                with pytest.raises(CommTimeoutError, match="rank"):
                    comm._command(("sleep", 5.0))

    def test_fault_injector_kill_hook(self):
        from repro.campaign.faults import FaultInjector

        inj = FaultInjector().kill_rank(rank=0, at_command=1)
        comm = TcpComm(GRID2, timeout=10.0, connect_timeout=20.0, fault_injector=inj)
        pids = list(comm._pids)
        with pytest.raises(CommError, match="rank 0"):
            comm.ping()
        comm.close()
        time.sleep(0.2)
        assert not any(_proc_alive(p) for p in pids)

    def test_fault_injector_drop_ack_keeps_stream_in_sync(self):
        from repro.campaign.faults import FaultInjector

        inj = FaultInjector().drop_ack(rank=1, at_command=1)
        with TcpComm(GRID2, timeout=10.0, connect_timeout=20.0, fault_injector=inj) as comm:
            with pytest.raises(CommError, match="ack dropped"):
                comm.ping()
            assert comm.ping() is True  # fault fired once; sockets survive

    def test_comm_errors_are_retryable_by_run_resilient(self):
        # The taxonomy contract: every comm fault is a RuntimeError, so the
        # campaign supervisor retries it with a fresh communicator.
        from repro.campaign.runner import RetryPolicy, run_resilient

        for cls in (CommConnectError, CommTimeoutError, CommPeerError, TornFrameError):
            assert issubclass(cls, CommError) and issubclass(cls, RuntimeError)

        comms = []

        def factory():
            comm = TcpComm(RankGrid((1, 1, 1, 1)), **KW)
            comms.append(comm)
            return comm

        class FlakyCampaign:
            attempts = 0

            def run(self, fault=None, comm=None, progress=None, guard=None):
                FlakyCampaign.attempts += 1
                assert comm is not None and comm.ping()
                if FlakyCampaign.attempts == 1:
                    raise CommTimeoutError("injected: first segment wedged")

                class Summary:
                    retries = 0

                return Summary()

        summary = run_resilient(
            FlakyCampaign(),
            comm_factory=factory,
            retry=RetryPolicy(max_retries=2, backoff_base=0.0),
            sleep=lambda s: None,
        )
        assert summary.retries == 1
        assert len(comms) == 2
        assert all(c._closed for c in comms)  # supervisor closed every attempt


# -- teardown / leak accounting -----------------------------------------------


class TestTeardown:
    def test_close_reaps_processes_and_sockets(self):
        before = _open_fds()
        comm = TcpComm(GRID2, **KW)
        pids = list(comm._pids)
        comm.alloc_blocks(comm.new_key("x"), (4, 4, 4, 4, 4, 3), np.complex128)
        assert comm.ping()
        comm.close()
        comm.close()  # idempotent
        time.sleep(0.2)
        assert not any(_proc_alive(p) for p in pids)
        assert _open_fds() <= before + 1
        with pytest.raises(RuntimeError):
            comm.ping()

    def test_atexit_sweep_closes_stragglers(self):
        from repro.comm.lifecycle import LIVE_COMMS, close_live_comms

        comm = TcpComm(RankGrid((1, 1, 1, 1)), **KW)
        pids = list(comm._pids)
        assert comm in LIVE_COMMS
        close_live_comms()  # what atexit runs if the driver dies with comms open
        assert comm._closed
        time.sleep(0.2)
        assert not any(_proc_alive(p) for p in pids)


# -- cross-host rendezvous (loopback stand-in) --------------------------------


class TestExternalRendezvous:
    def test_external_rank_joins_via_cli_and_is_bit_identical(self):
        from repro.dirac.decomposed import DecomposedWilsonDirac
        from repro.fields import GaugeField, random_fermion
        from repro.lattice import Lattice4D

        # Reserve a port, start the external worker *first* (its rendezvous
        # dial retries), then bring up the master with one rank reserved.
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.comm.tcp",
                "--connect",
                f"127.0.0.1:{port}",
                "--connect-timeout",
                "30",
            ],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            comm = TcpComm(
                GRID2, timeout=30.0, connect_timeout=30.0, port=port, n_external=1
            )
            lat = Lattice4D((4, 4, 6, 4))
            gauge = GaugeField.hot(lat, rng=5)
            psi = random_fermion(lat, rng=9)
            want = DecomposedWilsonDirac(gauge, 0.1, VirtualComm(GRID2)).apply(psi)
            got = DecomposedWilsonDirac(gauge, 0.1, comm).apply(psi)
            assert np.array_equal(want, got)
            comm.close()
            assert proc.wait(timeout=15) == 0  # clean stop, not a kill
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
