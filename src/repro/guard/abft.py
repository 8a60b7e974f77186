"""Algorithm-based fault tolerance for the Dslash hot path.

Two complementary probes, sampled every ``probe_interval`` forward
applications so the amortised cost on the fused kernel path stays in the
low single-digit percent range:

* **Link checksums** — per-direction CRC32 over the raw link bytes plus
  column sums (the classic ABFT invariant).  Any bit flip in the gauge
  field between probes changes the CRC; the per-direction granularity
  localises it for healing.
* **Linearity probes** — ``D(x + y)`` vs ``D(x) + D(y)`` on deterministic
  random probe vectors.  The Dirac operator is exactly linear over the
  field, so a defect above roundoff (or a non-finite defect) means the
  *computation* is corrupt: poisoned spinor scratch, a stale fused-kernel
  link table, or hardware trouble in the arithmetic itself.

:class:`GuardedOperator` wraps any :class:`~repro.dirac.LinearOperator`
with both probes.  It is transparent when the policy is ``off`` and
bit-for-bit transparent at every level (probing uses separate buffers and
``op.apply``, which does not disturb the wrapped operator's counters).
For a :class:`~repro.dirac.decomposed.DecomposedWilsonDirac` on a process
backend the gauge links also live in rank-resident blocks of the link
planes each rank's stencil reads in place, of which the master keeps no
copy; each rank checksums its own block
(:meth:`repro.comm.pool.RankPoolComm.block_checksums`, a rank command),
and a heal rewrites the blocks from the healed links.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.dirac.operator import LinearOperator
from repro.guard.errors import SDCDetected
from repro.guard.gauge import check_gauge, inspect_gauge
from repro.guard.policy import GuardPolicy, resolve_policy
from repro.telemetry import registry as _tm_registry
from repro.telemetry.instruments import timed_apply
from repro.telemetry.spans import instant
from repro.telemetry.state import STATE
from repro.util.rng import ensure_rng

__all__ = ["LinkChecksum", "linearity_probe", "GuardedOperator"]


def _crc(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr))


@dataclass(frozen=True)
class LinkChecksum:
    """Per-direction CRC32 + column sums of a gauge link array."""

    crcs: tuple[int, ...]
    column_sums: np.ndarray  # (4, 3, 3) complex

    @classmethod
    def encode(cls, u: np.ndarray) -> "LinkChecksum":
        with np.errstate(all="ignore"):
            col = u.reshape(4, -1, u.shape[-2], u.shape[-1]).sum(axis=1)
        return cls(tuple(_crc(u[mu]) for mu in range(u.shape[0])), col)

    def verify(self, u: np.ndarray, tol: float = 1e-8) -> list[int]:
        """Directions whose links changed since :meth:`encode` (CRC is the
        primary detector; the column sums catch in-register corruption of a
        cached contiguous copy that the bytes-on-disk CRC would miss)."""
        bad = []
        with np.errstate(all="ignore"):
            cur = u.reshape(4, -1, u.shape[-2], u.shape[-1]).sum(axis=1)
            scale = 1.0 + float(np.max(np.abs(self.column_sums)))
            for mu in range(u.shape[0]):
                if _crc(u[mu]) != self.crcs[mu]:
                    bad.append(mu)
                    continue
                delta = np.abs(cur[mu] - self.column_sums[mu])
                if (~np.isfinite(delta)).any() or float(np.max(delta)) > tol * scale:
                    bad.append(mu)
        return bad


def _probe_vectors(
    shape: tuple[int, ...], dtype, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    x = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)
    y = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)
    return x, y


def linearity_probe(
    op: LinearOperator,
    shape: tuple[int, ...],
    dtype,
    rng: np.random.Generator | int | None = None,
    vectors: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Relative defect of ``op(x + y) - op(x) - op(y)`` on random probes.

    Machine-precision small (or exactly zero) for a healthy linear operator;
    large or non-finite when the evaluation path is corrupt.  May return NaN
    — callers must treat non-finite as a failure, not compare with ``>``.

    ``vectors`` supplies a pre-drawn probe pair; the check is about the
    *operator*, not the vectors, so callers on a hot path (the wrapper
    below) cache one pair per (shape, dtype) instead of paying two full
    Gaussian draws per probe.
    """
    if vectors is None:
        x, y = _probe_vectors(shape, dtype, ensure_rng(rng))
    else:
        x, y = vectors
    with np.errstate(all="ignore"):
        dxy = op.apply(x + y)
        dx = op.apply(x)
        dy = op.apply(y)
        defect = float(np.max(np.abs(dxy - dx - dy)))
        scale = float(np.max(np.abs(dx)) + np.max(np.abs(dy)))
    if not np.isfinite(scale) or scale == 0.0:
        return float("nan") if not np.isfinite(scale) else defect
    return defect / scale


class GuardedOperator(LinearOperator):
    """ABFT wrapper: delegate every apply, probe every ``probe_interval``.

    The probe runs *before* the triggering application, so in heal mode a
    corrupted link field is reprojected before it pollutes the result.
    ``guard_events`` accumulates a record per detection/heal for ledgers
    and tests.
    """

    def __init__(
        self,
        op: LinearOperator,
        policy: GuardPolicy | str | None = None,
        rng: np.random.Generator | int | None = 0xABF7,
    ) -> None:
        super().__init__()
        self.op = op
        self.policy = resolve_policy(policy)
        self.flops_per_apply = op.flops_per_apply
        # Count guarded applies under the wrapped operator's label so flop
        # counters stay comparable across guard on/off.
        self.telemetry_label = getattr(
            op, "telemetry_label", type(op).__name__.lower()
        )
        self.telemetry_sites = getattr(op, "telemetry_sites", 0)
        self._rng = ensure_rng(rng)
        self._probe_pairs: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self.guard_events: list[dict] = []
        gauge = getattr(op, "gauge", None)
        self._u = gauge.u if gauge is not None else None
        self._checksum = (
            LinkChecksum.encode(self._u)
            if self.policy.enabled and self._u is not None
            else None
        )
        comm = getattr(op, "comm", None)
        # Block-level guarding works on any backend whose ranks hold blocks
        # and checksum them on request: shm and tcp alike.
        self._rank_blocks = (
            comm is not None
            and getattr(comm, "supports_rank_blocks", False)
            and hasattr(op, "_u_key")
        )
        self._shared_crcs = (
            list(comm.block_checksums(op._u_key))
            if self._rank_blocks and self.policy.enabled
            else None
        )

    # -- delegation -----------------------------------------------------------

    @property
    def lattice(self):
        return self.op.lattice

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.op.apply(x)

    def apply_dagger(self, x: np.ndarray) -> np.ndarray:
        return self.op.apply_dagger(x)

    def apply_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self.op.apply_into(x, out)

    def apply_dagger_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self.op.apply_dagger_into(x, out)

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self.n_applies += 1
        if (
            self.policy.enabled
            and self.policy.probe_interval > 0
            and self.n_applies % self.policy.probe_interval == 0
        ):
            self.probe_now(x.shape, x.dtype)
        if STATE.active:
            return timed_apply(self, x, out)
        if out is None:
            return self.apply(x)
        return self.apply_into(x, out)

    # -- probing --------------------------------------------------------------

    def probe_now(self, shape: tuple[int, ...], dtype=np.complex128) -> None:
        """Run the checksum + linearity probes immediately (also the entry
        point for tests and the E17 benchmark)."""
        if STATE.counting:
            _tm_registry.get_registry().add("guard/probes", 1)
        if self._checksum is not None:
            bad = self._checksum.verify(self._u)
            if bad:
                self._on_corrupt(
                    f"link checksum mismatch in direction(s) {bad}", kind="checksum"
                )
        if self._shared_crcs is not None:
            cur = list(self.op.comm.block_checksums(self.op._u_key))
            if cur != self._shared_crcs:
                ranks = [r for r, (a, b) in enumerate(zip(cur, self._shared_crcs)) if a != b]
                self._on_corrupt(
                    f"shared link-block checksum mismatch on rank(s) {ranks}",
                    kind="checksum-shm",
                )
        key = (tuple(shape), np.dtype(dtype).str)
        pair = self._probe_pairs.get(key)
        if pair is None:
            pair = self._probe_pairs[key] = _probe_vectors(shape, dtype, self._rng)
        defect = linearity_probe(self.op, shape, dtype, vectors=pair)
        if (not np.isfinite(defect)) or defect > self.policy.probe_tol:
            self._on_corrupt(
                f"linearity probe defect {defect:.3e} "
                f"(tol {self.policy.probe_tol:.1e})",
                kind="linearity",
            )
            # A gauge heal must actually have fixed the arithmetic.
            defect = linearity_probe(self.op, shape, dtype, vectors=pair)
            if (not np.isfinite(defect)) or defect > self.policy.probe_tol:
                raise SDCDetected(
                    f"linearity probe still failing after heal: {defect!r}"
                )

    def _on_corrupt(self, message: str, kind: str) -> None:
        event = {"kind": kind, "message": message, "n_applies": self.n_applies}
        if STATE.counting:
            _tm_registry.get_registry().add("guard/detections", 1)
            instant("guard_detect", cat="guard", kind=kind)
        if not self.policy.heal:
            self.guard_events.append({**event, "action": "detect"})
            raise SDCDetected(f"ABFT probe: {message}")
        report = check_gauge(self._u, self.policy, context=f"abft:{kind}")
        self._after_heal()
        if STATE.counting:
            reg = _tm_registry.get_registry()
            reg.add("guard/heals", 1)
            if report.healed_links:
                reg.add("guard/healed_links", report.healed_links)
        self.guard_events.append(
            {**event, "action": "heal", "healed_links": report.healed_links}
        )

    def _after_heal(self) -> None:
        """Propagate an in-place link repair to every derived cache."""
        invalidate = getattr(self.op, "invalidate_kernel_cache", None)
        if invalidate is not None:
            invalidate()
        if self._rank_blocks:
            # The operator's invalidate rewrote the rank link-plane blocks
            # from the healed links.
            self._shared_crcs = list(self.op.comm.block_checksums(self.op._u_key))
        if self._checksum is not None:
            self._checksum = LinkChecksum.encode(self._u)
