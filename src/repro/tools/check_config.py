"""Audit stored gauge configurations for silent data corruption.

Usage::

    python -m repro.tools.check_config ./ensemble            # every cfg_*.npz
    python -m repro.tools.check_config cfg_0003.npz another.npz
    python -m repro.tools.check_config ./store               # EnsembleStore root

A directory containing ``store.json`` is audited as a content-addressed
:class:`~repro.store.EnsembleStore`: every *live index entry* is checked
(``--store`` forces this interpretation), so an indexed object that has
vanished from disk is a failure (rc 2), not a silent skip.

For each configuration, three independent rings of validation:

1. **Container** — the byte-level checks :func:`repro.io.load_gauge`
   performs (archive, version, dtype, shape, CRC32; catches on-disk rot
   and truncation);
2. **SU(3) unitarity drift** — per-link ``max |u^dagger u - 1|`` against
   ``--unitarity-tol`` (catches corruption that preserved the container,
   e.g. a flipped bit *before* the file was written);
3. **Plaquette** — per-site values against the exact unitary-link range
   ``[-0.5, 1]``, and the configuration average against the header's
   ``plaquette`` stamp when one is present (catches value-level damage
   that somehow kept links unitary).

Exit status aggregates worst-of across every audited file: 0 when all are
clean, 1 when any physics check failed, 2 when any file was unreadable,
missing, or failed its CRC.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.guard import GuardPolicy, PLAQUETTE_RANGE, inspect_gauge
from repro.io import CorruptConfigError, load_gauge
from repro.loops import average_plaquette

__all__ = ["main", "build_parser", "check_file"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "paths", nargs="+", type=Path,
        help="configuration files (.npz) or directories of cfg_*.npz",
    )
    p.add_argument(
        "--unitarity-tol", type=float, default=1e-6,
        help="max allowed per-link |u^dagger u - 1| (default 1e-6)",
    )
    p.add_argument(
        "--plaquette-tol", type=float, default=1e-9,
        help="max allowed |<plaq> - header plaquette| (default 1e-9)",
    )
    p.add_argument("--quiet", action="store_true", help="only print failures")
    p.add_argument(
        "--store", action="store_true",
        help="treat directory arguments as EnsembleStore roots "
        "(auto-detected from store.json otherwise)",
    )
    return p


def _expand(paths: list[Path], store: bool = False) -> list[tuple[str, Path]]:
    """Expand arguments to ``(label, path)`` audit targets.

    Store roots expand to their live index entries; an indexed object whose
    file is missing keeps its (nonexistent) path so the audit reports it as
    rc 2 instead of skipping it.
    """
    from repro.store import EnsembleStore

    out: list[tuple[str, Path]] = []
    for p in paths:
        if p.is_dir() and (store or EnsembleStore.is_store(p)):
            st = EnsembleStore(p, create=False)
            if not len(st):
                raise FileNotFoundError(f"store {p} has no live index entries")
            out.extend((f"{p}:{key[:16]}", st.path_for(key)) for key in st.keys())
        elif p.is_dir():
            found = sorted(p.glob("cfg_*.npz"))
            if not found:
                raise FileNotFoundError(f"no cfg_*.npz files in {p}")
            out.extend((str(f), f) for f in found)
        else:
            out.append((str(p), p))
    return out


def check_file(
    path: Path, unitarity_tol: float = 1e-6, plaquette_tol: float = 1e-9
) -> tuple[int, str]:
    """Validate one file; returns ``(rc, message)`` with rc in {0, 1, 2}."""
    try:
        gauge, meta = load_gauge(path)  # container, shape and CRC ring
    except FileNotFoundError:
        return 2, "missing file"
    except CorruptConfigError as e:
        return 2, f"corrupt container: {e}"
    policy = GuardPolicy(level="detect", unitarity_tol=unitarity_tol)
    report = inspect_gauge(gauge.u, policy, context=path.name)
    problems = []
    if report.n_bad_links:
        problems.append(
            f"{report.n_bad_links} link(s) off SU(3) "
            f"(max drift {report.unitarity_max:.3e} > {unitarity_tol:.1e})"
        )
    lo, hi = PLAQUETTE_RANGE
    if not (
        report.plaquette_min >= lo - policy.plaquette_slack
        and report.plaquette_max <= hi + policy.plaquette_slack
    ):
        problems.append(
            f"per-site plaquette range [{report.plaquette_min:.6f}, "
            f"{report.plaquette_max:.6f}] outside {PLAQUETTE_RANGE}"
        )
    stamp = meta.get("plaquette")
    plaq = float(average_plaquette(gauge.u))
    if stamp is not None and abs(plaq - float(stamp)) > plaquette_tol:
        problems.append(
            f"average plaquette {plaq:.12f} != header stamp {float(stamp):.12f}"
        )
    if problems:
        return 1, "; ".join(problems)
    return 0, (
        f"OK  crc + {4 * gauge.lattice.volume} links unitary "
        f"(drift {report.unitarity_max:.1e}), plaquette {plaq:.6f}"
        + ("" if stamp is None else " == header stamp")
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        files = _expand(args.paths, store=args.store)
    except FileNotFoundError as e:
        print(f"error: {e}")
        return 2
    rc = 0
    for label, path in files:
        file_rc, message = check_file(
            path, unitarity_tol=args.unitarity_tol, plaquette_tol=args.plaquette_tol
        )
        if file_rc or not args.quiet:
            print(f"{label}: {message}")
        rc = max(rc, file_rc)
    if rc and not args.quiet:
        print(f"FAILED: silent-data-corruption audit found problems (exit {rc})")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
