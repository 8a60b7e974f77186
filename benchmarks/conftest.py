"""Shared benchmark plumbing: result capture, table printing, JSON archive."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def _json_safe(value):
    """Coerce table cells / extras into JSON-serialisable values."""
    if isinstance(value, (np.generic,)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _git_commit() -> str | None:
    """``git rev-parse HEAD`` of the tree the benchmarks run from, or
    ``None`` outside a checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _run_config() -> dict:
    """The backend/kernel/comm configuration this benchmark run used, and
    the commit and host that produced it."""
    from repro.comm import resolve_comm_name
    from repro.kernels import resolve_kernel_name

    return {
        "kernel": resolve_kernel_name(),
        "comm": resolve_comm_name(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "host": {
            "node": platform.node(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
    }


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def show(capsys, results_dir):
    """Print a rendered table to the live terminal and archive it.

    Every call also writes ``BENCH_<name>.json`` next to the text table:
    title, columns, raw rows, and the resolved kernel/comm configuration
    with the commit and host, plus whatever the benchmark passes as ``extra`` (timings, rates,
    iteration counts) — the machine-readable record of the run.
    """

    def _show(table, filename: str, extra: dict | None = None) -> None:
        text = table.render()
        with capsys.disabled():
            print("\n" + text + "\n")
        (results_dir / filename).write_text(text + "\n")
        payload = {
            "title": table.title,
            "columns": list(table.columns),
            "rows": [_json_safe(row) for row in table.rows],
            "config": _run_config(),
        }
        if extra:
            payload["extra"] = _json_safe(extra)
        stem = Path(filename).stem
        (results_dir / f"BENCH_{stem}.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )

    return _show
