"""``run.py --smoke``: tiny volumes, all four workloads, every check, < 60 s."""

import json
import subprocess
import sys
import time

from harness import metrics as M
from harness.runner import E2E_DIR


def test_smoke_mode_runs_every_workload_and_check():
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, str(E2E_DIR / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert time.time() - t0 < 60
    assert done.stdout.strip().endswith("smoke: ok")
    for workload in M.WORKLOADS:
        assert f"== {workload} " in done.stdout
    for name in ("setup_s", "wall_s", "peak_rss_mb", "failed_fraction",
                 "trace.unattributed_frac", *(m for m, *_ in M.OP_LATENCIES)):
        assert f" {name} " in done.stdout, name


def test_contract_line_of_a_single_smoke_run():
    done = subprocess.run(
        [sys.executable, str(E2E_DIR / "run.py"), "--workload", "hmc_stream", "--seed", "5",
         "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 2
    assert list(doc["metrics"]) == [name for name, *_ in M.END_TO_END]
    assert all(m["value"] > 0 for m in doc["metrics"].values())
