"""Statistics and environment rules of the fixed protocol."""

import statistics

import pytest

from harness.protocol import PINNED_ENV, pin_environment, summarize, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (1 - expected / 100) >= 10 - 1e-9


def test_summarize_reports_median_quartiles_and_tail():
    values = list(range(1, 101))
    stats = summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats["value"] == 50.5 and (stats["q1"], stats["q3"]) == (q1, q3)
    assert stats["n"] == 100 and stats["tail_pct"] == 90.0 and stats["tail"] == 90
    assert sum(v > stats["tail"] for v in values) >= 10
    assert stats["low"] == statistics.quantiles(values, n=4, method="inclusive")[0]


def test_low_quartile_never_extrapolates_below_the_fastest_sample():
    assert summarize([2.0, 6.0])["low"] == 3.0
    assert summarize([2.0, 2.2, 9.0])["low"] == 2.1  # one stalled sample changes nothing
    assert summarize([5.0])["low"] == 5.0


def test_summarize_small_samples_have_no_tail():
    assert "tail" not in summarize([3.0, 1.0, 2.0])
    one = summarize([4.0])
    assert one["value"] == one["q1"] == one["q3"] == 4.0
    with pytest.raises(ValueError):
        summarize([])


def test_pin_environment_clears_every_repro_switch():
    env = {"REPRO_KERNEL": "reference", "REPRO_TELEMETRY": "trace", "OMP_NUM_THREADS": "8",
           "HOME": "/root"}
    cleared = pin_environment(env)
    assert cleared == {"REPRO_KERNEL": "reference", "REPRO_TELEMETRY": "trace"}
    assert not any(k.startswith("REPRO_") for k in env)
    assert all(env[k] == "1" for k in PINNED_ENV) and env["HOME"] == "/root"


_LEAVES_NOTHING = """
import subprocess, sys
from multiprocessing import shared_memory
sys.path.insert(0, {e2e!r})
from harness import protocol

assert protocol.adopt_orphans()
segment = shared_memory.SharedMemory(create=True, size=64)  # starts the resource tracker
# a child that ignores SIGTERM, and an orphan: a grandchild whose parent has exited
stubborn = "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); print(1, flush=True); time.sleep(60)"
child = subprocess.Popen([sys.executable, "-c", stubborn], stdout=subprocess.PIPE)
child.stdout.read(1)
subprocess.run(["sh", "-c", "sleep 60 & exit 0"])
assert len(protocol._children()) >= 3, protocol._children()
segment.close(); segment.unlink()
protocol.stop_child_processes(grace_s=0.5)
assert protocol._children() == [], protocol._children()
"""


def test_stop_child_processes_leaves_no_child_tracker_or_orphan():
    import subprocess
    import sys
    from pathlib import Path

    e2e = str(Path(__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _LEAVES_NOTHING.format(e2e=e2e)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
