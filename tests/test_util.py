"""Unit tests for repro.util: rng plumbing, timers, flop accounting, tables."""

from __future__ import annotations

from statistics import median
from types import SimpleNamespace

import numpy as np
import pytest

from repro.util import (
    FlopCounter,
    Table,
    Timer,
    WILSON_DSLASH_FLOPS_PER_SITE,
    ensure_rng,
    format_bytes,
    format_si,
    restore_rng,
    rng_state,
    spawn_rngs,
)
from repro.util import timing
from repro.util.flops import cg_linalg_flops_per_iter, dslash_flops
from repro.util.timing import paired, paired_ratio, timed_rounds


class TestRng:
    def test_ensure_rng_from_seed_is_deterministic(self):
        a = ensure_rng(7).integers(0, 1000, size=10)
        b = ensure_rng(7).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_ensure_rng_passthrough(self):
        g = np.random.default_rng(3)
        assert ensure_rng(g) is g

    def test_ensure_rng_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_spawn_rngs_independent_and_deterministic(self):
        rngs1 = spawn_rngs(42, 4)
        rngs2 = spawn_rngs(42, 4)
        draws1 = [r.random() for r in rngs1]
        draws2 = [r.random() for r in rngs2]
        assert draws1 == draws2
        assert len(set(draws1)) == 4  # streams differ from each other

    def test_spawn_rngs_count(self):
        assert len(spawn_rngs(0, 7)) == 7

    def test_state_roundtrip_continues_stream_bit_for_bit(self):
        rng = np.random.default_rng(99)
        rng.normal(size=100)  # advance mid-stream
        state = rng_state(rng)
        ref = rng.normal(size=50)
        cont = restore_rng(state).normal(size=50)
        assert np.array_equal(ref, cont)

    def test_state_survives_json(self):
        import json

        rng = np.random.default_rng(5)
        rng.random(17)
        state = json.loads(json.dumps(rng_state(rng)))  # exact: Python ints
        assert restore_rng(state).random() == rng.random()

    def test_state_is_a_snapshot_not_a_view(self):
        rng = np.random.default_rng(1)
        state = rng_state(rng)
        rng.random(10)  # advancing the source must not touch the snapshot
        assert restore_rng(state).random() == restore_rng(state).random()

    def test_restore_rejects_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown bit generator"):
            restore_rng({"bit_generator": "NotARealBitGen"})


class TestTimers:
    def test_timer_measures_nonnegative(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed >= 0.0

    @staticmethod
    def _scripted_clock(monkeypatch, readings):
        """Make ``repro.util.timing`` read ``readings`` off its clock, in order."""
        it = iter(readings)
        monkeypatch.setattr(timing, "time", SimpleNamespace(perf_counter=lambda: next(it)))

    def test_timed_rounds_warms_up_once_then_alternates(self):
        calls = []
        a, b, c = (lambda name=name: calls.append(name) for name in "abc")
        samples = timed_rounds((a, b), 2)
        assert calls == ["a", "b", "a", "b", "b", "a"]
        assert [len(s) for s in samples] == [2, 2]
        calls.clear()
        timed_rounds([a, b, c], 3)
        assert calls == list("abc" "abc" "cba" "abc")

    def test_min_reduces_to_smallest_sample(self, monkeypatch):
        self._scripted_clock(monkeypatch, [0.0, 0.5, 1.0, 1.25, 2.0, 2.75])
        [samples] = timed_rounds([lambda: None], 3)
        assert samples == [0.5, 0.25, 0.75]
        assert min(samples) == 0.25

    def test_paired_ratio_estimator_on_a_scripted_clock(self, monkeypatch):
        """1 + median(diffs) / median(bases) over quads base, other, other,
        base, after one untimed call of each; the clock is read only around
        timed calls.  The literal is what the hand-written ABBA loop that
        preceded :func:`timed_rounds` returned for this script."""
        d = [1e-3 * (1.0 + 0.3 * (i % 4 in (1, 2)) + 0.01 * (i * 37 % 11)) for i in range(20)]
        readings = [0.0]
        for di in d:  # each call's start and end, 0.1 ms apart from the next
            readings += [readings[-1] + di, readings[-1] + di + 1e-4]
        calls = []
        self._scripted_clock(monkeypatch, readings)
        ratio = paired_ratio(lambda: calls.append("b"), lambda: calls.append("o"), quads=5)
        assert calls == ["b", "o"] + ["b", "o", "o", "b"] * 5
        d = [t1 - t0 for t0, t1 in zip(readings[::2], readings[1::2])][:20]
        bases, diffs = [], []
        for b1, o1, o2, b2 in zip(d[::4], d[1::4], d[2::4], d[3::4]):
            bases.append(0.5 * (b1 + b2))
            diffs.append(0.5 * (o1 + o2) - 0.5 * (b1 + b2))
        assert ratio == 1.0 + median(diffs) / median(bases) == 1.2857142857142856
        base_samples = [t for quad in zip(d[::4], d[3::4]) for t in quad]
        other_samples = [t for quad in zip(d[1::4], d[2::4]) for t in quad]
        assert paired([base_samples, other_samples]) == (bases, diffs)


class TestFlops:
    def test_dslash_flops_convention(self):
        assert WILSON_DSLASH_FLOPS_PER_SITE == 1320
        assert dslash_flops(100) == 132000

    def test_dslash_flops_clover(self):
        assert dslash_flops(10, clover=True) > dslash_flops(10)

    def test_cg_linalg_flops(self):
        assert cg_linalg_flops_per_iter(100) == 1000

    def test_counter_accumulates_and_merges(self):
        c1 = FlopCounter()
        c1.add("dslash", 100)
        c1.add("dslash", 50)
        c2 = FlopCounter()
        c2.add("linalg", 25)
        c1.merge(c2)
        assert c1.by_category == {"dslash": 150, "linalg": 25}
        assert c1.total() == 175
        c1.reset()
        assert c1.total() == 0


class TestReport:
    def test_format_si(self):
        assert format_si(2.5e9, "F/s") == "2.50 GF/s"
        assert format_si(0.0) == "0"
        assert "k" in format_si(1.2e3)
        assert "T" in format_si(3e12)

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert "KiB" in format_bytes(2048)
        assert "GiB" in format_bytes(3 * 2**30)

    def test_table_renders_rows(self):
        t = Table("Scaling", ["nodes", "GF/s"])
        t.add_row([1, 1.0])
        t.add_row([1024, 1.05e6])
        out = t.render()
        assert "Scaling" in out
        assert "nodes" in out
        assert "1024" in out

    def test_table_rejects_bad_row(self):
        t = Table("x", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_table_empty_renders(self):
        assert "hdr" in Table("hdr", ["a"]).render()


class TestBenchmarkArchiveCommit:
    """The ``commit`` a ``BENCH_*.json`` archive records says whether the
    tree it ran from differed from that commit."""

    @staticmethod
    def _git_commit():
        import importlib.util
        from pathlib import Path

        path = Path(__file__).parents[1] / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("_bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module._git_commit

    def test_clean_and_dirty_tree(self, tmp_path):
        import subprocess

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, capture_output=True, text=True, check=True,
            ).stdout.strip()

        git_commit = self._git_commit()
        assert git_commit(tmp_path) is None  # not a checkout
        git("init", "-q")
        (tmp_path / "f.txt").write_text("a\n")
        git("add", "f.txt")
        git("commit", "-qm", "one")
        git("tag", "v1")  # a tag does not replace the hash
        head = git("rev-parse", "HEAD")
        assert git_commit(tmp_path) == head
        (tmp_path / "f.txt").write_text("b\n")
        assert git_commit(tmp_path) == f"{head}-dirty"
