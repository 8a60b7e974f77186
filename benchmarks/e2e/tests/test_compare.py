"""Bound and verdict logic of ``run.py compare``."""

from harness import compare
from harness import metrics as M


def runs(center, jitter=0.0):
    return [center * (1 - jitter), center, center * (1 + jitter)]


def test_within_the_bound_is_unchanged():
    assert compare.verdict(runs(10), runs(10.9), 0.10) == "unchanged"
    assert compare.verdict(runs(10), runs(9.2), 0.10) == "unchanged"


def test_beyond_the_bound_and_resolved():
    assert compare.verdict(runs(10, 0.01), runs(12, 0.01), 0.10) == "regressed"
    assert compare.verdict(runs(10, 0.01), runs(8, 0.01), 0.10) == "improved"


def test_noisy_and_overlapping_is_unresolved():
    base = [8.0, 10.0, 14.0]
    new = [9.0, 12.0, 13.0]  # +20 % on the median, but inside the base's own range
    assert compare.spread(base) > 0.10
    assert compare.verdict(base, new, 0.10) == "unresolved"


def test_noisy_and_overlapping_is_unresolved_even_when_the_medians_agree():
    # +9 % on the median is within the bound, but runs that spread 60 %
    # could not have shown a 10 % change: not "unchanged".
    assert compare.verdict([8.0, 10.0, 14.0], [9.0, 10.9, 13.0], 0.10) == "unresolved"
    assert compare.verdict([8.0, 10.0, 14.0], [8.0, 10.0, 14.0], 0.10) == "unresolved"


def test_noisy_but_every_run_separated_is_resolved():
    assert compare.verdict([8.0, 10.0, 14.0], [20.0, 25.0, 30.0], 0.10) == "regressed"
    assert compare.verdict([8.0, 10.0, 14.0], [3.0, 4.0, 5.0], 0.10) == "improved"


def test_higher_is_better_flips_the_direction():
    assert compare.verdict(runs(10, 0.01), runs(12, 0.01), 0.10, "higher") == "improved"
    assert compare.verdict(runs(10, 0.01), runs(8, 0.01), 0.10, "higher") == "regressed"


def test_spread_is_iqr_over_median():
    assert compare.spread([5.0]) == 0.0
    assert compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == (4.5 - 1.5) / 3.0


def result(workload, wall, failed=0.0, counts=None, trace=False):
    return {
        "workload": workload, "trace": trace, "failed_fraction": failed,
        "counts": counts or {"iters": 91},
        "end_to_end": {"setup_s": {"value": 1.0}, "wall_s": {"value": wall},
                       "peak_rss_mb": {"value": 100.0}},
        "latencies": {"request_cold_s": {"value": wall / 16}, "solve_cg_s": {"value": wall / 4}, "store.warm_pass_s": {"value": 1e-3}},
    }


def test_compare_sets_rows_and_integrity(monkeypatch):
    monkeypatch.setattr(M, "UNGATED", frozenset())
    base = compare.summarise_set([result("solve_ladder", w) for w in (40.0, 41.0, 40.5)])
    same = compare.summarise_set([result("solve_ladder", w) for w in (40.2, 40.8, 41.1)])
    rows = compare.compare_sets(base, same)
    assert {r["metric"] for r in rows} == {
        "setup_s", "wall_s", "peak_rss_mb", "request_cold_s", "solve_cg_s"}
    assert {r["verdict"] for r in rows} == {"unchanged"}
    wall = next(r for r in rows if r["metric"] == "wall_s")
    assert wall["base"] == 40.5 and wall["bound"] == M.bound_of("wall_s")

    slow = compare.summarise_set([result("solve_ladder", w) for w in (60.0, 61.0, 62.0)])
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare_sets(base, slow)}
    assert verdicts["wall_s"] == "regressed" and verdicts["setup_s"] == "unchanged"

    broken = compare.summarise_set(
        [result("solve_ladder", 40.0, failed=0.1), result("solve_ladder", 40.0, counts={"iters": 92})]
    )
    bad = {r["metric"] for r in compare.compare_sets(base, broken) if r["verdict"] == "regressed"}
    assert {"failed_fraction", "pinned_counts"} <= bad


def test_an_ungated_pair_gets_a_row_and_no_verdict(monkeypatch):
    base = compare.summarise_set([result("solve_ladder", w) for w in (40.0, 41.0, 40.5)])
    monkeypatch.setattr(M, "UNGATED", frozenset({("setup_s", "solve_ladder")}))
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare_sets(base, base)}
    assert verdicts["setup_s"] == "ungated" and verdicts["wall_s"] == "unchanged"
    assert M.bound_of("setup_s", "spmd_dslash") == M.bound_of("setup_s")


def test_traced_runs_feed_failures_but_never_the_gated_medians():
    summary = compare.summarise_set(
        [result("solve_ladder", 40.0), result("solve_ladder", 400.0, failed=0.02, trace=True)]
    )
    assert summary["metrics"]["solve_ladder"]["wall_s"]["runs"] == [40.0]
    assert summary["failed_fraction"] == {"solve_ladder": 0.02}
    assert len(summary["counts"]["solve_ladder"]) == 1
