"""Sets of runs, and the verdict on one set against another.

A *set* is every workload run ``R`` times, interleaved.  Its value for a
(metric, workload) pair is the median of the per-run values, carried with
each run's value so the spread is visible.  ``compare`` judges a new set
against a base set with the bounds fixed in :mod:`metrics`:

``unresolved``  the run-to-run spread of either set is wider than the
                bound and the two sets' runs overlap: whatever the medians
                say, these runs cannot tell a change of that size
``unchanged``   the median moved by no more than the bound
``regressed``   worse by more than the bound
``improved``    better by more than the bound

A pair listed in ``metrics.UNGATED`` gets a row and no verdict (``ungated``).
"""

from __future__ import annotations

import statistics

from . import metrics as M

__all__ = ["summarise_set", "spread", "verdict", "compare_sets", "render_rows"]


def gated_values(result: dict) -> dict[str, float]:
    """The gated (bounded) metrics one untraced run reports."""
    out = {name: stats["value"] for name, stats in result["end_to_end"].items()}
    out.update(
        {
            name: stats["value"]
            for name, stats in result["latencies"].items()
            if M.bound_of(name) is not None
        }
    )
    return out


def summarise_set(results: list[dict]) -> dict:
    """``{workload: {metric: {"value": median, "runs": [...]}}}`` + integrity.

    Traced runs feed ``failed_fraction`` (some checks exist only there) but
    neither the timing medians nor the pinned counts.
    """
    table: dict[str, dict[str, dict]] = {}
    failed: dict[str, float] = {}
    counts: dict[str, list] = {}
    for result in results:
        failed[result["workload"]] = max(
            failed.get(result["workload"], 0.0), result["failed_fraction"]
        )
        if result["trace"]:
            continue
        rows = table.setdefault(result["workload"], {})
        for name, value in gated_values(result).items():
            rows.setdefault(name, {"runs": []})["runs"].append(value)
        counts.setdefault(result["workload"], []).append(result["counts"])
    for rows in table.values():
        for cell in rows.values():
            cell["value"] = statistics.median(cell["runs"])
    return {"metrics": table, "failed_fraction": failed, "counts": counts}


def spread(runs: list[float]) -> float:
    """Interquartile distance over the median (0 for a single run)."""
    if len(runs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(runs, n=4)
    median = statistics.median(runs)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    base_runs: list[float], new_runs: list[float], bound: float, better: str = "lower"
) -> str:
    """Judge ``new_runs`` against ``base_runs`` for one (metric, workload)."""
    sign = 1.0 if better == "lower" else -1.0  # after this, larger is worse
    base_runs = [sign * v for v in base_runs]
    new_runs = [sign * v for v in new_runs]
    base = statistics.median(base_runs)
    new = statistics.median(new_runs)
    if base == 0:
        return "unchanged" if new == 0 else "unresolved"
    change = (new - base) / abs(base)
    noisy = max(spread(base_runs), spread(new_runs)) > bound
    separated = min(new_runs) > max(base_runs) if change > 0 else max(new_runs) < min(base_runs)
    if noisy and not separated:
        return "unresolved"
    if abs(change) <= bound:
        return "unchanged"
    return "regressed" if change > 0 else "improved"


def compare_sets(base: dict, new: dict) -> list[dict]:
    """One row per (metric, workload) present in both sets."""
    rows = []
    for workload, metrics in base["metrics"].items():
        for name, cell in metrics.items():
            other = new["metrics"].get(workload, {}).get(name)
            if other is None:
                continue
            bound = M.bound_of(name, workload)  # None: shown, not judged
            rows.append(
                {
                    "metric": name,
                    "workload": workload,
                    "unit": M.unit_of(name),
                    "base": cell["value"],
                    "new": other["value"],
                    "ratio": other["value"] / cell["value"] if cell["value"] else float("nan"),
                    "bound": bound,
                    "base_spread": spread(cell["runs"]),
                    "new_spread": spread(other["runs"]),
                    "verdict": "ungated" if bound is None
                    else verdict(cell["runs"], other["runs"], bound, M.better_of(name)),
                }
            )
    for workload in base["failed_fraction"]:
        fractions = [side["failed_fraction"].get(workload, 0.0) for side in (base, new)]
        if any(fractions):
            rows.append(_integrity_row("failed_fraction", workload, *fractions, "ops failed"))
        first = base["counts"][workload][0]
        every = base["counts"][workload] + new["counts"].get(workload, [])
        if any(c != first for c in every):
            nan = float("nan")
            rows.append(
                _integrity_row(
                    "pinned_counts", workload, nan, nan, "exact counts differ between runs"
                )
            )
    return rows


def _integrity_row(metric: str, workload: str, base: float, new: float, note: str) -> dict:
    """A row for a broken invariant: always ``regressed``, bound 0."""
    return {
        "metric": metric, "workload": workload, "unit": "ratio", "base": base, "new": new,
        "ratio": float("nan"), "bound": 0.0, "base_spread": 0.0, "new_spread": 0.0,
        "verdict": "regressed", "note": note,
    }


def render_rows(rows: list[dict]) -> str:
    head = (
        f"{'metric':<18} {'workload':<17} {'base':>12} {'new':>12} {'new/base':>9} "
        f"{'bound':>6} {'spread b/n':>13}  verdict"
    )
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r['metric']:<18} {r['workload']:<17} {r['base']:>12.6g} {r['new']:>12.6g} "
            f"{r['ratio']:>9.4f} {'-' if r['bound'] is None else format(r['bound'], '.2f'):>6} "
            f"{r['base_spread']:>6.3f}/{r['new_spread']:<6.3f}  {r['verdict']}"
            + (f"  ({r['note']})" if "note" in r else "")
        )
    return "\n".join(lines)
