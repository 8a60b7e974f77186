"""The README's baseline table, generated from ``results/history.jsonl``."""

from __future__ import annotations

import statistics
from pathlib import Path

from . import metrics as M
from .compare import gated_values, spread
from .protocol import read_history

__all__ = ["baseline_markdown", "rewrite_baseline"]

BEGIN = "<!-- baseline:begin (generated by `run.py baseline`; do not edit) -->"
END = "<!-- baseline:end -->"


def _row(workload: str, name: str, unit: str, values: list[float], bound: float | None) -> str:
    return (
        f"| `{workload}` | `{name}` | {unit} | {statistics.median(values):.6g} | "
        f"{min(values):.6g} | {max(values):.6g} | {spread(values):.3f} | {len(values)} | "
        f"{'ungated' if bound is None else format(bound, '.2f')} |"
    )


def baseline_markdown(history: list[dict]) -> str:
    """Markdown for the full-size runs in ``history`` (smoke runs skipped)."""
    runs = [r for r in history if not r.get("smoke")]
    if not runs:
        return "_no full-size runs recorded yet_\n"
    last = runs[-1]
    # One seed, one commit: exact counts and iteration-bound latencies only
    # compare within a seed.
    runs = [r for r in runs if r["seed"] == last["seed"] and r["git"] == last["git"]]
    host = last["host"]
    lines = [
        f"Host: {host['cpu_model']}, nproc {host['nproc']}, LLC "
        f"{host['llc_bytes'] / 2**20:.0f} MiB, python {host['python']}, numpy "
        f"{host['numpy']}, kernel `{host['kernel']}`, batch cap {host['batch_cap']}, "
        f"BLAS threads {host['blas_env']['OMP_NUM_THREADS']}.  ",
        f"Commit `{str(last['git']['sha'])[:12]}` (dirty: {last['git']['dirty']}), "
        f"{len(runs)} runs, seeds {sorted({r['seed'] for r in runs})}, "
        f"{last['seconds']:g} s measured per run.",
        "",
        "### End-to-end metrics and op latencies (untraced runs: median of per-run values, min .. max)",
        "",
        "| workload | metric | unit | median | min | max | spread (IQR/median) | runs | bound |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for workload in M.WORKLOADS:
        untraced = [r for r in runs if r["workload"] == workload and not r["trace"]]
        if not untraced:
            continue
        columns: dict[str, list[float]] = {}
        for run in untraced:
            for name, value in gated_values(run).items():
                columns.setdefault(name, []).append(value)
        for name, values in columns.items():
            lines.append(_row(workload, name, M.unit_of(name), values, M.bound_of(name, workload)))
            if name == "wall_s":  # the same list at median latencies, for reference
                at_p50 = [r["end_to_end"]["wall_s"]["at_p50"] for r in untraced]
                lines.append(_row(workload, "wall_s at p50 latencies", "s", at_p50, None))
        failed = max(r["failed_fraction"] for r in untraced)
        lines.append(f"| `{workload}` | `failed_fraction` | ratio | {failed:g} | | | | "
                     f"{len(untraced)} | 0 |")
    lines += [
        "",
        "### Per-layer metrics (latest traced run of each workload; blank = layer bypassed)",
        "",
        "| metric | unit | " + " | ".join(f"`{w}`" for w in M.WORKLOADS) + " |",
        "|---|---|" + "---|" * len(M.WORKLOADS),
    ]
    traced = {}
    for run in runs:
        if run["trace"]:
            traced[run["workload"]] = run
    for name in M.per_layer_names():
        cells = []
        for workload in M.WORKLOADS:
            value = traced.get(workload, {}).get("per_layer", {}).get(name, 0)
            cells.append(f"{value:.6g}" if value else "")
        if any(cells):
            lines.append(f"| `{name}` | {M.unit_of(name)} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def rewrite_baseline(readme: Path, history_path: Path) -> None:
    text = readme.read_text(encoding="utf-8")
    head, _, rest = text.partition(BEGIN)
    _, _, tail = rest.partition(END)
    if not rest:
        raise ValueError(f"{readme} has no baseline markers")
    body = baseline_markdown(read_history(history_path))
    readme.write_text(f"{head}{BEGIN}\n{body}{END}{tail}", encoding="utf-8")
