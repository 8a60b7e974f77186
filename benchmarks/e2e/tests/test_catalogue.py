"""BENCHMARK.json, the metric catalogue and the pinned counts stay in step."""

import json
import re

from harness import metrics as M
from harness.runner import E2E_DIR, EXPECTED_COUNTS
from harness.workloads import WORKLOADS

BENCHMARK = json.loads((E2E_DIR.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_lists_exactly_the_catalogue():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) == list(M.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == list(M.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == M.per_layer_names()
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == M.unit_of(m["name"]) and m["better"] == M.better_of(m["name"])


def test_names_units_and_bounds_meet_the_contract():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in BENCHMARK["end_to_end"]
    )
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128 and 2 <= len(BENCHMARK["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])


def test_every_op_latency_belongs_to_a_workload_op_type():
    published = {
        (w.name, t.name, t.metric) for w in (cls() for cls in WORKLOADS.values())
        for t in w.op_types
    }
    for metric, workload, op_type, bound in M.OP_LATENCIES:
        assert (workload, op_type, metric) in published
        assert M.bound_of(metric) == bound and 0 < bound <= 0.25
    gated = {(m, w) for m, w, *_ in M.OP_LATENCIES}
    gated |= {(m, w) for m, *_ in M.END_TO_END for w in M.WORKLOADS}
    assert M.UNGATED <= gated
    assert all(M.bound_of(m, w) is None for m, w in M.UNGATED)


def test_pinned_counts_name_known_workloads():
    doc = json.loads(EXPECTED_COUNTS.read_text())
    for size in ("full", "smoke"):
        section = doc[size]
        for block in [section["any_seed"], *section["seeds"].values()]:
            assert set(block) <= set(WORKLOADS)
