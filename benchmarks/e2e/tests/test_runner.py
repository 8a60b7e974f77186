"""The closed loop's handling of failing ops."""

import json

import numpy as np

from harness import runner
from harness.workloads.base import Op, OpType, Workload


class HalfBroken(Workload):
    name = "half_broken"
    op_types = (OpType("ok", 1, "solve_cg_s"), OpType("boom", 1, "solve_eo_s"))
    setup_repeats = 1

    def generate(self, seed, smoke):
        return {"x": np.zeros(1)}

    def setup(self, inputs, tracer, workdir):
        return None

    def schedule(self, state):
        while True:
            yield Op("ok", lambda: 1, lambda result: result == 1)
            yield Op("boom", lambda: 1 / 0, lambda result: True)


def test_an_op_type_that_always_raises_is_a_failure_not_a_crash(monkeypatch, capsys):
    monkeypatch.setitem(runner.WORKLOADS, "half_broken", HalfBroken)
    result = runner.run_workload("half_broken", 1, 0.0, trace=False, smoke=True)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert list(result["latencies"]) == ["solve_cg_s"]  # no sample list for "boom"
    assert "ZeroDivisionError" in capsys.readouterr().err
    doc = json.loads(runner.contract_line(result))
    assert doc["correct"] is False and doc["failed"] == 1

