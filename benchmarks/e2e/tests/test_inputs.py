"""Inputs derive from the seed and from nothing else."""

import pytest

from harness.workloads import WORKLOADS
from harness.workloads.base import inputs_digest


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    workload = WORKLOADS[name]()
    first = workload.generate(11, smoke=True)
    again = workload.generate(11, smoke=True)
    assert sorted(first) == sorted(again)
    assert inputs_digest(first) == inputs_digest(again)
    assert inputs_digest(first) != inputs_digest(workload.generate(12, smoke=True))
