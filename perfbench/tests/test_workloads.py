"""Command generation: deterministic per seed, equal work across seeds."""
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import workloads
from hfib import parse_poly

PERFBENCH = Path(workloads.__file__).resolve().parent
ALL = list(workloads.WORKLOADS)


def _args(workload, seed):
    return [cmd.args for cmd in workloads.build(workload, seed)]


@pytest.mark.parametrize("workload", ALL)
def test_one_seed_always_generates_the_same_command_list(workload):
    assert _args(workload, 7) == _args(workload, 7)
    script = f"import json, workloads; print(json.dumps([c.args for c in workloads.build({workload!r}, 7)]))"
    for hashseed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", script], cwd=PERFBENCH, check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONHASHSEED=hashseed)).stdout
        assert json.loads(out) == _args(workload, 7)


@pytest.mark.parametrize("workload", ALL)
def test_two_seeds_generate_equal_work_from_different_instances(workload):
    assert workloads.work_signature(workloads.build(workload, 1)) == \
        workloads.work_signature(workloads.build(workload, 2))
    assert _args(workload, 1) != _args(workload, 2)


def test_explore_renders_every_format_equally_often():
    batch = workloads.build("explore", 0)
    assert Counter(cmd.fmt for cmd in batch) == {fmt: 3 for fmt in workloads.FORMATS}
    assert {cmd.kind for cmd in batch} == {"gf", "table", "charpoly"}


def test_substitution_pool_lists_the_coefficients_of_each_expression():
    for text, coeffs in workloads.E_POOL:
        assert list(parse_poly(text).coeffs) == list(coeffs)
    sizes = {tuple(c.bit_length() for c in coeffs) for _, coeffs in workloads.E_POOL}
    assert len(sizes) == 1
    assert len({a.bit_length() for a in workloads.A_POOL}) == 1
