"""The names the benchmark in perfbench/ reads from hfib still exist.

perfbench/kernels.py reports null for a kernel whose hfib names are
gone, and perfbench/run.py reports null for a self-time metric none of
whose functions the tracer could wrap.  Both run here in children, as
the benchmark runs them, and neither may come back null.  The oracle
the benchmark checks `verify` output with must refuse every report that
is not a clean pass at the bounds asked for.  Nothing under perfbench/
is edited.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import corrupt_check
from hfib import report_to_dict, run_suite

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run(args, **kwargs):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=ENV, **kwargs)
    assert proc.returncode == 0, proc.stderr[-500:]
    return proc


def test_every_kernel_is_measured(tmp_path):
    out = tmp_path / "kernels.json"
    run([str(PERFBENCH / "kernels.py"), str(out), "1"])
    kernels = json.loads(out.read_text())
    assert kernels and not [name for name, v in kernels.items() if v is None]


def test_every_self_time_metric_has_a_wrapped_function(tmp_path):
    probe = "import json, run; print(json.dumps(run.SELF_MS))"
    self_ms = json.loads(run(["-c", probe], cwd=PERFBENCH).stdout)
    wrapped = set()
    for i, argv in enumerate([
        ["verify", "--r-max", "2", "--n-max", "4"],
        ["table", "--r", "1,2", "--n-max", "4", "--subst", "h^2+1"],
    ]):
        spans = tmp_path / f"spans{i}.json"
        run([str(PERFBENCH / "tracer.py"), str(spans), str(i), *argv])
        wrapped |= set(json.loads(spans.read_text())["wrapped"])
    assert self_ms
    unwrapped = [metric for metric, names in self_ms.items() if not wrapped & set(names)]
    assert not unwrapped, unwrapped


def load_oracle():
    spec = importlib.util.spec_from_file_location("oracle", PERFBENCH / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


@pytest.mark.parametrize("fault", [None, "failed", "skipped", "other_bounds"])
def test_oracle_refuses_a_verify_report_that_is_not_a_clean_pass(monkeypatch, fault):
    if fault == "failed":
        corrupt_check(monkeypatch, "five_way")
    report = report_to_dict(run_suite(2, 4, 3))
    spec = {"bounds": {"r_max": 2, "n_max": 4, "seed": 3}}
    if fault == "skipped":
        report["results"][0]["params"]["skipped"] = 1
    if fault == "other_bounds":
        spec["bounds"]["n_max"] = 5
    reason = load_oracle().check("verify", spec, "json", json.dumps(report))
    assert (reason is None) == (fault is None), reason
