"""Span arithmetic and the convolution route's useful-work ratio."""
import json
import os
import subprocess
import sys
from pathlib import Path

import run

PERFBENCH = Path(run.__file__).resolve().parent


def test_self_time_subtracts_direct_children_only():
    spans = [
        (2, "b", 10, 40, 1),
        (3, "c", 15, 25, 2),
        (1, "a", 0, 100, 0),
    ]
    assert run.self_times_ns(spans) == {"a": 70, "b": 20, "c": 10}


def test_minimal_convolution_products_counted_by_hand():
    # prefixes of length 3 at orders 1..3: levels 2 and 3 each need 1+2+3 products
    assert run.minimal_convolution_products({1: 3, 2: 3, 3: 3}) == 12
    # a longer prefix asked at order 3 also has to be built at level 2
    assert run.minimal_convolution_products({2: 2, 3: 4}) == 10 + 10
    assert run.minimal_convolution_products({1: 50}) == 0
    assert run.minimal_convolution_products({}) == 0


GRID_SCRIPT = """
import json, sys
import hfib.verify
from hfib.sequences import fib
from tracer import Tracer

fib(20)  # fill the memo first, so only convolution products are counted
tracer = Tracer("grid")
tracer.install({n: m for n, m in sys.modules.items() if n.startswith("hfib")})
for r in (1, 2, 3):
    for j in (0, 1, 2):
        hfib.verify.convolved_convolution(r, j)
tracer.dump(__import__("pathlib").Path(sys.argv[1]), 0.0)
"""


def test_useful_ratio_on_a_small_grid_counted_by_hand(tmp_path):
    # r = 2 rebuilds its prefix for j = 0, 1, 2: 1 + 3 + 6 = 10 products;
    # r = 3 does the same on top of the cached r = 2 prefix: 10 more.
    # The minimum is 6 products per level (prefix length 3), 12 in all.
    out = tmp_path / "grid.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PERFBENCH), str(run.ROOT / "src")]))
    subprocess.run([sys.executable, "-c", GRID_SCRIPT, str(out)], env=env, check=True, timeout=60)
    trace = json.loads(out.read_text())
    metrics = run.summarize_traces([trace])
    assert metrics["sequences.convolution.mul_calls"] == 20
    assert metrics["sequences.convolution.useful_ratio"] == 12 / 20
    assert len([s for s in trace["spans"] if s[1] == run.CONVOLUTION]) == 9


def test_missing_layer_names_give_null_metrics():
    trace = {"wrapped": ["cli.main"], "counts": {}, "conv_lengths": {}, "spans": [],
             "import_ms": 1.0}
    metrics = run.summarize_traces([trace])
    assert metrics["sequences.convolution_ms"] is None
    assert metrics["sequences.convolution.useful_ratio"] is None
    assert metrics["cli.self_ms"] == 0
