"""BENCHMARK.json names exactly the workloads and metrics the runner emits."""
import json

import run
import workloads

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    for w in MANIFEST["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]][0]


def test_metrics_and_units_match():
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
