"""Smoke test of the end-to-end benchmark (outside ``testpaths``).

``python -m pytest benchmarks/e2e/test_smoke.py`` runs three ops per
workload in one pass plus the traced pass and the quick layer probes,
and checks that every declared metric is present and finite and that
no op failed.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def test_every_declared_metric_is_emitted():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--ops", "3", "--repeats", "1", "--trace", "--seed", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(os.path.join(HERE, "out", "result.json")) as fh:
        doc = json.load(fh)
    assert doc["claim"] is None
    assert {w["name"] for w in declared["workloads"]} == set(doc["workloads"])
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, res in doc["workloads"].items():
        assert res["failed_share"] == 0, name
        assert not res["leaks"], name
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == end_to_end, name
        layers = {**res["traced"], **doc["per_layer"]}
        assert {k: v["unit"] for k, v in layers.items()} == per_layer, name
        for metric, rec in {**res["metrics"], **layers}.items():
            assert math.isfinite(rec["value"]), (name, metric)
    assert doc["per_layer"]["obs.spans_dropped"]["value"] == 0
    with open(os.path.join(HERE, "out", "trace.json")) as fh:
        assert json.load(fh)["traceEvents"]
