"""Unit tests for DMSStatistics."""

import pytest

from repro.dms import DMSStatistics


def test_empty_stats_rates():
    s = DMSStatistics()
    assert s.hit_rate == 0.0
    assert s.miss_rate == 0.0
    assert s.prefetch_accuracy == 0.0


def test_request_accounting():
    s = DMSStatistics()
    s.record_request("a", "l1")
    s.record_request("b", "l2")
    s.record_request("c", "miss")
    assert s.requests == 3
    assert s.hits == 2
    assert s.hits_l1 == 1
    assert s.hits_l2 == 1
    assert s.misses == 1
    assert s.hit_rate == pytest.approx(2 / 3)
    assert s.miss_rate == pytest.approx(1 / 3)


def test_prefetch_usefulness():
    s = DMSStatistics()
    s.record_prefetch("x", issued=True)
    s.record_prefetch("y", issued=True)
    s.record_prefetch("z", issued=False)
    assert s.prefetches_issued == 2
    assert s.prefetches_dropped == 1
    s.record_request("x", "l1")  # prefetched then hit -> useful
    assert s.prefetches_useful == 1
    assert s.prefetch_accuracy == pytest.approx(0.5)


def test_prefetch_evicted_before_use_not_useful():
    s = DMSStatistics()
    s.record_prefetch("x", issued=True)
    s.forget_prefetched("x")
    s.record_request("x", "miss")
    assert s.prefetches_useful == 0
    assert s.misses_covered == 0


def test_inflight_hit_counts_once():
    s = DMSStatistics()
    s.record_prefetch("x", issued=True)
    # Demand arrived while the prefetch was still loading: the proxy
    # records the miss, then marks the in-flight coverage.
    s.record_request("x", "miss")
    s.record_inflight_hit("x")
    assert s.misses == 1
    assert s.prefetches_useful == 1
    assert s.misses_covered == 1
    # Repeating the coverage call must not double count.
    s.record_inflight_hit("x")
    assert s.prefetches_useful == 1


def test_load_accounting():
    s = DMSStatistics()
    s.record_load("fileserver", 100)
    s.record_load("node-transfer", 50)
    s.record_load("fileserver", 100)
    assert s.loads_by_strategy["fileserver"] == 2
    assert s.loads_by_strategy["node-transfer"] == 1
    assert s.bytes_loaded == 250


def test_merge_combines_everything():
    a = DMSStatistics()
    a.record_request("x", "l1")
    a.record_load("fileserver", 10)
    a.record_prefetch("p", issued=True)
    b = DMSStatistics()
    b.record_request("y", "miss")
    b.record_load("fileserver", 20)
    a.merge(b)
    assert a.requests == 2
    assert a.hits == 1
    assert a.misses == 1
    assert a.loads_by_strategy["fileserver"] == 2
    assert a.bytes_loaded == 30


def test_unknown_where_counts_as_miss():
    s = DMSStatistics()
    s.record_request("a", "L1")  # case-sensitive: not a known tier
    s.record_request("b", "cache")
    assert s.hits == 0
    assert s.misses == 2
    assert DMSStatistics.normalize_where("l2") == "l2"
    assert DMSStatistics.normalize_where("bogus") == "miss"


def test_unknown_where_never_counts_prefetch_useful():
    # Regression: an unrecognized `where` label used to satisfy the old
    # `where != "miss"` guard and inflate prefetch usefulness.
    s = DMSStatistics()
    s.record_prefetch("x", issued=True)
    s.record_request("x", "weird-tier")
    assert s.prefetches_useful == 0
    assert s.misses == 1
    # The pending mark survives, so a later genuine hit still counts.
    s.record_request("x", "l1")
    assert s.prefetches_useful == 1


def test_publish_syncs_registry():
    from repro.obs import MetricsRegistry

    s = DMSStatistics()
    s.record_prefetch("x", issued=True)
    s.record_request("x", "l1")
    s.record_request("y", "miss")
    s.record_load("fileserver", 64)
    reg = MetricsRegistry()
    s.publish(reg, node="1")
    s.publish(reg, node="1")  # idempotent: set(), not inc()
    snap = reg.snapshot()
    assert snap["viracocha_dms_requests_total"][0]["value"] == 2
    hits = {
        e["labels"]["tier"]: e["value"]
        for e in snap["viracocha_dms_hits_total"]
    }
    assert hits == {"l1": 1, "l2": 0}
    assert snap["viracocha_dms_hit_rate"][0]["value"] == pytest.approx(0.5)
    assert snap["viracocha_dms_prefetch_accuracy"][0]["value"] == 1.0
    assert snap["viracocha_dms_bytes_loaded_total"][0]["value"] == 64


def test_report_json_roundtrip(tmp_path, capsys):
    from repro.__main__ import main as cli_main
    import json

    out = tmp_path / "results.json"
    assert cli_main(["report", "table1", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload[0]["experiment_id"] == "table1"
    assert payload[0]["rows"][0]["dataset"] == "engine"


def test_report_json_missing_path(capsys):
    from repro.__main__ import USAGE, main as cli_main

    assert cli_main(["report", "table1", "--json"]) == 2
    out = capsys.readouterr().out
    assert "option --json needs a value" in out
    assert out.rstrip().endswith(f"usage: {USAGE['report']}")
