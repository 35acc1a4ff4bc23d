"""The chaos suite: every command under seeded fault schedules.

For each command × schedule and each of N_SEEDS seeds the same
schedule runs twice; the robustness contract is:

* determinism — same seed ⇒ byte-identical trace fingerprint,
* termination — every run returns (a hang fails the suite),
* integrity — the result is complete (geometry identical to the
  fault-free baseline; under the dynamic schedule, byte-identical to a
  group-1 run) or correctly flagged ``degraded``,
* consistency — DMS counters keep their invariants under retries.

A failing seed prints ``plan.describe()`` — paste it into a report and
replay per docs/TESTING.md.
"""

import pytest

from repro.faults import fault_free_runtime, open_spans, run_chaos

N_SEEDS = 20

COMMANDS = {
    "iso-dataman": {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 2)},
    "vortex-dataman": {"time_range": (0, 2)},
    "pathlines-dataman": {
        "seeds": [[0.5, 0.5, 0.5], [0.25, 0.5, 0.75]],
        "time_range": (0, 2),
        "max_steps": 60,
    },
    "iso-progressive": {"isovalue": -0.3, "time_range": (0, 1), "max_levels": 3},
}

#: (command, schedule) pairs under test; static cases keep the bare
#: command as their id.  ``iso-progressive`` runs static only: its own
#: ``schedule`` param names its traversal ("level-major"/"depth-first"),
#: so it cannot also select the drain.
CASES = [pytest.param(c, "static", id=c) for c in sorted(COMMANDS)] + [
    pytest.param(c, "dynamic", id=f"{c}-dynamic")
    for c in sorted(COMMANDS) if c != "iso-progressive"
]

_BASELINES: dict[tuple[str, str], tuple[float, int, bytes | None]] = {}


def _params(command, schedule):
    params = dict(COMMANDS[command])
    if schedule == "dynamic":
        params.update(schedule="dynamic", steal_batch=1)
    return params


def result_bytes(result) -> bytes:
    """Merged geometry bytes, plus the polylines of a pathline merge."""
    chunks = [result.geometry.vertices.tobytes(), result.geometry.triangles.tobytes()]
    for payload in result.payloads:
        if isinstance(payload, list):
            chunks += [line.points.tobytes() + line.times.tobytes() for line in payload]
    return b"".join(chunks)


def _baseline(command, schedule="static"):
    """(fault-free runtime, fault-free triangle count, group-1 bytes)
    per case; the bytes are pinned for the dynamic schedule only, whose
    canonical-order merge equals a group-1 run byte for byte."""
    key = (command, schedule)
    if key not in _BASELINES:
        from repro.faults import chaos_session

        result = chaos_session().run(command, params=_params(command, schedule))
        group1 = None
        if schedule == "dynamic":
            group1 = result_bytes(chaos_session().run(
                command, params=dict(COMMANDS[command]), group_size=1
            ))
        _BASELINES[key] = (
            result.total_runtime, result.geometry.n_triangles, group1,
        )
    return _BASELINES[key]


def _check_integrity(run, clean_triangles, group1_bytes=None):
    result = run.result
    context = f"seed={run.seed}\n{run.plan.describe()}"
    if result.degraded:
        assert result.failed_shares, context
        assert result.geometry.n_triangles <= clean_triangles, context
    else:
        assert result.failed_shares == [], context
        assert result.geometry.n_triangles == clean_triangles, context
        if group1_bytes is not None:
            assert result_bytes(result) == group1_bytes, context
    dms = result.dms
    assert dms["hits"] + dms["misses"] == dms["requests"], context
    assert 0 <= dms["prefetches_useful"] <= dms["prefetches_issued"], context
    assert dms["bytes_loaded"] >= 0, context
    # Every foreground span was closed (crashes leak nothing); only
    # background prefetch chains may still be in flight at the end.
    assert open_spans(result) == [], context


@pytest.mark.parametrize("command,schedule", CASES)
def test_chaos_schedules_deterministic_and_sound(command, schedule):
    horizon, clean_triangles, group1_bytes = _baseline(command, schedule)
    params = _params(command, schedule)
    degraded = 0
    for seed in range(N_SEEDS):
        first = run_chaos(command, params, seed=seed, horizon=horizon)
        again = run_chaos(command, params, seed=seed, horizon=horizon)
        assert first.fingerprint == again.fingerprint, (
            f"seed {seed} of {command} not deterministic\n"
            + first.plan.describe()
        )
        _check_integrity(first, clean_triangles, group1_bytes)
        degraded += first.result.degraded
    # Degraded runs are legal but must stay the exception: seeded
    # schedules keep a survivor, so most shares recover.
    assert degraded <= N_SEEDS // 2


@pytest.mark.parametrize("command,schedule", CASES)
def test_chaos_runs_take_recovery_actions_somewhere(command, schedule):
    """Across the seed set, faults actually bite (crashes get injected)."""
    horizon, _, _ = _baseline(command, schedule)
    params = _params(command, schedule)
    injected_kinds = set()
    recovery_actions = 0
    for seed in range(0, N_SEEDS, 4):
        run = run_chaos(command, params, seed=seed, horizon=horizon)
        injected_kinds.update(run.injector.injected)
        stats = run.session.scheduler.recovery_stats
        recovery_actions += stats["retries"] + stats["reassignments"]
    assert injected_kinds  # every sampled schedule fired something
    assert recovery_actions > 0  # and the supervisor answered


def test_distinct_seeds_yield_distinct_behavior():
    command = "iso-dataman"
    horizon, _, _ = _baseline(command)
    fingerprints = {
        run_chaos(command, COMMANDS[command], seed=s, horizon=horizon).fingerprint
        for s in range(6)
    }
    # Schedules differ, so at least some executions must differ too.
    assert len(fingerprints) > 1


def test_fault_free_runtime_matches_probe():
    command = "iso-dataman"
    horizon, _, _ = _baseline(command)
    assert fault_free_runtime(command, COMMANDS[command]) == pytest.approx(horizon)
