"""Tracing never moves the simulated clock.

Every DES layer always holds a span tracer; with ``observe=False`` it is
the disabled one, whose ``begin``/``end`` are no-ops.  A run must come
out the same either way: the same runtime, the same packet arrival
times, the same lost units and the same merged bytes — for each of the
four headline commands, and under a seeded fault plan with recovery.
"""

import pytest

from repro.algorithms.pathlines import Pathline
from repro.commands import DEMO_ALIASES, DEMO_PARAMS
from repro.core.scheduler import RecoveryPolicy
from repro.faults import fault_free_runtime, run_chaos
from repro.io import geometry_to_bytes
from repro.viz import PolylineSet
from tests.conftest import paper_session

HEADLINE = sorted(set(DEMO_ALIASES.values()))

#: a fault plan that crashes workers, stalls the server and degrades a
#: link mid-run.
CHAOS_COMMAND, CHAOS_SEED = "iso-dataman", 4


def _geometry(result):
    # A pathline run's one payload is its merged list of paths.
    paths = [p for payload in result.payloads if isinstance(payload, list)
             for p in payload if isinstance(p, Pathline)]
    return PolylineSet.from_pathlines(paths) if paths else result.geometry


def _observable(result) -> tuple:
    return (
        result.total_runtime,
        result.packet_times,
        result.failed_shares,
        geometry_to_bytes(_geometry(result)),
    )


@pytest.mark.parametrize("command", HEADLINE)
def test_tracing_leaves_a_run_unchanged(command):
    params = DEMO_PARAMS[command]
    traced = paper_session().run(command, params=params)
    untraced = paper_session(observe=False).run(command, params=params)
    assert traced.spans and untraced.spans == []
    assert not _geometry(traced).is_empty()
    assert _observable(traced) == _observable(untraced)


@pytest.mark.parametrize("max_retries", [2, 0], ids=["recovered", "degraded"])
def test_tracing_leaves_a_faulted_run_unchanged(max_retries):
    params = DEMO_PARAMS[CHAOS_COMMAND]
    horizon = 0.8 * fault_free_runtime(CHAOS_COMMAND, params)
    runs = [
        run_chaos(
            CHAOS_COMMAND, params, CHAOS_SEED, horizon,
            recovery=RecoveryPolicy(max_retries=max_retries), observe=observe,
        )
        for observe in (True, False)
    ]
    traced, untraced = (run.result for run in runs)
    # The plan really struck: fault markers in the traced run, and the
    # same recovery taken with and without spans (retried units, or
    # lost ones when no retry is allowed).
    assert any(s.kind.startswith("fault-") for s in traced.spans)
    assert traced.recovery == untraced.recovery
    assert sum(traced.recovery.values()) > 0 or traced.failed_shares
    assert _observable(traced) == _observable(untraced)
