"""Progressive streaming under the DES: TTFA, caching, cancellation.

The tentpole behaviors of level-major progressive extraction, measured
where the paper measures them — at the visualization client of a
simulated session:

* TTFA (time-to-first-complete-approximation) is recorded per run and
  per concurrent request, and a warm level-major traversal beats warm
  depth-first by a wide margin (the pyramid cache removes the
  full-resolution loads; level-major removes the refinement wait).
* Pyramids are DMS derived items: misses on the cold run, hits on the
  warm one, surfaced through the session metrics registry.
* A :class:`RefinementControl` token stops refinement cooperatively —
  the coarse pass always completes — both directly and through the
  serving layer's :meth:`TenantServer.cancel`.
* Frame-budget pacing reorders and chunks refinement without changing
  the final merged geometry.

Resolution-8 engines keep the blocks coarsenable (3 pyramid levels);
the stock resolution-4 engine degenerates to single-level pyramids.
"""

import numpy as np
import pytest

from repro.commands.progressive import RefinementControl
from repro.obs.slo import default_slos
from repro.serve import LANE_INTERACTIVE, RequestState
from repro.viz.client import InteractionCriteria
from repro.viz.mesh import TriangleMesh
from tests.conftest import paper_session, serve_server

PROG = {
    "isovalue": -0.3,
    "scalar": "pressure",
    "time_range": (0, 1),
    "max_levels": 4,
}


def session8(n_workers: int = 2, **kwargs):
    return paper_session(
        n_workers=n_workers, base_resolution=8, n_timesteps=1, **kwargs
    )


class TestTTFA:
    def test_progressive_ttfa_precedes_completion(self):
        res = session8().run("iso-progressive", params=dict(PROG))
        assert 0.0 < res.ttfa_s < res.total_runtime
        # The first packet arrives no later than the complete coarse pass.
        assert res.latency <= res.ttfa_s

    def test_non_progressive_ttfa_equals_latency(self):
        res = paper_session().run(
            "iso-dataman", params={"isovalue": -0.3, "time_range": (0, 1)}
        )
        assert res.ttfa_s == res.latency

    def test_schedule_is_the_drain_not_the_traversal(self):
        """``schedule`` takes the values every command takes: naming the
        default changes no packet's geometry, and dynamic completes."""
        plain = session8().run("iso-progressive", params=dict(PROG))
        static = session8().run(
            "iso-progressive", params=dict(PROG, schedule="static")
        )
        dynamic = session8().run(
            "iso-progressive", params=dict(PROG, schedule="dynamic")
        )
        assert plain.geometry.n_triangles > 0
        assert static.geometry.vertices.tobytes() == plain.geometry.vertices.tobytes()
        assert dynamic.complete and dynamic.geometry.n_triangles > 0

    def test_warm_level_major_beats_warm_depth_first(self):
        warm = {}
        for traversal in ("level-major", "depth-first"):
            session = session8()
            params = dict(PROG, traversal=traversal)
            session.run("iso-progressive", params=params)  # cold: fill cache
            warm[traversal] = session.run(
                "iso-progressive", params=dict(params, isovalue=-0.1)
            ).ttfa_s
        assert warm["level-major"] * 2.0 < warm["depth-first"]

    def test_interaction_report_carries_ttfa(self):
        res = session8().run("iso-progressive", params=dict(PROG))
        report = res.interaction_report()
        assert report["first_approximation_s"] == res.ttfa_s
        assert report["ttfa_ok"] == InteractionCriteria().response_time_ok(
            res.ttfa_s
        )

    def test_run_concurrent_records_per_request_ttfa(self):
        session = session8(n_workers=4)
        results = session.run_concurrent(
            [
                {"command": "iso-progressive", "params": dict(PROG),
                 "group_size": 2},
                {"command": "iso-progressive",
                 "params": dict(PROG, isovalue=-0.1), "group_size": 2},
            ]
        )
        assert len(results) == 2
        for res in results:
            assert 0.0 < res.ttfa_s <= res.total_runtime
            assert res.latency <= res.ttfa_s

    def test_first_frame_slo_defined(self):
        slos = {s.name: s for s in default_slos()}
        assert "interactive-first-frame" in slos
        slo = slos["interactive-first-frame"]
        assert slo.metric == "ttfa"
        assert slo.threshold == InteractionCriteria().max_response_time_s


class TestPyramidCache:
    def test_cold_misses_then_warm_hits(self):
        session = session8()
        session.run("iso-progressive", params=dict(PROG))
        agg = session.scheduler.aggregate_dms_stats()
        assert agg.derived_misses > 0
        cold_hits = agg.derived_hits_l1 + agg.derived_hits_l2
        res = session.run(
            "iso-progressive", params=dict(PROG, isovalue=-0.1)
        )
        agg = session.scheduler.aggregate_dms_stats()
        assert agg.derived_hits_l1 + agg.derived_hits_l2 > cold_hits
        # Probe misses are not double-counted: requests balance.
        assert (
            agg.derived_hits_l1 + agg.derived_hits_l2 + agg.derived_misses
            == agg.derived_misses * 2
        )
        # Hit/miss totals are surfaced through the metrics registry.
        assert "viracocha_dms_derived_hits_total" in res.metrics
        assert "viracocha_dms_derived_misses_total" in res.metrics

    def test_warm_run_skips_block_loads(self):
        session = session8()
        cold = session.run("iso-progressive", params=dict(PROG))
        warm = session.run(
            "iso-progressive", params=dict(PROG, isovalue=-0.1)
        )
        assert cold.dms["bytes_loaded"] > 0
        assert warm.dms["bytes_loaded"] == 0


class TestCancellation:
    def test_cancelled_control_stops_after_coarse_pass(self):
        control = RefinementControl()
        control.cancel("viewpoint-moved")
        res = session8().run(
            "iso-progressive", params=dict(PROG, control=control)
        )
        meshes = [p for p in res.payloads if isinstance(p, TriangleMesh)]
        assert meshes, "the coarse pass always completes"
        for mesh in meshes:
            assert float(mesh.attributes["level"][0]) == 0.0
        # The client keeps exactly the coarse approximation: every
        # vertex of the merged view is level 0, none is finest.
        assert not res.geometry.is_empty()
        assert set(res.geometry.attributes["level"]) == {0.0}
        assert set(res.geometry.attributes["finest"]) == {0.0}
        assert res.ttfa_s > 0.0

    def test_uncancelled_control_streams_all_levels(self):
        res = session8().run(
            "iso-progressive",
            params=dict(PROG, control=RefinementControl()),
        )
        meshes = [p for p in res.payloads if isinstance(p, TriangleMesh)]
        levels = {float(m.attributes["level"][0]) for m in meshes}
        assert levels == {0.0, 1.0, 2.0}
        assert not res.geometry.is_empty()

    def test_serve_cancel_flips_refinement_control(self):
        control = RefinementControl()
        session, srv = serve_server(
            n_workers=2, base_resolution=8, n_timesteps=1
        )
        srv.register("vr", lane=LANE_INTERACTIVE)
        handle = srv.submit(
            "vr", "iso-progressive", params=dict(PROG, control=control)
        )
        # Step simulated time until the command is actually running.
        for _ in range(200):
            if handle.state == RequestState.RUNNING:
                break
            session.env.run(until=session.env.now + 0.05)
        assert handle.state == RequestState.RUNNING
        assert srv.cancel(handle)
        assert control.cancelled and control.reason == "serve-cancel"
        session.env.run(until=srv.drained())
        assert handle.finished

    def test_serve_cancel_sheds_refinement_work(self):
        def run_one(cancel: bool):
            control = RefinementControl()
            session, srv = serve_server(
                n_workers=2, base_resolution=8, n_timesteps=1
            )
            srv.register("vr", lane=LANE_INTERACTIVE)
            handle = srv.submit(
                "vr", "iso-progressive", params=dict(PROG, control=control)
            )
            for _ in range(200):
                if handle.state == RequestState.RUNNING:
                    break
                session.env.run(until=session.env.now + 0.05)
            if cancel:
                srv.cancel(handle)
            session.env.run(until=srv.drained())
            return handle.t_done - handle.t_submit

        assert run_one(cancel=True) < run_one(cancel=False)


def _finest_fragments(payloads):
    """Final-quality view as a multiset of per-block finest meshes.

    Frame-budget pacing may reorder *emission* (and packets from
    different workers interleave run-dependently at the client), so the
    comparison must be order-free: the replace-refine model keys
    fragments by block, not by arrival.
    """
    return sorted(
        m.vertices.tobytes()
        for m in payloads
        if isinstance(m, TriangleMesh)
        and not m.is_empty()
        and float(m.attributes["finest"][0]) == 1.0
    )


class TestFrameBudget:
    def test_budgeted_refinement_preserves_final_geometry(self):
        free = _finest_fragments(
            session8().run("iso-progressive", params=dict(PROG)).payloads
        )
        paced = _finest_fragments(
            session8().run(
                "iso-progressive", params=dict(PROG, frame_budget=50)
            ).payloads
        )
        assert free and free == paced

    def test_budgeted_run_still_stops_ttfa_clock(self):
        res = session8().run(
            "iso-progressive", params=dict(PROG, frame_budget=25)
        )
        assert 0.0 < res.ttfa_s < res.total_runtime
