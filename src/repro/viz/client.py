"""The visualization-client model (the ViSTA FlowLib stand-in).

The client receives (partial) result packets from the cluster, merges
arriving geometry just in time for the next rendering loop, and tracks
the two VR interaction criteria from §1.1:

1. minimum frame rate (Bryson: 10 Hz; Kreylos: 30 Hz), and
2. maximum system response time (100 ms).

Rendering itself is modeled as a frame loop whose per-frame cost grows
with the triangle count — enough to ask "would this geometry still
render at 10/30 Hz?", which is the question the paper's decoupling
answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..des.kernel import Environment
from ..core.channels import Mailbox
from ..core.messages import ProgressUpdate, ResultPacket
from .mesh import TriangleMesh

__all__ = [
    "InteractionCriteria",
    "FrameRateModel",
    "PacketRecord",
    "VisualizationClient",
]


@dataclass(frozen=True)
class InteractionCriteria:
    """The two hard real-time interaction requirements (§1.1)."""

    min_frame_rate_hz: float = 10.0  #: Bryson's threshold; Kreylos: 30.0
    max_response_time_s: float = 0.1

    def frame_rate_ok(self, achieved_hz: float) -> bool:
        return achieved_hz >= self.min_frame_rate_hz

    def response_time_ok(self, response_s: float) -> bool:
        return response_s <= self.max_response_time_s

    def slos(self) -> list:
        """These criteria as declarative SLOs (see :mod:`repro.obs.slo`).

        The response-time bound becomes the ``interactive-response``
        latency objective, so tightening the criterion here tightens
        what ``python -m repro slo`` gates on.
        """
        from ..obs.slo import default_slos

        return default_slos(self)


@dataclass(frozen=True)
class FrameRateModel:
    """Crude renderer model: triangles/second the GPU sustains.

    An NVIDIA GeForce FX 5950 Ultra (the paper's board) pushed on the
    order of tens of millions of triangles per second.
    """

    triangles_per_second: float = 30e6
    fixed_frame_cost_s: float = 1e-3

    def frame_rate(self, n_triangles: int) -> float:
        frame_time = self.fixed_frame_cost_s + n_triangles / self.triangles_per_second
        return 1.0 / frame_time

    def triangle_budget(self, target_hz: float) -> int:
        """Triangles renderable per frame while holding ``target_hz``.

        This is the frame budget a client publishes to the progressive
        command (``params["frame_budget"]``): refinement packets are
        paced so one frame's worth of new triangles never exceeds it.
        """
        if target_hz <= 0:
            raise ValueError(f"target_hz must be > 0, got {target_hz}")
        spare = 1.0 / target_hz - self.fixed_frame_cost_s
        return max(0, int(spare * self.triangles_per_second))


@dataclass
class PacketRecord:
    time: float
    nbytes: int
    worker_index: int
    sequence: int
    final: bool
    n_triangles: int = 0
    kind: str = "geometry"


class VisualizationClient:
    """Receives result packets and accumulates geometry + statistics."""

    def __init__(self, env: Environment, criteria: InteractionCriteria | None = None,
                 renderer: FrameRateModel | None = None):
        self.env = env
        self.mailbox = Mailbox(env, name="viz-client")
        self.criteria = criteria or InteractionCriteria()
        self.renderer = renderer or FrameRateModel()
        self.packets: list[PacketRecord] = []
        self.payloads: list[Any] = []
        self.packets_by_request: dict[int, list[PacketRecord]] = {}
        self.payloads_by_request: dict[int, list[Any]] = {}
        #: latest progress fraction per (request_id, worker_index) and
        #: the times updates arrived — feeds the §9 "progress bar".
        self.progress: dict[int, dict[int, float]] = {}
        self.progress_times: dict[int, list[float]] = {}
        self._request_done: dict[int, Any] = {}
        self._done_event = None
        self._consumer = None
        #: packets already merged, keyed (request, unit, sequence) — a
        #: retried streaming unit re-sends packets its first attempt
        #: already delivered; duplicates must not double the geometry.
        self._seen: set[tuple[int, int, int]] = set()
        self.duplicates = 0

    # ----------------------------------------------------------- running
    def start_listening(self):
        """Spawn the consume loop; returns the event that fires on final.

        Any consumer left over from a previous (possibly failed) run is
        interrupted, and a fresh mailbox isolates this run from stale
        in-flight packets.
        """
        if self._consumer is not None and self._consumer.is_alive:
            self._consumer.interrupt("new run")
            self.mailbox = Mailbox(self.env, name="viz-client")
        self._done_event = self.env.event()
        self._consumer = self.env.process(self._consume(), name="viz-client")
        self._consumer_stops_on_final = True
        return self._done_event

    def expect(self, request_id: int):
        """Register interest in a command's packets; returns its done event.

        Unlike :meth:`start_listening`, the consume loop keeps running
        so several concurrent commands can interleave their packets.
        """
        if self._consumer is not None and self._consumer.is_alive and getattr(
            self, "_consumer_stops_on_final", False
        ):
            # A stale single-shot consumer (e.g. from a failed run) would
            # stop at the first final packet and starve other requests.
            self._consumer.interrupt("switch to multi-request mode")
            self.mailbox = Mailbox(self.env, name="viz-client")
            self._consumer = None
        if self._consumer is None or not self._consumer.is_alive:
            self._consumer = self.env.process(
                self._consume(stop_on_final=False), name="viz-client"
            )
            self._consumer_stops_on_final = False
        done = self.env.event()
        self._request_done[request_id] = done
        self.packets_by_request.setdefault(request_id, [])
        self.payloads_by_request.setdefault(request_id, [])
        return done

    def _consume(self, stop_on_final: bool = True):
        from ..des.kernel import Interrupt

        while True:
            try:
                message = yield self.mailbox.get()
            except Interrupt:
                return
            if isinstance(message, ProgressUpdate):
                per_worker = self.progress.setdefault(message.request_id, {})
                per_worker[message.worker_index] = message.fraction
                self.progress_times.setdefault(message.request_id, []).append(
                    self.env.now
                )
                continue
            if not isinstance(message, ResultPacket):
                continue
            if not message.final:
                key = (message.request_id, message.unit, message.sequence)
                if key in self._seen:
                    self.duplicates += 1
                    continue
                self._seen.add(key)
            n_tri = 0
            if isinstance(message.payload, TriangleMesh):
                n_tri = message.payload.n_triangles
            record = PacketRecord(
                time=self.env.now,
                nbytes=message.nbytes,
                worker_index=message.worker_index,
                sequence=message.sequence,
                final=message.final,
                n_triangles=n_tri,
                kind=getattr(message, "kind", "geometry"),
            )
            self.packets.append(record)
            self.packets_by_request.setdefault(message.request_id, []).append(record)
            if message.payload is not None:
                self.payloads.append(message.payload)
                self.payloads_by_request.setdefault(message.request_id, []).append(
                    message.payload
                )
            if message.final:
                done = self._request_done.pop(message.request_id, None)
                if done is not None and not done.triggered:
                    done.succeed()
                if stop_on_final:
                    if self._done_event is not None and not self._done_event.triggered:
                        self._done_event.succeed()
                    return

    # --------------------------------------------------------- analysis
    def reset(self) -> None:
        self.packets.clear()
        self.payloads.clear()
        self.packets_by_request.clear()
        self.payloads_by_request.clear()
        self.progress.clear()
        self.progress_times.clear()
        self._seen.clear()
        self.duplicates = 0

    @property
    def first_data_time(self) -> float | None:
        """Arrival of the first packet that carried actual data."""
        for p in self.packets:
            if p.nbytes > 0 or p.n_triangles > 0:
                return p.time
        return None

    def first_data_time_of(self, request_id: int) -> float | None:
        """Per-request first-data arrival.

        The global :attr:`first_data_time` spans every interleaved
        request, so concurrent tenants would report each other's
        latency; this looks only at ``request_id``'s packets.
        """
        for p in self.packets_by_request.get(request_id, ()):
            if p.nbytes > 0 or p.n_triangles > 0:
                return p.time
        return None

    def first_approximation_time(
        self, n_workers: int, request_id: int | None = None
    ) -> float | None:
        """When the first *complete* approximation was on screen (TTFA).

        A progressive worker streams a zero-byte ``"approximation"``
        marker once the coarsest level of all its blocks is out; the
        first complete approximation exists when every one of the
        command's ``n_workers`` workers has done so.  Returns the
        arrival time of the last such marker, or ``None`` when the
        command is not progressive (no markers at all).
        """
        packets = (
            self.packets
            if request_id is None
            else self.packets_by_request.get(request_id, ())
        )
        seen: set[int] = set()
        for p in packets:
            if p.kind != "approximation":
                continue
            seen.add(p.worker_index)
            if len(seen) >= n_workers:
                return p.time
        return None

    @property
    def final_time(self) -> float | None:
        for p in self.packets:
            if p.final:
                return p.time
        return None

    def progress_of(self, request_id: int) -> float:
        """Mean completion fraction across the command's workers."""
        per_worker = self.progress.get(request_id)
        if not per_worker:
            return 0.0
        return float(sum(per_worker.values()) / len(per_worker))

    def merged_geometry(self) -> TriangleMesh:
        meshes = [p for p in self.payloads if isinstance(p, TriangleMesh)]
        return TriangleMesh.merge(meshes)

    def other_payloads(self) -> list[Any]:
        return [p for p in self.payloads if not isinstance(p, TriangleMesh)]

    def achieved_frame_rate(self) -> float:
        return self.renderer.frame_rate(self.merged_geometry().n_triangles)

    def frame_rate_ok(self) -> bool:
        return self.criteria.frame_rate_ok(self.achieved_frame_rate())
