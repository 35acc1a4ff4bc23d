"""The visualization-client model (the ViSTA FlowLib stand-in).

The client receives (partial) result packets from the cluster and files
them per request.  The two VR interaction criteria from §1.1 are
modeled here and checked per result by
:meth:`repro.core.session.CommandResult.interaction_report`:

1. minimum frame rate (Bryson: 10 Hz; Kreylos: 30 Hz), and
2. maximum system response time (100 ms).

Rendering itself is modeled as a frame loop whose per-frame cost grows
with the triangle count — enough to ask "would this geometry still
render at 10/30 Hz?", which is the question the paper's decoupling
answers.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Receives result packets and accumulates geometry + statistics.

    One consume loop runs for the client's lifetime and files every
    packet under its request id; :meth:`expect` hands out the event that
    fires when a request's final packet arrives.  Any number of requests
    may interleave, and all accounting is per request.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.mailbox = Mailbox(env, name="viz-client")
        self.packets_by_request: dict[int, list[PacketRecord]] = {}
        self.payloads_by_request: dict[int, list[Any]] = {}
        #: latest progress fraction per (request_id, worker_index) and
        #: the times updates arrived — feeds the §9 "progress bar".
        self.progress: dict[int, dict[int, float]] = {}
        self.progress_times: dict[int, list[float]] = {}
        self._request_done: dict[int, Any] = {}
        #: packets already merged, keyed (request, unit, sequence) — a
        #: retried streaming unit re-sends packets its first attempt
        #: already delivered; duplicates must not double the geometry.
        self._seen: set[tuple[int, int, int]] = set()
        self.duplicates = 0
        env.process(self._consume(), name="viz-client")

    # ----------------------------------------------------------- running
    def expect(self, request_id: int):
        """Register interest in a command's packets; returns the event
        that fires when its final packet arrives."""
        done = self.env.event()
        self._request_done[request_id] = done
        self.packets_by_request.setdefault(request_id, [])
        self.payloads_by_request.setdefault(request_id, [])
        return done

    def _consume(self):
        while True:
            message = yield self.mailbox.get()
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
            self.packets_by_request.setdefault(message.request_id, []).append(record)
            if message.payload is not None:
                self.payloads_by_request.setdefault(message.request_id, []).append(
                    message.payload
                )
            if message.final:
                done = self._request_done.pop(message.request_id, None)
                if done is not None and not done.triggered:
                    done.succeed()

    # --------------------------------------------------------- analysis
    def reset(self) -> None:
        """Forget every request's records (pending :meth:`expect` events
        stay armed)."""
        self.packets_by_request.clear()
        self.payloads_by_request.clear()
        self.progress.clear()
        self.progress_times.clear()
        self._seen.clear()
        self.duplicates = 0

    def first_data_time_of(self, request_id: int) -> float | None:
        """Arrival of the request's first packet that carried data."""
        for p in self.packets_by_request.get(request_id, ()):
            if p.nbytes > 0 or p.n_triangles > 0:
                return p.time
        return None

    def first_approximation_time(
        self, n_workers: int, request_id: int
    ) -> float | None:
        """When the request's first *complete* approximation was on
        screen (TTFA).

        A progressive worker streams a zero-byte ``"approximation"``
        marker once the coarsest level of all its blocks is out; the
        first complete approximation exists when every one of the
        command's ``n_workers`` workers has done so.  Returns the
        arrival time of the last such marker, or ``None`` when the
        command is not progressive (no markers at all).
        """
        seen: set[int] = set()
        for p in self.packets_by_request.get(request_id, ()):
            if p.kind != "approximation":
                continue
            seen.add(p.worker_index)
            if len(seen) >= n_workers:
                return p.time
        return None

    def progress_of(self, request_id: int) -> float:
        """Mean completion fraction across the command's workers."""
        per_worker = self.progress.get(request_id)
        if not per_worker:
            return 0.0
        return float(sum(per_worker.values()) / len(per_worker))
