"""The six closed-loop workloads.

Every workload derives its inputs from the run's ``--seed`` in its
constructor (the same seed gives the same ops in the same order), redoes
its whole set-up in :meth:`Workload.setup` once per pass, times one op
per :meth:`Workload.run_op` call, and checks outputs in
:meth:`Workload.verify` after the last pass — outside every timed
interval.  Seeds perturb a fixed design (jittered isovalues, jittered
seed points, shuffled order) instead of drawing inputs at large, so two
seeds do the same amount of work and their medians are comparable.

Program options stay at their defaults except the ones a workload
names.  Real-path workloads use ``WORKERS = min(2, os.cpu_count())``
process workers and the served workload as many client threads.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import threading
from typing import Any, Iterator

import numpy as np

from harness import Trace
from repro.bench.calibration import paper_cluster, paper_costs
from repro.core.session import ViracochaSession
from repro.io import DatasetStore, geometry_to_bytes, write_dataset
from repro.parallel import ParallelExtractor
from repro.serve.cli import build_serve_app
from repro.serve.rest import make_http_server
from repro.synth import build_engine, build_propfan
from repro.viz.polyline import PolylineSet

WORKERS = min(2, os.cpu_count() or 1)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _shuffled_cycle(rng: np.random.Generator, n: int) -> Iterator[int]:
    """0..n-1 in seeded permutation blocks: each index equally often."""
    while True:
        yield from (int(i) for i in rng.permutation(n))


def write_synthetic(root: str, dataset, n_steps: int) -> DatasetStore:
    """Evaluate ``n_steps`` levels of a synthetic dataset onto disk."""
    levels = [dataset.level(t) for t in range(n_steps)]
    return write_dataset(
        root,
        levels,
        modeled_shapes=list(dataset.spec.modeled_shapes),
        times=dataset.spec.times[:n_steps],
    )


def import_shares(trace, result) -> None:
    """Worker-measured share intervals as children of the run span
    (``perf_counter`` is comparable across processes on one host)."""
    if not trace.enabled:
        return
    run_span = trace.last
    for share in result.shares:
        trace.interval(
            "parallel.pool", f"share{share.share_index}",
            share.t_start, share.t_end, parent=run_span,
        )


class Workload:
    """One row of the benchmark; see the module docstring."""

    name = ""
    why = ""
    #: concurrent closed-loop clients (threads of the driver).
    clients = 1
    #: ops in one cycle of the op mix; a timed pass ends on a cycle
    #: boundary, so every kind of op is equally often in the sample.
    #: Mixes have an odd number of cost levels where the workload's
    #: definition allows it: the median then lies inside one level's
    #: cluster of latencies, not in the gap between two.
    cycle = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def op_stream(self, client: int) -> Iterator[Any]:
        raise NotImplementedError

    def run_op(self, op: Any, client: int, trace) -> Any:
        raise NotImplementedError

    def token(self, op: Any, result: Any) -> Any:
        """What :meth:`verify` needs of one result (computed untimed)."""
        return _sha(result)

    def teardown(self) -> None:
        raise NotImplementedError

    def verify(self, passes: list[list[list[tuple[Any, Any]]]]) -> int:
        """Number of ops, over all passes, whose output was wrong."""
        raise NotImplementedError


# ------------------------------------------------------------ real path
class ExtractorWorkload(Workload):
    """Shared shape of the workloads that run ``ParallelExtractor``.

    Outputs are checked against sha256 digests of the geometry bytes a
    ``executor="serial"`` extractor produces for the same params — the
    byte identities the repo's own equivalence suites prove.
    """

    command = ""
    schedule: str | None = None
    n_steps = 2
    warmups = 2

    def build_dataset(self):
        raise NotImplementedError

    def params_of(self, op: Any) -> dict[str, Any]:
        raise NotImplementedError

    def to_bytes(self, result: Any) -> bytes:
        return geometry_to_bytes(result)

    def warmup_ops(self) -> list[Any]:
        stream = self.op_stream(0)
        return [next(stream) for _ in range(self.warmups)]

    def _root(self, tag: str) -> str:
        return os.path.join(self.workdir, f"{self.name}-{tag}")

    def setup(self) -> None:
        self.root = self._root("data")
        store = write_synthetic(self.root, self.build_dataset(), self.n_steps)
        self.ext = ParallelExtractor(store, workers=WORKERS, executor="process")
        quiet = Trace(enabled=False)
        for op in self.warmup_ops():
            self.run_op(op, 0, quiet)

    def run_op(self, op: Any, client: int, trace) -> bytes:
        res = trace.call(
            "parallel.api", "run", self.ext.run,
            self.command, params=self.params_of(op), schedule=self.schedule,
        )
        import_shares(trace, res)
        return trace.call("io", "geometry_to_bytes", self.to_bytes, res.result)

    def teardown(self) -> None:
        self.ext.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def verify(self, passes) -> int:
        records = [rec for p in passes for client in p for rec in client]
        wanted = {op for op, tok in records if tok is not None}
        root = self._root("ref")
        store = write_synthetic(root, self.build_dataset(), self.n_steps)
        # Static shares at group g equal serial at group g; a dynamic
        # drain equals serial at group 1 (canonical-index reassembly).
        group = 1 if self.schedule == "dynamic" else WORKERS
        try:
            with ParallelExtractor(store, workers=WORKERS, executor="serial") as ref:
                digests = {
                    op: _sha(self.to_bytes(ref.run(
                        self.command, params=self.params_of(op), group_size=group,
                    ).result))
                    for op in wanted
                }
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return sum(
            1 for op, tok in records
            if tok is not None and tok != digests[op]
        )


class IsoStatic(ExtractorWorkload):
    name = "iso_static"
    why = ("default real path: <f4->f8 upcast, marching-tets kernel, pool IPC, "
           "merge and serialization on the clock; no DES, no serve")
    command = "iso-dataman"
    N_ISOVALUES = cycle = 9

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        base = np.linspace(-3.2, -2.5, self.N_ISOVALUES)
        jitter = self.rng(1).uniform(-0.02, 0.02, self.N_ISOVALUES)
        self.isovalues = [round(float(v), 6) for v in base + jitter]

    def build_dataset(self):
        return build_propfan(base_resolution=14, n_timesteps=self.n_steps)

    def op_stream(self, client: int) -> Iterator[float]:
        for i in _shuffled_cycle(self.rng(2), self.N_ISOVALUES):
            yield self.isovalues[i]

    def params_of(self, op: float) -> dict[str, Any]:
        return {"scalar": "pressure", "isovalue": op}


class IsoDynamic(IsoStatic):
    name = "iso_dynamic"
    why = ("same data and ops through the ticket-counter drain instead of "
           "pre-dealt shares: a gain for one drain that costs the other shows here")
    schedule = "dynamic"


class Pathlines(ExtractorWorkload):
    name = "pathlines"
    why = ("particle tracing: point location and Newton inversion do the work, "
           "marching cubes and merge none; bypass for iso-kernel or mesh changes")
    command = "pathlines-dataman"
    n_steps = 6
    N_SETS = cycle = 9
    SEEDS_PER_SET = 8

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        # A fixed low-discrepancy design inside the cylinder's core,
        # nudged by the seed: every run traces comparable particles.
        lo = np.array([-0.6, -0.6, 0.3])
        hi = np.array([0.6, 0.6, 1.8])
        n = self.N_SETS * self.SEEDS_PER_SET
        design = _halton(n, 3)
        jitter = self.rng(1).uniform(-0.01, 0.01, (n, 3))
        pts = lo + (hi - lo) * np.clip(design + jitter, 0.0, 1.0)
        self.seed_sets = [
            pts[i * self.SEEDS_PER_SET:(i + 1) * self.SEEDS_PER_SET].round(6).tolist()
            for i in range(self.N_SETS)
        ]

    def build_dataset(self):
        return build_engine(base_resolution=8, n_timesteps=self.n_steps)

    def op_stream(self, client: int) -> Iterator[int]:
        return _shuffled_cycle(self.rng(2), self.N_SETS)

    def params_of(self, op: int) -> dict[str, Any]:
        return {"seeds": self.seed_sets[op]}

    def to_bytes(self, result: Any) -> bytes:
        return geometry_to_bytes(PolylineSet.from_pathlines(result))


def _halton(n: int, dims: int) -> np.ndarray:
    """First ``n`` points of the Halton sequence in ``[0, 1)^dims``."""
    primes = (2, 3, 5, 7, 11)[:dims]
    out = np.empty((n, dims))
    for d, base in enumerate(primes):
        for i in range(n):
            f, r, k = 1.0, 0.0, i + 1
            while k:
                f /= base
                r += f * (k % base)
                k //= base
            out[i, d] = r
    return out


class ColdExtract(ExtractorWorkload):
    name = "cold_extract"
    why = ("what every `repro extract` invocation pays: mmap reads, shm store "
           "build, pool spawn/attach, inline lambda2; work moved to open time shows here")
    command = "vortex-dataman"
    N_THRESHOLDS = cycle = 7

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        base = np.linspace(-1.1, -0.5, self.N_THRESHOLDS)
        jitter = self.rng(1).uniform(-0.02, 0.02, self.N_THRESHOLDS)
        self.thresholds = [round(float(v), 6) for v in base + jitter]

    def build_dataset(self):
        return build_engine(base_resolution=10, n_timesteps=self.n_steps)

    def op_stream(self, client: int) -> Iterator[float]:
        for i in _shuffled_cycle(self.rng(2), self.N_THRESHOLDS):
            yield self.thresholds[i]

    def params_of(self, op: float) -> dict[str, Any]:
        return {"threshold": op}

    def setup(self) -> None:
        self.root = self._root("data")
        write_synthetic(self.root, self.build_dataset(), self.n_steps)
        quiet = Trace(enabled=False)
        for op in self.warmup_ops():
            self.run_op(op, 0, quiet)

    def run_op(self, op: float, client: int, trace) -> bytes:
        store = trace.call("io", "DatasetStore", DatasetStore, self.root)
        ext = trace.call(
            "parallel.api", "open", ParallelExtractor,
            store, workers=WORKERS, executor="process",
        )
        try:
            res = trace.call(
                "parallel.api", "run", ext.run,
                self.command, params=self.params_of(op),
            )
            import_shares(trace, res)
            return trace.call("io", "geometry_to_bytes", self.to_bytes, res.result)
        finally:
            trace.call("parallel.api", "close", ext.close)

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ------------------------------------------------------------- simulated
#: the six commands of the issue plus ``cutplane``: seven cost levels,
#: so the pooled median falls on one command's cluster of latencies
#: (with six it sat in the 12 ms gap between iso-simple and iso-viewer
#: and moved by 10 % from run to run while every command held still).
DES_COMMANDS = (
    "iso-simple", "iso-dataman", "iso-viewer",
    "vortex-dataman", "vortex-streamed", "pathlines-dataman", "cutplane",
)


class DesSession(Workload):
    name = "des_session"
    why = ("the simulated path behind the paper's figures: DES kernel, DMS "
           "proxies/caches/prefetchers, scheduler/worker, spans; no pool, no shm")
    cycle = len(DES_COMMANDS)
    TIME_RANGE = (0, 4)
    N_ISOVALUES = 5
    #: ops of the first pass replayed on a fresh session in verify().
    REPLAY_OPS = 12

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = self.rng(1)
        base = np.linspace(-0.5, -0.1, self.N_ISOVALUES)
        self.isovalues = [
            round(float(v), 6)
            for v in base + rng.uniform(-0.02, 0.02, self.N_ISOVALUES)
        ]
        base_seeds = np.array([[-0.3, -0.2, 0.6], [0.2, 0.3, 0.9], [0.0, -0.4, 1.1]])
        self.particles = (base_seeds + rng.uniform(-0.02, 0.02, (3, 3))).round(6).tolist()

    def params_for(self, command: str, cycle: int) -> dict[str, Any]:
        iso = self.isovalues[cycle % self.N_ISOVALUES]
        params: dict[str, Any] = {"time_range": self.TIME_RANGE}
        if command.startswith("iso"):
            params.update(isovalue=iso, scalar="pressure")
            if command == "iso-viewer":
                params["viewpoint"] = (0.0, 0.0, 3.0)
        elif command.startswith("vortex"):
            params["threshold"] = -0.5
        elif command == "cutplane":
            params.update(normal=(0, 0, 1), offset=0.8)
        else:
            params.update(seeds=self.particles, max_steps=60)
        return params

    def new_session(self, observe: bool = True) -> ViracochaSession:
        return ViracochaSession(
            build_engine(5), cluster_config=paper_cluster(4),
            costs=paper_costs(), observe=observe,
        )

    def setup(self) -> None:
        self.session = self.new_session()

    def op_stream(self, client: int) -> Iterator[tuple[str, int]]:
        cycle = 0
        while True:
            for command in DES_COMMANDS:
                yield command, cycle
            cycle += 1

    def run_op(self, op: tuple[str, int], client: int, trace):
        command, cycle = op
        return trace.call(
            "core.session", "run", self.session.run,
            command, params=self.params_for(command, cycle),
        )

    def token(self, op, result) -> tuple[bool, float]:
        return bool(result.complete), float(result.total_runtime)

    def teardown(self) -> None:
        self.session = None

    def verify(self, passes) -> int:
        # Simulated seconds are a pure function of the op sequence: a
        # fresh session replaying the head of the stream, and every
        # later pass, must reproduce the first pass bit for bit.
        first = passes[0][0]
        session = self.new_session()
        reference = [tok for _op, tok in first]
        for i, (op, _tok) in enumerate(first[: self.REPLAY_OPS]):
            command, cycle = op
            result = session.run(command, params=self.params_for(command, cycle))
            reference[i] = self.token(op, result)
        failed = 0
        for p in passes:
            for i, (_op, tok) in enumerate(p[0]):
                if tok is None:
                    continue
                want = reference[i] if i < len(reference) else (True, tok[1])
                if not tok[0] or tok != want:
                    failed += 1
        return failed


# ---------------------------------------------------------------- served
SERVE_TENANTS = (
    ("viewer", "interactive", 4),
    ("analyst", "normal", 2),
    ("batch", "normal", 1),
    ("archive", "background", 1),
)


class ServeHttp(Workload):
    name = "serve_http"
    why = ("the served path: REST JSON + http.server, admission, fair queue, "
           "SessionBackend; reads beside writes under one lock, state grows with requests")
    clients = WORKERS
    #: one cycle per client: nine commands in seeded order, then a read.
    #: By cost the ten ops rank read < cutplane x2 < iso-dataman x3 <
    #: iso-viewer x2 < vortex-dataman x2, so p50 falls on iso-dataman.
    MIX = ("iso-dataman",) * 3 + ("cutplane", "iso-viewer", "vortex-dataman") * 2
    cycle = len(MIX) + 1

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = self.rng(1)
        self.isovalues = [
            round(float(v), 6)
            for v in np.linspace(-0.5, -0.1, 5) + rng.uniform(-0.02, 0.02, 5)
        ]
        self.offsets = [
            round(float(v), 6)
            for v in np.linspace(0.5, 1.1, 4) + rng.uniform(-0.02, 0.02, 4)
        ]

    def body_for(self, command: str, tenant: int, k: int) -> dict[str, Any]:
        iso = self.isovalues[k % len(self.isovalues)]
        params = {
            "iso-dataman": {"isovalue": iso, "scalar": "pressure"},
            "vortex-dataman": {"threshold": -0.5},
            "iso-viewer": {"isovalue": iso, "scalar": "pressure",
                           "viewpoint": [0.0, 0.0, 3.0]},
            "cutplane": {"normal": [0, 0, 1],
                         "offset": self.offsets[k % len(self.offsets)]},
        }[command]
        return {"tenant": SERVE_TENANTS[tenant][0], "command": command,
                "params": params}

    def setup(self) -> None:
        self.app = build_serve_app("engine", workers=4, slots=1)
        for name, lane, weight in SERVE_TENANTS:
            status, _ = self.app.handle(
                "POST", "/v1/tenants", {"name": name, "lane": lane, "weight": weight}
            )
            if status != 201:
                raise RuntimeError(f"tenant registration failed: {status}")
        self.httpd = make_http_server(self.app)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self.thread.start()
        host, port = self.httpd.server_address
        self.conns = [
            http.client.HTTPConnection(host, port, timeout=60)
            for _ in range(self.clients)
        ]

    def op_stream(self, client: int) -> Iterator[tuple[str, str, bytes | None]]:
        rng = self.rng(10 + client)
        k = 0
        while True:
            for i in rng.permutation(len(self.MIX)):
                k += 1
                body = self.body_for(self.MIX[i], int(rng.integers(4)), k)
                yield "POST", "/v1/commands", json.dumps(body).encode()
            yield "GET", ("/v1/metrics", "/v1/slo")[k // len(self.MIX) % 2], None

    def request(self, conn, method: str, path: str, body: bytes | None):
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()

    def run_op(self, op, client: int, trace):
        method, path, body = op
        return trace.call(
            "serve.http", "request", self.request,
            self.conns[client], method, path, body,
        )

    def token(self, op, result) -> bool:
        status, payload = result
        if status != 200:
            return False
        if op[0] == "POST":
            return json.loads(payload).get("state") == "done"
        return len(payload) > 0

    def teardown(self) -> None:
        for conn in self.conns:
            conn.close()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join()

    def verify(self, passes) -> int:
        return sum(
            1 for p in passes for client in p for _op, tok in client if tok is False
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (IsoStatic, IsoDynamic, Pathlines, ColdExtract, DesSession, ServeHttp)
}
