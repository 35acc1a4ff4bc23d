"""One experiment per table/figure of the paper's evaluation (§7).

Every function returns an :class:`ExperimentResult` whose rows mirror
the series the paper plots.  Methodology follows §7: "All commands that
use the data manager operated on cached data ... one single call of the
command at hand was issued in advance of the measurements", except for
the prefetching experiments (Figs. 11 and 14), which "examine the cold
cache behavior".

Datasets are the synthetic Engine and Propfan stand-ins at laptop-scale
actual resolution with paper-scale modeled sizes (Table 1); timings come
from the calibrated simulated testbed (see calibration.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from .. import build_engine, build_propfan
from .calibration import paper_session

__all__ = [
    "ExperimentResult",
    "WORKER_COUNTS",
    "PATHLINE_WORKER_COUNTS",
    "table1_datasets",
    "fig6_engine_iso_runtime",
    "fig7_propfan_iso_runtime",
    "fig8_iso_latency",
    "fig9_engine_vortex_runtime",
    "fig10_propfan_vortex_runtime",
    "fig11_vortex_prefetch",
    "fig12_vortex_latency",
    "fig13_pathlines_runtime",
    "fig14_pathline_prefetch",
    "fig15_component_breakdown",
    "ALL_EXPERIMENTS",
]

#: Figures 6-12 sweep 1..16 workers; the pathline figures stop at 8.
WORKER_COUNTS = (1, 2, 4, 8, 16)
PATHLINE_WORKER_COUNTS = (1, 2, 4, 8)

#: per-dataset iso levels (inside each pressure field's range) and
#: viewpoints (near the surface region, as an exploring user would sit).
ISO_LEVELS = {"engine": -0.3, "propfan": -2.6}
VIEWPOINTS = {"engine": (0.0, 0.0, -5.0), "propfan": (1.5, 0.0, -1.5)}


def iso_params(dataset) -> dict[str, Any]:
    return {
        "isovalue": ISO_LEVELS[dataset.spec.name],
        "scalar": "pressure",
        "time_range": (0, 1),
    }


def viewer_params(dataset) -> dict[str, Any]:
    return {
        **iso_params(dataset),
        "viewpoint": VIEWPOINTS[dataset.spec.name],
        "max_triangles": 2000,
    }


VORTEX_PARAMS = {"threshold": -0.5, "time_range": (0, 1)}
STREAM_EXTRA = {"batch_cells": 16}


@dataclass
class ExperimentResult:
    """A reproduced table/figure: labelled rows of measured values."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def column(self, name: str) -> list[Any]:
        return [row[name] for row in self.rows]

    def row_for(self, **match: Any) -> dict[str, Any]:
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match}")


@lru_cache(maxsize=None)
def engine_dataset():
    return build_engine(base_resolution=5)


@lru_cache(maxsize=None)
def propfan_dataset():
    return build_propfan(base_resolution=5)


def _pathline_seeds(n: int = 16) -> list[list[float]]:
    rng = np.random.default_rng(42)
    return [
        [rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6), rng.uniform(0.3, 1.3)]
        for _ in range(n)
    ]


def pathline_params() -> dict[str, Any]:
    return {
        "seeds": _pathline_seeds(),
        "time_range": (0, 12),
        "rtol": 1e-3,
        "max_steps": 120,
        "local_cache_blocks": 8,
    }


# ------------------------------------------------------------- Table 1


def table1_datasets() -> ExperimentResult:
    """Table 1: multi-block test data sets."""
    result = ExperimentResult(
        experiment_id="table1",
        title="Multi-block test data sets",
        columns=["dataset", "n_timesteps", "n_blocks", "size_on_disk_gb"],
        notes="Modeled on-disk sizes; paper: Engine 1.12 GB, Propfan 19.5 GB.",
    )
    for ds in (engine_dataset(), propfan_dataset()):
        result.rows.append(
            {
                "dataset": ds.spec.name,
                "n_timesteps": ds.spec.n_timesteps,
                "n_blocks": ds.spec.n_blocks,
                "size_on_disk_gb": round(ds.spec.size_on_disk / 1024**3, 3),
            }
        )
    return result


# ------------------------------------------------- iso total runtime


def _iso_runtime(dataset, experiment_id: str, title: str,
                 workers: Sequence[int] = WORKER_COUNTS) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        columns=["workers", "SimpleIso", "ViewerIso", "IsoDataMan"],
        notes="DMS commands measured on cached data (one warm-up call, §7).",
    )
    params = iso_params(dataset)
    for nw in workers:
        session = paper_session(dataset, nw)
        simple = session.run("iso-simple", params=params)
        session.warm_cache("iso-dataman", params=params)
        dataman = session.run("iso-dataman", params=params)
        viewer = session.run("iso-viewer", params=viewer_params(dataset))
        result.rows.append(
            {
                "workers": nw,
                "SimpleIso": simple.total_runtime,
                "ViewerIso": viewer.total_runtime,
                "IsoDataMan": dataman.total_runtime,
            }
        )
    return result


def fig6_engine_iso_runtime(workers: Sequence[int] = WORKER_COUNTS) -> ExperimentResult:
    """Figure 6: Engine, isosurface, total runtime."""
    return _iso_runtime(engine_dataset(), "fig6", "Engine, Isosurface, total runtime [s]", workers)


def fig7_propfan_iso_runtime(workers: Sequence[int] = WORKER_COUNTS) -> ExperimentResult:
    """Figure 7: Propfan, isosurface, total runtime."""
    return _iso_runtime(propfan_dataset(), "fig7", "Propfan, Isosurface, total runtime [s]", workers)


# ------------------------------------------------------ iso latency


def fig8_iso_latency(workers: Sequence[int] = WORKER_COUNTS) -> ExperimentResult:
    """Figure 8: latency times for isosurface extraction (Propfan)."""
    result = ExperimentResult(
        experiment_id="fig8",
        title="Propfan, isosurface latency [s]",
        columns=["workers", "ViewerIso", "IsoDataMan"],
        notes="IsoDataMan latency equals its total runtime (single package).",
    )
    params = iso_params(propfan_dataset())
    for nw in workers:
        session = paper_session(propfan_dataset(), nw)
        session.warm_cache("iso-dataman", params=params)
        dataman = session.run("iso-dataman", params=params)
        viewer = session.run("iso-viewer", params=viewer_params(propfan_dataset()))
        result.rows.append(
            {"workers": nw, "ViewerIso": viewer.latency, "IsoDataMan": dataman.latency}
        )
    return result


# ------------------------------------------------ vortex total runtime


def _vortex_runtime(dataset, experiment_id: str, title: str,
                    workers: Sequence[int] = WORKER_COUNTS) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        columns=["workers", "SimpleVortex", "StreamedVortex", "VortexDataMan"],
        notes="DMS commands measured on cached data (§7).",
    )
    for nw in workers:
        session = paper_session(dataset, nw)
        simple = session.run("vortex-simple", params=VORTEX_PARAMS)
        session.warm_cache("vortex-dataman", params=VORTEX_PARAMS)
        dataman = session.run("vortex-dataman", params=VORTEX_PARAMS)
        streamed = session.run(
            "vortex-streamed", params={**VORTEX_PARAMS, **STREAM_EXTRA}
        )
        result.rows.append(
            {
                "workers": nw,
                "SimpleVortex": simple.total_runtime,
                "StreamedVortex": streamed.total_runtime,
                "VortexDataMan": dataman.total_runtime,
            }
        )
    return result


def fig9_engine_vortex_runtime(workers: Sequence[int] = WORKER_COUNTS) -> ExperimentResult:
    """Figure 9: Engine, λ2, total runtime."""
    return _vortex_runtime(engine_dataset(), "fig9", "Engine, Lambda-2, total runtime [s]", workers)


def fig10_propfan_vortex_runtime(workers: Sequence[int] = WORKER_COUNTS) -> ExperimentResult:
    """Figure 10: Propfan, λ2, total runtime."""
    return _vortex_runtime(propfan_dataset(), "fig10", "Propfan, Lambda-2, total runtime [s]", workers)


# --------------------------------------------------- vortex prefetch


def fig11_vortex_prefetch(workers: Sequence[int] = WORKER_COUNTS) -> ExperimentResult:
    """Figure 11: Engine λ2 runtime without and with prefetching.

    Cold caches: "the runtimes for vortex extraction without data
    management are noticeably higher than the values gained with the
    Viracocha-DMS, which now starts with cold caches."
    """
    result = ExperimentResult(
        experiment_id="fig11",
        title="Engine, Lambda-2, cold-cache runtime without/with prefetching [s]",
        columns=["workers", "without_prefetching", "with_prefetching"],
        notes="Cold caches; 'without' disables the OBL system prefetcher.",
    )
    for nw in workers:
        without = paper_session(engine_dataset(), nw).run(
            "vortex-dataman", params={**VORTEX_PARAMS, "prefetch": "none"}
        )
        with_pf = paper_session(engine_dataset(), nw).run(
            "vortex-dataman", params=VORTEX_PARAMS
        )
        result.rows.append(
            {
                "workers": nw,
                "without_prefetching": without.total_runtime,
                "with_prefetching": with_pf.total_runtime,
            }
        )
    return result


# ----------------------------------------------------- vortex latency


def fig12_vortex_latency(workers: Sequence[int] = WORKER_COUNTS) -> ExperimentResult:
    """Figure 12: latency times for vortex extraction (Propfan)."""
    result = ExperimentResult(
        experiment_id="fig12",
        title="Propfan, vortex latency [s]",
        columns=["workers", "StreamedVortex", "VortexDataMan"],
        notes="Paper text: ~45 s final (16 workers) vs ~4.2 s first partial result.",
    )
    for nw in workers:
        session = paper_session(propfan_dataset(), nw)
        session.warm_cache("vortex-dataman", params=VORTEX_PARAMS)
        dataman = session.run("vortex-dataman", params=VORTEX_PARAMS)
        streamed = session.run(
            "vortex-streamed", params={**VORTEX_PARAMS, **STREAM_EXTRA}
        )
        result.rows.append(
            {
                "workers": nw,
                "StreamedVortex": streamed.latency,
                "VortexDataMan": dataman.latency,
            }
        )
    return result


# -------------------------------------------------------- pathlines


def fig13_pathlines_runtime(
    workers: Sequence[int] = PATHLINE_WORKER_COUNTS,
) -> ExperimentResult:
    """Figure 13: Engine, pathlines, total runtime."""
    result = ExperimentResult(
        experiment_id="fig13",
        title="Engine, Pathlines, total runtime [s]",
        columns=["workers", "SimplePathlines", "PathlinesDataMan"],
        notes="PathlinesDataMan measured on fully cached data (§7.3).",
    )
    params = pathline_params()
    for nw in workers:
        session = paper_session(engine_dataset(), nw)
        simple = session.run("pathlines-simple", params=params)
        session.warm_cache("pathlines-dataman", params=params)
        dataman = session.run("pathlines-dataman", params=params)
        result.rows.append(
            {
                "workers": nw,
                "SimplePathlines": simple.total_runtime,
                "PathlinesDataMan": dataman.total_runtime,
            }
        )
    return result


def fig14_pathline_prefetch(
    workers: Sequence[int] = PATHLINE_WORKER_COUNTS,
) -> ExperimentResult:
    """Figure 14: prefetching influence on pathline computation.

    Both series run on uncached data ("otherwise prefetching would be
    unnecessary"); the Markov prefetcher overlaps I/O with integration.
    The miss-elimination column reports the after-learning condition
    (retained Markov graph, cold caches) under which the paper saw "a
    maximum of 95% cache misses eliminated".
    """
    result = ExperimentResult(
        experiment_id="fig14",
        title="Engine, pathlines, cold-cache runtime without/with Markov prefetching [s]",
        columns=[
            "workers",
            "without_prefetching",
            "with_prefetching",
            "saving_pct",
            "misses_eliminated_after_learning_pct",
        ],
    )
    params = pathline_params()
    for nw in workers:
        without = paper_session(engine_dataset(), nw).run(
            "pathlines-dataman", params={**params, "prefetch": "none"}
        )
        session = paper_session(engine_dataset(), nw)
        with_pf = session.run(
            "pathlines-dataman", params={**params, "retain_markov": True}
        )
        # After-learning condition: retained Markov graph, cold caches.
        session.clear_caches()
        relearned = session.run(
            "pathlines-dataman", params={**params, "retain_markov": True}
        )
        uncovered = relearned.dms["misses"] - relearned.dms["misses_covered"]
        eliminated = 100.0 * (1.0 - uncovered / max(without.dms["misses"], 1))
        result.rows.append(
            {
                "workers": nw,
                "without_prefetching": without.total_runtime,
                "with_prefetching": with_pf.total_runtime,
                "saving_pct": 100.0
                * (1.0 - with_pf.total_runtime / without.total_runtime),
                "misses_eliminated_after_learning_pct": eliminated,
            }
        )
    return result


# ------------------------------------------------------- component pie


def fig15_component_breakdown() -> ExperimentResult:
    """Figure 15: essential isosurface components, Engine, one worker.

    Paper: SimpleIso ≈ 50 % compute / 49 % read / 1 % send;
    IsoDataMan ≈ 85 % / 5 % / 10 %.
    """
    result = ExperimentResult(
        experiment_id="fig15",
        title="Engine isosurface component shares (1 worker) [%]",
        columns=["command", "compute_pct", "read_pct", "send_pct"],
    )
    params = iso_params(engine_dataset())
    session = paper_session(engine_dataset(), 1)
    simple = session.run("iso-simple", params=params)
    session.warm_cache("iso-dataman", params=params)
    dataman = session.run("iso-dataman", params=params)
    for name, res in (("SimpleIso", simple), ("IsoDataMan", dataman)):
        fr = res.breakdown_fractions
        result.rows.append(
            {
                "command": name,
                "compute_pct": 100.0 * fr["compute"],
                "read_pct": 100.0 * fr["read"],
                "send_pct": 100.0 * fr["send"],
            }
        )
    return result


#: registry used by the report generator and the pytest benchmarks.
ALL_EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1_datasets,
    "fig6": fig6_engine_iso_runtime,
    "fig7": fig7_propfan_iso_runtime,
    "fig8": fig8_iso_latency,
    "fig9": fig9_engine_vortex_runtime,
    "fig10": fig10_propfan_vortex_runtime,
    "fig11": fig11_vortex_prefetch,
    "fig12": fig12_vortex_latency,
    "fig13": fig13_pathlines_runtime,
    "fig14": fig14_pathline_prefetch,
    "fig15": fig15_component_breakdown,
}
