"""Calibration of the simulated testbed to the paper's measurements.

The paper's hardware (§6.2): a SUN Fire 6800 node (24 UltraSPARC III Cu
at 900 MHz, 24 GB RAM) as the post-processing backend, a dual-XEON PC
as the visualization client, data on a network fileserver.

Anchors taken from the paper's *text* (bar-chart axes are only
approximate):

* Fig. 15 — SimpleIso on Engine splits ≈ 50 % compute / 49 % read /
  1 % send; IsoDataMan ≈ 85 / 5 / 10.  With one Engine time level at
  ≈ 17.8 modeled MB this pins the effective fileserver throughput near
  1 MB/s (2004-era loaded NFS) and iso compute near 17 s.
* §7.2 — VortexDataMan on Propfan, 16 workers ≈ 45 s; StreamedVortex
  first partial result ≈ 4.2 s.
* Fig. 9 — Engine SimpleVortex at 1 worker sits under the 100 s axis.
* Fig. 13/14 — Engine pathlines run minutes at 1 worker; Markov
  prefetching saves up to 40 % and eliminates up to 95 % of misses.

Only the one-worker Engine iso numbers and the Propfan 16-worker vortex
number were used to fix constants; everything else the model predicts.
"""

from __future__ import annotations

from ..core.costs import CostModel
from ..des.cluster import ClusterConfig

__all__ = ["paper_cluster", "paper_costs", "paper_session", "MB"]

MB = 1024 * 1024


def paper_cluster(n_workers: int) -> ClusterConfig:
    """The simulated SUN Fire 6800 + fileserver + client testbed."""
    return ClusterConfig(
        n_workers=n_workers,
        cpu_rate=1.0e8,  # abstract work units / s / CPU
        # Effective fileserver throughput (loaded 100 Mbit NFS path);
        # two service streams model its RAID/daemon concurrency.
        fileserver_bandwidth=1.0 * MB,
        fileserver_latency=10e-3,
        fileserver_streams=2,
        # Node-local scratch disks (DMS L2): early-2000s SCSI.
        local_disk_bandwidth=35.0 * MB,
        local_disk_latency=8e-3,
        # Shared-memory MPI inside the SMP node.
        fabric_bandwidth=400.0 * MB,
        fabric_latency=40e-6,
        fabric_streams=8,
        # TCP/IP to the visualization host (shares the site LAN).
        client_bandwidth=2.0 * MB,
        client_latency=3e-3,
    )


def paper_costs() -> CostModel:
    """Per-modeled-cell work constants (see module docstring)."""
    return CostModel(
        iso_scan_per_cell=1200.0,
        iso_triangulate_per_cell=7000.0,
        bsp_per_cell=1500.0,
        lambda2_per_cell=6000.0,
        # Per velocity sample.  Calibrated for the embedded-RK45 batch
        # tracer (6 stages/attempt); the old step-doubling RK4 tracer
        # took ~3x more samples per accepted step, with 1.2e6 here.
        pathline_sample=3.6e6,
        merge_per_byte=0.02,
        command_setup=2.0e6,
        result_wire_factor=0.2,
        stream_packet_overhead=1.5e6,
        streaming_compute_factor=1.12,
    )


def paper_session(data="engine", workers: int = 4, resolution: int = 4,
                  timesteps: int = 2, **kw):
    """A :class:`~repro.core.session.ViracochaSession` on the calibrated
    testbed.  ``data`` is a dataset, or a :data:`repro.synth.DATASETS`
    name built at ``resolution`` with ``timesteps`` levels; ``kw`` goes
    to the session."""
    from ..core.session import ViracochaSession
    from ..synth import DATASETS

    if isinstance(data, str):
        data = DATASETS[data](base_resolution=resolution, n_timesteps=timesteps)
    return ViracochaSession(
        data, cluster_config=paper_cluster(workers), costs=paper_costs(), **kw
    )
