"""Multicore execution of post-processing commands.

The DES runtime (:mod:`repro.core`) *models* Viracocha's parallel work
group under simulated time; this package *runs* it: the same command
classes, the same planned shares, executed on real cores.  Blocks live
once, in the page cache: :class:`ShmBlockStore` maps each block file
read-only in every process (the ``<f4`` on-disk layout, zero-copy lazy
views; a synthetic dataset is written once to a private directory
first), and derived fields are mapped files beside them.  The store is
a :class:`~repro.dms.source.BlockSource` too, so a simulated session
over it reads the same blocks;
:class:`ProcessWorkerPool` fans shares out to worker processes;
:class:`ParallelExtractor` fronts it all behind an
``executor="serial"|"process"`` knob with results byte-identical across
executors by construction.
"""

from .api import EXECUTORS, SCHEDULES, ParallelExtractor, ParallelResult
from .dynamic import CostFeedback, TaskResult
from .pool import ProcessWorkerPool, WorkerPoolError
from .runner import DirectRunner, ShareResult
from .shm import ShmBlockStore

__all__ = [
    "EXECUTORS",
    "SCHEDULES",
    "ParallelExtractor",
    "ParallelResult",
    "CostFeedback",
    "TaskResult",
    "ProcessWorkerPool",
    "ShareResult",
    "WorkerPoolError",
    "DirectRunner",
    "ShmBlockStore",
]
