"""Deterministic discrete-event simulation of the Viracocha testbed.

Substitutes for the paper's SUN Fire 6800 + MPI hardware: a simpy-like
kernel (:mod:`.kernel`, :mod:`.resources`), bandwidth/latency links
(:mod:`.network`), and the cluster wiring (:mod:`.cluster`).
"""

from .kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .resources import PriorityStore, Request, Resource, Store
from .network import Link
from .cluster import ClusterConfig, NodeBreakdown, SimCluster, SimNode

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "PriorityStore",
    "Request",
    "Resource",
    "Store",
    "Link",
    "ClusterConfig",
    "NodeBreakdown",
    "SimCluster",
    "SimNode",
]
