"""Layer 1: the generic communication interface.

"The lowest layer hides implementation details about used communication
protocols. [...] subsequent layers will only operate on a generic
communication interface without knowing whether the data will be
transferred using TCP/IP or MPI calls.  This facilitates an easy
adoption of new transport protocols." (§3)

A :class:`Channel` delivers messages into a destination
:class:`Mailbox`, charging the appropriate simulated link:
:class:`SimMPIChannel` rides the cluster fabric (worker ↔ scheduler),
:class:`SimTCPChannel` rides the serialized client link (cluster ↔
visualization host).  Layers 2 and 3 hold ``Channel`` references only.
"""

from __future__ import annotations

from typing import Generator, Protocol

from ..des.cluster import SimCluster, SimNode
from ..des.kernel import Environment, Event
from ..des.resources import Store

__all__ = [
    "Mailbox",
    "Channel",
    "ClientUplink",
    "SimMPIChannel",
    "SimTCPChannel",
    "InstantChannel",
]


class Mailbox:
    """A named message queue owned by one endpoint."""

    def __init__(self, env: Environment, name: str = "mailbox"):
        self.env = env
        self.name = name
        self._store = Store(env)
        self.received = 0

    def put(self, message) -> None:
        self.received += 1
        self._store.put(message)

    def get(self) -> Event:
        return self._store.get()

    def __len__(self) -> int:
        return len(self._store)


class Channel(Protocol):
    """What layers 2/3 see: send a message from a node to a mailbox."""

    def send(
        self, sender: SimNode, message, dest: Mailbox
    ) -> Generator[Event, None, None]: ...


class SimMPIChannel:
    """Intra-cluster transport over the message-passing fabric."""

    def __init__(self, cluster: SimCluster, account: str = "send"):
        self.cluster = cluster
        self.account = account

    def send(self, sender: SimNode, message, dest: Mailbox):
        yield from self.cluster.fabric_transfer(
            sender, _wire_bytes(message), account=self.account
        )
        dest.put(message)


class SimTCPChannel:
    """Cluster ↔ visualization-client transport (serialized TCP link)."""

    def __init__(self, cluster: SimCluster):
        self.cluster = cluster

    def send(self, sender: SimNode, message, dest: Mailbox):
        yield from self.cluster.send_to_client(sender, _wire_bytes(message))
        dest.put(message)


class ClientUplink:
    """The client → scheduler direction of the serialized TCP link.

    Command submissions travel *up* the same client link result packets
    travel down; this wrapper charges that link for a request's wire
    size.  :meth:`repro.core.session.ViracochaSession.submit` is its
    one caller, so submission cost is modeled in exactly one place.
    """

    def __init__(self, cluster: SimCluster):
        self.cluster = cluster

    def send(self, message):
        yield from self.cluster.client_link.transfer(_wire_bytes(message))


class InstantChannel:
    """Zero-cost delivery — unit-test doubles and client-side loopback."""

    def send(self, sender: SimNode, message, dest: Mailbox):
        dest.put(message)
        return
        yield  # pragma: no cover - makes this a generator function


def _wire_bytes(message) -> int:
    for attr in ("wire_bytes", "nbytes"):
        size = getattr(message, attr, None)
        if size is not None:
            return int(size)
    return 256
