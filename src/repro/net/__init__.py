"""Interconnect modeling: topology graphs, static routing, and
flow-based link contention.

The paper's single latency/bandwidth pair prices one uncontended wire;
this package adds the *structure* around it — which links a message
crosses (:class:`Topology` + :class:`Router`) and how concurrent
transfers share them (:class:`FlowEngine`, max-min fair).  The ``flat``
topology is the degenerate case that bypasses everything and reproduces
the closed-form model bit for bit.
"""

from .flows import LINK_UTIL_EVENT, Flow, FlowEngine, max_min_rates
from .routing import Router
from .transport import NetworkTransport, ShmTransport, Transport, transport_for_pair
from .topology import (
    TOPOLOGY_KINDS,
    Link,
    Topology,
    fat_tree,
    flat,
    make_topology,
    torus2d,
)

__all__ = [
    "Flow",
    "FlowEngine",
    "LINK_UTIL_EVENT",
    "max_min_rates",
    "NetworkTransport",
    "Router",
    "ShmTransport",
    "Transport",
    "transport_for_pair",
    "Link",
    "Topology",
    "TOPOLOGY_KINDS",
    "flat",
    "fat_tree",
    "torus2d",
    "make_topology",
]
