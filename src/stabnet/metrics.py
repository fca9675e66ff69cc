"""Closed-form comparison figures for multipartite (LQC) versus
central-node EPR distribution on regular tree networks.

The asymptotic classes are represented by their simplest members with
all constants set to 1, so every number here is in model units: one
round of local coding per tree level against one end-to-end EPR per
client, and memory bounded by node connectivity against memory of the
order of the client count.  The erasure-flag noise model multiplies an
independent per-channel survival probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .network import NetworkTopology


class Scheme(Enum):
    LQC = "LQC"
    EPR = "EPR"


@dataclass(frozen=True)
class RegularTreeSpec:
    """Tree where every relay has ``n`` children; clients hang off the
    depth-p end relays (p = distance from the central node to a client)."""

    n: int
    p: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("connectivity n must be >= 2")
        if self.p < 1:
            raise ValueError("depth p must be >= 1")

    @property
    def relay_count(self) -> int:
        # levels 0 .. p-1 hold relays, level p holds the clients: a geometric sum
        return (self.n**self.p - 1) // (self.n - 1)

    @property
    def client_count(self) -> int:
        return self.n**self.p

    def edge_count(self) -> int:
        return self.n * self.relay_count  # every relay has n child edges

    def as_topology(self) -> NetworkTopology:
        nodes = []
        edges = []
        previous = ["r0"]
        nodes.append(("r0", "relay"))
        counter = 1
        for level in range(1, self.p + 1):
            role = "client" if level == self.p else "relay"
            prefix = "c" if role == "client" else "r"
            current = []
            for parent in previous:
                for _ in range(self.n):
                    name = f"{prefix}{counter}"
                    counter += 1
                    nodes.append((name, role))
                    edges.append((parent, name, 1))
                    current.append(name)
            previous = current
        return NetworkTopology(tuple(nodes), tuple(edges))


@dataclass(frozen=True)
class NoiseSpec:
    """Each distributed entangled state fails independently with
    probability ``p_fail`` and raises an abort flag."""

    p_fail: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_fail <= 1.0:
            raise ValueError(f"p_fail must be in [0, 1], got {self.p_fail}")


def latency(spec: RegularTreeSpec, scheme: Scheme | str) -> int:
    """Distribution rounds: p for local coding, n**p for EPR swapping."""
    scheme = Scheme(scheme)
    return spec.p if scheme is Scheme.LQC else spec.client_count


def memory_qubits(spec: RegularTreeSpec, scheme: Scheme | str) -> int:
    """Peak memory qubits per node: n + 1 for local coding, n**p for EPR."""
    scheme = Scheme(scheme)
    return spec.n + 1 if scheme is Scheme.LQC else spec.client_count


def success_probability(noise: NoiseSpec, channels: int) -> float:
    """(1 - p_fail)**channels, the no-abort branch of the flag channel, as
    exp(channels * log1p(-p_fail)): ``1.0 - p_fail`` rounds a p_fail under
    about 5.5e-17 away.  Past the float range of ``channels`` it is worked
    in logs, and is 0.0 for any p_fail above about 1e-305."""
    if channels < 0:
        raise ValueError("channel count must be >= 0")
    if noise.p_fail == 1.0:
        return 0.0 if channels else 1.0
    try:
        return math.exp(channels * math.log1p(-noise.p_fail))
    except OverflowError:  # the int channel count does not convert to a float
        if noise.p_fail == 0.0:
            return 1.0
        # log of channels * -log(1 - p_fail); past 709 its exp overflows, and the result is 0.0
        decay = math.log(channels) + math.log(-math.log1p(-noise.p_fail))
        return 0.0 if decay > 709 else math.exp(-math.exp(decay))


def channel_count(
    t: RegularTreeSpec | NetworkTopology,
    scheme: Scheme | str,
    center: str | None = None,
) -> int:
    """Qubit channels consumed by one distribution.

    LQC uses every edge channel exactly once.  The EPR baseline sends one
    end-to-end pair per client from a central relay, consuming one
    channel per edge crossed; the center defaults to the relay
    minimizing the total client hop count among the relays that reach
    every client (ties broken by node order).
    """
    scheme = Scheme(scheme)
    if isinstance(t, RegularTreeSpec):
        if scheme is Scheme.LQC:
            return t.edge_count()
        return t.client_count * t.p
    if scheme is Scheme.LQC:
        return sum(c for _, _, c in t.edges)
    return _epr_channels(t, center)


def _epr_channels(t: NetworkTopology, center: str | None) -> int:
    clients = t.clients
    if not clients:
        raise ValueError("topology has no clients")
    if center is not None and center not in t.node_ids:
        raise ValueError(f"unknown center {center!r}")
    candidates = (center,) if center is not None else t.relays or t.node_ids
    reach = (t.hops_from(source) for source in candidates)
    totals = [sum(hops[c] for c in clients) for hops in reach if all(c in hops for c in clients)]
    if not totals:  # name what the first candidate misses
        missing = [c for c in clients if c not in t.hops_from(candidates[0])]
        raise ValueError(f"clients unreachable from {candidates[0]!r}: {missing}")
    return min(totals)
