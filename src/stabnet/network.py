"""Network topologies, min-cut, and single-shot distributability.

A topology is a set of labeled nodes (relays and clients) and undirected
edges carrying an integer channel count (log2 of the edge dimension).
The min-cut between two client sets is computed by max-flow after
merging each set into a single terminal; a target graph state is
single-shot distributable only if every client bipartition's min-cut is
at least the target's entanglement rank across it, so `feasibility`
sweeps all bipartitions and reports the first violation or the full
table.  Feasibility here is the necessary condition; no general coding
strategy is synthesized for the positive case.

`to_contraction` realizes the dual picture: every edge channel becomes a
Bell pair with one half at each endpoint, every relay is assigned a
local stabilizer state with one port per incident channel, and each port
is glued to its co-located half by a Bell projection.  Client halves
survive as the boundary.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .contraction import BellConvention, ContractionInstance, bell_group
from .graphstate import Bipartition, GraphState, entanglement_rank
from .pauli import PauliOperator, StabilizerGroup, require_int

DEFAULT_MAX_CLIENTS = 20


class ArityMismatchError(ValueError):
    """An assigned relay state does not have one qubit per incident channel."""


@dataclass(frozen=True)
class NetworkTopology:
    """Nodes with relay/client roles; edges carry qubit-channel counts."""

    nodes: tuple[tuple[str, str], ...]  # (id, role), role in {"relay", "client"}
    edges: tuple[tuple[str, str, int], ...]  # (u, v, channels)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple((str(i), str(r)) for i, r in self.nodes))
        object.__setattr__(
            self,
            "edges",
            tuple(
                (str(u), str(v), require_int(c, f"edges[{k}].channels"))
                for k, (u, v, c) in enumerate(self.edges)
            ),
        )
        ids = [i for i, _ in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        roles = dict(self.nodes)
        for role in roles.values():
            if role not in ("relay", "client"):
                raise ValueError(f"unknown role {role!r}")
        for u, v, c in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in roles or v not in roles:
                raise ValueError(f"edge ({u}, {v}) references an unknown node")
            if c < 1:
                raise ValueError(f"edge ({u}, {v}) needs channels >= 1, got {c}")

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.nodes)

    @property
    def roles(self) -> dict[str, str]:
        return dict(self.nodes)

    @property
    def clients(self) -> tuple[str, ...]:
        return tuple(i for i, r in self.nodes if r == "client")

    @property
    def relays(self) -> tuple[str, ...]:
        return tuple(i for i, r in self.nodes if r == "relay")

    def degree_channels(self, node: str) -> int:
        return sum(c for u, v, c in self.edges if node in (u, v))

    def hops_from(self, source: str) -> dict[str, int]:
        """Breadth-first hop count from ``source`` to every node it reaches."""
        adj: dict[str, list[str]] = {i: [] for i in self.node_ids}
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            a = frontier.popleft()
            for b in adj[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    frontier.append(b)
        return dist

    def is_connected(self) -> bool:
        return not self.nodes or len(self.hops_from(self.nodes[0][0])) == len(self.nodes)

    def to_json(self) -> str:
        return json.dumps(
            {
                "nodes": [{"id": i, "role": r} for i, r in self.nodes],
                "edges": [{"u": u, "v": v, "channels": c} for u, v, c in self.edges],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> NetworkTopology:
        data = json.loads(text)
        return cls(
            nodes=tuple((d["id"], d["role"]) for d in data["nodes"]),
            edges=tuple((d["u"], d["v"], d.get("channels", 1)) for d in data["edges"]),
        )


def min_cut(t: NetworkTopology, a: Iterable[str], b: Iterable[str]) -> int:
    """Minimum summed channel count over node cuts separating ``a`` from ``b``.

    Computed as max-flow (BFS augmenting paths) after collecting each
    side into a single terminal.
    """
    a, b = set(a), set(b)
    if not a or not b:
        raise ValueError("both client sets must be nonempty")
    if a & b:
        raise ValueError(f"client sets overlap: {sorted(a & b)}")
    known = set(t.node_ids)
    for q in a | b:
        if q not in known:
            raise ValueError(f"unknown node {q!r}")

    # slot 0 = merged source (a), slot 1 = merged sink (b)
    index: dict[str, int] = {}
    for i in t.node_ids:
        if i not in a and i not in b:
            index[i] = 2 + len(index)

    def node_of(i: str) -> int:
        if i in a:
            return 0
        if i in b:
            return 1
        return index[i]

    size = 2 + len(index)
    capacity = [[0] * size for _ in range(size)]
    for u, v, c in t.edges:
        ui, vi = node_of(u), node_of(v)
        if ui == vi:
            continue
        capacity[ui][vi] += c
        capacity[vi][ui] += c

    flow = 0
    while True:
        parent = [-1] * size
        parent[0] = 0
        queue = deque([0])
        while queue and parent[1] == -1:
            u = queue.popleft()
            for v in range(size):
                if parent[v] == -1 and capacity[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[1] == -1:
            return flow
        bottleneck = None
        v = 1
        while v != 0:
            u = parent[v]
            bottleneck = capacity[u][v] if bottleneck is None else min(bottleneck, capacity[u][v])
            v = u
        v = 1
        while v != 0:
            u = parent[v]
            capacity[u][v] -= bottleneck
            capacity[v][u] += bottleneck
            v = u
        flow += bottleneck


@dataclass(frozen=True)
class BipartitionReport:
    a: tuple[str, ...]
    b: tuple[str, ...]
    min_cut: int
    required_rank: int

    @property
    def ok(self) -> bool:
        return self.min_cut >= self.required_rank

    def as_dict(self) -> dict:
        return {
            "a": list(self.a),
            "b": list(self.b),
            "min_cut": self.min_cut,
            "required_rank": self.required_rank,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: BipartitionReport | None
    table: tuple[BipartitionReport, ...]

    @property
    def note(self) -> str:
        return (
            "necessary condition satisfied for every client bipartition"
            if self.feasible
            else "min-cut below required entanglement rank"
        )

    def to_json(self) -> str:
        payload = {
            "feasible": self.feasible,
            "note": self.note,
            "table": [r.as_dict() for r in self.table],
        }
        if self.witness is not None:
            payload["witness"] = self.witness.as_dict()
        return json.dumps(payload, sort_keys=True)


def feasibility(
    t: NetworkTopology,
    clients: Sequence[str],
    target: GraphState,
    max_clients: int = DEFAULT_MAX_CLIENTS,
    bipartition_list: Sequence[Bipartition] | None = None,
) -> FeasibilityVerdict:
    """Check min-cut >= entanglement rank on every client bipartition.

    Client ``i`` holds target vertex ``i``.  The sweep is exhaustive up
    to ``max_clients`` clients; beyond that an explicit bipartition list
    is required.
    """
    clients = list(clients)
    if len(clients) != target.n:
        raise ValueError(
            f"{len(clients)} clients vs target on {target.n} vertices"
        )
    roles = t.roles
    for c in clients:
        if roles.get(c) != "client":
            raise ValueError(f"{c!r} is not a client node")
    if bipartition_list is None:
        if len(clients) > max_clients:
            raise ValueError(
                f"{len(clients)} clients exceed the exhaustive sweep cap "
                f"{max_clients}; pass an explicit bipartition list"
            )
        from .graphstate import bipartitions as _all

        bipartition_list = list(_all(len(clients)))
    table = []
    witness = None
    for part in bipartition_list:
        mc = min_cut(t, [clients[i] for i in part.a], [clients[i] for i in part.b])
        rank = entanglement_rank(target, part)
        report = BipartitionReport(
            tuple(clients[i] for i in part.a),
            tuple(clients[i] for i in part.b),
            mc,
            rank,
        )
        table.append(report)
        if not report.ok:
            witness = report
            break
    return FeasibilityVerdict(witness is None, witness, tuple(table))


def repetition_state(num_qubits: int) -> StabilizerGroup:
    """GHZ-type state generated by the repetition strategy: X on every
    qubit plus neighboring ZZ checks."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    n = num_qubits
    gens = [PauliOperator(n, (1 << n) - 1, 0, 0)]
    for q in range(n - 1):
        gens.append(PauliOperator(n, 0, 0b11 << q, 0))
    return StabilizerGroup(n, tuple(gens))


def to_contraction(
    t: NetworkTopology,
    assignment: Mapping[str, StabilizerGroup],
    convention: BellConvention | str = BellConvention.PLUS_PAIR,
) -> tuple[ContractionInstance, dict[str, tuple[int, ...]]]:
    """Build the contraction instance realizing one use of the network.

    Every channel becomes a Bell-pair node state on two fresh qubits
    (one half per endpoint); every relay's assigned state is glued
    port-by-port to its local halves.  Returns the instance plus the map
    from node id to the global qubits it holds; the boundary is exactly
    the client-held qubits.
    """
    convention = BellConvention(convention)
    roles = t.roles
    for node in assignment:
        if roles.get(node) != "relay":
            raise ValueError(f"assignment for non-relay node {node!r}")

    node_states: list[StabilizerGroup] = []
    offset = 0
    halves: dict[str, list[int]] = {i: [] for i in t.node_ids}
    bell = bell_group(convention)
    for u, v, channels in t.edges:
        for _ in range(channels):
            node_states.append(bell)
            halves[u].append(offset)
            halves[v].append(offset + 1)
            offset += 2

    pairings: list[tuple[int, int]] = []
    held: dict[str, tuple[int, ...]] = {}
    for relay in t.relays:
        local = halves[relay]
        state = assignment.get(relay)
        if state is None:
            if not local:
                continue
            raise ArityMismatchError(
                f"relay {relay!r} with {len(local)} channel halves has no assigned state"
            )
        if state.n != len(local):
            raise ArityMismatchError(
                f"relay {relay!r} has {len(local)} channel halves but its state "
                f"has {state.n} qubits"
            )
        node_states.append(state)
        ports = tuple(range(offset, offset + state.n))
        offset += state.n
        pairings.extend(zip(ports, local))
        held[relay] = ports
    for client in t.clients:
        held[client] = tuple(halves[client])

    inst = ContractionInstance(
        node_states=tuple(node_states),
        pairings=tuple(pairings),
        convention=convention,
    )
    return inst, held
