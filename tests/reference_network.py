"""Reference copy of the feasibility sweep in its first form.

``stabnet.network.feasibility`` streams the bipartitions, keeps one
residual flow on the topology's compiled arcs, starts each flow from the
flow the last one left, and reuses one cut for every bipartition that
only swaps twin clients or the two sides.  The code below does the same test the plain
way: every bipartition is listed up front, every cut is a fresh max-flow
on a dense capacity matrix with each client set merged into one
terminal, and every block of the adjacency matrix is packed one bit at
a time.  A bipartition here is a pair of sorted index tuples ``(a, b)``,
not the package's A-side mask; only the table it returns holds masks,
in the same mask, cut and rank columns as the package's.  Tests require
both to render byte-identical verdicts.

``document`` is the feasibility document in its first form: a dict per
row, each side's client list read off the mask client by client, encoded
by the ``json`` module.  ``stabnet feasibility`` fills its rows into a
template from the table's columns instead, and tests require the same
bytes, indented and compact.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable, Iterator, Sequence

from conftest import pack_row
from stabnet import gf2
from stabnet.graphstate import GraphState
from stabnet.network import (
    DEFAULT_MAX_CLIENTS,
    BipartitionReport,
    FeasibilityVerdict,
    NetworkTopology,
    ReportTable,
)


def min_cut(t: NetworkTopology, a: Iterable[str], b: Iterable[str]) -> int:
    """Max-flow (BFS augmenting paths) after collecting each side into a
    single terminal of a dense capacity matrix."""
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


Part = tuple[tuple[int, ...], tuple[int, ...]]


def split(n: int, a_side: Iterable[int]) -> Part:
    """``(a, b)``: the distinct indices of ``a_side`` and the rest of range(n)."""
    a = set(a_side)
    if not a or not a < set(range(n)):
        raise ValueError("both sides must be nonempty subsets of the vertex set")
    return tuple(sorted(a)), tuple(q for q in range(n) if q not in a)


def entanglement_rank(g: GraphState, part: Part) -> int:
    """GF(2) rank of the adjacency block, packed bit by bit."""
    a, b = part
    if sorted(a + b) != list(range(g.n)) or not a or not b:
        raise ValueError("bipartition does not cover the vertex set")
    block = []
    for u in a:
        block.append(pack_row((g.rows[u] >> v) & 1 for v in b))
    return gf2.rank_packed(block)


def bipartitions(n: int) -> Iterator[Part]:
    """All bipartitions of range(n), side A always containing vertex 0."""
    rest = list(range(1, n))
    for mask in range(1 << (n - 1)):
        a = [0] + [rest[i] for i in range(n - 1) if (mask >> i) & 1]
        if len(a) < n:
            yield split(n, a)


def feasibility(
    t: NetworkTopology,
    clients: Sequence[str],
    target: GraphState,
    max_clients: int = DEFAULT_MAX_CLIENTS,
    bipartition_list: Sequence[Part] | None = None,
) -> FeasibilityVerdict:
    """One fresh min-cut and one rank per bipartition, listed up front."""
    clients = list(clients)
    if len(clients) != target.n:
        raise ValueError(f"{len(clients)} clients vs target on {target.n} vertices")
    roles = dict(t.nodes)
    for c in clients:
        if roles.get(c) != "client":
            raise ValueError(f"{c!r} is not a client node")
    listed = bipartition_list is not None
    if not listed:
        if len(clients) > max_clients:
            raise ValueError(f"{len(clients)} clients exceed the exhaustive sweep cap")
        bipartition_list = list(bipartitions(len(clients)))
    masks, cuts, ranks = [], [], []
    for a, b in bipartition_list:
        masks.append(sum(1 << i for i in a))
        cuts.append(min_cut(t, [clients[i] for i in a], [clients[i] for i in b]))
        ranks.append(entanglement_rank(target, (a, b)))
        if cuts[-1] < ranks[-1]:
            break
    return FeasibilityVerdict(ReportTable(tuple(clients), masks, cuts, ranks), listed)


def named(clients: Sequence[str], mask: int) -> list[str]:
    return [c for i, c in enumerate(clients) if (mask >> i) & 1]


def row_dict(r: BipartitionReport) -> dict:
    return {
        "a": named(r.clients, r.a_mask),
        "b": named(r.clients, ~r.a_mask),
        "min_cut": r.min_cut,
        "required_rank": r.required_rank,
        "ok": r.ok,
    }


def verdict_dict(v: FeasibilityVerdict) -> dict:
    payload = {"feasible": v.feasible, "note": v.note, "table": [row_dict(r) for r in v.table]}
    if v.witness is not None:
        payload["witness"] = row_dict(v.witness)
    return payload


def document(v: FeasibilityVerdict, compact: bool = False) -> str:
    """What ``stabnet feasibility`` writes for ``v``, with ``--compact`` or without."""
    return json.dumps(verdict_dict(v), indent=None if compact else 2, sort_keys=True) + "\n"
