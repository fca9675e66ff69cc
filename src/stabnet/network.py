"""Network topologies, min-cut, and single-shot distributability.

A topology is a set of labeled nodes (relays and clients) and undirected
edges carrying an integer channel count (log2 of the edge dimension).
The checks that walk its nodes set its id tuples; its residual arcs
(reverse pairs, parallel edges merged) are compiled on the first flow or
hop count.  `min_cut` is max-flow by BFS augmenting paths from all of
one client set to the other (`_augment`, the one loop that the sweep
runs too), returned when a BFS finds no augmenting path: that BFS
reached the source side of a minimum cut.

A target graph state is single-shot distributable only if every client
bipartition's min-cut is at least the target's entanglement rank across
it (a necessary condition; no coding strategy is synthesized), so
`feasibility` streams A-side client masks into a table that ends at the
first violation: the verdict and its witness are read off the last row.
The table keeps columns, not rows: the A-side masks (the exhaustive
sweep's are a range, so they take no storage), the cuts and the ranks,
one entry per checked row.  A row's report is built from them when it is
read, and its two client lists are read off its mask by `subsets`: two
table lookups up to 20 clients, not a walk over every client.
Twin clients share a neighbour->channel map, so swapping two is an
automorphism: a cut depends only on how many twins of each class sit on
each side.  Edges are undirected, so cut(A, B) = cut(B, A), and the
sweep runs one flow per such count up to swapping the sides.

The table keeps one residual flow, and each new count starts from the
flow the last one left.  That flow is conserved at every node but the
listed clients, and side B is always side A's complement among them, so
it is a valid start for augmenting paths from A to B (Ford & Fulkerson):
its value is side B's net inflow, and the paths found on top of it end
at the maximum, which is the min cut.  Unlisted clients and relays stay
transit nodes, and the last BFS, which finds no path, still reaches the
A side of a minimum cut.

The exhaustive sweep reads every rank from one table.  Vertex 0 sits on
side A, so side B is a set of vertices 1..n-1, and rank(adj[A, B]) =
rank(adj[B, A]).  With o(x) the odd neighbourhood of a vertex set x (the
XOR of its rows), the x within B whose o(x) lies within B make the left
kernel of adj[B, A]: N(B) = 2**(|B| - rank) of them.  `_sweep_ranks`
counts each x at x | o(x), from two half tables, and one subset-sum (zeta)
transform of the counts packed into one integer (Bjorklund, Husfeldt,
Kaski and Koivisto 2007) gives every N(B), a masked shift and add per
vertex.  A listed mask gets an `entanglement_rank`.

`to_contraction` realizes the dual picture: every edge channel becomes a
Bell pair with one half at each endpoint, every relay is assigned a
local stabilizer state with one port per incident channel, and each port
is glued to its co-located half by a Bell projection.  Client halves
survive as the boundary.
"""

from __future__ import annotations

import json
import operator
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator, Mapping, MutableSequence, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from . import gf2
from .contraction import BellConvention, ContractionInstance, bell_group
from .graphstate import GraphState, entanglement_rank, require_bipartition
from .pauli import PauliOperator, StabilizerGroup, require_int, require_key, require_type

DEFAULT_MAX_CLIENTS = 20


@dataclass(frozen=True)
class NetworkTopology:
    """Nodes with relay/client roles; edges carry qubit-channel counts.
    The checks set ``node_ids``, ``clients`` and ``relays``, in node order."""

    nodes: tuple[tuple[str, str], ...]  # (id, role), role in {"relay", "client"}
    edges: tuple[tuple[str, str, int], ...]  # (u, v, channels)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple((i, r) for i, r in self.nodes))
        object.__setattr__(self, "edges", tuple((u, v, c) for u, v, c in self.edges))
        node_ids, clients, relays = [], [], []
        # never str(id): a node 1 and a node "1" would become one node
        for k, (i, role) in enumerate(self.nodes):
            require_type(i, str, f"nodes[{k}].id", "a string")
            if role not in ("relay", "client"):
                raise ValueError(f'nodes[{k}].role must be "relay" or "client", got {role!r}')
            node_ids.append(i)
            (clients if role == "client" else relays).append(i)
        known = set(node_ids)
        if len(known) != len(node_ids):
            raise ValueError("duplicate node ids")
        object.__setattr__(self, "node_ids", tuple(node_ids))
        object.__setattr__(self, "clients", tuple(clients))
        object.__setattr__(self, "relays", tuple(relays))
        for k, (u, v, c) in enumerate(self.edges):
            require_type(u, str, f"edges[{k}].u", "a string")
            require_type(v, str, f"edges[{k}].v", "a string")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u}, {v}) references an unknown node")
            if require_int(c, f"edges[{k}].channels") < 1:
                raise ValueError(f"edge ({u}, {v}) needs channels >= 1, got {c}")

    @cached_property
    def _arcs(self) -> tuple[dict[str, int], list[list[int]], list[int], list[int]]:
        """Compiled ``(index, out, head, cap)``: ``out[index[id]]`` lists the
        arcs leaving a node; arc ``k`` runs to ``head[k]`` with ``cap[k]``
        channels (parallel edges merged) and arc ``k ^ 1`` is its reverse."""
        index = {i: k for k, i in enumerate(self.node_ids)}
        out: list[list[int]] = [[] for _ in index]
        head: list[int] = []
        cap: list[int] = []
        arc_of: dict[frozenset[int], int] = {}
        for u, v, c in self.edges:
            ui, vi = index[u], index[v]
            k = arc_of.setdefault(frozenset((ui, vi)), len(head))
            if k == len(head):
                head += (vi, ui)
                cap += (0, 0)
                out[ui].append(k)
                out[vi].append(k ^ 1)
            cap[k] += c
            cap[k ^ 1] += c
        return index, out, head, cap

    def hops_from(self, source: str) -> dict[str, int]:
        """Breadth-first hop count from ``source`` to every node it reaches."""
        index, out, head, _ = self._arcs
        if source not in index:
            raise ValueError(f"unknown node {source!r}")
        order = [index[source]]
        hops = {order[0]: 0}
        for u in order:  # appended to while walked: a FIFO queue
            for k in out[u]:
                if head[k] not in hops:
                    hops[head[k]] = hops[u] + 1
                    order.append(head[k])
        return {self.node_ids[u]: h for u, h in hops.items()}

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
        data = require_type(json.loads(text), dict, "the top-level value", "a JSON object")
        nodes, edges = (require_type(require_key(data, key), list, key, "a list of objects") for key in ("nodes", "edges"))
        for key, entries in (("nodes", nodes), ("edges", edges)):
            for k, d in enumerate(entries):
                require_type(d, dict, f"{key}[{k}]", "an object")
        return cls(
            nodes=tuple(
                (require_key(d, "id", f"nodes[{k}]"), require_key(d, "role", f"nodes[{k}]")) for k, d in enumerate(nodes)
            ),
            edges=tuple(
                (require_key(d, "u", f"edges[{k}]"), require_key(d, "v", f"edges[{k}]"), d.get("channels", 1))
                for k, d in enumerate(edges)
            ),
        )


def min_cut(t: NetworkTopology, a: Iterable[str], b: Iterable[str]) -> int:
    """Minimum summed channel count over edge cuts separating ``a`` from ``b``.

    Computed as max-flow (BFS augmenting paths) from all of ``a`` at once
    to any node of ``b`` on the topology's compiled arcs, until a BFS finds
    no augmenting path: the nodes it reached are the ``a`` side of a minimum cut.
    """
    a, b = set(a), set(b)
    if not a or not b:
        raise ValueError("both client sets must be nonempty")
    if a & b:
        raise ValueError(f"client sets overlap: {sorted(a & b)}")
    index, out, head, base = t._arcs
    for q in a | b:
        if q not in index:
            raise ValueError(f"unknown node {q!r}")
    return _augment(out, head, base[:], [index[q] for q in a], {index[q] for q in b})


def _augment(out: list[list[int]], head: list[int], cap: list[int], sources: list[int], sinks: set[int]) -> int:
    """Push flow from the ``sources`` nodes to the ``sinks`` nodes along BFS
    augmenting paths on the residual capacities ``cap`` (arc ``k ^ 1``
    reverses arc ``k``), updated in place, until a BFS finds no augmenting
    path; return the units pushed."""
    flow = 0
    while True:
        via = dict.fromkeys(sources, -1)  # node -> the arc that reached it
        queue = sources[:]
        for u in queue:  # appended to while walked: a FIFO queue
            if u in sinks:
                break
            for k in out[u]:
                if cap[k] and head[k] not in via:
                    via[head[k]] = k
                    queue.append(head[k])
        else:  # no augmenting path left
            return flow
        path = []
        while via[u] >= 0:
            path.append(via[u])
            u = head[via[u] ^ 1]
        push = min(cap[k] for k in path)
        for k in path:
            cap[k] -= push
            cap[k ^ 1] += push
        flow += push


_SUBSET_BITS = 10  # items per subset table: 1024 subsets each, two tables up to 20 clients


@lru_cache(maxsize=16)  # keyed on the items: a few client tuples are read at a time
def subsets(items: tuple) -> Callable[[int], tuple]:
    """``subsets(items)(mask)`` is the tuple of ``items[i]`` for the set bits
    ``i`` of ``mask``, in order; bits past the items are ignored.  The items
    are split into runs of at most ``_SUBSET_BITS``, and each run gets a
    table of its subsets indexed by mask, so a lookup per run, concatenated,
    replaces a walk over every item."""
    runs = max(1, -(-len(items) // _SUBSET_BITS))
    width = max(1, -(-len(items) // runs))
    tables = [_subset_sums([(item,) for item in items[start : start + width]], ()) for start in range(0, len(items), width)]
    first, rest = (tables or [[()]])[0], tables[1:]  # no items: the one empty subset
    every, low = (1 << len(items)) - 1, (1 << width) - 1

    def select(mask: int) -> tuple:
        mask &= every
        found = first[mask & low]
        for table in rest:
            mask >>= width
            found += table[mask & low]
        return found

    return select


def _subset_sums(items: Sequence, zero=0, add: Callable = operator.add) -> list:
    """``table[mask]`` adds ``items[i]`` to ``zero`` for each set bit ``i`` of ``mask``, in order."""
    table = [zero]
    for item in items:  # the subsets holding it follow those that do not
        table += [add(found, item) for found in table]
    return table


@dataclass(frozen=True, slots=True)
class BipartitionReport:
    clients: tuple[str, ...]
    a_mask: int  # bit i puts clients[i] on side A; side B is the rest
    min_cut: int
    required_rank: int

    @property
    def a(self) -> tuple[str, ...]:
        return subsets(self.clients)(self.a_mask)

    @property
    def b(self) -> tuple[str, ...]:
        return subsets(self.clients)(~self.a_mask)

    @property
    def ok(self) -> bool:
        return self.min_cut >= self.required_rank


class ReportTable(Sequence):
    """A feasibility table kept as columns, one entry per checked row:
    ``a_masks[i]``, ``cuts[i]`` and ``ranks[i]`` make row ``i``.  A row's
    report is built each time it is read, by int index or by iteration."""

    __slots__ = ("clients", "a_masks", "cuts", "ranks")

    def __init__(self, clients: tuple[str, ...], a_masks: Sequence[int], cuts: list[int], ranks: Sequence[int]) -> None:
        self.clients, self.a_masks, self.cuts, self.ranks = clients, a_masks, cuts, ranks

    def __len__(self) -> int:
        return len(self.cuts)

    def __getitem__(self, index: int) -> BipartitionReport:
        index = operator.index(index)  # a slice is a TypeError
        return BipartitionReport(self.clients, self.a_masks[index], self.cuts[index], self.ranks[index])

    def __iter__(self) -> Iterator[BipartitionReport]:
        return map(partial(BipartitionReport, self.clients), self.a_masks, self.cuts, self.ranks)


@dataclass(frozen=True, eq=False)
class FeasibilityVerdict:
    """The checked rows in order, ending at the first violation, of the
    exhaustive sweep or, when ``listed``, of an explicit bipartition list.
    Verdicts compare by identity; rows compare through ``list(v.table)`` and ``listed``."""

    table: ReportTable
    listed: bool = False

    @property
    def feasible(self) -> bool:
        return not self.table or self.table[-1].ok

    @property
    def witness(self) -> BipartitionReport | None:
        return None if self.feasible else self.table[-1]

    @property
    def note(self) -> str:
        return (
            f"necessary condition satisfied for every {'listed' if self.listed else 'client'} bipartition"
            if self.feasible
            else "min-cut below required entanglement rank"
        )


def check_clients(t: NetworkTopology, clients: Sequence[str]) -> None:
    """Raise ValueError naming the first id that is not a client or repeats."""
    known, seen = set(t.clients), set()
    for c in clients:
        if c not in known:
            raise ValueError(f"{c!r} is not a client node")
        if c in seen:
            raise ValueError(f"client {c!r} is listed twice")
        seen.add(c)


def feasibility(
    t: NetworkTopology,
    clients: Sequence[str],
    target: GraphState,
    bipartition_list: Iterable[int] | None = None,
) -> FeasibilityVerdict:
    """Check min-cut >= entanglement rank on every client bipartition.

    Client ``i`` holds target vertex ``i`` and sits on side A of every
    A-side mask with bit ``i`` set.  The sweep is exhaustive up to
    ``DEFAULT_MAX_CLIENTS`` clients (k clients give 2**(k-1) - 1 rows);
    beyond that an explicit mask list is required.  Bipartitions that
    differ only by swapping twin clients, or the two sides, share one min-cut.
    """
    clients = tuple(clients)
    n = len(clients)
    if n != target.n:
        raise ValueError(f"{n} clients vs target on {target.n} vertices")
    check_clients(t, clients)
    # Twin class j weighs (n + 1) ** j, so side A's weight sum spells its twin
    # count per class, which fixes the cut since side B is the rest.
    index, out, head, base = t._arcs
    twins: dict[frozenset, int] = {}  # neighbour->channel map -> class
    links = (frozenset((head[k], base[k]) for k in out[index[c]]) for c in clients)
    weights = [(n + 1) ** twins.setdefault(m, len(twins)) for m in links]
    if bipartition_list is None:
        if n > DEFAULT_MAX_CLIENTS:
            raise ValueError(
                f"{n} clients exceed the exhaustive sweep cap "
                f"{DEFAULT_MAX_CLIENTS}; pass an explicit bipartition list"
            )
        masks: Sequence[int] = range(1, (1 << n) - 1, 2)  # vertex 0 on side A, in increasing order
        half = (n + 1) // 2  # the masks count up in their high bits over their odd low bits
        low_keys, high_keys = _subset_sums(weights[:half])[1::2], _subset_sums(weights[half:])
        ranks: MutableSequence[int] = _sweep_ranks(target.rows)
        rows = zip(masks, (high + low for high in high_keys for low in low_keys), ranks)
    else:  # every mask is checked before the first cut runs
        masks = [require_bipartition(n, a_mask) for a_mask in bipartition_list]
        ranks = []  # appended as the rows are read, so no mask past the first violation is ranked
        keys = (sum(weights[i] for i in gf2.set_bits(a_mask)) for a_mask in masks)
        rows = ((a_mask, key, ranks.append(entanglement_rank(target, a_mask)) or ranks[-1]) for a_mask, key in zip(masks, keys))
    full = sum(weights)  # side B's key: complementary sides cut alike
    nodes, every = [index[c] for c in clients], (1 << n) - 1
    cap = base[:]  # one residual flow for the whole table
    cut_of: dict[int, int] = {}  # a twin key and its complement -> their cut
    cuts: list[int] = []
    for a_mask, key, rank in rows:
        cut = cut_of.get(key)
        if cut is None:
            sinks = {nodes[i] for i in gf2.set_bits(every ^ a_mask)}
            held = sum(cap[k] - base[k] for v in sinks for k in out[v])  # side B's net inflow
            cut = held + _augment(out, head, cap, [nodes[i] for i in gf2.set_bits(a_mask)], sinks)
            cut_of[key] = cut_of[full - key] = cut
        cuts.append(cut)
        if cut < rank:
            break
    del ranks[len(cuts) :]  # the sweep's ranks run on past a violation
    return FeasibilityVerdict(ReportTable(clients, masks[: len(cuts)], cuts, ranks), bipartition_list is not None)


def _sweep_ranks(adjacency: Sequence[int]) -> bytearray:
    """The entanglement rank of every A-side mask with bit 0 set, in increasing order, by the module docstring's kernel
    count: ``counts[b]`` counts the x in 1..n-1 whose o(x) misses vertex 0 at b == (x | o(x)) >> 1, then N(B) at B >> 1."""
    n = len(adjacency)
    size, half = 1 << (n - 1), n // 2
    counts = array("I", [0]) * size  # N(B) <= 2**19 fits a 32-bit field
    sets = [1 << v | adjacency[v] << n for v in range(1, n)]  # x | o(x) << n for x = {v}
    low: tuple[list, list] = ([], [])  # (x >> 1, o(x) >> 1) among vertices 1..half, by o(x)'s vertex-0 bit
    for s in _subset_sums(sets[:half], 0, operator.xor):
        low[s >> n & 1].append((s >> 1 & (size - 1), s >> n + 1))
    for s in _subset_sums(sets[half:], 0, operator.xor):
        x, o = s >> 1 & (size - 1), s >> n + 1
        for low_x, low_o in low[s >> n & 1]:  # o(x) misses vertex 0
            counts[low_x | x | (low_o ^ o)] += 1
    # packed in native order, field j + 2**i sits 8 * item << i bits above field j, or below it on a big-endian host
    item, order, shift = counts.itemsize, sys.byteorder, operator.lshift if sys.byteorder == "little" else operator.rshift
    total = int.from_bytes(counts, order)
    del counts  # only the packed copy is transformed
    for i in range(n - 1):  # add each field whose index has bit i clear to the one with it set
        total += shift(total & int.from_bytes((b"\xff" * (item << i) + bytes(item << i)) * (size >> i + 1), order), 8 * item << i)
    counts = memoryview(total.to_bytes(size * item, order)).cast("I")
    del total  # so the rank column is not stacked on it
    # row j is A = 2j + 1 against B >> 1 == b == size - 1 - j: rank = |B| - log2 N(B) = popcount(2b + 1) - N(B).bit_length()
    return bytearray(map(operator.sub, map(int.bit_count, range(2 * size - 1, 1, -2)), map(int.bit_length, reversed(counts))))


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
    relays = set(t.relays)
    for node in assignment:
        if node not in relays:
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
            raise ValueError(
                f"relay {relay!r} with {len(local)} channel halves has no assigned state"
            )
        if state.n != len(local):
            raise ValueError(
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
    return ContractionInstance(tuple(node_states), tuple(pairings), convention), held
