"""Graphs, graph-state stabilizer generators and entanglement ranks.

A graph state is kept purely as a symmetric adjacency bit-matrix (one
packed integer per vertex row); the stabilizer generators K_a = X_a
Z_{N(a)} are derived on demand.  Entanglement rank across a bipartition
{A, B} is the GF(2) rank of the off-diagonal adjacency block rows(A) x
cols(B), which for graph states equals the log2 rank of the reduced
density operator (the tests cross-check it against a dense state vector
and against the rank of a general stabilizer group).  It is the one
entanglement rank in the package: the feasibility sweep's cut rank.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from . import gf2
from .pauli import PauliOperator, StabilizerGroup, require_int


@dataclass(frozen=True)
class GraphState:
    n: int
    rows: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if len(self.rows) != self.n:
            raise ValueError("adjacency must have one row per vertex")
        mask = (1 << self.n) - 1
        for a, row in enumerate(self.rows):
            if row & ~mask:
                raise ValueError(f"row {a} extends beyond {self.n} vertices")
            if (row >> a) & 1:
                raise ValueError(f"self-loop at vertex {a}")
            # every edge a -> b needs b -> a; a missing b -> a shows up
            # from row b's side, so walking each row's edges checks both
            for b in gf2.set_bits(row):
                if not (self.rows[b] >> a) & 1:
                    raise ValueError("adjacency is not symmetric")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels must match the vertex count")

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], labels: Sequence[str] | None = None
    ) -> GraphState:
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows), tuple(labels) if labels is not None else None)

    @classmethod
    def path(cls, n: int) -> GraphState:
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> GraphState:
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, n: int) -> GraphState:
        """Center at vertex 0; the GHZ-class target in graph form."""
        return cls.from_edges(n, [(0, i) for i in range(1, n)])

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (self.rows[u] >> v) & 1
        ]

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def is_connected(self) -> bool:
        seen = 1
        frontier = [0]
        while frontier:
            a = frontier.pop()
            fresh = self.rows[a] & ~seen
            seen |= fresh
            frontier.extend(gf2.set_bits(fresh))
        return seen == (1 << self.n) - 1

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges()]})

    @classmethod
    def from_json(cls, text: str) -> GraphState:
        """A graph file: ``n`` plus an ``edges`` list or a ``bits`` string."""
        data = json.loads(text)
        n = require_int(data["n"], "n")
        if "bits" in data:
            return cls.from_bitstring(n, data["bits"])
        edges = []
        for k, edge in enumerate(data["edges"]):
            if len(edge) != 2:
                raise ValueError(f"edges[{k}] has {len(edge)} entries, expected 2")
            edges.append(tuple(require_int(v, f"edges[{k}][{s}]") for s, v in enumerate(edge)))
        return cls.from_edges(n, edges)

    def to_bitstring(self) -> str:
        """Row-major upper triangle: bit for (u, v) with u < v."""
        return "".join(
            "1" if self.has_edge(u, v) else "0"
            for u in range(self.n)
            for v in range(u + 1, self.n)
        )

    @classmethod
    def from_bitstring(cls, n: int, bits: str) -> GraphState:
        expected = n * (n - 1) // 2
        if len(bits) != expected:
            raise ValueError(f"need {expected} bits for {n} vertices, got {len(bits)}")
        it = iter(bits)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                c = next(it)
                if c == "1":
                    edges.append((u, v))
                elif c != "0":
                    raise ValueError(f"invalid bit {c!r}")
        return cls.from_edges(n, edges)


@dataclass(frozen=True)
class Bipartition:
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(sorted(self.a)))
        object.__setattr__(self, "b", tuple(sorted(self.b)))
        if not self.a or not self.b:
            raise ValueError("both sides must be nonempty")
        if len(set(self.a) | set(self.b)) < len(self.a) + len(self.b):
            raise ValueError("sides overlap or repeat a vertex")

    @classmethod
    def split(cls, n: int, a_side: Iterable[int]) -> Bipartition:
        a = set(a_side)
        return cls(tuple(a), tuple(q for q in range(n) if q not in a))

    def covers(self, n: int) -> bool:
        return set(self.a) | set(self.b) == set(range(n))


def bipartitions(n: int) -> Iterator[Bipartition]:
    """All bipartitions of range(n), side A always containing vertex 0.

    Generated lazily, in increasing order of the A-side bit mask.
    """
    full = (1 << n) - 1
    for a_mask in range(1, full, 2):
        yield Bipartition(tuple(gf2.set_bits(a_mask)), tuple(gf2.set_bits(full ^ a_mask)))


def stabilizer_generators(g: GraphState) -> StabilizerGroup:
    """K_a = X on a, Z on every neighbor of a, sign +."""
    gens = [PauliOperator(g.n, 1 << a, g.rows[a], 0) for a in range(g.n)]
    return StabilizerGroup(g.n, tuple(gens))


def entanglement_rank(g: GraphState, part: Bipartition) -> int:
    """GF(2) rank of the adjacency block between the two sides."""
    if not part.covers(g.n):
        raise ValueError("bipartition does not cover the vertex set")
    b_mask = sum(1 << v for v in part.b)
    return gf2.rank_packed(g.rows[u] & b_mask for u in part.a)
