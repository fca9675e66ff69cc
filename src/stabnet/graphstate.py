"""Graphs, graph-state stabilizer generators and entanglement ranks.

A graph state is kept purely as a symmetric adjacency bit-matrix (one
packed integer per vertex row); the stabilizer generators K_a = X_a
Z_{N(a)} are derived on demand.  A bipartition {A, B} is its A-side bit
mask (bit i set puts vertex i on A; B is the rest).  Its entanglement
rank is the GF(2) rank of the adjacency block rows(A) x cols(B), which
for graph states equals the log2 rank of the reduced density operator
(the tests cross-check it against a dense state vector and a general
stabilizer group's rank).  `entanglement_rank` computes one cut's rank
from scratch, as the feasibility check does for an explicit mask list;
the exhaustive sweep reads every cut's rank from one table of kernel counts.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import combinations

from . import gf2
from .pauli import PauliOperator, StabilizerGroup, require_int, require_key, require_type


@dataclass(frozen=True)
class GraphState:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if len(self.rows) != self.n:
            raise ValueError("adjacency must have one row per vertex")
        for a, row in enumerate(self.rows):
            if row >> self.n:  # a negative row shifts to -1
                raise ValueError(f"row {a} extends beyond {self.n} vertices")
            if (row >> a) & 1:
                raise ValueError(f"self-loop at vertex {a}")
            # every edge a -> b needs b -> a; a missing b -> a shows up
            # from row b's side, so walking each row's edges checks both
            for b in gf2.set_bits(row):
                if not (self.rows[b] >> a) & 1:
                    raise ValueError("adjacency is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> GraphState:
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def cycle(cls, n: int) -> GraphState:
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, n: int) -> GraphState:
        """Center at vertex 0; the GHZ-class target in graph form."""
        return cls.from_edges(n, [(0, i) for i in range(1, n)])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in combinations(range(self.n), 2) if (self.rows[u] >> v) & 1]

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
    def from_json(cls, text: str, check_n: Callable[[int], object] | None = None) -> GraphState:
        """A graph file: ``n`` plus an ``edges`` list or a ``bits`` string.

        ``check_n`` sees ``n`` as soon as it is read, before any row is
        allocated, and raises to refuse the file."""
        data = require_type(json.loads(text), dict, "the top-level value", "a JSON object")
        n = require_int(require_key(data, "n"), "n")
        if check_n is not None:
            check_n(n)
        if "bits" in data:
            return cls.from_bitstring(n, require_type(data["bits"], str, "bits", "a string of 0s and 1s"))
        edges = []
        for k, edge in enumerate(require_type(require_key(data, "edges"), list, "edges", "a list of vertex pairs")):
            if len(require_type(edge, list, f"edges[{k}]", "a vertex pair")) != 2:
                raise ValueError(f"edges[{k}] has {len(edge)} entries, expected 2")
            edges.append(tuple(require_int(v, f"edges[{k}][{s}]") for s, v in enumerate(edge)))
        return cls.from_edges(n, edges)

    def to_bitstring(self) -> str:
        """Row-major upper triangle: bit for (u, v) with u < v."""
        return "".join(str((self.rows[u] >> v) & 1) for u, v in combinations(range(self.n), 2))

    @classmethod
    def from_bitstring(cls, n: int, bits: str) -> GraphState:
        expected = n * (n - 1) // 2
        if len(bits) != expected:
            raise ValueError(f"need {expected} bits for {n} vertices, got {len(bits)}")
        for c in bits:
            if c not in "01":
                raise ValueError(f"invalid bit {c!r}")
        return cls.from_edges(n, [e for e, c in zip(combinations(range(n), 2), bits) if c == "1"])


def stabilizer_generators(g: GraphState) -> StabilizerGroup:
    """K_a = X on a, Z on every neighbor of a, sign +."""
    gens = [PauliOperator(g.n, 1 << a, g.rows[a], 0) for a in range(g.n)]
    return StabilizerGroup(g.n, tuple(gens))


def require_bipartition(n: int, a_mask: int) -> int:
    """``a_mask`` if it puts some but not all of range(n) on side A, else ValueError."""
    if a_mask >> n or a_mask in (0, (1 << n) - 1):  # a negative mask shifts to -1
        raise ValueError(f"A-side mask {a_mask:#b} must put some but not all of vertices 0..{n - 1} on side A")
    return a_mask


def entanglement_rank(g: GraphState, a_mask: int) -> int:
    """GF(2) rank of the adjacency block between side A (the set bits of
    ``a_mask``) and side B (every other vertex)."""
    b_mask = require_bipartition(g.n, a_mask) ^ ((1 << g.n) - 1)
    return gf2.rank_packed(g.rows[u] & b_mask for u in gf2.set_bits(a_mask))
