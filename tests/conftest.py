"""Shared test helpers: randomized instance generators, exhaustive
oracles, and dense-state comparison utilities."""

from __future__ import annotations

import operator
import random
from collections.abc import Iterable
from itertools import combinations

import numpy as np
import pytest

import dense_oracle as oracle
from stabnet import gf2
from stabnet.contraction import (
    BellConvention,
    ContractionInstance,
    Status,
    contract,
)
from stabnet.graphstate import GraphState, stabilizer_generators
from stabnet.network import NetworkTopology
from stabnet.pauli import PauliOperator, StabilizerGroup, product, times


def pack_row(bits: Iterable[int]) -> int:
    """Pack a 0/1 sequence into an integer (bit i = element i)."""
    row = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit at index {i} is {b!r}, expected 0 or 1")
        row |= b << i
    return row


def commute(p: PauliOperator, q: PauliOperator) -> bool:
    """Whether two Paulis on the same qubits commute: an even symplectic product."""
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


def relation_masks(rows: list[int]) -> list[int]:
    """``gf2.left_kernel`` with each row's own bit as its witness, combined by XOR."""
    return gf2.left_kernel(rows, [1 << i for i in range(len(rows))], operator.xor)


def corrupt_once(q: int):
    """The combine step ``contract`` passes to the elimination, except
    that its first product has its X bit on qubit ``q`` flipped."""
    calls = []

    def combine(a, b):
        x, z, c, tag = times(a, b)
        calls.append(None)
        return (x ^ 1 << q if len(calls) == 1 else x), z, c, tag

    return combine


def random_graph(rng: random.Random, n: int, edge_prob: float = 0.5) -> GraphState:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob
    ]
    return GraphState.from_edges(n, edges)


def random_contraction_instance(
    rng: random.Random, max_qubits: int = 12
) -> ContractionInstance:
    """Graph-state nodes with random disjoint pairings; sometimes includes
    a deliberate plus-pair/graph-edge clash so annihilation shows up."""
    node_sizes = []
    total = 0
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 4)
        if total + size > max_qubits:
            break
        node_sizes.append(size)
        total += size
    if not node_sizes:
        node_sizes = [2]
        total = 2
    nodes = tuple(
        stabilizer_generators(random_graph(rng, size)) for size in node_sizes
    )
    qubits = list(range(total))
    rng.shuffle(qubits)
    n_pairs = rng.randint(0, total // 2)
    pairings = tuple(
        (qubits[2 * k], qubits[2 * k + 1]) for k in range(n_pairs)
    )
    convention = rng.choice(list(BellConvention))
    return ContractionInstance(nodes, pairings, convention)


def node_state_vectors(inst: ContractionInstance) -> list[oracle.DenseState]:
    return [oracle.stabilizer_state_vector(g) for g in inst.node_states]


def check_against_dense(inst: ContractionInstance, tol: float = 1e-9) -> None:
    """The stabilizer-engine result must agree with dense Bell projection:
    zero vector iff ANNIHILATED, otherwise (when PURE) unit fidelity and a
    squared norm of exactly 2**log_norm_exponent."""
    result = contract(inst)
    dense = oracle.dense_contract(
        node_state_vectors(inst), inst.pairings, inst.convention.value
    )
    if result.status is Status.ANNIHILATED:
        assert dense.norm() <= tol, "engine annihilated but dense vector is nonzero"
        return
    assert dense.norm() > tol, "dense vector vanished but engine did not annihilate"
    if result.status is Status.PURE:
        expected_sq = 2.0**result.log_norm_exponent
        assert abs(dense.norm() ** 2 - expected_sq) <= tol * max(1.0, expected_sq)
        if result.residual.n == 0:
            return
        sv = oracle.stabilizer_state_vector(result.residual)
        assert abs(dense.overlap_magnitude(sv) - 1) <= tol


def exhaustive_min_cut(t: NetworkTopology, a: set[str], b: set[str]) -> int:
    """Try every node partition separating a from b and take the cheapest."""
    rest = [i for i in t.node_ids if i not in a and i not in b]
    best = None
    for mask in range(1 << len(rest)):
        side_a = set(a) | {rest[i] for i in range(len(rest)) if (mask >> i) & 1}
        value = sum(
            c for u, v, c in t.edges if (u in side_a) != (v in side_a)
        )
        best = value if best is None else min(best, value)
    return best


def random_connected_topology(
    rng: random.Random, max_nodes: int = 10, min_clients: int = 2, max_clients: int = 4
) -> NetworkTopology:
    """Random connected relay core with leaf clients hanging off it."""
    n_clients = rng.randint(min_clients, max_clients)
    n_relays = rng.randint(1, max_nodes - n_clients)
    relays = [f"r{i}" for i in range(n_relays)]
    nodes = [(r, "relay") for r in relays]
    edges = []
    for i in range(1, n_relays):
        edges.append((relays[i], relays[rng.randrange(i)], rng.randint(1, 2)))
    extra = rng.randint(0, n_relays)
    for _ in range(extra):
        u, v = rng.sample(relays, 2) if n_relays > 1 else (None, None)
        if u is not None and not any({u, v} == {a, b} for a, b, _ in edges):
            edges.append((u, v, rng.randint(1, 2)))
    for i in range(n_clients):
        nodes.append((f"c{i}", "client"))
        edges.append((f"c{i}", rng.choice(relays), 1))
    return NetworkTopology(tuple(nodes), tuple(edges))


def member(group: StabilizerGroup, p: PauliOperator) -> PauliOperator | None:
    """The element of ``group`` with the x/z pattern of ``p``, carrying its
    own sign (which may differ from ``p``'s); None if no element has it."""
    mask = group.eliminator().solve(p.symplectic_row())
    if mask is None:
        return None
    return product((group.generators[i] for i in gf2.set_bits(mask)), group.n)


def groups_equal(a: StabilizerGroup, b: StabilizerGroup) -> bool:
    """Same group: equal rank and every generator of each inside the other,
    sign included."""
    if a.n != b.n or len(a) != len(b):
        return False
    return all(member(b, g) == g for g in a.generators) and all(
        member(a, g) == g for g in b.generators
    )


def conjugated(group: StabilizerGroup, qubit: int, gate: str) -> StabilizerGroup:
    """Every generator conjugated by H or S on ``qubit``, signs exact:
    H maps Y to -Y, S maps X to Y and Y to -X."""
    gens = []
    for g in group.generators:
        xb, zb = (g.x >> qubit) & 1, (g.z >> qubit) & 1
        x, z = g.x, g.z
        if gate == "H":
            x ^= (xb ^ zb) << qubit
            z ^= (xb ^ zb) << qubit
        else:
            z ^= xb << qubit
        gens.append(PauliOperator(g.n, x, z, (g.phase + 2 * (xb & zb)) % 4))
    return StabilizerGroup(group.n, tuple(gens))


def permuted(group: StabilizerGroup, perm: list[int]) -> StabilizerGroup:
    """Qubit q of every generator moved to ``perm[q]``."""
    def move(bits):
        return sum(1 << perm[q] for q in gf2.set_bits(bits))

    gens = (PauliOperator(g.n, move(g.x), move(g.z), g.phase) for g in group.generators)
    return StabilizerGroup(group.n, tuple(gens))


def rank_spectrum(group: StabilizerGroup) -> dict[tuple[int, ...], int]:
    """Entanglement rank for every subset choice containing qubit 0."""
    spectrum = {}
    for size in range(1, group.n):
        for subset in combinations(range(group.n), size):
            if 0 in subset:
                spectrum[subset] = oracle.group_entanglement_rank(group, subset)
    return spectrum


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0DE)


@pytest.fixture
def np_rng() -> np.random.Generator:
    return np.random.default_rng(0xC0DE)
