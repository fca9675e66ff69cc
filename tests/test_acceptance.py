"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``)."""

import random
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    commute,
    exhaustive_min_cut,
    groups_equal,
    member,
    pack_row,
    random_connected_topology,
    random_contraction_instance,
)
import dense_oracle as oracle
from stabnet import gf2
from stabnet.codes import (
    StabilizerCode,
    compose,
    distance,
    five_qubit_code,
    singleton_max_distance,
    storage_bound,
)
from stabnet.contraction import (
    BellConvention,
    ContractionInstance,
    Status,
    contract,
)
from stabnet.graphstate import (
    GraphState,
    entanglement_rank,
    stabilizer_generators,
)
from stabnet.metrics import (
    NoiseSpec,
    RegularTreeSpec,
    Scheme,
    channel_count,
    latency,
    memory_qubits,
    success_probability,
)
from stabnet.network import (
    NetworkTopology,
    feasibility,
    min_cut,
    repetition_state,
    to_contraction,
)
from stabnet.pauli import (
    PauliOperator,
    StabilizerGroup,
    parse_pauli,
)

FIVE_QUBIT = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
NINE_QUBIT = [
    "XZZXIXZZX",
    "XIXXZZXZZ",
    "IXZZXIIXZ",
    "ZXIIXZZXI",
    "ZYYXZZIII",
    "YXXYXXIII",
]
TRIANGLE_PAIRINGS = ((3, 8), (9, 14), (13, 4))
H_MATRIX = [
    [1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0],
    [1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0],
    [0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0],
]


@contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL "
              f"after {time.monotonic() - start:.2f}s")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_1_five_qubit_fixture():
    with criterion(1, "five-qubit fixture", budget_seconds=1.0):
        gens = [parse_pauli(s) for s in FIVE_QUBIT]
        for a, b in combinations(gens, 2):
            assert commute(a, b)
        rows = [g.symplectic_row() for g in gens]
        assert gf2.rank_packed(rows) == 4
        assert distance(five_qubit_code(), 5) == 3


def test_criterion_2_nine_qubit_composition():
    with criterion(2, "triangle composition reproduces the nine-qubit code",
                   budget_seconds=10.0):
        listed = StabilizerGroup.from_strings(NINE_QUBIT)
        reports = {}
        for convention in BellConvention:
            comp = compose([five_qubit_code()] * 3, TRIANGLE_PAIRINGS, convention)
            assert (comp.n, comp.k) == (9, 3)
            assert len(comp.group.generators) == 6
            signs = []
            for s in NINE_QUBIT:
                element = member(comp.group, parse_pauli(s))
                signs.append(
                    None if element is None else ("+" if element.phase == 0 else "-")
                )
            reports[convention.value] = signs
            if convention is BellConvention.GRAPH_EDGE:
                # this convention reproduces the listing: every string is a
                # member, with positive sign
                assert all(s == "+" for s in signs)
                assert groups_equal(comp.group, listed)
                assert gf2.rank_packed(g.symplectic_row() for g in comp.group.generators) == 6
                assert [g.symplectic_row() for g in listed.generators] == [pack_row(r) for r in H_MATRIX]
                assert distance(comp, 4) == 3
                assert singleton_max_distance(9, 3) == 4
                assert storage_bound(9, 3, 5, 1, 3) == 4
        print(f"[acceptance]   convention report: {reports}")


def test_criterion_3_single_qubit_error_detection():
    with criterion(3, "all 27 single-qubit errors detected"):
        comp = compose([five_qubit_code()] * 3, TRIANGLE_PAIRINGS,
                       BellConvention.GRAPH_EDGE)
        checked = 0
        for q in range(9):
            for letter in "XYZ":
                err = parse_pauli("".join(letter if i == q else "I" for i in range(9)))
                assert any(not commute(err, g) for g in comp.group.generators)
                checked += 1
        assert checked == 27


def test_criterion_4_oracle_equivalence():
    with criterion(4, "stabilizer engine matches dense contraction"):
        # fixed vector: entanglement swapping
        epr = StabilizerGroup.from_strings(["XX", "ZZ"])
        swap = ContractionInstance((epr, epr), ((0, 2),))
        res = contract(swap)
        assert res.status is Status.PURE and groups_equal(res.residual, epr)
        dense = oracle.dense_contract(
            [oracle.bell_vector("plus-pair")] * 2, swap.pairings
        )
        sv = oracle.stabilizer_state_vector(res.residual)
        assert abs(dense.overlap_magnitude(sv) - 1) <= 1e-9

        # fixed vector: two GHZ states glued through one Bell pair
        ghz3 = repetition_state(3)
        ghz_inst = ContractionInstance((ghz3, ghz3), ((2, 3),))
        res = contract(ghz_inst)
        assert res.status is Status.PURE
        assert groups_equal(res.residual, repetition_state(4))
        dense = oracle.dense_contract(
            [oracle.stabilizer_state_vector(ghz3)] * 2, ghz_inst.pairings
        )
        target = np.zeros(16, dtype=complex)
        target[0] = target[15] = 1 / np.sqrt(2)
        assert abs(dense.overlap_magnitude(oracle.DenseState(4, target)) - 1) <= 1e-9

        rng = random.Random(20240)
        statuses = {Status.PURE: 0, Status.MIXED: 0, Status.ANNIHILATED: 0}
        for _ in range(100):
            inst = random_contraction_instance(rng, max_qubits=12)
            result = contract(inst)
            statuses[result.status] += 1
            dense = oracle.dense_contract(
                [oracle.stabilizer_state_vector(g) for g in inst.node_states],
                inst.pairings,
                inst.convention.value,
            )
            if result.status is Status.ANNIHILATED:
                assert dense.norm() <= 1e-9
            else:
                assert dense.norm() > 1e-9
                assert result.status is Status.PURE
                if result.residual.n:
                    sv = oracle.stabilizer_state_vector(result.residual)
                    assert abs(dense.overlap_magnitude(sv) - 1) <= 1e-9
        assert statuses[Status.PURE] > 0 and statuses[Status.ANNIHILATED] > 0
        print(f"[acceptance]   instance statuses: "
              f"{ {s.value: c for s, c in statuses.items()} }")


def atlas_graphs_by_size():
    pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    by_size = {}
    for graph in graph_atlas_g()[1:]:
        n = graph.number_of_nodes()
        if 1 <= n <= 6:
            by_size.setdefault(n, []).append(graph)
    return by_size


def test_criterion_5_rank_formula_on_all_small_graphs():
    with criterion(5, "adjacency-block rank equals dense reduced rank",
                   budget_seconds=30.0):
        import networkx

        by_size = atlas_graphs_by_size()
        connected = {
            n: [g for g in graphs if networkx.is_connected(g)]
            for n, graphs in by_size.items()
        }
        assert len(connected[6]) == 112
        checked = 0
        for n, graphs in sorted(connected.items()):
            for nx_graph in graphs:
                g = GraphState.from_edges(n, list(nx_graph.edges()))
                v = oracle.graph_state_vector(g)
                for part in range(1, (1 << n) - 1, 2):
                    rank = entanglement_rank(g, part)
                    assert 2**rank == oracle.reduced_rank(v, list(gf2.set_bits(part)))
                    checked += 1
        print(f"[acceptance]   graphs: {sum(len(g) for g in connected.values())}, "
              f"bipartition checks: {checked}")


def test_criterion_6_star_and_ghz_guarantees():
    with criterion(6, "star distributes anything; any connected network "
                      "distributes GHZ"):
        by_size = atlas_graphs_by_size()
        # star topologies, 4..6 leaves, every target graph on the leaves
        for leaves in (4, 5, 6):
            topo = NetworkTopology(
                nodes=(("hub", "relay"),)
                + tuple((f"c{i}", "client") for i in range(leaves)),
                edges=tuple(("hub", f"c{i}", 1) for i in range(leaves)),
            )
            clients = [f"c{i}" for i in range(leaves)]
            for nx_graph in by_size[leaves]:
                target = GraphState.from_edges(leaves, list(nx_graph.edges()))
                assert feasibility(topo, clients, target).feasible

        # GHZ on random connected topologies, plus the repetition strategy
        # actually achieving it
        rng = random.Random(777)
        for _ in range(200):
            topo = random_connected_topology(rng, max_nodes=10)
            assert len(topo.hops_from(topo.nodes[0][0])) == len(topo.nodes)
            clients = list(topo.clients)
            target = GraphState.star(len(clients))
            assert feasibility(topo, clients, target).feasible
            assignment = {
                r: repetition_state(sum(c for u, v, c in topo.edges if r in (u, v)))
                for r in topo.relays
            }
            inst, _held = to_contraction(topo, assignment)
            result = contract(inst)
            assert result.status is Status.PURE
            for part in range(1, (1 << len(result.boundary)) - 1, 2):
                assert oracle.group_entanglement_rank(result.residual, list(gf2.set_bits(part))) == 1


def test_criterion_7_min_cut_exactness():
    with criterion(7, "max-flow equals exhaustive cut enumeration"):
        rng = random.Random(4242)
        for _ in range(200):
            topo = random_connected_topology(rng, max_nodes=12)
            clients = list(topo.clients)
            size_a = rng.randint(1, len(clients) - 1)
            a = set(rng.sample(clients, size_a))
            b = set(clients) - a
            assert min_cut(topo, a, b) == exhaustive_min_cut(topo, a, b)


def test_criterion_8_metrics_properties():
    with criterion(8, "latency, memory, and success-probability shapes"):
        for n in range(2, 7):
            for p in range(2, 7):
                spec = RegularTreeSpec(n, p)
                assert latency(spec, Scheme.LQC) == p
                assert latency(spec, Scheme.EPR) == n**p
                assert latency(spec, Scheme.LQC) < latency(spec, Scheme.EPR)
                assert memory_qubits(spec, Scheme.LQC) == n + 1
                assert memory_qubits(spec, Scheme.EPR) == n**p
                assert memory_qubits(spec, Scheme.LQC) < memory_qubits(spec, Scheme.EPR)
        tree = RegularTreeSpec(3, 2)
        lqc, epr = channel_count(tree, Scheme.LQC), channel_count(tree, Scheme.EPR)
        assert (lqc, epr) == (12, 18)
        for p_fail in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            noise = NoiseSpec(p_fail)
            assert success_probability(noise, lqc) > success_probability(noise, epr)


def test_criterion_9_storage_bound_property():
    with criterion(9, "composed codes never exceed the storage bound"):
        pool = [
            (5, 1, 3, FIVE_QUBIT),
            (4, 2, 2, ["XXXX", "ZZZZ"]),
            (3, 1, 1, ["ZZI", "IZZ"]),
        ]
        rng = random.Random(99)
        checked = 0
        attempts = 0
        while checked < 50 and attempts < 600:
            attempts += 1
            l, k, d, strings = rng.choice(pool)
            m = rng.randint(2, 3)
            code = StabilizerCode(StabilizerGroup.from_strings(strings))
            pairings = []
            used = set()
            feasible_draw = True
            for i in range(m if m > 2 else 1):
                j = (i + 1) % m
                free_i = [q for q in range(i * l, (i + 1) * l) if q not in used]
                free_j = [q for q in range(j * l, (j + 1) * l) if q not in used]
                if not free_i or not free_j:
                    feasible_draw = False
                    break
                a, b = rng.choice(free_i), rng.choice(free_j)
                used.update((a, b))
                pairings.append((a, b))
            if not feasible_draw:
                continue
            boundary = m * l - 2 * len(pairings)
            if boundary < k * m or boundary < 1:
                continue
            try:
                comp = compose([code] * m, pairings)
            except Exception:
                continue
            if comp.k != k * m:
                continue
            bound = storage_bound(boundary, m, l, k, d)
            measured = distance(comp, min(bound, comp.n))
            assert measured is not None, "distance exceeded the storage bound"
            assert measured <= bound
            checked += 1
        assert checked == 50
