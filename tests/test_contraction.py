import dataclasses
import functools
import random
import re
import tracemalloc
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest

import reference_contraction
from conftest import (
    check_against_dense,
    commute,
    conjugated,
    corrupt_once,
    groups_equal,
    permuted,
    random_contraction_instance,
    random_graph,
)
import dense_oracle as oracle
from stabnet.contraction import (
    BellConvention,
    ContractionInstance,
    Status,
    bell_group,
    contract,
)
from stabnet.graphstate import GraphState, stabilizer_generators
from stabnet.metrics import RegularTreeSpec
from stabnet.network import NetworkTopology, repetition_state, to_contraction
from stabnet.pauli import PauliOperator, StabilizerGroup, parse_pauli, product

EPR = StabilizerGroup.from_strings(["XX", "ZZ"])
FIVE = StabilizerGroup.from_strings(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])
FOUR22 = StabilizerGroup.from_strings(["XXXX", "ZZZZ"])
TRIANGLE_PAIRINGS = ((3, 8), (9, 14), (13, 4))
NINE_QUBIT = [
    "XZZXIXZZX",
    "XIXXZZXZZ",
    "IXZZXIIXZ",
    "ZXIIXZZXI",
    "ZYYXZZIII",
    "YXXYXXIII",
]


class TestBellConventions:
    def test_plus_pair_group(self):
        elements = sorted(e.to_string() for e in oracle.group_elements(bell_group(BellConvention.PLUS_PAIR)))
        assert elements == ["+II", "+XX", "+ZZ", "-YY"]

    def test_graph_edge_group(self):
        elements = sorted(e.to_string() for e in oracle.group_elements(bell_group(BellConvention.GRAPH_EDGE)))
        assert elements == ["+II", "+XZ", "+YY", "+ZX"]

    def test_groups_fix_their_vectors(self):
        for conv in BellConvention:
            v = oracle.bell_vector(conv)
            for e in oracle.group_elements(bell_group(conv)):
                assert np.allclose(oracle.apply_pauli(v, e).amplitudes, v.amplitudes)

    # (x1, z1, x2, z2) per generator on the paired qubits: the conventions'
    # bits as they were spelled before they became letter pairs
    BIT_PATTERNS = {
        BellConvention.PLUS_PAIR: ((1, 0, 1, 0), (0, 1, 0, 1)),
        BellConvention.GRAPH_EDGE: ((1, 0, 0, 1), (0, 1, 1, 0)),
    }

    @pytest.mark.parametrize("i, j, n", [(0, 1, 2), (1, 0, 2), (3, 7, 9), (8, 2, 9)])
    def test_generators_keep_their_bit_patterns(self, i, j, n):
        # the group on qubits (0, 1), and the reference's placement at (i, j),
        # which every contract-vs-reference comparison holds contract to
        for conv, patterns in self.BIT_PATTERNS.items():
            assert list(bell_group(conv).generators) == [
                PauliOperator(2, x1 | x2 << 1, z1 | z2 << 1) for x1, z1, x2, z2 in patterns
            ]
            expected = [
                PauliOperator(n, x1 << i | x2 << j, z1 << i | z2 << j) for x1, z1, x2, z2 in patterns
            ]
            assert reference_contraction.bell_generators(i, j, n, conv) == expected

    def test_each_group_is_built_once(self):
        for conv in BellConvention:
            assert bell_group(conv) is bell_group(conv)


def _set_tiling_error(sizes, offsets):
    """The message of the set-based block check that the sorted one
    replaced: the first overlap, else a gap or a stray block, else None."""
    covered = set()
    for size, off in zip(sizes, offsets):
        block = set(range(off, off + size))
        if covered & block:
            return "node qubit blocks overlap"
        covered |= block
    if covered != set(range(max(off + size for size, off in zip(sizes, offsets)))):
        return "node blocks must cover qubits 0..total-1 exactly"
    return None


class TestInstanceValidation:
    def test_overlapping_pairings_rejected(self):
        with pytest.raises(ValueError):
            ContractionInstance((EPR, EPR), ((0, 2), (2, 3)))

    def test_pairing_out_of_range(self):
        with pytest.raises(ValueError):
            ContractionInstance((EPR,), ((0, 5),))

    def test_blocks_must_tile(self):
        with pytest.raises(ValueError):
            ContractionInstance((EPR, EPR), (), offsets=(0, 1))

    def test_tiling_matches_the_set_check(self, rng):
        groups = {k: StabilizerGroup(k, ()) for k in range(4)}
        outcomes = Counter()
        for _ in range(600):
            sizes = [rng.randrange(4) for _ in range(rng.randint(1, 5))]
            offsets = list(accumulate(sizes[:-1], initial=0))
            for _ in range(rng.randrange(3)):  # a shifted, overlapping or negative block
                offsets[rng.randrange(len(offsets))] += rng.randint(-3, 3)
            expected = _set_tiling_error(sizes, offsets)
            outcomes[expected] += 1
            nodes = tuple(groups[k] for k in sizes)
            if expected is None:
                ContractionInstance(nodes, (), offsets=offsets)
            else:
                with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                    ContractionInstance(nodes, (), offsets=offsets)
        assert min(outcomes.values()) >= 60, outcomes

    def test_far_offset_checks_in_small_memory(self):
        # the set-based check built a set of every qubit below the offset:
        # 67 MB at 10**6
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^node blocks must cover qubits 0..total-1 exactly$"):
                ContractionInstance((EPR,), (), offsets=(10**6,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_json_round_trip(self):
        inst = ContractionInstance((EPR, EPR), ((0, 2),), BellConvention.GRAPH_EDGE)
        again = ContractionInstance.from_json(inst.to_json())
        assert again.pairings == inst.pairings
        assert again.convention is BellConvention.GRAPH_EDGE
        assert [g.to_strings() for g in again.node_states] == [
            g.to_strings() for g in inst.node_states
        ]

    @pytest.mark.parametrize(
        "pairings, offsets, field",
        [
            (((0.5, 2),), (0, 2), "pairings[0][0]"),
            (((0, True),), (0, 2), "pairings[0][1]"),
            (((1, 3), ("0", 2)), (0, 2), "pairings[1][0]"),
            (((0, 2),), (0, 2.0), "qubit_offsets[1]"),
            (((0, 2),), (False, 2), "qubit_offsets[0]"),
        ],
    )
    def test_non_integer_entries_rejected(self, pairings, offsets, field):
        # int() used to coerce these silently: 0.5 -> 0, True -> 1
        with pytest.raises(ValueError, match=re.escape(field)):
            ContractionInstance((EPR, EPR), pairings, offsets=offsets)

    @pytest.mark.parametrize(
        "pairings, offsets, convention, message",
        [
            # every entry's type is checked before any pair's qubits
            (((0.5, 2), 3), (0, 2), "plus-pair", "pairings[1] must be a qubit pair, got 3"),
            (((0, True), "02"), (0, 2), "plus-pair", "pairings[1] must be a qubit pair, got '02'"),
            # a pair's length before a later pair's qubits or the offsets
            (((0, 2, 3), (0.5, 1)), (0, 2), "plus-pair", "pairings[0] has 3 entries, expected 2"),
            (((0, 2, 3),), (0, 2.0), "plus-pair", "pairings[0] has 3 entries, expected 2"),
            # the blocks before the pairs that address them
            (((0, 9),), (0, 1), "plus-pair", "node qubit blocks overlap"),
            # the offsets before the convention
            (((0, 2),), (0, 2.0), "bogus", "qubit_offsets[1] must be an integer, got 2.0"),
        ],
    )
    def test_first_of_several_faults_is_refused(self, pairings, offsets, convention, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ContractionInstance((EPR, EPR), pairings, convention, offsets)

    def test_pairing_must_be_a_pair(self):
        with pytest.raises(ValueError, match=re.escape("pairings[0]")):
            ContractionInstance((EPR, EPR), ((0, 2, 3),))

    def test_json_defaults(self):
        # offsets default to cumulative blocks, convention to plus-pair
        inst = ContractionInstance.from_json(
            '{"node_states": [["+XX", "+ZZ"], ["+X"]], "pairings": [[1, 2]]}'
        )
        assert inst.offsets == (0, 2)
        assert inst.convention is BellConvention.PLUS_PAIR

    def test_layout_is_derived_once(self):
        # validation computes the qubit count and the paired qubits and
        # stores the layout; contract reads it instead of rebuilding it
        inst = ContractionInstance((EPR, EPR), ((0, 2),))
        assert vars(inst)["total_qubits"] == 4
        boundary = contract(inst).boundary
        assert vars(inst)["boundary"] is boundary is inst.boundary


class TestContract:
    def test_entanglement_swapping(self):
        inst = ContractionInstance((EPR, EPR), ((0, 2),))
        res = contract(inst)
        assert res.status is Status.PURE
        assert res.boundary == (1, 3)
        assert groups_equal(res.residual, EPR)
        assert res.log_norm_exponent == -2  # projected norm^2 = 1/4
        check_against_dense(inst)

    def test_ghz_pair_contracts_to_ghz4(self):
        ghz3 = repetition_state(3)
        inst = ContractionInstance((ghz3, ghz3), ((2, 3),))
        res = contract(inst)
        assert res.status is Status.PURE
        assert groups_equal(res.residual, repetition_state(4))
        dense = oracle.dense_contract(
            [oracle.stabilizer_state_vector(ghz3)] * 2, [(2, 3)]
        )
        target = np.zeros(16, dtype=complex)
        target[0] = target[15] = 1 / np.sqrt(2)
        assert abs(dense.overlap_magnitude(oracle.DenseState(4, target)) - 1) < 1e-12

    def test_triangle_of_five_qubit_codes(self):
        inst = ContractionInstance(
            (FIVE, FIVE, FIVE), TRIANGLE_PAIRINGS, BellConvention.GRAPH_EDGE
        )
        res = contract(inst)
        assert res.status is Status.MIXED  # code spaces, not states
        assert len(res.residual) == 6
        listed = StabilizerGroup.from_strings(NINE_QUBIT)
        assert groups_equal(res.residual, listed)

    def test_empty_pairing_returns_input(self):
        group = stabilizer_generators(GraphState.cycle(4))
        res = contract(ContractionInstance((group,), ()))
        assert res.status is Status.PURE
        assert groups_equal(res.residual, group)
        assert res.log_norm_exponent == 0

    def test_annihilation(self):
        edge = stabilizer_generators(GraphState.from_edges(2, [(0, 1)]))
        inst = ContractionInstance((edge,), ((0, 1),), BellConvention.PLUS_PAIR)
        res = contract(inst)
        assert res.status is Status.ANNIHILATED
        assert res.status is not Status.PURE
        check_against_dense(inst)

    def test_full_contraction_to_scalar(self):
        inst = ContractionInstance((EPR,), ((0, 1),), BellConvention.PLUS_PAIR)
        res = contract(inst)
        assert res.status is Status.PURE
        assert res.boundary == ()

    def test_mixed_when_node_is_a_code(self):
        res = contract(ContractionInstance((FIVE,), ()))
        assert res.status is Status.MIXED
        assert len(res.residual) == 4

    def test_relabeling_equivariance(self):
        # permuting the node order (a relabeling of global indices) permutes
        # the residual accordingly
        g1 = stabilizer_generators(GraphState.from_edges(2, [(0, 1)]))
        g2 = repetition_state(3)
        # node order swapped: g1 qubits (0,1)->(3,4), g2 qubits (2,3,4)->(0,1,2)
        inst_a = ContractionInstance((g1, g2), ((0, 2),))
        inst_b = ContractionInstance((g2, g1), ((3, 0),))
        res_a, res_b = contract(inst_a), contract(inst_b)
        assert res_a.status == res_b.status
        # a-boundary (1,3,4) lands on b-globals (4,1,2), i.e. b-residual (2,0,1)
        remap = {0: 2, 1: 0, 2: 1}
        mapped = []
        for op in res_a.residual.generators:
            x = z = 0
            for q in range(3):
                x |= ((op.x >> q) & 1) << remap[q]
                z |= ((op.z >> q) & 1) << remap[q]
            mapped.append(PauliOperator(3, x, z, op.phase))
        assert groups_equal(StabilizerGroup(3, tuple(mapped)), res_b.residual)

    def test_composing_partial_contractions(self):
        # contracting pairs in two steps equals contracting all at once
        ghz = repetition_state(3)
        full = ContractionInstance((ghz, EPR, ghz), ((2, 3), (4, 5)))
        res_full = contract(full)
        step1 = contract(ContractionInstance((ghz, EPR), ((2, 3),)))
        assert res_full.status is Status.PURE and step1.status is Status.PURE
        step2 = contract(
            ContractionInstance((step1.residual, ghz), ((2, 3),))
        )
        assert groups_equal(step2.residual, res_full.residual)

    def test_oracle_equivalence_randomized(self, rng):
        pure = annihilated = 0
        for _ in range(100):
            inst = random_contraction_instance(rng)
            check_against_dense(inst)
            status = contract(inst).status
            pure += status is Status.PURE
            annihilated += status is Status.ANNIHILATED
        assert pure > 0 and annihilated > 0

    def test_residual_never_exceeds_boundary(self, rng):
        for _ in range(50):
            inst = random_contraction_instance(rng)
            res = contract(inst)
            assert len(res.residual) <= len(res.boundary)

    def test_code_space_contraction_matches_dense(self, rng):
        # MIXED results: the contracted code space has dimension
        # 2**(|boundary| - residual rank) and every residual generator
        # fixes it; ANNIHILATED means the space collapsed entirely
        four22 = StabilizerGroup.from_strings(["XXXX", "ZZZZ"])
        for _ in range(15):
            codes = (rng.choice([FIVE, four22]), four22)
            i = rng.randrange(codes[0].n)
            j = codes[0].n + rng.randrange(4)
            convention = rng.choice(list(BellConvention))
            inst = ContractionInstance(codes, ((i, j),), convention)
            res = contract(inst)
            vectors = []
            for u in oracle.code_space_basis(codes[0]):
                for v in oracle.code_space_basis(codes[1]):
                    w = oracle.dense_contract(
                        oracle.kron([u, v]), inst.pairings, convention.value
                    )
                    vectors.append(w.amplitudes)
            dim = np.linalg.matrix_rank(np.array(vectors), tol=1e-9)
            if res.status is Status.ANNIHILATED:
                assert dim == 0
                continue
            nb = len(res.boundary)
            assert dim == 2 ** (nb - len(res.residual))
            for gen in res.residual.generators:
                for amps in vectors:
                    state = oracle.DenseState(nb, amps)
                    if state.norm() < 1e-10:
                        continue
                    moved = oracle.apply_pauli(state, gen)
                    assert np.allclose(moved.amplitudes, amps, atol=1e-9)

    def test_result_json(self):
        res = contract(ContractionInstance((EPR, EPR), ((0, 2),)))
        import json

        data = json.loads(res.to_json())
        assert data["status"] == "PURE"
        assert data["residual"] == ["+XX", "+ZZ"]
        assert data["boundary"] == [1, 3]


class TestContractSingleElement:
    def test_known_surviving_element(self):
        s = parse_pauli("ZXIXZ" + "IXZZX" + "ZXIXZ")
        out = oracle.contract_single_element(s, TRIANGLE_PAIRINGS, BellConvention.GRAPH_EDGE)
        assert out is not None and out.to_string() == "+ZXIIXZZXI"

    def test_identity_survives(self):
        s = PauliOperator(4, 0, 0, 0)
        out = oracle.contract_single_element(s, [(0, 2)], BellConvention.PLUS_PAIR)
        assert out == PauliOperator(2, 0, 0, 0)

    def test_mismatched_pair_dies(self):
        # bare X on one contracted qubit, I on its partner: the dense
        # overlap <e| X (x) I |e> is zero, so nothing survives
        s = parse_pauli("XII")
        assert oracle.contract_single_element(s, [(0, 1)], BellConvention.PLUS_PAIR) is None
        bell = oracle.bell_vector(BellConvention.PLUS_PAIR)
        x_on_half = oracle.apply_pauli(bell, parse_pauli("XI"))
        assert abs(np.vdot(bell.amplitudes, x_on_half.amplitudes)) < 1e-12

    def test_sign_accumulates(self):
        # -YY on a plus-pair is a Bell group member: the survivor picks up
        # the matching element's sign
        s = parse_pauli("YYI")
        out = oracle.contract_single_element(s, [(0, 1)], BellConvention.PLUS_PAIR)
        assert out is not None and out.to_string() == "-I"

    def test_survivors_are_the_residual_group(self, rng):
        # the element-wise path is a second contraction engine: the
        # surviving restrictions of the whole node group are exactly the
        # residual group's elements, and -I survives iff it annihilates
        statuses = Counter()
        for k in range(240):
            inst = code_instance(rng) if k % 3 == 2 else random_contraction_instance(rng)
            n = inst.total_qubits
            node_group = StabilizerGroup(
                n,
                tuple(
                    PauliOperator(n, g.x << off, g.z << off, g.phase)
                    for group, off in zip(inst.node_states, inst.offsets)
                    for g in group.generators
                ),
            )
            survivors = set()
            for e in oracle.group_elements(node_group):
                out = oracle.contract_single_element(e, inst.pairings, inst.convention)
                if out is not None:
                    survivors.add(out.to_string())
            result = contract(inst)
            statuses[result.status] += 1
            width = len(inst.boundary) or n  # no boundary: survivors stay on all n
            if result.status is Status.ANNIHILATED:
                assert "-" + "I" * width in survivors
            elif inst.boundary:
                assert survivors == {e.to_string() for e in oracle.group_elements(result.residual)}
            else:
                assert survivors == {"+" + "I" * width}
        assert all(statuses[s] > 0 for s in Status), statuses


def code_instance(rng: random.Random) -> ContractionInstance:
    """Code-space nodes (so MIXED results occur) under random pairings."""
    nodes = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 2:
            graph = stabilizer_generators(random_graph(rng, rng.randint(2, 4)))
            nodes.append(StabilizerGroup(graph.n, graph.generators[1:]))
        else:
            nodes.append((FIVE, FOUR22)[kind])
    total = sum(g.n for g in nodes)
    qubits = rng.sample(range(total), total)
    pairings = tuple(
        (qubits[2 * k], qubits[2 * k + 1]) for k in range(rng.randint(0, total // 2))
    )
    return ContractionInstance(tuple(nodes), pairings, rng.choice(list(BellConvention)))


def fully_paired_instance(rng: random.Random) -> ContractionInstance:
    """Graph-state nodes with random signs and every qubit paired: an
    empty boundary, often annihilated under either convention."""

    def node() -> StabilizerGroup:
        group = stabilizer_generators(random_graph(rng, rng.randint(1, 4)))
        signed = (g.negated() if rng.random() < 0.3 else g for g in group.generators)
        return StabilizerGroup(group.n, tuple(signed))

    nodes = [node()]
    while rng.random() < 0.6 or sum(g.n for g in nodes) % 2:
        nodes.append(node())
    total = sum(g.n for g in nodes)
    qubits = rng.sample(range(total), total)
    pairings = tuple((qubits[k], qubits[k + 1]) for k in range(0, total, 2))
    return ContractionInstance(tuple(nodes), pairings)


def _node_meets_bell(inst: ContractionInstance) -> bool:
    """Whether some node generator anticommutes with some Bell generator."""
    n = inst.total_qubits
    nodes = [
        PauliOperator(n, g.x << off, g.z << off)
        for group, off in zip(inst.node_states, inst.offsets)
        for g in group.generators
    ]
    bells = [
        b for i, j in inst.pairings for b in reference_contraction.bell_generators(i, j, n, inst.convention)
    ]
    return any(not commute(a, b) for a in nodes for b in bells)


def relay_tree(rng: random.Random, n: int, p: int, relays: str, convention):
    """``RegularTreeSpec(n, p)`` lowered with repetition or random
    connected graph-state relays."""
    topology = RegularTreeSpec(n, p).as_topology()
    degree = Counter()
    for u, v, channels in topology.edges:
        degree[u] += channels
        degree[v] += channels
    assignment = {}
    for relay in topology.relays:
        if relays == "repetition":
            assignment[relay] = repetition_state(degree[relay])
            continue
        graph = random_graph(rng, degree[relay])
        while not graph.is_connected():
            graph = random_graph(rng, degree[relay])
        assignment[relay] = stabilizer_generators(graph)
    return to_contraction(topology, assignment, convention)[0]


class TestIdentityCheck:
    def test_a_wrong_product_on_a_contracted_qubit_raises(self, monkeypatch):
        # entanglement swapping through qubits 0 and 2, which are contracted
        inst = ContractionInstance((EPR, EPR), ((0, 2),))
        assert contract(inst).residual.to_strings() == ["+XX", "+ZZ"]
        for q in (0, 2):
            monkeypatch.setattr("stabnet.contraction.times", corrupt_once(q))
            with pytest.raises(AssertionError, match="^kernel product is not identity on contracted qubits$"):
                contract(inst)


class TestMatchesReference:
    """The set-bit engine renders byte-identical results to the plain loops
    in ``reference_contraction``: same generators, order, signs, exponent."""

    @pytest.mark.parametrize("convention", list(BellConvention))
    def test_a_repeated_group_equals_distinct_equal_groups(self, convention):
        # contract reads each distinct group once per call, keyed by
        # identity: one object at several offsets, interleaved with another,
        # must render as equal but distinct objects do
        offsets = (7, 0, 14, 19, 5, 12)
        pairings = ((4, 5), (6, 7), (11, 12), (13, 14), (18, 19), (2, 16))
        shared = (FIVE, FIVE, FIVE, EPR, EPR, EPR)
        fresh = tuple(StabilizerGroup(g.n, g.generators) for g in shared)
        assert fresh == shared and not any(a is b for a, b in zip(fresh, shared))
        instances = [ContractionInstance(nodes, pairings, convention, offsets) for nodes in (shared, fresh)]
        outputs = {contract(inst).to_json() for inst in instances}
        assert outputs == {reference_contraction.contract_json(instances[1])}

    def test_no_read_outlives_its_call(self, rng):
        # each instance is built after the last one's groups are freed, so
        # a new group may take a freed group's id: a read kept past its
        # call would be served to the wrong group
        statuses = Counter()
        for _ in range(200):
            inst = random_contraction_instance(rng, 12)
            result = contract(inst)
            assert result.to_json() == reference_contraction.contract_json(inst)
            statuses[result.status] += 1
            del inst, result
        assert statuses[Status.PURE] and statuses[Status.ANNIHILATED], statuses

    def test_random_instances(self, rng):
        statuses = Counter()
        for k in range(300):
            inst = code_instance(rng) if k % 3 == 2 else random_contraction_instance(rng, 16)
            result = contract(inst)
            assert result.to_json() == reference_contraction.contract_json(inst)
            statuses[result.status] += 1
        assert all(statuses[s] > 0 for s in Status), statuses

    def test_empty_boundaries_and_annihilation(self, rng):
        # every qubit paired: the residual is a scalar +-1, which takes the
        # engine's one general path and the reference's own scalar branch;
        # each instance runs under both conventions
        seen = {c: Counter() for c in BellConvention}
        for k in range(240):
            base = code_instance(rng) if k % 4 == 3 else fully_paired_instance(rng)
            for convention in BellConvention:
                inst = ContractionInstance(
                    base.node_states, base.pairings, convention, base.offsets
                )
                result = contract(inst)
                assert result.to_json() == reference_contraction.contract_json(inst)
                seen[convention][result.status] += 1
                seen[convention]["empty"] += not inst.boundary
        for counts in seen.values():
            assert counts["empty"] >= 60 and counts[Status.ANNIHILATED] >= 30, seen
            assert counts[Status.MIXED] > 0, seen

    def test_node_and_bell_factors_anticommute(self, rng):
        # contract multiplies a relation's node factors and Bell factors
        # apart; where a node generator anticommutes with a Bell generator
        # on a shared qubit, the residual still equals the reference's,
        # which multiplies all factors in row order
        seen = {c: Counter() for c in BellConvention}
        for k in range(100):
            base = code_instance(rng) if k % 2 else fully_paired_instance(rng)
            for convention in BellConvention:
                inst = ContractionInstance(base.node_states, base.pairings, convention, base.offsets)
                result = contract(inst)
                assert result.to_json() == reference_contraction.contract_json(inst)
                if _node_meets_bell(inst):
                    seen[convention][result.status] += 1
        for counts in seen.values():
            assert all(counts[s] > 0 for s in Status), seen

    def test_five_qubit_code_rings(self, rng):
        # the compose-sweep shape: 3 to 5 five-qubit codes in a ring, code j
        # glued by one of two random ports to a random port of code j + 1
        seen = Counter()
        for _ in range(200):
            m = rng.randint(3, 5)
            ports = [rng.sample(range(5), 2) for _ in range(m)]
            pairings = tuple((5 * j + ports[j][1], 5 * ((j + 1) % m) + ports[(j + 1) % m][0]) for j in range(m))
            inst = ContractionInstance((FIVE,) * m, pairings, rng.choice(list(BellConvention)))
            result = contract(inst)
            assert result.to_json() == reference_contraction.contract_json(inst)
            seen[inst.convention, m] += 1
        assert len(seen) == 6, seen

    @pytest.mark.parametrize("convention", list(BellConvention))
    @pytest.mark.parametrize("n, p", [(2, 6), (3, 3)])
    def test_graph_relay_trees(self, n, p, convention):
        inst = relay_tree(random.Random(100 * n + p), n, p, "graph", convention)
        assert inst.total_qubits > 100
        result = contract(inst)
        assert result.status is Status.PURE
        assert result.to_json() == reference_contraction.contract_json(inst)

    def test_repetition_tree_is_ghz(self):
        # (2,9) with GHZ relays teleports into the 512-client GHZ state:
        # +X...X and every +Z_i Z_{i+1} are group members, signs included
        inst = relay_tree(random.Random(0), 2, 9, "repetition", BellConvention.PLUS_PAIR)
        result = contract(inst)
        assert result.status is Status.PURE and len(result.boundary) == 512
        elim = result.residual.eliminator()
        for target in repetition_state(512).generators:
            mask = elim.solve(target.symplectic_row())
            assert mask is not None
            chosen = (g for i, g in enumerate(result.residual.generators) if (mask >> i) & 1)
            assert reference_contraction.product(chosen, 512) == target


def random_relay_tree(rng: random.Random) -> ContractionInstance:
    """A random relay tree with clients as leaves, lowered by
    ``to_contraction`` with randomly signed graph-state relays and a random
    convention: 20 to 100 qubits, past the dense oracle's 12."""
    while True:
        relays = [f"r{i}" for i in range(rng.randint(2, 7))]
        clients = [f"c{i}" for i in range(rng.randint(2, 8))]
        edges = [(relays[rng.randrange(i)], relays[i], rng.randint(1, 2)) for i in range(1, len(relays))]
        edges += [(rng.choice(relays), c, rng.randint(1, 2)) for c in clients]
        # a channel is a Bell pair plus one port at each relay end
        qubits = sum(c * (4 if v in relays else 3) for _, v, c in edges)
        if 20 <= qubits <= 100:
            break
    nodes = tuple((r, "relay") for r in relays) + tuple((c, "client") for c in clients)
    topology = NetworkTopology(nodes, tuple(edges))
    degree = Counter()
    for u, v, channels in edges:
        degree[u] += channels
        degree[v] += channels
    assignment = {}
    for relay in relays:
        group = stabilizer_generators(random_graph(rng, degree[relay]))
        signed = (g.negated() if rng.random() < 0.3 else g for g in group.generators)
        assignment[relay] = StabilizerGroup(group.n, tuple(signed))
    inst = to_contraction(topology, assignment, rng.choice(list(BellConvention)))[0]
    assert inst.total_qubits == qubits
    return inst


@functools.cache
def relay_trees() -> tuple[ContractionInstance, ...]:
    """Sixty seeded relay trees, shared by the invariance tests below."""
    return tuple(random_relay_tree(random.Random(seed)) for seed in range(60))


class TestNodeOrderInvariance:
    """Past the dense oracle: listing the node states in another order, each
    at its own ``qubit_offsets``, is the same instance, so it must give the
    same status, exponent and residual group."""

    def test_shuffled_node_states(self):
        for seed in range(32):
            rng = random.Random(seed)
            inst = random_relay_tree(rng)
            order = list(range(len(inst.node_states)))
            rng.shuffle(order)
            shuffled = ContractionInstance(
                tuple(inst.node_states[k] for k in order),
                inst.pairings,
                inst.convention,
                tuple(inst.offsets[k] for k in order),
            )
            plain, other = contract(inst), contract(shuffled)
            assert (other.status, other.log_norm_exponent, other.boundary) == (
                plain.status, plain.log_norm_exponent, plain.boundary
            )
            assert groups_equal(plain.residual, other.residual)


class TestStagedContraction:
    """Past the dense oracle: contracting a random part of the pairings and
    then the rest on the first residual is the one-shot contraction.  The
    second stage's pairings are remapped through the first boundary, and
    its boundary read back through it is the one-shot boundary."""

    def test_two_stages_equal_one_shot(self):
        rng = random.Random(5)
        statuses = Counter()
        for inst in relay_trees():
            pairings = list(inst.pairings)
            rng.shuffle(pairings)
            cut = rng.randint(0, len(pairings))
            once = contract(inst)
            stage1 = contract(
                ContractionInstance(inst.node_states, tuple(pairings[:cut]), inst.convention, inst.offsets)
            )
            statuses[once.status] += 1
            if stage1.status is Status.ANNIHILATED:
                assert once.status is Status.ANNIHILATED
                continue
            local = {q: k for k, q in enumerate(stage1.boundary)}
            rest = tuple((local[i], local[j]) for i, j in pairings[cut:])
            stage2 = contract(ContractionInstance((stage1.residual,), rest, inst.convention))
            assert stage2.status is once.status
            assert tuple(stage1.boundary[k] for k in stage2.boundary) == once.boundary
            assert groups_equal(stage2.residual, once.residual)
            if once.status is not Status.ANNIHILATED:
                assert stage1.log_norm_exponent + stage2.log_norm_exponent == once.log_norm_exponent
        assert statuses[Status.PURE] and statuses[Status.ANNIHILATED], statuses


class TestLocalRelabelling:
    """Past the dense oracle, on the staged-contraction trees: a local change
    of basis or of qubit labels moves the residual the way it predicts,
    signs and normalization included."""

    def test_graph_edge_is_plus_pair_after_hadamard(self):
        # CZ|++> is (I x H)(|00> + |11>): projecting a pair onto the graph
        # edge is projecting onto the plus pair after H on its second qubit,
        # so that qubit's node state gets X <-> Z and Y -> -Y.  Each node's
        # generators are first replaced by random products of them, the same
        # group, so that Y letters occur.
        rng = random.Random(11)
        statuses = Counter()
        for inst in relay_trees():
            states = [mixed(group, rng) for group in inst.node_states]
            inst = dataclasses.replace(inst, node_states=tuple(states))
            owner = {q: k for k, off in enumerate(inst.offsets) for q in range(off, off + states[k].n)}
            for _, j in inst.pairings:
                k = owner[j]
                states[k] = conjugated(states[k], j - inst.offsets[k], "H")
            edge = contract(dataclasses.replace(inst, convention=BellConvention.GRAPH_EDGE))
            plus = contract(ContractionInstance(tuple(states), inst.pairings, BellConvention.PLUS_PAIR, inst.offsets))
            assert (plus.status, plus.boundary, plus.log_norm_exponent) == (
                edge.status, edge.boundary, edge.log_norm_exponent
            )
            assert groups_equal(plus.residual, edge.residual)
            statuses[edge.status] += 1
        assert statuses[Status.PURE] and statuses[Status.ANNIHILATED], statuses

    def test_relabelling_block_qubits_relabels_the_residual(self):
        # each node's block moves to a random place and is permuted inside;
        # the pairings follow, and the residual's qubits follow the boundary
        rng = random.Random(7)
        for inst in relay_trees():
            order = list(range(len(inst.node_states)))
            rng.shuffle(order)
            offsets = dict(zip(order, accumulate((inst.node_states[k].n for k in order), initial=0)))
            to = list(range(inst.total_qubits))  # global qubit -> its new label
            states = []
            for k, (group, off) in enumerate(zip(inst.node_states, inst.offsets)):
                local = list(range(group.n))
                rng.shuffle(local)
                to[off : off + group.n] = [offsets[k] + a for a in local]
                states.append(permuted(group, local))
            pairings = tuple((to[i], to[j]) for i, j in inst.pairings)
            plain = contract(inst)
            new_offsets = tuple(offsets[k] for k in range(len(states)))
            moved = contract(ContractionInstance(tuple(states), pairings, inst.convention, new_offsets))
            assert moved.boundary == tuple(sorted(to[q] for q in plain.boundary))
            assert (moved.status, moved.log_norm_exponent) == (plain.status, plain.log_norm_exponent)
            position = {q: k for k, q in enumerate(moved.boundary)}
            assert groups_equal(moved.residual, permuted(plain.residual, [position[to[q]] for q in plain.boundary]))


def mixed(group: StabilizerGroup, rng: random.Random) -> StabilizerGroup:
    """The same group, each generator times a random subset of the later ones."""
    gens = group.generators
    products = (product([g, *(h for h in gens[i + 1 :] if rng.random() < 0.5)], group.n) for i, g in enumerate(gens))
    return StabilizerGroup(group.n, tuple(products))
