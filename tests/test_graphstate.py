import json
import time

import numpy as np
import pytest

from conftest import random_graph
import dense_oracle as oracle
from stabnet import gf2
from stabnet.contraction import BellConvention, ContractionInstance, Status, contract
from stabnet.graphstate import (
    GraphState,
    entanglement_rank,
    stabilizer_generators,
)
from stabnet.pauli import StabilizerGroup


class TestGraphState:
    def test_from_edges_and_neighbors(self):
        g = GraphState.from_edges(4, [(0, 1), (1, 2)])
        assert g.rows[1] == 0b101  # neighbours 0 and 2
        assert g.edges() == [(0, 1), (1, 2)]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GraphState.from_edges(2, [(0, 0)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            GraphState(2, (0b10, 0b00))

    @pytest.mark.parametrize("n", [1100, 2048])
    def test_rejects_asymmetric_rows_past_the_scan_width(self, n):
        # a hub row wider than 1024 bits with more than 16 edges
        star = GraphState.star(n).rows
        far = n - 1
        missing_back = star[:far] + (0,)  # edge 0 -> far without far -> 0
        missing_forward = (star[0] ^ 1 << far,) + star[1:]  # far -> 0 only
        for rows in (missing_back, missing_forward):
            with pytest.raises(ValueError, match="^adjacency is not symmetric$"):
                GraphState(n, rows)
        assert GraphState(n, star).is_connected()

    def test_wide_empty_graph_builds_in_linear_time(self):
        # each row was once masked with an n-bit complement, quadratic in n:
        # 0.94 s at 100 000 vertices on a 2-core x86 VM
        start = time.perf_counter()
        g = GraphState(100_000, (0,) * 100_000)
        assert time.perf_counter() - start < 0.5
        assert g.n == 100_000 and not any(g.rows)

    @pytest.mark.parametrize("row", [0b100, 0b1010, -1])
    def test_rejects_a_row_past_the_last_vertex(self, row):
        with pytest.raises(ValueError, match="^row 1 extends beyond 2 vertices$"):
            GraphState(2, (0, row))

    def test_json_round_trip(self):
        g = GraphState.cycle(5)
        assert GraphState.from_json(g.to_json()) == GraphState(g.n, g.rows)

    def test_bitstring_round_trip(self):
        g = GraphState.from_edges(4, [(0, 2), (1, 3), (2, 3)])
        assert GraphState.from_bitstring(4, g.to_bitstring()).rows == g.rows

    def test_json_edges_and_bits_forms_agree(self, rng):
        for n in range(1, 8):
            g = random_graph(rng, n)
            edges = GraphState.from_json(g.to_json())
            bits = GraphState.from_json(json.dumps({"n": n, "bits": g.to_bitstring()}))
            assert edges == bits == GraphState(n, g.rows)

    def test_bitstring_round_trip_on_random_graphs(self, rng):
        for n in range(1, 13):
            g = random_graph(rng, n)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]  # row-major upper triangle
            bits = g.to_bitstring()
            assert bits == "".join("1" if (g.rows[u] >> v) & 1 else "0" for u, v in pairs)
            assert g.edges() == [pair for pair, c in zip(pairs, bits) if c == "1"]
            assert GraphState.from_bitstring(n, bits) == g
            if n >= 3:
                i, j = sorted(rng.sample(range(len(bits)), 2))
                bad = bits[:i] + "2" + bits[i + 1 : j] + "x" + bits[j + 1 :]
                with pytest.raises(ValueError, match="^invalid bit '2'$"):
                    GraphState.from_bitstring(n, bad)

    def test_bitstring_length_checked(self):
        with pytest.raises(ValueError):
            GraphState.from_bitstring(4, "101")

    def test_connectivity(self):
        assert GraphState.cycle(4).is_connected()
        assert not GraphState.from_edges(3, [(0, 1)]).is_connected()


class TestStabilizerGenerators:
    def test_empty_graph(self):
        group = stabilizer_generators(GraphState.from_edges(3, []))
        assert group.to_strings() == ["+XII", "+IXI", "+IIX"]

    def test_single_edge(self):
        group = stabilizer_generators(GraphState.from_edges(2, [(0, 1)]))
        assert group.to_strings() == ["+XZ", "+ZX"]

    def test_five_cycle_pattern(self):
        group = stabilizer_generators(GraphState.cycle(5))
        assert group.generators[0].to_string() == "+XZIIZ"
        strings = [g.to_string()[1:] for g in group.generators]
        for k, s in enumerate(strings):
            rotated = "".join("XZIIZ"[(q - k) % 5] for q in range(5))
            assert s == rotated

    def test_each_generator_fixes_dense_vector(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 5))
            v = oracle.graph_state_vector(g)
            for K in stabilizer_generators(g).generators:
                w = oracle.apply_pauli(v, K)
                assert np.allclose(v.amplitudes, w.amplitudes)

    def test_output_is_valid_full_rank_group(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 6))
            group = stabilizer_generators(g)  # constructor enforces invariants
            assert len(group) == g.n


class TestEntanglementRank:
    def test_star_always_one(self):
        for n in range(2, 7):
            g = GraphState.star(n)
            assert all(entanglement_rank(g, p) == 1 for p in range(1, (1 << n) - 1, 2))

    def test_empty_graph_zero(self):
        g = GraphState.from_edges(4, [])
        assert all(entanglement_rank(g, p) == 0 for p in range(1, (1 << 4) - 1, 2))

    def test_five_cycle_two_vs_three(self):
        g = GraphState.cycle(5)
        v = oracle.graph_state_vector(g)
        for p in range(1, (1 << 5) - 1, 2):
            if p.bit_count() in (2, 3):
                assert entanglement_rank(g, p) == 2
                assert oracle.reduced_rank(v, list(gf2.set_bits(p))) == 4

    def test_symmetric_and_bounded(self, rng):
        for _ in range(30):
            n = rng.randint(2, 6)
            g = random_graph(rng, n)
            full = (1 << n) - 1
            for p in range(1, (1 << n) - 1, 2):
                r = entanglement_rank(g, p)
                assert r == entanglement_rank(g, full ^ p)  # the same cut, B as side A
                assert r <= min(p.bit_count(), n - p.bit_count())

    def test_matches_dense_reduced_rank(self, rng):
        for _ in range(25):
            n = rng.randint(2, 6)
            g = random_graph(rng, n)
            v = oracle.graph_state_vector(g)
            for p in range(1, (1 << n) - 1, 2):
                assert 2 ** entanglement_rank(g, p) == oracle.reduced_rank(v, list(gf2.set_bits(p)))

    def test_invalid_partition(self):
        # a vertex past the graph on side A, for every k >= n and a negative mask
        g = GraphState.cycle(4)
        for a_mask in (0b10001, 1 << 4, 1 << 9, -1):
            with pytest.raises(ValueError, match="some but not all"):
                entanglement_rank(g, a_mask)


class TestBipartition:
    def test_rejects_empty_side(self):
        g = GraphState.from_edges(2, [(0, 1)])
        for a_mask in (0, 0b11):  # side A empty, then side B empty
            with pytest.raises(ValueError, match="some but not all"):
                entanglement_rank(g, a_mask)


class TestAugment:
    def test_plus_state_becomes_bell(self):
        plus = StabilizerGroup.from_strings(["X"])
        assert oracle.augment(plus, 0).to_strings() == ["+XX", "+ZZ"]

    def test_edge_state_branches(self):
        # copying vertex 0 of the 2-vertex edge state:
        # |0>|+>|0> + |1>|->|1> over (vertex 0, vertex 1, copy)
        group = stabilizer_generators(GraphState.from_edges(2, [(0, 1)]))
        v = oracle.stabilizer_state_vector(oracle.augment(group, 0))
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = expected[0b010] = 0.5
        expected[0b101], expected[0b111] = 0.5, -0.5
        assert abs(v.overlap_magnitude(oracle.DenseState(3, expected)) - 1) < 1e-12

    def test_matches_dense_basis_copy(self, rng):
        for _ in range(15):
            n = rng.randint(1, 4)
            g = random_graph(rng, n)
            a = rng.randrange(n)
            group = stabilizer_generators(g)
            copied = oracle.stabilizer_state_vector(oracle.augment(group, a))
            # dense basis-copy isometry: fan the amplitude of qubit a out
            # onto an appended qubit
            src = oracle.graph_state_vector(g)
            dense = np.zeros(1 << (n + 1), dtype=complex)
            for idx, amp in enumerate(src.amplitudes):
                bit = (idx >> (n - 1 - a)) & 1
                dense[(idx << 1) | bit] = amp
            assert (
                abs(copied.overlap_magnitude(oracle.DenseState(n + 1, dense)) - 1)
                < 1e-12
            )

    def test_round_trip_through_contraction(self):
        # project the copy onto <+| (a fresh |+> node glued by a Bell pair)
        group = stabilizer_generators(GraphState.cycle(4))
        aug = oracle.augment(group, 2)
        plus = StabilizerGroup.from_strings(["X"])
        inst = ContractionInstance((aug, plus), ((4, 5),), BellConvention.PLUS_PAIR)
        res = contract(inst)
        assert res.status is Status.PURE
        original = oracle.stabilizer_state_vector(group)
        recovered = oracle.stabilizer_state_vector(res.residual)
        assert abs(original.overlap_magnitude(recovered) - 1) < 1e-12

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            oracle.augment(StabilizerGroup.from_strings(["X"]), 1)
