import numpy as np
import pytest

from conftest import random_graph
import dense_oracle as oracle
from stabnet.contraction import BellConvention, ContractionInstance, Status, contract
from stabnet.graphstate import GraphState, stabilizer_generators
from stabnet.network import repetition_state
from stabnet.pauli import PauliOperator, StabilizerGroup


def ghz_vector(n):
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return oracle.DenseState(n, amps)


class TestGraphStateVector:
    def test_empty_graph_uniform(self):
        v = oracle.graph_state_vector(GraphState.from_edges(2, []))
        assert np.allclose(v.amplitudes, [0.5] * 4)

    def test_single_edge(self):
        v = oracle.graph_state_vector(GraphState.from_edges(2, [(0, 1)]))
        assert np.allclose(v.amplitudes, [0.5, 0.5, 0.5, -0.5])

    def test_five_cycle_eigenvector(self):
        g = GraphState.cycle(5)
        v = oracle.graph_state_vector(g)
        for K in stabilizer_generators(g).generators:
            assert np.allclose(
                oracle.pauli_matrix(K) @ v.amplitudes, v.amplitudes
            )

    def test_cap(self):
        with pytest.raises(oracle.CapExceededError):
            oracle.graph_state_vector(GraphState.from_edges(13, []))


class TestApplyPauli:
    def test_matches_matrix(self, rng):
        for _ in range(50):
            n = rng.randint(1, 4)
            p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
            amps = np.array([rng.random() + 1j * rng.random() for _ in range(1 << n)])
            state = oracle.DenseState(n, amps)
            assert np.allclose(
                oracle.apply_pauli(state, p).amplitudes,
                oracle.pauli_matrix(p) @ amps,
            )


class TestStabilizerStateVector:
    def test_matches_graph_state(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 5))
            direct = oracle.graph_state_vector(g)
            via_group = oracle.stabilizer_state_vector(stabilizer_generators(g))
            assert abs(direct.overlap_magnitude(via_group) - 1) < 1e-12

    def test_sign_sensitivity(self):
        minus_z = StabilizerGroup(1, (PauliOperator(1, 0, 1, 2),))  # -Z fixes |1>
        v = oracle.stabilizer_state_vector(minus_z)
        assert abs(abs(v.amplitudes[1]) - 1) < 1e-12

    def test_requires_full_rank(self):
        with pytest.raises(ValueError):
            oracle.stabilizer_state_vector(StabilizerGroup.from_strings(["XX"]))

    def test_code_space_basis_dimension(self):
        code_group = StabilizerGroup.from_strings(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])
        basis = oracle.code_space_basis(code_group)
        assert len(basis) == 2
        for v in basis:
            for g in code_group.generators:
                assert np.allclose(oracle.apply_pauli(v, g).amplitudes, v.amplitudes)


class TestControlledIsometry:
    def test_single_control_builds_ghz(self):
        plus = oracle.DenseState(1, np.array([1, 1]) / np.sqrt(2))
        branches = [oracle.basis_state(3, 0), oracle.basis_state(3, 7)]
        pre = oracle.apply_controlled_isometry(plus, branches, post_select=False)
        assert pre.n == 4
        assert abs(pre.overlap_magnitude(ghz_vector(4)) - 1) < 1e-12
        post = oracle.apply_controlled_isometry(plus, branches, post_select=True)
        assert abs(post.overlap_magnitude(ghz_vector(3)) - 1) < 1e-12

    def test_ghz_control_gives_five_qubit_cascade(self):
        # one leg of a GHZ3 controls a GHZ3-generating isometry:
        # (|00>|000> + |11>|111>)/sqrt(2)
        control = ghz_vector(3)
        branches = [oracle.basis_state(3, 0), oracle.basis_state(3, 7)]
        out = oracle.apply_controlled_isometry(
            control, branches, control_qubits=[2], post_select=True
        )
        expected = np.zeros(32, dtype=complex)
        expected[0b00000] = expected[0b11111] = 1 / np.sqrt(2)
        assert abs(out.overlap_magnitude(oracle.DenseState(5, expected)) - 1) < 1e-12

    def test_identity_branches_preserve_control(self):
        state = oracle.graph_state_vector(GraphState.from_edges(2, [(0, 1)]))
        out = oracle.apply_controlled_isometry(
            state,
            [oracle.basis_state(1, 0), oracle.basis_state(1, 1)],
            control_qubits=[1],
            post_select=True,
        )
        assert abs(out.overlap_magnitude(state) - 1) < 1e-12

    def test_branch_count_must_be_power_of_two(self):
        plus = oracle.DenseState(1, np.array([1, 1]) / np.sqrt(2))
        with pytest.raises(ValueError):
            oracle.apply_controlled_isometry(plus, [oracle.basis_state(1, 0)] * 3)

    def test_zero_post_selection_rejected(self):
        minus = oracle.DenseState(1, np.array([1, -1]) / np.sqrt(2))
        with pytest.raises(ValueError):
            oracle.apply_controlled_isometry(
                minus, [oracle.basis_state(1, 0), oracle.basis_state(1, 0)]
            )


class TestDenseContract:
    def test_swap_chain(self):
        bell = oracle.bell_vector(BellConvention.PLUS_PAIR)
        out = oracle.dense_contract([bell, bell], [(0, 2)])
        assert out.n == 2
        assert abs(out.norm() - 0.5) < 1e-12
        assert abs(out.overlap_magnitude(ghz_vector(2)) - 1) < 1e-12

    def test_orthogonal_projection_is_zero(self):
        edge = oracle.graph_state_vector(GraphState.from_edges(2, [(0, 1)]))
        out = oracle.dense_contract([edge], [(0, 1)], "plus-pair")
        assert out.norm() < 1e-12

    def test_unknown_convention(self):
        bell = oracle.bell_vector("plus-pair")
        with pytest.raises(ValueError):
            oracle.dense_contract([bell], [(0, 1)], "bell")


class TestReducedRank:
    def test_ghz_rank_two(self):
        for n in range(2, 6):
            v = ghz_vector(n)
            assert oracle.reduced_rank(v, [0]) == 2
            assert oracle.reduced_rank(v, list(range(n - 1))) == 2

    def test_product_state_rank_one(self):
        v = oracle.graph_state_vector(GraphState.from_edges(4, []))
        assert oracle.reduced_rank(v, [0, 2]) == 1

    def test_five_cycle(self):
        v = oracle.graph_state_vector(GraphState.cycle(5))
        assert oracle.reduced_rank(v, [0, 1]) == 4


class TestIsometryContractionEquivalence:
    """The controlled-isometry construction and Bell contraction agree."""

    @staticmethod
    def schmidt_branches(g, a):
        v = oracle.graph_state_vector(g)
        tensor = v.amplitudes.reshape([2] * g.n)
        out = []
        for value in (0, 1):
            chunk = np.zeros_like(tensor)
            index = [slice(None)] * g.n
            index[a] = value
            chunk[tuple(index)] = tensor[tuple(index)]
            out.append(oracle.DenseState(g.n, np.sqrt(2) * chunk.reshape(-1)))
        return out

    def test_ghz_example(self):
        ghz3 = repetition_state(3)
        inst = ContractionInstance((ghz3, ghz3), ((2, 3),), BellConvention.PLUS_PAIR)
        res = contract(inst)
        assert res.status is Status.PURE
        engine = oracle.stabilizer_state_vector(res.residual)
        lqc = oracle.apply_controlled_isometry(
            ghz_vector(3),
            [oracle.basis_state(3, 0), oracle.basis_state(3, 7)],
            control_qubits=[2],
            post_select=True,
        )
        # the LQC route keeps the receiving node's own qubit; tracing it
        # against the Bell picture means dropping that qubit's copy
        assert abs(engine.overlap_magnitude(ghz_vector(4)) - 1) < 1e-12
        expected = np.zeros(32, dtype=complex)
        expected[0] = expected[31] = 1 / np.sqrt(2)
        assert abs(lqc.overlap_magnitude(oracle.DenseState(5, expected)) - 1) < 1e-12

    def test_randomized_instances(self, rng):
        checked = 0
        for _ in range(50):
            nx, ny = rng.randint(1, 4), rng.randint(1, 4)
            gx, gy = random_graph(rng, nx), random_graph(rng, ny)
            ax, ay = rng.randrange(nx), rng.randrange(ny)
            aug = oracle.augment(stabilizer_generators(gy), ay)
            inst = ContractionInstance(
                (stabilizer_generators(gx), aug),
                ((ax, nx + ny),),
                BellConvention.PLUS_PAIR,
            )
            res = contract(inst)
            assert res.status is Status.PURE
            engine = oracle.stabilizer_state_vector(res.residual)
            lqc = oracle.apply_controlled_isometry(
                oracle.graph_state_vector(gx),
                self.schmidt_branches(gy, ay),
                control_qubits=[ax],
                post_select=True,
            )
            assert abs(engine.overlap_magnitude(lqc) - 1) < 1e-9
            checked += 1
        assert checked == 50
