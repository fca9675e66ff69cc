import random
import re
from collections import Counter

import numpy as np
import pytest

import dense_oracle as oracle
import reference_contraction
from conftest import commute, member, pack_row, random_graph, relation_masks
from stabnet import gf2, pauli
from stabnet.graphstate import stabilizer_generators
from stabnet.network import repetition_state
from stabnet.pauli import (
    MinusIdentityError,
    PauliOperator,
    StabilizerGroup,
    parse_pauli,
    product,
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

# Symplectic [X|Z] matrix of the six nine-qubit generators above.
H_MATRIX = [
    [1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0],
    [1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0],
    [0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0],
]


def random_operator(rng, n):
    return PauliOperator(
        n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4)
    )


def letters_reference(op):
    """``PauliOperator.to_string`` in its first form: one letter per qubit."""
    letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    sign = ("+", "+i", "-", "-i")[op.phase]
    return sign + "".join(letters[(op.x >> q) & 1, (op.z >> q) & 1] for q in range(op.n))


class TestParse:
    def test_five_qubit_generator_bits(self):
        p = parse_pauli("XZZXI")
        assert p.x == 0b01001  # bit q is qubit q: X on qubits 0 and 3
        assert p.z == 0b00110
        assert p.phase == 0

    def test_identity(self):
        p = parse_pauli("II")
        assert p.n == 2 and (p.x | p.z) == 0 and p.phase == 0

    def test_negative_yy(self):
        p = parse_pauli("-YY")
        assert p.x == 0b11 and p.z == 0b11 and p.phase == 2

    def test_round_trip(self):
        for text in ("+XZZXI", "-YY", "+II", "-ZXIXZ"):
            assert parse_pauli(text).to_string() == text

    def test_to_string_matches_the_letter_loop(self):
        rng = random.Random(28)
        ops = [PauliOperator(0, 0, 0, phase) for phase in range(4)]
        ops += [random_operator(rng, n) for n in list(range(1, 70)) + [255, 256, 257, 4096]]
        ops += [PauliOperator(n, (1 << n) - 1, z, 3) for n in (8, 600) for z in (0, (1 << n) - 1)]
        for op in ops:
            assert op.to_string() == letters_reference(op), op

    def test_malformed_character_reports_position(self):
        with pytest.raises(ValueError, match=r"^invalid character 'Q' at position 2$"):
            parse_pauli("XZQX")
        with pytest.raises(ValueError, match=r"^empty Pauli string at position 0$"):
            parse_pauli("")
        with pytest.raises(ValueError, match=r"^empty Pauli string at position 1$"):
            parse_pauli("-")

    def test_explicit_length_check(self):
        with pytest.raises(ValueError, match=r"^expected 3 letters, found 2 at position 1$"):
            parse_pauli("XX", n=3)


class TestMultiply:
    def test_x_times_z_is_minus_i_y(self):
        p = product((parse_pauli("X"), parse_pauli("Z")), 1)
        assert (p.x, p.z, p.phase) == (1, 1, 3)  # -iY

    def test_y_squared_is_identity(self):
        p = parse_pauli("Y")
        assert product((p, p), 1).to_string() == "+I"

    def test_xz_times_zx(self):
        # frozen from the dense two-qubit product: (X@Z)(Z@X) = +YY
        assert product((parse_pauli("XZ"), parse_pauli("ZX")), 2).to_string() == "+YY"

    def test_xx_times_zz(self):
        assert product((parse_pauli("XX"), parse_pauli("ZZ")), 2).to_string() == "-YY"

    def test_identity_neutral(self, rng):
        for _ in range(20):
            p = random_operator(rng, 4)
            assert product((p, PauliOperator(4, 0, 0)), 4) == p
            assert product((PauliOperator(4, 0, 0), p), 4) == p

    def test_matches_dense_matrices(self, rng):
        for _ in range(100):
            n = rng.randint(1, 4)
            p, q = random_operator(rng, n), random_operator(rng, n)
            lhs = oracle.pauli_matrix(product((p, q), n))
            rhs = oracle.pauli_matrix(p) @ oracle.pauli_matrix(q)
            assert np.allclose(lhs, rhs)

    def test_associative(self, rng):
        for _ in range(100):
            n = rng.randint(1, 5)
            p, q, r = (random_operator(rng, n) for _ in range(3))
            assert product((product((p, q), n), r), n) == product((p, product((q, r), n)), n)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            product((parse_pauli("X"), parse_pauli("XX")), 1)

    def test_product_is_left_fold(self, rng):
        # random letters give Y on about a quarter of the qubits; random
        # phases include the odd ones
        odd = 0
        for _ in range(200):
            n = rng.randint(1, 70)
            ops = [random_operator(rng, n) for _ in range(rng.randint(0, 6))]
            folded = PauliOperator(n, 0, 0)
            for op in ops:
                folded = product((folded, op), n)
            assert product(ops, n) == folded
            assert product(ops, n) == reference_contraction.product(ops, n)
            odd += folded.phase % 2
        assert odd > 0

    def test_product_length_mismatch(self):
        with pytest.raises(ValueError, match="qubit counts differ"):
            product([parse_pauli("XX"), parse_pauli("X")], 2)

    def test_left_kernel_carries_relation_products(self, rng):
        # signed elements of a graph-state group commute, so a relation's
        # product does not depend on the order the elimination meets its
        # factors in; rows keep the columns of a random subset of the
        # qubits, so the kernel products are not the identity
        seen = Counter()
        for _ in range(80):
            n = rng.randint(2, 8)
            gens = stabilizer_generators(random_graph(rng, n)).generators
            ops = []
            for _ in range(rng.randint(1, 2 * n)):
                op = product([g for g in gens if rng.random() < 0.5], n)
                ops.append(op.negated() if rng.random() < 0.5 else op)
            kept = rng.getrandbits(n)
            rows = [op.symplectic_row() & pauli.symplectic(kept, kept, n) for op in ops]
            masks = relation_masks(rows)
            carried = gf2.left_kernel(rows, map(pauli.xz_form, ops), pauli.times)
            assert len(carried) == len(masks)
            for mask, witness in zip(masks, carried):
                expected = product([ops[i] for i in gf2.set_bits(mask)], n)
                assert pauli.from_xz_form(witness, n) == expected
                seen["minus"] += expected.phase == 2
                seen["y"] += (expected.x & expected.z) != 0
        assert seen["minus"] > 20 and seen["y"] > 20, seen


class TestCommutes:
    """The symplectic check the other tests use as their commutation oracle."""

    def test_x_z_anticommute(self):
        assert not commute(parse_pauli("X"), parse_pauli("Z"))

    def test_five_qubit_pair(self):
        assert commute(parse_pauli("XZZXI"), parse_pauli("IXZZX"))

    def test_nine_qubit_generators_pairwise(self):
        ops = [parse_pauli(s) for s in NINE_QUBIT]
        for i, a in enumerate(ops):
            for b in ops[i + 1 :]:
                assert commute(a, b)

    def test_symmetric(self, rng):
        for _ in range(100):
            n = rng.randint(1, 5)
            p, q = random_operator(rng, n), random_operator(rng, n)
            assert commute(p, q) == commute(q, p)


class TestGf2Rank:
    def test_frozen_check_matrix_rank(self):
        assert gf2.rank_packed(pack_row(r) for r in H_MATRIX) == 6

    def test_nine_qubit_generators_give_that_matrix(self):
        group = StabilizerGroup.from_strings(NINE_QUBIT)
        assert [g.symplectic_row() for g in group.generators] == [pack_row(r) for r in H_MATRIX]

    def test_zero_rows(self):
        assert gf2.rank_packed(pack_row(r) for r in [[0] * 4, [0] * 4]) == 0

    def test_random_vs_exhaustive(self, rng):
        for _ in range(50):
            rows = [[rng.randint(0, 1) for _ in range(5)] for _ in range(5)]
            packed = [sum(b << i for i, b in enumerate(r)) for r in rows]
            seen = set()
            for mask in range(1 << 5):
                acc = 0
                for i in range(5):
                    if (mask >> i) & 1:
                        acc ^= packed[i]
                seen.add(acc)
            assert 2 ** gf2.rank_packed(pack_row(r) for r in rows) == len(seen)


class TestContains:
    def setup_method(self):
        self.group = StabilizerGroup.from_strings(FIVE_QUBIT)

    def test_generators_are_members(self):
        for g in self.group.generators:
            assert member(self.group, g) == g

    def test_product_of_generators(self):
        p = product((self.group.generators[0], self.group.generators[2]), 5)
        assert member(self.group, p) == p
        assert self.group.eliminator().solve(p.symplectic_row()) == 0b101

    def test_no_weight_one_member(self):
        # cross-checked by enumerating all 16 elements
        weights = {(e.x | e.z).bit_count() for e in oracle.group_elements(self.group)}
        assert 1 not in weights
        for q in range(5):
            assert member(self.group, PauliOperator(5, 1 << q, 0, 0)) is None

    def test_sign_matters(self):
        flipped = self.group.generators[0].negated()
        assert member(self.group, flipped) != flipped
        assert member(self.group, flipped) == self.group.generators[0]


class TestReduceGenerators:
    def test_bell_group_with_redundant_element(self):
        ops = [parse_pauli(s) for s in ("XX", "ZZ", "-YY")]
        group = StabilizerGroup(2, tuple(ops))
        assert group.to_strings() == ["+XX", "+ZZ"]

    def test_nine_qubit_all_independent(self):
        group = StabilizerGroup(9, tuple(parse_pauli(s) for s in NINE_QUBIT))
        assert len(group) == 6

    def test_duplicates_dropped(self):
        ops = [parse_pauli("XZZXI")] * 3
        assert len(StabilizerGroup(5, tuple(ops))) == 1

    def test_anticommuting_pair_rejected(self):
        with pytest.raises(ValueError, match=r"^\+X and \+Z anticommute$"):
            StabilizerGroup(1, (parse_pauli("X"), parse_pauli("Z")))

    def test_minus_identity_flagged(self):
        # XX * ZZ = -YY, so +YY closes the group onto -I
        ops = [parse_pauli(s) for s in ("XX", "ZZ", "YY")]
        with pytest.raises(MinusIdentityError):
            StabilizerGroup(2, tuple(ops))

    def test_anticommutation_reported_before_signs(self):
        # -X repeats +X with the other sign, and Z anticommutes with both
        ops = [parse_pauli(s) for s in ("X", "-X", "Z")]
        with pytest.raises(ValueError, match=r"^\+X and \+Z anticommute$"):
            StabilizerGroup(1, tuple(ops))
        ops = [parse_pauli(s) for s in ("XX", "-XX", "ZI")]
        with pytest.raises(ValueError, match=r"^\+XX and \+ZI anticommute$"):
            StabilizerGroup(2, tuple(ops))

    def test_flipped_dependent_row(self, rng):
        # a product of several kept rows with its sign flipped closes onto -I;
        # the same row with its own sign is dropped as redundant
        base = list(StabilizerGroup.from_strings(NINE_QUBIT).generators)
        for _ in range(20):
            chosen = [g for g in base if rng.random() < 0.5] or base[:2]
            spanned = product(chosen, 9)
            assert len(StabilizerGroup(9, (*base, spanned))) == 6
            with pytest.raises(MinusIdentityError):
                StabilizerGroup(9, (*base, spanned.negated()))

    def test_size_equals_symplectic_rank(self, rng):
        base = StabilizerGroup.from_strings(FIVE_QUBIT).generators
        for _ in range(25):
            ops = [
                product((base[i], base[j]), 5)
                for i, j in (
                    (rng.randrange(4), rng.randrange(4)) for _ in range(5)
                )
            ]
            group = StabilizerGroup(5, tuple(ops))
            rows = [op.symplectic_row() for op in ops]
            assert len(group) == gf2.rank_packed(rows)


class TestStabilizerGroup:
    def test_rejects_anticommuting(self):
        with pytest.raises(ValueError, match=r"^generators: \+XI and \+ZI anticommute$"):
            StabilizerGroup.from_strings(["XI", "ZI"])

    def test_rejects_dependent(self):
        with pytest.raises(ValueError):
            StabilizerGroup.from_strings(["XX", "ZZ", "-YY"])

    def test_rejects_odd_phase(self):
        with pytest.raises(ValueError):
            StabilizerGroup(1, (PauliOperator(1, 1, 0, 1),))

    def test_projector_forms_agree(self):
        # sum over group elements / |group| == product of (I + g)/2
        for strings in (FIVE_QUBIT, ["XX", "ZZ"], ["XZ", "ZX"]):
            group = StabilizerGroup.from_strings(strings)
            dim = 1 << group.n
            total = np.zeros((dim, dim), dtype=complex)
            count = 0
            for e in oracle.group_elements(group):
                total += oracle.pauli_matrix(e)
                count += 1
            lhs = total / count
            rhs = np.eye(dim, dtype=complex)
            for g in group.generators:
                rhs = rhs @ (np.eye(dim) + oracle.pauli_matrix(g)) / 2
            assert np.allclose(lhs, rhs)

    def test_group_elements_commute_as_matrices(self):
        group = StabilizerGroup.from_strings(["XZ", "ZX"])
        mats = [oracle.pauli_matrix(e) for e in oracle.group_elements(group)]
        for a in mats:
            for b in mats:
                assert np.allclose(a @ b, b @ a)

    def test_entanglement_rank_of_bell(self):
        group = StabilizerGroup.from_strings(["XX", "ZZ"])
        assert oracle.group_entanglement_rank(group, [0]) == 1


class TestRangeCheck:
    @pytest.mark.parametrize("n", [1, 5, 64, 1000])
    def test_bit_at_index_n_rejected(self, n):
        PauliOperator(n, 1 << (n - 1), 1 << (n - 1))
        for x, z in ((1 << n, 0), (0, 1 << n), (1 << (n + 70), 1)):
            with pytest.raises(ValueError, match="beyond the qubit count"):
                PauliOperator(n, x, z)

    @pytest.mark.parametrize("x, z", [(-1, 0), (0, -1), (-4, 2), (1, -(1 << 80))])
    def test_negative_bits_rejected(self, x, z):
        with pytest.raises(ValueError, match="beyond the qubit count"):
            PauliOperator(8, x, z)


class TestZeroQubits:
    """A zero-qubit operator is the scalar i**phase: a fully contracted
    residual is an ordinary group on n = 0 qubits."""

    def test_scalar_operators(self):
        minus = PauliOperator(0, 0, 0, 2)
        assert minus.to_string() == "-" and (minus.x | minus.z).bit_count() == 0
        assert product([minus, minus], 0) == PauliOperator(0, 0, 0)
        assert minus.symplectic_row() == 0
        for x, z in ((1, 0), (0, 1)):
            with pytest.raises(ValueError, match="beyond the qubit count"):
                PauliOperator(0, x, z)

    def test_negative_qubit_count_rejected(self):
        with pytest.raises(ValueError, match="qubit count must be >= 0, got -1"):
            PauliOperator(-1, 0, 0)

    def test_plus_one_is_dropped_and_minus_one_annihilates(self):
        # the same as +II and -II among two-qubit generators
        plus, minus = PauliOperator(0, 0, 0), PauliOperator(0, 0, 0, 2)
        assert StabilizerGroup(0, (plus, plus)) == StabilizerGroup(0, ())
        with pytest.raises(MinusIdentityError):
            StabilizerGroup(0, (plus, minus))
        with pytest.raises(MinusIdentityError):
            StabilizerGroup(0, (minus,))
        ops = tuple(parse_pauli(s) for s in ("XX", "II", "ZZ", "-II"))
        assert StabilizerGroup(2, ops[:3]).to_strings() == ["+XX", "+ZZ"]
        with pytest.raises(MinusIdentityError):
            StabilizerGroup(2, ops)


class TestQubitCountHonoured:
    def test_constructor_checks_its_count(self):
        with pytest.raises(ValueError, match="qubit counts differ: 3 vs 2"):
            StabilizerGroup(2, (parse_pauli("XXX"),))
        assert StabilizerGroup(3, (parse_pauli("XXX"),)).n == 3
        assert StabilizerGroup.from_strings([], n=4) == StabilizerGroup(4, ())
        with pytest.raises(ValueError, match="^generators: empty generator list needs an explicit qubit count$"):
            StabilizerGroup.from_strings([])

    def test_from_strings_names_the_bad_entry(self):
        with pytest.raises(ValueError, match=r"^generators\[1\]: invalid character 'Q'"):
            StabilizerGroup.from_strings(["XX", "XQ"])
        with pytest.raises(ValueError, match=r"^generators\[0\]: expected 3 letters"):
            StabilizerGroup.from_strings(["XX"], n=3)
        with pytest.raises(ValueError, match=r"^node_states\[2\]: \+XI and \+ZI anticommute$"):
            StabilizerGroup.from_strings(["XI", "ZI"], field="node_states[2]")
        with pytest.raises(ValueError, match=r"^generators: generators are GF\(2\)-dependent"):
            StabilizerGroup.from_strings(["XX", "ZZ", "-YY"])


class TestConstructorIsTheReduction:
    """``StabilizerGroup(n, ops)`` is the reduction: it keeps what the
    all-pairs reference keeps and raises where it raises."""

    def test_matches_reference_on_dependent_lists(self, rng):
        outcomes = Counter()
        for _ in range(240):
            n = rng.randint(1, 9)
            base = list(stabilizer_generators(random_graph(rng, n)).generators)
            base = rng.sample(base, rng.randint(1, n))  # under full rank at times
            ops = [g.negated() if rng.random() < 0.5 else g for g in base]
            for _ in range(rng.randint(1, 2 * n)):
                spanned = product([g for g in ops if rng.random() < 0.4], n)
                # a fresh sign: the list generates -I when it differs
                ops.append(spanned.negated() if rng.random() < 0.15 else spanned)
            rng.shuffle(ops)
            try:
                kept = reference_contraction.reduce_generators(ops)
            except MinusIdentityError:
                with pytest.raises(MinusIdentityError, match="and the spanned product"):
                    StabilizerGroup(n, tuple(ops))
                outcomes["minus identity"] += 1
                continue
            group = StabilizerGroup(n, tuple(ops))
            assert group.generators == tuple(kept)
            assert StabilizerGroup(n, group.generators) == group
            outcomes["kept"] += 1
        assert outcomes["kept"] >= 60 and outcomes["minus identity"] >= 60, outcomes

    def test_direct_construction_keeps_the_generated_group(self):
        ops = tuple(parse_pauli(s) for s in ("+XX", "+ZZ", "-YY"))
        assert StabilizerGroup(2, ops) == StabilizerGroup(2, ops[:2])
        with pytest.raises(MinusIdentityError, match=r"^\+YY and the spanned product -YY differ by -1$"):
            StabilizerGroup(2, ops[:2] + (parse_pauli("+YY"),))

    def test_files_may_not_hold_dependent_generators(self):
        with pytest.raises(ValueError, match=r"^generators: generators are GF\(2\)-dependent$"):
            StabilizerGroup.from_strings(["+XX", "+ZZ", "-YY"])
        with pytest.raises(MinusIdentityError, match=r"^generators: \+YY and the spanned product"):
            StabilizerGroup.from_strings(["+XX", "+ZZ", "+YY"])

    def test_one_elimination(self, monkeypatch):
        # every row is added once, through the bulk write loop that every
        # row enters by, and no second rank pass runs
        adds = []
        original = gf2.Eliminator.add_all

        def counting(self, rows, witnesses=None):
            rows = list(rows)
            adds.extend(rows)
            return original(self, rows, witnesses)

        monkeypatch.setattr(gf2.Eliminator, "add_all", counting)
        monkeypatch.setattr(gf2, "rank_packed", None)
        ops = [parse_pauli(s) for s in ("XXI", "ZZI", "-YYI", "IIZ")]
        assert len(StabilizerGroup(3, tuple(ops))) == 3
        assert adds == [op.symplectic_row() for op in ops]

    def test_library_callers_may_pass_tuples(self):
        assert StabilizerGroup.from_strings(("XX", "ZZ")).to_strings() == ["+XX", "+ZZ"]
        with pytest.raises(ValueError, match="^generators must be a list of Pauli strings, got 'XZ'$"):
            StabilizerGroup.from_strings("XZ")


def _permute_qubits(op, perm):
    def spread(bits):
        return sum(1 << perm[q] for q in gf2.set_bits(bits))

    return PauliOperator(op.n, spread(op.x), spread(op.z), op.phase)


def _permute_strings(text, perm):
    """Relabel every signed Pauli string in ``text`` by ``perm``."""

    def relabel(match):
        op = _permute_qubits(parse_pauli(match.group(0)), perm)
        return op.to_string()

    return re.sub(r"[+-][IXYZ]+", relabel, text)


class TestReduceGeneratorsColumnOrder:
    # kept rows and sign witnesses depend only on the input order, so a
    # qubit relabelling (a column permutation of the symplectic rows, and so
    # any pivot rule) relabels the output and changes nothing else
    def test_same_kept_rows_and_witnesses(self, rng):
        for _ in range(60):
            n = rng.randint(2, 14)
            base = stabilizer_generators(random_graph(rng, n)).generators
            ops = list(base)
            for _ in range(rng.randint(0, 2 * n)):
                ops.append(product([g for g in base if rng.random() < 0.3], n))
            rng.shuffle(ops)
            kept = reference_contraction.reduce_generators(ops)
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = [_permute_qubits(op, perm) for op in ops]
            expected = [_permute_qubits(op, perm).to_string() for op in kept]
            assert StabilizerGroup(n, tuple(ops)).to_strings() == [op.to_string() for op in kept]
            assert StabilizerGroup(n, tuple(permuted)).to_strings() == expected
            # flip one dependent row: the same row, with the same witness, is named
            dependent = [i for i, op in enumerate(ops) if op not in kept]
            if not dependent:
                continue
            i = rng.choice(dependent)
            flipped = ops[:i] + [ops[i].negated()] + ops[i + 1 :]
            with pytest.raises(MinusIdentityError) as plain:
                StabilizerGroup(n, tuple(flipped))
            with pytest.raises(MinusIdentityError) as relabelled:
                StabilizerGroup(n, tuple(_permute_qubits(op, perm) for op in flipped))
            assert str(relabelled.value) == _permute_strings(str(plain.value), perm)


def _letter_group(rng, n, g, bits):
    """``g`` random Paulis on ``n`` qubits with ``bits`` set x and z bits in
    all (a Y letter has two), at least one each; most pairs that share a
    qubit anticommute."""
    xs = [0] * g
    zs = [0] * g
    for i in range(g):
        if rng.random() < 0.5:
            xs[i] = 1 << rng.randrange(n)
        else:
            zs[i] = 1 << rng.randrange(n)
    for _ in range(bits - g):
        i = rng.randrange(g)
        while (xs[i] & zs[i]).bit_count() == n:
            i = rng.randrange(g)
        while True:
            bit = 1 << rng.randrange(n)
            if rng.random() < 0.5 and not xs[i] & bit:
                xs[i] |= bit
                break
            if not zs[i] & bit:
                zs[i] |= bit
                break
    return [PauliOperator(n, x, z, rng.choice((0, 2))) for x, z in zip(xs, zs)]


class TestCommutationCheckSelection:
    @staticmethod
    def _mask_calls(monkeypatch):
        calls = []
        original = pauli.support_masks

        def counting(ops, n):
            calls.append(len(ops))
            return original(ops, n)

        monkeypatch.setattr(pauli, "support_masks", counting)
        return calls

    @pytest.mark.parametrize("g", [18, 40, 200])
    @pytest.mark.parametrize("side", ["masks", "pairs"])
    def test_same_first_pair_as_all_pairs_loop(self, monkeypatch, rng, g, side):
        # set bits just below the cut read support masks, just above it pairs
        pairs = g * (g - 1) // 2
        cut = -(-pairs // pauli._PAIRS_PER_LETTER) - g  # fewest bits that pick pairs
        bits = cut - 1 if side == "masks" else cut
        calls = self._mask_calls(monkeypatch)
        widest = -(-bits // (2 * g))  # qubits of the widest generator, at least
        for _ in range(15):
            n = rng.choice([widest + 1, 2 * widest, widest + 5])
            ops = _letter_group(rng, n, g, bits)
            with pytest.raises(ValueError, match="anticommute") as reference:
                reference_contraction.reduce_generators(ops)
            # the group checks only its kept generators (at most 2n < g here)
            with pytest.raises(ValueError, match="anticommute") as checked:
                StabilizerGroup(n, tuple(ops))
            assert str(checked.value) == str(reference.value)
            # the check itself, on all g generators, takes the side under test
            calls.clear()
            with pytest.raises(ValueError, match="anticommute") as direct:
                pauli._check_commuting(ops, n)
            assert str(direct.value) == str(reference.value)
            assert calls == ([g] if side == "masks" else [])

    def test_anticommutation_before_signs_on_masks(self, monkeypatch):
        # +X..X and Z0Zj on 40 qubits, a sign-flipped product of them, then
        # Z0, which anticommutes with X..X: the commutation error comes first
        n = 40
        ghz = list(repetition_state(n).generators)
        ops = ghz + [product(ghz[:3], n).negated(), parse_pauli("Z" + "I" * (n - 1))]
        calls = self._mask_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"\+X{40} and \+ZI{39} anticommute"):
            StabilizerGroup(n, tuple(ops))
        assert calls == [n + 1]  # the 40 kept rows and Z0
        with pytest.raises(MinusIdentityError):
            StabilizerGroup(n, tuple(ops[:-1]))

    def test_large_commuting_groups_pass_on_both_sides(self, monkeypatch, rng):
        sparse = repetition_state(300).generators
        dense = stabilizer_generators(random_graph(rng, 60, 0.5)).generators
        calls = self._mask_calls(monkeypatch)
        assert len(StabilizerGroup(300, sparse)) == 300
        assert calls == [300]
        assert len(StabilizerGroup(60, dense)) == 60
        assert calls == [300]
