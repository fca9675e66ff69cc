import json
import time
from itertools import combinations, product as iproduct
from math import comb

import numpy as np
import pytest

from conftest import commute, conjugated, groups_equal, member, permuted
import dense_oracle as oracle
import reference_codes as reference
from stabnet import codes
from stabnet.codes import (
    StabilizerCode,
    compose,
    distance,
    five_qubit_code,
    singleton_max_distance,
    storage_bound,
)
from stabnet.contraction import BellConvention
from stabnet.pauli import MinusIdentityError, PauliOperator, StabilizerGroup, letter_rows, parse_pauli, support_masks

TRIANGLE_PAIRINGS = ((3, 8), (9, 14), (13, 4))
NINE_QUBIT = [
    "XZZXIXZZX",
    "XIXXZZXZZ",
    "IXZZXIIXZ",
    "ZXIIXZZXI",
    "ZYYXZZIII",
    "YXXYXXIII",
]


def triangle_code():
    return compose([five_qubit_code()] * 3, TRIANGLE_PAIRINGS, BellConvention.GRAPH_EDGE)


def random_code(rng, n: int, k: int) -> StabilizerCode:
    """n - k generators: Z on the first n - k qubits pushed through a random
    circuit of H, S and CNOT gates, tracked on bit patterns only (every
    gate is symplectic, so the rows stay independent and commuting), then
    given random signs."""
    xs, zs = [0] * (n - k), [1 << i for i in range(n - k)]
    for _ in range(2 * n * n):
        gate, a, b = rng.randrange(3), rng.randrange(n), rng.randrange(n)
        for i in range(n - k):
            xa, za = (xs[i] >> a) & 1, (zs[i] >> a) & 1
            if gate == 0:  # H on a
                xs[i] ^= (xa ^ za) << a
                zs[i] ^= (xa ^ za) << a
            elif gate == 1:  # S on a
                zs[i] ^= xa << a
            elif a != b:  # CNOT a -> b
                xs[i] ^= xa << b
                zs[i] ^= ((zs[i] >> b) & 1) << a
    gens = (PauliOperator(n, x, z, rng.choice((0, 2))) for x, z in zip(xs, zs))
    return StabilizerCode(StabilizerGroup(n, tuple(gens)))


def random_ring(rng, pool, m: int):
    """m codes drawn from ``pool``, code j glued by one random port to a
    random port of code j + 1; None if the contraction annihilates."""
    members = [rng.choice(pool) for _ in range(m)]
    offsets = [sum(c.n for c in members[:j]) for j in range(m)]
    ports = [rng.sample(range(c.n), 2) for c in members]
    pairings = [
        (offsets[j] + ports[j][1], offsets[(j + 1) % m] + ports[(j + 1) % m][0])
        for j in range(m)
    ]
    convention = rng.choice(list(BellConvention))
    try:
        return compose(members, pairings, convention), convention
    except MinusIdentityError:
        return None, convention


def correctable_single_errors(code: StabilizerCode) -> bool:
    """Every weight-1 Pauli anticommutes with at least one generator."""
    for q in range(code.n):
        for xb, zb in ((1, 0), (1, 1), (0, 1)):  # X, Y, Z
            err = PauliOperator(code.n, xb << q, zb << q, 0)
            if all(commute(err, g) for g in code.group.generators):
                return False
    return True


class TestFiveQubitCode:
    def test_parameters(self):
        code = five_qubit_code()
        assert (code.n, code.k) == (5, 1)
        assert len(code.group.generators) == 4

    def test_all_pairs_commute(self):
        gens = five_qubit_code().group.generators
        for a, b in combinations(gens, 2):
            assert commute(a, b)

    def test_distance_is_three(self):
        start = time.monotonic()
        assert distance(five_qubit_code(), 5) == 3
        assert time.monotonic() - start < 1.0

    def test_json_round_trip(self):
        code = five_qubit_code()
        again = StabilizerCode.from_json(code.to_json())
        assert groups_equal(again.group, code.group)
        assert again.distance == 3

    def test_json_rejects_wrong_k(self):
        payload = json.loads(five_qubit_code().to_json())
        payload["k"] = 2
        with pytest.raises(ValueError):
            StabilizerCode.from_json(json.dumps(payload))

    def test_negative_qubit_count_is_refused(self):
        # a negative n used to build a group with k = n and reach the
        # distance search, which failed on a negative shift
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            StabilizerCode.from_json('{"n": -1, "generators": []}')
        with pytest.raises(ValueError, match=r"^qubit count must be >= 0, got -2$"):
            StabilizerGroup(-2, ())
        empty = StabilizerCode.from_json('{"n": 0, "generators": []}')
        assert (empty.n, empty.k) == (0, 0)


class TestCompose:
    def test_triangle_parameters(self):
        comp = triangle_code()
        assert (comp.n, comp.k) == (9, 3)
        assert len(comp.group.generators) == 6
        # logical counting: residual = boundary - sum of k_i
        assert len(comp.group.generators) == 9 - 3

    def test_triangle_matches_listed_generators(self):
        comp = triangle_code()
        listed = StabilizerGroup.from_strings(NINE_QUBIT)
        assert groups_equal(comp.group, listed)
        # under the graph-edge convention every listed string is a member
        # with positive sign
        for s in NINE_QUBIT:
            element = member(comp.group, parse_pauli(s))
            assert element is not None and element.phase == 0

    def test_plus_pair_convention_differs(self):
        comp = compose(
            [five_qubit_code()] * 3, TRIANGLE_PAIRINGS, BellConvention.PLUS_PAIR
        )
        assert (comp.n, comp.k) == (9, 3)
        listed = StabilizerGroup.from_strings(NINE_QUBIT)
        assert not groups_equal(comp.group, listed)

    def test_single_code_no_pairings(self):
        code = five_qubit_code()
        comp = compose([code], ())
        assert groups_equal(comp.group, code.group)

    def test_bell_swapping_at_code_level(self):
        bell = StabilizerCode(StabilizerGroup.from_strings(["XX", "ZZ"]))
        comp = compose([bell, bell], [(1, 2)])
        assert (comp.n, comp.k) == (2, 0)
        assert groups_equal(comp.group, bell.group)
        dense = oracle.dense_contract(
            [oracle.bell_vector("plus-pair")] * 2, [(1, 2)], "plus-pair"
        )
        target = np.zeros(4, dtype=complex)
        target[0] = target[3] = 1
        assert abs(dense.overlap_magnitude(oracle.DenseState(2, target)) - 1) < 1e-12

    def test_annihilating_composition_raises(self):
        plus_bell = StabilizerCode(StabilizerGroup.from_strings(["XX", "ZZ"]))
        edge_bell = StabilizerCode(StabilizerGroup.from_strings(["XZ", "ZX"]))
        with pytest.raises(MinusIdentityError, match=r"^contraction produced -I: empty composed code space$"):
            compose([plus_bell, edge_bell], [(0, 2), (1, 3)])

    def test_triangle_code_space_dense(self):
        # 2^3 logical basis combinations contract to an 8-dimensional
        # space fixed by every composed generator
        comp = triangle_code()
        basis5 = oracle.code_space_basis(five_qubit_code().group)
        vectors = []
        for i, j, k in iproduct(range(2), repeat=3):
            v = oracle.kron([basis5[i], basis5[j], basis5[k]], cap=15)
            w = oracle.dense_contract(v, TRIANGLE_PAIRINGS, "graph-edge", cap=15)
            vectors.append(w.amplitudes)
        m = np.array(vectors)
        assert np.linalg.matrix_rank(m, tol=1e-9) == 8
        for gen in comp.group.generators:
            for amps in vectors:
                state = oracle.DenseState(9, amps)
                moved = oracle.apply_pauli(state, gen)
                assert np.allclose(moved.amplitudes, state.amplitudes, atol=1e-9)


class TestDistance:
    def test_composed_code_distance_three(self):
        start = time.monotonic()
        assert distance(triangle_code(), 4) == 3
        assert time.monotonic() - start < 10.0

    def test_ghz_repetition_distance_one(self):
        code = StabilizerCode(StabilizerGroup.from_strings(["ZZI", "IZZ"]))
        assert code.k == 1
        assert distance(code, 3) == 1  # bare Z is an undetected logical

    def test_four_two_two(self):
        code = StabilizerCode(StabilizerGroup.from_strings(["XXXX", "ZZZZ"]))
        assert distance(code, 4) == 2

    def test_cap_exceeded_returns_none(self):
        assert distance(five_qubit_code(), 2) is None

    def test_budget_refusal(self):
        code = five_qubit_code()
        with pytest.raises(ValueError, match=r"^1023 candidates up to weight 5 exceed the budget 10$"):
            distance(code, 5, budget=10)

    def test_sign_flipped_stabilizer_is_not_logical(self):
        # -g has the stabilizer's bit pattern; membership ignores the sign
        code = five_qubit_code()
        flipped = code.group.generators[0].negated()
        assert all(commute(flipped, g) for g in code.group.generators)
        assert distance(code, 5) == 3  # would be 4 if -g counted as logical

    def test_only_logicals_on_the_last_two_qubits(self):
        # every weight-2 logical of this [[6, 1, 2]] code sits on qubits 4
        # and 5, so a walk that never ends a candidate there reports None
        code = StabilizerCode(
            StabilizerGroup.from_strings(["-IZIYII", "-ZZXYII", "-ZXIZXZ", "+YXZXYX", "-IZIYYX"])
        )
        assert distance(code, 2) == reference.distance(code, 2) == 2
        assert distance(code, 1) is None

    def test_letter_rows_keep_the_xyz_layout(self, rng):
        # X, Y, Z on qubit q: the search walks the letters in this order
        bell = StabilizerGroup.from_strings(["XX", "ZZ"]).generators
        assert letter_rows(bell, 2) == [
            ((0b10, 0b0001), (0b11, 0b0101), (0b01, 0b0100)),
            ((0b10, 0b0010), (0b11, 0b1010), (0b01, 0b1000)),
        ]
        # the rows and syndromes distance spelled out before they moved
        for n in (1, 5, 9, 15):
            gens = [PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(n)]
            sz, sx = support_masks(gens, n)
            assert letter_rows(gens, n) == [
                ((sx[q], 1 << q), (sx[q] ^ sz[q], (1 << q) | (1 << (q + n))), (sz[q], 1 << (q + n)))
                for q in range(n)
            ]

    def test_walk_is_not_bounded_by_recursion_limit(self):
        # prefixes are walked on an explicit stack: 2999 letters deep is
        # far past the default recursion limit
        n = 3000
        letters = [((1, 1 << q),) * 3 for q in range(n)]
        syndrome, row, start = next(codes._prefixes(letters, n - 1))
        assert (syndrome, row, start) == (1, (1 << (n - 1)) - 1, n - 1)

    def test_every_single_qubit_error_is_detected(self):
        comp = triangle_code()
        assert correctable_single_errors(comp)
        count = 0
        for q in range(9):
            for letter in "XYZ":
                err = parse_pauli(
                    "".join(letter if i == q else "I" for i in range(9))
                )
                assert any(not commute(err, g) for g in comp.group.generators)
                count += 1
        assert count == 27

    def test_two_erasures_recoverable(self):
        # any centralizer element supported inside two positions is a
        # stabilizer member, so losing those qubits loses no logical data
        comp = triangle_code()
        for pair in combinations(range(9), 2):
            for xbits, zbits in iproduct(range(4), repeat=2):
                x = z = 0
                for idx, q in enumerate(pair):
                    x |= ((xbits >> idx) & 1) << q
                    z |= ((zbits >> idx) & 1) << q
                if x == 0 and z == 0:
                    continue
                op = PauliOperator(9, x, z, 0)
                if all(commute(op, g) for g in comp.group.generators):
                    assert member(comp.group, op) is not None


class TestMatchesReference:
    """The syndrome-table search against the plain loop in
    ``reference_codes``: same distance, same budget refusals."""

    def test_random_codes(self, rng):
        results = []
        for _ in range(400):
            n = rng.randint(1, 10)
            k = min(rng.randint(0, n), rng.randint(0, n))  # more checks, larger d
            code = random_code(rng, n, k)
            # caps run up to n; the largest codes stop near 10^5
            # candidates so the plain loop stays fast
            cap = rng.randint(1, n)
            while sum(comb(n, w) * 3**w for w in range(1, cap + 1)) > 100_000:
                cap -= 1
            total = sum(comb(n, w) * 3**w for w in range(1, cap + 1))
            d = distance(code, cap, budget=total)
            assert d == reference.distance(code, cap, budget=total), code.group.to_strings()
            results.append((n, k, cap, d))
        assert any(d is None for n, k, cap, d in results if k > 0)
        assert any(d is None for n, k, cap, d in results if k == 0)
        assert any(k == n for n, k, cap, d in results)
        assert any(cap == n > 6 for n, k, cap, d in results)
        assert {d for *_, d in results} >= {None, 1, 2, 3}

    def test_composed_rings(self, rng):
        pool = [
            five_qubit_code(),
            StabilizerCode(StabilizerGroup.from_strings(["XXXX", "ZZZZ"])),
            StabilizerCode(StabilizerGroup.from_strings(["ZZI", "IZZ"])),
        ]
        seen = set()
        for _ in range(150):
            m = rng.randint(3, 5)
            ring, convention = random_ring(rng, pool if rng.random() < 0.5 else pool[:1], m)
            if ring is None:
                continue
            cap = rng.randint(1, 4)
            d = distance(ring, cap)
            assert d == reference.distance(ring, cap), ring.group.to_strings()
            seen.add((convention, d))
        assert {c for c, _ in seen} == set(BellConvention)
        assert {d for _, d in seen} >= {None, 1, 2, 3}

    def test_budget_refusals(self, rng):
        for _ in range(100):
            n = rng.randint(1, 16)
            code = random_code(rng, n, rng.randint(0, n))
            cap = rng.randint(1, n + 2)
            total = sum(comb(n, w) * 3**w for w in range(1, min(cap, n) + 1))
            messages = []
            for search in (distance, reference.distance):
                with pytest.raises(ValueError, match="exceed the budget") as err:
                    search(code, cap, budget=total - 1)
                messages.append(str(err.value))
            assert messages[0] == messages[1]
            assert messages[0].startswith(f"{total} candidates up to weight {cap} ")

    def test_weight_cap_below_one(self):
        for search in (distance, reference.distance):
            with pytest.raises(ValueError, match="weight_cap must be >= 1"):
                search(five_qubit_code(), 0)


class TestMetamorphic:
    """Distance invariants beyond the reference loop's reach (n > 12)."""

    def codes(self, rng):
        pool = [five_qubit_code()]
        while True:
            ring, _ = random_ring(rng, pool, 5)  # [[15, 5]]
            if ring is not None:
                yield ring
            n = rng.randint(13, 16)
            yield random_code(rng, n, rng.randint(n // 2, n - 1))

    def test_qubit_permutation(self, rng):
        gen = self.codes(rng)
        for _ in range(40):
            code = next(gen)
            perm = list(range(code.n))
            rng.shuffle(perm)
            assert distance(StabilizerCode(permuted(code.group, perm)), 4) == distance(code, 4)

    def test_local_clifford(self, rng):
        gen = self.codes(rng)
        found = set()
        for _ in range(40):
            code = next(gen)
            d = distance(code, 4)
            moved = code
            for _ in range(rng.randint(1, 2 * code.n)):
                moved = StabilizerCode(conjugated(moved.group, rng.randrange(code.n), rng.choice("HS")))
            assert distance(moved, 4) == d
            found.add(d)
        assert {1, 3} <= found

    def test_single_gates_move_letters(self):
        # the five-qubit code's first generator XZZXI under H and S on qubit 0
        code = five_qubit_code()
        h = conjugated(code.group, 0, "H").generators[0]
        s = conjugated(code.group, 0, "S").generators[0]
        assert (h.to_string(), s.to_string()) == ("+ZZZXI", "+YZZXI")
        y = conjugated(conjugated(code.group, 0, "S"), 0, "S").generators[0]
        assert y.to_string() == "-XZZXI"  # S^2 = Z flips X


class TestBounds:
    def test_singleton_examples(self):
        assert singleton_max_distance(5, 1) == 3
        assert singleton_max_distance(9, 3) == 4
        assert singleton_max_distance(7, 7) == 1

    def test_singleton_rejects_bad_k(self):
        with pytest.raises(ValueError):
            singleton_max_distance(4, 5)

    def test_storage_bound_triangle(self):
        assert storage_bound(9, 3, 5, 1, 3) == 4

    def test_storage_bound_single_saturating_code(self):
        # one node, no composition: reduces to the code's own singleton bound
        assert storage_bound(5, 1, 5, 1, 3) == singleton_max_distance(5, 1)

    def test_storage_bound_rejects_overfull_boundary(self):
        with pytest.raises(ValueError):
            storage_bound(4, 3, 5, 2, 3)

    def test_overfull_boundary_names_an_unprintable_product(self):
        # k * m of 8600 digits: the refusal used to be the interpreter's own
        # int-print error; every printable product keeps its digits
        nines = int("9" * 4300)
        try:
            shown = str(nines * nines)
        except ValueError:
            shown = "k · m"
        with pytest.raises(ValueError) as exc:
            storage_bound(9, nines, 1, nines, 1)
        assert str(exc.value) == f"boundary 9 cannot store {shown} logical qubits"
        with pytest.raises(ValueError) as exc:
            storage_bound(2, 3, 5, 1, 3)
        assert str(exc.value) == "boundary 2 cannot store 3 logical qubits"

    def test_storage_bound_rejects_codes_past_singleton(self):
        with pytest.raises(ValueError, match=r"^no \[\[5, 1, 4\]\] code exists: k > l - 2\(d - 1\)$"):
            storage_bound(9, 3, 5, 1, 4)
        with pytest.raises(ValueError, match=r"^no \[\[1, 1, 100\]\] code exists"):
            storage_bound(1, 1, 1, 1, 100)
        # the positivity and boundary checks still come first
        with pytest.raises(ValueError, match="^m must be positive"):
            storage_bound(9, 0, 5, 1, 4)
        with pytest.raises(ValueError, match="^boundary 2 cannot store 3"):
            storage_bound(2, 3, 5, 1, 4)

    def test_storage_bound_refuses_or_is_positive(self, rng):
        # every (B, m, l, k, d) that passes the checks has a bound of at least 1
        accepted = 0
        for _ in range(2000):
            args = [rng.randint(0, top) for top in (30, 4, 12, 4, 6)]
            try:
                bound = storage_bound(*args)
            except ValueError:
                continue
            assert bound >= 1, args
            accepted += 1
        assert accepted > 300  # the draws reach the formula, not only the refusals

    def test_distance_never_exceeds_singleton(self):
        for code in (
            five_qubit_code(),
            triangle_code(),
            StabilizerCode(StabilizerGroup.from_strings(["XXXX", "ZZZZ"])),
            StabilizerCode(StabilizerGroup.from_strings(["ZZI", "IZZ"])),
        ):
            d = distance(code, code.n)
            if d is not None:
                assert d <= singleton_max_distance(code.n, code.k)


class TestStorageBoundProperty:
    """Randomized compositions of identical small codes stay within the
    distance ceiling."""

    POOL = [
        (5, 1, 3, ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]),
        (4, 2, 2, ["XXXX", "ZZZZ"]),
        (3, 1, 1, ["ZZI", "IZZ"]),
    ]

    def test_fifty_random_compositions(self, rng):
        checked = 0
        attempts = 0
        while checked < 50 and attempts < 500:
            attempts += 1
            l, k, d, strings = rng.choice(self.POOL)
            m = rng.randint(2, 3)
            code = StabilizerCode(StabilizerGroup.from_strings(strings))
            # ring of contractions: one random port of code i against one of
            # code i+1, with every paired qubit distinct
            pairings = []
            used = set()
            ok = True
            for i in range(m if m > 2 else 1):
                j = (i + 1) % m
                free_i = [q for q in range(i * l, (i + 1) * l) if q not in used]
                free_j = [q for q in range(j * l, (j + 1) * l) if q not in used]
                if not free_i or not free_j:
                    ok = False
                    break
                a, b = rng.choice(free_i), rng.choice(free_j)
                used.update((a, b))
                pairings.append((a, b))
            if not ok:
                continue
            boundary = m * l - 2 * len(pairings)
            if boundary < k * m or boundary < 1:
                continue
            try:
                comp = compose([code] * m, pairings)
            except MinusIdentityError:
                continue
            if comp.k != k * m:
                continue
            bound = storage_bound(boundary, m, l, k, d)
            measured = distance(comp, min(bound, comp.n))
            assert measured is not None, "distance exceeded the storage bound"
            assert measured <= bound
            assert measured <= singleton_max_distance(comp.n, comp.k)
            checked += 1
        assert checked == 50
