import random

import reference_contraction
from conftest import pack_row, relation_masks
from stabnet import gf2


def solve(rows, target):
    """Mask over ``rows`` whose XOR equals ``target``, or None."""
    elim = gf2.Eliminator()
    for row in rows:
        elim.add(row)
    return elim.solve(target)


def span_size(rows):
    """Exhaustive oracle: size of the XOR span of the rows."""
    seen = set()
    for mask in range(1 << len(rows)):
        acc = 0
        for i, row in enumerate(rows):
            if (mask >> i) & 1:
                acc ^= row
        seen.add(acc)
    return len(seen)


def test_pack_unpack_round_trip():
    bits = (1, 0, 1, 1, 0, 0, 1)
    assert tuple((pack_row(bits) >> i) & 1 for i in range(len(bits))) == bits


def test_pack_rejects_non_bits():
    try:
        pack_row([0, 2, 1])
    except ValueError as exc:
        assert "index 1" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_rank_empty_and_zero():
    assert gf2.rank_packed([]) == 0
    assert gf2.rank_packed([0, 0, 0]) == 0


def test_rank_matches_exhaustive_oracle():
    rng = random.Random(17)
    for _ in range(100):
        m = rng.randint(1, 6)
        rows = [rng.getrandbits(5) for _ in range(m)]
        assert 2 ** gf2.rank_packed(rows) == span_size(rows)


def test_rank_is_rows_minus_kernel_up_to_4096_bits():
    # the pivot count against the witnessed elimination, an independent
    # implementation, on dense and sparse rows with zero and repeated rows
    rng = random.Random(67)
    for width in (1, 7, 64, 65, 300, 4096):
        for _ in range(12):
            rows = _dependent_rows(rng, width, rng.randint(1, min(width, 40)), rng.randint(0, 8))
            if rng.random() < 0.5:  # a sparse set: one to three bits a row
                rows = [_xor(1 << rng.randrange(width) for _ in range(rng.randint(1, 3))) for _ in rows]
            rows += [0] * rng.randint(0, 2) + rng.choices(rows, k=rng.randint(0, 3))
            rng.shuffle(rows)
            assert gf2.rank_packed(rows) == len(rows) - len(relation_masks(rows))
    # more rows than columns, and nothing but zero rows
    for rows in ([rng.getrandbits(64) for _ in range(70)], [0] * 9):
        assert gf2.rank_packed(rows) == len(rows) - len(relation_masks(rows))


def test_left_kernel_masks_annihilate():
    rng = random.Random(31)
    for _ in range(50):
        rows = [rng.getrandbits(6) for _ in range(rng.randint(2, 8))]
        kernel = relation_masks(rows)
        assert len(kernel) == len(rows) - gf2.rank_packed(rows)
        for mask in kernel:
            acc = 0
            for i, row in enumerate(rows):
                if (mask >> i) & 1:
                    acc ^= row
            assert acc == 0


def test_solve_combination():
    rows = [0b0011, 0b0101, 0b1001]
    target = 0b0110  # rows[0] ^ rows[1]
    mask = solve(rows, target)
    assert mask == 0b011
    assert solve(rows, 0b0001) is None
    assert solve(rows, 0) == 0


def test_eliminator_reports_dependencies():
    elim = gf2.Eliminator()
    assert elim.add(0b01) is None
    assert elim.add(0b10) is None
    relation = elim.add(0b11)
    assert relation == 0b111  # row2 = row0 ^ row1, own bit included


def test_wide_columns_match_shifted_rows():
    # pivots keyed by column must behave the same far past bit 10 000
    rng = random.Random(53)
    for shift in (10_001, 12_345):
        for _ in range(20):
            rows = [rng.getrandbits(12) for _ in range(rng.randint(2, 16))]
            wide = [row << shift for row in rows]
            assert relation_masks(wide) == relation_masks(rows)
            assert gf2.rank_packed(wide) == gf2.rank_packed(rows)
            target = rows[0] ^ rows[-1]
            assert solve(wide, target << shift) == solve(rows, target)


def test_set_bits():
    assert list(gf2.set_bits(0)) == []
    assert list(gf2.set_bits(0b1011)) == [0, 1, 3]
    assert list(gf2.set_bits(1 << 10_000 | 4)) == [2, 10_000]


def _lowest_first_loop(row):
    """The plain lowest-bit loop, written out for comparison."""
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out


def test_set_bits_matches_loop_across_the_scan_selection():
    # narrow and wide rows up to 61k bits, sparse and dense, lowest bit first
    rng = random.Random(59)
    widths = [1, 63, 1023, 1024, 1025, 4096, 61_000]
    counts = [1, 2, 15, 16, 17, 200]
    for width in widths:
        for count in counts:
            if count > width:
                continue
            for _ in range(3):
                top = 1 << (width - 1)
                row = top | sum(1 << b for b in rng.sample(range(width - 1), count - 1))
                assert list(gf2.set_bits(row)) == _lowest_first_loop(row)
    for width in (1031, 61_000):
        dense = rng.getrandbits(width) | 1 << (width - 1) | 1
        assert list(gf2.set_bits(dense)) == _lowest_first_loop(dense)


def _xor(rows):
    acc = 0
    for row in rows:
        acc ^= row
    return acc


def _dependent_rows(rng, width, independent, dependent):
    """Random rows of ``width`` bits, some XORs of earlier ones, shuffled."""
    rows = [rng.getrandbits(width) for _ in range(independent)]
    for _ in range(dependent):
        rows.append(_xor(row for row in rows if rng.random() < 0.4))
    rng.shuffle(rows)
    return rows


def test_left_kernel_ignores_column_order():
    # the relations depend only on the row order, so any column
    # permutation (and so any pivot rule) gives the same kernel basis
    rng = random.Random(61)
    for _ in range(120):
        width = rng.choice([3, 8, 20, 64, 130])
        rows = _dependent_rows(
            rng, width, rng.randint(1, min(width, 12)), rng.randint(0, 10)
        )
        expected = reference_contraction.left_kernel(rows)
        assert relation_masks(rows) == expected
        for _ in range(3):
            perm = list(range(width))
            rng.shuffle(perm)
            permuted = [_xor(1 << perm[c] for c in gf2.set_bits(row)) for row in rows]
            assert relation_masks(permuted) == expected
            assert gf2.rank_packed(permuted) == len(rows) - len(expected)
