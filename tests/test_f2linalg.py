import random

import pytest

from faicodes.f2linalg import (
    BitMatrix,
    from_text,
    gram,
    insert,
    kernel_basis,
    mul,
    rank,
    row_space_meet_dim,
    rref,
    solve_preimage,
    stack,
    to_text,
)


def rows_from_strings(*lines):
    cols = len(lines[0])
    data = [sum(1 << c for c, ch in enumerate(ln) if ch == "1") for ln in lines]
    return BitMatrix.from_rows(data, cols)


def test_rref_identity():
    m = BitMatrix.identity(2)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1)


def test_rref_duplicate_rows():
    m = rows_from_strings("11", "11")
    red, pivots = rref(m)
    assert red == rows_from_strings("11")
    assert pivots == (0,)


def test_rref_rank_two_example():
    # hand elimination: 101 = 110 + 011, so rank 2 with rows {101, 011}
    m = rows_from_strings("011", "110", "101")
    red, pivots = rref(m)
    assert red == rows_from_strings("101", "011")
    assert pivots == (0, 1)
    assert rank(m) == 2


def test_rank_trivial():
    assert rank(BitMatrix.zeros(3, 3)) == 0
    assert rank(BitMatrix.identity(4)) == 4


def test_rank_degenerate_shapes():
    assert rank(BitMatrix.zeros(0, 0)) == 0
    assert rank(BitMatrix.zeros(0, 4)) == 0
    assert rank(BitMatrix.zeros(3, 0)) == 0  # zero-width rows
    assert rank(BitMatrix.zeros(3, 4)) == 0
    assert rank(rows_from_strings("1", "0", "1")) == 1  # one column
    assert rank(rows_from_strings("0", "0")) == 0


def test_insert_degenerate_and_slot_layout():
    slots = []
    assert insert(slots, 0) is False and slots == []  # no columns: only the zero row
    slots = [0]
    assert insert(slots, 1) is True and slots == [1]
    assert insert(slots, 1) is False and insert(slots, 0) is False
    assert slots == [1]
    rng = random.Random(0xB1)
    for _ in range(100):
        cols = rng.randrange(1, 12)
        rows = [rng.getrandbits(cols) for _ in range(rng.randrange(0, 14))]
        slots = [0] * cols
        kept = sum(insert(slots, row) for row in rows)
        assert kept == rank(BitMatrix.from_rows(rows, cols)) == sum(1 for r in slots if r)
        assert all(r == 0 or r.bit_length() - 1 == c for c, r in enumerate(slots))


def test_kernel_identity_empty():
    assert kernel_basis(BitMatrix.identity(3)).rows == 0


def test_kernel_zero_matrix_full_space():
    k = kernel_basis(BitMatrix.zeros(2, 3))
    assert k.rows == 3
    assert rank(k) == 3


def test_kernel_single_parity_row():
    k = kernel_basis(rows_from_strings("11"))
    assert k.rows == 1
    assert k.data[0] == 0b11


def test_meet_dim_examples():
    eye = BitMatrix.identity(2)
    assert row_space_meet_dim(eye, eye) == 2
    assert row_space_meet_dim(rows_from_strings("10"), rows_from_strings("01")) == 0
    a = rows_from_strings("110", "011")
    b = rows_from_strings("101")
    assert row_space_meet_dim(a, b) == 1


def test_meet_dim_column_mismatch():
    with pytest.raises(ValueError):
        row_space_meet_dim(BitMatrix.identity(2), BitMatrix.identity(3))


def test_gram_examples():
    eye = BitMatrix.identity(3)
    assert gram(eye) == eye
    assert gram(rows_from_strings("111")).data == (1,)
    g = gram(rows_from_strings("1100", "0110"))
    assert [[g.entry(i, j) for j in range(2)] for i in range(2)] == [[0, 1], [1, 0]]


def test_mul_identity_and_shapes():
    a = rows_from_strings("101", "011")
    assert mul(a, BitMatrix.identity(3)) == a
    with pytest.raises(ValueError):
        mul(a, BitMatrix.identity(2))


def test_solve_preimage_examples():
    eye = BitMatrix.identity(4)
    assert solve_preimage(eye, 0b1010) == 0b1010
    m = rows_from_strings("110", "011")
    x = solve_preimage(m, 0b101)  # "101" as an int is bits 0 and 2
    assert x == 0b11
    assert solve_preimage(m, 0b100) is None


def _solve_preimage_reference(m, y):
    """The earlier solver: Gauss-Jordan on (row, combination) pairs, y reduced column by column."""
    aug = [(m.data[i], 1 << i) for i in range(m.rows)]
    combo = 0
    row = 0
    for col in range(m.cols):
        bit = 1 << col
        pivot = next((r for r in range(row, len(aug)) if aug[r][0] & bit), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        prow, pcombo = aug[row]
        for r in range(len(aug)):
            if r != row and aug[r][0] & bit:
                aug[r] = (aug[r][0] ^ prow, aug[r][1] ^ pcombo)
        if y & bit:
            y ^= prow
            combo ^= pcombo
        row += 1
        if row == len(aug):
            break
    return combo if y == 0 else None


def test_solve_preimage_matches_reference_solution():
    # the same x, not just a valid one: witness_g in the analyze report is this x
    rng = random.Random(0x5E)
    matrices = [BitMatrix.zeros(0, 0), BitMatrix.zeros(0, 5), BitMatrix.zeros(4, 0), BitMatrix.zeros(3, 6)]
    for _ in range(400):
        cols = rng.randrange(1, 12)
        rows = [rng.getrandbits(cols) for _ in range(rng.randrange(1, 16))]
        if rng.random() < 0.5:  # a dependent row: several solutions
            rows.append(rows[0] ^ rows[-1])
        matrices.append(BitMatrix.from_rows(rows, cols))
    seen = {"inconsistent": 0, "several": 0}
    for m in matrices:
        spanned = 0
        for row in m.data:
            if rng.getrandbits(1):
                spanned ^= row
        for y in (0, spanned, rng.getrandbits(m.cols) if m.cols else 0):
            x = solve_preimage(m, y)
            assert x == _solve_preimage_reference(m, y), (m, y)
            if x is None:
                seen["inconsistent"] += 1
            elif rank(m) < m.rows:
                seen["several"] += 1
    assert min(seen.values()) > 50, seen
    # greedy insert keeps rows {0, 1, 3}; Gauss-Jordan's pivot rows are {1, 2, 3}
    m = BitMatrix.from_rows([0b110, 0b010, 0b100, 0b001], 3)
    slots = [0] * 3
    assert [insert(slots, row) for row in m.data] == [True, True, False, True]
    assert solve_preimage(m, 0b111) == 0b1110


def test_solve_preimage_target_range():
    with pytest.raises(ValueError):
        solve_preimage(BitMatrix.identity(2), 0b100)


def test_empty_matrix_conventions():
    empty = BitMatrix.zeros(0, 5)
    assert rank(empty) == 0
    assert kernel_basis(empty).rows == 5


def test_invalid_rows_rejected():
    with pytest.raises(ValueError):
        BitMatrix.from_rows([0b100], 2)  # stray bit beyond the columns


def test_text_roundtrip_and_errors():
    m = rows_from_strings("0110", "1001")
    assert from_text(to_text(m)) == m
    with pytest.raises(ValueError):
        from_text("2 3\n010\n")  # missing a row
    with pytest.raises(ValueError):
        from_text("1 3\n01x\n")


def test_random_invariants():
    rng = random.Random(0xF2)
    for _ in range(300):
        cols = rng.randrange(1, 12)
        m = BitMatrix.from_rows(
            (rng.getrandbits(cols) for _ in range(rng.randrange(1, 14))), cols
        )
        red, pivots = rref(m)
        assert rref(red) == (red, pivots)
        assert rank(m) == len(pivots)
        assert list(pivots) == sorted(pivots)
        kern = kernel_basis(m)
        assert rank(kern) + rank(m) == cols
        for x in kern.data:
            assert all((row & x).bit_count() % 2 == 0 for row in m.data)
        g = gram(m)
        assert all(
            g.entry(i, j) == g.entry(j, i) for i in range(m.rows) for j in range(m.rows)
        )
        other = BitMatrix.from_rows(
            (rng.getrandbits(cols) for _ in range(rng.randrange(1, 6))), cols
        )
        meet = row_space_meet_dim(m, other)
        assert meet >= 0
        assert (rank(stack(m, other)) == rank(m) + rank(other)) == (meet == 0)
