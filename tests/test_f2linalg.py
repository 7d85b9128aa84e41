import random

import pytest

from faicodes.f2linalg import (
    BitMatrix,
    _benes,
    _gauss_jordan,
    _permute,
    from_text,
    gather,
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
from faicodes.immunity import _degree_order


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
    assert rank(BitMatrix.from_rows((0,) * 3, 3)) == 0
    assert rank(BitMatrix.identity(4)) == 4


def test_rank_degenerate_shapes():
    assert rank(BitMatrix.from_rows((), 0)) == 0
    assert rank(BitMatrix.from_rows((), 4)) == 0
    assert rank(BitMatrix.from_rows((0,) * 3, 0)) == 0  # zero-width rows
    assert rank(BitMatrix.from_rows((0,) * 3, 4)) == 0
    assert rank(rows_from_strings("1", "0", "1")) == 1  # one column
    assert rank(rows_from_strings("0", "0")) == 0


def test_insert_degenerate_and_slot_layout():
    slots = [0]
    assert insert(slots, 0) is False and slots == [0]  # no columns: only the zero row
    slots = [0, 0]
    assert insert(slots, 1) is True and slots == [0, 1]
    assert insert(slots, 1) is False and insert(slots, 0) is False
    assert slots == [0, 1]
    rng = random.Random(0xB1)
    for _ in range(100):
        cols = rng.randrange(1, 12)
        rows = [rng.getrandbits(cols) for _ in range(rng.randrange(0, 14))]
        slots = [0] * (cols + 1)
        kept = sum(insert(slots, row) for row in rows)
        assert kept == rank(BitMatrix.from_rows(rows, cols)) == sum(1 for r in slots if r)
        assert slots[0] == 0
        assert all(r == 0 or r.bit_length() - 1 == c for c, r in enumerate(slots[1:]))


def _insert_reference(slots, row):
    """The earlier loop: slots[c] holds the row led by bit c, no sentinel."""
    while row:
        lead = row.bit_length() - 1
        other = slots[lead]
        if not other:
            slots[lead] = row
            return True
        row ^= other
    return False


def test_insert_matches_reference_loop():
    # same verdicts and the same basis rows, one slot over; the sentinel stays 0
    rng = random.Random(0x1A)
    seen = {"zero": 0, "dependent": 0, "kept": 0}
    for _ in range(300):
        cols = rng.randrange(0, 70)
        slots, ref = [0] * (cols + 1), [0] * cols
        rows = []
        for _ in range(rng.randrange(0, 2 * cols + 3)):
            pick = rng.random()
            if pick < 0.1 or not cols:
                row = 0
            elif pick < 0.3 and rows:  # a combination of earlier rows
                row = 0
                for r in rng.sample(rows, rng.randrange(1, len(rows) + 1)):
                    row ^= r
            else:
                row = rng.getrandbits(cols) >> rng.randrange(cols)  # varied leads
            rows.append(row)
            got = insert(slots, row)
            assert got is _insert_reference(ref, row), (cols, rows)
            assert slots[0] == 0 and slots[1:] == ref, (cols, rows)
            seen["kept" if got else "zero" if row == 0 else "dependent"] += 1
    assert min(seen.values()) > 100, seen


def _gauss_jordan_reference(work, cols):
    """The earlier loop: a pivot search at every column."""
    pivots = []
    for col in cols:
        row = len(pivots)
        if row == len(work):
            break
        bit = 1 << col
        pivot = next((r for r in range(row, len(work)) if work[r] & bit), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        prow = work[row]
        for r in range(len(work)):
            if r != row and work[r] & bit:
                work[r] ^= prow
        pivots.append(col)
    return pivots


def test_gauss_jordan_matches_reference_loop():
    # identical pivots and work, column skips included, on every shape its callers pass
    rng = random.Random(0x6A)
    # empty, zero-width, zero-row and tag-only matrices first
    cases = [([], range(0)), ([], range(4)), ([0, 0, 0], range(0)), ([0, 0], range(5)), ([1 << 3, 1 << 4], range(3))]
    for _ in range(600):
        cols = rng.randrange(0, 24)
        rows = [rng.getrandbits(cols) if cols else 0 for _ in range(rng.randrange(0, 20))]
        for i in rng.sample(range(len(rows)), len(rows) // 4):  # zero rows and sparse rows
            rows[i] &= (rng.getrandbits(cols) & rng.getrandbits(cols)) if rng.getrandbits(1) else 0
        kind = rng.randrange(3)
        if kind == 0:  # every column, as rref
            cases.append((rows, range(cols)))
        elif kind == 1:  # tagged rows, as solve_preimage
            cases.append(([row | 1 << (cols + i) for i, row in enumerate(rows)], range(cols)))
        else:  # a sorted column subset, as codes.shorten
            cases.append((rows, sorted(rng.sample(range(cols), rng.randrange(0, cols + 1)))))
    for rows, cols in cases:
        work, ref = list(rows), list(rows)
        assert _gauss_jordan(work, cols) == _gauss_jordan_reference(ref, cols), (rows, cols)
        assert work == ref, (rows, cols)


def test_kernel_identity_empty():
    assert kernel_basis(BitMatrix.identity(3)).rows == 0


def test_kernel_zero_matrix_full_space():
    k = kernel_basis(BitMatrix.from_rows((0,) * 2, 3))
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
    shapes = (((), 0), ((), 5), ((0,) * 4, 0), ((0,) * 3, 6))
    matrices = [BitMatrix.from_rows(rows, cols) for rows, cols in shapes]
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
    slots = [0] * 4
    assert [insert(slots, row) for row in m.data] == [True, True, False, True]
    assert solve_preimage(m, 0b111) == 0b1110


def test_solve_preimage_target_range():
    with pytest.raises(ValueError):
        solve_preimage(BitMatrix.identity(2), 0b100)


def test_empty_matrix_conventions():
    empty = BitMatrix.from_rows((), 5)
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
    with pytest.raises(ValueError, match="bad matrix row"):
        from_text("2 3\n010\n01\n")  # a short row
    with pytest.raises(ValueError, match="bad matrix row"):
        from_text("2 0\n\n1\n")  # a row wider than 0 columns
    with pytest.raises(ValueError, match="expected 3 row lines, got 2"):
        from_text("3 0\n\n\n")  # one zero-width row missing
    # comments are skipped, and blank lines after the rows are not rows
    assert from_text("# c\n2 0\n# c\n\n\n\n\n") == BitMatrix.from_rows((0, 0), 0)
    # a size is unsigned decimal digits; a negative row count must not reach the blank-line trim
    # nor may a full-width digit pass as one
    for text in ("-1 3\n", "-2 0\n\n", "1 -3\n101\n", "+1 3\n101\n", "1_0 0\n", "1 3 4\n101\n", "３ ３\n101\n010\n111\n"):
        with pytest.raises(ValueError, match="bad matrix header"):
            from_text(text)


def test_to_text_matches_per_column_loop():
    rng = random.Random(0x7E)
    shapes = [(0, 0), (3, 0), (0, 5), (1, 1), *((rng.randrange(1, 9), rng.randrange(1, 70)) for _ in range(40))]
    for rows, cols in shapes:
        # the top columns stay zero in most rows, so the text must keep its trailing 0s
        top = rng.randrange(0, cols + 1)
        m = BitMatrix.from_rows((rng.getrandbits(top) for _ in range(rows)), cols)
        lines = ["".join("1" if (row >> c) & 1 else "0" for c in range(cols)) for row in m.data]
        assert to_text(m) == "\n".join([f"{rows} {cols}", *lines]) + "\n", (rows, cols)
        assert from_text(to_text(m)) == m  # a zero-width row is an empty line


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BitMatrix(-1, 2, ()), "negative matrix shape"),
        (lambda: BitMatrix(2, 2, (0,)), "expected 2 rows, got 1"),
        (lambda: from_text("# header only\n\n"), "empty matrix text"),
        (lambda: from_text("2 x\n01\n10\n"), "bad matrix header"),
    ],
    ids=["negative-shape", "row-count", "empty-text", "bad-header"],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _bit_loop(bits, pos):
    """Reference permutation: bit i moves to bit pos[i], one bit at a time."""
    acc = 0
    while bits:
        low = bits & -bits
        acc |= 1 << pos[low.bit_length() - 1]
        bits ^= low
    return acc


def _rows(size, rng):
    return [0, (1 << size) - 1, *(1 << i for i in range(size)), *(rng.getrandbits(size) for _ in range(8))]


def test_degree_order_network_matches_bit_loop():
    rng = random.Random(20)
    for n in range(1, 13):
        size = 1 << n
        masks = sorted(range(size), key=lambda m: (m.bit_count(), m))
        pos = [0] * size
        for p, m in enumerate(masks):
            pos[m] = p
        order = _degree_order(n)
        assert len(order.to_degree) <= 2 * n - 1
        assert order.deg_at == tuple(m.bit_count() for m in masks)
        for row in _rows(size, rng):
            assert _permute(row, order.to_degree) == _bit_loop(row, pos), (n, row)
            # reversed, the row-stride masks act on one 2^n-bit row as the plain network does
            assert _permute(row, order.to_degree[::-1]) == _bit_loop(row, masks), (n, row)


def test_benes_routes_random_permutations():
    rng = random.Random(21)
    for t in range(1, 13):
        size = 1 << t
        for _ in range(3 if t < 10 else 1):
            perm = list(range(size))
            rng.shuffle(perm)
            inverse = [0] * size
            for i, p in enumerate(perm):
                inverse[p] = i
            network = _benes(perm)
            assert len(network) <= 2 * t - 1
            for row in _rows(size, rng):
                assert _permute(row, network) == _bit_loop(row, perm)
                assert _permute(row, network[::-1]) == _bit_loop(row, inverse)


def test_reversed_benes_network_gathers():
    rng = random.Random(22)
    for t in range(1, 13):
        size = 1 << t
        for _ in range(3 if t < 10 else 1):
            order = list(range(size))
            rng.shuffle(order)
            network = _benes(order)[::-1]
            for row in _rows(size, rng):
                assert _permute(row, network) == gather(row, order), (t, row)
