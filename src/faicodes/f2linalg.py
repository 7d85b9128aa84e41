"""Bit-packed linear algebra over GF(2).

Rows are stored as Python ints (bit c = column c), so row operations are
word-parallel XORs no matter how wide the matrix gets.

Every elimination in the library runs through one of two kernels:

- `_gauss_jordan(work, cols)` eliminates in place over cols, in the given
  order, and returns the pivot columns.  Each pivot is the first remaining
  row with that bit; the i-th ends in work[i], its column clear in every
  other row, so the rows past the pivots vanish on cols.  Bits outside cols
  ride along as a combination tag.  A column that no remaining row touches
  is skipped without a search.  Callers: `rref` (the canonical lowest-pivot
  form that codes print), `solve_preimage`, `codes.shorten`.
- `insert(slots, row)` reduces a row into a highest-pivot XOR basis and
  keeps it, returning True, when it is independent.  The slots are indexed
  by `row.bit_length()`: slots[c + 1] holds the row led by bit c, and
  slots[0] is a zero sentinel that ends the reduction of a dependent row,
  so a basis for rows of width w needs w + 1 slots.  Callers: `rank` and
  every incremental basis.

Four bit helpers, none of them an elimination, hold the idioms the other
modules share: `transpose` turns rows into columns, `combine` XORs the items
a selector's set bits pick, `gather` reads bit positions[j] of an int into
bit j, and the router `_benes` turns a fixed permutation of 2^t bits into
masked delta swaps that `_permute` applies (the degree order of the product
pass, and the point order of the RM rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class BitMatrix:
    """Immutable GF(2) matrix; ``data[r]`` holds row r with bit c = column c."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(self.data) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.data)}")
        mask = (1 << self.cols) - 1
        for r in self.data:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")

    @staticmethod
    def from_rows(rows: Iterable[int], cols: int) -> BitMatrix:
        data = tuple(rows)
        return BitMatrix(len(data), cols, data)

    @staticmethod
    def identity(k: int) -> BitMatrix:
        return BitMatrix(k, k, tuple(1 << i for i in range(k)))

    def entry(self, r: int, c: int) -> int:
        return (self.data[r] >> c) & 1


def _gauss_jordan(work: list[int], cols: Iterable[int]) -> list[int]:
    """Gauss-Jordan elimination in place over cols, in order; returns the pivot columns.

    live covers every row past the pivots: it starts as the OR of all rows,
    and a row operation never sets a bit outside it.  It is recomputed over
    those rows only when a pivot search misses.
    """
    pivots: list[int] = []
    live = 0
    for r in work:
        live |= r
    for col in cols:
        row = len(pivots)
        if row == len(work):
            break
        bit = 1 << col
        if not live & bit:
            continue
        pivot = next((r for r in range(row, len(work)) if work[r] & bit), None)
        if pivot is None:
            live = 0
            for r in work[row:]:
                live |= r
            continue
        work[row], work[pivot] = work[pivot], work[row]
        prow = work[row]
        for r in range(len(work)):
            if r != row and work[r] & bit:
                work[r] ^= prow
        pivots.append(col)
    return pivots


def rref(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped, plus the pivot columns."""
    work = list(m.data)
    pivots = _gauss_jordan(work, range(m.cols))
    return BitMatrix.from_rows(work[: len(pivots)], m.cols), tuple(pivots)


def insert(slots: list[int], row: int) -> bool:
    """Reduce row into a highest-bit XOR basis; keep it and return True if independent.

    slots[c + 1] holds the basis row whose leading bit is c, or 0 when there
    is none, and slots[0] stays 0, so the list must be one longer than the
    rows are wide.  A dependent row reduces to 0 and stops at the sentinel.
    """
    while other := slots[lead := row.bit_length()]:
        row ^= other
    slots[lead] = row
    return lead > 0


def rank(m: BitMatrix) -> int:
    """Row rank over GF(2)."""
    slots = [0] * (m.cols + 1)
    found = 0
    for row in m.data:
        if insert(slots, row):
            found += 1
    return found


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Basis of {x : m @ x^T = 0}, one kernel vector per row (cols bits each).

    Free column c gives x_c = 1, and x_p = 1 at the pivot p of each RREF row with bit c.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = (c for c in range(m.cols) if c not in pivot_set)
    kernel = (1 << c | sum(1 << p for p, row in zip(pivots, red.data) if row >> c & 1) for c in free)
    return BitMatrix.from_rows(kernel, m.cols)


def stack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")
    return BitMatrix(a.rows + b.rows, a.cols, a.data + b.data)


def row_space_meet_dim(a: BitMatrix, b: BitMatrix) -> int:
    """dim(rowspace(a) ∩ rowspace(b)) = rank(a) + rank(b) - rank(a stacked on b)."""
    return rank(a) + rank(b) - rank(stack(a, b))


def gram(g: BitMatrix) -> BitMatrix:
    """g @ g^T over GF(2) (k x k, symmetric)."""
    out = []
    for i in range(g.rows):
        acc = 0
        ri = g.data[i]
        for j in range(g.rows):
            if (ri & g.data[j]).bit_count() & 1:
                acc |= 1 << j
        out.append(acc)
    return BitMatrix.from_rows(out, g.rows)


def mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product a @ b over GF(2)."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    return BitMatrix.from_rows((combine(row, b.data) for row in a.data), b.cols)


def transpose(m: BitMatrix) -> BitMatrix:
    """m^T: row j holds column j of m, bit i set where row i of m has bit j."""
    cols = [0] * m.cols
    for i, row in enumerate(m.data):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return BitMatrix.from_rows(cols, m.rows)


def combine(selector: int, items: Sequence[int]) -> int:
    """XOR of items[i] over the set bits i of selector."""
    acc = 0
    while selector:
        low = selector & -selector
        acc ^= items[low.bit_length() - 1]
        selector ^= low
    return acc


def gather(bits: int, positions: Iterable[int]) -> int:
    """Bit j of the result is bit positions[j] of bits."""
    acc = 0
    for j, p in enumerate(positions):
        if (bits >> p) & 1:
            acc |= 1 << j
    return acc


_Network = tuple[tuple[int, int], ...]  # (distance, mask) stages of delta swaps


def _benes(perm: Sequence[int]) -> _Network:
    """Stages that move bit i to bit perm[i], for a permutation of 2^t bits.

    Run backwards, the stages gather, as `gather(bits, perm)` does.  The
    looping algorithm (Benes 1964; Knuth, TAOCP 4A, 7.1.3): a block of 2h
    lines splits into halves by bit h, each pair (i, i + h) sends one element
    to each half, and each output pair takes one from each; the chain of
    those constraints fixes the input and output swaps, and each half is
    routed the same way at distance h/2.  Stages at distances size/2, ...,
    2, 1, 2, ..., size/2 result; the all-zero ones are dropped.
    """
    size = len(perm)
    p = list(perm)
    head: list[tuple[int, int]] = []
    tail: list[tuple[int, int]] = []
    h = size >> 1
    while h > 1:
        inv = [0] * size
        for s, t in enumerate(p):
            inv[t] = s
        sub = [0] * size
        done = bytearray(size)
        in_mask = out_mask = 0
        for start in range(size):
            s = start
            while not done[s]:
                # s rides the half where bit h is clear, its input partner the other one
                low = s ^ h
                done[s] = done[low] = 1
                t, u = p[s], p[low]
                if s & h:
                    in_mask |= 1 << low
                if t & h:
                    out_mask |= 1 << (t ^ h)
                sub[s & ~h] = t & ~h
                sub[low | h] = u | h
                s = inv[u ^ h]  # u's output partner must come from s's half
        head.append((h, in_mask))
        tail.append((h, out_mask))
        p = sub
        h >>= 1
    if h:  # the middle stage: each block is one pair by now
        head.append((1, sum(1 << s for s in range(0, size, 2) if p[s] != s)))
    return tuple(stage for stage in head + tail[::-1] if stage[1])


def _permute(bits: int, network: _Network) -> int:
    """Apply the network's delta swaps: the bits of each mask trade places with those d above."""
    for d, mask in network:
        t = ((bits >> d) ^ bits) & mask
        bits ^= t ^ (t << d)
    return bits


def solve_preimage(m: BitMatrix, y: int) -> int | None:
    """One x (bits over m's rows) with x @ m = y, or None if y is outside the row space.

    Row i carries the tag 1 << (cols + i), so once the pivot rows have
    cleared y's pivot bits, the bits above the columns are x.
    """
    if y < 0 or y >> m.cols:
        raise ValueError("target vector has bits outside the column range")
    work = [row | 1 << (m.cols + i) for i, row in enumerate(m.data)]
    for i, col in enumerate(_gauss_jordan(work, range(m.cols))):
        if y >> col & 1:
            y ^= work[i]
    return None if y & ((1 << m.cols) - 1) else y >> m.cols


def to_text(m: BitMatrix) -> str:
    """Serialize as 'rows cols' header plus one 0/1 line per row."""
    # bin() writes the high bit first; the sentinel bit above the row keeps its leading zeros
    lines = [f"{m.rows} {m.cols}"] + [bin(row | 1 << m.cols)[:2:-1] for row in m.data]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> BitMatrix:
    """Parse the to_text format (lines starting with '#' are skipped).

    After the header come exactly `rows` row lines; an empty line is a row of
    width 0, and further lines may only be blank.
    """
    lines = [ln.strip() for ln in text.splitlines() if not ln.startswith("#")]
    start = next((i for i, ln in enumerate(lines) if ln), None)
    if start is None:
        raise ValueError("empty matrix text")
    header = lines[start].split()
    if len(header) != 2 or not all(h.isascii() and h.isdigit() for h in header):  # two sizes, ASCII, unsigned
        raise ValueError(f"bad matrix header: {lines[start]!r}")
    rows, cols = map(int, header)
    body = lines[start + 1 :]
    if cols:
        body = [ln for ln in body if ln]  # a row of positive width is never blank
    while len(body) > rows and not body[-1]:
        body.pop()
    if len(body) != rows:
        raise ValueError(f"expected {rows} row lines, got {len(body)}")
    data = []
    for ln in body:
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"bad matrix row: {ln!r}")
        data.append(int(ln[::-1] or "0", 2))
    return BitMatrix.from_rows(data, cols)
