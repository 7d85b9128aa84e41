"""Binary linear codes: Reed-Muller construction, puncture/shorten, hull and LCD tests.

Codes are canonicalized to the RREF of their generator at construction, so
two equal codes compare equal structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from . import f2linalg
from .f2linalg import BitMatrix, _benes, _gauss_jordan, _permute, gather, gram, rank, rref, transpose
from .gf2m import FieldGF2n, enumerate_points, field_new, field_with_modulus
from .boolfun import monomial_tt, monomials_upto

MIN_WEIGHT_DIM_GUARD = 24
MIN_WEIGHT_SEARCH_GUARD = 2_000_000


@dataclass(frozen=True)
class LinearCode:
    """[length, dim] binary code held as a row-reduced generator matrix."""

    length: int
    gen: BitMatrix

    def __post_init__(self) -> None:
        if self.gen.cols != self.length:
            raise ValueError("generator width does not match the code length")

    @property
    def dim(self) -> int:
        return self.gen.rows


def code_from_rows(rows: Iterable[int], length: int) -> LinearCode:
    reduced, _ = rref(BitMatrix.from_rows(rows, length))
    return LinearCode(length, reduced)


@lru_cache(maxsize=None)
def _rm_cached(d: int, n: int, modulus: int) -> LinearCode:
    """RM(d, n) on the point enumeration of GF(2^n) built on the given modulus."""
    # each row is a monomial's truth table gathered into the point order
    to_points = _benes(enumerate_points(field_with_modulus(n, modulus)))[::-1]
    return code_from_rows((_permute(monomial_tt(m, n), to_points) for m in monomials_upto(n, d)), 1 << n)


def rm(d: int, n: int, field: FieldGF2n | None = None) -> LinearCode:
    """Reed-Muller code of order d: column j evaluates at the j-th enumerated point."""
    if not 0 <= d <= n:
        raise ValueError(f"order {d} out of range 0..{n}")
    if field is None:
        field = field_new(n)
    elif field.n != n:
        raise ValueError("field degree does not match the variable count")
    return _rm_cached(d, n, field.modulus)


def dual(c: LinearCode) -> LinearCode:
    kern = f2linalg.kernel_basis(c.gen)
    return code_from_rows(kern.data, c.length)


def _check_coords(c: LinearCode, coords: Iterable[int]) -> list[int]:
    out = sorted(set(coords))
    if out and (out[0] < 0 or out[-1] >= c.length):
        raise ValueError("coordinate set out of range")
    return out


def _delete_columns(rows: Iterable[int], drop: list[int], length: int) -> LinearCode:
    """The code spanned by rows once the drop columns are deleted and the rest renumbered in order."""
    dropped = set(drop)
    keep = [j for j in range(length) if j not in dropped]
    return code_from_rows((gather(row, keep) for row in rows), len(keep))


def puncture(c: LinearCode, coords: Iterable[int]) -> LinearCode:
    """Delete the given coordinates from every codeword (dimension may drop)."""
    return _delete_columns(c.gen.data, _check_coords(c, coords), c.length)


def shorten(c: LinearCode, coords: Iterable[int]) -> LinearCode:
    """Keep the codewords that vanish on the given coordinates, then delete them."""
    drop = _check_coords(c, coords)
    work = list(c.gen.data)
    used = len(_gauss_jordan(work, drop))  # the rows past the pivots vanish on drop
    return _delete_columns(work[used:], drop, c.length)


def hull_dim(c: LinearCode) -> int:
    """dim(C ∩ C^perp) = k - rank(G G^T)."""
    return c.dim - rank(gram(c.gen))


def is_lcd(c: LinearCode) -> bool:
    return hull_dim(c) == 0


def is_even_like(c: LinearCode) -> bool:
    """True iff every codeword has even weight (checked on the generator rows)."""
    return all(row.bit_count() % 2 == 0 for row in c.gen.data)


def min_weight(c: LinearCode) -> int:
    """Exact minimum nonzero codeword weight.

    Gray-code enumeration of the 2^k - 1 codewords for small dimension;
    otherwise an ascending-weight search against the dual (bounded by a
    candidate-count guard).
    """
    k = c.dim
    if k == 0:
        raise ValueError("the zero code has no nonzero codeword")
    if k <= MIN_WEIGHT_DIM_GUARD:
        rows = c.gen.data
        word = 0
        best = c.length + 1
        for i in range(1, 1 << k):
            word ^= rows[(i & -i).bit_length() - 1]
            w = word.bit_count()
            if w < best:
                best = w
        return best
    cols = transpose(dual(c).gen).data
    examined = 0
    for w in range(1, c.length + 1):
        for combo in combinations(range(c.length), w):
            examined += 1
            if examined > MIN_WEIGHT_SEARCH_GUARD:
                raise ValueError("minimum-weight search guard exceeded")
            acc = 0
            for j in combo:
                acc ^= cols[j]
            if acc == 0:
                return w
    raise AssertionError("nonzero code without codewords")


def export_code(c: LinearCode) -> str:
    """Generator matrix text with a summary header line."""
    hull = hull_dim(c)
    header = f"# code length={c.length} dim={c.dim} lcd={hull == 0} hull={hull}\n"
    return header + f2linalg.to_text(c.gen)


def import_code(text: str) -> LinearCode:
    matrix = f2linalg.from_text(text)
    return code_from_rows(matrix.data, matrix.cols)
