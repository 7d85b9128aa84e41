"""Code-theoretic immunity characterizations and LCD extraction from PAI functions.

A function's support picks out Reed-Muller columns; puncturing away the
complement restricts the code to the support.  Algebraic immunity shows up
as punctured-code dimensions, FAI as trivial meets with punctured duals,
and perfect algebraic immunity as LCD-ness of every punctured order.

The PAI certificate reads every order from truth-table coordinates: the
rows f*m (deg m <= e) span RM(e, n) restricted to supp(f), and so do the
co-monomial rows f * prod_{j in m} (1 + x_j), and Massey's criterion gives
hull = rank(G) - rank(G G^T) for any spanning set G.  One scan of the
co-monomial rows gives every order's dimension and, by the duality of
puncturing and shortening, lda(1+f); the immunity engine's product pass,
floored there, gives FAI and reads only the layers that can still lower
it.  The Gram entry of f*m_u and f*m_v is the parity of supp(f) above u|v, one
superset-parity transform of f; from the middle order 2e >= n - 1 on, the
dual lies inside the code and the hull is wt - dim without a Gram matrix.
Length, dimension and hull do not change
when columns are permuted, so the verdicts take no GF(2^n) point order;
only `support_columns` and `function_from_columns` take one.  The
punctured-RM route stays as the independent oracle (`is_pai_via_lcd`,
`lcd_from_pai`), on the default point order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolfun import (
    BooleanFunction,
    comonomial_tt,
    degree,
    format_function,
    high_degree_masks,
    monomial_tt,
    monomials_by_degree,
    monomials_upto,
    superset_parity,
)
from .codes import (
    LinearCode,
    dual,
    is_even_like,
    is_lcd,
    puncture,
    rm,
)
from .f2linalg import BitMatrix, insert, rank, row_space_meet_dim
from .gf2m import FieldGF2n, enumerate_points, field_new
from .immunity import _least_total, fai


@dataclass(frozen=True)
class SupportColumns:
    """Reed-Muller column indices where the function evaluates to 1."""

    n: int
    cols: frozenset[int]

    def __post_init__(self) -> None:
        last = (1 << self.n) - 1
        if self.cols and not (min(self.cols) >= 0 and max(self.cols) <= last):
            raise ValueError(f"column out of range 0..{last}")

    def complement(self) -> frozenset[int]:
        return frozenset(range(1 << self.n)) - self.cols


def _points(n: int, field: FieldGF2n | None) -> tuple[int, ...]:
    """The RM column order of GF(2^n) on field, by default the default field."""
    if field is not None and field.n != n:
        raise ValueError("field degree does not match the variable count")
    return enumerate_points(field or field_new(n))


def support_columns(f: BooleanFunction, field: FieldGF2n | None = None) -> SupportColumns:
    pts = _points(f.n, field)
    cols = frozenset(j for j, pt in enumerate(pts) if (f.tt >> pt) & 1)
    return SupportColumns(f.n, cols)


def function_from_columns(sc: SupportColumns, field: FieldGF2n | None = None) -> BooleanFunction:
    pts = _points(sc.n, field)
    tt = 0
    for j in sc.cols:
        tt |= 1 << pts[j]
    return BooleanFunction(sc.n, tt)


def _restricted_rm(e: int, n: int, cols: frozenset[int]) -> LinearCode:
    """RM(e, n) restricted to the given columns: punctured at every other one."""
    return puncture(rm(e, n), frozenset(range(1 << n)) - cols)


def ai_exceeds_via_dims(f: BooleanFunction, e: int) -> bool:
    """True iff AI(f) > e, decided purely by punctured Reed-Muller dimensions."""
    if f.is_constant():
        raise ValueError("the dimension criterion needs a non-constant function")
    if not 1 <= e <= f.n:
        raise ValueError(f"order {e} out of range 1..{f.n}")
    n = f.n
    sc = support_columns(f)
    full_dim = len(monomials_upto(n, e))
    on_support = _restricted_rm(e, n, sc.cols)
    off_support = _restricted_rm(e, n, sc.complement())
    return on_support.dim == full_dim and off_support.dim == full_dim


def fai_at_least_via_codes(f: BooleanFunction, s: int) -> bool:
    """True iff FAI(f) >= s, via meets of restricted RM codes with restricted duals.

    Requires deg(f) >= s - 1; orders above n collapse to the full space.
    """
    if f.tt == 0:
        raise ValueError("FAI is undefined for the zero function")
    if degree(f) < s - 1:
        raise ValueError(f"degree hypothesis violated: deg(f) < {s - 1}")
    n = f.n
    cols = support_columns(f).cols
    for e in range(1, n + 1):
        left = _restricted_rm(e, n, cols)
        right = _restricted_rm(min(e + n - s, n), n, cols)
        if row_space_meet_dim(left.gen, dual(right).gen) != 0:
            return False
    return True


def is_pai_via_lcd(f: BooleanFunction) -> bool:
    """True iff the support-restricted RM(e, n) is LCD for every 1 <= e <= n."""
    if f.tt == 0:
        raise ValueError("the LCD criterion needs a nonzero function")
    sc = support_columns(f)
    return all(is_lcd(_restricted_rm(e, f.n, sc.cols)) for e in range(1, f.n + 1))


def lcd_from_pai(f: BooleanFunction, e: int) -> LinearCode:
    """The LCD code RM(e, n) restricted to the support of a PAI function."""
    n = f.n
    if not 1 <= e <= (n - 1) // 2:
        raise ValueError(f"order {e} out of range 1..{(n - 1) // 2}")
    value = fai(f).value
    if value < n:
        raise ValueError(f"not a perfect algebraic immune function: fai = {value} < {n}")
    code = _restricted_rm(e, n, support_columns(f).cols)
    expected_dim = len(monomials_upto(n, e))
    if not is_lcd(code) or code.dim != expected_dim or code.length != f.tt.bit_count():
        raise AssertionError("extracted code violates the LCD/dimension contract")
    d = dual(code)
    if is_even_like(d) and is_lcd(d) and d.dim % 2 != 0:
        raise AssertionError("even-like LCD dual with odd dimension")
    return code


def carlet_feng_support(n: int, offset: int = 0, count: int | None = None) -> SupportColumns:
    """Consecutive powers of alpha (0 adjoined when n is a power of two).

    Column j holds alpha^(j-1), so exponent e maps to column e + 1.  The
    default count 2^(n-1) makes the weight even for n = 2^t + 1 and odd for
    n = 2^t.
    """
    if n >= 2 and n & (n - 1) == 0:
        with_zero = True
    elif n >= 3 and (n - 1) & (n - 2) == 0:
        with_zero = False
    else:
        raise ValueError(f"n = {n} is neither 2^t nor 2^t + 1 (t >= 1)")
    if count is None:
        count = 1 << (n - 1)
    order = (1 << n) - 1
    if not 1 <= count <= order:
        raise ValueError(f"count {count} out of range 1..{order}")
    cols = {((offset + i) % order) + 1 for i in range(count)}
    if with_zero:
        cols.add(0)
    return SupportColumns(n, frozenset(cols))


def _restricted_dims(f: BooleanFunction) -> list[int]:
    """dim of RM(e, n) restricted to supp(f) for e = 0..n: the rank of the rows f*m, deg m <= e.

    The co-monomial rows f * prod_{j in m} (1 + x_j), which span the same
    space level by level, go into one highest-bit XOR basis in degree order,
    the column route of `immunity._first_dependency` run on to full rank:
    once the rank reaches wt(f) the rows span GF(2)^wt(f), and no later row
    is inserted.
    """
    n, wt = f.n, f.tt.bit_count()
    slots = [0] * ((1 << n) + 1)
    dims, dim = [], 0
    for level in monomials_by_degree(n):
        for m in level:
            if dim == wt:
                break
            dim += insert(slots, f.tt & comonomial_tt(m, n))
        dims.append(dim)
    return dims


def pai_certificate(f: BooleanFunction) -> dict:
    """Full PAI verdict: definitional FAI, LCD-ness per order, and agreement.

    Order e is RM(e, n) restricted to supp(f), spanned by the truth-table
    rows f*m_u with deg u <= e: its length is wt(f), its dimension their
    rank, and its hull that rank minus the rank of their Gram matrix
    Gamma(u, v) = F[u|v], where F[w] is the parity of supp(f) above w.  A
    column permutation changes none of the three, so the certificate is
    the same on every GF(2^n) point order and names no modulus.
    One co-monomial truth-table scan gives each order's dimension.  Once
    the rank reaches wt(f), the code is all of GF(2)^wt(f), whose dual is
    zero: that order and every later one keep that dimension and the zero
    hull.  Once 2e >= n - 1, RM(n - e - 1, n) lies inside RM(e, n), so the
    dual of order e, RM(n - e - 1, n) shortened to supp(f), lies inside the
    code, and hull = wt - dim (notes/decisions.md, section 9).  Both
    conditions hold from their first order on, and no such order builds
    Gram rows or ranks them.  The dual of order e is zero iff no
    nonzero function of degree <= n - e - 1 vanishes off supp(f), that is,
    annihilates 1+f, so the first full order e* gives lda(1+f) = n - e*
    (notes/decisions.md, section 13).
    The FAI value, the least k + mu'_k as in `ffai`, comes from the lazy
    product pass floored there, which checks mu_k >= n - e* on every layer
    it reads.
    """
    if f.tt == 0:
        raise ValueError("FAI is undefined for the zero function")
    n = f.n
    size = 1 << n
    wt = f.tt.bit_count()
    dims = _restricted_dims(f)
    floor = n - dims.index(wt)  # lda(1+f)
    value = _least_total(f, floor)
    high = high_degree_masks(n)
    gamma = {0: superset_parity(f.tt, n)}  # Gram row of m_u; bit v = F[u|v], in degree order
    per_e = []
    for e, (dim, level) in enumerate(zip(dims[1:], monomials_by_degree(n)[1:]), start=1):
        hull = wt - dim  # dim == wt or 2e >= n - 1: the dual of order e lies inside it
        if dim < wt and 2 * e < n - 1:
            for u in level:
                low = u & -u  # row u at v is row u - low at v|low: copy those columns down
                prev = gamma[u ^ low] & monomial_tt(low, n)
                gamma[u] = prev | prev >> low
            low_cols = ~high[e]
            hull = dim - rank(BitMatrix.from_rows((row & low_cols for row in gamma.values()), size))
        per_e.append({"e": e, "length": wt, "dim": dim, "hull": hull, "lcd": hull == 0})
    by_def = value >= n
    by_lcd = all(entry["lcd"] for entry in per_e)
    return {
        "tt": format_function(f),
        "n": n,
        "wt": wt,
        "deg": degree(f),
        "fai": value,
        "pai_by_def": by_def,
        "pai_by_lcd": by_lcd,
        "agree": by_def == by_lcd,
        "per_e_lcd_status": per_e,
    }
