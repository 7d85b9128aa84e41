"""Code-theoretic immunity characterizations and LCD extraction from PAI functions.

A function's support picks out Reed-Muller columns; puncturing away the
complement restricts the code to the support.  Algebraic immunity shows up
as punctured-code dimensions, FAI as trivial meets with punctured duals,
and perfect algebraic immunity as LCD-ness of every punctured order.

The PAI certificate reads every order off one product pass: the products
f*g with deg g <= e span RM(e, n) restricted to supp(f), and those of degree
<= n - e - 1 span its meet with the dual, RM(n - e - 1, n) shortened to
supp(f), so the pass's rank and low rows give each order's dimension and
hull.  Floored at lda(1+f), which one column scan gives, the same pass
gives FAI and reads only the layers that can still lower it or that hold
an order below n - lda(1+f).  Length, dimension and hull do not change
when columns are permuted, so the verdicts take no GF(2^n) point order;
only `support_columns` and `function_from_columns` take one.  The
punctured-RM route stays as the independent oracle (`is_pai_via_lcd`,
`lcd_from_pai`), on the default point order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .boolfun import BooleanFunction, complement, degree, format_function, monomials_upto
from .codes import (
    LinearCode,
    dual,
    is_even_like,
    is_lcd,
    puncture,
    rm,
)
from .f2linalg import row_space_meet_dim
from .gf2m import FieldGF2n, enumerate_points, field_of_degree
from .immunity import _layers, fai, lda


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


def support_columns(f: BooleanFunction, field: FieldGF2n | None = None) -> SupportColumns:
    pts = enumerate_points(field_of_degree(f.n, field))
    cols = frozenset(j for j, pt in enumerate(pts) if (f.tt >> pt) & 1)
    return SupportColumns(f.n, cols)


def function_from_columns(sc: SupportColumns, field: FieldGF2n | None = None) -> BooleanFunction:
    pts = enumerate_points(field_of_degree(sc.n, field))
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


def pai_certificate(f: BooleanFunction) -> dict:
    """Full PAI verdict: definitional FAI, LCD-ness per order, and agreement.

    Order e is RM(e, n) restricted to supp(f): its length is wt(f), its
    dimension the rank of the products f*g, deg g <= e, and its hull their
    meet with RM(n - e - 1, n), the dual shortened to supp(f).  A column
    permutation changes none of the three, so the certificate is the same
    on every GF(2^n) point order and names no modulus.
    One column scan gives floor = lda(1+f).  The product pass floored there
    reads the rank and hull of order e off layer e (`immunity._Layer`) and
    the FAI value, the least k + mu'_k as in `ffai`, off the same layers; it
    stops at the first k with k + 1 + floor >= max(n, value), since layer k
    has k + mu'_k >= k + floor.  The dual of order e is zero iff no nonzero
    function of degree <= n - e - 1 annihilates 1+f, so every order from
    n - floor on is all of GF(2)^wt(f), with hull 0 (notes/decisions.md,
    sections 13 and 15).
    """
    if f.tt == 0:
        raise ValueError("FAI is undefined for the zero function")
    n = f.n
    wt = f.tt.bit_count()
    floor = lda(complement(f))
    value = inf
    orders = []  # (dim, hull) of orders 1..n - floor - 1
    for layer in _layers(f, floor):
        value = min(value, layer.k + layer.mu_adm)
        if layer.k + floor < n:
            orders.append((layer.rank, layer.hull))
        if layer.k + 1 + floor >= max(n, value):
            break
    orders += [(wt, 0)] * (n - len(orders))
    per_e = [
        {"e": e, "length": wt, "dim": dim, "hull": hull, "lcd": hull == 0}
        for e, (dim, hull) in enumerate(orders, start=1)
    ]
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
