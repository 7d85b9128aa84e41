"""Boolean functions as packed truth tables, ANF via the Möbius transform.

Conventions (fixed across the whole package):
  * point i encodes (x_1, ..., x_n) with x_j = bit (j-1) of i;
  * a truth table is a 2^n-bit int, bit i = f(point i);
  * an ANF is a 2^n-bit int, bit m = coefficient of the monomial whose
    variable set is the bit mask m.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count
from typing import Sequence

from .f2linalg import BitMatrix, combine, gather, rank, solve_preimage, transpose

MAX_VARS = 16


@lru_cache(maxsize=None)
def _butterfly_masks(n: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) pairs for the in-place radix-2 Möbius passes on n variables.

    Each mask spans 2^MAX_VARS bits, so the passes transform every 2^n-bit
    block of a wider int at once; those on n variables are the first n of
    the MAX_VARS ones.
    """
    if n < MAX_VARS:
        return _butterfly_masks(MAX_VARS)[:n]
    out = []
    for i in range(n):
        step = 1 << i
        mask, width = (1 << step) - 1, step << 1  # the low half of one 2*step block
        while width < 1 << n:  # doubled up to every 2*step block of the 2^n bits
            mask |= mask << width
            width <<= 1
        out.append((step, mask))
    return tuple(out)


def mobius(bits: int, n: int) -> int:
    """Binary Möbius (butterfly) transform; an involution mapping tt <-> ANF.

    bits may be wider than 2^n, up to 2^MAX_VARS bits: each 2^n-bit block is
    transformed on its own.
    """
    for shift, mask in _butterfly_masks(n):
        bits ^= (bits & mask) << shift
    return bits


def superset_parity(bits: int, n: int) -> int:
    """The butterfly with its shift reversed: bit w is the parity of the bits x with x ⪰ w."""
    for shift, mask in _butterfly_masks(n):
        bits ^= (bits >> shift) & mask
    return bits


@lru_cache(maxsize=8192)
def monomial_tt(mask: int, n: int) -> int:
    """Truth table of the monomial prod_{j in mask} x_j: the transform of its one-term ANF."""
    return mobius(1 << mask, n)


@lru_cache(maxsize=8192)
def comonomial_tt(mask: int, n: int) -> int:
    """Truth table of prod_{j in mask} (1 + x_j), the points that avoid mask: the ANF sums x^s over s ⊆ mask."""
    return mobius(superset_parity(1 << mask, n), n)


@lru_cache(maxsize=None)
def monomials_by_degree(n: int) -> tuple[tuple[int, ...], ...]:
    """Monomial masks grouped by degree: level d holds all masks of popcount d."""
    levels: list[list[int]] = [[] for _ in range(n + 1)]
    for m in range(1 << n):
        levels[m.bit_count()].append(m)
    return tuple(tuple(lv) for lv in levels)


@lru_cache(maxsize=None)
def monomials_upto(n: int, d: int) -> tuple[int, ...]:
    """The masks of degree <= d in degree order, then by mask; () when d < 0."""
    return tuple(m for level in monomials_by_degree(n)[: max(d + 1, 0)] for m in level)


def monomial_sum(selection: int, monos: Sequence[int]) -> int:
    """ANF of the sum of monos[i] over the set bits i of selection (a solve's combination)."""
    return combine(selection, [1 << m for m in monos])


@lru_cache(maxsize=None)
def high_degree_masks(n: int) -> tuple[int, ...]:
    """high[d] = OR of 1<<m over masks m with popcount(m) > d, for d = 0..n."""
    acc = [0] * (n + 1)
    for m in range(1 << n):
        pc = m.bit_count()
        for d in range(pc):
            acc[d] |= 1 << m
    return tuple(acc)


def anf_degree(coeffs: int, n: int) -> int:
    """Degree of an ANF bit string; 0 for the zero ANF by convention.

    The loop ends by d = n, since high[n] is 0, and at once for the zero ANF.
    """
    high = high_degree_masks(n)
    d = 0
    while coeffs & high[d]:
        d += 1
    return d


@dataclass(frozen=True)
class BooleanFunction:
    """n-variable Boolean function held as a packed truth table."""

    n: int
    tt: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VARS:
            raise ValueError(f"variable count {self.n} out of range 1..{MAX_VARS}")
        if not 0 <= self.tt < (1 << (1 << self.n)):
            raise ValueError("truth table does not fit 2^n bits")

    @property
    def size(self) -> int:
        return 1 << self.n

    def value(self, point: int) -> int:
        return (self.tt >> point) & 1

    def is_constant(self) -> bool:
        return self.tt == 0 or self.tt == (1 << self.size) - 1


@dataclass(frozen=True)
class Anf:
    """Algebraic normal form as a packed coefficient string."""

    n: int
    coeffs: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VARS:
            raise ValueError(f"variable count {self.n} out of range 1..{MAX_VARS}")
        if not 0 <= self.coeffs < (1 << (1 << self.n)):
            raise ValueError("coefficient string does not fit 2^n bits")

    def degree(self) -> int:
        return anf_degree(self.coeffs, self.n)


@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b with A invertible over GF(2)."""

    n: int
    matrix: BitMatrix
    shift: int

    def __post_init__(self) -> None:
        if self.matrix.rows != self.n or self.matrix.cols != self.n:
            raise ValueError("matrix shape does not match the variable count")
        if rank(self.matrix) != self.n:
            raise ValueError("affine map requires an invertible matrix")
        if not 0 <= self.shift < (1 << self.n):
            raise ValueError("shift out of range")


def anf_of(f: BooleanFunction) -> Anf:
    return Anf(f.n, mobius(f.tt, f.n))


def tt_of(a: Anf) -> BooleanFunction:
    return BooleanFunction(a.n, mobius(a.coeffs, a.n))


def degree(f: BooleanFunction) -> int:
    return anf_degree(mobius(f.tt, f.n), f.n)


def weight(f: BooleanFunction) -> int:
    return f.tt.bit_count()


_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def support(f: BooleanFunction) -> set[int]:
    flags = bin(f.tt)[:1:-1].encode().translate(_DIGIT_VALUES)  # one 0/1 byte per point, point 0 first
    return set(compress(count(), flags))


def _check_same_n(f: BooleanFunction, g: BooleanFunction) -> None:
    if f.n != g.n:
        raise ValueError(f"variable count mismatch: {f.n} vs {g.n}")


def add(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    _check_same_n(f, g)
    return BooleanFunction(f.n, f.tt ^ g.tt)


def multiply(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    _check_same_n(f, g)
    return BooleanFunction(f.n, f.tt & g.tt)


def complement(f: BooleanFunction) -> BooleanFunction:
    return BooleanFunction(f.n, f.tt ^ ((1 << f.size) - 1))


def delta(a: int, n: int) -> BooleanFunction:
    """Indicator function of the single point a."""
    if not 0 <= a < (1 << n):
        raise ValueError(f"point {a} out of range for {n} variables")
    return BooleanFunction(n, 1 << a)


def algebraic_complement(f: BooleanFunction) -> BooleanFunction:
    """f + delta_0: flips every ANF coefficient."""
    return BooleanFunction(f.n, f.tt ^ 1)


def apply_affine(f: BooleanFunction, m: AffineMap) -> BooleanFunction:
    """f composed with the map: new tt[x] = tt[A x + b]."""
    if f.n != m.n:
        raise ValueError(f"variable count mismatch: {f.n} vs {m.n}")
    n = f.n
    cols = transpose(m.matrix).data  # A x = XOR of the columns at the set bits of x
    images = [0] * (1 << n)
    images[0] = m.shift
    for x in range(1, 1 << n):
        low = x & -x
        images[x] = images[x ^ low] ^ cols[low.bit_length() - 1]
    return BooleanFunction(n, gather(f.tt, images))


def concatenate(f0: BooleanFunction, f1: BooleanFunction) -> BooleanFunction:
    """(x_n + 1) f0 + x_n f1 on one more variable; x_n is the top index bit."""
    _check_same_n(f0, f1)
    if f0.n + 1 > MAX_VARS:
        raise ValueError("concatenation exceeds the variable limit")
    return BooleanFunction(f0.n + 1, f0.tt | (f1.tt << f0.size))


def bar(f: BooleanFunction) -> BooleanFunction:
    """x_n + f(x_1, ..., x_{n-1}): concatenation of f with its complement."""
    return concatenate(f, complement(f))


def interpolate_low_degree(
    zeros: set[int] | frozenset[int], one: int, d: int, n: int
) -> Anf | None:
    """A function h with deg(h) <= d, h = 0 on zeros and h(one) = 1, if the system solves.

    Guaranteed to exist whenever len(zeros) + 1 <= 2^(d+1) - 1.
    """
    if one in zeros:
        raise ValueError("the one-point must not be among the zeros")
    monos = monomials_upto(n, d)
    points = sorted(zeros) + [one]
    # row i evaluates monos[i] at each point: 1 where the point covers the mask
    rows = (sum(1 << j for j, pt in enumerate(points) if pt & m == m) for m in monos)
    matrix = BitMatrix.from_rows(rows, len(points))
    target = 1 << (len(points) - 1)
    combo = solve_preimage(matrix, target)
    return None if combo is None else Anf(n, monomial_sum(combo, monos))


def _is_decimal(text: str) -> bool:
    """True iff text is one or more ASCII digits: int() would also take a sign, spaces and '_'."""
    return text.isascii() and text.isdigit()


def parse_function(spec: str) -> BooleanFunction:
    """Parse 'n:HEX' (tt, point 0 = LSB) or 'n:{i1,i2,...}' (support list)."""
    head, sep, body = spec.partition(":")
    if not sep:
        raise ValueError(f"bad function spec {spec!r}: expected 'n:HEX' or 'n:{{...}}'")
    if not _is_decimal(head):
        raise ValueError(f"bad variable count in {spec!r}")
    n = int(head)
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"variable count {n} out of range 1..{MAX_VARS}")
    if body.startswith("{"):
        if not body.endswith("}"):
            raise ValueError(f"unterminated support list in {spec!r}")
        inner = body[1:-1].strip()
        tt = 0
        if inner:
            for tok in inner.split(","):
                if not _is_decimal(tok.strip()):
                    raise ValueError(f"bad support point {tok!r} in {spec!r}")
                pt = int(tok)
                if not 0 <= pt < (1 << n):
                    raise ValueError(f"support point {pt} out of range in {spec!r}")
                tt |= 1 << pt
        return BooleanFunction(n, tt)
    want = ((1 << n) + 3) // 4
    if len(body) != want:
        raise ValueError(f"bad hex length in {spec!r}: expected {want} digits")
    if set(body) - set(string.hexdigits):
        raise ValueError(f"bad hex digits in {spec!r}")
    tt = int(body, 16)
    if tt >> (1 << n):
        raise ValueError(f"truth table in {spec!r} does not fit {1 << n} bits")
    return BooleanFunction(n, tt)


def format_function(f: BooleanFunction) -> str:
    """Canonical 'n:HEX' form of a truth table."""
    digits = ((1 << f.n) + 3) // 4
    return f"{f.n}:{f.tt:0{digits}X}"


def format_anf(a: Anf) -> str:
    """Human-readable ANF, e.g. 'x1*x2 + x3 + 1'."""
    if a.coeffs == 0:
        return "0"
    terms = (
        "*".join(f"x{j + 1}" for j in range(a.n) if (m >> j) & 1) or "1"
        for m in monomials_upto(a.n, a.n)
        if (a.coeffs >> m) & 1
    )
    return " + ".join(terms)


def random_function(n: int, rng: random.Random) -> BooleanFunction:
    return BooleanFunction(n, rng.getrandbits(1 << n))


def random_nonconstant(n: int, rng: random.Random) -> BooleanFunction:
    while True:
        f = random_function(n, rng)
        if not f.is_constant():
            return f


def random_affine_map(n: int, rng: random.Random) -> AffineMap:
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        m = BitMatrix.from_rows(rows, n)
        if rank(m) == n:
            return AffineMap(n, m, rng.getrandbits(n))
