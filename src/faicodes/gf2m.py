"""GF(2^n) as the powers of a primitive element, 2 <= n <= 16.

Elements are ints in polynomial-basis coordinates: bit i is the coefficient
of x^i.  The default modulus for each degree is the lexicographically
smallest primitive polynomial, so the point enumeration is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

MIN_DEGREE = 2
MAX_DEGREE = 16


@dataclass(frozen=True)
class FieldGF2n:
    """GF(2^n) with precomputed powers of the primitive element alpha = x."""

    n: int
    modulus: int            # degree-n polynomial, leading bit included
    exp: tuple[int, ...]    # exp[i] = alpha^i, length 2^n - 1


def _x_power_cycle(modulus: int, n: int) -> tuple[int, ...] | None:
    """Powers (x^0, ..., x^{2^n-2}) if x has multiplicative order 2^n - 1, else None."""
    if not modulus & 1:
        return None
    top = 1 << n
    powers = []
    val = 1
    for _ in range(top - 1):
        powers.append(val)
        val <<= 1
        if val & top:
            val ^= modulus
        if val == 1:
            break
    return tuple(powers) if val == 1 and len(powers) == top - 1 else None


@lru_cache(maxsize=None)
def field_new(n: int) -> FieldGF2n:
    """Field on the lexicographically smallest primitive polynomial of degree n."""
    if not MIN_DEGREE <= n <= MAX_DEGREE:
        raise ValueError(f"unsupported extension degree {n} (need {MIN_DEGREE}..{MAX_DEGREE})")
    for modulus in range((1 << n) + 1, 1 << (n + 1), 2):
        powers = _x_power_cycle(modulus, n)
        if powers is not None:
            return FieldGF2n(n, modulus, powers)
    raise AssertionError(f"no primitive polynomial of degree {n}")  # never happens


def field_of_degree(n: int, field: FieldGF2n | None) -> FieldGF2n:
    """field, checked to have degree n; field_new(n) when None."""
    if field is None:
        return field_new(n)
    if field.n != n:
        raise ValueError("field degree does not match the variable count")
    return field


def field_with_modulus(n: int, modulus: int) -> FieldGF2n:
    """Field on an explicit modulus; rejects non-primitive polynomials."""
    if not MIN_DEGREE <= n <= MAX_DEGREE:
        raise ValueError(f"unsupported extension degree {n} (need {MIN_DEGREE}..{MAX_DEGREE})")
    if modulus.bit_length() != n + 1:
        raise ValueError(f"modulus {modulus:#x} does not have degree {n}")
    powers = _x_power_cycle(modulus, n)
    if powers is None:
        raise ValueError(f"polynomial {modulus:#x} is not primitive of degree {n}")
    return FieldGF2n(n, modulus, powers)


def enumerate_points(field: FieldGF2n) -> tuple[int, ...]:
    """The enumeration [0, alpha^0, alpha^1, ..., alpha^{2^n-2}] of all field elements.

    This is the column order of the Reed-Muller codes: column j evaluates at
    the j-th point.  A field element's bit j - 1 (the coefficient of
    x^(j-1)) drives variable x_j, so each point is its own truth-table index.
    """
    return (0,) + field.exp
