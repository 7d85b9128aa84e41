import random

import pytest

from faicodes.gf2m import (
    alpha_pow,
    enumerate_points,
    field_mul,
    field_new,
    field_with_modulus,
)


def test_smallest_primitive_moduli():
    assert field_new(2).modulus == 0b111        # x^2 + x + 1
    assert field_new(3).modulus == 0b1011       # x^3 + x + 1
    assert field_new(4).modulus == 0b10011      # x^4 + x + 1


def test_degree_range_enforced():
    with pytest.raises(ValueError):
        field_new(1)
    with pytest.raises(ValueError):
        field_new(17)


def test_alpha_powers_n3():
    f = field_new(3)
    assert alpha_pow(f, 0) == 1
    assert alpha_pow(f, 3) == 0b011  # x^3 = x + 1 mod x^3 + x + 1
    assert alpha_pow(f, 7) == 1      # group order 7


def test_enumerate_points_n2():
    assert enumerate_points(field_new(2)) == (0, 1, 2, 3)


def test_enumerate_points_n3_prefix():
    pts = enumerate_points(field_new(3))
    assert len(pts) == 8
    assert pts[0] == 0 and pts[1] == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_enumeration_is_bijection(n):
    pts = enumerate_points(field_new(n))
    assert sorted(pts) == list(range(1 << n))


def test_log_exp_consistency():
    f = field_new(6)
    for i, v in enumerate(f.exp):
        assert f.log[v] == i


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10])
def test_alpha_pow_multiplicative(n):
    f = field_new(n)
    rng = random.Random(n)
    for _ in range(100):
        i = rng.randrange(0, 1 << 16)
        j = rng.randrange(0, 1 << 16)
        assert field_mul(f, alpha_pow(f, i), alpha_pow(f, j)) == alpha_pow(f, i + j)


def test_modulus_override():
    # x^3 + x^2 + 1 is the other degree-3 primitive polynomial
    f = field_with_modulus(3, 0b1101)
    assert len(set(enumerate_points(f))) == 8
    with pytest.raises(ValueError):
        field_with_modulus(3, 0b1001)  # x^3 + 1 is reducible
    with pytest.raises(ValueError):
        field_with_modulus(3, 0b111)   # wrong degree
    with pytest.raises(ValueError):
        field_with_modulus(4, 0b11111)  # x^4+x^3+x^2+x+1 has order 5, not primitive
