import pytest

from faicodes.gf2m import enumerate_points, field_new, field_with_modulus


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
    assert f.exp[0] == 1
    assert f.exp[3] == 0b011  # x^3 = x + 1 mod x^3 + x + 1
    assert len(f.exp) == 7    # group order 7


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
    with pytest.raises(ValueError):
        field_with_modulus(4, 0x12)  # x^4 + x: even, so x is a zero divisor
