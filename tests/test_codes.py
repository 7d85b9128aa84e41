import math
import random

import pytest

from faicodes.codes import (
    LinearCode,
    code_from_rows,
    dual,
    export_code,
    hull_dim,
    import_code,
    is_even_like,
    is_lcd,
    min_weight,
    puncture,
    rm,
    shorten,
)
from faicodes.boolfun import monomials_upto
from faicodes.f2linalg import BitMatrix, combine, gram, row_space_meet_dim
from faicodes.gf2m import _x_power_cycle, enumerate_points, field_new, field_with_modulus


def _full_code(length):
    return LinearCode(length, BitMatrix.identity(length))


def random_code(rng, length=None, k=None):
    length = length or rng.randrange(4, 33)
    k = k or rng.randrange(1, length + 1)
    return code_from_rows((rng.getrandbits(length) for _ in range(k)), length)


def test_rm_dimensions():
    assert rm(0, 4).dim == 1
    c = rm(1, 3)
    assert (c.length, c.dim) == (8, 4)
    assert rm(3, 3).dim == 8
    for n in range(2, 7):
        for d in range(n + 1):
            assert rm(d, n).dim == sum(math.comb(n, i) for i in range(d + 1))
    with pytest.raises(ValueError):
        rm(4, 3)
    with pytest.raises(ValueError):
        rm(-1, 3)


def test_rm_dual_identity():
    for n in range(2, 8):
        for d in range(n):
            assert dual(rm(d, n)) == rm(n - d - 1, n)
        assert dual(rm(n, n)).dim == 0


def test_dual_trivia_and_involution():
    assert dual(_full_code(5)).dim == 0
    rng = random.Random(21)
    for _ in range(40):
        c = random_code(rng)
        if c.dim == 0:
            continue
        assert dual(dual(c)) == c
        assert c.dim + dual(c).dim == c.length


def test_puncture_shorten_examples():
    rng = random.Random(22)
    c = random_code(rng, length=8, k=4)
    assert puncture(c, set()) == c
    f = _full_code(6)
    s = shorten(f, {1, 4})
    assert s == _full_code(4)
    with pytest.raises(ValueError):
        puncture(c, {8})


def test_puncture_shorten_duality():
    rng = random.Random(23)
    for _ in range(60):
        c = random_code(rng)
        if c.dim == 0:
            continue
        coords = set(rng.sample(range(c.length), rng.randrange(0, c.length)))
        assert dual(puncture(c, coords)) == shorten(dual(c), coords)
        assert dual(shorten(c, coords)) == puncture(dual(c), coords)


def _self_orthogonal_by_gram(c):
    return all(row == 0 for row in gram(c.gen).data)


def test_hull_and_lcd():
    eye = _full_code(4)
    assert is_lcd(eye) and hull_dim(eye) == 0
    c = rm(1, 3)  # self-dual
    assert hull_dim(c) == 4
    assert not is_lcd(c)
    rng = random.Random(24)
    codes = [c, rm(2, 5), eye]
    for _ in range(60):
        c = random_code(rng)
        assert hull_dim(c) == row_space_meet_dim(c.gen, dual(c).gen)
        codes.append(c)
    for base in (rm(1, 3), rm(2, 5)):  # subcodes of a self-dual code are self-orthogonal
        for _ in range(10):
            rows = (combine(rng.getrandbits(base.dim), base.gen.data) for _ in range(rng.randrange(1, base.dim)))
            codes.append(code_from_rows(rows, base.length))
    # C is self-orthogonal iff its hull is all of C, the form lcd-check reports
    assert {hull_dim(c) == c.dim for c in codes} == {True, False}
    for c in codes:
        assert (hull_dim(c) == c.dim) == _self_orthogonal_by_gram(c), c


def test_even_like():
    rep4 = code_from_rows([0b1111], 4)
    assert is_even_like(rep4)
    w1 = code_from_rows([0b0010], 4)
    assert not is_even_like(w1)
    rng = random.Random(25)
    for _ in range(80):
        c = random_code(rng)
        if is_lcd(c) and is_even_like(c):
            assert c.dim % 2 == 0


def test_min_weight():
    assert min_weight(code_from_rows([0b11111], 5)) == 5
    assert min_weight(rm(1, 3)) == 4
    for n in range(2, 5):
        for d in range(n + 1):
            assert min_weight(rm(d, n)) == 1 << (n - d)
    with pytest.raises(ValueError):
        min_weight(LinearCode(4, BitMatrix.from_rows((), 4)))


def test_min_weight_high_dimension_path():
    # dimensions 26, 31 and 32 go through the dual-side search
    assert min_weight(rm(3, 5)) == 4
    assert min_weight(rm(4, 5)) == 2
    assert min_weight(rm(5, 5)) == 1


def test_code_equality_is_structural():
    rng = random.Random(26)
    for _ in range(20):
        c = random_code(rng, length=10)
        if c.dim == 0:
            continue
        # re-generate from random row combinations: same code, same object value
        combos = []
        for _ in range(2 * c.dim):
            sel = rng.randrange(1, 1 << c.dim)
            v = 0
            for i in range(c.dim):
                if (sel >> i) & 1:
                    v ^= c.gen.data[i]
            combos.append(v)
        if len({*combos}) < c.dim:
            continue
        c2 = code_from_rows(combos, c.length)
        if c2.dim == c.dim:
            assert c2 == c


def test_export_import_roundtrip():
    rng = random.Random(27)
    for _ in range(20):
        c = random_code(rng)
        text = export_code(c)
        assert text.startswith("# code length=")
        assert import_code(text) == c


def _other_modulus(n):
    """The largest primitive modulus of degree n, which is not the default one for n >= 3."""
    return next(m for m in range((2 << n) - 1, 1 << n, -2) if _x_power_cycle(m, n))


def test_rm_rows_match_point_by_point_evaluation():
    for n in range(2, 10):
        fields = [field_new(n)] + ([field_with_modulus(n, _other_modulus(n))] if n >= 3 else [])
        assert len({f.modulus for f in fields}) == len(fields)
        for field in fields:
            points = enumerate_points(field)
            for d in range(n + 1):
                # reference: row of monomial m has bit j set where m is 1 at the j-th point
                rows = [sum(1 << j for j, pt in enumerate(points) if pt & m == m) for m in monomials_upto(n, d)]
                assert rm(d, n, field) == code_from_rows(rows, 1 << n), (n, d, field.modulus)


def test_rm_with_custom_field():
    f = field_with_modulus(3, 0b1101)
    c = rm(1, 3, f)
    assert (c.length, c.dim) == (8, 4)
    # different enumeration, same code parameters; column map is a bijection
    assert sorted(enumerate_points(f)) == list(range(8))


def test_linear_code_validation():
    with pytest.raises(ValueError):
        LinearCode(5, BitMatrix.identity(4))


def test_rm_cache_serves_explicit_fields():
    f = field_with_modulus(4, 0x19)
    assert rm(2, 4, f) is rm(2, 4, field_with_modulus(4, 0x19))
    assert rm(2, 4, field_new(4)) is rm(2, 4)
    assert rm(2, 4, f) != rm(2, 4)  # another point enumeration, another generator


def test_rm_rejects_a_field_of_another_degree():
    with pytest.raises(ValueError, match="field degree"):
        rm(1, 3, field_new(4))
