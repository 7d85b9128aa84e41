import itertools
import random

import pytest

from faicodes.boolfun import (
    _HELD_LEVEL_VARS,
    AffineMap,
    Anf,
    BooleanFunction,
    add,
    algebraic_complement,
    anf_of,
    apply_affine,
    bar,
    complement,
    concatenate,
    degree,
    delta,
    format_anf,
    format_function,
    interpolate_low_degree,
    level_tables,
    monomial_sum,
    monomial_tt,
    monomials_by_degree,
    monomials_upto,
    multiply,
    parse_function,
    random_affine_map,
    random_function,
    support,
    tt_of,
    variable_tts,
    weight,
)
from faicodes.f2linalg import BitMatrix, solve_preimage

MAJ3 = parse_function("3:E8")


def test_anf_trivial_cases():
    assert anf_of(BooleanFunction(3, 0)).coeffs == 0
    assert anf_of(BooleanFunction(3, 0xFF)).coeffs == 1  # constant coefficient only


def test_anf_single_top_point_n2():
    # f(00)=f(10)=f(01)=0, f(11)=1 is the monomial x1*x2
    f = BooleanFunction(2, 0b1000)
    assert anf_of(f).coeffs == 1 << 0b11


def test_anf_roundtrip_small():
    rng = random.Random(1)
    for n in range(1, 13):
        for _ in range(20):
            a = Anf(n, rng.getrandbits(1 << n))
            assert anf_of(tt_of(a)).coeffs == a.coeffs


def test_degree_weight_support():
    zero = BooleanFunction(3, 0)
    assert degree(zero) == 0 and weight(zero) == 0 and support(zero) == set()
    top = tt_of(Anf(3, 1 << 0b111))  # x1*x2*x3
    assert degree(top) == 3 and weight(top) == 1 and support(top) == {7}
    assert degree(MAJ3) == 2 and weight(MAJ3) == 4


def test_pointwise_algebra():
    x1 = BooleanFunction(2, 0b1010)
    x2 = BooleanFunction(2, 0b1100)
    assert multiply(x1, x2).tt == 0b1000
    assert multiply(x1, complement(x1)).tt == 0
    assert add(x1, x1).tt == 0
    with pytest.raises(ValueError):
        add(x1, BooleanFunction(3, 0))


def test_delta_and_algebraic_complement():
    d0 = delta(0, 3)
    assert d0.tt == 1
    assert anf_of(d0).coeffs == (1 << 8) - 1  # every monomial appears
    f = BooleanFunction(3, 0b10110100)
    assert algebraic_complement(algebraic_complement(f)) == f
    assert algebraic_complement(BooleanFunction(3, 0)) == d0
    assert anf_of(algebraic_complement(f)).coeffs == anf_of(f).coeffs ^ ((1 << 8) - 1)


def test_apply_affine_identity_and_translation():
    ident = AffineMap(3, BitMatrix.identity(3), 0)
    assert apply_affine(MAJ3, ident) == MAJ3
    shift = AffineMap(3, BitMatrix.identity(3), 0b101)
    moved = apply_affine(MAJ3, shift)
    assert weight(moved) == weight(MAJ3)
    assert support(moved) == {p ^ 0b101 for p in support(MAJ3)}


def test_apply_affine_variable_swap_symmetric():
    swap = AffineMap(2, BitMatrix.from_rows([0b10, 0b01], 2), 0)
    f = tt_of(Anf(2, 1 << 0b11))  # x1*x2 is symmetric
    assert apply_affine(f, swap) == f


def test_affine_map_rejects_singular():
    with pytest.raises(ValueError):
        AffineMap(2, BitMatrix.from_rows([0b11, 0b11], 2), 0)


def test_affine_preserves_weight_and_degree():
    rng = random.Random(2)
    for n in (3, 4, 5):
        for _ in range(25):
            f = random_function(n, rng)
            m = random_affine_map(n, rng)
            g = apply_affine(f, m)
            assert weight(g) == weight(f)
            assert degree(g) == degree(f)


def test_concatenate_and_bar():
    f = BooleanFunction(2, 0b0110)
    lifted = concatenate(f, f)
    assert lifted.n == 3
    assert all(lifted.value(x) == f.value(x & 0b11) for x in range(8))
    zero1 = BooleanFunction(1, 0)
    one1 = BooleanFunction(1, 0b11)
    xn = concatenate(zero1, one1)
    assert xn.tt == 0b1100  # the new top variable
    x1 = BooleanFunction(1, 0b10)
    assert bar(x1).tt == 0b0110  # x1 + x2


def test_concatenation_degree_identity():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        for _ in range(50):
            g0 = random_function(n - 1, rng)
            g1 = random_function(n - 1, rng)
            cat = concatenate(g0, g1)
            if g0 == g1:
                assert degree(cat) == degree(g0)
            else:
                assert degree(cat) == max(degree(g0), degree(add(g0, g1)) + 1)


def test_interpolate_trivial_and_example():
    h = interpolate_low_degree(set(), 5, 0, 3)
    assert h is not None and h.coeffs == 1  # constant one
    h = interpolate_low_degree({0}, 1, 1, 3)
    assert h is not None and h.degree() <= 1
    tt = tt_of(h).tt
    assert tt & 1 == 0 and (tt >> 1) & 1 == 1


def test_interpolate_guaranteed_existence():
    rng = random.Random(4)
    n = 4
    for d in range(0, n):
        max_zeros = min((1 << (d + 1)) - 2, (1 << n) - 1)
        for _ in range(30):
            zeros = set(rng.sample(range(1 << n), rng.randrange(0, max_zeros + 1)))
            candidates = [p for p in range(1 << n) if p not in zeros]
            one = rng.choice(candidates)
            h = interpolate_low_degree(zeros, one, d, n)
            assert h is not None
            tt = tt_of(h).tt
            assert (tt >> one) & 1 == 1
            assert all((tt >> z) & 1 == 0 for z in zeros)
            assert h.degree() <= d
    with pytest.raises(ValueError):
        interpolate_low_degree({3}, 3, 1, 3)


def test_monomial_tt():
    assert monomial_tt(0, 2) == 0b1111
    assert monomial_tt(0b11, 2) == 0b1000


def _comonomial_tt(mask, n):
    """prod_{j in mask} (1 + x_j) by reflection: its value at x is x^mask's at the complement of x."""
    return int(f"{monomial_tt(mask, n):0{1 << n}b}"[::-1], 2)


def test_comonomial_tt_marks_the_points_that_avoid_the_mask():
    # prod_{j in m} (1 + x_j) is 1 exactly where no variable of m is set: the co-monomial level tables
    # and the reflected monomial tables the other tests compare them with
    def avoiding(m, n):
        return sum(1 << x for x in range(1 << n) if x & m == 0)

    for n in range(1, 7):
        for d, masks in enumerate(monomials_by_degree(n)):
            want = tuple(avoiding(m, n) for m in masks)
            assert level_tables(n, d, True) == want == tuple(_comonomial_tt(m, n) for m in masks), (n, d)
    for m in (0, 1, 0x8000, 0x0F0F, 0xFFFF):
        d = m.bit_count()
        at = monomials_by_degree(16)[d].index(m)
        assert next(itertools.islice(level_tables(16, d, True), at, None)) == avoiding(m, 16), m
        assert _comonomial_tt(m, 16) == avoiding(m, 16), m


def test_level_tables_match_the_reference_tables():
    # mask for mask, both kinds: every level up to _HELD_LEVEL_VARS, where levels are held tuples
    assert _HELD_LEVEL_VARS == 13
    for n in range(1, _HELD_LEVEL_VARS + 1):
        for d, masks in enumerate(monomials_by_degree(n)):
            assert level_tables(n, d) == tuple(monomial_tt(m, n) for m in masks), (n, d)
            assert level_tables(n, d, True) == tuple(_comonomial_tt(m, n) for m in masks), (n, d)


def test_level_tables_above_the_held_range_are_lazy_and_match():
    # above 13 variables each level is a lazy, re-iterable object, new on every call: each pass builds the
    # same tables anew; seeded levels, sampled masks
    rng = random.Random(35)
    for n in range(_HELD_LEVEL_VARS + 1, 17):
        for d in (0, 1, rng.randrange(2, n - 1), n):
            masks = monomials_by_degree(n)[d]
            sample = set(rng.sample(range(len(masks)), min(len(masks), 12)))
            for co, reference in ((False, monomial_tt), (True, _comonomial_tt)):
                level = level_tables(n, d, co)
                assert not isinstance(level, tuple) and level is not level_tables(n, d, co)
                hashes = []
                for i, (m, table) in enumerate(zip(masks, level, strict=True)):
                    if i in sample:
                        assert table == reference(m, n), (n, d, co, m)
                    hashes.append(hash(table))
                assert [hash(table) for table in level] == hashes, (n, d, co)


def test_variable_tts_are_the_degree_one_monomials():
    # fai_direct's picks: picks[t] = monomial_tt(1 << t, len(monos)), at every width it uses and beyond
    for n in range(1, 17):
        assert variable_tts(n) == tuple(monomial_tt(1 << t, n) for t in range(n)), n
        assert variable_tts(n) is variable_tts(n)
    for n in range(1, 6):
        width = len(monomials_upto(n, max(1, n // 2)))
        assert variable_tts(width) == tuple(monomial_tt(1 << t, width) for t in range(width)), n


def test_monomials_upto():
    for n in (1, 3, 5):
        in_order = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
        for d in range(-3, n + 2):
            assert monomials_upto(n, d) == tuple(m for m in in_order if m.bit_count() <= d)
    assert monomials_upto(3, 1) == (0, 1, 2, 4)


def test_parse_and_format():
    assert parse_function("3:E8") == BooleanFunction(3, 0xE8)
    assert format_function(BooleanFunction(3, 0xE8)) == "3:E8"
    assert parse_function("3:{3,5,6,7}") == BooleanFunction(3, 0xE8)
    assert parse_function("2:{}").tt == 0
    assert parse_function("1:2") == BooleanFunction(1, 2)
    assert parse_function("3:{ 1 , 2 }") == BooleanFunction(3, 0b110)
    # int() would read these as 4:0FFF, 3:0F, 3:0F, point 10, 3:E8 and point 1
    bad_chars = ["4:F_FF", "3:+F", "3: F", "3:{1_0}", "+3:E8", "3:{+1}"]
    for bad in ["3:E", "3:0E8", "3:G8", "x:E8", "17:0", "3:{8}", "3:{a}", "3", "3:{1", *bad_chars]:
        with pytest.raises(ValueError):
            parse_function(bad)


def test_format_anf():
    assert format_anf(Anf(2, 0)) == "0"
    assert format_anf(Anf(2, 0b1011)) == "1 + x1 + x1*x2"


def test_weight_identity_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 9)
        f, g = random_function(n, rng), random_function(n, rng)
        assert weight(add(f, g)) == weight(f) + weight(g) - 2 * weight(multiply(f, g))
        assert degree(multiply(f, g)) <= degree(f) + degree(g)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BooleanFunction(0, 0), "variable count 0 out of range"),
        (lambda: BooleanFunction(17, 0), "variable count 17 out of range"),
        (lambda: BooleanFunction(2, 1 << 4), "truth table does not fit"),
        (lambda: Anf(0, 0), "variable count 0 out of range"),
        (lambda: Anf(2, 1 << 4), "coefficient string does not fit"),
        (lambda: delta(4, 2), "point 4 out of range"),
        (lambda: apply_affine(MAJ3, AffineMap(2, BitMatrix.identity(2), 0)), "variable count mismatch"),
        (lambda: AffineMap(3, BitMatrix.identity(2), 0), "matrix shape"),
        (lambda: AffineMap(2, BitMatrix.identity(2), 4), "shift out of range"),
        (lambda: concatenate(BooleanFunction(16, 0), BooleanFunction(16, 0)), "variable limit"),
        (lambda: parse_function("1:F"), "does not fit 2 bits"),
    ],
    ids=[
        "function-n0", "function-n17", "function-table", "anf-n0", "anf-table", "delta",
        "apply-affine-n", "affine-shape", "affine-shift", "concatenate", "parse-table",
    ],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _evaluation_rows(monos, points):
    """Reference: row i has bit j set where the monomial monos[i] is 1 at points[j], point by point."""
    rows = []
    for m in monos:
        acc = 0
        for j, pt in enumerate(points):
            if pt & m == m:
                acc |= 1 << j
        rows.append(acc)
    return rows


def test_evaluation_rows_and_monomial_tables_agree():
    for n in (1, 3, 5):
        monos = monomials_upto(n, n)
        # evaluated at every point in order, a monomial's row is its truth table
        assert _evaluation_rows(monos, range(1 << n)) == [monomial_tt(m, n) for m in monos]
    assert _evaluation_rows([0b01, 0b11], [3, 0, 1]) == [0b101, 0b001]
    # interpolate_low_degree gives the solution of the reference system, solvable or not
    rng = random.Random(41)
    solved = unsolved = 0
    for n in range(2, 11):
        for _ in range(25):
            d = rng.randrange(0, n + 1)
            zeros = set(rng.sample(range(1 << n), rng.randrange(0, min((1 << n) - 1, (2 << d) + 4, 48) + 1)))
            one = rng.choice([p for p in range(1 << n) if p not in zeros])
            monos = monomials_upto(n, d)
            points = sorted(zeros) + [one]
            matrix = BitMatrix.from_rows(_evaluation_rows(monos, points), len(points))
            combo = solve_preimage(matrix, 1 << len(zeros))
            h = interpolate_low_degree(zeros, one, d, n)
            assert (h is None) == (combo is None), (n, d, zeros, one)
            if h is None:
                unsolved += 1
            else:
                solved += 1
                assert h.coeffs == monomial_sum(combo, monos), (n, d, zeros, one)
    assert solved and unsolved
