import random
import sys
from functools import lru_cache
from math import comb

import pytest

import faicodes.immunity as immunity
from faicodes import f2linalg
from faicodes.boolfun import (
    BooleanFunction,
    _butterfly_masks,
    complement,
    degree,
    high_degree_masks,
    mobius,
    monomial_sum,
    monomial_tt,
    monomials_by_degree,
    monomials_upto,
    parse_function,
    random_nonconstant,
)
from faicodes.codes import hull_dim, is_lcd, puncture, rm
from faicodes.f2linalg import BitMatrix, rank
from faicodes.gf2m import enumerate_points, field_new, field_with_modulus
from faicodes.immunity import _best_layer, _layers, ai, fai, lda
from faicodes.pai_lcd import (
    SupportColumns,
    ai_exceeds_via_dims,
    carlet_feng_support,
    fai_at_least_via_codes,
    function_from_columns,
    is_pai_via_lcd,
    lcd_from_pai,
    pai_certificate,
    support_columns,
)

MAJ3 = parse_function("3:E8")


def all_ones(n):
    return BooleanFunction(n, (1 << (1 << n)) - 1)


def test_support_columns_examples():
    assert support_columns(all_ones(3)).cols == frozenset(range(8))
    assert support_columns(BooleanFunction(3, 1)).cols == frozenset({0})
    f = field_new(3)
    ind = BooleanFunction(3, 1 << f.exp[0])
    assert support_columns(ind).cols == frozenset({1})
    assert len(support_columns(MAJ3).cols) == 4


def test_support_columns_default_order():
    # column j is the j-th enumerated point of the default field, each point its own tt index
    pts = enumerate_points(field_new(3))
    assert pts[0] == 0 and pts[1] == 1
    for j, pt in enumerate(pts):
        assert support_columns(BooleanFunction(3, 1 << pt)).cols == frozenset({j})


def test_function_from_columns_roundtrip():
    rng = random.Random(31)
    for n in (3, 4, 5):
        for _ in range(20):
            f = BooleanFunction(n, rng.getrandbits(1 << n))
            assert function_from_columns(support_columns(f)) == f


def test_ai_exceeds_via_dims_examples():
    assert ai_exceeds_via_dims(MAJ3, 1) is True
    assert ai_exceeds_via_dims(MAJ3, 2) is False
    with pytest.raises(ValueError):
        ai_exceeds_via_dims(all_ones(3), 1)
    with pytest.raises(ValueError):
        ai_exceeds_via_dims(BooleanFunction(3, 0), 1)


def test_ai_exceeds_matches_ai_random():
    rng = random.Random(32)
    for n in (3, 4, 5):
        for _ in range(25):
            f = random_nonconstant(n, rng)
            a = ai(f)
            for e in range(1, n + 1):
                assert ai_exceeds_via_dims(f, e) == (a > e)


def test_fai_at_least_via_codes():
    rng = random.Random(33)
    for n in (3, 4):
        for _ in range(25):
            f = random_nonconstant(n, rng)
            v = fai(f).value
            d = degree(f)
            assert fai_at_least_via_codes(f, 1)  # deg >= 0 always holds
            for s in range(2, n + 1):
                if d >= s - 1:
                    assert fai_at_least_via_codes(f, s) == (v >= s)


def test_fai_via_codes_hypothesis_error():
    with pytest.raises(ValueError):
        fai_at_least_via_codes(all_ones(4), 2)  # degree 0 < s - 1


def test_is_pai_via_lcd_examples():
    assert not is_pai_via_lcd(all_ones(3))
    assert not is_pai_via_lcd(all_ones(4))
    cf4 = function_from_columns(carlet_feng_support(4, 0))
    assert is_pai_via_lcd(cf4)
    # the punctured-RM criterion needs full degree on top of fai >= n
    degenerate = BooleanFunction(4, 854)  # fai = 4 but degree 2
    assert fai(degenerate).value == 4
    assert not is_pai_via_lcd(degenerate)


def test_lcd_from_pai_n5_dimensions():
    f = function_from_columns(carlet_feng_support(5, 0))
    c1 = lcd_from_pai(f, 1)
    assert (c1.length, c1.dim) == (16, 6)
    assert is_lcd(c1)
    c2 = lcd_from_pai(f, 2)
    assert (c2.length, c2.dim) == (16, 16)
    assert is_lcd(c2)


def test_lcd_from_pai_n4():
    f = function_from_columns(carlet_feng_support(4, 3))
    c = lcd_from_pai(f, 1)
    assert c.dim == 5 and c.length == 9
    assert is_lcd(c)


def test_lcd_from_pai_refusals():
    low = parse_function("4:0001")  # fai = 5 but dimension contract cannot hold
    with pytest.raises((ValueError, AssertionError)):
        lcd_from_pai(low, 1)
    not_pai = all_ones(5)
    with pytest.raises(ValueError, match="fai"):
        lcd_from_pai(not_pai, 1)
    f = function_from_columns(carlet_feng_support(5, 0))
    with pytest.raises(ValueError):
        lcd_from_pai(f, 3)  # order above (n-1)/2


def test_carlet_feng_support_examples():
    sc5 = carlet_feng_support(5, 0, 16)
    assert sc5.cols == frozenset(range(1, 17))
    assert len(sc5.cols) == 16
    sc4 = carlet_feng_support(4, 0, 8)
    assert sc4.cols == frozenset(range(0, 9))
    assert len(sc4.cols) == 9
    with pytest.raises(ValueError):
        carlet_feng_support(6)
    with pytest.raises(ValueError):
        carlet_feng_support(7)
    with pytest.raises(ValueError):
        carlet_feng_support(4, 0, 16)  # count above the group order


def test_carlet_feng_weight_parity():
    for n, parity in ((3, 0), (5, 0), (4, 1), (8, 1)):
        f = function_from_columns(carlet_feng_support(n, 2))
        assert f.tt.bit_count() % 2 == parity


def test_carlet_feng_offset_wraps():
    order = (1 << 4) - 1
    a = carlet_feng_support(4, 0)
    b = carlet_feng_support(4, order)
    assert a.cols == b.cols


def test_pai_certificate():
    f = function_from_columns(carlet_feng_support(4, 0))
    cert = pai_certificate(f)
    assert cert["pai_by_def"] and cert["pai_by_lcd"] and cert["agree"]
    assert cert["wt"] == 9 and len(cert["per_e_lcd_status"]) == 4
    assert cert["per_e_lcd_status"][0]["dim"] == 5
    assert "modulus" not in cert  # the CLI echoes the modulus it used
    bad = pai_certificate(BooleanFunction(4, 854))
    assert bad["pai_by_def"] and not bad["pai_by_lcd"] and not bad["agree"]
    with pytest.raises(ValueError, match="zero function"):
        pai_certificate(BooleanFunction(4, 0))


def _fields(n):
    """The default field and the one on the largest primitive modulus (the same at n = 2)."""
    for modulus in range((1 << (n + 1)) - 1, 1 << n, -2):
        try:
            last = field_with_modulus(n, modulus)
        except ValueError:
            continue
        return [field_new(n)] if last.modulus == field_new(n).modulus else [field_new(n), last]
    raise AssertionError("no primitive modulus")


def _certificate_functions():
    for n in (2, 3):
        for tt in range(1, 1 << (1 << n)):
            yield BooleanFunction(n, tt), _fields(n)
    rng = random.Random(35)
    for n, count in ((4, 40), (5, 20), (6, 10), (7, 4), (8, 2)):
        for _ in range(count):
            yield BooleanFunction(n, rng.getrandbits(1 << n) | 1), _fields(n)
    for n, offsets in ((4, range(15)), (5, (0, 7, 30)), (8, (0, 3))):
        for field in _fields(n):
            for off in offsets:
                yield function_from_columns(carlet_feng_support(n, off), field), [field]
    for f in _full_space_functions():
        yield f, _fields(f.n)


def _full_space_functions():
    """Inputs whose order codes reach all of GF(2)^wt early: sparse supports, products g*h, random n = 9."""
    rng = random.Random(36)
    for n in (5, 6, 7, 8):
        for wt in range(1, n + 2):
            yield BooleanFunction(n, sum(1 << x for x in rng.sample(range(1 << n), wt)))
        for dim in range(2, (n + 1).bit_length()):  # an affine flat of 2^dim <= n + 1 points
            base, axes = rng.getrandbits(n), rng.sample(range(n), dim)
            flat = {base ^ sum(1 << a for i, a in enumerate(axes) if s >> i & 1) for s in range(1 << dim)}
            yield BooleanFunction(n, sum(1 << x for x in flat))
    for n in (5, 6, 7, 8):
        for d in (1, 2):
            monos = monomials_upto(n, d)[1:]  # no constant term: g is not the all-ones function
            fh = 0
            while fh == 0:
                g = mobius(monomial_sum(rng.getrandbits(len(monos)), monos), n)
                fh = g & rng.getrandbits(1 << n)
            yield BooleanFunction(n, fh)  # annihilated by 1 + g, of degree <= d
    for n in (5, 6, 7, 8):  # heavy, alone and under an annihilator x1*x2: dim < wt past the middle order
        heavy = ((1 << (1 << n)) - 1) ^ sum(1 << x for x in rng.sample(range(1 << n), n))
        yield BooleanFunction(n, heavy)
        yield BooleanFunction(n, heavy & ~monomial_tt(0b11, n))
    for _ in range(2):
        yield random_nonconstant(9, rng)
    yield BooleanFunction(8, (1 << 32) - 1)  # the flat x6 = x7 = x8 = 0: mu'_1 is already the floor 3, dims grow to k = 4


def test_pai_certificate_matches_punctured_rm():
    # one truth-table certificate against the punctured Reed-Muller code on each field's point order
    for f, fields in _certificate_functions():
        cert = pai_certificate(f)
        assert cert["fai"] == fai(f).value, cert["tt"]  # the witness-verified route
        for field in fields:
            sc = support_columns(f, field)
            for entry in cert["per_e_lcd_status"]:
                code = puncture(rm(entry["e"], f.n, field), sc.complement())
                got = (entry["length"], entry["dim"], entry["hull"], entry["lcd"])
                assert got == (code.length, code.dim, hull_dim(code), is_lcd(code)), (cert["tt"], field.modulus)


def test_pai_certificate_ranks_no_full_space_order(monkeypatch):
    # dims and hulls come off the product pass, with no Gram rows and no f2linalg.rank call; the hull
    # is 0 on the full space, and wt - dim from the middle order 2e >= n - 1 on, where the dual lies
    # inside the code
    calls = []
    original = f2linalg.rank
    for name, module in list(sys.modules.items()):
        if name.startswith("faicodes") and getattr(module, "rank", None) is original:
            monkeypatch.setattr(module, "rank", lambda m: calls.append(m.rows) or original(m))
    kinds = set()
    for f in _full_space_functions():
        for entry in pai_certificate(f)["per_e_lcd_status"]:
            full, middle = entry["dim"] == entry["length"], 2 * entry["e"] >= f.n - 1
            if full or middle:
                assert entry["hull"] == entry["length"] - entry["dim"], (f, entry)
            kinds.add((full, middle))
    assert not calls
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def _truth_table_ranks(f):
    """The monomial-column reference: rank of the rows f*m, deg m <= e, for e = 0..n, each from its own matrix.

    The certificate reads the rank of the same products' ANFs off the product pass instead."""
    rows = [f.tt & monomial_tt(m, f.n) for m in monomials_upto(f.n, f.n)]
    return [rank(BitMatrix.from_rows(rows[: len(monomials_upto(f.n, e))], f.size)) for e in range(f.n + 1)]


def _duality_functions():
    """Every nonzero f at n <= 3, a stride over n = 4, then seeded random, sparse and edge-weight f."""
    for n in (1, 2, 3):
        for tt in range(1, 1 << (1 << n)):
            yield BooleanFunction(n, tt)
    for tt in range(1, 1 << 16, 97):
        yield BooleanFunction(4, tt)
    rng = random.Random(37)
    for n in range(5, 11):
        size = 1 << n
        full = (1 << size) - 1
        yield BooleanFunction(n, full)  # e* = n, lda(0) = 0
        yield BooleanFunction(n, 1 << rng.randrange(size))  # e* = 0, lda(1+f) = n
        yield BooleanFunction(n, full ^ 1 << rng.randrange(size))
        for _ in range(3):
            yield random_nonconstant(n, rng)
        for wt in (2, n, 2 * n):
            yield BooleanFunction(n, sum(1 << x for x in rng.sample(range(size), wt)))
        for e in range(n):
            upto = sum(comb(n, i) for i in range(e + 1))  # C(n, <= e)
            for wt in (upto - 1, upto + 1):
                if 1 <= wt < size:
                    yield BooleanFunction(n, sum(1 << x for x in rng.sample(range(size), wt)))


def test_first_full_order_gives_lda_of_complement():
    # puncture-shorten duality: RM(e, n) on supp(f) is all of GF(2)^wt iff lda(1+f) > n - e - 1
    seen = set()
    for f in _duality_functions():
        first_full = _truth_table_ranks(f).index(f.tt.bit_count())
        assert f.n - first_full == lda(complement(f)), f
        seen.add(first_full == f.n)
    assert seen == {False, True}


def _superset_parity(bits, n):
    """The butterfly with its shift reversed: bit w is the parity of the bits x with x ⪰ w."""
    for shift, mask in _butterfly_masks(n):
        bits ^= (bits >> shift) & mask
    return bits


def _gram_hulls(f):
    """The Gram route, rank(G) - rank(G G^T) for the rows G of f*m_u, deg u <= e, at e = 1..n (Massey).

    The Gram entry of f*m_u and f*m_v is F[u|v], the parity of supp(f) above
    u|v; row u is row u - low, low its lowest bit, with the columns v that
    lack low copied from v|low, masked to the columns of degree <= e.
    """
    n = f.n
    dims = _truth_table_ranks(f)
    high = high_degree_masks(n)
    gamma = {0: _superset_parity(f.tt, n)}
    hulls = []
    for e, level in enumerate(monomials_by_degree(n)[1:], start=1):
        for u in level:
            low = u & -u
            prev = gamma[u ^ low] & monomial_tt(low, n)
            gamma[u] = prev | prev >> low
        hulls.append(dims[e] - rank(BitMatrix.from_rows((row & ~high[e] for row in gamma.values()), f.size)))
    return hulls


def test_pai_certificate_hulls_match_gram_route():
    # the product pass's low rows against the Gram matrix of every order, the shortcut orders included
    for f in _full_space_functions():
        assert [entry["hull"] for entry in pai_certificate(f)["per_e_lcd_status"]] == _gram_hulls(f), f


def test_carlet_feng_dimensions_have_closed_form():
    # RM(e, n) punctured at 0 is cyclic, and a Carlet-Feng support is a cyclic window (plus 0 when n
    # is a power of two), so every order of every offset has dim = min(C(n, <= e), wt)
    orders = 0
    for n in (2, 3, 4, 5, 8, 9):
        for offset in range((1 << n) - 1):
            cert = pai_certificate(function_from_columns(carlet_feng_support(n, offset)))
            for entry in cert["per_e_lcd_status"]:
                assert entry["dim"] == min(len(monomials_upto(n, entry["e"])), cert["wt"]), (n, offset, entry)
                orders += 1
    assert orders == 6881


def test_pai_certificate_matches_unfloored_pass():
    # the full product pass (floor 0) and per-order truth-table ranks, the route the certificate replaced
    for f in _duality_functions():
        if f.n > 8:
            continue
        cert = pai_certificate(f)
        best = _best_layer(list(_layers(f, 0)))
        assert cert["fai"] == best.k + best.mu_adm, f
        assert [entry["dim"] for entry in cert["per_e_lcd_status"]] == _truth_table_ranks(f)[1:], f


def test_pai_certificate_permutes_only_the_read_layers(monkeypatch):
    # Carlet-Feng at offset 0: the lazy pass transforms the 130 (n = 9) or 93 (n = 8) products of
    # levels 0..3, f's own among them; each row packed into a chunk draws one monomial table.  The
    # column scan reads its levels through a fresh cache, so _scan_levels' own is left as it was found
    calls = []
    level_tables, scan_levels = immunity.level_tables, immunity._scan_levels
    found = scan_levels.cache_info()

    def counted(d, tables):
        for table in tables:
            calls.append(d)
            yield table

    def counting_tables(n, d, co=False):
        tables = level_tables(n, d, co)
        return tables if co else counted(d, tables)  # the floor's column scan reads co-monomial tables

    monkeypatch.setattr(immunity, "level_tables", counting_tables)
    monkeypatch.setattr(immunity, "_scan_levels", lru_cache(maxsize=None)(scan_levels.__wrapped__))
    for n, bound in ((9, 131), (8, 94)):
        calls.clear()
        assert pai_certificate(function_from_columns(carlet_feng_support(n, 0)))["pai_by_def"]
        assert len(calls) <= bound, (n, len(calls))
    assert scan_levels.cache_info() == found


def test_support_columns_type():
    sc = SupportColumns(3, frozenset({0, 2}))
    assert sc.complement() == frozenset({1, 3, 4, 5, 6, 7})


def test_corrected_lcd_equivalence_random_n5():
    rng = random.Random(34)
    for _ in range(60):
        f = random_nonconstant(5, rng)
        v = fai(f).value
        assert is_pai_via_lcd(f) == (v >= 5 and degree(f) >= 4)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ai_exceeds_via_dims(MAJ3, 0), "order 0 out of range 1..3"),
        (lambda: ai_exceeds_via_dims(MAJ3, 4), "order 4 out of range 1..3"),
        (lambda: fai_at_least_via_codes(BooleanFunction(3, 0), 2), "zero function"),
        (lambda: is_pai_via_lcd(BooleanFunction(3, 0)), "nonzero function"),
        # a field of another degree would scatter the columns over 32 points, keep 8 of 16, or index past 8
        (lambda: support_columns(all_ones(4), field_new(5)), "field degree does not match"),
        (lambda: support_columns(all_ones(4), field_new(3)), "field degree does not match"),
        (lambda: function_from_columns(SupportColumns(4, frozenset({9, 15})), field_new(3)), "field degree does not match"),
        # column -1 would read the last point, and its complement would list all 16 columns; 20 indexes past 16
        (lambda: function_from_columns(SupportColumns(4, frozenset({-1}))), r"column out of range 0\.\.15"),
        (lambda: SupportColumns(4, frozenset({-1})).complement(), r"column out of range 0\.\.15"),
        (lambda: function_from_columns(SupportColumns(4, frozenset({3, 20}))), r"column out of range 0\.\.15"),
    ],
    ids=["dims-order-low", "dims-order-high", "codes-zero", "lcd-zero", "columns-wider-field", "columns-narrower-field",
         "function-narrower-field", "columns-negative", "complement-negative", "columns-past-end"],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
