import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from faicodes.boolfun import (
    BooleanFunction,
    _butterfly_masks,
    anf_of,
    complement,
    delta,
    high_degree_masks,
    interpolate_low_degree,
    mobius,
    monomial_sum,
    monomial_tt,
    monomials_by_degree,
    multiply,
    parse_function,
    random_nonconstant,
    tt_of,
)
from faicodes.f2linalg import BitMatrix, _permute, insert, kernel_basis, rank, row_space_meet_dim, solve_preimage
import faicodes.immunity as immunity
from faicodes.immunity import (
    ImmunityProfile,
    _best_layer,
    _degree_order,
    _layers,
    _least_total,
    _product_rows,
    ai,
    annihilator_witness,
    fai,
    fai_direct,
    ffai,
    function_report,
    is_pai,
    lda,
    mul_space_basis,
    profile,
)
from faicodes.pai_lcd import carlet_feng_support, function_from_columns

MAJ3 = parse_function("3:E8")
X1_3 = parse_function("3:AA")


def all_ones(n):
    return BooleanFunction(n, (1 << (1 << n)) - 1)


def test_lda_examples():
    assert lda(BooleanFunction(3, 0)) == 0
    assert lda(all_ones(3)) is None
    assert lda(X1_3) == 1  # ( 1 + x1 ) * x1 = 0


def test_annihilator_witness_examples():
    w = annihilator_witness(X1_3, 1)
    assert w is not None and w.degree() <= 1
    assert multiply(X1_3, tt_of(w)).tt == 0
    assert annihilator_witness(all_ones(3), 3) is None
    w0 = annihilator_witness(BooleanFunction(3, 0), 0)
    assert w0 is not None and w0.coeffs == 1


@pytest.mark.parametrize("bound", [-1, -2, -5])
def test_negative_degree_bounds_find_nothing(bound):
    # no nonzero g has degree below 0: not for the zero function, nor for 1 + x5, which x5 annihilates
    for tt in (0, 0x0000FFFF):
        assert annihilator_witness(BooleanFunction(5, tt), bound) is None
    assert interpolate_low_degree({1, 2, 3}, 5, bound, 4) is None
    assert interpolate_low_degree(set(), 5, bound, 4) is None


def test_ai_examples():
    assert ai(MAJ3) == 2
    assert ai(BooleanFunction(3, 0)) == 0
    assert ai(all_ones(3)) == 0
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(30):
            f = BooleanFunction(n, rng.getrandbits(1 << n))
            a = ai(f)
            assert a <= math.ceil(n / 2)
            assert a == ai(complement(f))


def test_mul_space_basis_examples():
    assert mul_space_basis(BooleanFunction(2, 0), 1).rows == 0
    for k in range(0, 4):
        b = mul_space_basis(all_ones(3), k)
        assert b.rows == sum(math.comb(3, i) for i in range(k + 1))
    x1 = BooleanFunction(2, 0b1010)
    b = mul_space_basis(x1, 1)
    assert b.rows == 2  # span{x1, x1*x2}


def test_mu_examples_and_guard():
    assert profile(BooleanFunction(2, 0)).mu[0] is None
    x1 = BooleanFunction(2, 0b1010)
    assert profile(x1).mu[0] == 1


def test_mu_against_meet_dim_definition():
    # independent oracle: smallest d with a nonzero meet against the low-degree masks
    rng = random.Random(12)
    for n in (2, 3, 4):
        size = 1 << n
        levels = monomials_by_degree(n)
        for _ in range(40):
            f = BooleanFunction(n, rng.getrandbits(size))
            mus = profile(f).mu
            for k in range(1, n + 1):
                basis = mul_space_basis(f, k)
                expected = None
                if basis.rows:
                    for d in range(n + 1):
                        masks = [1 << m for lv in levels[: d + 1] for m in lv]
                        low = BitMatrix.from_rows(masks, size)
                        if row_space_meet_dim(basis, low) > 0:
                            expected = d
                            break
                assert mus[k - 1] == expected


def test_profile_examples():
    assert profile(all_ones(3)).mu == (0, 0, 0)
    assert profile(BooleanFunction(2, 1)).mu == (2, 2)  # delta_0 multiples stay delta_0
    assert profile(BooleanFunction(3, 0)).mu == (None, None, None)
    p = profile(MAJ3)
    assert p.mu == (2, 2, 2)
    assert p.min_k_plus_mu() == 3


def test_profile_validation():
    with pytest.raises(ValueError):
        ImmunityProfile(3, (1, 2, 2))
    with pytest.raises(ValueError):
        ImmunityProfile(3, (1, 1))


def test_fai_examples():
    assert fai(all_ones(2)).value == 2
    assert fai(all_ones(4)).value == 2
    res = fai(BooleanFunction(2, 1))
    assert res.value == 3  # delta_0: degree-1 g through 0, product delta_0
    with pytest.raises(ValueError):
        fai(BooleanFunction(3, 0))


def test_fai_witness_contract():
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        for _ in range(40):
            f = random_nonconstant(n, rng)
            res = fai(f)
            w = res.witness
            g = tt_of(w.g)
            assert g.tt not in (0, (1 << (1 << n)) - 1)
            prod = multiply(f, g)
            assert prod.tt != 0
            assert anf_of(prod).coeffs == w.product.coeffs
            assert w.g.degree() + w.product.degree() == res.value == w.total
            assert w.g.degree() <= res.value // 2
            assert w.product.degree() >= (res.value + 1) // 2


def test_fai_bracket_random_n3():
    rng = random.Random(14)
    for _ in range(60):
        f = random_nonconstant(3, rng)
        v = fai(f).value
        l = lda(complement(f))
        assert l is not None
        assert l + 1 <= v <= 2 * l


def test_fai_direct_agrees_exhaustively_n3():
    for tt in range(1, 255):
        f = BooleanFunction(3, tt)
        assert fai(f).value == fai_direct(f)


def test_fai_direct_guards():
    with pytest.raises(ValueError):
        fai_direct(BooleanFunction(3, 0))
    with pytest.raises(ValueError, match="n <= 5"):
        fai_direct(random_nonconstant(6, random.Random(0)))


def test_fai_singleton_class_exceeds_n():
    for n in (2, 3, 4):
        for a in range(1 << n):
            assert fai(delta(a, n)).value == n + 1


def test_ffai():
    f = MAJ3
    assert ffai(f) == min(fai(f).value, fai(complement(f)).value)
    assert ffai(f) == ffai(complement(f))
    with pytest.raises(ValueError):
        ffai(BooleanFunction(3, 0))
    with pytest.raises(ValueError):
        ffai(all_ones(3))


def test_ffai_sandwich_random():
    rng = random.Random(15)
    for n in (3, 4, 5):
        for _ in range(30):
            f = random_nonconstant(n, rng)
            lo = min(lda(f) + 1, lda(complement(f)) + 1)
            assert lo <= ffai(f) <= 2 * ai(f)


def test_is_pai():
    assert not is_pai(all_ones(3))
    assert not is_pai(all_ones(4))
    cf = parse_function("4:195F")  # verified consecutive-power support instance
    assert is_pai(cf)


def test_divergence_reported_for_all_ones():
    res = fai(all_ones(3))
    assert res.diverged
    assert res.profile_bound == 1 and res.value == 2


def test_function_report_fields():
    rec = function_report(MAJ3)
    assert rec["tt"] == "3:E8"
    assert rec["deg"] == 2 and rec["wt"] == 4 and rec["ai"] == 2
    assert rec["profile"] == [2, 2, 2]
    assert rec["fai"] == 3 and rec["ffai"] == 3
    assert rec["witness_total"] == 3
    ones = function_report(all_ones(2))
    assert ones["ffai"] is None
    assert ones["profile_bound"] == 1
    with pytest.raises(ValueError):
        function_report(BooleanFunction(2, 0))


def _functions(n_max_exhaustive, seeded_ns, per_n, seed):
    """Every function for n <= n_max_exhaustive, then seeded random ones."""
    for n in range(1, n_max_exhaustive + 1):
        for tt in range(1 << (1 << n)):
            yield BooleanFunction(n, tt)
    rng = random.Random(seed)
    for n in seeded_ns:
        for _ in range(per_n):
            yield BooleanFunction(n, rng.getrandbits(1 << n))


def test_lda_is_min_of_complement_profile():
    # LDA(f) = min_k mu_k(1+f): the column route against the product pass
    for f in _functions(3, range(4, 9), 12, seed=16):
        mus = [m for m in profile(complement(f)).mu if m is not None]
        assert lda(f) == (min(mus) if mus else None), f


def test_annihilator_witness_is_first_kernel_vector():
    # reference: the first kernel vector of the (support point x monomial) evaluation matrix
    for f in _functions(3, range(4, 7), 15, seed=17):
        for e in range(f.n + 1):
            monos = [m for level in monomials_by_degree(f.n)[: e + 1] for m in level]
            points = [x for x in range(f.size) if f.value(x)]
            rows = [sum(1 << j for j, m in enumerate(monos) if x & m == m) for x in points]
            kern = kernel_basis(BitMatrix.from_rows(rows, len(monos)))
            want = None
            if kern.rows:
                want = sum(1 << monos[j] for j in range(len(monos)) if (kern.data[0] >> j) & 1)
            got = annihilator_witness(f, e)
            assert (None if got is None else got.coeffs) == want, (f, e)


def test_function_report_matches_public_calls():
    for f in _functions(2, range(3, 8), 6, seed=18):
        if f.tt == 0:
            continue
        rec = function_report(f)
        res = fai(f)
        assert rec["ai"] == ai(f)
        assert rec["lda_f"] == lda(f) and rec["lda_fc"] == lda(complement(f))
        assert rec["profile"] == list(profile(f).mu)
        assert rec["fai"] == res.value
        assert rec["witness_total"] == res.witness.total
        assert rec["ffai"] == (None if f.is_constant() else ffai(f))
        assert rec.get("profile_bound") == (res.profile_bound if res.diverged else None)


def test_fai_direct_buffers_stay_small():
    """The bit-sliced ints stay few at n = 5, each 8 KiB: under malloc's mmap threshold, no page faults."""
    f = parse_function("5:B41365B6")
    expected = fai_direct(f)  # caches the selector columns monomial_tt(1 << t, 16) outside the measurement
    tracemalloc.start()
    try:
        assert fai_direct(f) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 16) * 4, peak  # 256 KiB, what one uint32 ANF per choice would take


def test_fai_direct_matches_fai_on_extreme_weights_n5():
    """Every n = 5 function of weight <= 2 or >= 30, the 32 singletons (FAI = n + 1 = 6) among them."""
    values = []
    for weight in (1, 2, 30, 31, 32):
        for points in itertools.combinations(range(32), weight):
            f = BooleanFunction(5, sum(1 << x for x in points))
            values.append(fai(f).value)
            assert fai_direct(f) == values[-1], f
    assert len(values) == 1057 and values.count(6) == 32


def _two_sided_cases():
    """Every function at n <= 3, then seeded n = 4..10, most of them weight-skewed."""
    yield from _functions(3, (), 0, seed=0)
    rng = random.Random(19)
    for n in range(4, 11):
        for i in range(8 if n < 9 else 3):
            p = (0.5, 0.1, 0.9, 0.03, 0.97)[i % 5]
            yield BooleanFunction(n, sum(1 << x for x in range(1 << n) if rng.random() < p))


def _fai_value(f):
    """Reference: FAI(f) from the full product pass (floor 0), without a witness."""
    best = _best_layer(_layers(f, 0))
    return best.k + best.mu_adm


def test_ffai_bounded_pass_matches_unbounded_min():
    for f in _two_sided_cases():
        if f.is_constant():
            continue
        want = min(_fai_value(f), _fai_value(complement(f)))
        assert ffai(f) == want, f
        assert function_report(f)["ffai"] == want, f


def test_ai_scan_matches_min_of_ldas():
    for f in _two_sided_cases():
        assert ai(f) == min(v for v in (lda(f), lda(complement(f))) if v is not None), f


def test_ffai_stops_each_pass_at_its_floor():
    # each side of ffai alone: the pass floored at the other side's lda and given its own, read
    # only while the bound on later totals is below the least total so far, against the full pass
    for f in _two_sided_cases():
        if f.is_constant():
            continue
        for side, other in ((f, complement(f)), (complement(f), f)):
            floor = lda(other)
            assert _least_total(side, floor, lda(side)) == _fai_value(side), side


def _count_boundary_cases():
    """Every function at n <= 3; then at n = 4..11 the weights 0, 1, 2^n - 1,
    2^n and every C(n, <= d), the majority function and one random function."""
    yield from _functions(3, (), 0, seed=0)
    rng = random.Random(23)
    for n in range(4, 12):
        size = 1 << n
        weights = [0, 1, size - 1, size] + [sum(math.comb(n, i) for i in range(d + 1)) for d in range(n)]
        for w in weights:
            yield BooleanFunction(n, sum(1 << x for x in rng.sample(range(size), w)))
        # odd n: wt = 2^(n-1) = C(n, <= (n-1)/2), and lda = (n+1)/2 is one level higher
        yield BooleanFunction(n, sum(1 << x for x in range(size) if 2 * x.bit_count() > n))
        yield BooleanFunction(n, rng.getrandbits(size))


def test_lda_counting_bound_matches_unbounded():
    # reference: the first dependency of the tagged column route, which inserts every level
    for f in _count_boundary_cases():
        want = [None if hit is None else hit[0] for hit in (_first_annihilator(g, g.n) for g in (f, complement(f)))]
        assert [lda(f), lda(complement(f))] == want, f
        assert ai(f) == min(v for v in want if v is not None), f


def _annihilator_dims(f):
    """A_f(d) for d = 0..n: C(n, <= d) minus the rank of the truth-table columns f*m, deg m <= d."""
    n, monos, dims = f.n, [], []
    for level in monomials_by_degree(n):
        monos += level
        dims.append(len(monos) - rank(BitMatrix.from_rows((f.tt & monomial_tt(m, n) for m in monos), 1 << n)))
    return dims


def _duality_cases():
    """Every function at n <= 3, then seeded dense, sparse, one-point and co-one-point ones at n = 4..9."""
    yield from _functions(3, (), 0, seed=0)
    rng = random.Random(28)
    for n in range(4, 10):
        size = 1 << n
        for _ in range(2):
            point = 1 << rng.randrange(size)
            yield BooleanFunction(n, rng.getrandbits(size))
            yield BooleanFunction(n, rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size))
            yield BooleanFunction(n, point)
            yield BooleanFunction(n, ((1 << size) - 1) ^ point)


def test_annihilator_dimensions_obey_duality():
    # RM(d, n) restricted to supp(f) has as dual RM(n - d - 1, n) shortened off supp(f), so
    # A_f(d) = C(n, <= d) - wt(f) + A_{1+f}(n - d - 1), with A(-1) = 0
    for f in _duality_cases():
        n, weight = f.n, f.tt.bit_count()
        dims, dims_c = _annihilator_dims(f), [0, *_annihilator_dims(complement(f))]  # dims_c[j + 1] = A_{1+f}(j)
        for d in range(n + 1):
            below = sum(math.comb(n, i) for i in range(d + 1))
            assert dims[d] == below - weight + dims_c[n - d], (f, d)


def _floor_cases():
    """Every function at n <= 3, then seeded dense and sparse ones at n = 4..11."""
    yield from _functions(3, (), 0, seed=0)
    rng = random.Random(24)
    for n in range(4, 12):
        for i in range(6 if n < 10 else 2):
            p = (0.5, 0.1, 0.9)[i % 3]
            yield BooleanFunction(n, sum(1 << x for x in range(1 << n) if rng.random() < p))


def test_packed_product_rows_match_per_row_transform():
    # n <= 2 packs byte strides; n = 11, 12 split the middle levels into chunks, the last one partial
    rng = random.Random(27)
    cases = [(n, level) for n in range(1, 13) for level in monomials_by_degree(n)]
    cases.append((16, monomials_by_degree(16)[8][:3]))  # one row per chunk
    for n, level in cases:
        to_degree = _degree_order(n).to_degree
        size = 1 << n
        sparse = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
        for tt in (rng.getrandbits(size), sparse, 1 << rng.randrange(size), (1 << size) - 1):
            f = BooleanFunction(n, tt)
            want = [_permute(mobius(tt & monomial_tt(m, n), n), to_degree) for m in level]
            assert list(_product_rows(f, level, to_degree)) == want, (n, len(level), tt)
            assert list(_product_rows(f, level)) == [mobius(tt & monomial_tt(m, n), n) for m in level]


def _admissible_mu(rows, anf_f_perm, annihilators_ok):
    """Reference readout: (mu', witness row) from the basis rows as (degree, row) pairs, by degree.

    A None row with a non-None mu' means the product f itself, reached through 1 + annihilator.
    """
    other = next(((deg, row) for deg, row in rows if row != anf_f_perm), (None, None))
    if annihilators_ok and rows and other[0] != rows[0][0]:
        return rows[0][0], None  # only f sits at the minimum
    return other


def _readout_cases():
    """Every function at n <= 3, then seeded n = 4..11: dense, sparse, and weight 1, 2 and 2^n - 2."""
    yield from _functions(3, (), 0, seed=0)
    rng = random.Random(26)
    for n in range(4, 12):
        size = 1 << n
        yield BooleanFunction(n, rng.getrandbits(size))
        yield BooleanFunction(n, rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size))
        for w in (1, 2, size - 2):
            yield BooleanFunction(n, sum(1 << x for x in rng.sample(range(size), w)))


def test_layer_readout_matches_list_reference(monkeypatch):
    # the pass's own basis, caught as insert fills it, read as the whole (degree, row) list;
    # rank counts its rows and hull those of degree <= n - k - 1
    basis = []
    monkeypatch.setattr(immunity, "insert", lambda slots, row: basis.append(slots) or insert(slots, row))
    for f in _readout_cases():
        if f.tt == 0:
            continue
        n = f.n
        to_degree, deg_at = _degree_order(n)
        anf_f_perm = _permute(anf_of(f).coeffs, to_degree)
        lda_f = lda(f)
        for floor in (0, lda(complement(f))):  # the full pass, and the floored one
            del basis[:]
            for k, layer in enumerate(_layers(f, floor), start=1):  # read each layer as it is yielded
                rows = [(deg_at[p - 1], row) for p, row in enumerate(basis[-1]) if row]
                lda_k = lda_f if lda_f is not None and lda_f <= k else None
                mu_adm, row = _admissible_mu(rows, anf_f_perm, lda_k is not None)
                hull = sum(deg <= n - k - 1 for deg, _ in rows)
                assert layer == (k, rows[0][0], mu_adm, row, lda_k, len(rows), hull), (f, floor)
            assert k == n, (f, floor)


def _settle_cases():
    """The readout cases, then 5-dimensional flats at n = 8, x6 = x7 = x8 = 0 first, and seeded flats at n = 5..10.

    On the first flat mu'_1 is the floor 3 and lda(f) = 1 (x6 annihilates f), so
    a pass that stopped inserting there would read four orders of a certificate
    off a stale basis, and a reader that stops there inserts levels 0 and 1 only.
    """
    yield from _readout_cases()
    yield BooleanFunction(8, (1 << 32) - 1)
    rng = random.Random(28)
    for n in range(5, 11):
        for dim in range(1, n):
            base, axes = rng.getrandbits(n), rng.sample(range(n), dim)
            flat = {base ^ sum(1 << a for i, a in enumerate(axes) if s >> i & 1) for s in range(1 << dim)}
            yield BooleanFunction(n, sum(1 << x for x in flat))


def test_floor_stopped_pass_matches_full_pass(monkeypatch):
    # the floor only checks mu_k >= lda(1+f): every layer is the full pass's, and each reader,
    # stopping on its own at the floor, gives what the whole layer list gives
    # counts every basis insert, the column scans' too: both sides run the same scans
    inserted = []
    monkeypatch.setattr(immunity, "insert", lambda slots, row: inserted.append(1) or insert(slots, row))
    lazy_pass = immunity._layers
    calls = (function_report, fai, profile)
    counts = {(call.__name__, side): 0 for call in calls for side in ("every layer", "own stop")}
    for f in itertools.chain(_floor_cases(), _settle_cases()):
        if f.tt == 0:
            continue
        full = list(_layers(f, 0))
        assert list(_layers(f, lda(complement(f)))) == full, f
        best, res = _best_layer(full), fai(f)
        assert list(profile(f).mu) == [lay.mu for lay in full], f
        assert res.value == min(lay.k + lay.mu_adm for lay in full), f
        assert res.witness == immunity._extract_witness(f, best), f
        for call in calls:
            del inserted[:]
            with monkeypatch.context() as m:
                m.setattr(immunity, "_layers", lambda g, floor: iter(list(lazy_pass(g, floor))))
                want = call(f)
            counts[call.__name__, "every layer"] += len(inserted)
            del inserted[:]
            assert call(f) == want, (call.__name__, f)
            counts[call.__name__, "own stop"] += len(inserted)
    # each reader's stop has to end some passes early, or this compares a pass with itself
    for call in calls:
        assert counts[call.__name__, "own stop"] < counts[call.__name__, "every layer"], counts


def test_floored_pass_keeps_rank_and_hull_below_order_n_minus_floor():
    # every order a certificate reads off the floored pass has the full pass's rank and hull;
    # on the flat x6 = x7 = x8 = 0 a pass that stopped at mu'_1 = floor would read stale ones
    flat = BooleanFunction(8, (1 << 32) - 1)
    assert lda(complement(flat)) == 3 and lda(flat) == 1
    assert [(lay.rank, lay.hull) for lay in _layers(flat, 3)][:4] == [(6, 6), (16, 16), (26, 6), (31, 1)]
    for f in _settle_cases():
        if f.tt == 0:
            continue
        full, floored = list(_layers(f, 0)), list(_layers(f, lda(complement(f))))
        assert [(lay.rank, lay.hull) for lay in floored] == [(lay.rank, lay.hull) for lay in full], f


def _fai_direct_butterfly(f):
    """Reference: the product truth tables g*f of every g, one vectorized butterfly to ANF."""
    n = f.n
    eff = max(1, n // 2)
    monos = [m for level in monomials_by_degree(n)[: eff + 1] for m in level]
    idx = np.arange(1, 1 << len(monos), dtype=np.uint32)
    g_tt = np.zeros(idx.shape, dtype=np.uint64)
    g_deg = np.zeros(idx.shape, dtype=np.int8)
    for t, m in enumerate(monos):
        chosen = ((idx >> np.uint32(t)) & np.uint32(1)).astype(bool)
        g_tt[chosen] ^= np.uint64(monomial_tt(m, n))
        np.maximum(g_deg, np.where(chosen, np.int8(m.bit_count()), np.int8(0)), out=g_deg)
    prod = g_tt & np.uint64(f.tt)
    anf = prod.copy()
    block = (1 << (1 << n)) - 1  # the masks span 2^MAX_VARS bits; a lane holds one 2^n-bit table
    for shift, mask in _butterfly_masks(n):
        anf ^= (anf & np.uint64(mask & block)) << np.uint64(shift)
    deg_p = np.zeros(idx.shape, dtype=np.int8)
    for high in high_degree_masks(n)[:n]:
        deg_p += ((anf & np.uint64(high)) != 0).astype(np.int8)
    valid = (prod != 0) & (idx != 1)
    return int((g_deg + deg_p)[valid].min())


def test_fai_direct_matches_butterfly_reference():
    for f in _functions(3, (4, 5), 25, seed=20):
        if f.tt:
            assert fai_direct(f) == _fai_direct_butterfly(f), f


def _first_annihilator(f, e):
    """Reference: (degree, ANF) of the first nonzero annihilator of f of degree <= e, or None.

    The columns f*m, for the monomials m in degree order, go into one XOR
    basis held in a dict by lead bit; the high 2^n bits of a row hold the
    column and the low 2^n bits the monomials it combines.  The first column
    that reduces to zero closes the first dependency, and its tag is the
    annihilator.
    """
    n = f.n
    size = 1 << n
    basis = {}
    for d, level in enumerate(monomials_by_degree(n)[: e + 1]):
        for m in level:
            row = (f.tt & monomial_tt(m, n)) << size | 1 << m
            while (lead := row.bit_length() - 1) >= size:
                other = basis.get(lead)
                if other is None:
                    basis[lead] = row
                    break
                row ^= other
            else:
                return d, row
    return None


def _annihilator_by_solve(f, e):
    """Reference: the first dependent column f*m_i, solved over the earlier columns by Gauss-Jordan."""
    n = f.n
    monos = [m for level in monomials_by_degree(n)[: e + 1] for m in level]
    cols = [f.tt & monomial_tt(m, n) for m in monos]
    slots = [0] * ((1 << n) + 1)
    for i, col in enumerate(cols):
        if not insert(slots, col):
            return monomial_sum(solve_preimage(BitMatrix.from_rows(cols[:i], 1 << n), col), monos) ^ 1 << monos[i]
    return None


def test_lda_matches_tagged_column_route():
    # lda and annihilator_witness against the tagged column route and the solve route, at every order e
    rng = random.Random(22)
    seeded = []
    for i in range(200):
        n = 4 + i % 6
        tt = rng.getrandbits(1 << n)
        if i % 3 == 0:  # sparse supports close the first dependency early
            tt &= rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
        seeded.append(BooleanFunction(n, tt))
    for f in [*_functions(3, (), 0, seed=0), *seeded]:
        for e in range(f.n + 1):
            hit = _first_annihilator(f, e)
            got = None if (g := annihilator_witness(f, e)) is None else g.coeffs
            assert got == (None if hit is None else hit[1]) == _annihilator_by_solve(f, e), (f, e)
        assert lda(f) == (None if hit is None else hit[0]), f  # hit at e = n


@pytest.mark.parametrize("k", [-1, 4])
def test_mul_space_basis_degree_range(k):
    with pytest.raises(ValueError, match=f"degree bound {k} out of range 0..3"):
        mul_space_basis(MAJ3, k)


def _side_major_first_dependency(n, tts):
    """The monomial-column reference: each table's whole level of columns tt*m into its own basis
    before the next table's, every level from 0 inserted, monomial truth tables read per side.

    The scan under test inserts co-monomial columns instead, another spanning set of each level."""
    lightest = min(tt.bit_count() for tt in tts)
    bases = [(tt, [0] * ((1 << n) + 1)) for tt in tts]
    count = 0
    for d, level in enumerate(monomials_by_degree(n)):
        count += len(level)
        if count > lightest:
            return d
        for tt, slots in bases:
            for m in level:
                if not insert(slots, tt & monomial_tt(m, n)):
                    return d
    return None


def test_first_dependency_matches_side_major_reference_n4():
    # every one-sided (lda) and two-sided (ai) input at n = 4
    for tt in range(1 << 16):
        for tts in ((tt,), (tt, tt ^ 0xFFFF)):
            assert immunity._first_dependency(4, tts) == _side_major_first_dependency(4, tts), tts


def test_comonomial_columns_take_fewer_reduction_steps(monkeypatch):
    # the same d as the monomial-column reference in fewer reduction steps; each insert below
    # runs f2linalg.insert's loop with a step counter, for the scan and the reference alike
    steps = {}

    def counting_insert(slots, row):
        while other := slots[lead := row.bit_length()]:
            row ^= other
            steps[route] += 1
        slots[lead] = row
        return lead > 0

    monkeypatch.setattr(immunity, "insert", counting_insert)
    monkeypatch.setitem(globals(), "insert", counting_insert)
    rng = random.Random(26)
    for n in (10, 10, 11, 11):
        f = random_nonconstant(n, rng)
        steps.update(scan=0, reference=0)
        route = "scan"
        d = lda(f)
        route = "reference"
        assert d == _side_major_first_dependency(n, (f.tt,)), f
        assert steps["scan"] < steps["reference"], (f, steps)


def _first_dependency_cases():
    """Seeded random, light (wt <= n + 1), heavy and all-ones functions at n = 1..11,
    then Carlet-Feng functions at n = 9, on the count boundary wt = C(9, <= 4)."""
    rng = random.Random(25)
    for n in range(1, 12):
        size = 1 << n
        yield BooleanFunction(n, rng.getrandbits(size))
        for w in range(min(n + 1, size) + 1):
            yield BooleanFunction(n, sum(1 << x for x in rng.sample(range(size), w)))
        yield BooleanFunction(n, sum(1 << x for x in range(size) if rng.random() < 0.95))
        yield all_ones(n)
    for offset in (0, 5, 77):
        f = function_from_columns(carlet_feng_support(9, offset))
        assert f.tt.bit_count() == sum(math.comb(9, i) for i in range(5))
        yield f


def test_first_dependency_matches_side_major_reference():
    for f in _first_dependency_cases():
        for tts in ((f.tt,), (f.tt, complement(f).tt)):
            assert immunity._first_dependency(f.n, tts) == _side_major_first_dependency(f.n, tts), (f, len(tts))


def _tail_cases():
    """Every nonzero function at n <= 4, then seeded dense, sparse, one-point and co-one-point ones at n = 5..11."""
    for f in _functions(4, (), 0, seed=0):
        if f.tt:
            yield f
    rng = random.Random(29)
    for n in range(5, 12):
        size = 1 << n
        for _ in range(2 if n < 10 else 1):
            point = 1 << rng.randrange(size)
            yield BooleanFunction(n, rng.getrandbits(size))
            yield BooleanFunction(n, rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size))
            yield BooleanFunction(n, point)
            yield BooleanFunction(n, ((1 << size) - 1) ^ point)


def test_full_pass_tail_is_the_floor():
    # a nonzero annihilator h of 1+f of degree floor >= 1 has f*h = h, so mu_k = mu'_k = floor from k = floor on;
    # read on supp(f) the products of order k are RM(k, n) restricted there, of dimension
    # wt(f) - A_{1+f}(n - k - 1), so from k = n - floor on they span every function on supp(f),
    # h among them: the rank is wt(f) and mu_k is the floor
    for f in _tail_cases():
        floor, full = lda(complement(f)), list(_layers(f, 0))
        full_rank = [(lay.k, lay.rank, lay.mu) for lay in full if lay.k >= f.n - floor]
        assert full_rank == [(k, f.tt.bit_count(), floor) for k in range(max(1, f.n - floor), f.n + 1)], f
        if floor == 0:  # f = 1: g = 1 is excluded, and mu'_k = 1 > mu_k = 0
            continue
        tail = [(lay.k, lay.mu, lay.mu_adm) for lay in full][floor - 1 :]
        assert tail == [(k, floor, floor) for k in range(floor, f.n + 1)], f


def _floor_is_strictly_best(f, floor):
    """Whether layer floor totals 2 floor, below every earlier layer of the full pass."""
    totals = [lay.k + lay.mu_adm for lay in _layers(f, 0)]
    return 2 * floor < min(totals[: floor - 1], default=math.inf)


@pytest.fixture
def pass_levels(monkeypatch):
    """(tt, level) of each product pass insert, None for any other insert.

    Each product row drawn is tagged with its function and level, and an
    insert of that very row reads the tag; the column scans insert no drawn
    row.  A row not inserted before the next is drawn, as the witness solve's
    are, drops its tag.
    """
    tags, levels = {}, []
    product_rows = immunity._product_rows

    def tagged_rows(g, monos, network=()):
        for row in product_rows(g, monos, network):
            tags["at"] = row, (g.tt, monos[0].bit_count())
            yield row
            tags.pop("at", None)

    def tagged_insert(slots, row):
        drawn, tag = tags.pop("at", (None, None))
        levels.append(tag if drawn == row else None)
        return insert(slots, row)

    monkeypatch.setattr(immunity, "_product_rows", tagged_rows)
    monkeypatch.setattr(immunity, "insert", tagged_insert)
    return levels


def _levels_of(levels, f):
    """The level of each insert of f's own pass, in order."""
    return [level for tt, level in filter(None, levels) if tt == f.tt]


def test_fai_and_report_insert_no_level_from_the_floor_on(pass_levels):
    fallbacks = 0
    for f in _floor_cases():
        if f.is_constant():  # f = 1 has floor 0, below its layer 1
            continue
        fc = complement(f)
        floor, floor_c = lda(fc), lda(f)
        strictly_best = _floor_is_strictly_best(f, floor)
        for call in (fai, function_report):
            del pass_levels[:]
            call(f)
            top = max(_levels_of(pass_levels, f))
            assert top <= floor if strictly_best else top < floor, (call.__name__, f)
            fallbacks += top == floor
        # the report's FFAI pass on 1+f, seeded with 2 lda(f), stops below level lda(f)
        assert all(level < floor_c for level in _levels_of(pass_levels, fc)), f
    assert fallbacks, "no case reads layer lda(1+f)"


def _full_pass_levels(pass_levels, f):
    """f's full pass and the level of each of its inserts."""
    del pass_levels[:]
    full = list(_layers(f, 0))
    return full, _levels_of(pass_levels, f)


def _fai_stop(full, floor):
    """The layer after which FAI's read may stop, and whether only the n - floor clause allows it there:
    the first k with mu_k = floor or k + 1 >= min(floor, n - floor), and k + 1 + floor >= the least
    k + mu'_k so far."""
    least, n = math.inf, len(full)
    for lay in full:
        least = min(least, lay.k + lay.mu_adm)
        if (lay.mu == floor or lay.k + 1 >= min(floor, n - floor)) and lay.k + 1 + floor >= least:
            return lay.k, lay.mu != floor and lay.k + 1 < floor
    return full[-1].k, False


def _inserted_upto(levels, stop):
    """The levels a pass inserts when it reads layers 1..stop: none when it reads no layer."""
    return [level for level in levels if level <= stop] if stop else []


def test_profile_inserts_no_level_past_its_first_layer_at_the_floor(pass_levels):
    # layer min(floor, n - floor) is at the floor, so profile reads at most the layers before it
    for f in itertools.chain(_floor_cases(), _settle_cases()):
        if f.tt == 0:
            continue
        floor = lda(complement(f))
        full, levels = _full_pass_levels(pass_levels, f)
        stop = min(next(lay.k for lay in full if lay.mu == floor), max(min(floor, f.n - floor) - 1, 0))
        del pass_levels[:]
        profile(f)
        assert _levels_of(pass_levels, f) == _inserted_upto(levels, stop), f


def test_fai_and_report_insert_no_level_past_their_stop(pass_levels):
    early = tail = 0  # stops at mu_k = floor with k + 1 < floor; stops on k + 1 >= n - floor alone
    for f in itertools.chain(_floor_cases(), _settle_cases()):
        if f.tt == 0:
            continue
        floor = lda(complement(f))
        full, levels = _full_pass_levels(pass_levels, f)
        stop, by_tail = _fai_stop(full, floor)
        early += full[stop - 1].mu == floor and stop + 1 < floor
        tail += by_tail
        for call in (fai, function_report):
            del pass_levels[:]
            call(f)
            assert _levels_of(pass_levels, f) == [level for level in levels if level <= stop], (call.__name__, f)
    assert early, "no case stops on mu_k = floor alone"
    assert tail, "no case stops on k + 1 >= n - floor alone"


def _least_total_stop(full, floor, own, best):
    """The last layer _least_total reads, 0 for none: it stops before the first layer j with
    min(j + max(own, floor), max(j, min(own, floor)) + floor) >= the least total so far.
    With own = floor the bound is j + floor, the stop before lda(f) was used."""
    best = min(best, 2 * floor)
    for lay in full:
        if min(lay.k + max(own, floor), max(lay.k, min(own, floor)) + floor) >= best:
            return lay.k - 1
        best = min(best, lay.k + lay.mu_adm)
    return full[-1].k


def _light_cases():
    """Seeded light functions at n = 9..11, about an eighth of the points each."""
    rng = random.Random(31)
    for n in (9, 10, 11):
        size = 1 << n
        yield BooleanFunction(n, rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size))


def test_ffai_passes_insert_no_level_past_their_stop(pass_levels):
    # ffai's two passes and the report's pass on 1+f stop by the AI-range bound on later totals;
    # it ends some passes below where k + 1 + floor >= the least total would (the old stop)
    earlier = []
    for f in itertools.chain(_two_sided_cases(), _light_cases()):
        if f.is_constant():
            continue
        fc = complement(f)
        lda_f, lda_fc = lda(f), lda(fc)
        full, levels = _full_pass_levels(pass_levels, f)
        full_c, levels_c = _full_pass_levels(pass_levels, fc)
        fai_f = min(lay.k + lay.mu_adm for lay in full)
        stop, stop_c = _least_total_stop(full, lda_fc, lda_f, math.inf), _least_total_stop(full_c, lda_f, lda_fc, fai_f)
        del pass_levels[:]
        ffai(f)
        assert _levels_of(pass_levels, f) == _inserted_upto(levels, stop), f
        assert _levels_of(pass_levels, fc) == _inserted_upto(levels_c, stop_c), f
        del pass_levels[:]
        function_report(f)
        assert _levels_of(pass_levels, fc) == _inserted_upto(levels_c, stop_c), f
        if stop_c < _least_total_stop(full_c, lda_f, lda_f, fai_f):
            earlier.append((f.n, f.tt.bit_count() < 1 << f.n - 1))
    assert (11, True) in earlier, "no light n = 11 pass on 1+f stops below the old stop"


def test_all_ones_reads_levels_0_and_1(pass_levels):
    # floor lda(0) = 0 and mu_1 = 0: the profile is all 0, and layer 1, with f*x1 = x1, is best;
    # profile reads no layer, as layer min(floor, n - floor) = 0 is already at the floor
    for n in range(4, 11):
        f = all_ones(n)
        for call, want in ((fai, [0] + [1] * n), (profile, [])):
            del pass_levels[:]
            call(f)
            assert _levels_of(pass_levels, f) == want, (call.__name__, n)


@pytest.mark.parametrize(
    "spec, column, fires",
    [
        ("3:AA", None, True),  # x1: the pass inserts level 1 and finds lda(f) = 1 there
        ("3:AA", 2, True),
        ("3:E8", 1, True),  # majority: the pass reads layer 1 only, where lda(f) = 2 is not yet found
        ("3:E8", 3, False),  # a column lda above the last level read agrees with a pass that found none
    ],
)
def test_fai_lda_cross_check_covers_the_levels_inserted(monkeypatch, spec, column, fires):
    f = parse_function(spec)
    column_route = immunity.lda

    def wrong_lda(g, upto=None):  # the column value for f, under lda(f, upto)'s contract
        if g != f:
            return column_route(g, upto)
        return column if column is not None and (upto is None or column <= upto) else None

    monkeypatch.setattr(immunity, "lda", wrong_lda)
    for call in (fai, function_report):
        if fires:
            with pytest.raises(AssertionError, match="disagree on lda"):
                call(f)
        else:
            call(f)


def _profile_by_enumeration(f):
    """Reference: (mu_k, mu'_k) for k = 1..max(1, n // 2) over every g of degree <= that bound.

    Bit-sliced as fai_direct is: bit s of each int belongs to the g that sums
    monos[t] over the set bits t of s, so selector 0 is g = 0 and selector 1
    is g = 1.  ANF bit b of every product f*g at once is the XOR of the
    selectors with bit t over the products f*m_t that have bit b.
    """
    n = f.n
    eff = max(1, n // 2)
    monos = [m for level in monomials_by_degree(n)[: eff + 1] for m in level]
    picks = [monomial_tt(1 << t, len(monos)) for t in range(len(monos))]  # the selectors with bit t
    g_from, p_from = [0] * (eff + 2), [0] * (n + 2)  # selectors whose g, f*g have degree >= d
    for m, pick in zip(monos, picks):
        g_from[m.bit_count()] |= pick
    anfs = [mobius(f.tt & monomial_tt(m, n), n) for m in monos]
    for b in range(1 << n):
        column = 0
        for anf, pick in zip(anfs, picks):
            if anf >> b & 1:
                column ^= pick
        p_from[b.bit_count()] |= column
    for masks in g_from, p_from:
        for d in range(len(masks) - 2, -1, -1):
            masks[d] |= masks[d + 1]
    out = []
    for k in range(1, eff + 1):
        nonzero = p_from[0] & ~g_from[k + 1]  # deg g <= k and f*g != 0, which rules out g = 0
        # the least d with a selector whose product has degree <= d; ~2 drops g = 1
        out.append(tuple(next(d for d in range(n + 1) if ok & ~p_from[d + 1]) for ok in (nonzero, nonzero & ~2)))
    return out


def _enumeration_cases():
    """Every nonzero function at n <= 3, then 300 seeded ones each at n = 4 and 5, dense to sparse."""
    for f in _functions(3, (), 0, seed=0):
        if f.tt:
            yield f
    rng = random.Random(30)
    for n in (4, 5):
        for i in range(300):
            p = (0.5, 0.2, 0.8, 0.05, 0.95)[i % 5]
            tt = sum(1 << x for x in range(1 << n) if rng.random() < p)
            yield BooleanFunction(n, tt or 1 << rng.randrange(1 << n))


def test_profile_matches_enumeration_of_every_g():
    # the report's profile, with its tail filled by the floor, and profile()'s full pass, up to k = max(1, n // 2)
    for f in _enumeration_cases():
        want = _profile_by_enumeration(f)
        eff = len(want)
        report = function_report(f)
        assert report["profile"][:eff] == list(profile(f).mu[:eff]) == [m for m, _ in want], f
        assert [lay.mu_adm for lay in _layers(f, 0)][:eff] == [m for _, m in want], f
        assert report["fai"] == fai(f).value == min(k + m for k, (_, m) in enumerate(want, start=1)), f


def test_pass_rank_matches_annihilator_dimensions():
    # every order's rank as wt(f) - A_{1+f}(n - k - 1), A from truth-table column ranks
    for f in _duality_cases():
        if f.tt == 0:
            continue
        n, weight = f.n, f.tt.bit_count()
        dims_c = [0, *_annihilator_dims(complement(f))]  # dims_c[j + 1] = A_{1+f}(j)
        assert [lay.rank for lay in _layers(f, 0)] == [weight - dims_c[n - k] for k in range(1, n + 1)], f


def _below_ai_cases():
    """Every non-constant function at n <= 4, then seeded dense, light and heavy ones at n = 5..11."""
    for f in _functions(4, (), 0, seed=0):
        if not f.is_constant():
            yield f
    rng = random.Random(32)
    for n in range(5, 12):
        size = 1 << n
        for _ in range(12 if n < 9 else 2):
            light = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
            yield BooleanFunction(n, rng.getrandbits(size))
            yield BooleanFunction(n, light)
            yield BooleanFunction(n, light ^ (1 << size) - 1)


def test_mu_below_ai_is_at_least_both_ldas():
    # for k < AI, a nonzero f*g = h with deg g <= k gives the annihilator g + h of f, nonzero as
    # g = h would annihilate 1+f below its lda; so deg h >= lda(f), and mu_k >= max(lda f, lda 1+f)
    tight = 0  # layers where the bound is met with lda(f) != lda(1+f)
    for f in _below_ai_cases():
        lda_f, lda_fc = lda(f), lda(complement(f))
        for lay in _layers(f, 0):
            if lay.k < min(lda_f, lda_fc):
                assert lay.mu >= max(lda_f, lda_fc), (f, lay.k)
                tight += lay.mu == max(lda_f, lda_fc) and lda_f != lda_fc
    assert tight, "no layer meets the bound with lda(f) != lda(1+f)"


def test_mu_below_ai_by_enumeration():
    # the same law on the brute-force profile, every g of degree <= max(1, n // 2), at n <= 5
    checked = set()
    for f in _enumeration_cases():
        if f.is_constant():
            continue
        lda_f, lda_fc = lda(f), lda(complement(f))
        for k, (mu, mu_adm) in enumerate(_profile_by_enumeration(f), start=1):
            if k < min(lda_f, lda_fc):
                assert mu_adm >= mu >= max(lda_f, lda_fc), (f, k)
                checked.add((f.n, k))
    assert {(4, 1), (5, 1), (5, 2)} <= checked, checked


def _lda_upto_cases():
    """Every nonzero function at n <= 3, then seeded dense, light, heavy and one-point ones at n = 4..11."""
    for f in _functions(3, (), 0, seed=0):
        if f.tt:
            yield f
    rng = random.Random(33)
    for n in range(4, 12):
        size = 1 << n
        for _ in range(3 if n < 10 else 1):
            light = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
            yield BooleanFunction(n, rng.getrandbits(size))
            yield BooleanFunction(n, light)
            yield BooleanFunction(n, light ^ (1 << size) - 1)
            yield BooleanFunction(n, 1 << rng.randrange(size))


def test_lda_upto_scans_no_level_above_upto(monkeypatch):
    # lda(f, upto) is lda(f) when that is <= upto, else None, and inserts no column of degree > upto;
    # each insert is tagged with the degree of the co-monomial column the scan read last
    degrees, at = [], {}
    comonomial = immunity.comonomial_tt

    def noted_comonomial(m, n):
        at["degree"] = m.bit_count()
        return comonomial(m, n)

    monkeypatch.setattr(immunity, "comonomial_tt", noted_comonomial)
    monkeypatch.setattr(immunity, "insert", lambda slots, row: degrees.append(at["degree"]) or insert(slots, row))
    reached = 0  # bounded scans that inserted a column of degree upto
    for f in _lda_upto_cases():
        want = lda(f)
        for upto in range(f.n + 1):
            del degrees[:]
            assert lda(f, upto) == (want if want is not None and want <= upto else None), (f, upto)
            assert all(d <= upto for d in degrees), (f, upto)
            reached += upto in degrees and upto < f.n
    assert reached, "no bounded scan reaches its top level"
