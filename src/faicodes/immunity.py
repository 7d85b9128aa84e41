"""Annihilators, algebraic immunity, the fast-immunity profile and FAI.

The FAI search enforces the g not-in {0, 1} exclusion through the preimage
cosets of candidate products: a product value v = f*g only counts when some
g outside {0, 1} reaches it.  For v != f every preimage qualifies; for v = f
the coset 1 + (annihilators of f of degree <= k) holds a usable g exactly
when f has a nonzero annihilator of degree <= k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice, takewhile
from math import inf
from typing import Iterable, Iterator, NamedTuple

from .boolfun import (
    MAX_VARS,
    Anf,
    BooleanFunction,
    anf_degree,
    complement,
    degree,
    format_anf,
    format_function,
    level_tables,
    mobius,
    monomial_sum,
    monomials_by_degree,
    monomials_upto,
    tables_upto,
    variable_tts,
)
from .f2linalg import BitMatrix, _benes, _Network, _permute, combine, insert, rref, solve_preimage, transpose


@dataclass(frozen=True)
class ImmunityProfile:
    """The sequence (mu_1, ..., mu_n); None marks an empty multiple space."""

    n: int
    mu: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if len(self.mu) != self.n:
            raise ValueError("profile length must equal the variable count")
        vals = [m for m in self.mu if m is not None]
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise ValueError("profile must be non-increasing")

    def min_k_plus_mu(self) -> int | None:
        """min over k of k + mu_k; None when every mu_k is undefined."""
        totals = [k + m for k, m in enumerate(self.mu, start=1) if m is not None]
        return min(totals) if totals else None


@dataclass(frozen=True)
class FaiWitness:
    """A pair g, f*g realizing deg(g) + deg(f*g) = FAI(f)."""

    g: Anf
    product: Anf
    total: int


@dataclass(frozen=True)
class FaiResult:
    value: int
    witness: FaiWitness
    profile_bound: int

    @property
    def diverged(self) -> bool:
        """True when min_k(k + mu_k) undercuts the definition (g = 1 only)."""
        return self.profile_bound != self.value


@lru_cache(maxsize=None)
def _scan_levels(n: int) -> tuple[tuple[int, int, Iterable[int]], ...]:
    """(d, C(n, <= d), level_tables(n, d, True)) for d = 0..n: every level a column scan may read.

    Up to 13 variables these are the held tuples, built on the first scan of n; above, they hold nothing.
    """
    counts = accumulate(map(len, monomials_by_degree(n)))
    return tuple((d, count, level_tables(n, d, True)) for d, count in enumerate(counts))


def _first_dependency(n: int, tts: tuple[int, ...], upto: int | None = None) -> int | None:
    """The column route: the least d <= upto where a column of degree d depends on earlier ones.

    The columns are co-monomial: tt * prod_{j in m} (1 + x_j) for the masks m
    in degree order.  That product is the sum of x^s over s ⊆ m,
    unitriangular in degree order, so the columns of degree <= d span what
    the monomial columns tt*m do, and every level is dependent exactly when
    it is with monomials.  insert pivots on the highest bit: monomial
    columns lead at the top points of supp(tt), which cover nearly every m,
    so their leads pile up and each insert walks a long chain, while a
    co-monomial column leads at ~m whenever ~m is in supp(tt), so leads
    mostly differ (notes/decisions.md, section 14).

    The scan reads its levels off the per-n tuple `_scan_levels(n)`, so it
    makes no lookup per level or per column, and it reads each table once
    for all tables tt.  Each tt's columns go into its own XOR basis, level
    by level.  They live on supp(tt), so once C(n, <= d) exceeds the
    lightest weight, level d is dependent and no lower level was: d is
    returned without reading its tables.  No level above upto, when given,
    is read.  None when no column scanned depends.

    Level 0's one column is tt itself, nonzero once the weight test passed,
    so it seeds each empty basis in the slot insert would give it.
    """
    lightest = min(map(int.bit_count, tts))
    if lightest == 0:
        return 0
    bases = []
    for tt in tts:
        slots = [0] * ((1 << n) + 1)
        slots[tt.bit_length()] = tt
        bases.append((tt, slots))
    limit = n if upto is None else max(min(upto, n), 0)
    for d, count, level in _scan_levels(n)[1 : limit + 1]:
        if count > lightest:
            return d
        for column in level:
            for tt, slots in bases:
                if not insert(slots, tt & column):
                    return d
    return None


def lda(f: BooleanFunction, upto: int | None = None) -> int | None:
    """Lowest degree of a nonzero annihilator of f; None when f is all-ones.

    The co-monomial column scan of f alone, which ends by the first d with
    C(n, <= d) > wt(f).  Given upto, it scans no level above upto and
    returns lda(f) when that is <= upto, else None.
    """
    return _first_dependency(f.n, (f.tt,), upto)


def annihilator_witness(f: BooleanFunction, e: int) -> Anf | None:
    """A nonzero g with deg(g) <= e and f*g = 0, verified, or None.

    The columns f*m, monomials in degree order, go into one XOR basis as in
    lda, column i tagged 1 << i below its data bits.  While the columns are
    independent every row leads in its data bits.  The first dependent one
    loses them all and, led by its own tag, lands in slots[i + 1]: its tag
    bits are the unique combination of the earlier columns plus its own
    monomial, the annihilator the kernel of the evaluation matrix yields
    first.
    """
    n = f.n
    monos = monomials_upto(n, e)
    width = len(monos)
    slots = [0] * ((1 << n) + width + 1)
    for i, table in enumerate(tables_upto(n, e)):
        insert(slots, (f.tt & table) << width | 1 << i)
        if slots[i + 1]:
            g = Anf(n, monomial_sum(slots[i + 1], monos))
            if f.tt & mobius(g.coeffs, n):
                raise AssertionError("annihilator witness failed the product check")
            return g
    return None


def ai(f: BooleanFunction) -> int:
    """min(lda(f), lda(1+f)) from one column scan of both sides, degree by degree.

    Never None: the lighter side weighs at most 2^(n-1) < C(n, <= n).
    """
    return _first_dependency(f.n, (f.tt, f.tt ^ ((1 << f.size) - 1)))


def _chunk_shape(n: int) -> tuple[int, int]:
    """(bytes per row, rows per chunk) of a packed chunk, at most one MAX_VARS truth table wide.

    A row takes 2^n bits, or a byte when n <= 2.
    """
    width = max(1 << n >> 3, 1)
    return width, (1 << MAX_VARS >> 3) // width


def _product_rows(f: BooleanFunction, tables: Iterable[int], network: _Network = ()) -> Iterator[int]:
    """The ANFs of f*t, one row per truth table t of tables, in order, each permuted by network.

    The truth tables f*t are packed into one int a chunk at a time
    (`_chunk_shape`), so one Möbius butterfly and one pass of the network
    transform every row of the chunk; the network's masks repeat at the
    row stride, as to_degree's do.  A chunk's tables are drawn, and the
    chunk transformed, when its first row is asked for.
    """
    n = f.n
    width, per_chunk = _chunk_shape(n)
    tables = iter(tables)
    while chunk := b"".join((f.tt & t).to_bytes(width, "little") for t in islice(tables, per_chunk)):
        out = _permute(mobius(int.from_bytes(chunk, "little"), n), network).to_bytes(len(chunk), "little")
        for i in range(0, len(out), width):
            yield int.from_bytes(out[i : i + width], "little")


def _products(f: BooleanFunction, k: int) -> BitMatrix:
    """The ANFs of f*m, one 2^n-bit row per monomial m of degree <= k, in monomials_upto order."""
    return BitMatrix.from_rows(_product_rows(f, tables_upto(f.n, k)), 1 << f.n)


def mul_space_basis(f: BooleanFunction, k: int) -> BitMatrix:
    """RREF basis of span{anf(f*m) : m a monomial of degree <= k}, as 2^n-bit rows."""
    if not 0 <= k <= f.n:
        raise ValueError(f"degree bound {k} out of range 0..{f.n}")
    return rref(_products(f, k))[0]


# --- degree-ordered elimination engine -------------------------------------
#
# ANF vectors are re-indexed so that bit position grows with (degree, mask).
# A highest-bit XOR basis in these coordinates makes each basis row's degree
# the degree of its leading bit, and the rows of degree <= d span exactly
# the intersection of the row space with {ANFs of degree <= d}.  The
# re-indexing is a fixed permutation of 2^n bits, applied as a Benes
# network routed from the degree order as listed.


class _DegreeOrder(NamedTuple):
    # gathers mask masks[p] to position p in each row of a packed chunk, or in one row; reversed, it scatters
    to_degree: _Network
    deg_at: tuple[int, ...]  # degree of the monomial at each degree-ordered position


@lru_cache(maxsize=None)
def _degree_order(n: int) -> _DegreeOrder:
    masks = monomials_upto(n, n)
    width, copies = _chunk_shape(n)
    to_degree = tuple(
        (d, int.from_bytes(mask.to_bytes(width, "little") * copies, "little")) for d, mask in _benes(masks)[::-1]
    )
    return _DegreeOrder(to_degree, tuple(m.bit_count() for m in masks))


class _Layer(NamedTuple):
    """The product basis of f once every monomial of degree <= k is in.

    Read on supp(f), the products span RM(k, n) restricted to supp(f), so
    rank is that code's dimension.  Its dual is RM(n - k - 1, n) shortened
    to supp(f), the products of degree <= n - k - 1, so hull counts the
    basis rows of that degree.  From order n - floor on, floor = lda(1+f),
    the code is all of GF(2)^wt(f) with hull 0, since no product has degree
    below the floor.
    """

    k: int
    mu: int  # mu_k(f)
    mu_adm: int  # mu'_k: the minimum over g not in {0, 1}
    row: int | None  # a permuted basis row of degree mu'_k; None when that product is f
    lda: int | None  # lda(f) when it is <= k, else None
    rank: int  # the basis rank
    hull: int  # basis rows of degree <= n - k - 1


def _layers(f: BooleanFunction, floor: int) -> Iterator[_Layer]:
    """Insert each product f*m of a nonzero f once, in degree order; yield k = 1..n.

    Each level's products come in degree-ordered ANF from `_product_rows`
    on the level's monomial tables from `level_tables`, one butterfly and
    one pass of to_degree per chunk.  A chunk's tables are drawn and the
    chunk transformed when the pass takes its first row, so a stop wastes at
    most the rest of one chunk, and a level the pass never reaches is never
    transformed, nor built above 13 variables (`level_tables`).  f's own
    row is level 0's one product, f*1.

    The first product that is zero or dependent marks the lowest-degree
    annihilator, so lda(f) comes with the pass.  The products span exactly
    the functions supported on supp(f), so once the basis has wt(f) rows
    every further product is dependent: the pass stops inserting, its one
    stop, and the later layers read the same basis.

    Each layer reads the lowest one or two basis rows.  The lowest has degree
    mu_k; unless it is f, it is also the witness of mu'_k = mu_k.  If it is f
    and the next row has degree mu_k too, that row is the witness.  If it is f
    alone there, every product below the next row's degree is 0 or f: mu'_k
    is mu_k, through g = 1 + an annihilator, when lda(f) <= k, and the next
    row's degree otherwise.  It also counts the basis rank and the rows in
    the first C(n, <= n - k - 1) = 2^n - C(n, <= k) positions: the dimension
    and hull of order k of a PAI certificate (`_Layer`).

    floor is lda(1+f), a lower bound on every mu_k (a nonzero f*g annihilates
    1+f); a layer under it raises AssertionError, and that check is all the
    floor does.  mu never rises, so from the first layer with mu_k == floor
    on, mu_k = floor.  That layer is floor at the latest when floor >= 1: a
    nonzero annihilator h of 1+f of degree floor has f*h = h and is not
    constant, so mu_k = mu'_k = floor for every k >= floor
    (notes/decisions.md, section 16).  From layer n - floor on, the basis
    has rank wt(f), so it holds that h and mu_k = floor there too
    (`_Layer`; section 18).  Each reader owns its stop: `profile` after the
    first layer at the floor or before layer min(floor, n - floor), `_fai`
    and `_least_total` once no later layer can lower the least k + mu'_k,
    and certificates once, also, every order below n - floor is read
    (sections 17 and 18).
    """
    n = f.n
    size, weight = 1 << n, f.tt.bit_count()
    to_degree, deg_at = _degree_order(n)
    # slots[p + 1] holds the basis row led by degree-ordered bit p, so the nonzero slots list
    # the rows by degree; slots[0] stays 0, and insert's loop ends on it once a row reduces to 0
    slots = [0] * (size + 1)
    rank = seen = 0  # seen: C(n, <= k), so the rows of degree <= n - k - 1 sit in the first size - seen slots
    lda_f: int | None = None
    for k, level in enumerate(monomials_by_degree(n)):
        seen += len(level)
        products = _product_rows(f, level_tables(n, k), to_degree)
        for _ in level:
            if rank == weight:
                if lda_f is None:
                    lda_f = k
                break
            row = next(products)
            if insert(slots, row):
                rank += 1
            elif lda_f is None:
                lda_f = k
        if not k:
            anf_f_perm = row  # level 0's one product, f*1 = f
            continue
        rows = filter(None, slots)
        row = next(rows)
        mu = mu_adm = deg_at[row.bit_length() - 1]
        if row == anf_f_perm:
            row = next(rows, None)
            # None only when f is alone in the basis at k >= 1: then every f*x_i is 0 or f, so an
            # annihilator of degree 1 gave lda(f) = 1 and mu' is mu below
            above = None if row is None else deg_at[row.bit_length() - 1]
            if lda_f is not None and above != mu:
                row = None  # only f sits at mu_k
            else:
                mu_adm = above
        if mu < floor:
            raise AssertionError("a product of f has degree below lda(1+f)")
        low = slots[1 : size - seen + 1]
        yield _Layer(k, mu, mu_adm, row, lda_f, rank, len(low) - low.count(0))


def _best_layer(layers: Iterable[_Layer]) -> _Layer:
    """The first layer with the least k + mu'_k (f nonzero)."""
    return min(layers, key=lambda lay: lay.k + lay.mu_adm)


def profile(f: BooleanFunction) -> ImmunityProfile:
    """(mu_1, ..., mu_n) from the pass floored at floor = lda(1+f); all None when f = 0.

    The read stops after the first layer with mu_k = floor: mu never rises
    and never goes below the floor, so every later entry is floor.  Layer
    min(floor, n - floor) is at the floor (`_layers`), so no layer from it
    on is read, and islice, unlike takewhile, draws none of them.
    """
    if f.tt == 0:
        return ImmunityProfile(f.n, (None,) * f.n)
    floor = lda(complement(f))
    layers = islice(_layers(f, floor), max(min(floor, f.n - floor) - 1, 0))
    above = tuple(takewhile(lambda mu: mu > floor, (layer.mu for layer in layers)))
    return ImmunityProfile(f.n, above + (floor,) * (f.n - len(above)))


def fai(f: BooleanFunction) -> FaiResult:
    """Fast algebraic immunity with a verified optimal witness.

    Layered search over k = deg(g), floored at lda(1+f): for each k the
    product basis is reduced in degree order, the least admissible product
    degree mu'_k is read off, and the best k + mu'_k wins.  The pass reads
    no level past lda(1+f), where the profile's constant tail begins
    (`_fai`).  The witness solves
    f*g = v over the monomials of degree <= k, re-checked by multiplication.
    """
    if f.tt == 0:
        raise ValueError("FAI is undefined for the zero function")
    return _fai(f, lda(complement(f)))[0]


def _fai(f: BooleanFunction, floor: int) -> tuple[FaiResult, tuple[int, ...]]:
    """FAI(f) and the profile (mu_1, ..., mu_n) from the lazy pass on f floored at floor = lda(1+f).

    mu_j = floor for every layer j after one with mu_k = floor, and for every
    j >= min(floor, n - floor) (`_layers`); layer j totals
    j + mu'_j >= j + floor.  So the read stops after layer k once mu_k =
    floor or k + 1 >= min(floor, n - floor), and k + 1 + floor >= the least
    total so far: no later layer is strictly better, and every later profile
    entry is floor.  Level floor is inserted only when floor <= n - floor
    and every earlier layer totals above 2 floor: layer floor is then
    strictly best and gives the witness.  f = 1, floor 0, has mu_1 = 0.
    """
    layers, least, top = [], inf, min(floor, f.n - floor)
    for layer in _layers(f, floor):
        layers.append(layer)
        least = min(least, layer.k + layer.mu_adm)
        if (layer.mu == floor or top <= layer.k + 1) and layer.k + 1 + floor >= least:
            break
    last = layers[-1]
    if floor == last.k and (last.mu, last.mu_adm) != (floor, floor):
        raise AssertionError("layer lda(1+f) is not at the floor")
    # mu' and the witness route hang on the annihilator status: check it by the column route,
    # which scans only the levels the pass inserted, and finds none there when the pass found none
    if last.lda != lda(f, last.k):
        raise AssertionError("the product pass and the column route disagree on lda(f)")
    mu = tuple(layer.mu for layer in layers) + (floor,) * (f.n - last.k)
    best = _best_layer(layers)
    value = best.k + best.mu_adm
    witness = _extract_witness(f, best)
    if witness.total != value:
        raise AssertionError("FAI witness total does not match the layered search")
    return FaiResult(value, witness, ImmunityProfile(f.n, mu).min_k_plus_mu()), mu


def _extract_witness(f: BooleanFunction, layer: _Layer) -> FaiWitness:
    n, k = f.n, layer.k
    if layer.row is None:
        # product is f itself; g = 1 + annihilator of degree exactly lda(f) = k
        ann = annihilator_witness(f, k)
        if ann is None:
            raise AssertionError("annihilator route selected without annihilators")
        g_coeffs = ann.coeffs ^ 1
        v_anf = mobius(f.tt, n)
    else:
        v_anf = _permute(layer.row, _degree_order(n).to_degree[::-1])
        combo = solve_preimage(_products(f, k), v_anf)
        if combo is None:
            raise AssertionError("admissible product is outside the product span")
        g_coeffs = monomial_sum(combo, monomials_upto(n, k))

    if g_coeffs in (0, 1):
        raise AssertionError("FAI witness degenerated to a constant")
    g_tt = mobius(g_coeffs, n)
    prod_tt = f.tt & g_tt
    if prod_tt == 0:
        raise AssertionError("FAI witness annihilates f")
    prod_anf = mobius(prod_tt, n)
    if prod_anf != v_anf:
        raise AssertionError("FAI witness product mismatch")
    g = Anf(n, g_coeffs)
    return FaiWitness(g, Anf(n, prod_anf), g.degree() + anf_degree(prod_anf, n))


def ffai(f: BooleanFunction) -> int:
    """min(FAI(f), FAI(1+f)); rejects constants, where one side is undefined.

    lda(1+f) floors f's pass and lda(f) the pass on 1+f, so each reads only
    the layers that can still go below the least k + mu'_k so far.
    """
    if f.is_constant():
        raise ValueError("FFAI is undefined for constant functions")
    fc = complement(f)
    lda_f, lda_fc = lda(f), lda(fc)
    return _least_total(fc, lda_f, lda_fc, _least_total(f, lda_fc, lda_f))


def _least_total(f: BooleanFunction, floor: int, own: int, best: float = inf) -> int:
    """min(best, least k + mu'_k) over the lazy pass on a nonzero, non-constant f floored at floor = lda(1+f).

    own is lda(f), and high = max(own, floor).  best starts at most at
    2 floor, the total of layer floor (`_layers`).  Every layer k < floor
    totals at least k + high: mu'_k >= floor always, and when own > floor
    also mu'_k >= own, since for a nonzero h = f*g with deg g <= k, g + h
    is a nonzero annihilator of f of degree <= max(k, deg h), as g = h would
    annihilate 1+f below the floor (notes/decisions.md, section 18).  Every
    layer k >= floor totals at least 2 floor >= best.  So no layer k with
    k + high >= best is read, and its level is never inserted: the pass
    stops below level floor.
    """
    high = max(own, floor)
    best = min(best, 2 * floor)
    if 1 + high < best:
        for layer in _layers(f, floor):
            best = min(best, layer.k + layer.mu_adm)
            if layer.k + 1 + high >= best:
                break
    return int(best)


def is_pai(f: BooleanFunction) -> bool:
    """Perfect algebraic immunity test: FAI(f) >= n."""
    return fai(f).value >= f.n


# --- independent brute-force oracle -----------------------------------------


def fai_direct(f: BooleanFunction) -> int:
    """Exhaustive FAI over all g with deg(g) <= max(1, floor(n/2)), for n <= 5.

    The degree bound is sound because any optimal witness g has
    deg(g) <= floor(FAI/2) <= floor(n/2) (with a floor of 1 so the range is
    never empty); at n = 5 that leaves 2^16 choices of g.

    Bit-sliced over the choices: bit s of each int below belongs to selector
    s, the g that sums monos[t] over the set bits t of s, so selector 0 is
    g = 0 and selector 1 is g = 1.  g -> anf(f*g) is linear, so ANF bit b of
    every product at once is the XOR of picks[t] over the products f*m_t that
    have bit b.  ORed by degree, then from the top degree down, g_deg[d] and
    p_deg[d] hold the selectors whose g and f*g have degree >= d.
    """
    if f.tt == 0:
        raise ValueError("FAI is undefined for the zero function")
    n = f.n
    if n > 5:
        raise ValueError("direct search supports n <= 5 (search-space guard)")
    eff = max(1, n // 2)
    monos = monomials_upto(n, eff)
    picks = variable_tts(len(monos))  # picks[t]: the selectors with bit t, the truth table of x_(t+1)
    g_deg, p_deg = [0] * (eff + 2), [0] * (n + 2)
    for m, pick in zip(monos, picks):
        g_deg[m.bit_count()] |= pick
    for b, column in enumerate(transpose(_products(f, eff)).data):
        p_deg[b.bit_count()] |= combine(column, picks)
    for masks in g_deg, p_deg:
        for d in range(len(masks) - 2, -1, -1):
            masks[d] |= masks[d + 1]
    admissible = p_deg[0] & ~2  # a nonzero product (so not g = 0), and not selector 1, g = 1
    for total in range(1, eff + n + 1):
        for a in range(max(0, total - n), min(total, eff) + 1):
            if admissible & ~g_deg[a + 1] & ~p_deg[total - a + 1]:
                return total
    raise AssertionError("no admissible g found; the degree bound argument fails")


def function_report(f: BooleanFunction) -> dict:
    """The per-function analysis record (tt, degrees, immunities, witness).

    The column route gives both LDAs first.  One product pass on f, floored
    at lda(1+f), gives FAI, its witness and the profile, whose entries from
    k = lda(1+f) on are lda(1+f) and need no layer (`_fai`); FFAI reads from
    the pass on 1+f, floored at lda(f), only the layers that can go below
    FAI(f), none from level lda(f) on (`_least_total`).
    """
    if f.tt == 0:
        raise ValueError("FAI is undefined for the zero function")
    fc = complement(f)
    lda_f, lda_fc = lda(f), lda(fc)
    res, mu = _fai(f, lda_fc)
    record = {
        "tt": format_function(f),
        "n": f.n,
        "deg": degree(f),
        "wt": f.tt.bit_count(),
        "ai": min(v for v in (lda_f, lda_fc) if v is not None),
        "lda_f": lda_f,
        "lda_fc": lda_fc,
        "profile": list(mu),
        "fai": res.value,
        "ffai": None if f.is_constant() else _least_total(fc, lda_f, lda_fc, res.value),
        "witness_g": format_anf(res.witness.g),
        "witness_total": res.witness.total,
    }
    if res.diverged:
        record["profile_bound"] = res.profile_bound
    return record
