"""Seeded property sweeps shared by the CLI and the acceptance suite.

Every suite takes (n, trials, seed) and returns a SweepReport whose failure
messages carry a counterexample in the n:HEX function format.  trials = 0
asks for the exhaustive variant where one exists.  Each suite starts with
`_start`, which refuses a negative trial count or an n outside the suite's
range before any work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import codes as codes_mod
from . import f2linalg as fl
from .boolfun import (
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
    format_function,
    interpolate_low_degree,
    mobius,
    monomial_sum,
    monomials_by_degree,
    monomials_upto,
    multiply,
    random_affine_map,
    random_function,
    random_nonconstant,
    support,
    tt_of,
    weight,
)
from .codes import (
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
from .f2linalg import BitMatrix, gram, kernel_basis, mul, rank, row_space_meet_dim, rref, solve_preimage
from .gf2m import MIN_DEGREE
from .immunity import (
    ai,
    fai,
    fai_direct,
    ffai,
    lda,
    mul_space_basis,
    profile,
)
from .pai_lcd import (
    ai_exceeds_via_dims,
    carlet_feng_support,
    fai_at_least_via_codes,
    function_from_columns,
    is_pai_via_lcd,
    pai_certificate,
)


@dataclass
class SweepReport:
    suite: str
    n: int
    trials: int
    seed: int
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, prop: str, detail: str | Callable[[], str]) -> None:
        """Count one check; a callable detail is formatted only when the check fails."""
        self.checks += 1
        if not condition:
            self.failures.append(f"{prop}: {detail() if callable(detail) else detail}")


def _start(
    suite: str, n: int, trials: int, seed: int, lo: int = 1, hi: int | None = None, what: str = ""
) -> tuple[SweepReport, random.Random]:
    """The suite's empty report and its seeded generator, once trials >= 0 and lo <= n <= hi.

    what names the refused run in the messages (default: the suite's sweep).
    """
    if trials < 0:
        raise ValueError(f"trial count {trials} is negative (0 asks for the exhaustive variant)")
    what = what or f"{suite} sweep"
    if n < lo:
        raise ValueError(f"{what} needs n >= {lo}")
    if hi is not None and n > hi:
        raise ValueError(f"{what} supports n <= {hi}")
    return SweepReport(suite, n, trials, seed), random.Random(seed)


def _fmt(f: BooleanFunction) -> str:
    return format_function(f)


# --- boolfun algebra --------------------------------------------------------


def sweep_mobius_algebra(n: int, trials: int, seed: int) -> SweepReport:
    """Möbius involution and pointwise algebra; each trial transforms each function once."""
    rep, rng = _start("mobius-algebra", n, trials, seed)
    all_ones = (1 << (1 << n)) - 1
    for _ in range(trials):
        f = random_function(n, rng)
        g = random_function(n, rng)
        anf_f, anf_g = anf_of(f), anf_of(g)
        rep.check(tt_of(anf_f).tt == f.tt, "mobius-involution", lambda: _fmt(f))
        a = Anf(n, rng.getrandbits(1 << n))
        rep.check(anf_of(tt_of(a)).coeffs == a.coeffs, "mobius-involution-anf", lambda: f"{n}:{a.coeffs:X}")
        rep.check(multiply(f, complement(f)).tt == 0, "f*(1+f)=0", lambda: _fmt(f))
        rep.check(add(f, f).tt == 0, "f+f=0", lambda: _fmt(f))
        fg = multiply(f, g)
        wf, wg = weight(f), weight(g)
        rep.check(
            weight(add(f, g)) == wf + wg - 2 * weight(fg),
            "weight-identity",
            lambda: f"{_fmt(f)} {_fmt(g)}",
        )
        rep.check(
            degree(fg) <= anf_f.degree() + anf_g.degree(),
            "deg-product-bound",
            lambda: f"{_fmt(f)} {_fmt(g)}",
        )
        rep.check(len(support(f)) == wf, "support-size", lambda: _fmt(f))
        fc = algebraic_complement(f)
        rep.check(algebraic_complement(fc).tt == f.tt, "alg-complement-involution", lambda: _fmt(f))
        rep.check(anf_of(fc).coeffs == anf_f.coeffs ^ all_ones, "alg-complement-flips-anf", lambda: _fmt(f))
        if n >= 2:
            g0 = random_function(n - 1, rng)
            g1 = random_function(n - 1, rng)
            deg0 = degree(g0)
            expected = deg0 if g0.tt == g1.tt else max(deg0, degree(add(g0, g1)) + 1)
            rep.check(
                degree(concatenate(g0, g1)) == expected, "concat-degree-identity", lambda: f"{_fmt(g0)} {_fmt(g1)}"
            )
    rep.check(anf_of(delta(0, n)).coeffs == all_ones, "delta0-anf-all-ones", f"n={n}")
    return rep


# --- f2linalg ---------------------------------------------------------------


def _random_matrix(rng: random.Random, rows: int, cols: int) -> BitMatrix:
    return BitMatrix.from_rows((rng.getrandbits(cols) for _ in range(rows)), cols)


def sweep_f2linalg(n: int, trials: int, seed: int) -> SweepReport:
    rep, rng = _start("f2linalg", n, trials, seed, hi=1024)
    cols = max(2, n)
    for _ in range(trials):
        m = _random_matrix(rng, rng.randrange(1, 2 * cols), cols)
        red, pivots = rref(m)
        red2, pivots2 = rref(red)
        rep.check(red2.data == red.data and pivots2 == pivots, "rref-idempotent", str(m.data))
        rep.check(rank(m) == len(pivots), "rank-equals-pivots", str(m.data))
        kern = kernel_basis(m)
        rep.check(
            all(all((row & x).bit_count() % 2 == 0 for row in m.data) for x in kern.data),
            "kernel-annihilates",
            str(m.data),
        )
        rep.check(rank(kern) + rank(m) == cols, "rank-nullity", str(m.data))
        a = _random_matrix(rng, rng.randrange(1, cols + 1), cols)
        b = _random_matrix(rng, rng.randrange(1, cols + 1), cols)
        meet = row_space_meet_dim(a, b)
        stacked_rank = rank(fl.stack(a, b))
        rep.check(stacked_rank <= rank(a) + rank(b), "rank-subadditive", str((a.data, b.data)))
        rep.check(
            (stacked_rank == rank(a) + rank(b)) == (meet == 0),
            "meet-zero-iff-rank-adds",
            str((a.data, b.data)),
        )
        gm = gram(a)
        rep.check(
            all(gm.entry(i, j) == gm.entry(j, i) for i in range(gm.rows) for j in range(gm.rows)),
            "gram-symmetric",
            str(a.data),
        )
        rep.check(
            mul(a, BitMatrix.identity(cols)).data == a.data, "mul-identity", str(a.data)
        )
        y = fl.combine(rng.getrandbits(a.rows), a.data)
        x = solve_preimage(a, y)
        rep.check(x is not None, "solve-preimage-exists", str((a.data, y)))
        if x is not None:
            rep.check(fl.combine(x, a.data) == y, "solve-preimage-valid", str((a.data, y)))
        rep.check(fl.from_text(fl.to_text(m)).data == m.data, "text-roundtrip", str(m.data))
    return rep


# --- immunity bounds --------------------------------------------------------


def _tightness_instance(n: int, rng: random.Random) -> BooleanFunction:
    """A function whose support strictly contains that of a nonconstant affine l."""
    a = rng.randrange(1, 1 << n)
    tt = _linear_tt(a, n) ^ mobius(rng.getrandbits(1), n)  # the constant 1 has the all-ones table
    extra = rng.randrange(1 << n)
    while (tt >> extra) & 1:
        extra = rng.randrange(1 << n)
    return BooleanFunction(n, tt | (1 << extra))


def _diverged_class_ok(f: BooleanFunction, bound: int) -> bool:
    """The documented FAIMUL divergence class: every profile-optimal minimal
    product equals f itself while f has no annihilator of degree <= k."""
    lda_f = lda(f)
    deg_f = degree(f)
    anf_f = anf_of(f).coeffs
    mus = profile(f).mu
    low_basis = BitMatrix.from_rows((1 << m for m in monomials_upto(f.n, deg_f)), 1 << f.n)
    for k in range(1, f.n + 1):
        mk = mus[k - 1]
        if mk is None or k + mk != bound:
            continue
        if mk != deg_f:
            return False
        if lda_f is not None and lda_f <= k:
            return False
        basis = mul_space_basis(f, k)
        if row_space_meet_dim(basis, low_basis) != 1:
            return False
        if solve_preimage(basis, anf_f) is None:
            return False
    return True


def sweep_fai_bounds(n: int, trials: int, seed: int) -> SweepReport:
    rep, rng = _start("fai-bounds", n, trials, seed)
    for _ in range(trials):
        f = random_nonconstant(n, rng)
        fc = complement(f)
        res = fai(f)
        v = res.value
        lda_fc = lda(fc)
        rep.check(lda_fc is not None and lda_fc + 1 <= v <= 2 * lda_fc, "fai-lda-bracket", _fmt(f))
        res_c = fai(fc)
        a = ai(f)
        rep.check(min(v, res_c.value) <= 2 * a, "min-fai-le-2ai", _fmt(f))
        ff = ffai(f)
        rep.check(ff == min(v, res_c.value), "ffai-is-min", _fmt(f))
        rep.check(ff == ffai(fc), "ffai-symmetric", _fmt(f))
        lda_f = lda(f)
        assert lda_f is not None and lda_fc is not None
        rep.check(min(lda_f, lda_fc) + 1 <= ff <= 2 * a, "ffai-sandwich", _fmt(f))
        w = res.witness
        rep.check(
            w.g.degree() <= v // 2 and w.product.degree() >= (v + 1) // 2,
            "witness-degree-split",
            _fmt(f),
        )
        rep.check(w.total == v, "witness-total", _fmt(f))
        gw = tt_of(w.g)
        rep.check(not gw.is_constant(), "witness-nonconstant", _fmt(f))
        rep.check(multiply(f, gw).tt == tt_of(w.product).tt, "witness-product", _fmt(f))
        if weight(f) >= 2:
            rep.check(v <= n, "fai-le-n", _fmt(f))
        else:
            rep.check(v == n + 1, "fai-singleton-n-plus-1", _fmt(f))
        # profile laws
        p = profile(f)
        vals = [m for m in p.mu if m is not None]
        rep.check(all(x >= y for x, y in zip(vals, vals[1:])), "profile-non-increasing", _fmt(f))
        deg_f = degree(f)
        rep.check(all(m is not None and m <= deg_f for m in p.mu), "mu-le-deg", _fmt(f))
        rep.check(lda_fc == min(vals) == p.mu[-1], "profile-floor", _fmt(f))  # _layers(f, floor=lda_fc)
        pc = profile(fc)
        mus_c = [m for m in pc.mu if m is not None]
        rep.check(lda_f == min(mus_c), "ldamul-min", _fmt(f))
        rep.check(
            all(pc.mu[k - 1] == lda_f for k in range(lda_f, n + 1)),
            "ldamul-tail",
            _fmt(f),
        )
        rep.check(a == min(min(mus_c), min(vals)), "aimul", _fmt(f))
        bound = p.min_k_plus_mu()
        rep.check(bound == res.profile_bound, "profile-bound-consistent", _fmt(f))
        rep.check(v >= res.profile_bound, "fai-ge-profile-bound", _fmt(f))
        if res.diverged:
            rep.check(_diverged_class_ok(f, res.profile_bound), "divergence-class", _fmt(f))
        t = _tightness_instance(n, rng)
        rep.check(fai(t).value == 2, "tightness-fai-2", _fmt(t))
    return rep


# --- affine invariance ------------------------------------------------------


def sweep_affine_invariance(n: int, trials: int, seed: int) -> SweepReport:
    rep, rng = _start("affine-invariance", n, trials, seed)
    for _ in range(trials):
        f = random_nonconstant(n, rng)
        base_profile = profile(f).mu
        base_fai = fai(f).value
        base_ai = ai(f)
        for _ in range(100):  # maps per function
            m = random_affine_map(n, rng)
            g = apply_affine(f, m)
            rep.check(weight(g) == weight(f), "affine-weight", _fmt(f))
            rep.check(degree(g) == degree(f), "affine-degree", _fmt(f))
            rep.check(profile(g).mu == base_profile, "affine-profile", _fmt(f))
            rep.check(fai(g).value == base_fai, "affine-fai", _fmt(f))
            rep.check(ai(g) == base_ai, "affine-ai", _fmt(f))
    return rep


# --- approximation (perturbation, complement, lemma-util) -------------------


def _random_low_weight(n: int, max_weight: int, rng: random.Random) -> BooleanFunction:
    w = rng.randrange(1, max_weight + 1)
    pts = rng.sample(range(1 << n), w)
    tt = 0
    for p in pts:
        tt |= 1 << p
    return BooleanFunction(n, tt)


def sweep_approximation(n: int, trials: int, seed: int) -> SweepReport:
    rep, rng = _start("approximation", n, trials, seed, lo=2)
    linear_tts = [_linear_tt(a, n) for a in range(1, 1 << n)]
    for _ in range(trials):
        f = random_nonconstant(n, rng)
        # AI perturbation bound
        k = ai(f)
        d = rng.randrange(1, n)
        limit = min(1 << (n - k), (1 << (d + 1)) - 1)
        if limit >= 2:
            delta_f = _random_low_weight(n, limit - 1, rng)
            rep.check(
                abs(ai(add(f, delta_f)) - k) <= d,
                "ai-perturbation",
                f"{_fmt(f)} delta={_fmt(delta_f)} d={d}",
            )
        # Johansson-Wang bound; the literal form breaks only when f + delta
        # collapses to a singleton indicator (whose fai is n + 1), where the
        # two-sided min still obeys the bound
        kd = degree(f)
        dj = rng.randrange(1, 3)
        jw_limit = sum(math.comb(n, i) for i in range(dj + 1))
        delta_j = _random_low_weight(n, jw_limit - 1, rng)
        g = add(f, delta_j)
        if g.tt != 0:
            detail = f"{_fmt(f)} delta={_fmt(delta_j)} d={dj}"
            if not g.is_constant():
                rep.check(ffai(g) <= kd + 2 * dj, "johansson-wang-two-sided", detail)
            if weight(g) >= 2:
                rep.check(fai(g).value <= kd + 2 * dj, "johansson-wang", detail)
            else:
                rep.check(fai(g).value == n + 1, "johansson-wang-singleton", detail)
        # algebraic complement keeps FAI within 2 (both sides away from delta_0, and
        # f + delta_0 = 0 iff f = delta_0); lemma-util: some linear form keeps the
        # witness product nonzero
        if f.tt != 1:
            res = fai(f)
            rep.check(
                abs(fai(algebraic_complement(f)).value - res.value) <= 2,
                "alg-complement-fai",
                _fmt(f),
            )
            g_tt = tt_of(res.witness.g).tt
            prod = f.tt & g_tt
            rep.check(
                any(prod & l for l in linear_tts),
                "linear-form-witness",
                _fmt(f),
            )
        # interpolation existence inside the guaranteed range
        d_i = rng.randrange(0, n)
        max_zeros = min((1 << (d_i + 1)) - 2, (1 << n) - 1)
        zeros = set(rng.sample(range(1 << n), rng.randrange(0, max_zeros + 1)))
        ones = [p for p in range(1 << n) if p not in zeros]
        one = rng.choice(ones)
        h = interpolate_low_degree(zeros, one, d_i, n)
        rep.check(h is not None, "interpolation-exists", f"zeros={sorted(zeros)} one={one} d={d_i}")
        if h is not None:
            h_tt = tt_of(h).tt
            ok = (
                h.degree() <= d_i
                and (h_tt >> one) & 1 == 1
                and all((h_tt >> z) & 1 == 0 for z in zeros)
            )
            rep.check(ok, "interpolation-valid", f"zeros={sorted(zeros)} one={one} d={d_i}")
    return rep


def _linear_tt(a: int, n: int) -> int:
    """Truth table of the linear form x -> a.x."""
    return mobius(monomial_sum(a, monomials_by_degree(n)[1]), n)


# --- concatenation ----------------------------------------------------------


def sweep_concatenation(n: int, trials: int, seed: int) -> SweepReport:
    rep, rng = _start("concatenation", n, trials, seed, lo=2)
    for _ in range(trials):
        f0 = random_nonconstant(n - 1, rng)
        f1 = random_nonconstant(n - 1, rng)
        cat = concatenate(f0, f1)
        v0, v1 = fai(f0).value, fai(f1).value
        v = fai(cat).value
        rep.check(
            min(v0, v1 + 1) <= v <= min(v0, v1) + 2,
            "concat-fai-bracket",
            f"{_fmt(f0)} {_fmt(f1)}",
        )
        lifted = concatenate(f0, f0)
        rep.check(
            all(lifted.value(x) == f0.value(x & (f0.size - 1)) for x in range(lifted.size)),
            "concat-lift",
            _fmt(f0),
        )
        b = bar(f0)
        ff0 = ffai(f0)
        rep.check(
            min(v0, fai(complement(f0)).value + 1) <= fai(b).value <= ff0 + 2,
            "bar-fai-bracket",
            _fmt(f0),
        )
        rep.check(ff0 <= ffai(b) <= ff0 + 2, "bar-ffai-bracket", _fmt(f0))
    return rep


# --- codes ------------------------------------------------------------------


def sweep_codes(n: int, trials: int, seed: int) -> SweepReport:
    """n is the largest RM variable count exercised, 2..12: each n costs about 4x the one before."""
    rep, rng = _start("codes", n, trials, seed, lo=MIN_DEGREE, hi=12)
    for nn in range(2, n + 1):
        for d in range(nn + 1):
            c = rm(d, nn)
            want = sum(math.comb(nn, i) for i in range(d + 1))
            rep.check(c.dim == want, "rm-dimension", f"d={d} n={nn}")
            dc = dual(c)
            if d < nn:
                rep.check(dc == rm(nn - d - 1, nn), "rm-dual-identity", f"d={d} n={nn}")
            else:
                rep.check(dc.dim == 0, "rm-full-dual-zero", f"n={nn}")
            rep.check(c.dim + dc.dim == c.length, "dim-plus-dual", f"d={d} n={nn}")
            rep.check(
                all(
                    (a & b).bit_count() % 2 == 0
                    for a in c.gen.data
                    for b in dc.gen.data
                ),
                "generator-orthogonality",
                f"d={d} n={nn}",
            )
    for nn in range(2, min(n, 5) + 1):
        for d in range(nn + 1):
            rep.check(
                min_weight(rm(d, nn)) == 1 << (nn - d),
                "rm-min-weight",
                f"d={d} n={nn}",
            )
    for _ in range(trials):
        length = rng.randrange(4, 33)
        k = rng.randrange(1, length + 1)
        c = codes_mod.code_from_rows((rng.getrandbits(length) for _ in range(k)), length)
        if c.dim == 0:
            continue
        dc = dual(c)
        rep.check(dual(dc) == c, "dual-involution", f"len={length} dim={c.dim}")
        coords = set(rng.sample(range(length), rng.randrange(0, length)))
        rep.check(
            dual(puncture(c, coords)) == shorten(dc, coords),
            "puncture-dual-is-shorten",
            f"len={length} dim={c.dim} S={sorted(coords)}",
        )
        rep.check(
            dual(shorten(c, coords)) == puncture(dc, coords),
            "shorten-dual-is-puncture",
            f"len={length} dim={c.dim} S={sorted(coords)}",
        )
        rep.check(puncture(c, set()) == c, "puncture-empty", f"len={length}")
        rep.check(
            hull_dim(c) == row_space_meet_dim(c.gen, dc.gen),
            "hull-gram-vs-meet",
            f"len={length} dim={c.dim}",
        )
        if is_lcd(c) and is_even_like(c):
            rep.check(c.dim % 2 == 0, "even-like-lcd-even-dim", f"len={length} dim={c.dim}")
        rep.check(import_code(export_code(c)) == c, "code-io-roundtrip", f"len={length}")
    return rep


# --- oracles ----------------------------------------------------------------


def _low_degree_tts(n: int, e: int) -> Iterator[int]:
    """Truth tables of every nonzero g with deg(g) <= e, by brute ANF selection."""
    anfs = [1 << m for m in monomials_upto(n, e)]
    for sel in range(1, 1 << len(anfs)):
        yield mobius(fl.combine(sel, anfs), n)


def _brute_ai_table_n4() -> np.ndarray:
    """ai for all 65536 functions at n=4 by direct annihilator enumeration.

    g annihilates f iff supp(f) lies inside supp(1+g), and 1+f iff supp(g)
    lies inside supp(f).  So every nonzero g of degree <= e marks 1+g in one
    table and g in another; closing the first downward and the second upward
    over the 16 point bits marks exactly the f where f or 1+f has such a g.
    """
    out = np.full(1 << 16, 3, dtype=np.int8)
    for e in (2, 1):
        below = np.zeros(1 << 16, dtype=bool)
        above = np.zeros(1 << 16, dtype=bool)
        for g in _low_degree_tts(4, e):
            below[~g & 0xFFFF] = above[g] = True
        for bit in range(16):  # axis 1 of each view is point bit `bit` of f
            down, up = below.reshape(-1, 2, 1 << bit), above.reshape(-1, 2, 1 << bit)
            down[:, 0] |= down[:, 1]
            up[:, 1] |= up[:, 0]
        out[below | above] = e
    out[[0, 0xFFFF]] = 0
    return out


def sweep_ai_oracle(n: int, trials: int, seed: int) -> SweepReport:
    """trials = 0 runs the exhaustive n=4 comparison against brute-force search.

    The random mode enumerates every g of degree <= e, 2^C(n, <= e) of them,
    so it is refused above n = 5: at n = 6, e = 3 alone means 2^42.
    """
    if trials == 0 and n != 4:
        raise ValueError("exhaustive ai-oracle mode is wired for n = 4")
    rep, rng = _start("ai-oracle", n, trials, seed, hi=5, what="random ai-oracle mode")
    if trials == 0:
        for tt, want in enumerate(_brute_ai_table_n4().tolist()):
            f = BooleanFunction(4, tt)
            rep.check(ai(f) == want, "ai-matches-bruteforce", lambda: _fmt(f))
    else:
        for _ in range(trials):
            f = random_function(n, rng)
            got = ai(f)
            best = next((e for e in range(n + 1) if _annihilates_a_side(f.tt, n, e)), None)
            rep.check(got == best, "ai-matches-bruteforce", lambda: _fmt(f))
    return rep


def _annihilates_a_side(tt: int, n: int, e: int) -> bool:
    """Whether some nonzero g of degree <= e annihilates f or 1+f, one pass over the g's.

    g annihilates 1+f iff supp(g) lies inside supp(f).
    """
    return any(tt & g == 0 or g | tt == tt for g in _low_degree_tts(n, e))


def sweep_fai_oracle(n: int, trials: int, seed: int) -> SweepReport:
    """trials = 0 runs every non-constant function (1 <= n <= 3); the random mode stops where fai_direct does."""
    if trials == 0 and not 1 <= n <= 3:
        raise ValueError(f"exhaustive fai-oracle mode is wired for 1 <= n <= 3, got n = {n}")
    rep, rng = _start("fai-oracle", n, trials, seed, hi=5, what="random fai-oracle mode")
    if trials == 0:
        functions = (BooleanFunction(n, tt) for tt in range(1, (1 << (1 << n)) - 1))
    else:
        functions = (random_nonconstant(n, rng) for _ in range(trials))
    for f in functions:
        res = fai(f)
        rep.check(res.value == fai_direct(f), "fai-matches-direct", lambda: _fmt(f))
        if res.diverged:
            rep.check(_diverged_class_ok(f, res.profile_bound), "divergence-class", lambda: _fmt(f))
    return rep


# --- section-5 equivalences -------------------------------------------------


def sweep_pai_equivalence(n: int, trials: int, seed: int) -> SweepReport:
    rep, rng = _start("pai-equivalence", n, trials, seed, lo=2, hi=10)
    for _ in range(trials):
        f = random_nonconstant(n, rng)
        a = ai(f)
        for e in range(1, n + 1):
            rep.check(
                ai_exceeds_via_dims(f, e) == (a > e),
                "prop-ai-dim",
                f"{_fmt(f)} e={e}",
            )
        v = fai(f).value
        deg_f = degree(f)
        for s in range(2, n + 1):
            if deg_f >= s - 1:
                rep.check(
                    fai_at_least_via_codes(f, s) == (v >= s),
                    "thm-fai-codes",
                    f"{_fmt(f)} s={s}",
                )
        rep.check(
            is_pai_via_lcd(f) == (v >= n and deg_f >= n - 1),
            "thm-pai-lcd-corrected",
            _fmt(f),
        )
    return rep


def sweep_carlet_feng(n: int, trials: int, seed: int) -> SweepReport:
    """Certificates for the m = 2^(n-1) candidate supports at every offset; n = 16 (65 535 of them) is refused."""
    carlet_feng_support(n)  # refuses a bad n up front: at n <= 0 the offset loop would check nothing
    rep, _ = _start("carlet-feng", n, trials, seed, hi=9)
    order = (1 << n) - 1
    for offset in range(order):
        sc = carlet_feng_support(n, offset)
        f = function_from_columns(sc)
        cert = pai_certificate(f)
        rep.notes.append(
            f"offset={offset} wt={cert['wt']} fai={cert['fai']} "
            f"pai={cert['pai_by_def']} lcd={cert['pai_by_lcd']}"
        )
        rep.check(cert["agree"], "pai-def-vs-lcd-agreement", f"offset={offset} {_fmt(f)}")
        # a cyclic window of alpha's powers, 0 added at n = 2^t: dim = min(C(n, <= e), wt) (notes section 17)
        dims = [entry["dim"] for entry in cert["per_e_lcd_status"]]
        closed = [min(len(monomials_upto(n, e)), cert["wt"]) for e in range(1, n + 1)]
        rep.check(dims == closed, "cf-dim-closed-form", f"offset={offset} dims={dims}")
        expected_parity = 0 if (n - 1) & (n - 2) == 0 and n >= 3 else 1
        rep.check(
            cert["wt"] % 2 == expected_parity,
            "cf-weight-parity",
            f"offset={offset} wt={cert['wt']}",
        )
    return rep


SUITES = {
    "mobius-algebra": sweep_mobius_algebra,
    "f2linalg": sweep_f2linalg,
    "fai-bounds": sweep_fai_bounds,
    "affine-invariance": sweep_affine_invariance,
    "approximation": sweep_approximation,
    "concatenation": sweep_concatenation,
    "codes": sweep_codes,
    "ai-oracle": sweep_ai_oracle,
    "fai-oracle": sweep_fai_oracle,
    "pai-equivalence": sweep_pai_equivalence,
    "carlet-feng": sweep_carlet_feng,
}
