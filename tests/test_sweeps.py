import random

import numpy as np
import pytest

from faicodes import sweeps
from faicodes.boolfun import BooleanFunction, complement, parse_function
from faicodes.immunity import fai
from faicodes.sweeps import SweepReport, _annihilates_a_side, _brute_ai_table_n4, _diverged_class_ok, _low_degree_tts


def _per_g_ai_table_n4():
    """Reference: ai at n = 4 with each g of degree <= e tested against all 65536 f in turn."""
    fs = np.arange(1 << 16, dtype=np.uint32)

    def has_annihilator(e):
        found = np.zeros(1 << 16, dtype=bool)
        for g in _low_degree_tts(4, e):
            gg = np.uint32(g)
            found |= ((fs & gg) == 0) | ((fs | gg) == fs)  # g annihilates 1+f iff supp(g) inside supp(f)
        return found

    out = np.full(1 << 16, 3, dtype=np.int8)
    out[has_annihilator(2)] = 2
    out[has_annihilator(1)] = 1
    out[(fs == 0) | (fs == 0xFFFF)] = 0
    return out


def test_closure_table_matches_per_g_reference():
    got = _brute_ai_table_n4()
    assert got.shape == (1 << 16,) and got.dtype == np.int8
    assert np.array_equal(got, _per_g_ai_table_n4())


def _has_annihilator(f, e):
    return any(f.tt & g == 0 for g in _low_degree_tts(f.n, e))


def test_one_pass_over_g_matches_each_side_alone():
    # every function at n <= 3 and every e; seeded n = 4 functions, light and dense, for e <= 2
    cases = [(BooleanFunction(n, tt), range(n + 1)) for n in range(1, 4) for tt in range(1 << (1 << n))]
    rng = random.Random(26)
    for i in range(40):
        tt = rng.getrandbits(16)
        if i % 2:
            tt &= rng.getrandbits(16) & rng.getrandbits(16)
        cases.append((BooleanFunction(4, tt), range(3)))
    for f, degrees in cases:
        for e in degrees:
            want = _has_annihilator(f, e) or _has_annihilator(complement(f), e)
            assert _annihilates_a_side(f.tt, f.n, e) == want, (f, e)


@pytest.mark.parametrize(
    "sweep, args, prop, checks",
    [
        (sweeps.sweep_fai_oracle, (4, 10, 1), "divergence-class", 11),  # one of the ten draws diverges
        (sweeps.sweep_fai_bounds, (1, 3, 0), "fai-singleton-n-plus-1", 57),
        (sweeps.sweep_approximation, (2, 20, 0), "johansson-wang-singleton", 130),
        (sweeps.sweep_codes, (2, 50, 2), "even-like-lcd-even-dim", 317),
    ],
    ids=["fai-oracle", "fai-bounds", "approximation", "codes"],
)
def test_sweep_reaches_its_rare_branch(sweep, args, prop, checks, monkeypatch):
    # each seeded run draws an input that takes the branch of prop, and passes it
    props = []
    check = SweepReport.check
    monkeypatch.setattr(
        SweepReport, "check", lambda rep, ok, name, detail: props.append(name) or check(rep, ok, name, detail)
    )
    rep = sweep(*args)
    assert rep.ok, rep.failures
    assert prop in props and rep.checks == len(props) == checks


@pytest.mark.parametrize(
    "spec, want",
    [
        ("4:0356", True),
        ("3:07", False),  # mu_k != deg f at the optimal k
        ("3:01", False),  # lda(f) <= k
        ("3:17", False),  # the product space meets the degree <= deg f ANFs in dimension != 1
    ],
)
def test_diverged_class_at_the_profile_bound(spec, want):
    f = parse_function(spec)
    assert _diverged_class_ok(f, fai(f).profile_bound) is want
