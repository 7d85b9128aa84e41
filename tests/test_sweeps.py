import random

import numpy as np

from faicodes.boolfun import BooleanFunction, complement
from faicodes.sweeps import _annihilates_a_side, _brute_ai_table_n4, _low_degree_tts


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
