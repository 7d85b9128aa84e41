"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Two literal claims from the source material are refuted by
exhaustive computation on a degenerate class; they appear at the bottom as
xfail tests asserting the literal statements, next to the green tests that
pin down the corrected statements and the exact counterexample class.
"""

import math
import random
import time

import pytest

from faicodes.boolfun import BooleanFunction, degree, random_nonconstant
from faicodes.codes import is_lcd
from faicodes.immunity import ai, fai
from faicodes.pai_lcd import (
    carlet_feng_support,
    fai_at_least_via_codes,
    function_from_columns,
    is_pai_via_lcd,
    lcd_from_pai,
)
from faicodes.sweeps import (
    sweep_affine_invariance,
    sweep_ai_oracle,
    sweep_approximation,
    sweep_carlet_feng,
    sweep_codes,
    sweep_concatenation,
    sweep_fai_bounds,
    sweep_fai_oracle,
    sweep_mobius_algebra,
    sweep_pai_equivalence,
)


def _finish(name: str, desc: str, failures: list[str], elapsed: float, budget: float) -> None:
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(
        f"{name} {status}: {desc} "
        f"({elapsed:.1f}s of {budget:.0f}s budget, {len(failures)} violations)"
    )
    assert not failures, failures[:5]
    assert elapsed < budget, f"{name} exceeded its time budget: {elapsed:.1f}s"


def test_ac1_mobius_and_pointwise_algebra():
    t0 = time.perf_counter()
    failures: list[str] = []
    for n in range(1, 11):
        rep = sweep_mobius_algebra(n, 10_000, seed=100 + n)
        failures += rep.failures
    _finish("AC-1", "Mobius involution and pointwise algebra, 1e5 functions n<=10",
            failures, time.perf_counter() - t0, 10.0)


def test_ac2_ai_oracle_exhaustive_n4():
    t0 = time.perf_counter()
    rep = sweep_ai_oracle(4, 0, 0)
    assert rep.checks == 1 << 16
    _finish("AC-2", "kernel ai == brute-force annihilator search, all 2^16 at n=4",
            rep.failures, time.perf_counter() - t0, 300.0)


def test_ac3_fai_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    rep = sweep_fai_oracle(3, 0, 0)
    assert rep.checks >= 254
    failures += rep.failures
    for n in (4, 5):
        rep = sweep_fai_oracle(n, 10_000, seed=300 + n)
        failures += rep.failures
    _finish("AC-3", "fai == fai_direct: exhaustive n=3 plus 1e4 random at n=4 and n=5",
            failures, time.perf_counter() - t0, 600.0)


def test_ac4_bounds_suite():
    t0 = time.perf_counter()
    failures = []
    for n, trials in ((4, 4000), (5, 3000), (6, 3000)):
        rep = sweep_fai_bounds(n, trials, seed=400 + n)
        failures += rep.failures
    _finish("AC-4", "degree/bracket/sandwich/profile-law bounds, 1e4 trials n in {4,5,6}",
            failures, time.perf_counter() - t0, 600.0)


def test_ac5_affine_invariance():
    t0 = time.perf_counter()
    failures = []
    for n in (4, 5):
        rep = sweep_affine_invariance(n, 100, seed=500 + n)
        failures += rep.failures
    _finish("AC-5", "fai and profile invariant under 100 affine maps x 100 functions, n in {4,5}",
            failures, time.perf_counter() - t0, 300.0)


def test_ac6_approximation_and_concatenation():
    t0 = time.perf_counter()
    failures = []
    for n in (3, 4, 5):
        rep = sweep_approximation(n, 1000, seed=600 + n)
        failures += rep.failures
        rep = sweep_concatenation(n, 1000, seed=650 + n)
        failures += rep.failures
    _finish("AC-6", "perturbation, Johansson-Wang, complement, linear-form witness, concat/bar",
            failures, time.perf_counter() - t0, 600.0)


def test_ac7_codes_suite():
    t0 = time.perf_counter()
    rep = sweep_codes(8, 100, seed=700)
    _finish("AC-7", "RM dims/duals to n=8, puncture/shorten duality, hulls, min weights",
            rep.failures, time.perf_counter() - t0, 300.0)


def exhaustive_pai_sets(n: int) -> tuple[set[int], set[int], set[int]]:
    """(PAI by definition, PAI by LCD, degree-deficient difference) over all tt."""
    by_def: set[int] = set()
    by_lcd: set[int] = set()
    deficient: set[int] = set()
    for tt in range(1, 1 << (1 << n)):
        f = BooleanFunction(n, tt)
        if fai(f).value >= n:
            by_def.add(tt)
            if degree(f) < n - 1:
                deficient.add(tt)
        if is_pai_via_lcd(f):  # the punctured-RM oracle: about half of the fixture's time at n = 4
            by_lcd.add(tt)
    return by_def, by_lcd, deficient


@pytest.fixture(scope="module")
def n4_pai_sets():
    t0 = time.perf_counter()
    sets = exhaustive_pai_sets(4)
    return sets, time.perf_counter() - t0


def test_ac8_section5_equivalences(n4_pai_sets):
    n4_pai_sets, exhaustive_elapsed = n4_pai_sets
    t0 = time.perf_counter() - exhaustive_elapsed
    failures = []
    # dimension criterion and code criteria on random functions
    for n, trials in ((4, 334), (5, 333), (6, 333)):
        rep = sweep_pai_equivalence(n, trials, seed=800 + n)
        failures += rep.failures
    # theorem on FAI >= s: 200 hypothesis-satisfying functions per n, every s
    for n in (4, 5):
        rng = random.Random(850 + n)
        done = 0
        while done < 200:
            f = random_nonconstant(n, rng)
            deg_f = degree(f)
            applicable = [s for s in range(2, n + 1) if deg_f >= s - 1]
            if not applicable:
                continue
            v = fai(f).value
            for s in applicable:
                if fai_at_least_via_codes(f, s) != (v >= s):
                    failures.append(f"thm-fai-codes n={n} tt={f.tt:#x} s={s}")
            done += 1
    # exhaustive n=4: corrected LCD characterization
    by_def, by_lcd, deficient = n4_pai_sets
    if by_lcd != by_def - deficient:
        failures.append("corrected PAI-LCD equivalence failed at n=4")
    if not by_lcd <= by_def:
        failures.append("LCD-certified function without fai >= n at n=4")
    if len(deficient) != 896 or any(degree(BooleanFunction(4, t)) >= 3 for t in deficient):
        failures.append("degree-deficient class at n=4 is not the documented one")
    # weight parity on the full-degree, optimal-immunity PAI class, n in {3, 4}; the
    # full-degree PAI class (fai >= n, deg >= n - 1) at n = 4 is the fixture's by_def - deficient
    n3 = [BooleanFunction(3, tt) for tt in range(1, 1 << 8)]
    full_degree_pai = {3: [f.tt for f in n3 if fai(f).value >= 3 and degree(f) >= 2], 4: by_def - deficient}
    for n, members in full_degree_pai.items():
        want_even = n == 3  # n = 2^t + 1 forces even weight, n = 2^t odd
        optimum = math.ceil(n / 2)
        proper = 0
        for tt in sorted(members):
            if ai(BooleanFunction(n, tt)) != optimum:
                continue
            proper += 1
            if (tt.bit_count() % 2 == 0) != want_even:
                failures.append(f"parity violation on proper PAI n={n} tt={tt:#x}")
        if proper == 0:
            failures.append(f"no proper PAI functions found at n={n}")
    # LCD extraction from a verified PAI function at n=5
    f5 = function_from_columns(carlet_feng_support(5, 0))
    c1 = lcd_from_pai(f5, 1)
    c2 = lcd_from_pai(f5, 2)
    if (c1.length, c1.dim) != (16, 6) or not is_lcd(c1):
        failures.append(f"lcd_from_pai(f,1) gave [{c1.length},{c1.dim}]")
    if (c2.length, c2.dim) != (16, 16) or not is_lcd(c2):
        failures.append(f"lcd_from_pai(f,2) gave [{c2.length},{c2.dim}]")
    _finish("AC-8", "dimension/code criteria, corrected LCD equivalence, parity, LCD extraction",
            failures, time.perf_counter() - t0, 1800.0)


def test_ac9_carlet_feng_certificates():
    t0 = time.perf_counter()
    failures = []
    reports = []
    for n in (4, 5):
        rep = sweep_carlet_feng(n, 0, 0)
        failures += rep.failures
        pai_count = sum("pai=True" in note for note in rep.notes)
        reports.append(f"n={n}: {pai_count}/{len(rep.notes)} offsets verified PAI")
        if pai_count != len(rep.notes):
            failures.append(f"unverified consecutive-power candidate at n={n}")
    print("; ".join(reports))
    _finish("AC-9", "consecutive-power support certificates for every offset, n in {4,5}",
            failures, time.perf_counter() - t0, 600.0)


# --- documented refutations -------------------------------------------------
#
# Two literal claims fail on a degenerate class that the computation pins
# down exactly; the corrected statements are asserted green above.


@pytest.mark.xfail(
    reason="refuted by 896 functions at n=4 with fai >= n but degree n-2: "
    "the LCD characterization additionally needs deg(f) >= n-1 "
    "(see notes/decisions.md)",
    strict=True,
)
def test_literal_pai_lcd_identity(n4_pai_sets):
    by_def, by_lcd, _ = n4_pai_sets
    assert by_def == by_lcd


@pytest.mark.xfail(
    reason="refuted by low-immunity functions whose fai reaches n "
    "(at n=3: weight 1 and weight 3; at n=4: weight 2, weight 4 and the "
    "degree-2 weight-6/10 functions; counts in notes/decisions.md); "
    "parity holds on the full-degree optimal-immunity class",
    strict=True,
)
def test_literal_parity_on_every_fai_ge_n_function(n4_pai_sets):
    by_def, _, _ = n4_pai_sets
    bad = [tt for tt in by_def if tt.bit_count() % 2 == 0]  # n=4 needs odd weight
    assert not bad
