"""Byte-for-byte CLI transcripts under tests/golden/.

Each case's stdout is compared with tests/golden/<name>, and its exit
status with the one recorded in CASES.  The `analyze` transcripts lock the
immunity report (values, witness text, key order); the `rm` and
`lcd-check` ones lock the code export on the default and a non-default
modulus; the `pai-verify` and `carlet-feng` ones lock the PAI certificate
(per-order length, dimension, hull and verdicts, and the Carlet-Feng
columns); the `sweep` ones lock each suite's check count and notes at a
fixed seed.  To record them again after an intended change of the output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import random
from pathlib import Path

import pytest

from faicodes.cli import main

GOLDEN = Path(__file__).parent / "golden"

# the random specs were drawn with random.Random(f"golden:{n}").  FFAI reads
# only the layers k < FAI(f) - lda(f) of the pass on 1+f: readme-maj3 has
# FAI(f) - lda(f) - 1 = 0 and runs no such pass at all, while in
# readme-support-n5 and annihilator-route-n4 FAI(1+f) < FAI(f), so a layer of
# that bounded pass sets FFAI
ANALYZE = (
    ("readme-maj3", "3:E8"),
    # the only case whose witness solve has several solutions (its 6 products
    # have rank 5), so it locks which particular solution solve_preimage returns
    ("readme-support-n5", "5:{1,2,4,8,16}"),
    ("all-ones-n3", "3:FF"),
    # FAI above the profile bound; no non-constant n=3 function diverges, so n=4
    ("diverged-n4", "4:0356"),
    # the optimal product is f itself: witness g = 1 + the first annihilator
    ("annihilator-route-n4", "4:0180"),
    ("carlet-feng-n5", "5:B41365B6"),
    ("random-n4", "4:3E1A"),
    ("random-n5", "5:537DADB8"),
    ("random-n6", "6:964E23F28B5CBB32"),
    ("random-n7", "7:6482CD68DAE62905BEAFF4FFD6BDFBEC"),
    ("random-n8", "8:FD9165C8CED96DC70D18DAE339614AF3930BF1784B254A6EE831942BD753F857"),
    (
        "random-n9",
        "9:39BA49128EF665A5747C20703EC488B8F920DB328941F1B29001681D0D604C66"
        "962D6314CAF28E072C7E1687F09ED0D13930F247D8158989CB5A41A1E2292BC7",
    ),
)

PAI_VERIFY = tuple((name, (spec,), 0) for name, spec in ANALYZE if name.startswith("random-")) + (
    # FAI = n but degree n - 2: the LCD side says no, so the verdicts disagree
    ("degree-deficient-n4", ("4:0356",), 1),
    ("carlet-feng-n5-mod29", ("5:B41365B6", "--modulus", "29"), 0),
    ("search-n3", ("--search", "3"), 0),
)


def _drawn(n: int) -> str:
    """The seeded random spec of the n-variable cases."""
    return f"{n}:{random.Random(f'golden:{n}').getrandbits(1 << n):0{(1 << n) // 4}X}"


# the n = 10/11 sizes of the benchmark's analyze workload; analyze only.
# carlet-feng-n9 (offset 0, default modulus) sits at the count boundary:
# wt = 256 = C(9, <= 4), so neither counting bound ends a scan early
ANALYZE_LARGE = (
    ("random-n10", _drawn(10)),
    ("random-n11", _drawn(11)),
    (
        "carlet-feng-n9",
        "9:2F7418EAE9C802D0A4D5AD97E714550DA272DD75D62F99E25661B87A50A76227"
        "3E48980C2F37B6F30CFFE358E94CC3836842376D2F9C9A91887B36450D6B395E",
    ),
)

CARLET_FENG = (
    ("n4-all-offsets", ("4", "--all-offsets")),
    ("n5-offset7", ("5", "--offset", "7")),
    ("n5-offset7-mod29", ("5", "--offset", "7", "--modulus", "29")),
    ("n8-offset3", ("8", "--offset", "3")),
)

# (suite, n, trials) of `sweep --seed 3 --json`; trials = 0 is the exhaustive variant
SWEEP = (
    ("mobius-algebra", 4, 50),
    ("f2linalg", 4, 50),
    ("fai-bounds", 4, 20),
    ("affine-invariance", 3, 5),
    ("approximation", 4, 20),
    ("concatenation", 4, 20),
    ("codes", 4, 20),
    ("ai-oracle", 4, 0),
    ("ai-oracle", 4, 20),
    ("fai-oracle", 3, 0),
    ("fai-oracle", 4, 10),
    ("pai-equivalence", 4, 10),
    ("carlet-feng", 4, 0),
)

# (name, argv, exit status); lcd-check reads an rm transcript recorded before it
CASES = (
    tuple((f"analyze/{name}.json", ("analyze", spec, "--json"), 0) for name, spec in ANALYZE + ANALYZE_LARGE)
    + (
        ("rm/rm-2-4.txt", ("rm", "2", "4"), 0),
        ("rm/rm-2-4-mod19.txt", ("rm", "2", "4", "--modulus", "19"), 0),
        ("rm/rm-1-5-punctured.txt", ("rm", "1", "5", "--punctured-by", "5:B41365B6"), 0),
        ("rm/rm-1-5-punctured-mod29.txt", ("rm", "1", "5", "--punctured-by", "5:B41365B6", "--modulus", "29"), 0),
        ("lcd-check/rm-2-4.json", ("lcd-check", str(GOLDEN / "rm/rm-2-4.txt"), "--json"), 0),
        ("lcd-check/rm-2-4-mod19.json", ("lcd-check", str(GOLDEN / "rm/rm-2-4-mod19.txt"), "--json"), 0),
        ("lcd-check/rm-1-5-punctured.txt", ("lcd-check", str(GOLDEN / "rm/rm-1-5-punctured.txt")), 0),
        ("lcd-check/rm-1-5-punctured-mod29.txt", ("lcd-check", str(GOLDEN / "rm/rm-1-5-punctured-mod29.txt")), 0),
    )
    + tuple((f"pai-verify/{name}.json", ("pai-verify", *args, "--json"), st) for name, args, st in PAI_VERIFY)
    + tuple((f"carlet-feng/{name}.json", ("carlet-feng", *args, "--json"), 0) for name, args in CARLET_FENG)
    + tuple(
        (f"sweep/{suite}-n{n}-t{trials}.json", ("sweep", suite, str(n), str(trials), "--seed", "3", "--json"), 0)
        for suite, n, trials in SWEEP
    )
)


@pytest.mark.parametrize("name,argv,status", CASES, ids=[name for name, _, _ in CASES])
def test_cli_matches_golden(name, argv, status, capsys):
    assert main(list(argv)) == status
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def _record() -> None:
    for name, argv, _ in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(list(argv))
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(out.getvalue())


if __name__ == "__main__":
    _record()
