"""Tests of the benchmark's output checkers and of its layer tracer.

Each checker must accept a record the program produced and reject every
deliberately corrupted copy of it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import NAMES, Tracer, metric_names  # noqa: E402

cli = run.load_program()


def _record(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def _corrupt(record: dict, path: tuple, value) -> dict:
    bad = copy.deepcopy(record)
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return bad


# --- the checkers' own arithmetic --------------------------------------------


def test_mobius_and_degree_on_known_functions():
    # majority of 3 variables: x1x2 + x1x3 + x2x3, truth table 0xE8
    assert checks.coefficients_to_int(checks.anf_coefficients(0xE8, 3)) == (1 << 3) | (1 << 5) | (1 << 6)
    assert checks.degree_of_tt(0xE8, 3) == 2
    assert checks.degree_of_tt(0, 3) == 0
    assert checks.parse_anf_text("x1*x3 + x2 + 1", 3) == [5, 2, 0]
    with pytest.raises(ValueError):
        checks.parse_anf_text("x1 + x1", 3)


def test_field_and_hull_arithmetic():
    assert checks.default_modulus(3) == 0b1011
    assert checks.alpha_powers(4, 0b11111) is None  # x^4+x^3+x^2+x+1 is not primitive
    assert checks.gf2_rank([0b110, 0b011, 0b101]) == 2
    # the [3,1] repetition code is LCD; the [2,1] code {00, 11} is self-orthogonal
    assert checks.hull_and_dim([0b111]) == (0, 1)
    assert checks.hull_and_dim([0b11, 0b11]) == (1, 1)


# --- analyze ------------------------------------------------------------------

ANALYZE_SPEC = "6:9D3A5C6E1F2B8471"


@pytest.fixture(scope="module")
def analyze_record():
    return _record("analyze", ANALYZE_SPEC, "--json")


def test_analyze_accepts_program_output(analyze_record):
    assert checks.check_analyze(analyze_record, ANALYZE_SPEC) == []


@pytest.mark.parametrize(
    "path, wrong",
    [
        (("deg",), lambda r: r["deg"] + 1),
        (("wt",), lambda r: r["wt"] - 1),
        (("ai",), lambda r: r["ai"] + 1),
        (("lda_f",), lambda r: r["ai"] - 1),
        (("lda_fc",), lambda r: r["lda_fc"] + 1),
        (("lda_fc",), lambda r: None),
        (("fai",), lambda r: r["fai"] + 1),
        (("fai",), lambda r: r["fai"] - 1),
        (("ffai",), lambda r: r["fai"] + 1),
        (("witness_total",), lambda r: r["witness_total"] + 1),
        (("witness_g",), lambda r: "1"),
        (("witness_g",), lambda r: "0"),
        (("witness_g",), lambda r: "x1*x2*x3*x4*x5*x6"),
        (("witness_g",), lambda r: "x9"),
        (("profile", 0), lambda r: r["deg"] + 1),
        (("profile", -1), lambda r: r["profile"][-1] + 1),
        (("profile",), lambda r: r["profile"][:2]),
        (("tt",), lambda r: "6:9D3A5C6E1F2B8470"),
    ],
)
def test_analyze_rejects_corruption(analyze_record, path, wrong):
    bad = _corrupt(analyze_record, path, wrong(analyze_record))
    assert checks.check_analyze(bad, ANALYZE_SPEC)


def test_analyze_carlet_feng_demands_optimal_ai(analyze_record):
    # a random function of 6 variables is not Carlet-Feng: FAI < 6 here
    assert analyze_record["fai"] < 6
    assert checks.check_analyze(analyze_record, ANALYZE_SPEC, carlet_feng=True)


# --- certificates --------------------------------------------------------------


@pytest.fixture(scope="module")
def cf_record():
    return _record("carlet-feng", "5", "--offset", "7", "--json")


@pytest.fixture(scope="module")
def pv_spec_record():
    spec = "5:6A3C91F0"
    return spec, _record("pai-verify", spec, "--json")


def test_certificates_accept_program_output(cf_record, pv_spec_record):
    for e in range(1, 6):
        assert checks.check_certificate(cf_record, 5, e, offset=7) == []
    spec, rec = pv_spec_record
    assert not rec["pai_by_lcd"]  # exercises the recheck of the first non-LCD order
    assert checks.check_certificate(rec, 5, 1, spec=spec) == []


@pytest.mark.parametrize(
    "path, value",
    [
        (("agree",), False), (("pai_by_def",), False), (("pai_by_lcd",), False), (("fai",), 4),
        (("wt",), 15), (("deg",), 5), (("offset",), 8), (("modulus",), "0x3d"), (("modulus",), "0x3f"),
        (("tt",), "5:6A3C91F0"), (("per_e_lcd_status", 0, "dim"), 5), (("per_e_lcd_status", 1, "hull"), 1),
        (("per_e_lcd_status", 2, "lcd"), False), (("per_e_lcd_status", 3, "length"), 15),
        (("per_e_lcd_status", 4, "e"), 6), (("columns", 0), 0),
    ],
)
def test_certificate_rejects_corruption(cf_record, path, value):
    assert checks.check_certificate(_corrupt(cf_record, path, value), 5, 1, offset=7)


def test_certificate_recheck_catches_a_wrong_hull(cf_record, pv_spec_record):
    # hull 1 with lcd False is self-consistent, so only the recomputation rejects it
    bad = _corrupt(cf_record, ("per_e_lcd_status", 1, "hull"), 1)
    bad["per_e_lcd_status"][1]["lcd"] = False
    bad["pai_by_lcd"] = bad["agree"] = False
    assert any("recomputed" in p for p in checks.check_certificate(bad, 5, 2, offset=7))
    spec, rec = pv_spec_record
    e = min(entry["e"] for entry in rec["per_e_lcd_status"] if not entry["lcd"])
    fixed = copy.deepcopy(rec)
    fixed["per_e_lcd_status"][e - 1].update(hull=0, lcd=True)
    assert any("recomputed" in p for p in checks.check_certificate(fixed, 5, e, spec=spec))


# --- sweeps --------------------------------------------------------------------


def test_sweep_checker():
    rec = _record("sweep", "fai-oracle", "4", "5", "--seed", "3", "--json")
    assert checks.check_sweep(rec, "fai-oracle", 4, 5, 3) == []
    assert checks.check_sweep(_corrupt(rec, ("failures",), ["fai-matches-direct: 4:0001"]), "fai-oracle", 4, 5, 3)
    assert checks.check_sweep(_corrupt(rec, ("checks",), 4), "fai-oracle", 4, 5, 3)
    assert checks.check_sweep(_corrupt(rec, ("seed",), 4), "fai-oracle", 4, 5, 3)
    assert checks.check_sweep(rec, "fai-oracle", 4, 0, 3)  # exhaustive asks for 65536 checks


# --- tracer and benchmark definition --------------------------------------------


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == metric_names() + ["trace.ops_per_s"]
    assert [w["name"] for w in spec["workloads"]] == sorted(run.WORKLOADS)


def test_tracer_wraps_every_binding_and_counts_calls():
    immunity, sweeps = sys.modules["faicodes.immunity"], sys.modules["faicodes.sweeps"]
    mobius, sweep_ai = immunity.mobius, sweeps.SUITES["ai-oracle"]
    tracer = Tracer()
    try:
        tracer.install()
        assert immunity.mobius is not mobius and sweeps.SUITES["ai-oracle"] is not sweep_ai
        snap = tracer.snapshot()
        _record("analyze", "4:6A3C", "--json")
        layers = tracer.since(snap)
        assert layers["cli.main"][0] == 1 and layers["immunity.function_report"][0] == 1
        assert layers["immunity.lda"][0] >= 3  # ai needs both sides, fai one
        assert all(calls > 0 and self_s >= 0 for calls, self_s in layers.values())
    finally:
        tracer.uninstall()
    assert immunity.mobius is mobius and sweeps.SUITES["ai-oracle"] is sweep_ai


def test_tracer_refuses_a_missing_layer(monkeypatch):
    monkeypatch.setattr("tracing.NAMES", ("immunity.no_such_function",) + NAMES)
    with pytest.raises(LookupError):
        Tracer().install()
