import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import faicodes
import faicodes.codes as codes
import faicodes.sweeps as sweeps
from faicodes.cli import build_parser, main
from faicodes.sweeps import SUITES

SRC = str(Path(faicodes.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "3:E8")
    assert code == 0
    assert "ai: 2" in out and "fai: 3" in out and "profile: [2, 2, 2]" in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "2:F", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["fai"] == 2 and rec["ffai"] is None
    assert rec["profile_bound"] == 1  # definition diverges from the profile formula here


def test_analyze_underscore_in_hex_is_usage_error(capsys):
    code, out, err = run(capsys, "analyze", "4:F_FF")
    assert code == 2
    assert out == "" and "bad hex digits" in err


def test_analyze_zero_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "3:00")
    assert code == 2
    assert "zero function" in err


def test_analyze_bad_spec(capsys):
    code, _, err = run(capsys, "analyze", "3:GG")
    assert code == 2
    assert "error:" in err


def test_rm_and_lcd_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "gen.txt"
    code, _, _ = run(capsys, "rm", "1", "3", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert "length=8 dim=4" in text
    code, out, _ = run(capsys, "lcd-check", str(path), "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec == {
        "length": 8,
        "dim": 4,
        "hull": 4,
        "lcd": False,
        "self_orthogonal": True,
        "even_like": True,
    }


def test_rm_punctured_by_support(capsys):
    code, out, _ = run(capsys, "rm", "1", "3", "--punctured-by", "3:E8")
    assert code == 0
    assert "length=4" in out


def test_rm_range_error(capsys):
    code, _, err = run(capsys, "rm", "5", "3")
    assert code == 2


@pytest.mark.parametrize("n", ["0", "1", "13"])
def test_rm_variable_range_error(n, capsys):
    # checked before any field is built, so the error names the real range of n
    code, out, err = run(capsys, "rm", "0", n)
    assert code == 2
    assert out == "" and "2 <= n <= 12" in err and "extension degree" not in err


def test_rm_punctured_by_other_variable_count(capsys):
    code, out, err = run(capsys, "rm", "1", "3", "--punctured-by", "4:1234")
    assert code == 2
    assert out == "" and "different variable count" in err


def test_pai_verify_function(capsys):
    code, out, _ = run(capsys, "pai-verify", "4:195F", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["pai_by_def"] and rec["pai_by_lcd"] and rec["agree"]


def test_pai_verify_disagreement_exit_code(capsys):
    # degree-deficient function: definitional FAI reaches n without LCD-ness
    code, out, _ = run(capsys, "pai-verify", "4:0356", "--json")
    assert code == 1
    rec = json.loads(out)
    assert rec["pai_by_def"] and not rec["pai_by_lcd"]


@pytest.mark.parametrize("argv", [("1:2",), ("--search", "1")], ids=["function", "search"])
def test_pai_verify_n1_has_no_modulus(argv, capsys):
    code, out, _ = run(capsys, "pai-verify", *argv, "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(r["n"] == 1 and r["fai"] == 2 and "modulus" not in r for r in records)
    code, _, err = run(capsys, "pai-verify", *argv, "--modulus", "3")
    assert code == 2
    assert "extension degree 1" in err


@pytest.mark.parametrize("n", ["0", "-1", "5"])
def test_pai_verify_search_range(n, capsys):
    # checked before any field is built, so the error names the variable range
    code, out, err = run(capsys, "pai-verify", "--search", n)
    assert code == 2
    assert out == "" and "1 <= n <= 4 variables" in err and "extension degree" not in err
    assert ("carlet-feng" in err) == (n == "5")


def test_pai_verify_search_n3(capsys):
    code, out, _ = run(capsys, "pai-verify", "--search", "3", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert len(records) == 148  # exhaustive count of fai >= n functions at n = 3
    assert all(r["pai_by_def"] for r in records)


def test_pai_verify_search_text_ends_with_count(capsys):
    code, out, _ = run(capsys, "pai-verify", "--search", "2")
    assert code == 0
    assert out.endswith("# 15 PAI functions at n=2\n")
    assert sum(line.startswith("tt: ") for line in out.splitlines()) == 15


def test_carlet_feng(capsys):
    code, out, _ = run(capsys, "carlet-feng", "5", "--offset", "0", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["wt"] == 16 and rec["fai"] == 5 and rec["pai_by_def"]
    assert rec["columns"] == list(range(1, 17))


def test_carlet_feng_short_support_is_not_pai(capsys):
    code, out, _ = run(capsys, "carlet-feng", "4", "--count", "5", "--json")
    assert code == 1
    rec = json.loads(out)
    assert rec["wt"] == 6 and not rec["pai_by_def"]  # 5 powers of alpha plus 0


def test_carlet_feng_modulus_override(capsys):
    code, out, _ = run(capsys, "carlet-feng", "3", "--json", "--modulus", "D")
    assert code == 0
    rec = json.loads(out)
    assert rec["modulus"] == "0xd" and rec["offset"] == 0  # no --offset: offset 0
    assert rec["pai_by_def"]


def test_lcd_check_runs_one_gram(tmp_path, capsys, monkeypatch):
    paths = {}
    for name, code in (("rm-1-3", codes.rm(1, 3)), ("rm-2-4", codes.rm(2, 4)), ("eye", codes.code_from_rows([1, 2], 2))):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(codes.export_code(code))
    grams = []
    gram = codes.gram
    monkeypatch.setattr(codes, "gram", lambda g: grams.append(g) or gram(g))
    reports = {}
    for name, path in paths.items():
        code, out, _ = run(capsys, "lcd-check", str(path), "--json")
        assert code == 0
        reports[name] = json.loads(out)
    assert len(grams) == len(paths)
    # self-orthogonal iff the hull is all of C: RM(1, 3) is self-dual, RM(2, 4)'s hull is RM(1, 4)
    assert [(r["hull"], r["self_orthogonal"], r["lcd"]) for r in reports.values()] == [
        (4, True, False), (5, False, False), (0, False, True)
    ]


def test_lcd_check_refuses_a_negative_size(tmp_path, capsys):
    # exit 1 reports a violation, so a malformed header must exit 2, not end in a traceback;
    # nor may full-width digits, which int() reads as 3, pass as a size
    path = tmp_path / "gen.txt"
    for text in ("-1 3\n", "-2 0\n\n", "1 -3\n101\n", "３ ３\n101\n010\n111\n"):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "lcd-check", str(path))
        assert code == 2, text
        assert out == "" and "bad matrix header" in err, text


@pytest.mark.parametrize("command", [("rm", "1", "4"), ("pai-verify", "4:195F"), ("carlet-feng", "4")],
                         ids=["rm", "pai-verify", "carlet-feng"])
@pytest.mark.parametrize(
    "modulus",
    ["1_3", "+13", " 13", "13 ", "-13", "0x", "0x+13", "0X13", ""],
    ids=["underscore", "plus", "leading-space", "trailing-space", "minus", "bare-prefix", "prefix-then-sign",
         "upper-prefix", "empty"],
)
def test_modulus_takes_hex_digits_only(command, modulus, capsys):
    # int(text, 16) reads the first four and 0X13 as 0x13 and -13 as -0x13; only 0x then hex digits is taken
    code, out, err = run(capsys, *command, "--modulus", modulus)
    assert code == 2
    assert out == "" and "bad modulus" in err
    code, out, err = run(capsys, *command, "--modulus", "0x13")
    assert code != 2 and "0x13" in out and err == ""
    assert run(capsys, *command, "--modulus", "13") == (code, out, err)


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "3:E8", "--modulus", "0"),
        ("lcd-check", "gen.txt", "--modulus", "B"),
        ("sweep", "codes", "2", "1", "--modulus", "zz"),
        ("rm", "1", "3", "--json"),
    ],
    ids=["analyze-modulus", "lcd-check-modulus", "sweep-modulus", "rm-json"],
)
def test_unread_flags_are_usage_errors(argv, capsys):
    # each subcommand registers only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("pai-verify", "3:E8", "--search", "3"),
        ("pai-verify", "--search", "3", "3:E8"),
        ("carlet-feng", "5", "--offset", "7", "--all-offsets"),
        ("carlet-feng", "5", "--all-offsets", "--offset", "0"),
    ],
    ids=["spec-then-search", "search-then-spec", "offset-all-offsets", "all-offsets-offset-0"],
)
def test_conflicting_inputs_are_usage_errors(argv, capsys):
    # one input would be dropped without a word: refuse both before any work
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with" in captured.err


def test_sweep_pass_and_determinism(capsys):
    code1, out1, _ = run(capsys, "sweep", "fai-bounds", "4", "150", "--seed", "7")
    assert code1 == 0
    code2, out2, _ = run(capsys, "sweep", "fai-bounds", "4", "150", "--seed", "7")
    assert out1 == out2
    assert "failures: 0" in out1


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "mobius-algebra", "4", "100", "--seed", "1", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["failures"] == [] and rec["checks"] > 0


def test_sweep_unknown_suite(capsys):
    code, _, err = run(capsys, "sweep", "nope", "4", "5")
    assert code == 2
    assert "unknown suite" in err


def test_sweep_negative_trials(capsys):
    code, out, err = run(capsys, "sweep", "fai-bounds", "4", "-3")
    assert code == 2
    assert out == "" and "negative" in err


def test_sweep_text_prints_notes(capsys):
    code, out, _ = run(capsys, "sweep", "carlet-feng", "4", "0")
    assert code == 0
    notes = [line for line in out.splitlines() if line.startswith("note: ")]
    assert len(notes) == 15 and notes[0].startswith("note: offset=0 wt=")


def test_sweep_text_prints_each_failure(monkeypatch, capsys):
    def broken(n, trials, seed):
        rep = sweeps.SweepReport("broken", n, trials, seed)
        rep.check(True, "holds", "unused")
        rep.check(False, "prop", "detail")
        return rep

    monkeypatch.setitem(SUITES, "broken", broken)
    code, out, _ = run(capsys, "sweep", "broken", "3", "2")
    assert code == 1
    assert out.splitlines() == ["suite broken n=3 trials=2 seed=0", "FAIL prop: detail", "checks: 2  failures: 1"]


def test_sweep_ai_oracle_random_mode_is_refused_above_n5(capsys):
    # its brute force would walk 2^C(6, <= 3) = 2^42 selections at n = 6
    code, out, err = run(capsys, "sweep", "ai-oracle", "6", "1")
    assert code == 2
    assert out == "" and "random ai-oracle mode supports n <= 5" in err
    code, out, _ = run(capsys, "sweep", "ai-oracle", "5", "3")
    assert code == 0 and "checks: 3  failures: 0" in out


@pytest.mark.parametrize("suite", ["approximation", "pai-equivalence", "concatenation"])
def test_sweep_n1_is_refused_up_front(suite, capsys):
    code, out, err = run(capsys, "sweep", suite, "1", "3")
    assert code == 2
    assert out == "" and f"{suite} sweep needs n >= 2" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fai-oracle", "0", "0"), "exhaustive fai-oracle mode is wired for 1 <= n <= 3, got n = 0"),
        (("fai-oracle", "-2", "0"), "exhaustive fai-oracle mode is wired for 1 <= n <= 3, got n = -2"),
        (("carlet-feng", "0", "0"), "n = 0 is neither 2^t nor 2^t + 1"),
        (("codes", "1", "0"), "codes sweep needs n >= 2"),
        (("codes", "-3", "2"), "codes sweep needs n >= 2"),
        (("f2linalg", "-5", "2"), "f2linalg sweep needs n >= 1"),
        (("mobius-algebra", "-1", "2"), "mobius-algebra sweep needs n >= 1"),
        (("fai-bounds", "-1", "2"), "fai-bounds sweep needs n >= 1"),
        (("affine-invariance", "-1", "2"), "affine-invariance sweep needs n >= 1"),
        (("ai-oracle", "-1", "2"), "random ai-oracle mode needs n >= 1"),
        (("fai-oracle", "-1", "2"), "random fai-oracle mode needs n >= 1"),
        (("fai-oracle", "6", "1"), "random fai-oracle mode supports n <= 5"),
        (("f2linalg", "1025", "1"), "f2linalg sweep supports n <= 1024"),
        (("pai-equivalence", "11", "1"), "pai-equivalence sweep supports n <= 10"),
    ],
)
def test_sweep_n_out_of_range_is_refused_up_front(argv, message, capsys):
    """Each would otherwise pass with no checks, run at a nonsense n, or die on a negative shift."""
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("carlet-feng", "16", "0"), "carlet-feng sweep supports n <= 9"),
        (("ai-oracle", "5", "0"), "exhaustive ai-oracle mode is wired for n = 4"),
    ],
)
def test_sweep_n_above_range_is_refused_up_front(argv, message, capsys):
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2
    assert out == "" and message in err


def _must_not_run(*args):
    raise AssertionError("a range check let the sweep start its work")


def test_sweep_codes_refuses_n13_before_building_a_code(monkeypatch):
    # each n costs about 4x the one before (77 s at n = 12), so n = 16 would run for hours
    monkeypatch.setattr(sweeps, "rm", _must_not_run)
    with pytest.raises(ValueError, match="codes sweep supports n <= 12"):
        sweeps.sweep_codes(13, 0, 0)


def test_sweep_fai_oracle_refuses_n6_before_any_fai(monkeypatch):
    monkeypatch.setattr(sweeps, "fai", _must_not_run)
    with pytest.raises(ValueError, match="random fai-oracle mode supports n <= 5"):
        sweeps.sweep_fai_oracle(6, 1, 0)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_refuses_a_negative_trial_count(suite):
    with pytest.raises(ValueError, match="trial count -1 is negative"):
        SUITES[suite](4, -1, 0)


def test_pai_verify_requires_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pai-verify"])
    assert exc.value.code == 2


def _fresh_process(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, check=False)


def test_cli_import_loads_numpy():
    # bench/run.py:301 records sys.modules["numpy"].__version__ after importing only
    # the CLI, so the program must keep importing numpy (through sweeps); pytest
    # loads numpy itself, hence the fresh process.  Drop this test once the
    # benchmark stops reading numpy's version.
    proc = _fresh_process("-c", "import faicodes.cli, sys; assert 'numpy' in sys.modules")
    assert proc.returncode == 0, proc.stderr


# an analysis, a certificate, a usage error (exit 2), an argparse error (SystemExit), a carlet-feng run
PARSER_SEQUENCE = (
    ("analyze", "5:B41365B6", "--json"),
    ("pai-verify", "4:195F"),
    ("analyze", "3:00"),
    ("pai-verify", "3:E8", "--search", "3"),
    ("carlet-feng", "5", "--offset", "7", "--json"),
)


def test_one_parser_serves_every_call(capsys):
    build_parser.cache_clear()
    codes = []
    for argv in PARSER_SEQUENCE:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = _fresh_process("-m", "faicodes.cli", *argv)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 2, 2, 0]
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(PARSER_SEQUENCE) - 1)


def test_import_builds_no_parser():
    proc = _fresh_process("-c", "import faicodes.cli as cli; print(cli.build_parser.cache_info().currsize)")
    assert (proc.returncode, proc.stdout) == (0, "0\n")
