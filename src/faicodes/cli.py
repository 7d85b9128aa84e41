"""Command-line front end: per-function analysis, code export, PAI certificates, sweeps.

Exit codes: 0 on success, 1 when a property sweep finds a violation, 2 on
usage or input errors.  Reports are deterministic for a fixed seed; wall
clock goes to stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import string
import sys
import time
from typing import IO

from .boolfun import BooleanFunction, parse_function
from .codes import export_code, hull_dim, import_code, is_even_like, puncture, rm
from .gf2m import FieldGF2n, field_new, field_with_modulus
from .immunity import function_report
from .pai_lcd import (
    carlet_feng_support,
    function_from_columns,
    pai_certificate,
    support_columns,
)
from .sweeps import SUITES


def _open_out(path: str | None) -> contextlib.AbstractContextManager[IO[str]]:
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _field_for(n: int, modulus_hex: str | None) -> FieldGF2n:
    if modulus_hex is None:
        return field_new(n)
    digits = modulus_hex.removeprefix("0x")  # int() would also take a sign, spaces and '_'
    if not digits or set(digits) - set(string.hexdigits):
        raise ValueError(f"bad modulus {modulus_hex!r}: expected hex digits, optionally after 0x")
    return field_with_modulus(n, int(digits, 16))


def _emit(out: IO[str], record: dict, as_json: bool) -> None:
    if as_json:
        out.write(json.dumps(record, sort_keys=True) + "\n")
        return
    for key, value in record.items():
        out.write(f"{key}: {value}\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    record = function_report(parse_function(args.function))
    with _open_out(args.out) as out:
        _emit(out, record, args.json)
    return 0


def cmd_rm(args: argparse.Namespace) -> int:
    if not (0 <= args.d <= args.n and 2 <= args.n <= 12):
        raise ValueError(f"need 0 <= d <= n and 2 <= n <= 12, got d={args.d} n={args.n}")
    field = _field_for(args.n, args.modulus)
    code = rm(args.d, args.n, field)
    if args.punctured_by is not None:
        f = parse_function(args.punctured_by)
        if f.n != args.n:
            raise ValueError("--punctured-by function has a different variable count")
        sc = support_columns(f, field)
        code = puncture(code, sc.complement())
    with _open_out(args.out) as out:
        out.write(f"# modulus {field.modulus:#x}\n")
        out.write(export_code(code))
    return 0


def cmd_lcd_check(args: argparse.Namespace) -> int:
    with open(args.matrix) as fh:
        code = import_code(fh.read())
    hull = hull_dim(code)
    record = {
        "length": code.length,
        "dim": code.dim,
        "hull": hull,
        "lcd": hull == 0,
        "self_orthogonal": hull == code.dim,  # the hull is all of C
        "even_like": is_even_like(code),
    }
    with _open_out(args.out) as out:
        _emit(out, record, args.json)
    return 0


def _modulus_echo(n: int, modulus_hex: str | None) -> dict:
    """The certificate's modulus key; none at n = 1, below the field module's 2..16 range."""
    if n == 1 and modulus_hex is None:
        return {}
    return {"modulus": f"{_field_for(n, modulus_hex).modulus:#x}"}


def cmd_pai_verify(args: argparse.Namespace) -> int:
    if args.search is None:
        f = parse_function(args.function)
        echo = _modulus_echo(f.n, args.modulus)
        cert = pai_certificate(f) | echo
        with _open_out(args.out) as out:
            _emit(out, cert, args.json)
        return 0 if cert["agree"] else 1
    n = args.search
    if not 1 <= n <= 4:
        hint = "; use carlet-feng for n = 5" if n > 4 else ""
        raise ValueError(f"exhaustive search supports 1 <= n <= 4 variables, got n = {n}{hint}")
    echo = _modulus_echo(n, args.modulus)
    with _open_out(args.out) as out:
        found = 0
        for tt in range(1, 1 << (1 << n)):
            cert = pai_certificate(BooleanFunction(n, tt))
            if cert["pai_by_def"]:
                found += 1
                _emit(out, cert | echo, args.json)
        if not args.json:
            out.write(f"# {found} PAI functions at n={n}\n")
    return 0


def cmd_carlet_feng(args: argparse.Namespace) -> int:
    field = _field_for(args.n, args.modulus)
    offsets = range((1 << args.n) - 1) if args.all_offsets else [args.offset or 0]
    status = 0
    with _open_out(args.out) as out:
        for off in offsets:
            sc = carlet_feng_support(args.n, off, args.count)
            cert = pai_certificate(function_from_columns(sc, field))
            cert["modulus"] = f"{field.modulus:#x}"
            cert["offset"] = off
            cert["columns"] = sorted(sc.cols)
            _emit(out, cert, args.json)
            if not cert["pai_by_def"]:
                status = 1
    return status


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.suite not in SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}")
    t0 = time.perf_counter()
    report = SUITES[args.suite](args.n, args.trials, args.seed)
    with _open_out(args.out) as out:
        if args.json:
            out.write(json.dumps(dataclasses.asdict(report), sort_keys=True) + "\n")
        else:
            out.write(f"suite {report.suite} n={report.n} trials={report.trials} seed={report.seed}\n")
            for note in report.notes:
                out.write(f"note: {note}\n")
            for failure in report.failures:
                out.write(f"FAIL {failure}\n")
            out.write(f"checks: {report.checks}  failures: {len(report.failures)}\n")
    print(f"elapsed: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call (not at import) and reused.

    parse_args leaves a parser as it was, so one call cannot change the next.
    """
    parser = argparse.ArgumentParser(
        prog="faicodes",
        description="Algebraic immunity, fast-immunity profiles and LCD codes "
        "from punctured Reed-Muller codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--json": {"action": "store_true", "help": "one JSON record per line"},
        "--out": {"help": "write the report to a file"},
        "--modulus": {"help": "hex primitive polynomial overriding the default"},
    }

    def common(p: argparse.ArgumentParser, *flags: str) -> None:
        """Register the shared options each subcommand reads, and no others."""
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("analyze", help="immunity report for one function")
    p.add_argument("function", help="function spec: n:HEX or n:{i1,i2,...}")
    common(p, "--json", "--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("rm", help="emit a (punctured) Reed-Muller generator matrix")
    p.add_argument("d", type=int, help="order")
    p.add_argument("n", type=int, help="variables")
    p.add_argument("--punctured-by", help="restrict columns to this function's support")
    common(p, "--out", "--modulus")
    p.set_defaults(func=cmd_rm)

    p = sub.add_parser("lcd-check", help="hull/LCD report for a generator matrix file")
    p.add_argument("matrix", help="matrix file in the text format")
    common(p, "--json", "--out")
    p.set_defaults(func=cmd_lcd_check)

    p = sub.add_parser("pai-verify", help="PAI certificate for a function or a full search")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("function", nargs="?", help="function spec")
    target.add_argument("--search", type=int, help="exhaustive search over all functions of n variables")
    common(p, "--json", "--out", "--modulus")
    p.set_defaults(func=cmd_pai_verify)

    p = sub.add_parser("carlet-feng", help="consecutive-power support candidates and verdicts")
    p.add_argument("n", type=int)
    p.add_argument("--count", type=int, help="number of consecutive powers (default 2^(n-1))")
    # default None, not 0: argparse lets a value equal to the default pass as absent
    which = p.add_mutually_exclusive_group()
    which.add_argument("--offset", type=int, help="first exponent of alpha (default 0)")
    which.add_argument("--all-offsets", action="store_true")
    common(p, "--json", "--out", "--modulus")
    p.set_defaults(func=cmd_carlet_feng)

    p = sub.add_parser("sweep", help="run a property sweep suite")
    p.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    p.add_argument("n", type=int)
    p.add_argument("trials", type=int, nargs="?", default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p, "--json", "--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
