"""Benchmark of faicodes through its command-line entry point.

    python3 bench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Each operation is one in-process call of ``faicodes.cli.main`` with
``--json``, made in a closed loop from one thread: the next call starts
when the previous one returns.  The run repeats whole rounds of the
workload's fixed operation list, made from ``--seed``, as many as end
nearest to ``--seconds``, then checks every output with the benchmark's
own code (``checks.py``).  The last line of stdout is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics of the
traced run (``--trace 1``).  Raw results and traces go to ``bench/out/``.

Operation times are reported at a nominal host speed.  The speed of a
shared host drifts by a fifth or more, over seconds and over minutes, so
after each operation the run times a fixed pure-Python reference kernel,
once per started REF_EVERY_S of that operation, and scales the
operation's latency by REF_NOMINAL_S over the kernel's mean time just
before and just after it.  The unscaled figures are kept in the raw result
file.  Set-up time (process start and imports) is reported as measured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_SAMPLES = 7
REF_NOMINAL_S = 0.015  # fixed nominal kernel time; reported time = measured * this / kernel mean
REF_EVERY_S = 0.25

# operations per round: (label, count, variables) and, for sweeps, (suite, count, variables, trials)
ANALYZE = (("carlet-feng", 2, 9), ("random", 5, 10), ("random", 3, 11))
CERTIFY = (("carlet-feng", 3, 8), ("carlet-feng", 3, 9), ("pai-verify", 2, 9))
CROSSCHECK = (("mobius-algebra", 3, 10, 400), ("fai-oracle", 4, 5, 50), ("ai-oracle", 1, 4, 0))


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


def load_program():
    """Import faicodes.cli from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "faicodes" / "cli.py").is_file():
        raise SystemExit(f"faicodes sources not found under {src}")
    sys.path.insert(0, str(src))
    import faicodes.cli

    if Path(faicodes.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"imported faicodes from {faicodes.cli.__file__}, not from {src}")
    return faicodes.cli


def _random_spec(n: int, rng: random.Random) -> str:
    full = (1 << (1 << n)) - 1
    tt = 0
    while tt in (0, full):
        tt = rng.getrandbits(1 << n)
    return checks.hex_spec(n, tt)


def analyze_ops(rng: random.Random) -> list[Op]:
    ops = []
    for label, count, n in ANALYZE:
        for _ in range(count):
            if label == "carlet-feng":
                offset = rng.randrange((1 << n) - 1)
                points = checks.carlet_feng_points(n, offset, checks.default_modulus(n))
                spec = checks.hex_spec(n, sum(1 << p for p in points))
            else:
                spec = _random_spec(n, rng)
            check = partial(checks.check_analyze, spec=spec, carlet_feng=label == "carlet-feng")
            ops.append(Op(f"analyze {label} n={n}", ("analyze", spec, "--json"), check))
    return ops


def certify_ops(rng: random.Random) -> list[Op]:
    ops = []
    for label, count, n in CERTIFY:
        if label == "carlet-feng":
            for offset in rng.sample(range((1 << n) - 1), count):
                check = partial(checks.check_certificate, n=n, recheck_order=rng.randint(1, n), offset=offset)
                ops.append(Op(f"carlet-feng n={n}", ("carlet-feng", str(n), "--offset", str(offset), "--json"), check))
        else:
            for _ in range(count):
                spec = _random_spec(n, rng)
                check = partial(checks.check_certificate, n=n, recheck_order=rng.randint(1, n), spec=spec)
                ops.append(Op(f"pai-verify n={n}", ("pai-verify", spec, "--json"), check))
    return ops


def crosscheck_ops(rng: random.Random) -> list[Op]:
    ops = []
    for suite, count, n, trials in CROSSCHECK:
        for _ in range(count):
            seed = rng.getrandbits(31) if trials else 0  # the exhaustive suite takes no seed
            argv = ("sweep", suite, str(n), str(trials), "--seed", str(seed), "--json")
            check = partial(checks.check_sweep, suite=suite, n=n, trials=trials, seed=seed)
            ops.append(Op(f"sweep {suite} n={n}", argv, check))
    return ops


WORKLOADS = {"analyze": analyze_ops, "certify": certify_ops, "crosscheck": crosscheck_ops}


def reference_kernel() -> int:
    """Fixed work shaped like the program's inner loops: an XOR basis on big ints, masked shifts."""
    rng = random.Random(5)
    basis: dict[int, int] = {}
    for _ in range(600):
        row = rng.getrandbits(700)
        while row:
            lead = row.bit_length() - 1
            other = basis.get(lead)
            if other is None:
                basis[lead] = row
                break
            row ^= other
    x = rng.getrandbits(2048)
    for _ in range(200):
        for shift, mask in ((1, 0x5555), (2, 0x3333), (4, 0x0F0F)):
            x ^= (x & (mask * 7)) << shift
    return len(basis)


def kernel_time(busy_s: float) -> float:
    """Mean time of the reference kernel, run once per started REF_EVERY_S of busy_s."""
    times = []
    for _ in range(max(1, math.ceil(busy_s / REF_EVERY_S))):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


def scaled_latencies(latencies: list[float], kernel: list[float]) -> list[float]:
    """Each latency at the nominal host speed, judged by the kernel runs just before and after it."""
    around = [(kernel[max(i - 1, 0)] + kernel[i]) / 2 for i in range(len(latencies))]
    return [t * REF_NOMINAL_S / k for t, k in zip(latencies, around)]


def setup(workload: str, seed: int):
    """Import the program and build the workload's operations from the seed."""
    cli = load_program()
    return cli, WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def measure_setup(args: argparse.Namespace) -> float:
    """Median over fresh processes of the time from spawn to the end of setup()."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe", repr(time.monotonic()),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def run_ops(cli, ops: list[Op], seconds: float, tracer: Tracer | None) -> dict:
    """Whole rounds of ops, as many as end nearest to `seconds`; later rounds must repeat round 1's outputs."""
    latencies: list[float] = []
    first: list[str | None] = [None] * len(ops)
    failed_ops: set[int] = set()
    failures: list[str] = []
    problems: list[str] = []
    spans: list[dict] = []
    kernel: list[float] = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or (elapsed := time.perf_counter() - start) + elapsed / rounds / 2 < seconds:
        for i, op in enumerate(ops):
            out = io.StringIO()
            snap = tracer.snapshot() if tracer else None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    status = cli.main(list(op.argv))
            except (Exception, SystemExit) as exc:
                status = repr(exc)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            kernel.append(kernel_time(t1 - t0))
            if tracer:
                spans.append({"op": i, "round": rounds, "kind": op.kind, "argv": op.argv,
                              "start": t0 - start, "end": t1 - start, "layers": tracer.since(snap)})
            if status not in (0, 1):  # 1 reports a violated property; the checks judge that output
                failed_ops.add(i)
                failures.append(f"{op.kind} {' '.join(op.argv)[:80]}: exit status {status}")
            elif rounds == 0:
                first[i] = out.getvalue()
            elif i not in failed_ops and out.getvalue() != first[i]:
                problems.append(f"{op.kind} {' '.join(op.argv)[:80]}: output differs from round 1")
        rounds += 1
    wall = time.perf_counter() - start
    return {"latencies": latencies, "kernel": kernel, "wall": wall, "rounds": rounds, "first": first,
            "failed_ops": failed_ops, "failures": failures, "problems": problems, "spans": spans}


def calls_by_kind(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Mean calls of each layer per operation, for each kind of operation."""
    totals: dict[str, dict[str, int]] = {}
    counts: dict[str, int] = {}
    for span in spans:
        counts[span["kind"]] = counts.get(span["kind"], 0) + 1
        kind = totals.setdefault(span["kind"], {})
        for layer, (calls, _) in span["layers"].items():
            kind[layer] = kind.get(layer, 0) + calls
    return {k: {layer: c / counts[k] for layer, c in sorted(v.items())} for k, v in totals.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe is not None:  # child of measure_setup(): time set-up and exit
        setup(args.workload, args.seed)
        print(time.monotonic() - args.setup_probe)
        return 0

    setup_s = None if args.trace else measure_setup(args)
    cli, ops = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    res = run_ops(cli, ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = list(res["problems"])
    for i, op in enumerate(ops):
        if i in res["failed_ops"]:
            continue
        try:
            record = json.loads(res["first"][i])
        except json.JSONDecodeError as exc:
            problems.append(f"{op.kind}: output is not one JSON record ({exc})")
            continue
        problems.extend(f"{op.kind} {' '.join(op.argv)[:80]}: {p}" for p in op.check(record))

    lat = res["latencies"]
    attempted = len(lat)
    failed = len(res["failures"])
    scaled = scaled_latencies(lat, res["kernel"])
    scale = sum(scaled) / sum(lat)
    ops_per_s = attempted / sum(lat)  # per second spent in operations, kernel runs excluded
    if args.trace:
        metrics = {name: {"value": v * scale if name.endswith("self_s") else v,
                          "unit": "s/op" if name.endswith("self_s") else "calls/op"}
                   for name, v in tracer.per_op_metrics(attempted).items()}
        metrics["trace.ops_per_s"] = {"value": attempted / sum(scaled), "unit": "ops/s"}
        unscaled = {"trace.ops_per_s": ops_per_s}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": attempted / sum(scaled), "unit": "ops/s"},
            "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        unscaled = {"ops_per_s": ops_per_s, "op_p50_s": statistics.median(lat)}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "rounds": res["rounds"],
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "result": result, "host_scale": scale, "unscaled": unscaled,
        "failures": res["failures"], "problems": problems,
        "ops": [{"kind": op.kind, "argv": op.argv} for op in ops], "latencies": lat,
        "kernel": res["kernel"],
    }
    if args.trace:
        raw["calls_per_op_by_kind"] = calls_by_kind(res["spans"])
        raw["spans"] = res["spans"]
    (out_dir / f"{stem}.json").write_text(json.dumps(raw, indent=1) + "\n")

    for p in res["failures"][:10]:
        print(f"OPERATION FAILED: {p}", file=sys.stderr)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload}: {attempted} ops in {res['rounds']} rounds, {res['wall']:.2f} s, "
          f"host scale {scale:.3f}, unscaled {json.dumps(unscaled)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
