"""Per-layer tracing of faicodes from outside the package.

The modules import functions by name (``immunity`` calls its own bound
``mobius``, ``codes`` its own bound ``rank`` and ``gram``, and
``sweeps.SUITES`` holds the sweep functions in a dict), so each traced
function is rebound in every ``faicodes`` namespace and dict that holds
it, not only in the module that defines it.

A traced call counts one call and adds its self time: its duration minus
the time of the traced calls it made.  Inner calls run in the millions on
the ``crosscheck`` workload, so they are folded into per-operation totals
as they end instead of being kept one by one; the operations themselves
are kept as spans and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> traced functions; the metrics are <module>.<function>.calls and .self_s
LAYERS = {
    "immunity": (
        "lda", "ai", "profile", "fai", "ffai", "annihilator_witness", "function_report", "fai_direct",
    ),
    "boolfun": ("mobius", "support"),
    "f2linalg": ("solve_preimage", "kernel_basis", "rref", "gram", "rank"),
    "codes": ("rm", "puncture", "code_from_rows", "dual", "hull_dim", "is_lcd"),
    "pai_lcd": ("support_columns", "pai_certificate"),
    "sweeps": ("sweep_fai_oracle", "sweep_ai_oracle", "sweep_mobius_algebra"),
    "gf2m": ("field_new",),
    "cli": ("main",),
}
# modules whose call counts the workload fixes (about one per operation): self time only
SELF_TIME_ONLY = {"sweeps", "gf2m", "cli"}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    out = []
    for name in NAMES:
        if name.split(".")[0] not in SELF_TIME_ONLY:
            out.append(f"{name}.calls")
        out.append(f"{name}.self_s")
    return out


class Tracer:
    """Call counts and self times per layer, accumulated by wrappers."""

    def __init__(self) -> None:
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self._stack = [0.0]  # child time of each open traced call; [0] is the root
        self._rebound: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        """Wrap every layer in every faicodes namespace; raise if one is missing or missed."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "faicodes" or name.startswith("faicodes.")]
        for i, name in enumerate(NAMES):
            mod_name, fn_name = name.split(".")
            defining = sys.modules.get(f"faicodes.{mod_name}")
            orig = getattr(defining, fn_name, None)
            if not callable(orig):
                raise LookupError(f"traced layer {name} not found")
            wrapped = self._wrap(i, orig)
            for mod in modules:
                for holder in [vars(mod)] + [v for v in vars(mod).values() if type(v) is dict]:
                    for key, value in list(holder.items()):
                        if value is orig:
                            holder[key] = wrapped
                            self._rebound.append((holder, key, orig))
            if getattr(defining, fn_name) is not wrapped:
                raise LookupError(f"traced layer {name} was not wrapped")

    def uninstall(self) -> None:
        """Put every original function back where install() found it."""
        for holder, key, orig in reversed(self._rebound):
            holder[key] = orig
        self._rebound.clear()

    def _wrap(self, i: int, fn):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                calls[i] += 1
                self_s[i] += elapsed - stack.pop()
                stack[-1] += elapsed

        return traced

    def snapshot(self) -> tuple[list[int], list[float]]:
        return list(self.calls), list(self.self_s)

    def since(self, snap: tuple[list[int], list[float]]) -> dict[str, list]:
        """{layer: [calls, self_s]} for the layers called since the snapshot."""
        calls0, self0 = snap
        return {
            name: [self.calls[i] - calls0[i], self.self_s[i] - self0[i]]
            for i, name in enumerate(NAMES)
            if self.calls[i] != calls0[i]
        }

    def per_op_metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric, in metric_names() order, as a mean per operation."""
        values = {}
        for i, name in enumerate(NAMES):
            values[f"{name}.calls"] = self.calls[i] / ops
            values[f"{name}.self_s"] = self.self_s[i] / ops
        return {metric: values[metric] for metric in metric_names()}
