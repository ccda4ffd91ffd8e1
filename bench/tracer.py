"""Outside-in tracing of knapvote's public functions.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds the wrapper
under every name that refers to the original in any ``knapvote`` module, so
calls between modules (the CLI calling ``solve_auto``, ``solve_auto`` calling
a route, a route calling ``evaluate``) all pass through it. ``uninstall``
puts the originals back. A target missing from its module is recorded in
``absent`` and measures as zero.

A span is (name, start, end, parent span index, request id). Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from typing import Callable

# route name -> solver function
ROUTES = {
    "ib_dp": "solve_ib_dp",
    "sp_dp": "solve_diverse_sp_dp",
    "ordered_table": "ordered_diverse_table",
    "fpt": "solve_diverse_fpt",
    "xp_dp": "solve_fair_xp_dp",
    "brute_force": "brute_force",
    "greedy": "solve_greedy",
}


def _dims(inst) -> tuple[int, int, int]:
    rows = inst.utilities
    return len(inst.costs), len(rows), sum(map(sum, rows))


def _work_ib(inst, *_):
    m, _n, u = _dims(inst)
    return m * (u + 1)


def _work_sp(inst, *_):
    m, _n, u = _dims(inst)
    return m * (m + 1) // 2 * (u + 1)


def _work_ordered(inst, *_):
    m, n, u = _dims(inst)
    return m * n * (n + 1) // 2 * (u + 1)


def _work_xp(inst, *_):
    m = len(inst.costs)
    states = math.prod(1 + sum(row) for row in inst.utilities)
    return m * min(states, 2**m)


def _work_brute(inst, *_):
    return 2 ** len(inst.costs)


# Work counts are computed from the instance's dimensions, not measured:
# table cells (or DP steps) for the table routes, subsets for brute force.
WORK: dict[str, Callable] = {
    "ib_dp": _work_ib,
    "sp_dp": _work_sp,
    "ordered_table": _work_ordered,
    "xp_dp": _work_xp,
    "brute_force": _work_brute,
}

# (module, function, span name); spans with the same name are summed.
TARGETS: list[tuple[str, str, str]] = [
    ("cli", "main", "cli"),
    ("documents", "parse_instance", "parse"),
    ("documents", "parse_order", "parse"),
    ("documents", "emit_instance", "emit"),
    ("documents", "emit_solution", "emit"),
    ("documents", "emit_evaluation", "emit"),
    ("documents", "emit_reduction_metadata", "emit"),
    ("core", "validate_instance", "validate"),
    ("core", "evaluate", "evaluate"),
    ("domains", "recognize_single_peaked", "sp"),
    ("domains", "recognize_single_crossing", "sc"),
    ("solvers", "solve_auto", "auto"),
    *(("solvers", fn, route) for route, fn in ROUTES.items()),
    *(("reductions", fn, "generate") for fn in (
        "from_knapsack", "from_partition", "from_exact_partition", "from_ersp",
        "from_dominating_set", "from_multicolored_clique", "from_x3c")),
]

# Counted but not given a span, so that their time stays in the caller's
# self time (the recognizers spend most of theirs here).
COUNTED: list[tuple[str, str, str]] = [("domains", "c1p_order", "c1p")]


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.request: object = None
        self.absent: list[str] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span index, start, child time]
        self._patched: list[tuple[object, str, Callable]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "knapvote" or name.startswith("knapvote.")]
        for module, fn, span in TARGETS + COUNTED:
            home = sys.modules.get(f"knapvote.{module}")
            original = getattr(home, fn, None) if home is not None else None
            if not callable(original):
                self.absent.append(f"{module}.{fn}")
                continue
            wrapper = (self._span_wrapper(original, span) if (module, fn, span) in TARGETS
                       else self._count_wrapper(original, span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, original: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.request))
            frame = [index, time.perf_counter(), 0.0]
            stack.append(frame)
            outcome = "ok"
            try:
                result = original(*args, **kwargs)
            except Exception as e:
                outcome = "guardrail" if type(e).__name__ == "GuardrailError" else "error"
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                tracer.spans[index] = (name, frame[1], end, parent, tracer.request)
                tracer._close(name, duration - frame[2], outcome, parent, args)
            tracer._result(name, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _count_wrapper(self, original: Callable, name: str) -> Callable:
        tracer = self

        def counted(num_cols, rows):
            rows = list(rows)
            tracer.count[f"{name}.calls"] += 1
            tracer.count[f"{name}.rows"] += len(rows)
            return original(num_cols, rows)

        counted.__wrapped__ = original
        return counted

    def _close(self, name: str, self_time: float, outcome: str, parent: int, args) -> None:
        self.self_s[name] += self_time
        self.count[f"{name}.calls"] += 1
        parent_name = self.spans[parent][0] if parent >= 0 else None
        if name in ROUTES and parent_name == "auto":
            self.count["auto.routes_tried"] += 1
        if outcome == "guardrail":
            self.count[f"{name}.guardrail_trips"] += 1
        if outcome != "ok":
            return
        if name == "ordered_table" and parent_name == "fpt":
            self.count["fpt.orders"] += 1
        work = WORK.get(name)
        if work is not None and args:
            self.count[f"{name}.work"] += work(*args)

    def _result(self, name: str, result) -> None:
        if name in ("sp", "sc") and result is not None:
            self.count[f"{name}.found"] += 1
        elif name == "emit" and isinstance(result, str):
            self.count["emit.bytes"] += len(result.encode())

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals since the tracer was created, by metric name."""
        ms = {k: v * 1e3 for k, v in self.self_s.items()}
        c = self.count

        def ratio(a: str, b: str) -> float:
            return c[a] / c[b] if c[b] else 0.0

        out = {
            "cli.self_ms": ms.get("cli", 0.0),
            "documents.parse_ms": ms.get("parse", 0.0),
            "documents.emit_ms": ms.get("emit", 0.0),
            "documents.out_bytes": c["emit.bytes"],
            "core.validate_calls": c["validate.calls"],
            "core.validate_ms": ms.get("validate", 0.0),
            "core.evaluate_calls": c["evaluate.calls"],
            "core.evaluate_ms": ms.get("evaluate", 0.0),
            "domains.sp_ms": ms.get("sp", 0.0),
            "domains.sc_ms": ms.get("sc", 0.0),
            "domains.c1p_calls": c["c1p.calls"],
            "domains.c1p_rows": c["c1p.rows"],
            "domains.sp_found_ratio": ratio("sp.found", "sp.calls"),
            "domains.sc_found_ratio": ratio("sc.found", "sc.calls"),
        }
        for route in ROUTES:
            out[f"solvers.{route}.calls"] = c[f"{route}.calls"]
            out[f"solvers.{route}.self_ms"] = ms.get(route, 0.0)
            out[f"solvers.{route}.guardrail_trips"] = c[f"{route}.guardrail_trips"]
            if route in WORK:
                out[f"solvers.{route}.work"] = c[f"{route}.work"]
        out["solvers.fpt.orders"] = c["fpt.orders"]
        out["solvers.auto.self_ms"] = ms.get("auto", 0.0)
        out["solvers.auto.routes_tried"] = c["auto.routes_tried"]
        out["solvers.auto.useful_ratio"] = ratio("auto.calls", "auto.routes_tried")
        out["reductions.generate_ms"] = ms.get("generate", 0.0)
        return out


def span_records(tracer: Tracer):
    """Spans as dicts for writing out, times in microseconds from the first."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    for i, (name, start, end, parent, request) in enumerate(tracer.spans):
        yield {"id": i, "name": name, "start_us": round((start - t0) * 1e6, 1),
               "end_us": round((end - t0) * 1e6, 1), "parent": parent, "request": request}
