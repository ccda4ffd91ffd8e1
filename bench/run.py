#!/usr/bin/env python3
"""knapvote benchmark: seeded CLI workloads, timed from the outside.

Run from the repository root:

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each request is one in-process call to ``knapvote.cli.main`` (two for
``decide``: generate, then solve with the threshold), with stdout captured to
memory. One process, one thread, one client in a closed loop: the next
request starts when the previous one has returned. The deck of requests is
built from the seed and replayed in a fresh shuffled order per pass until the
time is up; latency percentiles and throughput come from complete passes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints per-layer metrics for one pass of the
deck (medians over traced passes) plus the tracing overhead. Every response
is checked after the timed window; the last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Results and an
environment record are also written to ``bench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import hashlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import oracle  # noqa: E402
from tracer import ROUTES, WORK, Tracer, span_records  # noqa: E402
from workloads import DECKS, Solve, build_deck  # noqa: E402

WORKLOADS = tuple(DECKS)
SETUP_REPEATS = 7

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "solves_per_s": "1/s",
    "success_rate": "ratio",
    "exact_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "cli.self_ms": "ms",
        "documents.parse_ms": "ms",
        "documents.emit_ms": "ms",
        "documents.out_bytes": "bytes",
        "core.validate_calls": "count",
        "core.validate_ms": "ms",
        "core.evaluate_calls": "count",
        "core.evaluate_ms": "ms",
        "domains.sp_ms": "ms",
        "domains.sc_ms": "ms",
        "domains.c1p_calls": "count",
        "domains.c1p_rows": "count",
        "domains.sp_found_ratio": "ratio",
        "domains.sc_found_ratio": "ratio",
    }
    for route in ROUTES:
        units[f"solvers.{route}.calls"] = "count"
        units[f"solvers.{route}.self_ms"] = "ms"
        units[f"solvers.{route}.guardrail_trips"] = "count"
        if route in WORK:
            units[f"solvers.{route}.work"] = (
                "leaves_computed" if route == "brute_force" else "cells_computed")
    units.update({
        "solvers.fpt.orders": "count",
        "solvers.auto.self_ms": "ms",
        "solvers.auto.routes_tried": "count",
        "solvers.auto.useful_ratio": "ratio",
        "reductions.generate_ms": "ms",
        "trace.overhead_pct": "%",
    })
    return units


# ---------------------------------------------------------------------------
# the program under test


def import_program():
    """knapvote.cli from this checkout's sources, never an installed copy.
    Requests look up ``cli.main`` on every call, so the tracer's rebinding
    applies to them."""
    if not os.path.isfile(os.path.join(SRC, "knapvote", "cli.py")):
        raise SystemExit(f"bench: no knapvote sources at {SRC}")
    sys.path.insert(0, SRC)
    from knapvote import cli

    if not os.path.abspath(cli.__file__).startswith(SRC):
        raise SystemExit("bench: knapvote was imported from outside this checkout")
    return cli


def prepare(workload: str, seed: int, directory: str, scale=None) -> list:
    os.makedirs(directory, exist_ok=True)
    deck = build_deck(workload, seed, scale)
    for index, req in enumerate(deck):
        req.write(directory, index)
    return deck


def setup_child(workload: str, seed: int, directory: str) -> None:
    """One full set-up in a fresh interpreter; prints "ready" when done."""
    import_program()
    prepare(workload, seed, directory)
    print("ready", flush=True)


def time_setups(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall time from spawning a fresh interpreter to its inputs being
    written, repeated: interpreter start, import, generation and writing."""
    times = []
    for rep in range(repeats):
        directory = os.path.join(OUT, f"setup-{os.getpid()}-{rep}")
        code = (f"import sys; sys.path.insert(0, {HERE!r}); import run; "
                f"run.setup_child({workload!r}, {seed}, {directory!r})")
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=120)
        shutil.rmtree(directory, ignore_errors=True)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def call(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects bad arguments this way
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def execute(cli, req) -> tuple:
    """One request: the (exit code, stdout) of each CLI call it makes."""
    if isinstance(req, Solve):
        return (call(cli, ["solve", "--objective", req.objective, "--method", "auto",
                            req.path]),)
    gen = call(cli, ["generate", "--reduction", req.reduction, "--params",
                      req.params_path, "--out", req.out_path])
    if gen[0] != 0:
        return (gen,)
    meta = json.loads(gen[1])
    return gen, call(cli, ["solve", "--objective", meta["objective"], "--method", "auto",
                            "--threshold", meta["threshold"], req.out_path])


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Replays the deck; remembers every distinct response per request."""

    def __init__(self, cli, deck: list, seed: int) -> None:
        self.cli = cli
        self.deck = deck
        self.seed = seed
        self.passes = 0
        self.attempted = 0
        self.responses: list[dict[tuple, int]] = [{} for _ in deck]

    def one_pass(self, deadline=None, tracer=None):
        """Latencies (s) of one pass in a fresh shuffled order, its wall time,
        and whether it completed before the deadline."""
        order = list(range(len(self.deck)))
        random.Random(f"{self.seed}:{self.passes}").shuffle(order)
        self.passes += 1
        latencies = []
        start = time.perf_counter()
        for i in order:
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            try:
                result = execute(self.cli, self.deck[i])
            except Exception as e:  # a crash is a failed request, not a stop
                result = (("raised", f"{type(e).__name__}: {e}"),)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            self.attempted += 1
            self.responses[i][result] = self.responses[i].get(result, 0) + 1
            if deadline is not None and t1 > deadline:
                break
        return latencies, time.perf_counter() - start, len(latencies) == len(order)


def run_untraced(loop: Loop, seconds: float):
    """Passes until the deadline; the first pass always completes. Returns
    every latency, and the request count and wall time of complete passes:
    throughput comes from those alone, because a cut pass holds a random
    part of the mix."""
    deadline = time.perf_counter() + seconds
    latencies, requests, busy = [], 0, 0.0
    while not latencies or time.perf_counter() < deadline:
        lat, wall, complete = loop.one_pass(deadline if latencies else None)
        latencies += lat
        if complete:
            requests += len(lat)
            busy += wall
    return latencies, requests, busy


def run_traced(loop: Loop, seconds: float, workload: str, seed: int):
    """Untraced and traced passes in pairs, while another pair fits in the
    time; at least one pair. Returns per-layer medians over traced passes,
    the overhead and the tracers' absent targets."""
    deadline = time.perf_counter() + seconds
    layers, overhead, absent = [], [], []
    while True:
        t0 = time.perf_counter()
        _, plain, _ = loop.one_pass()
        tracer = Tracer()
        with tracer:
            _, traced, _ = loop.one_pass(tracer=tracer)
        layers.append(tracer.metrics())
        overhead.append((traced / plain - 1.0) * 100.0)
        absent = tracer.absent
        if len(layers) == 1:
            write_spans(tracer, workload, seed)
        pair = time.perf_counter() - t0
        if time.perf_counter() + pair > deadline:
            break
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_pct"] = statistics.median(overhead)
    return metrics, absent, len(layers)


def write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for record in span_records(tracer):
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# checking and reporting


def judge(loop: Loop):
    """Check every distinct response. Returns (failed requests, reasons,
    share of the deck answered approximately, digest). The share weighs each
    deck entry once, so it does not depend on where the time cut a pass."""
    failed, approximate, reasons = 0, 0.0, {}
    digest = hashlib.sha256()
    for index, (req, responses) in enumerate(zip(loop.deck, loop.responses)):
        expected = functools.cache(
            functools.partial(oracle.optimum, req.inst, req.objective)
            if isinstance(req, Solve) else functools.partial(oracle.source_answer, req))
        entries = []
        for result, count in responses.items():
            bad, entry = oracle.check(req, result, expected)
            if bad is not None:
                failed += count
                reasons.setdefault(f"{req.label}: {bad}", index)
            if entry and entry[2]:
                approximate += count / sum(responses.values())
            entries.append(entry)
        digest.update(repr((index, sorted(entries, key=repr))).encode())
    return failed, reasons, approximate / len(loop.deck), digest.hexdigest()[:16]


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "commit": git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale=None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the report (see ``report_lines``)."""
    cli = import_program()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    try:
        deck = prepare(workload, seed, work, scale)
        loop = Loop(cli, deck, seed)
        report = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "deck": len(deck)}
        if trace:
            metrics, absent, pairs = run_traced(loop, seconds, workload, seed)
            report.update(absent=absent, traced_passes=pairs)
        else:
            latencies, requests, busy = run_untraced(loop, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            deciles = statistics.quantiles(latencies, n=10, method="inclusive")
            metrics = {
                "latency_p50_ms": deciles[4] * 1e3,
                "latency_p90_ms": deciles[8] * 1e3,
                "solves_per_s": requests / busy,
                "peak_rss_mb": peak_rss_mb,
            }
            report.update(samples=len(latencies),
                          beyond_p90=sum(x * 1e3 > metrics["latency_p90_ms"]
                                         for x in latencies))
        failed, reasons, approx_share, digest = judge(loop)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = loop.attempted
    if not trace:
        metrics["success_rate"] = 1 - failed / attempted
        metrics["exact_share"] = 1 - approx_share
        metrics["setup_s"] = statistics.median(time_setups(workload, seed, setup_repeats))
    report.update(
        attempted=attempted, failed=failed, passes=loop.passes,
        error_rate=failed / attempted, approx_share=approx_share,
        failures=reasons, digest=digest, metrics=metrics, env=environment(seed))
    return report


def result_line(report: dict) -> str:
    units = END_TO_END if not report["trace"] else per_layer_units()
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": report["metrics"][k], "unit": u} for k, u in units.items()},
    })


def report_lines(report: dict) -> list[str]:
    units = END_TO_END if not report["trace"] else per_layer_units()
    lines = [f"bench {report['workload']} seed={report['seed']} trace={report['trace']} "
             f"deck={report['deck']} passes={report['passes']}",
             "env " + json.dumps(report["env"])]
    if "samples" in report:
        lines.append(f"samples {report['samples']} requests, "
                     f"{report['beyond_p90']} beyond p90")
    for name, unit in units.items():
        lines.append(f"{name} {report['metrics'][name]:.6g} {unit}")
    lines.append(f"error_rate {report['error_rate']:.6g} ratio")
    lines.append(f"approx_share {report['approx_share']:.6g} ratio")
    for name in report.get("absent", []):
        lines.append(f"absent {name} (not in this version; its metrics read 0)")
    for reason in report["failures"]:
        lines.append(f"failure {reason}")
    lines.append(f"digest {report['workload']} {report['digest']} "
                 "(score, total_cost, approximate) per request")
    return lines


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print("\n".join(report_lines(report)))
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
