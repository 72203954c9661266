#!/usr/bin/env python3
"""Benchmark of the starforest solvers.

One process runs one workload with one closed-loop client: the next solve
starts when the previous answer is back, so one solve is in flight.  A solve
is one request as a user sends it: the instance text (as written by
``graph.serialize_instance``) goes through ``graph.parse_instance`` and the
workload's solver call(s), and the clock stops when the answer is back.

    python3 perfbench/run.py --workload planar_tw --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--workload all`` runs every workload in a process of its own and prints
one table.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same requests twice, untraced and then traced, and
reports the per-layer metrics (see tracing.py).  Every answer is checked
against a reference route after the timed region; the last line of standard
output is one JSON object.  The exit code is 1 when any answer was wrong and
2 when the program's sources are missing.  The design, the layer map and the findings are in perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("planar_tw", "vc_guess", "cc_catalog", "decide_h")
SETUP_REPEATS = 5
MIN_SOLVES = 100  # solve_ms_p90 needs at least 10 samples above it
CALIBRATE_EVERY_S = 0.05  # the machine's speed steps last seconds; 3% overhead
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import calibrate; "
    "before = calibrate.probe(); t = time.perf_counter(); import starforest.cli; "
    "took = time.perf_counter() - t; print(took, before, calibrate.probe())"
)


def _nominal(seconds: float, probe_before: float, probe_after: float) -> float:
    """Wall seconds converted to seconds at the nominal speed (calibrate.py)."""
    return seconds * calibrate.NOMINAL_PROBE_S * 2 / (probe_before + probe_after)


def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter, at nominal speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(BENCH_DIR)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    took, before, after = map(float, done.stdout.split())
    return _nominal(took, before, after)


def build_requests(wl, seed: int):
    """Generate, reference-target and serialize the pool; time set-up.

    Set-up is repeated and its median reported.  Reference answers that the
    requests need up front (the targets of decide_h) are computed once and
    are not part of set-up time.
    """
    from starforest import graph

    import_s = statistics.median(_import_seconds() for _ in range(SETUP_REPEATS))
    build_s = []
    digests = set()
    targets = None
    for _ in range(SETUP_REPEATS):
        probe_before = calibrate.probe()
        start = time.perf_counter()
        pairs = wl.pool(seed)
        generated = time.perf_counter()
        if targets is None:
            memos = [{} for _ in pairs]
            targets = [wl.queries(pair, memo) for pair, memo in zip(pairs, memos)]
            reference_s = time.perf_counter() - generated
        serialize_start = time.perf_counter()
        texts = [
            graph.serialize_instance(graph.Instance(pair.g1, pair.g2, h))
            for pair, hs in zip(pairs, targets)
            for h in hs
        ]
        took = generated - start + time.perf_counter() - serialize_start
        build_s.append(_nominal(took, probe_before, calibrate.probe()))
        digests.add(pool_digest(texts))
    if len(digests) != 1:
        raise RuntimeError("the same seed produced different pools")
    from workloads import Request

    requests, req_memos = [], []
    for pair, memo, hs in zip(pairs, memos, targets):
        for h in hs:
            requests.append(Request(pair, h, texts[len(requests)]))
            req_memos.append(memo)
    return requests, req_memos, {
        "setup_s": import_s + statistics.median(build_s),
        "import_s": import_s,
        "build_s": statistics.median(build_s),
        "reference_setup_s": reference_s,
        "digest": digests.pop(),
        "round_size": len(requests) // wl.rounds,
    }


def pool_digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


@dataclass
class Loop:
    latencies: list[float]  # wall seconds per solve
    nominal: list[float]  # the same at the nominal speed (calibrate.py)
    outcomes: list[tuple]  # (pool index, answer, error) per solve
    wall: float


def run_loop(wl, requests, round_size, seconds=None, count=None, tracer=None) -> Loop:
    """Closed loop over the pool: until ``count`` solves, or until ``seconds``
    have passed and a round is complete, so every run holds whole rounds.

    The speed probe runs between solves every CALIBRATE_EVERY_S; each solve
    is converted to nominal speed with the mean of the probes around it.
    """
    latencies, outcomes = [], []
    marks = [(0, calibrate.probe())]  # (solves done, probe seconds)
    solve = wl.solve
    start = last_mark = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % round_size == 0 and time.perf_counter() - start >= seconds:
            break
        idx = i % len(requests)
        text = requests[idx].text
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = solve(text)
            else:
                with tracer.solve(i):
                    answer = solve(text)
            error = None
        except Exception as exc:  # a failed solve is counted, never re-drawn
            answer, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outcomes.append((idx, answer, error))
        i += 1
        if t1 - last_mark >= CALIBRATE_EVERY_S:
            marks.append((i, calibrate.probe()))
            last_mark = time.perf_counter()
    wall = time.perf_counter() - start
    if marks[-1][0] != i:
        marks.append((i, calibrate.probe()))
    nominal = []
    for (lo, before), (hi, after) in zip(marks, marks[1:]):
        nominal.extend(_nominal(t, before, after) for t in latencies[lo:hi])
    return Loop(latencies, nominal, outcomes, wall)


def _rate(loop: Loop, round_size: int) -> float:
    """Solves per second at nominal speed, from the median round.

    Every round holds the same mix of families, so the median round is a
    rate that a few slow instances or a burst of load cannot drag.
    """
    rounds = [sum(loop.nominal[i:i + round_size])
              for i in range(0, len(loop.nominal), round_size)]
    return round_size / statistics.median(rounds)


def check_outcomes(wl, requests, memos, outcomes):
    """(failed, wrong, first problems) over all outcomes, in solve order."""
    from workloads import CheckFailed

    failed = wrong = 0
    problems = []
    for idx, answer, error in outcomes:
        if error is not None:
            failed += 1
            problem = f"failed: {error}"
        else:
            try:
                problem = wl.check(requests[idx], answer, memos[idx])
            except CheckFailed as exc:
                problem = str(exc)
            wrong += problem is not None
        if problem is not None and len(problems) < 5:
            problems.append(f"request {idx} ({requests[idx].pair.family}): {problem}")
    return failed, wrong, problems


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object and report lines."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    requests, memos, setup = build_requests(wl, seed)
    round_size = setup["round_size"]
    # the pool stays alive for the whole run; keep the collector from
    # rescanning it during every solve
    gc.collect()
    gc.freeze()
    lines = [
        f"workload {name}, seed {seed}: pool of {len(requests)} requests "
        f"({round_size} per round), digest {setup['digest']}",
        f"set-up: import {setup['import_s']:.4f} s + generation and serialization "
        f"{setup['build_s']:.4f} s (medians of {SETUP_REPEATS}); up-front reference "
        f"{setup['reference_setup_s']:.4f} s, not in setup_s",
    ]
    if not trace:
        loop = run_loop(wl, requests, round_size, seconds=seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes, solves = loop.outcomes, len(loop.outcomes)
        metrics = {
            "solve_ms_p50": (statistics.median(loop.nominal) * 1000, "ms"),
            "solve_ms_p90": (statistics.quantiles(loop.nominal, n=10)[8] * 1000, "ms"),
            "solves_per_s": (_rate(loop, round_size), "1/s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        lines.append(
            f"timed: {solves} solves in {loop.wall:.3f} s, closed loop, one client; "
            f"at wall-clock speed p50 {statistics.median(loop.latencies) * 1000:.4g} ms, "
            f"p90 {statistics.quantiles(loop.latencies, n=10)[8] * 1000:.4g} ms, "
            f"{solves / loop.wall:.4g} solves per s")
    else:
        from tracing import Tracer

        loop = run_loop(wl, requests, round_size, seconds=seconds / 2)
        solves = len(loop.outcomes)
        tracer = Tracer()
        with tracer.installed():
            traced = run_loop(wl, requests, round_size, count=solves, tracer=tracer)
        outcomes = loop.outcomes + traced.outcomes
        metrics = tracer.layer_metrics(solves)
        metrics["tracing.solves_per_s"] = (_rate(traced, round_size), "1/s")
        metrics["tracing.overhead_solves_per_s"] = (
            _rate(traced, round_size) - _rate(loop, round_size), "1/s")
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        lines.append(
            f"untraced: {solves} solves in {loop.wall:.3f} s; traced replay of the same "
            f"{solves} in {traced.wall:.3f} s; {len(tracer.spans)} spans written to "
            f"{spans_path.relative_to(ROOT)} ({tracer.dropped_spans} beyond the cap)")
    gc.unfreeze()
    if not trace and solves < MIN_SOLVES:
        lines.append(f"warning: only {solves} solves, fewer than {MIN_SOLVES}")
    check_start = time.perf_counter()
    failed, wrong, problems = check_outcomes(wl, requests, memos, outcomes)
    attempted = len(outcomes)
    lines.append(f"checked {attempted} answers against the reference routes in "
                 f"{time.perf_counter() - check_start:.3f} s")
    lines.append(f"failed_ratio {failed / attempted:.6f} ratio ({failed} of {attempted})")
    lines.append(f"wrong_ratio {wrong / attempted:.6f} ratio ({wrong} of {attempted})")
    lines.extend(problems)
    return {
        "lines": lines,
        "result": {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def run_all(args) -> int:
    """Every workload in a process of its own, one table at the end."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else None
        rows.append((name, result))
    print()
    for name, result in rows:
        if result is None:
            print(f"{name}: no result")
            continue
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
                 if not args.trace or m["value"]]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "starforest" / "__init__.py").is_file():
        print(f"error: the starforest sources are missing ({SRC / 'starforest'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in run["lines"]:
        print(line)
    for key, metric in run["result"]["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
