"""One run of one workload, in a fresh process started by ``run.py``.

Usage: ``python3 perfbench/body.py --workload W --seed N --seconds S
--trace 0|1 --workdir DIR``. Prints one JSON object as its last line.

A run repeats *passes* of the workload until the next pass would end after
``--seconds``. Every operation is one ``primegaps.cli.main`` call with its
stdout captured; its answer is checked after the timed passes, and a wrong
or raising operation counts as failed and contributes no time.

* ``scan``: one ``records --limit 10^9 --threads 2`` per pass, with a fresh
  checkpoint file in the run's own directory.
* ``sweep``: one ``exceptions --conjecture strong-andrica --limit 10^9
  --threads 2`` per pass.
* ``query``: a closed loop with one client. A pass is a round of 50 queries
  in seeded order: 40 ``gaps`` windows of width 4096 whose lower ends are
  log-uniform in [10^10, 10^14), one in each of 40 equal log slices so that
  the latency quantiles do not hinge on a few draws, and 10 ``verify``
  queries covering all 8 kinds ``verify`` accepts.

With ``--trace 1`` odd passes run with spans around every cross-module
call, even passes without; the difference of their median wall times is
the tracing overhead. The per-layer measurements of ``layers.py`` follow,
and every span is written to ``.perfbench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import multiprocessing
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from primegaps import sieve  # noqa: E402

import checkers  # noqa: E402
from layers import Layers, boundaries, run_cli  # noqa: E402
from tracing import Tracer  # noqa: E402

LIMIT = str(checkers.SCAN_LIMIT)
QUERY_GAPS, QUERY_VERIFY, QUERY_WIDTH = 40, 10, 4096
QUERY_LO_EXP, QUERY_HI_EXP = 10, 14
LAYER_WINDOWS = 10  # query windows sampled by the per-layer measurements


class Op(NamedTuple):
    argv: list[str]
    check: Callable[[int, str], str | None]


def scan_pass(workdir: Path, index: int, rng: random.Random) -> list[Op]:
    path = workdir / f"scan-{index}.ckpt.json"
    argv = ["records", "--limit", LIMIT, "--threads", "2", "--format", "csv",
            "--checkpoint", str(path)]
    return [Op(argv, functools.partial(checkers.check_scan, checkpoint=path))]


def sweep_pass(workdir: Path, index: int, rng: random.Random) -> list[Op]:
    argv = ["exceptions", "--conjecture", "strong-andrica", "--limit", LIMIT,
            "--threads", "2", "--format", "json"]
    return [Op(argv, checkers.check_sweep)]


def query_windows(rng: random.Random) -> list[tuple[int, int]]:
    """One window per equal slice of log10(lo) over [10^10, 10^14)."""
    span = QUERY_HI_EXP - QUERY_LO_EXP
    out = []
    for k in range(QUERY_GAPS):
        lo = int(10 ** (QUERY_LO_EXP + span * (k + rng.random()) / QUERY_GAPS))
        lo = min(lo, 10**QUERY_HI_EXP - 1)
        out.append((lo, lo + QUERY_WIDTH))
    return out


def query_pass(workdir: Path, index: int, rng: random.Random) -> list[Op]:
    ops = [
        Op(["gaps", "--lo", str(lo), "--hi", str(hi), "--format", "csv"],
           functools.partial(checkers.check_gaps, lo, hi))
        for lo, hi in query_windows(rng)
    ]
    kinds = list(checkers.VERIFY_CLAIMS)
    kinds += rng.sample(kinds, QUERY_VERIFY - len(kinds))
    ops += [
        Op(["verify", "--conjecture", kind, "--format", "json"],
           functools.partial(checkers.check_verify, kind))
        for kind in kinds
    ]
    rng.shuffle(ops)
    return ops


# name -> (pass builder, fewest passes per run)
WORKLOADS = {"scan": (scan_pass, 3), "sweep": (sweep_pass, 3), "query": (query_pass, 2)}


def _cpu_s() -> float:
    """User plus system seconds of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _call(argv: list[str]) -> tuple[int | None, str]:
    try:
        return run_cli(argv)
    except Exception:  # a raising operation is a failed one; keep measuring
        return None, traceback.format_exc(limit=1).strip().splitlines()[-1]


def run_passes(workload, seconds, workdir, rng, tracer):
    make_pass, fewest = WORKLOADS[workload]
    if tracer is not None:
        fewest = max(fewest, 4)  # at least two traced and two untraced passes
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        ops = make_pass(workdir, len(passes), rng)
        results = []
        patch = tracer.patched(boundaries()) if traced else contextlib.nullcontext()
        span = tracer.span("pass", workload=workload) if traced else contextlib.nullcontext()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        with patch, span:
            for op in ops:
                op_span = tracer.span("cli.main", argv=" ".join(op.argv)) if traced \
                    else contextlib.nullcontext()
                s = time.perf_counter()
                with op_span:
                    rc, out = _call(op.argv)
                results.append((op, rc, out, time.perf_counter() - s))
        passes.append({"wall": time.perf_counter() - t0, "cpu": _cpu_s() - cpu0,
                       "traced": traced, "results": results})
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= fewest and elapsed + typical > seconds:
            return passes


def check_passes(passes) -> tuple[int, list[str]]:
    """Check every answer; mark each pass ``ok`` and keep good latencies."""
    attempted, failures = 0, []
    for p in passes:
        p["latencies"] = []
        for op, rc, out, latency in p["results"]:
            attempted += 1
            reason = out if rc is None else op.check(rc, out)
            if reason:
                failures.append(reason)
            else:
                p["latencies"].append(latency)
        p["ok"] = len(p["latencies"]) == len(p["results"])
    return attempted, failures


def end_to_end(passes) -> dict[str, float]:
    measured = [p for p in passes if p["ok"]] or passes
    latencies = [x for p in measured for x in p["latencies"]] or \
        [r[3] for p in measured for r in p["results"]]
    if len(latencies) == 1:
        latencies = latencies * 2
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(p["wall"] for p in measured),
        "cpu_s": statistics.median(p["cpu"] for p in measured),
        "peak_rss_mib": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024,
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p90_ms": deciles[-1] * 1e3,
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_facts(args) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(),
        "default_segment_size": sieve.DEFAULT_SEGMENT_SIZE,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    rng = random.Random(args.seed)
    passes = run_passes(args.workload, args.seconds, args.workdir, rng, tracer)
    attempted, failures = check_passes(passes)
    report = {
        "host": host_facts(args),
        "passes": len(passes),
        "operations": sum(len(p["results"]) for p in passes),
        "pass_wall_s": [p["wall"] for p in passes],
    }
    if tracer is None:
        metrics = end_to_end(passes)
    else:
        walls = {traced: statistics.median(p["wall"] for p in passes if p["traced"] is traced)
                 for traced in (False, True)}
        report["untraced_wall_s"], report["traced_wall_s"] = walls[False], walls[True]
        windows = sorted(query_windows(random.Random(args.seed)))
        layers = Layers(tracer, windows[:: len(windows) // LAYER_WINDOWS], args.workdir)
        metrics = layers.measure()
        metrics["trace.overhead_s"] = walls[True] - walls[False]
        attempted += layers.attempted
        failures += layers.failures
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        report["span_summary"] = tracer.summary()
        trace_file.write_text(json.dumps(
            {"host": report["host"], "summary": report["span_summary"], "spans": tracer.spans}))
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    report["fail_ratio"] = len(failures) / attempted
    report["failures"] = failures[:5]
    print(json.dumps({"attempted": attempted, "failed": len(failures),
                      "metrics": metrics, "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
