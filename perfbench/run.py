"""primegaps benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {scan,sweep,query} [--seed N] \\
        [--seconds S] [--trace {0,1}]

Run from a checkout of the repository; nothing needs building or
installing, the package is imported from ``src/``. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the host facts, the run's fail ratio and, for a traced run, the
span summary. With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.

Each run works in its own directory under ``.perfbench_work/``, removed at
exit, so no scan resumes from another run's checkpoint. The workload itself
runs in a fresh child process (``body.py``) so that its peak RSS is its own;
``setup_s`` is the median of several fresh interpreters (``setup_probe.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
TIME_LIMIT_S = 175  # the whole run, set-up probes included


class BenchError(Exception):
    pass


def _child(args: list[str], env: dict, deadline: float) -> str:
    """Run a Python child in its own process group; its stdout on success."""
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        # Also ends pool workers left behind: they share the child's group.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise BenchError(f"{Path(args[0]).name} exited {proc.returncode}: {tail}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="primegaps benchmark")
    ap.add_argument("--workload", required=True, choices=("scan", "sweep", "query"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    # PGV_* variables would change CLI defaults; temp files stay in the run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PGV_")}
    env["TMPDIR"] = str(workdir)
    try:
        setup = [] if args.trace else [
            float(_child([str(HERE / "setup_probe.py")], env, deadline))
            for _ in range(SETUP_PROBES)
        ]
        body_out = _child(
            [str(HERE / "body.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", str(args.trace),
             "--workdir", str(workdir)],
            env, deadline,
        )
        body = json.loads(body_out.strip().splitlines()[-1])
    except (BenchError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = body["metrics"]
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        print(f"perfbench: measured {sorted(metrics)}, declared {sorted(names)}", file=sys.stderr)
        return 1
    report = body["report"]
    report["setup_samples_s"] = setup
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": body["failed"] == 0,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
