"""Self-test of the benchmark's answer checking: ``python3 perfbench/selftest.py``.

Feeds every checker a correct answer and corrupted ones, then runs the
benchmark's own accounting on a pass whose answer is corrupted, and shows
that the corruption raises the fail ratio and adds no time. Exits 0 when
every expectation holds. Takes a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import body
import checkers
from layers import run_cli


def _flip_last_digit(text: str) -> str:
    k = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]


def _write_checkpoint(path: Path, payload: dict) -> Path:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    path.write_text(json.dumps({"payload": payload, "sha256": digest}))
    return path


def checker_cases(workdir: Path):
    """(label, reason or None, whether a failure is expected)."""
    csv = checkers.expected_records_csv()
    payload = {"done": True, "limit": checkers.SCAN_LIMIT,
               "records": [list(r) for r in checkers.expected_records()]}
    good_ckpt = _write_checkpoint(workdir / "good.json", payload)
    unfinished = _write_checkpoint(workdir / "unfinished.json", {**payload, "done": False})
    tampered = workdir / "tampered.json"
    tampered.write_text(good_ckpt.read_text().replace("436273009", "436273019"))
    yield "scan: correct", checkers.check_scan(0, csv, good_ckpt), False
    yield "scan: one digit changed", checkers.check_scan(0, _flip_last_digit(csv), good_ckpt), True
    yield "scan: unfinished checkpoint", checkers.check_scan(0, csv, unfinished), True
    yield "scan: tampered checkpoint", checkers.check_scan(0, csv, tampered), True
    yield "scan: missing checkpoint", checkers.check_scan(0, csv, workdir / "none.json"), True

    sweep = json.dumps({"limit": checkers.SCAN_LIMIT, "exceptions": checkers.STRONG_ANDRICA_EXCEPTIONS})
    yield "sweep: correct", checkers.check_sweep(0, sweep), False
    yield "sweep: 113 dropped", checkers.check_sweep(0, sweep.replace(", 113", "")), True

    rc, out = run_cli(["verify", "--conjecture", "oppermann", "--format", "json"])
    yield "verify: correct", checkers.check_verify("oppermann", rc, out), False
    yield "verify: bound off by one", checkers.check_verify(
        "oppermann", rc, out.replace("4294967297", "4294967298")), True
    yield "verify: wrong exit code", checkers.check_verify("oppermann", 1, out), True

    lo, hi = 10**10, 10**10 + 4096
    rc, out = run_cli(["gaps", "--lo", str(lo), "--hi", str(hi), "--format", "csv"])
    lines = out.splitlines(keepends=True)
    p, g, _ = lines[5].split(",")
    merged = f"{p},{int(g) + int(lines[6].split(',')[1])},\n"
    yield "gaps: correct", checkers.check_gaps(lo, hi, rc, out), False
    yield "gaps: one row dropped", checkers.check_gaps(lo, hi, rc, "".join(lines[:5] + lines[6:])), True
    yield "gaps: two gaps merged", checkers.check_gaps(lo, hi, rc, "".join(lines[:5] + [merged] + lines[7:])), True
    yield "gaps: last row dropped", checkers.check_gaps(lo, hi, rc, "".join(lines[:-1])), True
    split = f"{p},1,\n{int(p) + 1},{int(g) - 1},\n"
    yield "gaps: composite endpoint", checkers.check_gaps(lo, hi, rc, "".join(lines[:5] + [split] + lines[6:])), True


def accounting_case():
    """A corrupted answer counts as failed and its time is left out."""
    op = body.Op(["exceptions"], checkers.check_sweep)
    good = json.dumps({"limit": checkers.SCAN_LIMIT, "exceptions": checkers.STRONG_ANDRICA_EXCEPTIONS})
    bad = good.replace("113", "127")
    passes = [{"wall": wall, "cpu": wall, "traced": False, "results": [(op, 0, out, wall)]}
              for wall, out in ((1.0, good), (1.2, good), (50.0, bad))]
    attempted, failures = body.check_passes(passes)
    metrics = body.end_to_end(passes)
    return attempted, failures, metrics


def main() -> int:
    ok = True
    work_root = checkers.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=work_root) as tmp:
        for label, reason, expect_failure in checker_cases(Path(tmp)):
            passed = (reason is not None) == expect_failure
            ok &= passed
            print(f"[{'ok' if passed else 'FAIL'}] {label}: {reason or 'accepted'}")
    attempted, failures, metrics = accounting_case()
    passed = (attempted, len(failures)) == (3, 1) and abs(metrics["wall_s"] - 1.1) < 1e-9 \
        and metrics["query_p90_ms"] < 1200
    ok &= passed
    print(f"[{'ok' if passed else 'FAIL'}] accounting: fail_ratio {len(failures)}/{attempted}, "
          f"wall_s {metrics['wall_s']:.3f} s, query_p90_ms {metrics['query_p90_ms']:.1f} ms")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
