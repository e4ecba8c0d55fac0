"""Command-line driver: scan, verify, sweep, and report.

Subcommands: ``gaps``, ``records``, ``verify``, ``sweep``, ``exceptions``,
``threshold``. Exit codes: 0 = success / conjecture verified, 1 = a
violation or failed record check was found (a finding, not a crash),
2 = usage or I/O error.

Option precedence is flags > environment > defaults; the recognized
environment variables are PGV_THREADS, PGV_SEGMENT_SIZE, and PGV_FORMAT.
All integers are rendered as exact decimals so 64-bit-scale values round
trip; output contains no timestamps, and identical invocations produce
byte-identical output regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from . import checkpoint as ckpt
from .conjectures import (
    ConjectureKind,
    GAP_KINDS,
    compute_exceptions,
    failure_threshold_after,
    order_of_magnitude,
)
from .gap_records import (
    RecordTable,
    TableParseError,
    TableValidationError,
    advance_scan,
    load_known_table,
    new_scan_state,
    render_table_csv,
    scan_records,
)
from .sieve import DEFAULT_SEGMENT_SIZE, RangeTooLargeError, iter_gap_arrays
from .verify import (
    DEFAULT_BRUTE_FLOOR,
    VerificationResult,
    direct_sweep,
    result_to_json_dict,
    verify_by_implication,
    verify_strong_andrica,
)

FORMATS = ("text", "json", "csv")

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _env(name: str) -> str | None:
    value = os.environ.get(name)
    return value if value else None


def _resolve_int(flag_value: int | None, env_name: str, default: int | None) -> int | None:
    if flag_value is not None:
        return flag_value
    raw = _env(env_name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{env_name}={raw!r} is not an integer") from None


def _resolve_format(flag_value: str | None) -> str:
    if flag_value is not None:
        return flag_value
    raw = _env("PGV_FORMAT")
    if raw is None:
        return "text"
    if raw not in FORMATS:
        raise UsageError(f"PGV_FORMAT={raw!r} must be one of {', '.join(FORMATS)}")
    return raw


def _kind(name: str) -> ConjectureKind:
    try:
        return ConjectureKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in ConjectureKind)
        raise UsageError(f"unknown conjecture {name!r}; choose from: {valid}") from None


def _out(text: str) -> None:
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Rendering.


def _render_table(table: RecordTable, fmt: str) -> str:
    if fmt == "csv":
        return render_table_csv(table)
    if fmt == "json":
        doc = {
            "records": [
                {"i": r.i, "g_star": r.g_star, "p_star": r.p_star} for r in table.records
            ],
            "coverage_bound": table.coverage_bound,
            "source": table.source,
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"{'i':>4} {'g_star':>8} {'p_star':>24}"]
    lines.extend(f"{r.i:>4} {r.g_star:>8} {r.p_star:>24}" for r in table.records)
    lines.append(f"coverage_bound {table.coverage_bound}")
    return "\n".join(lines) + "\n"


def _render_result_text(result: VerificationResult) -> str:
    bound_desc = (
        f"primes p < {result.verified_up_to}"
        if result.bound_kind == "primes"
        else f"integers m <= {result.max_verified}"
    )
    lines = [
        f"conjecture: {result.kind.value}"
        + (f" (c={result.weak_c})" if result.weak_c is not None else ""),
        f"holds: {'yes' if result.holds else 'NO'}",
        f"verified up to: {result.verified_up_to} ({bound_desc})",
        "exceptions: "
        + (" ".join(str(p) for p in result.exceptions) if result.exceptions else "none"),
    ]
    if result.new_violations:
        lines.append(
            "NEW violations: " + " ".join(str(p) for p in result.new_violations)
        )
    if result.failed_record:
        fr = result.failed_record
        lines.append(
            f"FAILED record check: i={fr.i} g_star={fr.g_star} p_star={fr.p_star}"
        )
    lines.append(f"method: {result.method}")
    if result.implication_source:
        lines.append(f"implied from: {result.implication_source.value}")
    lines.append(f"provenance: {result.bound_provenance}")
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _render_result(result: VerificationResult, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result_to_json_dict(result), indent=2) + "\n"
    if fmt == "csv":
        doc = result_to_json_dict(result)
        lines = ["key,value"]
        for key, value in doc.items():
            if isinstance(value, list):
                value = ";".join(str(v) for v in value)
            elif isinstance(value, dict):
                value = ";".join(f"{k}={v}" for k, v in value.items())
            lines.append(f'{key},"{value}"' if "," in str(value) else f"{key},{value}")
        return "\n".join(lines) + "\n"
    return _render_result_text(result)


def _render_results(results: list[VerificationResult], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([result_to_json_dict(r) for r in results], indent=2) + "\n"
    return "\n".join(_render_result(r, fmt) for r in results)


# ---------------------------------------------------------------------------
# Subcommand implementations.


def _cmd_gaps(args) -> int:
    fmt = _resolve_format(args.format)
    threads = _resolve_int(args.threads, "PGV_THREADS", None)
    segment_size = _resolve_int(args.segment_size, "PGV_SEGMENT_SIZE", None)
    if args.hi <= args.lo:
        raise UsageError("--hi must exceed --lo")
    anchored = args.lo <= 2
    gaps = []
    if fmt == "csv":
        _out("p,g,index\n")
    n = 0
    for p_arr, g_arr in iter_gap_arrays(
        args.lo, args.hi, threads=threads, segment_size=segment_size
    ):
        for p, g in zip(p_arr.tolist(), g_arr.tolist()):
            n += 1
            idx = str(n) if anchored else ""
            if fmt == "json":
                gaps.append({"p": p, "g": g, "index": n if anchored else None})
            elif fmt == "csv":
                _out(f"{p},{g},{idx}\n")
            else:
                _out(f"{p} {g}" + (f" {idx}" if idx else "") + "\n")
    if fmt == "json":
        _out(json.dumps({"lo": args.lo, "hi": args.hi, "gaps": gaps}, indent=2) + "\n")
    return EXIT_OK


def _cmd_records(args) -> int:
    fmt = _resolve_format(args.format)
    threads = _resolve_int(args.threads, "PGV_THREADS", None)
    segment_size = _resolve_int(args.segment_size, "PGV_SEGMENT_SIZE", None) or DEFAULT_SEGMENT_SIZE
    if args.stop_after_segments is not None and not args.checkpoint:
        raise UsageError("--stop-after-segments requires --checkpoint")
    ckpt_path = Path(args.checkpoint) if args.checkpoint else None
    if ckpt_path is not None and ckpt_path.exists():
        state = ckpt.load_checkpoint(ckpt_path, limit=args.limit, segment_size=segment_size)
    else:
        state = new_scan_state(args.limit, segment_size=segment_size)
    # Ctrl-C only raises a flag; the scan stops at the next segment boundary.
    interrupted: list[int] = []
    previous = signal.signal(signal.SIGINT, lambda signum, frame: interrupted.append(signum))
    try:
        advance_scan(
            state,
            threads=threads,
            max_segments=args.stop_after_segments,
            should_stop=lambda: bool(interrupted),
            on_segment=None if ckpt_path is None else (lambda st: ckpt.save_checkpoint(ckpt_path, st)),
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    if not state.done:
        saved = f"; checkpoint saved to {ckpt_path}" if ckpt_path else ""
        print(f"scan stopped at {state.next_lo} of {state.limit}{saved}", file=sys.stderr)
        return 130 if interrupted else EXIT_OK
    _out(_render_table(state.as_table(), fmt))
    return EXIT_OK


def _cmd_verify(args) -> int:
    fmt = _resolve_format(args.format)
    threads = _resolve_int(args.threads, "PGV_THREADS", None)
    segment_size = _resolve_int(args.segment_size, "PGV_SEGMENT_SIZE", None)
    kind = _kind(args.conjecture)
    if kind is ConjectureKind.WEAK_ANDRICA and args.c != 2:
        raise UsageError(
            "verify handles weak-andrica with c=2 (the chained form); "
            "use `sweep` for other constants"
        )
    if args.scan_limit is not None:
        table = scan_records(args.scan_limit, threads=threads, segment_size=segment_size)
    else:
        table = load_known_table(args.table)
    base = verify_strong_andrica(
        table, args.brute_floor, threads=threads, segment_size=segment_size
    )
    shown: list[VerificationResult]
    if kind is ConjectureKind.STRONG_ANDRICA:
        shown = [base]
    else:
        derived = verify_by_implication(base)
        shown = [r for r in derived if r.kind is kind]
        if not shown:
            raise UsageError(f"no implication path yields {kind.value}")
    if args.implications:
        shown = [base] + verify_by_implication(base)
    _out(_render_results(shown, fmt) if len(shown) > 1 else _render_result(shown[0], fmt))
    return EXIT_OK if all(r.holds for r in shown) else EXIT_FINDING


def _cmd_sweep(args) -> int:
    fmt = _resolve_format(args.format)
    threads = _resolve_int(args.threads, "PGV_THREADS", None)
    segment_size = _resolve_int(args.segment_size, "PGV_SEGMENT_SIZE", None)
    kind = _kind(args.conjecture)
    result = direct_sweep(
        kind, args.limit, c=args.c, threads=threads, segment_size=segment_size
    )
    _out(_render_result(result, fmt))
    return EXIT_OK if result.holds else EXIT_FINDING


def _cmd_exceptions(args) -> int:
    fmt = _resolve_format(args.format)
    threads = _resolve_int(args.threads, "PGV_THREADS", None)
    segment_size = _resolve_int(args.segment_size, "PGV_SEGMENT_SIZE", None)
    kind = _kind(args.conjecture)
    if kind not in GAP_KINDS:
        raise UsageError(f"{kind.value} has no per-gap exception set")
    exc = compute_exceptions(
        kind, args.limit, c=args.c, threads=threads, segment_size=segment_size
    )
    if fmt == "json":
        doc = {
            "kind": kind.value,
            "limit": args.limit,
            "c": args.c if kind is ConjectureKind.WEAK_ANDRICA else None,
            "exceptions": list(exc),
        }
        _out(json.dumps(doc, indent=2) + "\n")
    elif fmt == "csv":
        _out("p\n" + "".join(f"{p}\n" for p in exc))
    else:
        shown = " ".join(str(p) for p in exc) if exc else "none"
        _out(f"{kind.value} violations below {args.limit}: {shown}\n")
    return EXIT_OK


def _cmd_threshold(args) -> int:
    fmt = _resolve_format(args.format)
    table = load_known_table(args.table)
    threshold = failure_threshold_after(table)
    last = table.last
    doc = {
        "record_count": len(table.records),
        "coverage_bound": table.coverage_bound,
        "last_record": {"i": last.i, "g_star": last.g_star, "p_star": last.p_star},
        "last_gap": last.g_star,
        "last_gap_order": order_of_magnitude(last.g_star),
        "threshold": threshold,
        "threshold_order": order_of_magnitude(threshold),
    }
    if fmt == "json":
        _out(json.dumps(doc, indent=2) + "\n")
    elif fmt == "csv":
        lines = ["key,value"]
        lines.extend(
            f"{k},{v}" for k, v in doc.items() if not isinstance(v, dict)
        )
        lines.extend(f"last_record_{k},{v}" for k, v in doc["last_record"].items())
        _out("\n".join(lines) + "\n")
    else:
        _out(
            f"records: {len(table.records)} (coverage {table.coverage_bound})\n"
            f"last record: i={last.i} g_star={last.g_star} p_star={last.p_star}\n"
            f"a gap breaking the strong Andrica bound at the next record must "
            f"exceed {threshold} (order {doc['threshold_order']})\n"
            f"the last record gap is {last.g_star} (order {doc['last_gap_order']})\n"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primegaps",
        description="Prime gap scanning, maximal gap records, and conjecture verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, threads=True):
        p.add_argument("--format", choices=FORMATS, default=None, help="output format")
        if threads:
            p.add_argument("--threads", type=int, default=None, help="worker processes")
            p.add_argument("--segment-size", type=int, default=None, help="numbers per sieve segment")

    p = sub.add_parser("gaps", help="list prime gaps with lower prime in [lo, hi)")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_gaps)

    p = sub.add_parser("records", help="scan maximal prime gap records below a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--checkpoint", default=None, help="checkpoint file; resumes if present")
    p.add_argument(
        "--stop-after-segments",
        type=int,
        default=None,
        help="stop after N segments (requires --checkpoint); resume later",
    )
    add_common(p)
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("verify", help="certify a conjecture from a record table")
    p.add_argument("--conjecture", required=True)
    p.add_argument("--table", default=None, help="record table CSV (default: packaged 80-record table)")
    p.add_argument("--scan-limit", type=int, default=None, help="scan a fresh table to this limit instead")
    p.add_argument("--brute-floor", type=int, default=DEFAULT_BRUTE_FLOOR)
    p.add_argument("--c", type=int, default=2, help="weak Andrica constant")
    p.add_argument("--implications", action="store_true", help="also print every chained result")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="brute-force check a conjecture, no table input")
    p.add_argument("--conjecture", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--c", type=int, default=2, help="weak Andrica constant")
    add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("exceptions", help="list the violators of a per-gap conjecture")
    p.add_argument("--conjecture", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--c", type=int, default=2, help="weak Andrica constant")
    add_common(p)
    p.set_defaults(func=_cmd_exceptions)

    p = sub.add_parser("threshold", help="gap width needed to break strong Andrica next")
    p.add_argument("--table", default=None, help="record table CSV (default: packaged)")
    add_common(p, threads=False)
    p.set_defaults(func=_cmd_threshold)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        TableParseError,
        TableValidationError,
        ckpt.CheckpointError,
        RangeTooLargeError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
