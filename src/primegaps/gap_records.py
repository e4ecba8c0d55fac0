"""Maximal prime gap records: exhaustive discovery and table validation.

A maximal gap record is a gap strictly wider than every gap at smaller
primes; records are written as triples ``(i, g_star, p_star)`` where the
i-th record gap has width ``g_star`` and starts at the prime ``p_star``.

Two sources of record tables exist side by side: :func:`scan_records`
derives them exhaustively on the sieve's segment engine, where each worker
returns only its segment's strict prefix-maximum gaps, and
:func:`load_known_table` ingests the published record list shipped with
this package (exhaustive below 2**64), re-validating what can be checked at
desk scale: endpoint primality, strict monotonicity, and index contiguity.
:func:`cross_check` compares the two on their overlap.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .numerics import is_prime_64, next_prime
from .sieve import DEFAULT_SEGMENT_SIZE, stitch_segments

KNOWN_TABLE_RESOURCE = "maximal_gaps_80.csv"


class TableParseError(ValueError):
    """A record-table file is syntactically malformed."""


class TableValidationError(ValueError):
    """A parsed record table violates a table invariant."""


class MaximalGapRecord(NamedTuple):
    i: int
    g_star: int
    p_star: int


@dataclass(frozen=True)
class RecordTable:
    """An ordered run of maximal gap records plus its coverage bound.

    ``coverage_bound`` is the exclusive limit below which the table is known
    exhaustive: every maximal gap starting below it appears in ``records``.
    """

    records: tuple[MaximalGapRecord, ...]
    coverage_bound: int
    source: str = ""

    @property
    def last(self) -> MaximalGapRecord:
        return self.records[-1]

    def records_below(self, bound: int) -> tuple[MaximalGapRecord, ...]:
        return tuple(r for r in self.records if r.p_star < bound)


@dataclass(frozen=True)
class CrossCheckReport:
    """Outcome of comparing a scanned table against a reference table."""

    agreement_count: int
    scanned_total: int
    overlap_total: int
    first_mismatch: tuple[MaximalGapRecord | None, MaximalGapRecord | None] | None

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


def known_table_path() -> Path:
    """Filesystem path of the packaged record table."""
    return Path(str(resources.files("primegaps") / "data" / KNOWN_TABLE_RESOURCE))


def validate_table(table: RecordTable) -> None:
    """Raise :class:`TableValidationError` on the first violated invariant.

    Checks index contiguity (1, 2, ...), strict monotonicity of both the
    gap widths and the start primes, endpoint primality of every record,
    and that the coverage bound lies beyond the last record.
    """
    if not table.records:
        raise TableValidationError("table has no records")
    for pos, rec in enumerate(table.records):
        if rec.i != pos + 1:
            raise TableValidationError(
                f"record at position {pos}: index {rec.i} breaks contiguity "
                f"(expected {pos + 1})"
            )
        if pos and rec.g_star <= table.records[pos - 1].g_star:
            raise TableValidationError(
                f"record {rec.i}: gap {rec.g_star} does not exceed "
                f"previous record gap {table.records[pos - 1].g_star}"
            )
        if pos and rec.p_star <= table.records[pos - 1].p_star:
            raise TableValidationError(
                f"record {rec.i}: start {rec.p_star} does not exceed "
                f"previous record start {table.records[pos - 1].p_star}"
            )
    for rec in table.records:
        if not is_prime_64(rec.p_star):
            raise TableValidationError(f"record {rec.i}: start {rec.p_star} is not prime")
        if not is_prime_64(rec.p_star + rec.g_star):
            raise TableValidationError(
                f"record {rec.i}: end {rec.p_star + rec.g_star} is not prime"
            )
    if table.coverage_bound <= table.last.p_star:
        raise TableValidationError(
            f"coverage_bound {table.coverage_bound} does not exceed the last "
            f"record start {table.last.p_star}"
        )


def verify_gap_interiors(table: RecordTable) -> None:
    """Check that no prime sits strictly inside any record gap.

    Separate from :func:`validate_table` because it is quadratically more
    work (every odd interior point gets a primality test); tests and
    paranoid callers opt in.
    """
    for rec in table.records:
        q = next_prime(rec.p_star)
        if q < rec.p_star + rec.g_star:
            raise TableValidationError(f"record {rec.i}: interior point {q} is prime")


# ---------------------------------------------------------------------------
# CSV format: rows `i,g_star,p_star`, optional header, '#' comments ignored,
# one trailing metadata line `coverage_bound,<value>`. UTF-8, LF endings,
# plain decimal integers.


def parse_table_csv(text: str, source: str = "") -> RecordTable:
    records: list[MaximalGapRecord] = []
    coverage: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if coverage is not None:
            raise TableParseError(f"line {lineno}: content after coverage_bound line")
        if len(fields) == 2:
            if fields[0] != "coverage_bound":
                raise TableParseError(
                    f"line {lineno}: expected 'coverage_bound,<value>', got {line!r}"
                )
            try:
                coverage = int(fields[1])
            except ValueError:
                raise TableParseError(
                    f"line {lineno}: coverage_bound value {fields[1]!r} is not an integer"
                ) from None
            continue
        if len(fields) != 3:
            raise TableParseError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            rec = MaximalGapRecord(int(fields[0]), int(fields[1]), int(fields[2]))
        except ValueError:
            if not records and fields[0].lower() == "i":
                continue  # optional header row
            raise TableParseError(f"line {lineno}: non-integer record field in {line!r}") from None
        records.append(rec)
    if coverage is None:
        raise TableParseError("missing trailing 'coverage_bound,<value>' line")
    return RecordTable(tuple(records), coverage, source)


def render_table_csv(table: RecordTable) -> str:
    lines = ["i,g_star,p_star"]
    lines.extend(f"{r.i},{r.g_star},{r.p_star}" for r in table.records)
    lines.append(f"coverage_bound,{table.coverage_bound}")
    return "\n".join(lines) + "\n"


def load_known_table(path: str | Path | None = None) -> RecordTable:
    """Load and fully validate a record-table CSV.

    With no path, loads the packaged table of all 80 known maximal gap
    records, exhaustive below coverage_bound = 2**64.
    """
    p = Path(path) if path is not None else known_table_path()
    table = parse_table_csv(p.read_text(encoding="utf-8"), source=str(p))
    validate_table(table)
    return table


def cross_check(scanned: RecordTable, known: RecordTable) -> CrossCheckReport:
    """Compare a scanned table against a reference on their overlap.

    The overlap is every reference record starting below the scanned
    coverage bound; exact equality is required there. Mismatches are report
    content, not exceptions.
    """
    if scanned.coverage_bound > known.coverage_bound:
        raise ValueError(
            "scanned table covers more than the reference; swap the arguments"
        )
    overlap = known.records_below(scanned.coverage_bound)
    agreement = 0
    for a, b in zip(scanned.records, overlap):
        if a != b:
            break
        agreement += 1
    mismatch = None
    if agreement < max(len(scanned.records), len(overlap)):
        mismatch = (
            scanned.records[agreement] if agreement < len(scanned.records) else None,
            overlap[agreement] if agreement < len(overlap) else None,
        )
    return CrossCheckReport(
        agreement_count=agreement,
        scanned_total=len(scanned.records),
        overlap_total=len(overlap),
        first_mismatch=mismatch,
    )


# ---------------------------------------------------------------------------
# Exhaustive scan. The scan keeps explicit, serializable state so a long run
# can checkpoint at segment boundaries and resume to a byte-identical result.
# A record is wider than every earlier gap, those of its own segment
# included, so the workers' candidates hold every record inside a segment.


@dataclass
class RecordScanState:
    """Running state of a record scan; everything needed to resume."""

    limit: int
    segment_size: int
    next_lo: int
    carry_prime: int | None = None
    best_gap: int = 0
    records: list[MaximalGapRecord] = field(default_factory=list)
    done: bool = False

    def as_table(self, source: str | None = None) -> RecordTable:
        if not self.done:
            raise ValueError("scan is not finished; advance it to completion first")
        return RecordTable(
            tuple(self.records),
            coverage_bound=self.limit,
            source=source if source is not None else f"scan to {self.limit}",
        )


def new_scan_state(limit: int, *, segment_size: int | None = None) -> RecordScanState:
    if limit < 3:
        raise ValueError("record scan needs limit >= 3")
    return RecordScanState(
        limit=limit,
        segment_size=segment_size or DEFAULT_SEGMENT_SIZE,
        next_lo=2,
    )


def _record_candidates(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The segment's strict prefix-maximum gaps as ``(p, g)`` arrays (worker side)."""
    gaps = np.diff(primes)
    keep = np.ones(len(gaps), dtype=bool)
    np.greater(gaps[1:], np.maximum.accumulate(gaps)[:-1], out=keep[1:])
    return primes[:-1][keep], gaps[keep]


def advance_scan(
    state: RecordScanState,
    *,
    threads: int | None = 1,
    max_segments: int | None = None,
    should_stop: Callable[[], bool] | None = None,
    on_segment: Callable[[RecordScanState], None] | None = None,
) -> RecordScanState:
    """Process segments from ``state.next_lo``, mutating ``state`` in place.

    Stops early after ``max_segments`` segments or when ``should_stop()``
    turns true (both checked at segment boundaries, the only points where
    the state is consistent). ``on_segment`` runs after each absorbed
    segment and once more when the scan completes; checkpointing hooks in
    there.
    """
    if state.done:
        return state
    steps = stitch_segments(state.next_lo, state.limit, _record_candidates,
                            carry=state.carry_prime, segment_size=state.segment_size,
                            threads=threads)
    with closing(steps):
        for processed, (gap, seg, carry) in enumerate(steps, start=1):
            candidates = [] if gap is None else [gap]
            if seg is not None:
                candidates += zip(*(a.tolist() for a in seg.payload))
                state.next_lo = seg.hi
            for p, g in candidates:
                if g > state.best_gap:
                    state.records.append(MaximalGapRecord(len(state.records) + 1, g, p))
                    state.best_gap = g
            state.carry_prime, state.done = carry, seg is None
            if on_segment is not None:
                on_segment(state)
            stop = should_stop is not None and should_stop()
            if state.done or stop or (max_segments is not None and processed >= max_segments):
                break
    return state


def scan_records(
    limit: int,
    *,
    threads: int | None = 1,
    segment_size: int | None = None,
) -> RecordTable:
    """Every maximal gap record with ``p_star < limit``, by exhaustive scan.

    Running-maximum semantics: the first gap of each new maximal width is a
    record, so the table always starts (1, 1, 2); a gap merely equal to the
    current maximum is not a new record.
    """
    state = advance_scan(new_scan_state(limit, segment_size=segment_size), threads=threads)
    return state.as_table()
