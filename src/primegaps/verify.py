"""Range certification engines for the gap and interval conjectures.

Three certification methods, each producing a :class:`VerificationResult`:

* ``brute_force``  — :func:`direct_sweep` checks every gap (or every m)
  below a limit, with no table input. Slow but assumption-free; this is the
  cross-check path for everything else.
* ``record_interval`` — :func:`verify_strong_andrica` certifies the strong
  Andrica inequality over the whole coverage of a maximal-gap record table
  by checking it only at record starts: between consecutive records every
  gap is at most the earlier record's width while sqrt(p) only grows, so a
  pass at the record start carries across its entire interval. Gaps below a
  small brute-force floor are checked directly, which is where the six
  known exceptions live.
* ``implication`` — :func:`verify_by_implication` propagates a strong
  Andrica certificate to the other conjectures: Oppermann holds for
  m <= isqrt(bound), Legendre (strong and standard) for the same m range,
  Brocard (strong and standard) for primes below isqrt(bound), and the
  standard/weak Andrica forms hold wherever the strong form does, with the
  finitely many strong-form exceptions re-checked directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .conjectures import (
    BROCARD_FIRST_P,
    BROCARD_KINDS,
    ConjectureKind,
    GAP_KINDS,
    INTEGER_KINDS,
    compute_exceptions,
    known_exceptions,
    legendre_count,
    oppermann_holds_at,
    standard_andrica_holds,
    strong_andrica_holds,
    weak_andrica_holds,
)
from .gap_records import MaximalGapRecord, RecordTable, validate_table
from .numerics import isqrt, next_prime
from .sieve import RangeTooLargeError, count_primes_in_bins, primes_in

METHOD_BRUTE_FORCE = "brute_force"
METHOD_RECORD_INTERVAL = "record_interval"
METHOD_IMPLICATION = "implication"

DEFAULT_BRUTE_FLOOR = 523  # start prime of record 7; floor of the direct checks

#: Total numbers a Brocard sweep may sieve before refusing.
DEFAULT_SWEEP_BUDGET = 1 << 34


@dataclass(frozen=True)
class VerificationResult:
    """A certified range for one conjecture, with its provenance.

    ``verified_up_to`` is always an exclusive bound: on lower primes p for
    the gap and Brocard conjectures (``bound_kind == "primes"``), on the
    integer m for Oppermann/Legendre (``bound_kind == "integers"``).
    ``exceptions`` lists every violator found inside the certified range
    (for gap conjectures these are lower primes, all below the brute-force
    floor; for interval conjectures they would be m values and are expected
    empty).
    """

    kind: ConjectureKind
    verified_up_to: int
    bound_kind: str
    exceptions: tuple[int, ...]
    method: str
    implication_source: ConjectureKind | None = None
    bound_provenance: str = ""
    weak_c: int | None = None
    failed_record: MaximalGapRecord | None = None
    notes: tuple[str, ...] = ()

    @property
    def max_verified(self) -> int:
        return self.verified_up_to - 1

    @property
    def new_violations(self) -> tuple[int, ...]:
        """Violators beyond the conjecture's own stated exception set."""
        conceded = set(known_exceptions(self.kind))
        return tuple(p for p in self.exceptions if p not in conceded)

    @property
    def holds(self) -> bool:
        """True when the conjecture, as stated, survived on the full range."""
        return not self.new_violations and self.failed_record is None

    def claims(self) -> tuple:
        """The certified content, independent of how it was obtained."""
        return (self.kind, self.bound_kind, self.verified_up_to, self.exceptions)


def result_to_json_dict(result: VerificationResult) -> dict:
    """Stable-order JSON mapping; all bounds as exact decimal integers."""
    return {
        "kind": result.kind.value,
        "bound_kind": result.bound_kind,
        "verified_up_to": result.verified_up_to,
        "max_verified": result.max_verified,
        "exceptions": list(result.exceptions),
        "new_violations": list(result.new_violations),
        "holds": result.holds,
        "method": result.method,
        "implication_source": (
            result.implication_source.value if result.implication_source else None
        ),
        "weak_c": result.weak_c,
        "failed_record": (
            {
                "i": result.failed_record.i,
                "g_star": result.failed_record.g_star,
                "p_star": result.failed_record.p_star,
            }
            if result.failed_record
            else None
        ),
        "bound_provenance": result.bound_provenance,
        "notes": list(result.notes),
    }


def result_to_json(result: VerificationResult) -> str:
    return json.dumps(result_to_json_dict(result), indent=2)


# ---------------------------------------------------------------------------
# Record-interval engine.


def verify_strong_andrica(
    table: RecordTable,
    brute_floor: int = DEFAULT_BRUTE_FLOOR,
    *,
    threads: int | None = 1,
    segment_size: int | None = None,
) -> VerificationResult:
    """Certify strong Andrica over the table's coverage.

    Every gap below ``brute_floor`` is checked directly (collecting the
    exception set); from the last record at or below the floor onward, the
    inequality is checked once per record start, which covers the whole
    interval up to the next record. A failing record does not raise: the
    result reports the largest verified prefix and the correspondingly
    smaller bound, with the offending record attached.
    """
    validate_table(table)
    if brute_floor > table.coverage_bound:
        raise ValueError(
            f"brute-force floor {brute_floor} exceeds the table coverage "
            f"{table.coverage_bound}"
        )
    anchor = None
    for pos, rec in enumerate(table.records):
        if rec.p_star <= brute_floor:
            anchor = pos
    if anchor is None:
        raise ValueError(
            f"no record starts at or below the brute-force floor {brute_floor}"
        )

    exceptions: tuple[int, ...] = ()
    if brute_floor >= 3:
        exceptions = compute_exceptions(
            ConjectureKind.STRONG_ANDRICA,
            brute_floor,
            threads=threads,
            segment_size=segment_size,
        )

    verified_up_to = table.coverage_bound
    failed: MaximalGapRecord | None = None
    for rec in table.records[anchor:]:
        if not strong_andrica_holds((rec.p_star, rec.g_star)):
            failed = rec
            verified_up_to = rec.p_star
            break

    first = table.records[anchor]
    provenance = (
        f"gaps below {brute_floor} checked directly; records "
        f"{first.i}..{table.last.i} checked at their start primes "
        f"({table.source or 'record table'}, exhaustive below "
        f"{table.coverage_bound})"
    )
    return VerificationResult(
        kind=ConjectureKind.STRONG_ANDRICA,
        verified_up_to=verified_up_to,
        bound_kind="primes",
        exceptions=exceptions,
        method=METHOD_RECORD_INTERVAL,
        bound_provenance=provenance,
        failed_record=failed,
    )


# ---------------------------------------------------------------------------
# Implication engine.


def _gap_at(p: int) -> tuple[int, int]:
    return (p, next_prime(p) - p)


def verify_by_implication(source: VerificationResult) -> list[VerificationResult]:
    """Propagate a strong Andrica certificate through the implication chain.

    Returns derived results in a fixed order: standard Andrica, weak
    Andrica (c=2), Oppermann, strong Legendre, standard Legendre, strong
    Brocard, standard Brocard. The direct base-case checks involved are
    all tiny windows, so this runs in microseconds regardless of the
    source bound.
    """
    if source.kind is not ConjectureKind.STRONG_ANDRICA:
        raise ValueError("implications start from a strong Andrica result")

    bound = source.verified_up_to
    m_max = isqrt(bound)
    src_desc = f"strong Andrica verified for primes below {bound}"

    def derived(kind, verified_up_to, bound_kind, provenance, exceptions=(), weak_c=None, notes=()):
        return VerificationResult(
            kind=kind,
            verified_up_to=verified_up_to,
            bound_kind=bound_kind,
            exceptions=tuple(exceptions),
            method=METHOD_IMPLICATION,
            implication_source=ConjectureKind.STRONG_ANDRICA,
            bound_provenance=provenance,
            weak_c=weak_c,
            notes=tuple(notes),
        )

    results: list[VerificationResult] = []

    # Standard and weak Andrica are weaker gap bounds, so they inherit the
    # full prime range; only the strong form's exceptions need re-checking.
    results.append(
        derived(
            ConjectureKind.STANDARD_ANDRICA,
            bound,
            "primes",
            f"{src_desc}; the standard bound 2*sqrt(p)+1 exceeds sqrt(p)+1/4, "
            "and the finitely many strong-form exceptions were re-checked directly",
            exceptions=(
                p for p in source.exceptions if not standard_andrica_holds(_gap_at(p))
            ),
        )
    )
    results.append(
        derived(
            ConjectureKind.WEAK_ANDRICA,
            bound,
            "primes",
            f"{src_desc}; the weak bound 2c*sqrt(p)+c^2 (c=2) exceeds sqrt(p)+1/4, "
            "and the finitely many strong-form exceptions were re-checked directly",
            exceptions=(
                p for p in source.exceptions if not weak_andrica_holds(_gap_at(p), 2)
            ),
            weak_c=2,
        )
    )

    # Oppermann: for m >= 12 the gap bound pins a prime inside each of
    # (m(m-1), m^2) and (m^2, m(m+1)), every exception prime being below
    # 113 < 12^2; the cases 2 <= m <= 11 are checked by direct computation.
    small_m_bad = [m for m in range(2, min(12, m_max + 1)) if not oppermann_holds_at(m)]
    results.append(
        derived(
            ConjectureKind.OPPERMANN,
            m_max + 1,
            "integers",
            f"{src_desc}: the gap bound pins a prime inside each flanking "
            f"interval for 12 <= m <= isqrt({bound}) = {m_max}; "
            "m in [2, 11] checked by direct computation",
            exceptions=small_m_bad,
            notes=(f"claims integers m with 2 <= m <= {m_max}",),
        )
    )

    # Legendre: (m^2, (m+1)^2) splits at the composite m(m+1) into the two
    # Oppermann intervals, so Oppermann's range carries over; m = 1 is the
    # direct base case (primes 2 and 3).
    legendre_exc = () if legendre_count(1) >= 2 else (1,)
    legendre_note = (f"claims integers m with 1 <= m <= {m_max}",)
    results.append(
        derived(
            ConjectureKind.STRONG_LEGENDRE,
            m_max + 1,
            "integers",
            f"Oppermann holds for m <= {m_max} (chained from the same source), "
            "and m(m+1) is composite for m >= 2, giving two primes in "
            "(m^2, (m+1)^2); m = 1 checked directly",
            exceptions=legendre_exc,
            notes=legendre_note,
        )
    )
    results.append(
        derived(
            ConjectureKind.STANDARD_LEGENDRE,
            m_max + 1,
            "integers",
            f"strong Legendre holds for m <= {m_max} (chained from the same "
            "source); one prime is immediate from two",
            exceptions=legendre_exc,
            notes=legendre_note,
        )
    )

    # Brocard: (p^2, (p+g)^2) splits into g Legendre windows, each holding
    # two primes, so the strong form (>= 2g primes) holds while the window
    # indices stay within Legendre's verified m range: primes below
    # isqrt(bound).
    brocard_notes = (
        f"claims primes p with {BROCARD_FIRST_P} <= p < {m_max}",
        "the first gap (2, 1) is excluded from Brocard claims: its interval "
        "(4, 9) holds 2 primes, which meets the strong count 2g = 2 but "
        "falsifies the standard count of 4",
    )
    results.append(
        derived(
            ConjectureKind.STRONG_BROCARD,
            m_max,
            "primes",
            f"strong Legendre holds for m <= {m_max} (chained from the same "
            "source); the g sub-windows of (p^2, (p+g)^2) give at least 2g primes",
            notes=brocard_notes,
        )
    )
    results.append(
        derived(
            ConjectureKind.STANDARD_BROCARD,
            m_max,
            "primes",
            f"strong Brocard holds for primes below {m_max} (chained from the "
            "same source); gaps from (3, 2) on have 2g >= 4",
            notes=brocard_notes,
        )
    )
    return results


# ---------------------------------------------------------------------------
# Brute-force sweeps (independent of any record table).


def _oppermann_violations(
    max_m: int, *, threads: int | None, segment_size: int | None
) -> list[int]:
    edges: list[int] = []
    for m in range(2, max_m + 1):
        edges.append(m * (m - 1))
        edges.append(m * m)
    edges.append(max_m * (max_m + 1))
    counts = count_primes_in_bins(edges, threads=threads, segment_size=segment_size)
    counts[0] -= 1  # the left edge 2 = 2*1 is prime but not interior
    bad: list[int] = []
    for k, m in enumerate(range(2, max_m + 1)):
        if counts[2 * k] < 1 or counts[2 * k + 1] < 1:
            bad.append(m)
    return bad


def _legendre_counts(
    max_m: int, *, threads: int | None, segment_size: int | None
) -> np.ndarray:
    edges = [m * m for m in range(1, max_m + 2)]
    # all edges are squares (or 1), never prime: half-open bins equal the
    # open intervals (m^2, (m+1)^2)
    return count_primes_in_bins(edges, threads=threads, segment_size=segment_size)


def _brocard_sweep(
    max_p: int,
    *,
    threads: int | None,
    segment_size: int | None,
    budget: int = DEFAULT_SWEEP_BUDGET,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-gap prime counts between consecutive prime squares, p in [3, max_p].

    Returns (p, g, counts) arrays for the gaps starting at each prime in
    the range.
    """
    ps = [int(q) for q in primes_in(3, max_p + 1)]
    if not ps:
        raise ValueError(f"no primes in [3, {max_p}]")
    chain = ps + [next_prime(ps[-1])]
    span = chain[-1] ** 2 - chain[0] ** 2
    if span > budget:
        raise RangeTooLargeError(
            f"Brocard sweep to {max_p} would sieve {span} numbers, over the "
            f"budget of {budget}"
        )
    edges = [q * q for q in chain]  # prime squares: never prime themselves
    counts = count_primes_in_bins(edges, threads=threads, segment_size=segment_size)
    p = np.array(chain[:-1], dtype=np.uint64)
    g = np.diff(np.array(chain, dtype=np.uint64))
    return p, g, counts


def direct_sweep(
    kind: ConjectureKind,
    limit: int,
    *,
    c: int = 2,
    threads: int | None = 1,
    segment_size: int | None = None,
) -> VerificationResult:
    """Brute-force verification of one conjecture with no table input.

    ``limit`` is an exclusive bound on the lower prime for the gap
    conjectures (every gap with p < limit), and an inclusive maximum for
    the interval conjectures (every m <= limit for Oppermann/Legendre,
    every prime p <= limit for Brocard).
    """
    if kind in GAP_KINDS:
        exceptions = compute_exceptions(
            kind, limit, c=c, threads=threads, segment_size=segment_size
        )
        return VerificationResult(
            kind=kind,
            verified_up_to=limit,
            bound_kind="primes",
            exceptions=exceptions,
            method=METHOD_BRUTE_FORCE,
            bound_provenance=f"every gap with lower prime below {limit} checked",
            weak_c=c if kind is ConjectureKind.WEAK_ANDRICA else None,
        )
    if kind is ConjectureKind.OPPERMANN:
        if limit < 2:
            raise ValueError("Oppermann sweep needs limit >= 2")
        bad = _oppermann_violations(limit, threads=threads, segment_size=segment_size)
        return VerificationResult(
            kind=kind,
            verified_up_to=limit + 1,
            bound_kind="integers",
            exceptions=tuple(bad),
            method=METHOD_BRUTE_FORCE,
            bound_provenance=f"both flanking intervals counted for every m in [2, {limit}]",
        )
    if kind in INTEGER_KINDS:
        if limit < 1:
            raise ValueError("Legendre sweep needs limit >= 1")
        counts = _legendre_counts(limit, threads=threads, segment_size=segment_size)
        need = 2 if kind is ConjectureKind.STRONG_LEGENDRE else 1
        bad = tuple(int(m) for m in np.flatnonzero(counts < need) + 1)
        return VerificationResult(
            kind=kind,
            verified_up_to=limit + 1,
            bound_kind="integers",
            exceptions=bad,
            method=METHOD_BRUTE_FORCE,
            bound_provenance=f"primes in (m^2, (m+1)^2) counted for every m in [1, {limit}]",
        )
    if kind in BROCARD_KINDS:
        if limit < BROCARD_FIRST_P:
            raise ValueError(f"Brocard sweep needs limit >= {BROCARD_FIRST_P}")
        p, g, counts = _brocard_sweep(limit, threads=threads, segment_size=segment_size)
        if kind is ConjectureKind.STRONG_BROCARD:
            bad_mask = counts < (2 * g).astype(np.int64)
        else:
            bad_mask = counts < 4
        return VerificationResult(
            kind=kind,
            verified_up_to=limit + 1,
            bound_kind="primes",
            exceptions=tuple(int(v) for v in p[bad_mask]),
            method=METHOD_BRUTE_FORCE,
            bound_provenance=(
                f"primes in (p^2, (p+g)^2) counted for every gap with "
                f"{BROCARD_FIRST_P} <= p <= {limit}"
            ),
            notes=(
                "the first gap (2, 1) is excluded from Brocard claims: its "
                "interval (4, 9) holds 2 primes, which meets the strong count "
                "2g = 2 but falsifies the standard count of 4",
            ),
        )
    raise ValueError(f"unknown conjecture kind: {kind!r}")
