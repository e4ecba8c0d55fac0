"""Exact integer predicates for prime-gap and prime-interval conjectures.

Each conjecture is stated over the reals (for example, a gap bound of
``sqrt(p) + 1/4``), but every decision here is made by an algebraically
equivalent comparison of integers, so no rounding can flip a verdict:

===================  =============================  ==========================
conjecture           real inequality on a gap       exact integer test
===================  =============================  ==========================
strong Andrica       g < sqrt(p) + 1/4              (4g - 1)**2 < 16*p
standard Andrica     g < 2*sqrt(p) + 1              (g - 1)**2 < 4*p
weak Andrica (c)     g < 2*c*sqrt(p) + c**2         g <= c**2 or
                                                    (g - c**2)**2 < 4*c**2*p
square-root          g < sqrt(p)                    g**2 < p
===================  =============================  ==========================

Both sides of each squared comparison are non-negative with the strict
inequality preserved (squaring is monotone on non-negatives, and the
equality cases are impossible: an odd square never equals 16*p, and a prime
is never a perfect square).

The interval conjectures (Oppermann, Legendre, Brocard) reduce to prime
counts over explicit integer windows and are delegated to the sieve.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from enum import Enum
from functools import partial
from typing import Sequence

import numpy as np

from .gap_records import RecordTable
from .numerics import isqrt
# iter_gap_arrays stays importable here for callers that patch it.
from .sieve import RangeTooLargeError, count_primes_in, iter_gap_arrays, stitch_segments  # noqa: F401

#: The finite exception set named by the strong Andrica conjecture: the only
#: primes whose gap reaches sqrt(p) + 1/4. The square-root conjecture names
#: the same six primes.
STRONG_ANDRICA_EXCEPTIONS = (3, 7, 13, 23, 31, 113)
SQRT_CONJECTURE_EXCEPTIONS = STRONG_ANDRICA_EXCEPTIONS

#: Brocard-type counts are defined on gaps with g >= 2, i.e. from (3, 2) on.
#: The first gap (2, 1) is excluded from Brocard claims: the standard form
#: (at least four primes between consecutive prime squares) is simply false
#: there, since (4, 9) contains only the two primes 5 and 7.
BROCARD_FIRST_P = 3

#: Largest lower-prime value for which the vectorized uint64 violation masks
#: cannot overflow (16*p must stay below 2**64); beyond it the sweeps fall
#: back to exact per-gap arithmetic.
VECTOR_SAFE_P = 1 << 59

#: Interval width budget for a single Brocard window.
DEFAULT_MAX_WINDOW = 1 << 34


class ConjectureKind(str, Enum):
    STRONG_ANDRICA = "strong-andrica"
    STANDARD_ANDRICA = "standard-andrica"
    WEAK_ANDRICA = "weak-andrica"
    SQRT = "sqrt"
    OPPERMANN = "oppermann"
    STRONG_LEGENDRE = "strong-legendre"
    STANDARD_LEGENDRE = "standard-legendre"
    STRONG_BROCARD = "strong-brocard"
    STANDARD_BROCARD = "standard-brocard"


GAP_KINDS = frozenset(
    {
        ConjectureKind.STRONG_ANDRICA,
        ConjectureKind.STANDARD_ANDRICA,
        ConjectureKind.WEAK_ANDRICA,
        ConjectureKind.SQRT,
    }
)
INTEGER_KINDS = frozenset(
    {
        ConjectureKind.OPPERMANN,
        ConjectureKind.STRONG_LEGENDRE,
        ConjectureKind.STANDARD_LEGENDRE,
    }
)
BROCARD_KINDS = frozenset(
    {ConjectureKind.STRONG_BROCARD, ConjectureKind.STANDARD_BROCARD}
)


def known_exceptions(kind: ConjectureKind) -> tuple[int, ...]:
    """The exception set each conjecture's statement already concedes."""
    if kind in (ConjectureKind.STRONG_ANDRICA, ConjectureKind.SQRT):
        return STRONG_ANDRICA_EXCEPTIONS
    return ()


# ---------------------------------------------------------------------------
# Per-gap predicates. Arguments are PrimeGap or any (p, g, ...) sequence.


def strong_andrica_holds(gap: Sequence[int]) -> bool:
    """g < sqrt(p) + 1/4, decided as (4g - 1)**2 < 16p."""
    p, g = gap[0], gap[1]
    return (4 * g - 1) ** 2 < 16 * p


def standard_andrica_holds(gap: Sequence[int]) -> bool:
    """g < 2*sqrt(p) + 1, decided as (g - 1)**2 < 4p (g = 1 is immediate)."""
    p, g = gap[0], gap[1]
    return (g - 1) ** 2 < 4 * p


def weak_andrica_holds(gap: Sequence[int], c: int = 2) -> bool:
    """g < 2c*sqrt(p) + c**2 for an integer c >= 2.

    When g <= c**2 the offset term alone suffices; otherwise compare
    (g - c**2)**2 < 4*c**2*p exactly.
    """
    if c < 2:
        raise ValueError("weak Andrica constant c must be an integer >= 2")
    p, g = gap[0], gap[1]
    return g <= c * c or (g - c * c) ** 2 < 4 * c * c * p


def sqrt_conjecture_holds(gap: Sequence[int]) -> bool:
    """g < sqrt(p), decided as g**2 < p."""
    p, g = gap[0], gap[1]
    return g * g < p


def gap_predicate(kind: ConjectureKind, *, c: int = 2):
    """The scalar predicate for a per-gap conjecture kind."""
    if kind is ConjectureKind.STRONG_ANDRICA:
        return strong_andrica_holds
    if kind is ConjectureKind.STANDARD_ANDRICA:
        return standard_andrica_holds
    if kind is ConjectureKind.WEAK_ANDRICA:
        return lambda gap: weak_andrica_holds(gap, c)
    if kind is ConjectureKind.SQRT:
        return sqrt_conjecture_holds
    raise ValueError(f"{kind.value} is not a per-gap conjecture")


def violation_mask(
    kind: ConjectureKind, p: np.ndarray, g: np.ndarray, *, c: int = 2
) -> np.ndarray:
    """Vectorized per-gap violations; True where the predicate fails.

    ``p`` and ``g`` are uint64 arrays from the gap stream. The uint64 fast
    path requires max(p) < 2**59 so that 16*p cannot wrap; larger inputs
    take the exact per-element path. Both paths are property-tested equal
    to the scalar predicates.
    """
    if not len(p):
        return np.zeros(0, dtype=bool)
    if int(p.max()) >= VECTOR_SAFE_P:
        pred = gap_predicate(kind, c=c)
        return np.fromiter(
            (not pred((int(pi), int(gi))) for pi, gi in zip(p, g)),
            dtype=bool,
            count=len(p),
        )
    if kind is ConjectureKind.STRONG_ANDRICA:
        t = 4 * g - 1
        return t * t >= 16 * p
    if kind is ConjectureKind.STANDARD_ANDRICA:
        t = g - 1  # g >= 1, no underflow
        return t * t >= 4 * p
    if kind is ConjectureKind.WEAK_ANDRICA:
        if c < 2:
            raise ValueError("weak Andrica constant c must be an integer >= 2")
        out = np.zeros(len(p), dtype=bool)
        over = g > c * c
        t = g[over] - c * c
        out[over] = t * t >= 4 * c * c * p[over]
        return out
    if kind is ConjectureKind.SQRT:
        return g * g >= p
    raise ValueError(f"{kind.value} is not a per-gap conjecture")


def _violators(kind: ConjectureKind, c: int, primes: np.ndarray) -> list[int]:
    """Lower primes of one segment's inner gaps failing ``kind`` (worker side)."""
    p = primes[:-1]
    return p[violation_mask(kind, p, np.diff(primes), c=c)].tolist()


def compute_exceptions(
    kind: ConjectureKind,
    limit: int,
    *,
    c: int = 2,
    threads: int | None = 1,
    segment_size: int | None = None,
) -> tuple[int, ...]:
    """Exactly the lower primes p < limit whose gap violates the predicate.

    Workers test the gaps inside segments, the scalar predicate the rest.
    """
    if kind not in GAP_KINDS:
        raise ValueError(f"{kind.value} has no per-gap exception set")
    if limit < 3:
        raise ValueError("compute_exceptions needs limit >= 3")
    holds = gap_predicate(kind, c=c)
    found: list[int] = []
    for gap, seg, _ in stitch_segments(2, limit, partial(_violators, kind, c),
                                       threads=threads, segment_size=segment_size):
        if gap is not None and not holds(gap):
            found.append(gap[0])
        if seg is not None:
            found.extend(seg.payload)
    return tuple(found)


# ---------------------------------------------------------------------------
# Interval conjectures.


def oppermann_holds_at(m: int, *, threads: int | None = 1) -> bool:
    """At least one prime in each of (m(m-1), m**2) and (m**2, m(m+1))."""
    if m < 2:
        raise ValueError("Oppermann intervals need m >= 2")
    return (
        count_primes_in(m * (m - 1) + 1, m * m, threads=threads) >= 1
        and count_primes_in(m * m + 1, m * (m + 1), threads=threads) >= 1
    )


def legendre_count(m: int, *, threads: int | None = 1) -> int:
    """Number of primes strictly between m**2 and (m+1)**2.

    Strong Legendre asks for >= 2 of them, standard Legendre for >= 1.
    """
    if m < 1:
        raise ValueError("Legendre intervals need m >= 1")
    return count_primes_in(m * m + 1, (m + 1) * (m + 1), threads=threads)


def brocard_count(
    gap: Sequence[int],
    *,
    threads: int | None = 1,
    max_window: int = DEFAULT_MAX_WINDOW,
) -> int:
    """Number of primes strictly between p**2 and (p+g)**2.

    Strong Brocard asks for >= 2g of them, standard Brocard for >= 4.
    The window spans roughly 2*p*g numbers; beyond ``max_window`` the count
    is refused rather than silently taking hours.
    """
    p, g = gap[0], gap[1]
    lo, hi = p * p, (p + g) * (p + g)
    if hi - lo > max_window:
        raise RangeTooLargeError(
            f"Brocard window for gap ({p}, {g}) spans {hi - lo} numbers, "
            f"over the budget of {max_window}"
        )
    return count_primes_in(lo + 1, hi, threads=threads)


# ---------------------------------------------------------------------------
# Analysis helpers (reporting only; never part of a pass/fail decision).


def sqrt_threshold_gap(p: int, *, digits: int = 30) -> Decimal:
    """sqrt(p) * (sqrt(1 + 1/sqrt(p)) - 1), to ``digits`` significant digits.

    This is the bound the square-root conjecture places on
    sqrt(p_next) - sqrt(p): always below 1/2, approaching it from below as
    1/2 - 1/(8*sqrt(p)) + O(1/p).
    """
    if p < 2:
        raise ValueError("needs p >= 2")
    # sqrt(1 + x) - 1 cancels ~log10(1/x)/2 leading digits; the guard digits
    # absorb that for any 64-bit p.
    with localcontext() as ctx:
        ctx.prec = digits + 20
        sp = Decimal(p).sqrt()
        return sp * ((1 + 1 / sp).sqrt() - 1)


def failure_threshold_after(table: RecordTable) -> int:
    """Minimum gap width that would break strong Andrica at the next record.

    A hypothetical next record (beyond the table) starts above the last
    known record start p_star, so it would need a gap exceeding
    sqrt(p_star); this returns isqrt(p_star of the last record).
    """
    if not table.records:
        raise ValueError("record table is empty")
    return isqrt(table.last.p_star)


def order_of_magnitude(n: int) -> str:
    """Decimal order of a positive integer, rendered like '10^9'."""
    if n <= 0:
        raise ValueError("needs n > 0")
    return f"10^{len(str(n)) - 1}"
