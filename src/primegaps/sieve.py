"""Segmented sieve of Eratosthenes over arbitrary sub-2**64 windows.

The sieve works on fixed-size segments (default 2**22 numbers, small enough
for the bitmap to stay cache resident) and represents only odd numbers in
its internal bitmap; 2 is handled specially.

Every scan runs on one ordered map/fold engine. In :func:`map_segments` each
worker sieves a segment and returns a small :class:`Segment`: first and last
prime, prime count, and what the caller's extract function makes of the
primes (record candidates, violators, bin counts, or the primes themselves).
The parent folds these in range order, and :func:`stitch_segments` is the one
place where gaps are stitched across segments, so no output depends on the
worker count or segment size.

Heavy consumers iterate numpy arrays (:func:`iter_prime_arrays`,
:func:`iter_gap_arrays`); the list-of-objects APIs (:func:`primes_in`,
:func:`gaps_in`) are for moderate windows and carry a memory budget.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
from collections import deque
from contextlib import closing
from functools import partial
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .numerics import U64_BOUND, next_prime

#: Numbers per segment. 2**22 keeps the odd-only bitmap (2 MiB of bools)
#: cache resident. Base primes below its 2**21 odd slots are marked with one
#: strided slice each, so a full segment amortizes that per-prime Python
#: step; larger base primes hit a segment at most once and are marked by one
#: vector pass (see _odd_bitmap).
DEFAULT_SEGMENT_SIZE = 1 << 22

#: Base primes per step of _odd_bitmap's vector pass.
_VECTOR_CHUNK = 1 << 15

#: primes_in / gaps_in refuse to materialize windows wider than this;
#: use the streaming iterators for larger scans.
DEFAULT_MAX_SPAN = 1 << 28


class RangeTooLargeError(ValueError):
    """A materializing API was asked for a window beyond its memory budget."""


class SieveSegment(NamedTuple):
    """Half-open window ``[lo, hi)`` with its primality bitmap.

    ``bits[k]`` is True iff ``lo + k`` is prime.
    """

    lo: int
    hi: int
    bits: np.ndarray


class PrimeGap(NamedTuple):
    """A consecutive-prime pair: ``p`` and ``p + g`` are neighbours.

    ``index`` is the 1-based position of ``p`` in the prime sequence
    (p_1 = 2); it is only known for scans anchored at 2.
    """

    p: int
    g: int
    index: int | None = None


class Segment(NamedTuple):
    """A worker's summary of the sieved segment ``[lo, hi)``.

    ``payload`` is the scan's extract function applied to the segment's
    primes; ``first``/``last`` are None without primes or in a count-only scan.
    """

    lo: int
    hi: int
    count: int
    first: int | None
    last: int | None
    payload: Any


def base_primes(limit: int) -> np.ndarray:
    """All primes below ``limit`` by a dense sieve (uint64 array)."""
    if limit <= 2:
        return np.empty(0, dtype=np.uint64)
    mask = np.ones(limit, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit - 1) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.uint64)


def _check_range(lo: int, hi: int) -> None:
    if lo < 0 or hi < 0:
        raise ValueError("range bounds must be non-negative")
    if hi > U64_BOUND:
        raise ValueError("sieve range must stay within 64 bits")
    if lo >= hi:
        raise ValueError(f"empty or inverted range [{lo}, {hi})")


def _check_budget(lo: int, hi: int, max_span: int | None, stream: str) -> None:
    _check_range(lo, hi)
    if max_span is not None and hi - lo > max_span:
        raise RangeTooLargeError(
            f"window of {hi - lo} numbers exceeds the materialization budget "
            f"({max_span}); use {stream} for streaming access"
        )


def _segment_primes(lo: int, hi: int, base_odd: np.ndarray) -> np.ndarray:
    """Primes in ``[lo, hi)`` given the odd base primes up to sqrt(hi)."""
    out = np.flatnonzero(_odd_bitmap(lo, hi, base_odd)).view(np.uint64)
    out <<= np.uint64(1)  # in place: this runs once per segment
    out += np.uint64(lo | 1)
    if lo <= 2 < hi:
        out = np.concatenate([np.array([2], dtype=np.uint64), out])
    return out


def _odd_bitmap(lo: int, hi: int, base_odd: np.ndarray) -> np.ndarray:
    """Bitmap over the odd numbers of ``[lo, hi)``; entry k is lo|1 + 2k.

    ``base_odd`` holds the ascending odd primes up to sqrt(hi) (uint32 or
    uint64, each below 2**32).
    """
    lo_odd = lo | 1
    n = (hi - lo_odd + 1) // 2
    bits = np.ones(n, dtype=bool)
    if lo_odd == 1:
        bits[:1] = False
    # A prime p < n strikes the window several times: one strided slice each,
    # with start positions in Python ints (near 2**64, p*p and the first
    # multiple would wrap in uint64). The search key keeps base_odd's dtype,
    # since a Python int key makes searchsorted copy the array as int64; n is
    # capped for that, and 2**32 - 1 is not prime.
    split = int(np.searchsorted(base_odd, base_odd.dtype.type(min(n, (1 << 32) - 1))))
    for p in base_odd[:split].tolist():
        m = ((lo + p - 1) // p) * p
        if m < p * p:
            m = p * p
        if m % 2 == 0:
            m += p
        if m >= hi:
            continue
        bits[(m - lo_odd) >> 1 :: p] = False
    # A prime p >= n strikes it at most once, so one vector pass marks them
    # all. It works on uint64 offsets from lo|1, never on absolute values, so
    # nothing wraps: the first odd multiple at or past lo|1 lies less than
    # 2p <= 2**33 beyond it, and max(p*p, lo|1) - (lo|1) <= p*p < 2**64
    # because p < 2**32. Every operand is a uint64 (numpy 1.x turns uint64
    # with a Python int into float64). Chunks keep the three buffers at
    # 256 KiB each.
    lo_u, x, one = np.uint64(lo_odd), np.uint64(lo_odd - 1), np.uint64(1)
    buf = np.empty((3, min(len(base_odd) - split, _VECTOR_CHUNK)), np.uint64)
    for c in range(split, len(base_odd), _VECTOR_CHUNK):
        chunk = base_odd[c : c + _VECTOR_CHUNK]
        p, off, r = buf[:, : len(chunk)]
        p[...] = chunk
        np.remainder(x, p, out=r)
        np.subtract(p, one, out=off)
        off -= r  # p - 1 - ((lo|1) - 1) % p: to the first multiple of p
        np.bitwise_and(off, one, out=r)
        r *= p
        off += r  # lo|1 is odd, so an odd offset lands on an even multiple
        np.multiply(p, p, out=r)
        np.maximum(r, lo_u, out=r)
        r -= lo_u
        np.maximum(off, r, out=off)  # and no lower than p*p
        off >>= one
        bits[off[off < np.uint64(n)]] = False
    return bits


def sieve_segment(lo: int, hi: int, *, max_size: int = DEFAULT_SEGMENT_SIZE) -> SieveSegment:
    """Sieve one segment and return its full-range primality bitmap."""
    _check_range(lo, hi)
    if hi - lo > max_size:
        raise RangeTooLargeError(
            f"segment [{lo}, {hi}) exceeds max_size={max_size}; "
            "iterate segments instead"
        )
    primes = _segment_primes(lo, hi, _cached_base_odd(math.isqrt(hi - 1) + 1))
    bits = np.zeros(hi - lo, dtype=bool)
    if len(primes):
        bits[(primes - np.uint64(lo)).astype(np.int64)] = True
    return SieveSegment(lo, hi, bits)


# ---------------------------------------------------------------------------
# The engine. Task and extract functions live at module level so they
# pickle; each worker process caches its base primes.

_BASE_CACHE = (3, np.empty(0, np.uint32))  # (top, the odd primes below top)
_STOP = None  # in a pool worker: the pool's stop event, set by _init_worker


def _cached_base_odd(sqrt_limit: int) -> np.ndarray:
    """The odd primes below ``sqrt_limit`` (<= 2**32), as uint32.

    The cache only grows: a larger limit sieves the missing block of primes
    onto it, a smaller one is answered by a prefix slice.
    """
    global _BASE_CACHE
    top, base = _BASE_CACHE
    if sqrt_limit > top:
        # Sieved in blocks: in-process scans keep these primes, so their
        # memory counts.
        small = base_primes(math.isqrt(sqrt_limit) + 1)[1:]
        blocks = [_segment_primes(s, min(s + (1 << 20), sqrt_limit), small).astype(np.uint32)
                  for s in range(top, sqrt_limit, 1 << 20)]
        top, base = _BASE_CACHE = (sqrt_limit, np.concatenate([base, *blocks]))
    if sqrt_limit >= top:
        return base
    # top <= 2**32, so the smaller limit fits the uint32 key (a Python int
    # key would make searchsorted copy the cache as int64).
    return base[: int(np.searchsorted(base, np.uint32(sqrt_limit)))]


def _init_worker(stop) -> None:
    # Ctrl-C reaches the whole process group, but only the parent may stop.
    global _STOP
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _STOP = stop


def _sieve_task(args: tuple[int, int, int, Callable | None]) -> Segment | None:
    lo, hi, sqrt_limit, extract = args
    if _STOP is not None and _STOP.is_set():
        return None  # the consumer stopped early; nobody reads this result
    base_odd = _cached_base_odd(sqrt_limit)
    if extract is None:  # count only: skip turning the bitmap into primes
        n = int(np.count_nonzero(_odd_bitmap(lo, hi, base_odd))) + (lo <= 2 < hi)
        return Segment(lo, hi, n, None, None, None)
    primes = _segment_primes(lo, hi, base_odd)
    ends = (int(primes[0]), int(primes[-1])) if len(primes) else (None, None)
    return Segment(lo, hi, len(primes), *ends, extract(primes))


def _keep_primes(primes: np.ndarray) -> np.ndarray:
    return primes


def map_segments(
    lo: int,
    hi: int,
    extract: Callable[[np.ndarray], Any] | None,
    *,
    segment_size: int | None = None,
    threads: int | None = 1,
) -> Iterator[Segment]:
    """Sieve ``[lo, hi)`` and yield one :class:`Segment` per segment, in order.

    ``extract`` maps a segment's ascending uint64 primes to its payload in
    the worker, so it must pickle (None: count only). Uses at most
    ``threads`` workers (None: one per core) and no more than there are
    segments, so a one-segment window runs in-process. When the consumer
    stops early, queued segments are cancelled or skipped.
    """
    _check_range(lo, hi)
    segment_size = segment_size or DEFAULT_SEGMENT_SIZE
    if segment_size < 2:
        raise ValueError("segment_size must be >= 2")
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    sqrt_limit = math.isqrt(hi - 1) + 1
    tasks = ((s, min(s + segment_size, hi), sqrt_limit, extract)
             for s in range(lo, hi, segment_size))
    nthreads = min(threads or os.cpu_count() or 1, -(-(hi - lo) // segment_size))
    if nthreads <= 1:
        yield from map(_sieve_task, tasks)
        return
    # Imported here, so that in-process scans and queries do not keep the
    # pool machinery (about 0.7 MiB) resident.
    from concurrent.futures import ProcessPoolExecutor

    stop = multiprocessing.Event()
    pool = ProcessPoolExecutor(nthreads, initializer=_init_worker, initargs=(stop,))
    try:
        pending: deque = deque()
        for t in tasks:
            pending.append(pool.submit(_sieve_task, t))
            if len(pending) >= 3 * nthreads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)


def stitch_segments(
    lo: int,
    hi: int,
    extract: Callable[[np.ndarray], Any],
    *,
    carry: int | None = None,
    segment_size: int | None = None,
    threads: int | None = 1,
) -> Iterator[tuple[tuple[int, int] | None, Segment | None, int | None]]:
    """Walk the segments of ``[lo, hi)`` in order, stitching gaps across them.

    Yields ``(gap, segment, carry)`` per segment: ``gap`` runs from the last
    prime before the segment (``carry`` resumes an earlier run) to its first
    prime, or is None. A last ``(gap, None, carry)`` closes the window at the
    first prime >= ``hi`` (None beyond 2**64). Inner gaps are the extract's.
    """
    if lo != hi:
        with closing(map_segments(lo, hi, extract, segment_size=segment_size,
                                  threads=threads)) as segments:
            for seg in segments:
                gap = (carry, seg.first - carry) if seg.count and carry is not None else None
                carry = seg.last if seg.count else carry
                yield gap, seg, carry
    nxt = U64_BOUND if carry is None else next_prime(hi - 1)  # first prime >= hi
    yield ((carry, nxt - carry) if nxt < U64_BOUND else None), None, carry


def iter_prime_arrays(
    lo: int,
    hi: int,
    *,
    segment_size: int | None = None,
    threads: int | None = 1,
) -> Iterator[np.ndarray]:
    """Yield the primes of ``[lo, hi)`` as one ascending uint64 array per segment.

    Concatenating the yielded arrays gives exactly the primes of the window,
    for any segment size and worker count.
    """
    for seg in map_segments(lo, hi, _keep_primes, segment_size=segment_size, threads=threads):
        yield seg.payload


def primes_in(
    lo: int,
    hi: int,
    *,
    segment_size: int | None = None,
    threads: int | None = 1,
    max_span: int | None = DEFAULT_MAX_SPAN,
) -> np.ndarray:
    """Exactly the primes in ``[lo, hi)``, ascending, as a uint64 array.

    Raises :class:`RangeTooLargeError` when the window exceeds ``max_span``
    (pass ``max_span=None`` to lift the budget, or stream with
    :func:`iter_prime_arrays`).
    """
    _check_budget(lo, hi, max_span, "iter_prime_arrays")
    return np.concatenate(
        list(iter_prime_arrays(lo, hi, segment_size=segment_size, threads=threads))
    )


def count_primes_in(
    lo: int,
    hi: int,
    *,
    segment_size: int | None = None,
    threads: int | None = 1,
) -> int:
    """Number of primes in ``[lo, hi)``; streaming, O(1) extra memory."""
    return int(count_primes_in_bins((lo, hi), segment_size=segment_size, threads=threads)[0])


def _bin_counts(inner_edges: np.ndarray, primes: np.ndarray) -> tuple[int, np.ndarray]:
    """(first bin hit, counts from that bin on) for one segment's primes."""
    idx = np.searchsorted(inner_edges, primes, side="right")
    first = int(idx[0]) if len(idx) else 0
    return first, np.bincount(idx - first)


def count_primes_in_bins(
    edges: Iterable[int],
    *,
    segment_size: int | None = None,
    threads: int | None = 1,
) -> np.ndarray:
    """Counts of primes in each ``[edges[i], edges[i+1])``, as one pass.

    ``edges`` must be strictly increasing. Used by the interval-conjecture
    sweeps, where thousands of adjacent windows would otherwise each pay
    their own sieve setup.
    """
    edges = [int(e) for e in edges]
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    extract = None  # one bin needs only the workers' prime counts
    if len(edges) > 2:
        extract = partial(_bin_counts, np.array(edges[1:-1], dtype=np.uint64))
    for seg in map_segments(edges[0], edges[-1], extract,
                            segment_size=segment_size, threads=threads):
        first, seg_counts = seg.payload or (0, [seg.count])
        counts[first : first + len(seg_counts)] += seg_counts
    return counts


def iter_gap_arrays(
    lo: int,
    hi: int,
    *,
    segment_size: int | None = None,
    threads: int | None = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(p, g)`` uint64 array pairs for every gap with ``lo <= p < hi``.

    Concatenating the per-segment output equals a single-pass scan. The
    final gap is closed by probing for the first prime at or beyond ``hi``
    (it is dropped in the pathological case where that prime would exceed
    the 64-bit domain).
    """
    _check_range(lo, hi)
    for gap, seg, _ in stitch_segments(lo, hi, _keep_primes,
                                       segment_size=segment_size, threads=threads):
        if seg is not None:
            primes = seg.payload
        else:  # the closing step: only the first prime >= hi, if any
            primes = np.array([sum(gap)] if gap else [], dtype=np.uint64)
        if gap is not None:
            primes = np.concatenate([np.array([gap[0]], dtype=np.uint64), primes])
        if len(primes) >= 2:
            yield primes[:-1], np.diff(primes)


def gaps_in(
    lo: int,
    hi: int,
    *,
    segment_size: int | None = None,
    threads: int | None = 1,
    max_span: int | None = DEFAULT_MAX_SPAN,
) -> list[PrimeGap]:
    """All gaps whose lower prime lies in ``[lo, hi)``, as PrimeGap objects.

    ``index`` is populated only when the scan is anchored at the start of
    the primes (``lo <= 2``); for a mid-range window the global prime index
    is unknown and left as None.
    """
    _check_budget(lo, hi, max_span, "iter_gap_arrays")
    anchored = lo <= 2
    out: list[PrimeGap] = []
    n = 0
    for p_arr, g_arr in iter_gap_arrays(lo, hi, segment_size=segment_size, threads=threads):
        for p, g in zip(p_arr.tolist(), g_arr.tolist()):
            n += 1
            out.append(PrimeGap(p, g, n if anchored else None))
    return out
