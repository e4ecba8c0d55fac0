"""The segment engine: worker-side folds checked against the brute-force oracles.

Records and exception sets are folded from small per-segment summaries
(strict prefix-maximum gaps, violating lower primes) plus the gaps that
cross segment boundaries. Tiny segments put almost every gap on or across a
boundary, so these tests exercise the stitching far harder than the default
segment size ever does.
"""

import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from primegaps import sieve
from primegaps.conjectures import ConjectureKind, compute_exceptions
from primegaps.gap_records import advance_scan, new_scan_state, scan_records

import oracles

# Real inequalities decided in integers, written out here rather than taken
# from the package: strong Andrica g < sqrt(p) + 1/4, standard g < 2 sqrt(p) + 1.
VIOLATES = {
    ConjectureKind.STRONG_ANDRICA: lambda p, g: (4 * g - 1) ** 2 >= 16 * p,
    ConjectureKind.STANDARD_ANDRICA: lambda p, g: (g - 1) ** 2 >= 4 * p,
}


def oracle_exceptions(kind, limit):
    return [p for p, g in oracles.gap_list(limit) if VIOLATES[kind](p, g)]


def segments_from_2(limit, segment_size):
    """The segments a scan from 2 uses, with the primes of each."""
    primes = oracles.primes_upto(limit)
    return [
        [p for p in primes if s <= p < s + segment_size]
        for s in range(2, limit, segment_size)
    ]


def resumed_scan(limit, segment_size, threads, stop_after):
    state = new_scan_state(limit, segment_size=segment_size)
    advance_scan(state, threads=threads, max_segments=stop_after)
    advance_scan(state, threads=threads)
    return [tuple(r) for r in state.as_table().records]


class TestFoldMatchesOracles:
    @given(
        limit=st.integers(min_value=3, max_value=1500),
        segment_size=st.integers(min_value=2, max_value=64),
        threads=st.sampled_from([1, 2]),
        stop_after=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_records_and_exceptions(self, limit, segment_size, threads, stop_after):
        records = oracles.brute_records(limit)
        got = scan_records(limit, segment_size=segment_size, threads=threads)
        assert [tuple(r) for r in got.records] == records
        assert resumed_scan(limit, segment_size, threads, stop_after) == records
        for kind in VIOLATES:
            assert list(
                compute_exceptions(kind, limit, segment_size=segment_size, threads=threads)
            ) == oracle_exceptions(kind, limit)

    def test_constructed_cases_have_their_shapes(self):
        counts = [len(ps) for ps in segments_from_2(200, 2)]
        assert 0 in counts and 1 in counts
        # segments of 59 from 2 meet at 120, inside the record gap 113 -> 127,
        # which is also the last strong-Andrica violation
        assert 120 in range(2, 200, 59)
        assert (6, 14, 113) in oracles.brute_records(200)
        assert 113 in oracle_exceptions(ConjectureKind.STRONG_ANDRICA, 200)
        # segments of 5 from 2 meet at 37, the end of the violating gap 31 -> 37
        assert 37 in range(2, 60, 5)
        assert 31 in oracle_exceptions(ConjectureKind.STRONG_ANDRICA, 60)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("limit,segment_size", [(200, 2), (200, 59), (60, 5)])
    def test_constructed_boundary_cases(self, limit, segment_size, threads):
        got = scan_records(limit, segment_size=segment_size, threads=threads)
        assert [tuple(r) for r in got.records] == oracles.brute_records(limit)
        for kind in VIOLATES:
            got = compute_exceptions(kind, limit, segment_size=segment_size, threads=threads)
            assert list(got) == oracle_exceptions(kind, limit)

    @pytest.mark.parametrize("segment_size", [2, 3, 16, 64])
    def test_counts_and_gap_stream_match_oracles(self, segment_size):
        edges = [2, 10, 11, 50, 97, 98, 400, 401, 1000]
        expected = [oracles.count_between(a, b) for a, b in zip(edges, edges[1:])]
        for threads in (1, 2):
            got = sieve.count_primes_in_bins(edges, segment_size=segment_size, threads=threads)
            assert got.tolist() == expected
            assert sieve.count_primes_in(2, 1000, segment_size=segment_size,
                                         threads=threads) == sum(expected)
            gaps = sieve.gaps_in(2, 1000, segment_size=segment_size, threads=threads)
            assert [(g.p, g.g) for g in gaps] == oracles.gap_list(1000)


class TestPoolUse:
    def test_one_segment_window_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-segment window must run in-process")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        lo = 10**12
        gaps = sieve.gaps_in(lo, lo + 4096, threads=2)
        assert gaps and all(lo <= g.p < lo + 4096 for g in gaps)
        assert compute_exceptions(ConjectureKind.STRONG_ANDRICA, 523, threads=None) == (
            3, 7, 13, 23, 31, 113,
        )
        with pytest.raises(AssertionError, match="in-process"):
            sieve.count_primes_in(lo, lo + 2 * 4096, segment_size=4096, threads=2)


def _mark_sieved(directory, primes):
    """Slow extract function that leaves one file per sieved segment."""
    Path(directory, str(int(primes[0]))).touch()
    time.sleep(0.2)


class TestEarlyStop:
    def test_closing_after_one_segment_skips_the_queued_ones(self, tmp_path):
        # _mark_sieved sleeps, so each segment takes long enough for the
        # queue to fill behind it, however fast the sieve is.
        threads, size, lo = 2, 1 << 16, 10**12
        segments = sieve.map_segments(lo, lo + 40 * size, partial(_mark_sieved, str(tmp_path)),
                                      segment_size=size, threads=threads)
        first = next(segments)
        segments.close()
        assert first.lo == lo and first.count > 0
        # 3 * threads segments were in flight; only the first and at most one
        # more per worker (already running when the consumer stopped) are sieved.
        sieved = len(list(tmp_path.iterdir()))
        assert 1 <= sieved <= 2 * threads < 3 * threads
