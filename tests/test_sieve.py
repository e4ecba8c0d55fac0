import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primegaps import numerics, sieve

import oracles


class TestPrimesIn:
    def test_first_decade(self):
        assert sieve.primes_in(1, 10).tolist() == [2, 3, 5, 7]

    def test_window_after_record_gap_at_523(self):
        # 523 starts a gap of width 18 (next prime 541, by trial division),
        # so the window right after it is empty exactly up to 541
        assert oracles.primes_between(524, 542) == [541]
        assert sieve.primes_in(524, 541).tolist() == []
        assert sieve.primes_in(524, 542).tolist() == [541]

    def test_prime_count_to_one_million(self):
        expected = len(oracles.primes_upto(1_000_000))
        assert expected == 78498
        assert len(sieve.primes_in(1, 1_000_000)) == expected
        assert sieve.count_primes_in(1, 1_000_000) == expected

    @pytest.mark.parametrize("segment_size", [999, 4096, 65536, None])
    def test_segment_size_invariance(self, segment_size):
        got = sieve.primes_in(1, 200_000, segment_size=segment_size)
        assert got.tolist() == oracles.primes_upto(200_000)

    def test_parallel_equals_sequential(self):
        seq = sieve.primes_in(1, 3_000_000, threads=1)
        par = sieve.primes_in(1, 3_000_000, threads=2)
        assert np.array_equal(seq, par)

    def test_mid_range_window_against_miller_rabin(self):
        lo = 10**12
        got = set(sieve.primes_in(lo, lo + 10_000).tolist())
        for n in range(lo, lo + 10_000):
            assert (n in got) == numerics.is_prime_64(n), n

    @given(
        lo=st.integers(min_value=0, max_value=100_000),
        width=st.integers(min_value=1, max_value=2000),
    )
    @settings(max_examples=60)
    def test_random_windows_match_trial_division(self, lo, width):
        got = sieve.primes_in(lo, lo + width, segment_size=1024).tolist()
        assert got == oracles.primes_between(lo, lo + width)

    def test_budget_and_range_validation(self):
        with pytest.raises(sieve.RangeTooLargeError):
            sieve.primes_in(0, 2**40)
        with pytest.raises(ValueError):
            sieve.primes_in(10, 10)
        with pytest.raises(ValueError):
            sieve.primes_in(10, 5)
        with pytest.raises(ValueError):
            sieve.primes_in(0, 2**64 + 1)
        # lifting the budget works
        assert len(sieve.primes_in(0, 2**28 + 2, max_span=None)) > 0


# The odd primes below 2**16: a truncated base, so that windows anywhere
# below 2**64 run both marking regimes without building their full base.
SMALL_ODD_BASE = oracles.primes_upto(1 << 16)[1:]


def reference_odd_bitmap(lo, hi, base):
    """Entry k is False iff lo|1 + 2k is 1 or an odd multiple m >= p*p of a
    base prime p; every multiple is walked in Python ints."""
    lo_odd = lo | 1
    bits = [True] * ((hi - lo_odd + 1) // 2)
    if lo_odd == 1 and bits:
        bits[0] = False
    for p in base:
        for m in range(max(p * p, -(-lo // p) * p), hi, p):
            if m % 2:
                bits[(m - lo_odd) // 2] = False
    return bits


def odd_bitmap(lo, hi, base):
    return sieve._odd_bitmap(lo, hi, np.array(base, dtype=np.uint32)).tolist()


class TestOddBitmap:
    @given(
        lo=st.one_of(
            st.integers(min_value=0, max_value=10**6 - 1),
            st.integers(min_value=10**12 - 2**20, max_value=10**12 + 2**20),
            st.integers(min_value=2**64 - 2**20, max_value=2**64 - 1),
        ),
        width=st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_prime_reference(self, lo, width):
        hi = min(lo + width, 2**64)
        assert odd_bitmap(lo, hi, SMALL_ODD_BASE) == reference_odd_bitmap(lo, hi, SMALL_ODD_BASE)

    @given(
        index=st.integers(min_value=0, max_value=len(SMALL_ODD_BASE) - 1),
        square=st.booleans(),
        width=st.integers(min_value=1, max_value=256),
        shift=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=150, deadline=None)
    def test_windows_holding_a_large_prime_or_its_square(self, index, square, width, shift):
        p = SMALL_ODD_BASE[index]
        width = min(width, 2 * p - 1)  # so p is at least the odd-slot count
        target = p * p if square else p
        lo = max(0, target - shift % width)
        hi = lo + width
        assert lo <= target < hi and p >= (hi - (lo | 1) + 1) // 2
        assert odd_bitmap(lo, hi, SMALL_ODD_BASE) == reference_odd_bitmap(lo, hi, SMALL_ODD_BASE)

    def test_narrow_window_near_1e14_stays_under_one_mib(self):
        lo = 10**14
        base = sieve._cached_base_odd(math.isqrt(lo + 4095) + 1)
        assert len(base) == 664_578  # the odd primes below 10^7
        tracemalloc.start()
        try:
            sieve._odd_bitmap(lo, lo + 4096, base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBaseCache:
    def test_smaller_limit_is_a_prefix_of_the_grown_cache(self, monkeypatch):
        monkeypatch.setattr(sieve, "_BASE_CACHE", (3, np.empty(0, dtype=np.uint32)))
        grown = sieve._cached_base_odd(10**7)

        def no_rebuild(*args):
            raise AssertionError("the cache already holds these primes")

        monkeypatch.setattr(sieve, "_segment_primes", no_rebuild)
        monkeypatch.setattr(sieve, "base_primes", no_rebuild)
        prefix = sieve._cached_base_odd(10**5)
        assert prefix.tolist() == oracles.primes_upto(10**5)[1:]
        assert np.shares_memory(prefix, grown)
        assert len(sieve._cached_base_odd(10**7)) == len(grown)

    def test_limit_two_to_the_32(self, monkeypatch):
        primes = oracles.primes_upto(1000)[1:]
        monkeypatch.setattr(sieve, "_BASE_CACHE", (2**32, np.array(primes, dtype=np.uint32)))
        assert sieve._cached_base_odd(2**32).tolist() == primes
        assert sieve._cached_base_odd(2**32 - 1).tolist() == primes
        assert sieve._cached_base_odd(100).tolist() == oracles.primes_upto(100)[1:]


class TestSieveSegment:
    def test_bitmap_semantics(self):
        seg = sieve.sieve_segment(1_000_000, 1_004_096)
        assert seg.hi - seg.lo == len(seg.bits)
        for k in range(0, 4096, 37):
            assert bool(seg.bits[k]) == numerics.is_prime_64(seg.lo + k)

    def test_low_segment_includes_two(self):
        seg = sieve.sieve_segment(0, 32)
        assert np.flatnonzero(seg.bits).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

    def test_oversized_segment_rejected(self):
        with pytest.raises(sieve.RangeTooLargeError):
            sieve.sieve_segment(0, sieve.DEFAULT_SEGMENT_SIZE + 1)


class TestGaps:
    def test_anchored_prefix(self):
        got = sieve.gaps_in(2, 12)
        assert got == [
            sieve.PrimeGap(2, 1, 1),
            sieve.PrimeGap(3, 2, 2),
            sieve.PrimeGap(5, 2, 3),
            sieve.PrimeGap(7, 4, 4),
            sieve.PrimeGap(11, 2, 5),
        ]

    def test_matches_oracle_gap_list(self):
        got = [(g.p, g.g) for g in sieve.gaps_in(2, 50_000)]
        assert got == oracles.gap_list(50_000)

    def test_gap_at_113(self):
        (gap,) = sieve.gaps_in(113, 114)
        assert (gap.p, gap.g) == (113, 14)
        assert oracles.next_prime_after(113) == 127
        assert gap.index is None  # not anchored at 2

    def test_gap_at_523(self):
        (gap,) = sieve.gaps_in(523, 524)
        assert (gap.p, gap.g) == (523, 18)

    def test_exception_primes_sit_at_their_known_indices(self):
        # p_n for n in {2, 4, 6, 9, 11, 30} are exactly {3, 7, 13, 23, 31, 113}
        by_p = {g.p: g.index for g in sieve.gaps_in(2, 200)}
        assert {p: by_p[p] for p in (3, 7, 13, 23, 31, 113)} == {
            3: 2,
            7: 4,
            13: 6,
            23: 9,
            31: 11,
            113: 30,
        }

    @pytest.mark.parametrize("segment_size", [256, 999, 65536])
    def test_stitching_across_segment_boundaries(self, segment_size):
        got = [
            (int(p), int(g))
            for p_arr, g_arr in sieve.iter_gap_arrays(2, 50_000, segment_size=segment_size)
            for p, g in zip(p_arr, g_arr)
        ]
        assert got == oracles.gap_list(50_000)

    def test_mid_range_start_emits_no_gap_below_lo(self):
        gaps = sieve.gaps_in(100, 150)
        assert [g.p for g in gaps] == [101, 103, 107, 109, 113, 127, 131, 137, 139, 149]
        assert all(g.index is None for g in gaps)

    def test_gap_type_invariants_sampled(self):
        for gap in sieve.gaps_in(2, 10_000):
            assert oracles.is_prime_trial(gap.p)
            assert oracles.is_prime_trial(gap.p + gap.g)
            assert gap.g >= 1
            assert gap.g == 1 if gap.p == 2 else gap.g % 2 == 0

    def test_interior_of_sampled_gaps_is_empty(self):
        for gap in sieve.gaps_in(2, 3000):
            assert oracles.primes_between(gap.p + 1, gap.p + gap.g) == []

    def test_telescoping_sum(self):
        # gaps over [2, N) telescope: 2 + sum(g) = last prime + its gap
        gaps = sieve.gaps_in(2, 100_000)
        assert 2 + sum(g.g for g in gaps) == gaps[-1].p + gaps[-1].g

    def test_parallel_gap_stream_deterministic(self):
        one = [
            (p_arr.tolist(), g_arr.tolist())
            for p_arr, g_arr in sieve.iter_gap_arrays(2, 2_000_000, threads=1)
        ]
        two = [
            (p_arr.tolist(), g_arr.tolist())
            for p_arr, g_arr in sieve.iter_gap_arrays(2, 2_000_000, threads=2)
        ]
        assert [x for seg in one for x in zip(*seg)] == [
            x for seg in two for x in zip(*seg)
        ]


class TestCounts:
    @pytest.mark.parametrize(
        "lo,hi,expected", [(1, 4, 2), (4, 9, 2), (9, 25, 5), (2, 3, 1), (14, 17, 0)]
    )
    def test_small_windows(self, lo, hi, expected):
        assert oracles.count_between(lo, hi) == expected
        assert sieve.count_primes_in(lo, hi) == expected

    def test_count_matches_len_primes(self):
        assert sieve.count_primes_in(1000, 300_000) == len(sieve.primes_in(1000, 300_000))

    def test_parallel_count(self):
        assert sieve.count_primes_in(1, 2_000_000, threads=2) == len(
            oracles.primes_upto(2_000_000)
        )

    def test_bin_counts_match_oracle(self):
        edges = [2, 4, 9, 25, 100, 5000]
        got = sieve.count_primes_in_bins(edges)
        assert got.tolist() == [
            oracles.count_between(a, b) for a, b in zip(edges, edges[1:])
        ]

    def test_bin_counts_with_tiny_segments(self):
        edges = [10, 200, 4000, 9999]
        got = sieve.count_primes_in_bins(edges, segment_size=97)
        assert got.tolist() == [
            oracles.count_between(a, b) for a, b in zip(edges, edges[1:])
        ]

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            sieve.count_primes_in_bins([10, 10, 20])
        with pytest.raises(ValueError):
            sieve.count_primes_in_bins([5])
