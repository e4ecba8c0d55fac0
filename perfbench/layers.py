"""Per-layer measurements: timed calls into each ``primegaps`` module.

Every number here comes from a span the benchmark opens around a call to
a module's public function (see ``metrics_map.json`` for which end-to-end
metric and workload each one should move). Each measurement also checks
its own answer; a wrong answer is returned as a failure, not a time.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics

from primegaps import checkpoint, cli, conjectures, gap_records, numerics, sieve, verify
from primegaps.conjectures import ConjectureKind
from primegaps.gap_records import RecordScanState

import checkers

SEGMENT_STARTS = {"e9": 10**9, "e12": 10**12, "e14": 10**14}
REPEATS = {"e9": 7, "e12": 5, "e14": 3}
MIB = 1 << 20


def boundaries() -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for each cross-module call a CLI
    workload makes; :meth:`Tracer.patched` wraps them in a traced run."""
    return [
        (cli, "load_known_table", "gap_records.load_known_table"),
        (cli, "advance_scan", "gap_records.advance_scan"),
        (cli, "iter_gap_arrays", "sieve.iter_gap_arrays"),
        (cli, "compute_exceptions", "conjectures.compute_exceptions"),
        (cli, "verify_strong_andrica", "verify.verify_strong_andrica"),
        (cli, "verify_by_implication", "verify.verify_by_implication"),
        (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"),
        (gap_records, "validate_table", "gap_records.validate_table"),
        (gap_records, "is_prime_64", "numerics.is_prime_64"),
        (gap_records, "next_prime", "numerics.next_prime"),
        (verify, "validate_table", "gap_records.validate_table"),
        (verify, "compute_exceptions", "conjectures.compute_exceptions"),
        (verify, "next_prime", "numerics.next_prime"),
        (verify, "oppermann_holds_at", "conjectures.oppermann_holds_at"),
        (verify, "legendre_count", "conjectures.legendre_count"),
        (conjectures, "iter_gap_arrays", "sieve.iter_gap_arrays"),
        (conjectures, "violation_mask", "conjectures.violation_mask"),
        (sieve, "iter_prime_arrays", "sieve.iter_prime_arrays"),
        (sieve, "next_prime", "numerics.next_prime"),
    ]


def _median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Layers:
    """Collects per-layer metrics and the failures their checks found."""

    def __init__(self, tracer, windows: list[tuple[int, int]], workdir) -> None:
        self.tracer = tracer
        self.windows = windows
        self.workdir = workdir
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)

    def measure(self) -> dict[str, float]:
        self.segment_sieve()
        self.query_windows()
        self.full_range()
        self.verification()
        self.primality()
        return self.metrics

    def segment_sieve(self) -> None:
        size = sieve.DEFAULT_SEGMENT_SIZE
        t = self.tracer
        for tag, lo in SEGMENT_STARTS.items():
            hi = lo + size
            expected = sieve.count_primes_in(lo, hi)  # warms the base primes
            bitmap, extract = [], []
            for _ in range(REPEATS[tag]):
                n, s = t.timed("sieve.count_primes_in", sieve.count_primes_in, lo, hi)
                bitmap.append(s)
                self.check(n == expected, f"count_primes_in at {tag} is not repeatable")
                if tag == "e9":
                    arrays = []
                    drained = t.drain("sieve.iter_prime_arrays",
                                      sieve.iter_prime_arrays(lo, hi), arrays.append)
                    extract.append(drained["next_ns"] / 1e9)
                    ends = arrays[0][:50].tolist() + arrays[-1][-50:].tolist()
                    self.check(sum(map(len, arrays)) == n and all(map(checkers.is_prime, ends)),
                               "iter_prime_arrays at e9 disagrees with count_primes_in")
            self.metrics[f"sieve.bitmap_ms.{tag}"] = _median_ms(bitmap)
            if extract:
                self.metrics["sieve.extract_ms.e9"] = _median_ms(extract) - _median_ms(bitmap)

    def query_windows(self) -> None:
        t = self.tracer
        base, pool, closing, cli_self = [], [], [], []
        for k, (lo, hi) in enumerate(self.windows):
            _, s = t.timed("sieve.base_primes", sieve.base_primes, math.isqrt(hi) + 1)
            base.append(s)
            runs = {}
            for threads in ((1, 2) if k % 2 else (2, 1)):
                runs[threads] = t.timed("sieve.gaps_in", sieve.gaps_in, lo, hi, threads=threads)
            self.check(runs[1][0] == runs[2][0], f"gaps_in [{lo}, {hi}) depends on threads")
            pool.append(runs[2][1] - runs[1][1])
            q, s = t.timed("numerics.next_prime", numerics.next_prime, hi - 1)
            closing.append(s)
            self.check(checkers.is_prime(q) and checkers.prime_between(hi - 1, q) is None,
                       f"next_prime({hi - 1}) = {q} is not the next prime")
            argv = ["gaps", "--lo", str(lo), "--hi", str(hi), "--format", "csv"]
            with t.patched(boundaries()), t.span("cli.main") as attrs:
                rc, out = run_cli(argv)
            cli_self.append(attrs["id"])
            self.check(checkers.check_gaps(lo, hi, rc, out) is None, f"cli gaps [{lo}, {hi}) is wrong")
        own = t.self_ns()
        self.metrics["sieve.base_primes_ms"] = _median_ms(base)
        self.metrics["sieve.pool_overhead_ms"] = _median_ms(pool)
        self.metrics["numerics.next_prime_ms"] = _median_ms(closing)
        self.metrics["cli.overhead_ms"] = statistics.median(own[i] for i in cli_self) / 1e6

    def _drain_primes(self, threads: int) -> tuple[dict, int]:
        """Drain iter_prime_arrays(2, 10^9); the span and the last prime."""
        seen = {"count": 0, "last": 0}

        def tally(primes):
            seen["count"] += len(primes)
            if len(primes):
                seen["last"] = int(primes[-1])

        drained = self.tracer.drain("sieve.iter_prime_arrays",
                                    sieve.iter_prime_arrays(2, checkers.SCAN_LIMIT, threads=threads),
                                    tally)
        self.check(seen["count"] == checkers.PI_1E9,
                   f"iter_prime_arrays at {threads} workers gave {seen['count']} primes")
        return drained, seen["last"]

    def full_range(self) -> None:
        """Counting, streaming, gap stitching and record scans over [2, 10^9)."""
        t, limit = self.tracer, checkers.SCAN_LIMIT
        counts = {}
        for threads in (1, 2):
            n, counts[threads] = t.timed("sieve.count_primes_in", sieve.count_primes_in,
                                         2, limit, threads=threads)
            self.check(n == checkers.PI_1E9, f"count_primes_in(2, 10^9, threads={threads}) = {n}")
        self.metrics["sieve.count_speedup"] = counts[1] / counts[2]

        drained, _ = self._drain_primes(threads=2)
        self.metrics["sieve.stream_wait_s"] = drained["next_ns"] / 1e9
        self.metrics["sieve.shipped_mib"] = drained["bytes"] / MIB

        mask_s, found = [0.0], []

        def mask(pair):
            bad, s = t.timed("conjectures.violation_mask", conjectures.violation_mask,
                             ConjectureKind.STRONG_ANDRICA, *pair)
            mask_s[0] += s
            found.extend(int(p) for p in pair[0][bad])

        # The gap stream's own time is its drain minus the prime stream it
        # consumes, both timed inside the same drain.
        with t.patched([(sieve, "iter_prime_arrays", "sieve.iter_prime_arrays")]):
            drained = t.drain("sieve.iter_gap_arrays", sieve.iter_gap_arrays(2, limit), mask)
        primes_ns = sum(s["attrs"]["busy_ns"]
                        for s in t.children(drained["id"], "sieve.iter_prime_arrays"))
        self.check(found == checkers.STRONG_ANDRICA_EXCEPTIONS, f"violation_mask found {found}")
        self.metrics["conjectures.stitch_s"] = (drained["next_ns"] - primes_ns) / 1e9
        self.metrics["conjectures.mask_s"] = mask_s[0]

        # The 1-worker drain runs right before the 1-worker scan it is
        # subtracted from, so that both see the same host load.
        drained, last_prime = self._drain_primes(threads=1)
        scans = {}
        for threads in (1, 2):
            table, scans[threads] = t.timed("gap_records.scan_records", gap_records.scan_records,
                                            limit, threads=threads)
            self.check([tuple(r) for r in table.records] == checkers.expected_records(),
                       f"scan_records(10^9, threads={threads}) differs from the packaged table")
        self.metrics["gap_records.scan_speedup"] = scans[1] / scans[2]
        self.metrics["gap_records.reduce_s"] = scans[1] - drained["next_ns"] / 1e9

        state = RecordScanState(
            limit=limit, segment_size=sieve.DEFAULT_SEGMENT_SIZE, next_lo=limit,
            carry_prime=last_prime, best_gap=table.last.g_star,
            records=list(table.records), done=True,
        )
        path = self.workdir / "layers.ckpt.json"
        saves = [t.timed("checkpoint.save_checkpoint", checkpoint.save_checkpoint, path, state)[1]
                 for _ in range(5)]
        self.check(checkers.check_checkpoint(path) is None, "saved checkpoint does not verify")
        self.metrics["checkpoint.save_ms"] = _median_ms(saves)

    def verification(self) -> None:
        t = self.tracer
        loads, strong, implied = [], [], []
        for _ in range(5):
            table, s = t.timed("gap_records.load_known_table", gap_records.load_known_table)
            loads.append(s)
            base, s = t.timed("verify.verify_strong_andrica", verify.verify_strong_andrica,
                              table, threads=None)
            strong.append(s)
            derived, s = t.timed("verify.verify_by_implication", verify.verify_by_implication, base)
            implied.append(s)
            claims = {r.kind.value: (r.verified_up_to, r.bound_kind, list(r.exceptions))
                      for r in [base, *derived]}
            self.check(claims == checkers.VERIFY_CLAIMS, "verify results differ from the paper's claims")
        self.metrics["gap_records.load_table_ms"] = _median_ms(loads)
        self.metrics["verify.strong_andrica_ms"] = _median_ms(strong)
        self.metrics["verify.implication_ms"] = _median_ms(implied)

    def primality(self) -> None:
        calls = []
        for n in checkers.record_endpoints():
            verdict, s = self.tracer.timed("numerics.is_prime_64", numerics.is_prime_64, n)
            calls.append(s)
            self.check(verdict and checkers.is_prime(n), f"is_prime_64({n}) = {verdict}")
        self.metrics["numerics.is_prime_64_us"] = statistics.median(calls) * 1e6
