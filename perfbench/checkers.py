"""Answer checkers for the benchmark workloads.

Nothing here imports ``primegaps``: expected values come from the packaged
record-table file (parsed and rendered here), from the paper's stated
bounds, and from a Miller-Rabin test written in this file. Each checker
returns ``None`` for a correct answer or a one-line reason for a wrong one,
so that a wrong answer is counted as a failed operation, never as a time.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE_FILE = ROOT / "src" / "primegaps" / "data" / "maximal_gaps_80.csv"

SCAN_LIMIT = 10**9
PI_1E9 = 50_847_534
STRONG_ANDRICA_EXCEPTIONS = [3, 7, 13, 23, 31, 113]

# What `primegaps verify --conjecture K` certifies from the 80-record table:
# (verified_up_to, bound_kind, exceptions). The Andrica forms reach 2^64;
# Oppermann and Legendre hold for m <= 2^32 (exclusive bound 2^32 + 1);
# Brocard holds for primes below 2^32.
VERIFY_CLAIMS = {
    "strong-andrica": (1 << 64, "primes", STRONG_ANDRICA_EXCEPTIONS),
    "standard-andrica": (1 << 64, "primes", []),
    "weak-andrica": (1 << 64, "primes", []),
    "oppermann": ((1 << 32) + 1, "integers", []),
    "strong-legendre": ((1 << 32) + 1, "integers", []),
    "standard-legendre": ((1 << 32) + 1, "integers", []),
    "strong-brocard": (1 << 32, "primes", []),
    "standard-brocard": (1 << 32, "primes", []),
}

# ---------------------------------------------------------------------------
# Primality: deterministic Miller-Rabin below 3.3e24 with the first twelve
# prime bases, preceded by a gcd sieve against the primes below 100.

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL = [q for q in range(2, 100) if all(q % d for d in range(2, q))]
_SMALL_PRODUCT = math.prod(_SMALL)


def is_prime(n: int) -> bool:
    if n < 100:
        return n in _SMALL
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_between(a: int, b: int) -> int | None:
    """Some prime q with a < q < b, or None."""
    for q in range(a + 1, b):
        if is_prime(q):
            return q
    return None


# ---------------------------------------------------------------------------
# Expected outputs.


def table_rows() -> list[tuple[int, int, int]]:
    """(i, g_star, p_star) rows of the packaged table file."""
    rows = []
    for line in TABLE_FILE.read_text(encoding="utf-8").splitlines():
        parts = line.strip().split(",")
        if len(parts) == 3 and parts[0].isdigit():
            rows.append((int(parts[0]), int(parts[1]), int(parts[2])))
    return rows


def expected_records(limit: int = SCAN_LIMIT) -> list[tuple[int, int, int]]:
    return [r for r in table_rows() if r[2] < limit]


def expected_records_csv(limit: int = SCAN_LIMIT) -> str:
    lines = ["i,g_star,p_star"]
    lines += [f"{i},{g},{p}" for i, g, p in expected_records(limit)]
    lines.append(f"coverage_bound,{limit}")
    return "\n".join(lines) + "\n"


def record_endpoints() -> list[int]:
    """Both endpoints of every packaged record: 160 integers."""
    return [n for _, g, p in table_rows() for n in (p, p + g)]


# ---------------------------------------------------------------------------
# Checkers. Each takes the CLI exit code and captured stdout.


def check_scan(rc: int, out: str, checkpoint: Path) -> str | None:
    if rc != 0:
        return f"records exited {rc}"
    if out != expected_records_csv():
        return "records CSV differs from the packaged table below 10^9"
    return check_checkpoint(checkpoint)


def check_checkpoint(checkpoint: Path) -> str | None:
    """The file holds a checksummed, finished 10^9 scan with the right records."""
    try:
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        payload = doc["payload"]
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"checkpoint unreadable: {exc}"
    if digest != doc.get("sha256"):
        return "checkpoint fails its checksum"
    if payload.get("done") is not True or payload.get("limit") != SCAN_LIMIT:
        return "checkpoint is not a finished 10^9 scan"
    if [tuple(r) for r in payload.get("records", [])] != expected_records():
        return "checkpoint records differ from the packaged table"
    return None


def check_sweep(rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exceptions exited {rc}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "exceptions output is not JSON"
    if doc.get("exceptions") != STRONG_ANDRICA_EXCEPTIONS or doc.get("limit") != SCAN_LIMIT:
        return f"exceptions {doc.get('exceptions')} != {STRONG_ANDRICA_EXCEPTIONS}"
    return None


def check_verify(kind: str, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"verify {kind} exited {rc}"
    try:
        doc = json.loads(out)
    except ValueError:
        return f"verify {kind} output is not JSON"
    bound, bound_kind, exceptions = VERIFY_CLAIMS[kind]
    got = (doc.get("kind"), doc.get("verified_up_to"), doc.get("bound_kind"),
           doc.get("exceptions"), doc.get("holds"), doc.get("new_violations"))
    want = (kind, bound, bound_kind, exceptions, True, [])
    if got != want:
        return f"verify {kind}: got {got}, want {want}"
    return None


def check_gaps(lo: int, hi: int, rc: int, out: str) -> str | None:
    """Every gap with lower prime in [lo, hi), each listed once, in order."""
    if rc != 0:
        return f"gaps exited {rc}"
    lines = out.splitlines()
    if not lines or lines[0] != "p,g,index":
        return "gaps CSV header missing"
    try:
        rows = [tuple(line.split(",")) for line in lines[1:]]
        pairs = [(int(p), int(g)) for p, g, idx in rows if idx == ""]
    except ValueError:
        return "gaps CSV row is malformed"
    if len(pairs) != len(rows) or not pairs:
        return "gaps CSV has no rows or an unexpected index column"
    first, last = pairs[0], pairs[-1]
    if not lo <= first[0] or last[0] >= hi or last[0] + last[1] < hi:
        return "gaps do not cover the window"
    q = prime_between(lo - 1, first[0])
    if q is not None:
        return f"prime {q} before the first listed gap"
    for k, (p, g) in enumerate(pairs):
        if k and p != pairs[k - 1][0] + pairs[k - 1][1]:
            return f"gap at {p} does not continue the previous gap"
        if not (is_prime(p) and is_prime(p + g)):
            return f"gap ({p}, {g}) has a composite endpoint"
        q = prime_between(p, p + g)
        if q is not None:
            return f"prime {q} inside the gap ({p}, {g})"
    return None
