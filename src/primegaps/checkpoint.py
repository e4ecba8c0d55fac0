"""Resumable checkpoints for long record scans.

A checkpoint is a JSON snapshot of :class:`~primegaps.gap_records.RecordScanState`
taken at a segment boundary, plus a payload checksum. Resuming from it and
running to completion yields byte-identical output to an uninterrupted run,
because segment reduction is strictly ordered and the state captures the
entire reducer (next segment start, stitching carry, running maximum, and
the records found so far).

Writes are atomic: the file is written to a temporary sibling and renamed
into place, so an interrupt can never leave a half-written checkpoint.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .gap_records import MaximalGapRecord, RecordScanState

FORMAT_VERSION = 1
SCAN_KIND_RECORDS = "records"


class CheckpointError(Exception):
    """Base for checkpoint load failures."""


class CorruptCheckpointError(CheckpointError):
    """The file is unreadable, truncated, or fails its checksum."""


class VersionMismatchError(CheckpointError):
    """The checkpoint was written by an incompatible format version."""


class ParameterMismatchError(CheckpointError):
    """The checkpoint belongs to a scan with different parameters."""


def _payload(state: RecordScanState) -> dict:
    return {
        "scan_kind": SCAN_KIND_RECORDS,
        "format_version": FORMAT_VERSION,
        "limit": state.limit,
        "segment_size": state.segment_size,
        "next_lo": state.next_lo,
        "carry_prime": state.carry_prime,
        "best_gap": state.best_gap,
        "done": state.done,
        "records": [[r.i, r.g_star, r.p_star] for r in state.records],
    }


def _digest(payload: dict) -> str:
    import hashlib  # here, so that commands without checkpoints do not load OpenSSL (~3.5 MiB)

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_checkpoint(path: str | Path, state: RecordScanState) -> None:
    """Atomically write the scan state (temp file + rename)."""
    path = Path(path)
    payload = _payload(state)
    doc = {"payload": payload, "sha256": _digest(payload)}
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_checkpoint(
    path: str | Path, *, limit: int, segment_size: int
) -> RecordScanState:
    """Load a record-scan checkpoint, verifying integrity and parameters.

    ``limit`` and ``segment_size`` are the parameters of the run being
    resumed; a checkpoint from a scan with different parameters is refused,
    since mixing them would silently change the result.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        payload = doc["payload"]
        stored_digest = doc["sha256"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CorruptCheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if _digest(payload) != stored_digest:
        raise CorruptCheckpointError(f"checkpoint {path} fails its checksum")
    try:
        version = payload["format_version"]
        scan_kind = payload["scan_kind"]
        state = RecordScanState(
            limit=payload["limit"],
            segment_size=payload["segment_size"],
            next_lo=payload["next_lo"],
            carry_prime=payload["carry_prime"],
            best_gap=payload["best_gap"],
            records=[MaximalGapRecord(*r) for r in payload["records"]],
            done=payload["done"],
        )
    except (KeyError, TypeError) as exc:
        raise CorruptCheckpointError(f"checkpoint {path} is missing fields: {exc}") from exc
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"checkpoint format {version} != supported {FORMAT_VERSION}"
        )
    if scan_kind != SCAN_KIND_RECORDS:
        raise ParameterMismatchError(f"checkpoint is for scan kind {scan_kind!r}")
    if state.limit != limit or state.segment_size != segment_size:
        raise ParameterMismatchError(
            f"checkpoint was taken with limit={state.limit}, "
            f"segment_size={state.segment_size}; this run uses limit={limit}, "
            f"segment_size={segment_size}"
        )
    return state
