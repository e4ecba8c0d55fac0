"""A real Ctrl-C during a checkpointed record scan, under every start method.

The scan runs in its own process group, as in a terminal, so SIGINT reaches
the parent and every pool worker at once. Workers ignore it; the parent
finishes the segment in hand, leaves a loadable checkpoint and exits 130,
and resuming prints exactly what an uninterrupted run prints.
"""

import contextlib
import io
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from primegaps import cli
from primegaps.checkpoint import load_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT, SEGMENT = 100_000_000, 1 << 18
ARGS = ["records", "--limit", str(LIMIT), "--segment-size", str(SEGMENT), "--format", "csv"]
# Runs the CLI with the given multiprocessing start method.
WRAPPER = (
    "import multiprocessing, sys; multiprocessing.set_start_method(sys.argv[1]); "
    "from primegaps.cli import main; sys.exit(main(sys.argv[2:]))"
)


@pytest.fixture(scope="module")
def uninterrupted():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*ARGS, "--threads", "1"]) == 0
    return out.getvalue()


def _start(method, *args):
    return subprocess.Popen(
        [sys.executable, "-c", WRAPPER, method, *ARGS, "--threads", "2", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_ctrl_c_checkpoints_and_resumes_byte_identical(method, tmp_path, uninterrupted):
    ck = tmp_path / "scan.ckpt"
    proc = _start(method, "--checkpoint", str(ck))
    try:
        deadline = time.monotonic() + 60
        while not ck.exists():
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "no checkpoint appeared"
            time.sleep(0.01)
        time.sleep(0.3)  # let every worker finish starting up
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, err
    assert out == "" and "checkpoint saved" in err
    state = load_checkpoint(ck, limit=LIMIT, segment_size=SEGMENT)
    assert not state.done and 2 < state.next_lo < LIMIT

    resumed = _start(method, "--checkpoint", str(ck))
    out, err = resumed.communicate(timeout=120)
    assert resumed.returncode == 0, err
    assert out == uninterrupted
