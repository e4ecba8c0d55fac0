"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is what every use of the package pays first: ``import primegaps``
(which imports numpy) plus ``load_known_table()``, which parses the packaged
80-record table and checks all 160 record endpoints for primality.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import primegaps  # noqa: E402

primegaps.load_known_table()
print(time.perf_counter() - t0)
