"""Time one set-up in a fresh interpreter: import stabnet and generate the inputs.

Usage: python3 bench/probe_setup.py WORKLOAD SEED
Prints the set-up time in seconds at the reference host speed, then the
wall time it was scaled from (see speed.py).  run.py starts this several
times per run and reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import speed  # noqa: E402  (before the clock starts: it is not set-up work)

# samples often enough to cover a set-up of about 0.1 s
with speed.Speedometer(interval=0.004) as meter:
    spent = meter.spent
    start = time.perf_counter()
    import workloads  # noqa: E402  (imports stabnet)

    workloads.WORKLOADS[sys.argv[1]].generate(int(sys.argv[2]))
    wall = time.perf_counter() - start - (meter.spent - spent)
    scale = meter.scale(0)
print(wall * scale, wall)
