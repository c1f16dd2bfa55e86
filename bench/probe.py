"""Machine-speed probe.

The benchmark machine is shared, and its speed drifts by tens of percent
over tens of seconds: one fixed Python loop read 16.8 ms and, 15 s later,
24 ms.  That is far more than the bounds the benchmark gates on.  So every
reported time is divided by the machine's slowness, read from this probe
between ops.  Over 34 passes of ``explore``, the log pass time had a
standard deviation of 15.6%; after dividing by the probe it was 4.9%.  A
numpy log1p probe, a random-gather probe and an object-churn probe each
tracked worse, and averaging them in did not help.  ``mc-bulk``, which
runs in numpy, follows this probe less closely than the interpreter-bound
workloads do.

The probe is benchmark code, so a change to the program cannot make it
faster.  It imports nothing but ``time``, so the set-up probe can run it in
a fresh interpreter before importing zicarq.
"""

import time

LOOP = 20000
REFERENCE_S = 1.1e-3   # the loop's time on a quiet machine


def slowness() -> float:
    """How many times slower than the reference the machine runs now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i
    return (time.perf_counter() - t0) / REFERENCE_S
