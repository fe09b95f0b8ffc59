"""The host's speed, timed with a fixed loop that never touches matroidalkit.

A shared virtual machine's speed drifts by 15-50% over minutes, with
slower phases lasting tens of seconds: one round of a fixed corpus takes
from 12.1 s to 14.0 s at different times, and the set-up time moves with
it. No choice of corpus or estimator inside a run removes that drift, so a
run times this loop right before and right after every measurement, and
scales the measured time by NOMINAL_S over the loop's mean time around it.
A scaled time reads as the time on a host where the loop takes NOMINAL_S.

The loop does what matroidalkit spends its time on: it builds tuples of
small ints, counts them in a dict of 8192 keys, folds them into a set and
sorts it. Over five runs of each workload, in a phase when the raw figures
spread over 21-52% of their median (max minus min), scaling each op by
this loop left 3-19%, and scaling by a pure integer loop 6-22%. The
collector is off while the loop runs and the loop keeps nothing alive, so
the collector's settings and the package's caches do not change its time;
it adds about 0.5 MiB to the worker's peak RSS. A trace or profile hook
would change its time, so loop_time() refuses to run under one.
"""

from __future__ import annotations

import gc
import sys
import time

NOMINAL_S = 0.008
LOOP_STEPS = 24_000


class SpeedError(RuntimeError):
    """The speed loop cannot be timed fairly in this interpreter."""


def loop_time():
    """Seconds one run of the fixed loop takes now."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise SpeedError("a trace or profile hook is installed; the speed loop would slow")
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts = {}
        for i in range(LOOP_STEPS):
            key = (i & 31, (i >> 5) & 255)
            counts[key] = counts.get(key, 0) + 1
        folded = set()
        for key, count in counts.items():
            folded.add((key[0] ^ key[1]) + count)
        sorted(folded)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
