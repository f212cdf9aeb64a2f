"""Reference of the abnormal detector's method (i), one window at a time.

`fire_axis` walks the half-overlapping windows in a Python loop, slicing
each axis and taking its peak-to-peak change. The tests require
`bsnsim.classify._fire_axis` to mark exactly the same samples.
"""

import numpy as np

from bsnsim.classify import _AXIS_DELTA_THRESHOLD_G


def fire_axis(trace, w: int) -> np.ndarray:
    """Every sample of each firing window of `w` samples, windows starting every
    `max(1, w // 2)` samples up to the first one that reaches the trace's end."""
    n = len(trace)
    hop = max(1, w // 2)
    fired = np.zeros(n, dtype=bool)
    for start in range(0, n, hop):
        end = min(n, start + w)
        for arr in (trace.ax, trace.ay, trace.az):
            seg = arr[start:end]
            if seg.max() - seg.min() > _AXIS_DELTA_THRESHOLD_G:
                fired[start:end] = True
                break
        if end == n:
            break
    return fired
