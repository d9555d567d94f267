"""A fixed pure-Python loop that gauges how fast the machine runs right now.

On a shared virtual machine each vCPU flips between a fast and a slow phase
(about 1.5x apart, switching several times a second), and the share of time
spent slow drifts over minutes.  A library call of seconds averages over the
phases, so its time follows the drift: on a 2-vCPU VM the layered n = 8 proof
took between 3.4 s and 6.8 s within one hour.  The runner times this
loop between passes and rescales every timing of the run to the loop's
nominal speed, which takes most of that drift out.

The loop walks compositions and matches layer profiles greedily, the kind of
small-integer list work the library does.  It lives here, not in the
library, so that a change to the library never changes the gauge.  Changing
this file rescales every timing metric; never change it in a change that is
measured against its parent.
"""

from __future__ import annotations

import time

# One chunk's time at the nominal speed: about the chunk's fastest time on a
# 2-vCPU Intel Xeon VM.  It only sets the scale of the rescaled timings.
NOMINAL_S = 0.012
CHUNK_RANKS = 4000
CHUNK_HITS = 2029
_M = 13
_PROFILES = ((3, 1, 2), (1, 1, 1, 2), (2, 2, 1), (1, 3, 1))


def _fits(profile, parts) -> bool:
    j, count = 0, len(parts)
    for size in profile:
        while j < count and parts[j] < size:
            j += 1
        if j == count:
            return False
        j += 1
    return True


def chunk() -> tuple[float, int]:
    """(seconds, hits) of one chunk; hits is always CHUNK_HITS."""
    t0 = time.perf_counter()
    full = (1 << (_M - 1)) - 1
    hits = 0
    for r in range(CHUNK_RANKS):
        mask = full - (r * 2654435761) % full
        parts = []
        cur = 1
        for i in range(_M - 1):
            if (mask >> (_M - 2 - i)) & 1:
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        if all(_fits(p, parts) for p in _PROFILES):
            hits += 1
    return time.perf_counter() - t0, hits
