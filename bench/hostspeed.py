"""Host-speed normalisation for timings taken on a shared host.

On a host whose cores are shared with other tenants the same pass can
run twice as slow for seconds or minutes at a time, and CPU time slows
with wall time, so neither a longer run nor the fastest sample removes
it. ``HostSpeed`` times a fixed loop between measured
operations and rescales each operation's time by how slow the loop ran
around it: a sample becomes the time it would have taken at the speed
where the loop takes ``REFERENCE_S`` seconds. The loop does not use the
package under test, so a change to the package moves the rescaled
times as it moves the raw ones. The loop must run on the CPU the timed
work runs on; run.py pins itself and its subprocesses to one CPU.
"""

from __future__ import annotations

import random
from time import perf_counter

# A fixed scale, near the loop's time on an uncontended core of a 2-vCPU
# Xeon VM with Python 3.11.7; rescaled times are times at that speed.
REFERENCE_S = 0.045
LIST_LENGTH = 6_000
LOOP_STEPS = 1_000


def reference_loop() -> None:
    """Move-to-front over a list of strings, found by ``list.index``.

    Of the loops tried, this one slowed most nearly as the engine passes
    and CLI stages did: a dict-and-float loop slowed more than they did
    in the host's slow phases, so rescaling by it overcorrected.
    """
    rng = random.Random(12345)
    symbols = [str(i) for i in range(LIST_LENGTH)]
    stack = list(symbols)
    for _ in range(LOOP_STEPS):
        symbol = symbols[rng.randrange(LIST_LENGTH)]
        stack.insert(0, stack.pop(stack.index(symbol)))


def time_loop() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


class HostSpeed:
    """Rescales operation times by the reference loop timed around them.

    Call ``rescale`` right after each timed operation: it times the loop
    once more and uses the mean of that and the previous loop time.
    """

    def __init__(self):
        self.last = time_loop()
        self.loops = [self.last]

    def rescale(self, elapsed: float) -> float:
        after = time_loop()
        self.loops.append(after)
        around = (self.last + after) / 2
        self.last = after
        return elapsed * REFERENCE_S / around
