"""Machine-speed reference: a fixed chunk of pure-Python work.

The machines this benchmark runs on share their hosts, and the speed of
the same pure-Python code drifts by 10-35% over tens of seconds to
minutes, process CPU time with it.  Timing a fixed chunk of work that
does not touch ``wasmsmell`` beside the program's calls gives the
machine's speed at that moment.  The benchmark scales every timing by
``REFERENCE_CHUNK_S`` over the mean chunk time measured next to it, so a
timing reads as it would at the reference speed.  A change to the
program moves the timings and leaves the chunk as it is.
"""

from __future__ import annotations

import gc
import io
import time
import tokenize

# About the median time of one chunk on the 2-core VM the benchmark was built on.
REFERENCE_CHUNK_S = 0.005
# Wall time between two chunks; a chunk costs about a tenth of a run.
EVERY_S = 0.05

_TEXT = "".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n"
    f"    if a > {i}:\n"
    f"        return [a * k for k in range(b[0])]  # comment {i}\n"
    f"    return {{'key': a, 'value': b}}\n\n"
    for i in range(20)
)


def chunk() -> float:
    """Run one chunk with the collector paused; return its wall time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        n = 0
        for tok in tokenize.generate_tokens(io.StringIO(_TEXT).readline):
            n += len(tok.string)
        d: dict[str, int] = {}
        for i in range(3000):
            d[str(i)] = d.get(str(i % 97), 0) + i + n
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Chunks run between the items of one round."""

    def __init__(self):
        self.times: list[float] = []
        self.last = time.perf_counter()

    def tick(self):
        """Run a chunk if EVERY_S has passed since the last one."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.times.append(chunk())
            self.last = time.perf_counter()

    def factor(self) -> float:
        """Reference chunk time over the mean measured one (at least one chunk)."""
        if not self.times:
            self.times.append(chunk())
        return REFERENCE_CHUNK_S * len(self.times) / sum(self.times)
