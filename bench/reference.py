"""A fixed reference kernel that measures how fast the host runs Python now.

On a shared host the speed of one vCPU changes by up to ~1.8x within
seconds, as neighbours load the same physical cores; CPU time tracks wall
time, so the slowdown cannot be subtracted as waiting.  The benchmark
therefore times this kernel right before and after every timed run and
reports host-speed-normalised times:

    normalised_s = measured_s * NOMINAL_S / kernel_s

i.e. the seconds the run would take on a host where the kernel takes
NOMINAL_S.  The kernel is pure Python and does not import fbsecsim, so a
change to the simulator moves only `measured_s`.  Its mix (a heap-ordered
event loop over small objects, plus dict-heavy sequence matching) follows
the simulator's, so contention slows both by a similar factor.  Not the
same one: measured on a 2-vCPU VM, the kernel slows ~1.8x where single
simulator runs slow 1.5-1.7x, so a run measured wholly in a slow period
reads up to ~10% low, against up to ~60% high without normalisation.
"""

from __future__ import annotations

import difflib
import gc
import heapq
import time

# The kernel's time, rounded, on the 2-vCPU VM the benchmark was defined
# on.  It only sets the scale of the normalised times.
NOMINAL_S = 0.010

_LINES_A = [f"line {i} of the first text with value {(i * 37) % 11}" for i in range(300)]
_LINES_B = [f"line {i} of the first text with value {(i * 41) % 11}" for i in range(300)]
_TEXT_A = "the quick brown fox jumps over the lazy dog " * 12
_TEXT_B = "the quick brown cat leaps over the lazy dogs " * 12


class _Event:
    __slots__ = ("t", "kind")

    def __init__(self, t: int, kind: int):
        self.t = t
        self.kind = kind


def kernel() -> int:
    """Fixed work; returns a checksum so the result is used."""
    heap: list = []
    counts: dict[int, int] = {}
    x = 12345
    for seq in range(4000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x % 1000, seq, _Event(x, seq & 63)))
        if len(heap) > 64:
            event = heapq.heappop(heap)[2]
            counts[event.kind] = counts.get(event.kind, 0) + 1
    lines = difflib.SequenceMatcher(None, _LINES_A, _LINES_B).get_opcodes()
    text = difflib.SequenceMatcher(None, _TEXT_A, _TEXT_B).get_matching_blocks()
    return len(counts) + len(lines) + len(text)


def time_kernel() -> float:
    """Seconds the kernel takes now, on a heap without earlier garbage."""
    gc.collect()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def normalise(measured_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """`measured_s` at the nominal host speed, from the kernel times around it."""
    return measured_s * NOMINAL_S * 2 / (kernel_before_s + kernel_after_s)
