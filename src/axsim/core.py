"""Deterministic discrete-event core: an integer-ns clock, one heap of
callbacks, and seeded per-purpose random streams."""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from typing import Callable

import numpy as np

# All simulated time is an integer count of nanoseconds.  Protocol constants
# (SIFS, DIFS, slot) are exact multiples of 1 ns, so interframe
# arithmetic never drifts.
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

SLOT_TIME = 9 * US          # DIFS = SIFS + 2*slot with SIFS 16us, DIFS 34us
SIFS = 16 * US
DIFS = 34 * US


class PastEventError(RuntimeError):
    """Scheduling an event before the current virtual time is a programming error."""


class Simulator:
    """Single-threaded event loop over one heap of (fire_time, seq, fn)
    entries.  seq is the count of seqs handed out before, so events at one
    time fire in the order their seqs were handed out.  `at` hands out one
    seq and pushes at it; `reserve` hands out a run of seqs that `at_seq`
    pushes at later, each at most once, so an event pushed late keeps the
    place it was given.  `scheduled` counts the seqs handed out, reserved
    ones included.  One instance per run; no shared state between runs."""

    def __init__(self):
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self.now = 0
        self.scheduled = 0
        self.processed = 0

    def reserve(self, k: int) -> int:
        """Hand out k consecutive seqs; returns the first."""
        first = self.scheduled
        self.scheduled = first + k
        return first

    def at_seq(self, fire_time: int, seq: int, fn: Callable[[], None]) -> None:
        """Push fn at (fire_time, seq), a seq handed out by `reserve` or `at`."""
        if fire_time < self.now:
            raise PastEventError(f"past event: fire_time={fire_time} now={self.now}")
        if not 0 <= seq < self.scheduled:
            raise ValueError(f"seq {seq} was never handed out")
        heapq.heappush(self._heap, (fire_time, seq, fn))

    def at(self, fire_time: int, fn: Callable[[], None]) -> None:
        seq = self.scheduled
        self.scheduled = seq + 1
        self.at_seq(fire_time, seq, fn)

    def after(self, delay: int, fn: Callable[[], None]) -> None:
        self.at(self.now + delay, fn)

    def drop_pending(self) -> None:
        """Forget every event not yet processed."""
        self._heap.clear()

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_time <= t_end; leaves now == t_end."""
        if t_end < self.now:
            raise PastEventError(f"run_until into the past: {t_end} < {self.now}")
        heap = self._heap
        pop = heapq.heappop
        n = 0
        while heap and heap[0][0] <= t_end:
            self.now, _, fn = pop(heap)
            fn()
            n += 1
        self.processed += n
        self.now = t_end
        return n


def _child_seed(seed: int, stream_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{stream_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream(random.Random):
    """A purpose-labelled random stream, made by ``RngSet.stream``; an
    identical (seed, stream_id) replays identically.  Adds array forms of
    ``random()`` and ``gauss()`` that leave the stream where the scalar
    calls would."""

    def random_array(self, k: int) -> np.ndarray:
        """k draws equal to k calls of ``random()``, as one array, leaving the
        stream where those calls would.

        ``random()`` builds a uniform from two Mersenne Twister words a, b
        as ((a >> 5) * 2**26 + (b >> 6)) / 2**53.  The 2k words come from
        one ``getrandbits`` call, in generation order as in ``gauss_array``;
        the arithmetic is exact in float64, so every draw is too.
        """
        if k == 0:
            return np.empty(0)
        bits = self.getrandbits(64 * k).to_bytes(8 * k, "little")
        words = np.frombuffer(bits, dtype="<u4").reshape(k, 2)
        return ((words[:, 0] >> 5) * 67108864.0 + (words[:, 1] >> 6)) \
            * (1.0 / 9007199254740992.0)

    def gauss_array(self, k: int, sigma: float) -> np.ndarray:
        """k draws equal to k calls of ``gauss(0.0, sigma)``, as one array,
        leaving the stream where those calls would.

        ``random.gauss`` makes its normals in Box-Muller pairs from two
        ``random()`` uniforms and keeps the pair's second value for the next
        call.  Here the Mersenne Twister words of every pair come from one
        ``getrandbits`` call (its words in generation order, least
        significant first), each uniform is built from two words as
        ``random()`` builds it, and the pairs are transformed with numpy.
        numpy's log, cos and sin may differ from the math module's in the
        last ulp, so a draw may too; the uniforms, and so the stream, are
        exact.  A value carried to the next call is computed with the math
        module, as ``gauss`` would.
        """
        out = np.empty(k)
        if k == 0:
            return out
        start = 0
        if self.gauss_next is not None:
            out[0] = 0.0 + self.gauss_next * sigma
            self.gauss_next = None
            start = 1
        pairs = (k - start + 1) // 2
        if pairs == 0:
            return out
        bits = self.getrandbits(128 * pairs).to_bytes(16 * pairs, "little")
        words = np.frombuffer(bits, dtype="<u4").reshape(pairs, 2, 2)
        # random(): (a >> 5) * 2**26 + (b >> 6), over 2**53
        u = ((words[:, :, 0] >> 5) * 67108864.0 + (words[:, :, 1] >> 6)) \
            * (1.0 / 9007199254740992.0)
        x2pi = u[:, 0] * random.TWOPI
        g2rad = np.sqrt(-2.0 * np.log(1.0 - u[:, 1]))
        z = np.empty(2 * pairs)
        z[0::2] = np.cos(x2pi) * g2rad
        z[1::2] = np.sin(x2pi) * g2rad
        out[start:] = z[:k - start] * sigma
        if (k - start) % 2:
            x2pi_last = float(u[-1, 0]) * random.TWOPI
            self.gauss_next = math.sin(x2pi_last) * math.sqrt(
                -2.0 * math.log(1.0 - float(u[-1, 1])))
        return out


class RngSet:
    """Per-purpose streams so adding a feature does not perturb unrelated draws."""

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, RngStream] = {}

    def stream(self, stream_id: str) -> RngStream:
        if stream_id not in self._streams:
            self._streams[stream_id] = RngStream(_child_seed(self.seed, stream_id))
        return self._streams[stream_id]
