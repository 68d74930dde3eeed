"""Deterministic discrete-event engine: integer-ns clock, ordered queue, seeded RNG streams."""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

# All simulated time is an integer count of nanoseconds.  Protocol constants
# (SIFS, DIFS, slot, TXOP limit) are exact multiples of 1 ns, so interframe
# arithmetic never drifts.
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

SLOT_TIME = 9 * US          # DIFS = SIFS + 2*slot with SIFS 16us, DIFS 34us
SIFS = 16 * US
DIFS = 34 * US
TXOP_LIMIT = 3_008 * US


class PastEventError(RuntimeError):
    """Scheduling an event before the current virtual time is a programming error."""


@dataclass(slots=True)
class SimEvent:
    fire_time: int
    seq: int
    kind: str
    target: int
    fn: Callable[[], None] | None = None
    detail: str = ""

    def sort_key(self):
        return (self.fire_time, self.seq)


class EventQueue:
    """Heap of SimEvent ordered by (fire_time, seq); seq assigned at insertion."""

    def __init__(self):
        self._heap: list[tuple[tuple[int, int], SimEvent]] = []
        self._seq = 0

    def push(self, event: SimEvent) -> None:
        event.seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (event.sort_key(), event))

    def pop(self) -> SimEvent:
        return heapq.heappop(self._heap)[1]

    def peek_time(self) -> int | None:
        return self._heap[0][0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


class Simulator:
    """Single-threaded event loop.  One instance per run; no shared state between runs."""

    def __init__(self, trace: TextIO | None = None):
        self._queue = EventQueue()
        self._now = 0
        self._trace = trace
        self.scheduled = 0
        self.processed = 0

    @property
    def now(self) -> int:
        return self._now

    @property
    def pending(self) -> int:
        return len(self._queue)

    def schedule(self, event: SimEvent) -> SimEvent:
        if event.fire_time < self._now:
            raise PastEventError(
                f"past event: kind={event.kind} fire_time={event.fire_time} now={self._now}"
            )
        self._queue.push(event)
        self.scheduled += 1
        return event

    def at(self, fire_time: int, kind: str, target: int = -1,
           fn: Callable[[], None] | None = None, detail: str = "") -> SimEvent:
        return self.schedule(SimEvent(fire_time, 0, kind, target, fn, detail))

    def after(self, delay: int, kind: str, target: int = -1,
              fn: Callable[[], None] | None = None, detail: str = "") -> SimEvent:
        return self.at(self._now + delay, kind, target, fn, detail)

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_time <= t_end; leaves now == t_end."""
        if t_end < self._now:
            raise PastEventError(f"run_until into the past: {t_end} < {self._now}")
        n = 0
        while True:
            t = self._queue.peek_time()
            if t is None or t > t_end:
                break
            event = self._queue.pop()
            self._now = event.fire_time
            if self._trace is not None:
                self._trace.write(
                    f"{event.fire_time}\t{event.kind}\t{event.target}\t{event.detail}\n"
                )
            if event.fn is not None:
                event.fn()
            self.processed += 1
            n += 1
        self._now = t_end
        return n


def _child_seed(seed: int, stream_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{stream_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class RngStream:
    """A purpose-labelled random stream; identical (seed, stream_id) replays identically."""

    seed: int
    stream_id: str
    rng: random.Random = field(init=False)

    def __post_init__(self):
        self.rng = random.Random(_child_seed(self.seed, self.stream_id))

    def randint(self, a: int, b: int) -> int:
        return self.rng.randint(a, b)

    def random(self) -> float:
        return self.rng.random()

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
        bits = self.rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        words = np.frombuffer(bits, dtype="<u4").reshape(k, 2)
        return ((words[:, 0] >> 5) * 67108864.0 + (words[:, 1] >> 6)) \
            * (1.0 / 9007199254740992.0)

    def uniform(self, a: float, b: float) -> float:
        return self.rng.uniform(a, b)

    def gauss(self, mu: float, sigma: float) -> float:
        return self.rng.gauss(mu, sigma)

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
        rng = self.rng
        start = 0
        if rng.gauss_next is not None:
            out[0] = 0.0 + rng.gauss_next * sigma
            rng.gauss_next = None
            start = 1
        pairs = (k - start + 1) // 2
        if pairs == 0:
            return out
        bits = rng.getrandbits(128 * pairs).to_bytes(16 * pairs, "little")
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
            rng.gauss_next = math.sin(x2pi_last) * math.sqrt(
                -2.0 * math.log(1.0 - float(u[-1, 1])))
        return out

    def choice(self, seq):
        return self.rng.choice(seq)

    def sample(self, seq, k: int):
        return self.rng.sample(seq, k)

    def shuffle(self, seq) -> None:
        self.rng.shuffle(seq)


class RngSet:
    """Per-purpose streams so adding a feature does not perturb unrelated draws."""

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, RngStream] = {}

    def stream(self, stream_id: str) -> RngStream:
        if stream_id not in self._streams:
            self._streams[stream_id] = RngStream(self.seed, stream_id)
        return self._streams[stream_id]
