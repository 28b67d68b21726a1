"""A gauge of the machine's speed, so that times from a shared machine compare.

On a shared host the same CPU work can take tens of percent longer in one
minute than in the next. The gauge measures that drift with a fixed piece of
pure-Python work, one *round*, that masks, groups and sorts short log lines
as the program does. While a child that uses one CPU runs, a thread of the
benchmark pinned to another CPU repeats rounds until the child exits, so the
gauge samples the same minutes as the measurement without taking a CPU from
it. With a single CPU the rounds run between children instead.

``speed()`` is ``ROUND_S`` over the mean measured round time: below 1 on a
machine slower than the reference, above 1 on a faster one. Multiplying a
measured compute time by it rescales the time to the reference machine.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

#: Reference seconds of one round: reported times are rescaled to a machine
#: on which a round takes this long.
ROUND_S = 0.02

#: Rounds run between children when there is no spare CPU.
SEQUENTIAL_ROUNDS = 10

_LINES = [
    " ".join(f"{word}{(line * 7 + index) % 97}" if index % 3 else word for index, word in enumerate(
        "worker node request queue shard blk 0x1f /srv/data/part7.log sid=42 finished".split()))
    for line in range(2000)
]


def _round() -> None:
    counts: dict = {}
    for line in _LINES:
        tokens = line.split()
        skeleton = tuple("<*>" if any(c.isdigit() for c in token) else token for token in tokens)
        counts[skeleton] = counts.get(skeleton, 0) + len(tokens)
        counts[line] = 1
    sorted(counts, key=str)


class SpeedGauge:
    def __init__(self) -> None:
        self.rounds = 0
        self.seconds = 0.0

    def _measure(self) -> None:
        started = time.perf_counter()
        _round()
        self.seconds += time.perf_counter() - started
        self.rounds += 1

    @contextmanager
    def alongside(self, cpu: int):
        """Repeat rounds on ``cpu`` until the block ends."""
        stop = threading.Event()

        def loop() -> None:
            os.sched_setaffinity(0, {cpu})  # this thread only
            while not stop.is_set():
                self._measure()

        thread = threading.Thread(target=loop, name="speed-gauge", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def between(self) -> None:
        """Run a fixed number of rounds now, for a machine with one CPU."""
        for _ in range(SEQUENTIAL_ROUNDS):
            self._measure()

    def speed(self) -> float:
        return ROUND_S * self.rounds / self.seconds
