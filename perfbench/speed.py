"""Host-speed probe for the end-to-end metrics.

The host this benchmark was built on changes speed under a run: a fixed
loop's time swings 1.5-3x within seconds, CPU time tracks wall time
exactly (the slowdown is the host's, not scheduling), and the two cores
do not slow together. A reference measured before or after a run, or on
the other core, does not track it. A probe sharing the run's own core
does: the harness pins itself to one CPU and starts this module as a
process on the same CPU, so the kernel interleaves the two every few
milliseconds and both see the same host speed. The probe repeats fixed
interpreter work (no ``repro`` code) and logs the wall and CPU time at
the end of each pass. Over any interval, its CPU seconds per pass
measure how fast the core ran; a run's CPU seconds times
``NOMINAL_S / probe seconds per pass`` is the time the run would take
on a host where a pass takes ``NOMINAL_S``. Measured over 20 s windows
of DFSIO runs, a run's CPU cost per operation correlated with the
probe at 0.96, and the window-to-window spread of the scaled rate was a
quarter of the unscaled one.

Run as ``python3 perfbench/speed.py LOG``; it logs until terminated.
"""

from __future__ import annotations

import bisect
import heapq
import math
import os
import subprocess
import sys
import time
from pathlib import Path

#: Probe CPU seconds per pass at the reference host speed.
NOMINAL_S = 0.005
#: Give up waiting for the probe's first passes after this long.
START_TIMEOUT_S = 30.0


def probe_pass() -> float:
    """Fixed interpreter work: dict updates, a bounded heap, floats, allocation."""
    heap: list = []
    table: dict = {}
    total = 0.0
    for i in range(5000):
        key = i % 997
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (i * 7919 % 10007, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        total += math.sqrt(i)
        table[-1] = [key, total]
    return total


def pin_to_one_cpu() -> None:
    """Pin this process to its lowest allowed CPU; children inherit it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Context manager running the probe process on this process's CPU."""

    def __init__(self, log_path: Path) -> None:
        self.log_path = log_path
        self._walls: list[float] = []
        self._cpus: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        self.log_path.unlink(missing_ok=True)
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.log_path)]
        )
        deadline = time.perf_counter() + START_TIMEOUT_S
        while not self._read() or len(self._walls) < 2:
            if time.perf_counter() > deadline or self._proc.poll() is not None:
                self.__exit__()
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait(timeout=30)
        self._read()

    def _read(self) -> bool:
        try:
            text = self.log_path.read_text(encoding="ascii")
        except FileNotFoundError:
            return False
        # Drop the last line: it is empty or still being written.
        rows = [line.split() for line in text.split("\n")[:-1]]
        self._walls = [float(wall) for wall, _ in rows]
        self._cpus = [float(cpu) for _, cpu in rows]
        return True

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per CPU second of this core over [start, end].

        ``start`` and ``end`` are ``time.perf_counter()`` readings, which
        are system-wide on Linux, so any process's interval works. The
        probe passes used are the whole passes covering the interval.
        """
        first = max(0, bisect.bisect_left(self._walls, start) - 1)
        last = min(len(self._walls) - 1, bisect.bisect_right(self._walls, end))
        if last - first < 2:
            raise RuntimeError("the speed probe logged too few passes")
        per_pass = (self._cpus[last] - self._cpus[first]) / (last - first)
        return NOMINAL_S / per_pass


def main(log_path: str) -> None:
    with open(log_path, "w", encoding="ascii", buffering=1) as log:
        while True:
            probe_pass()
            log.write(f"{time.perf_counter()} {time.process_time()}\n")


if __name__ == "__main__":
    main(sys.argv[1])
