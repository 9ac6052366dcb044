"""Host-speed sampling, so times from a noisy shared host compare.

On the 2-CPU benchmark host the CPU runs the same pure-Python loop up
to ~45% slower for seconds to minutes at a time, and the two CPUs do
not slow down together: other tenants load the same cores.  The
process's CPU time stretches with its wall time, so it is not
descheduling.  Raw wall times of one workload then spread by 30%
across runs, which hides any real change.

:class:`SpeedProbe` runs this file as a side process that times a
fixed pure-Python kernel every :data:`PERIOD_S` seconds (a ~7% duty
cycle on one CPU) for the whole run, on each CPU in turn.  The mean
kernel time inside a time window, divided by
:data:`REFERENCE_KERNEL_S`, is the host's slowdown factor there; a
time measured in that window divided by the factor is the time at the
reference speed.  The kernel depends on nothing in the repository, so
no change to the program can move it.

Run directly, the file is the sampler: once a line arrives on its
standard input it prints the CPU list, then one line per kernel run:
start time, CPU, kernel CPU seconds, and every CPU's busy ticks.
"""

from __future__ import annotations

import itertools
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

#: Seconds between kernel runs.
PERIOD_S = 0.05

#: Shortest window a factor is taken over; a shorter one (a 10 ms
#: request) is widened around its middle, so every factor averages
#: about sixty samples or more.
MIN_WINDOW_S = 3.0

#: Kernel CPU time on the 2-CPU benchmark host in its usual state;
#: the unit of the slowdown factor, so normalized times read close
#: to raw ones.
REFERENCE_KERNEL_S = 0.0035


def kernel() -> int:
    """A fixed amount of interpreter-heavy pure-Python work.

    Allocation, tuple keys, dict probes, a sort with a key function
    and branches, like the workloads' inner loops, so it slows down
    with the host much as they do.
    """
    table = {}
    rows = []
    for index in range(3000):
        key = (index * 2654435761) % 4093
        row = (key, index, str(key))
        rows.append(row)
        table[key, index & 7] = row
    rows.sort(key=lambda row: row[2])
    total = 0
    for key, index, text in rows:
        hit = table.get((key, index & 7))
        if hit is not None and hit[1] & 1:
            total += len(text)
        else:
            total -= 1
    return total


def busy_ticks(cpus: Sequence[int]) -> List[int]:
    """Cumulative busy clock ticks of each CPU in ``cpus`` so far."""
    busy = {}
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                user, nice, system, _, _, irq, softirq = map(
                    int, fields[:7]
                )
                busy[int(name[3:])] = user + nice + system + irq + softirq
    return [busy[cpu] for cpu in cpus]


def sample() -> None:
    """The sampler loop: time the kernel until stdin has a line.

    Each run is pinned to the next CPU in turn, so every CPU is
    sampled, and is timed in CPU time, so a run that waits for a CPU
    the workload keeps busy is not counted slow.  Each line also
    carries every CPU's busy ticks, which weight the CPUs by how much
    the workload ran on them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    lines = [" ".join(map(str, cpus)) + "\n"]
    for turn in itertools.count():
        cpu = cpus[turn % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        start = time.monotonic()
        cpu_start = time.thread_time()
        kernel()
        seconds = time.thread_time() - cpu_start
        busy = " ".join(map(str, busy_ticks(cpus)))
        lines.append(f"{start!r} {cpu} {seconds!r} {busy}\n")
        ready, _, _ = select.select(
            [sys.stdin], [], [], max(0.0, start + PERIOD_S - time.monotonic())
        )
        if ready:
            break
    sys.stdout.write("".join(lines))


class Sample(NamedTuple):
    """One kernel run: when, on which CPU, how long, busy ticks then."""

    start: float
    cpu: int
    seconds: float
    busy: Tuple[int, ...]


class SpeedProbe:
    """The sampler side process and the slowdown factors it measured."""

    def __init__(self) -> None:
        self.cpus: List[int] = []
        self.samples: List[Sample] = []
        self._proc: Optional[subprocess.Popen[str]] = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop the sampler and collect its samples."""
        if self._proc is None:
            return
        output, _ = self._proc.communicate("stop\n", timeout=60)
        self._proc = None
        header, *lines = output.splitlines()
        self.cpus = [int(cpu) for cpu in header.split()]
        for line in lines:
            start, cpu, seconds, *busy = line.split()
            self.samples.append(Sample(
                float(start), int(cpu), float(seconds),
                tuple(int(ticks) for ticks in busy),
            ))

    def factor(self, start: float, end: float) -> float:
        """Host slowdown over [start, end] against the reference speed.

        Each CPU's slowdown is the mean of its samples inside the
        window (widened to :data:`MIN_WINDOW_S` when shorter); the
        factor weights them by each CPU's busy ticks in the window, so
        a single-threaded phase is judged by the CPU it ran on.
        """
        middle = (start + end) / 2
        half = max(end - start, MIN_WINDOW_S) / 2
        inside = [
            sample for sample in self.samples
            if middle - half <= sample.start <= middle + half
        ]
        if len(inside) < 2:
            inside = self.samples
        if len(inside) < 2:
            raise RuntimeError("the host-speed sampler took no samples")
        overall = statistics.fmean(sample.seconds for sample in inside)
        weighted = total = 0.0
        for index, cpu in enumerate(self.cpus):
            ticks = inside[-1].busy[index] - inside[0].busy[index]
            on_cpu = [
                sample.seconds for sample in inside if sample.cpu == cpu
            ]
            weighted += ticks * (
                statistics.fmean(on_cpu) if on_cpu else overall
            )
            total += ticks
        mean = weighted / total if total > 0 else overall
        return mean / REFERENCE_KERNEL_S


if __name__ == "__main__":
    sample()
