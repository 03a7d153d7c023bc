"""A speed reference for the end-to-end times.

The shared host this benchmark was sized on changes speed from one moment to
the next: a fixed pure-Python loop takes 44 ms or 70 ms depending on load
outside the machine, in stretches of a tenth of a second to tens of seconds,
and CPU time follows wall time.  Raw times of the same job then spread by a
quarter between runs, and the two CPUs change speed independently.

So run.py pins itself, its jobs and a sampler process to one CPU.  The
sampler runs `unit()` -- fixed pure-Python work that imports nothing from
chartab, so no change to chartab changes its speed -- at low priority for
as long as the jobs run, and publishes how many units it finished and the CPU
time they took.  Sharing the CPU in slices of a few milliseconds, the sampler
and a job see the same speed, so over any job

    scale = REFERENCE_UNIT_S / (sampler CPU time / sampler units)

turns the job's times into the times it would take at the reference speed.
The sampler takes about a tenth of the CPU; its CPU time during a job is taken
out of that job's wall time.

    python3 bench/speed.py --sampler FILE      # what Sampler starts
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

# Sampler CPU time per unit() at the reference speed: about its time on the
# 2-vCPU machine the baseline was measured on, when that machine ran fast.
REFERENCE_UNIT_S = 0.0003
SAMPLER_NICE = 10                # a share of about 1/10 next to a job at nice 0
_RECORD = struct.Struct("qqq")   # units, CPU ns, units again (a torn read differs)

_N = 5
_GENERATORS = ((1, 0) + tuple(range(2, _N)), tuple(range(1, _N)) + (0,))


def unit() -> int:
    """Close S5 under two generators and sum some fractions: tuples, sets and
    rationals, as chartab's own work uses them."""
    seen = {tuple(range(_N))}
    frontier = list(seen)
    while frontier:
        grown = []
        for p in frontier:
            for g in _GENERATORS:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    grown.append(q)
        frontier = grown
    total = Fraction(0)
    for k in range(1, 20):
        total += Fraction(k % _N + 1, k)
    return len(seen) + total.numerator % 2


@dataclass(frozen=True)
class Reading:
    units: int
    cpu_s: float


@dataclass(frozen=True)
class Window:
    """The sampler's work between two readings."""

    start: Reading
    end: Reading

    @property
    def cpu_s(self) -> float:
        return self.end.cpu_s - self.start.cpu_s

    @property
    def scale(self) -> float:
        units = self.end.units - self.start.units
        if units < 1 or self.cpu_s <= 0:
            raise RuntimeError("the speed sampler finished no unit in the window")
        return REFERENCE_UNIT_S / (self.cpu_s / units)


class Sampler:
    """The sampler process, from start() to stop()."""

    def __init__(self, path):
        self.path = path
        self.proc = None
        self.map = None

    def start(self) -> None:
        with open(self.path, "wb") as fh:
            fh.write(bytes(_RECORD.size))
        with open(self.path, "r+b") as fh:
            self.map = mmap.mmap(fh.fileno(), _RECORD.size)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--sampler", str(self.path)]
        )
        while self.read().units == 0:
            if self.proc.poll() is not None:
                raise RuntimeError("the speed sampler exited")
            time.sleep(0.01)

    def read(self) -> Reading:
        while True:
            units, cpu_ns, again = _RECORD.unpack(self.map[:])
            if units == again:
                return Reading(units, cpu_ns / 1e9)

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None
        if self.map is not None:
            self.map.close()
            self.map = None


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU, so that the
    sampler times the CPU the jobs run on.  Where affinity cannot be set, do
    nothing."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _sample(path) -> None:
    os.nice(SAMPLER_NICE)
    parent = os.getppid()
    with open(path, "r+b") as fh:
        out = mmap.mmap(fh.fileno(), _RECORD.size)
    units = 0
    while os.getppid() == parent:   # stop if the benchmark is gone
        unit()
        units += 1
        out[:] = _RECORD.pack(units, time.process_time_ns(), units)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--sampler"] or len(sys.argv) != 3:
        sys.exit(__doc__.rsplit("\n\n", 1)[-1])
    _sample(sys.argv[2])
