"""Host-speed probe: rescales measured times to one reference host speed.

On a shared machine the speed a process gets changes by up to half, in
spells that last from under a second to minutes: the same optimizer call
took 3.7 s in one minute and 6.2 s in the next, and process CPU time moved
with wall time, so the slowdown is in the CPU and its caches, not in
waiting.  Wall times of two runs of the same code then differ by more than
any useful regression bound, whatever the run length.

The probe is a fixed piece of pure Python that touches no secembed code, so
its time follows the host's speed and nothing else.  It has two parts of
about equal weight: an arithmetic loop, which follows the speed of the core,
and random reads from a list of floats larger than a core's 2 MiB L2 cache,
which follow the caches and memory that neighbours on the host also use.
The coefficient of variation of repeated identical jobs was 6-17% in wall
time, 3.4-5.7% rescaled by the loop alone and 2.4-3.1% with the reads
added.

While a timed call runs, ``Sampler`` runs the probe every ``PERIOD_S``
seconds from a SIGALRM handler in the same thread (about 5% of the call's
time, which is subtracted again).  A time is rescaled by
``REFERENCE_PROBE_S / mean probe time``: it is what the call would have
taken on a host where the probe takes ``REFERENCE_PROBE_S``.

Set-up samples are single fresh interpreters, in which the list would be
freshly built and still cached, so they use the loop alone
(``loop_probe``).

Changing the probe or its reference times changes every rescaled value, so
runs compare only at the same version of this file.  The probe assumes one
busy Python thread: a program that ran Python threads next to the main one
would slow the probe and flatter its own rescaled time, so check such a
change on the wall times in the run record too.  The list adds about 6 MB
to the workload process's peak resident memory, at every commit alike.
"""

from __future__ import annotations

import signal
import time

REFERENCE_PROBE_S = 0.005  # about probe()'s time on the 2-core VM the benchmark was tuned on
REFERENCE_LOOP_S = 0.003  # the same for loop_probe()
PERIOD_S = 0.1
LOOP_ITERATIONS = 40_000
LIST_LENGTH = 150_000  # floats of 24 bytes plus 8-byte slots: about 5 MB of data
LIST_READS = 6_000

# filled by the first probe() of a process
_values: list[float] = []
_order: list[int] = []


def _fill() -> None:
    """The list and the order of its reads, the same on every run (a linear
    congruential generator rather than ``random``, whose import would load
    modules before set-up is timed)."""
    _values.extend(i + 0.5 for i in range(LIST_LENGTH))
    x = 12345
    for _ in range(LIST_READS):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        _order.append(x % LIST_LENGTH)


def loop_probe() -> float:
    """Seconds the probe's arithmetic loop alone takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the whole probe, loop and reads, takes now.  The first call
    of a process builds the list and takes longer."""
    if not _values:
        _fill()
    start = time.perf_counter()
    loop_probe()
    total = 0.0
    for j in _order:
        total += _values[j]
    return time.perf_counter() - start


def rescale(seconds: float, probes: list[float], reference: float = REFERENCE_PROBE_S) -> float:
    """``seconds`` measured while the probe took ``probes``, rescaled to the
    host speed at which it takes ``reference``."""
    return seconds * reference * len(probes) / sum(probes)


class Sampler:
    """Runs the probe every ``PERIOD_S`` seconds while a ``with`` block runs.

    ``samples`` collects every probe time, across blocks; ``spent(since)`` is
    the time the probes from sample ``since`` on took, for subtracting from a
    block's wall time.  Only the main thread can use it (signals).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def spent(self, since: int) -> float:
        return sum(self.samples[since:])

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
