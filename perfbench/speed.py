"""A speed probe that puts measured times on one reference speed.

The machines this benchmark runs on share their cores, and their speed
drifts by tens of percent over tens of seconds.  Medians within a run do not
remove such drift, so two runs of the same code can disagree by more than
any useful regression bound.  The probe is a fixed piece of pure-Python
exact arithmetic that uses nothing from polysplit; it is timed between the
jobs of one process, and each job's time is scaled by ``REFERENCE_S / p``,
where ``p`` is the mean of the probes just before and just after the job.
A reported time is thus what the job would take on a machine where the probe
takes ``REFERENCE_S``.  A change to polysplit cannot change the probe.
"""

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0025  # about the probe's median on a 2-core Xeon VM
GAP_S = 0.5           # probe before a job when the last probe is older


def _reference_work():
    """A memoized recursion over tuple keys with Fraction values: the mix
    of dict traffic and exact arithmetic that polysplit's own loops do."""
    memo = {}

    def walk(n, k):
        if n == 0 or k == 0:
            return Fraction(1)
        key = (n, k)
        value = memo.get(key)
        if value is None:
            value = walk(n - 1, k) + walk(n, k - 1) * Fraction(k, n + k)
            memo[key] = value
        return value

    return walk(24, 12)


def probe():
    """The median of three timings of the reference work, in seconds."""
    times = []
    for _ in range(3):
        began = perf_counter()
        _reference_work()
        times.append(perf_counter() - began)
    return sorted(times)[1]


class Timeline:
    """Probes interleaved with a sequence of jobs.

    Call ``before_job()`` before each job and ``finish()`` after the last.
    ``probes`` holds (number of jobs before the probe, probe seconds).
    """

    def __init__(self):
        self.probes = []
        self._jobs = 0
        self._last = None

    def _take(self):
        self.probes.append((self._jobs, probe()))
        self._last = perf_counter()

    def before_job(self):
        if self._last is None or perf_counter() - self._last >= GAP_S:
            self._take()
        self._jobs += 1

    def finish(self):
        self._take()


def local_probe(probes, i):
    """Mean of the last probe before job i and the first one after it."""
    before = [t for slot, t in probes if slot <= i][-1]
    after = next(t for slot, t in probes if slot > i)
    return (before + after) / 2


def scale(seconds, probe_s):
    """Seconds at the reference speed; a job timed without probes
    (probe_s None) is reported as timed."""
    return seconds if probe_s is None else seconds * REFERENCE_S / probe_s
