"""A host-speed probe that rescales timings to a reference speed.

On a shared host the speed of one core drifts: a fixed pure-Python loop can
take anywhere from 1x to 2x its best time, in phases that last from a
fraction of a second to tens of seconds.  Raw seconds of identical runs then
spread by more than a regression worth catching.

While a `SpeedProbe` is active, SIGALRM fires every INTERVAL_S and runs a
fixed pure-Python loop that touches no fieldsimp code; its duration measures
the host's speed at that moment.  `ref_seconds(t0, t1)` splits [t0, t1] at
the probes inside it, divides each piece by the mean duration of the two
probes on either side of it and multiplies by REF_S: the result is the
seconds the work would take on a host where the probe loop takes REF_S.  `seconds(t0, t1)` is the raw time
of the same interval.  Both leave the probes' own time out, and so does
`clock()`, for timers that run while the probe does.
"""

import bisect
import signal
import statistics
import time

# The host's speed changes within tens of milliseconds: on the reference
# machine, rescaling each piece by the two probes next to it, 10 to 25 ms
# apart, spread least of the windows tried (2 to 32 probes, 10 to 50 ms).
INTERVAL_S = 0.02
PROBE_ITERATIONS = 1000
# Median duration of the probe loop on the reference machine (2 cores,
# Python 3.11.7), so reference seconds read close to its wall seconds.
REF_S = 0.0008

CLOCK = time.perf_counter


def probe_loop():
    """Fixed work: big-integer arithmetic and dict updates, the mix of the
    program's exact arithmetic."""
    x, d = 12345, {}
    for i in range(PROBE_ITERATIONS):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        k = (i & 31, x & 3)
        d[k] = d.get(k, 0) + (x >> 40)
    return len(d)


class SpeedProbe:
    """Context manager: probes the host's speed while the block runs."""

    def __init__(self):
        self.starts = []        # clock at each probe's start
        self.ends = []          # clock when each probe's handler returned
        self.durations = []     # duration of each probe loop
        self.spent = 0.0        # seconds spent in the handler so far
        self._scale = None

    def _fire(self, signum=None, frame=None):
        t0 = CLOCK()
        probe_loop()
        t1 = CLOCK()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.ends.append(CLOCK())
        self.spent += self.ends[-1] - t0

    def __enter__(self):
        self._fire()
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._fire()
        durs = self.durations
        # _scale[k]: probe duration for the piece that ends at probe k
        self._scale = [durs[0]] + [(a + b) / 2
                                   for a, b in zip(durs, durs[1:])]

    def clock(self):
        """CLOCK with the probes' time taken out.  A probe that fires
        between its two reads skews one reading by one probe."""
        return CLOCK() - self.spent

    def _inside(self, t0, t1):
        """Indices of the probes that ran within [t0, t1]."""
        return range(bisect.bisect_left(self.starts, t0),
                     bisect.bisect_left(self.starts, t1))

    def seconds(self, t0, t1):
        """Raw seconds in [t0, t1], probes left out."""
        return (t1 - t0) - sum(self.ends[k] - self.starts[k]
                               for k in self._inside(t0, t1))

    def ref_seconds(self, t0, t1):
        """Seconds in [t0, t1] at the reference speed, probes left out."""
        inside = self._inside(t0, t1)
        total, a = 0.0, t0
        for k in inside:
            total += (self.starts[k] - a) / self._scale[k]
            a = self.ends[k]
        # the last probe runs after every timed interval, so this is in range
        total += (t1 - a) / self._scale[inside.stop]
        return total * REF_S

    def summary(self):
        return {"probes": len(self.durations),
                "probe_median_s": statistics.median(self.durations),
                "probe_min_s": min(self.durations)}
