"""Pieces shared by the benchmark's processes: paths, unit accounting,
percentiles and the recorded answers the workloads are checked against."""

import hashlib
import json
import os
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def jsonable(obj):
    """Counts as they compare after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(obj, sort_keys=True))


class Units:
    """Runs units of work one after another and records, for each, its kind,
    name, latency and failure.  A unit is a claim, a family graph or member,
    or a request; it fails when it raises or when its check returns a reason.
    `current` names the running unit, so that trace spans can carry it."""

    def __init__(self, clock=time.perf_counter):
        self.records = []  # [kind, name, seconds, failure reason or None]
        self.windows = []  # (start, end) of each unit by time.perf_counter
        self.current = None
        self.clock = clock  # measures the seconds of a unit

    def run(self, kind, name, fn):
        self.current = "%s:%s" % (kind, name)
        start, t0 = time.perf_counter(), self.clock()
        try:
            reason = fn()
        except Exception as exc:  # a raising unit is a failed unit, the run goes on
            reason = "raised %s: %s" % (type(exc).__name__, exc)
        seconds = self.clock() - t0
        self.current = None
        self.records.append([kind, name, seconds, reason])
        self.windows.append((start, time.perf_counter()))
        return reason

    @property
    def failures(self):
        return [r for r in self.records if r[3] is not None]


def hd_median(xs):
    """Harrell-Davis estimate of the median: the mean of the sorted values
    weighted by the Beta((n+1)/2, (n+1)/2) mass on each ((i-1)/n, i/n).
    On the 25 claims of `representations` the plain median is one claim;
    this spreads it over the middle five to seven."""
    xs = sorted(xs)
    n = len(xs)
    e = (n - 1) / 2
    steps = 8  # Simpson's rule on each interval; the density is (4x(1-x))^e

    def mass(i):
        h = 1 / (n * steps)
        f = [(4 * x * (1 - x)) ** e for x in (i / n + k * h for k in range(steps + 1))]
        return h / 3 * (f[0] + f[-1] + 4 * sum(f[1:-1:2]) + 2 * sum(f[2:-1:2]))

    w = [mass(i) for i in range(n)]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def latency_summary(seconds):
    """Median (Harrell-Davis) and 99th percentile (inclusive method,
    interpolated) of unit latencies, with the number of samples beyond the
    99th percentile."""
    xs = sorted(seconds)
    p99 = statistics.quantiles(xs, n=100, method="inclusive")[98] if len(xs) > 1 else xs[0]
    return {
        "samples": len(xs),
        "p50_ms": hd_median(xs) * 1e3,
        "p99_ms": p99 * 1e3,
        "samples_beyond_p99": sum(1 for x in xs if x > p99),
    }


def src_digest():
    """Digest of the library sources, which identifies the code measured
    where no git metadata is available."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bmlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]
