"""Host-speed probe: a fixed CPU kernel timed between a workload's operations.

On a shared host the CPU time of identical work drifts by tens of percent,
within a run and between runs, as other tenants load the caches, the
memory bus and the sibling hyper-threads.  The probe times a fixed kernel
that uses only the interpreter, numpy and math (nothing of ris_detnet),
interleaved with the workload's operations, and turns the local median of
its samples into a speed factor: 1.0 is the reference speed, 1.3 means the
host currently runs CPU work 30% slower.  Every timing the benchmark
reports is the measured CPU time divided by the local factor, so a change
to the program moves it as before while the host's drift largely cancels.

The cache-resident kernel (CACHE_PARTS) has four parts, each modelled on
a kind of work the package does: interpreter-bound bookkeeping, small
dense layers with their gradients (neural), element-wise log/exp over a
64x64 tile and a Gauss-Legendre tensor quadrature (mellin).  Parts react
differently to different kinds of contention; the factor is the
geometric mean of the parts' own factors.

The streaming kernel (STREAM_PARTS) models queuesim instead: cumulative
sums, running extrema and a sorted search over arrays of a million
slots.

Each sample runs the kernel once untimed first, so the timed pass starts
warm (code and data in cache, the allocator holding the pages its
temporaries need) whatever the program did before it.
"""
import gc
import math
import statistics
import time

import numpy as np

# per-part CPU time of one pass on the reference host, a 2-CPU Xeon VM at
# 2.0 GHz in a quiet period (stream: set so that its factor agreed with the
# cache-resident one there); factors are relative to these
REFERENCE_MS = {"interp": 0.19, "mlp": 0.31, "tile": 0.32, "quad": 0.22, "stream": 30.0}
WINDOW = 10             # samples each side of an operation in its local factor

_rng = np.random.default_rng(20251018)     # its own stream: no program RNG is touched
_TILE = _rng.random((64, 64))
_TILE_W = _rng.random(64)
_X = _rng.standard_normal((32, 24))
_W1 = _rng.standard_normal((24, 64)) / 8.0
_W2 = _rng.standard_normal((64, 64)) / 8.0
_W3 = _rng.standard_normal((64, 8)) / 8.0
_NODES = {}
for _order in (16, 32):
    _x, _w = np.polynomial.legendre.leggauss(_order)
    _NODES[_order] = ((_x + 1.0) / 2.0, _w / 2.0)


def _interp():
    table, acc = {}, 0
    for i in range(1200):
        k = i % 97
        table[k] = table.get(k, 0) + i
        acc += (i * 7) % 13
    return acc


def _mlp():
    acc = 0.0
    for _ in range(5):
        h1 = np.maximum(_X @ _W1, 0.0)
        h2 = np.maximum(h1 @ _W2, 0.0)
        g = h2 @ _W3 - 1.0
        g2 = (g @ _W3.T) * (h2 > 0.0)
        g1 = (g2 @ _W2.T) * (h1 > 0.0)
        acc += float((h2.T @ g).sum() + (h1.T @ g2).sum() + (_X.T @ g1).sum())
    return acc


def _tile():
    acc = 0.0
    for i in range(16):
        acc += float(np.exp(-np.log1p(_TILE * (1.0 + 1e-3 * i))) @ _TILE_W @ _TILE_W)
    return acc


def _quad():
    acc = 0.0
    for i, order in enumerate((16, 32) * 4):
        x, w = _NODES[order]
        a, m = 0.2 + 0.05 * i, 2.0 + 0.5 * i
        ge = -np.log1p(-0.999 * x) / 0.7
        pen = np.sqrt((1.0 - 1.0 / (1.0 + ge) ** 2) / 100.0)
        gk = ge[:, None] - m * np.log1p(-0.99 * x)[None, :]
        lt = a * (np.log1p(ge)[:, None] - np.log1p(gk)) + (a * pen - ge / m)[:, None]
        acc += math.exp(-a) * float(w @ (np.exp(lt) @ w))
    return acc


_SLOTS = 1_000_000
_stream_data = []       # built on first use: only the oracle pays its memory


def _stream():
    if not _stream_data:
        rng = np.random.default_rng(20251019)
        arrivals = rng.poisson(0.2, _SLOTS) * 1024.0
        _stream_data.extend((arrivals, rng.exponential(200.0, _SLOTS),
                             np.sort(rng.random(_SLOTS // 5)) * arrivals.sum()))
    arrivals, service, levels = _stream_data
    cum_arr, cum_srv = np.cumsum(arrivals), np.cumsum(service)
    run_min = np.minimum.accumulate(np.minimum(cum_arr - cum_srv, 0.0))
    departures = np.maximum.accumulate(cum_srv + run_min)
    return int(np.searchsorted(departures, levels).sum())


CACHE_PARTS = {"interp": _interp, "mlp": _mlp, "tile": _tile, "quad": _quad}
STREAM_PARTS = {"stream": _stream}


class SpeedProbe:
    """Collects kernel samples and gives the speed factor around each one."""

    def __init__(self, parts=CACHE_PARTS):
        self.parts = parts
        self.samples = {name: [] for name in parts}

    def __len__(self):
        return len(next(iter(self.samples.values())))

    def sample(self, n=1):
        """Run the kernel n times, each after an untimed pass."""
        clock = time.process_time
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                for name, part in self.parts.items():
                    part()
                    t0 = clock()
                    part()
                    self.samples[name].append(clock() - t0)
        finally:
            if enabled:
                gc.enable()

    def factor(self, lo=0, hi=None):
        """Speed factor from the samples lo..hi-1 (all by default)."""
        logs = [math.log(statistics.median(v[lo:hi]) / (1e-3 * REFERENCE_MS[name]))
                for name, v in self.samples.items()]
        return math.exp(sum(logs) / len(logs))

    def local_factors(self):
        """Factor around each sample, from WINDOW samples on each side."""
        n = len(self)
        return [self.factor(max(0, k - WINDOW), min(n, k + WINDOW + 1)) for k in range(n)]

    def scale(self, times, marks):
        """Divide each CPU time by the factor at its mark.

        marks[i] is the number of samples taken before times[i] ended, so
        the i-th operation is scaled by the factor around the sample that
        followed it (the last one when none did).
        """
        local = self.local_factors()
        last = len(local) - 1
        return [t / local[min(k, last)] for t, k in zip(times, marks)]
