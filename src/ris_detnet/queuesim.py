"""Discrete-time FCFS fluid-bit queue: Monte-Carlo oracle for the delay bounds.

Each slot, Poisson(lambda) packets of x bits arrive and the server drains a
random number of service bits drawn from a pluggable per-slot sampler.  The
Lindley backlog recursion is evaluated in closed form (cumulative arrivals
minus cumulative service, less its running minimum) and per-packet delays
are recovered from cumulative departures.

The horizon is simulated in blocks of BLOCK_SLOTS slots that stay in the L2
cache.  Each block draws its Poisson arrivals, then asks the sampler for its
service, then takes its Lindley step, so no array spans the horizon and the
run stops once every analysed packet has departed.  The pass carries four
values across block boundaries: the arrival count, the service sum and the
running minimum and maximum; each float carry is folded into the block's
first element before the running sum or extremum, so every sequential sum is
bit-identical to one whole-array pass over the same draws.

Two samplers are provided: the physical one (n_k * clamped secrecy rate on
decode success, 0 on failure) and a model-matched one that serves exactly
what the Mellin analysis assumes, making the analytic bound a sharp oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkStats
from .fbc import SecrecyParams, fbc_secrecy_rate
from .mellin import ArrivalModel

FLUSH_BITS = 1e30   # stands in for an infinite-service slot
WARMUP_SLOTS = 200  # leading slots whose packets are not analysed
CENSOR_SLOTS = 200  # trailing slots whose packets are not analysed
# Slots per block: 256 KiB per float64 array, so a block's handful of
# temporaries stays in a 2 MiB L2.  Blocks of 2^13 to 2^16 slots timed
# within noise of each other on a 2-CPU Xeon VM with 2 MiB L2 per core;
# BENCH_8.json compares the blocks with whole-array passes.
BLOCK_SLOTS = 1 << 15


@dataclass
class QueueResult:
    """Per-packet delays in slots.

    ``delays`` is the virtual delay W (0 = fully served within the arrival
    slot; inf = not departed within the horizon) — the quantity the kernel
    bound controls at matching horizon.  ``n_slots`` is the number of slots
    simulated, at most the horizon: the run stops early once every analysed
    packet has departed.
    """

    delays: np.ndarray
    n_slots: int

    @property
    def n_packets(self) -> int:
        return self.delays.size

    def _share(self, hit: np.ndarray):
        """(p_hat, 95% normal-CI half-width) for the share of packets hit."""
        n = self.n_packets
        if n == 0:
            return math.nan, math.nan
        p = float(np.mean(hit))
        return p, 1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)

    def tail_prob(self, t: float):
        """(p_hat, half_width) for Pr{W > t}."""
        return self._share(self.delays > t)

    def window_prob(self, t_min: float, t_max: float):
        """(p_hat, half_width) for Pr{t_min < W < t_max}."""
        return self._share((self.delays > t_min) & (self.delays < t_max))


def simulate_queue(arrival: ArrivalModel, service_sampler, horizon_slots: int,
                   n_packets: int, rng: np.random.Generator) -> QueueResult:
    """Run the fluid-bit FCFS queue and collect packet delays.

    Simulates at most ``horizon_slots`` slots; packets arriving inside
    [WARMUP_SLOTS, horizon - CENSOR_SLOTS) are analysed, truncated to the
    first ``n_packets``.  Arrivals join at the start of a slot and can be
    served within it: a packet arriving and fully served in slot t has
    virtual delay 0 (sojourn 1).  ``service_sampler(rng, n)`` is called once
    per block with the block's length and returns its n service values.
    """
    t_slots = int(horizon_slots)
    x = float(arrival.pkt_bits)
    # the analysed slots [lo, hi)
    lo = WARMUP_SLOTS
    hi = t_slots - CENSOR_SLOTS
    n_left = n_packets                  # analysed packets yet to arrive
    # analysed packets still queued: arrival slots and cumulative bit levels
    wait_slot, wait_level = np.empty(0, dtype=np.int64), np.empty(0)
    slots, deps = [], []                # departed ones, per block

    # carries: arrivals so far, then the service sum, running minimum and
    # departures at the end of the previous block (each starts neutral)
    n_arr, c_srv, c_min, c_dep = 0, -0.0, np.inf, -np.inf
    n_slots = 0                         # slots simulated
    for start in range(0, t_slots, BLOCK_SLOTS):
        if wait_level.size == 0 and (start >= hi or n_left <= 0):
            break                       # later slots serve no analysed packet
        n = min(BLOCK_SLOTS, t_slots - start)
        n_slots += n
        arrivals = rng.poisson(arrival.lambda_pkts, n)
        service = np.asarray(service_sampler(rng, n), dtype=float)
        if service.shape != (n,):
            raise ValueError("service sampler must return one value per slot")
        cum_arr = np.cumsum(arrivals)
        cum_arr += n_arr
        a, b = min(max(lo - start, 0), n), min(max(hi - start, 0), n)
        if a < b and n_left > 0:        # the block's analysed arrivals
            new_slot = np.repeat(np.arange(start + a, start + b),
                                 arrivals[a:b])[:n_left]
            first = int(cum_arr[a - 1]) if a else n_arr  # arrived before them
            wait_slot = np.concatenate((wait_slot, new_slot))
            wait_level = np.concatenate(
                (wait_level, x * np.arange(first + 1, first + new_slot.size + 1)))
            n_left -= new_slot.size
        n_arr = int(cum_arr[-1])
        # Lindley in closed form: backlog(t) = Y(t) - min_{u<=t} Y(u), Y = A - C
        run_min = cum_arr * x
        # a flush slot only ever needs to drain what has arrived so far;
        # capping there keeps the cumulative sums small enough for exact
        # float arithmetic
        cum_srv = np.where(service >= FLUSH_BITS, run_min + x, service)
        cum_srv[0] = c_srv + cum_srv[0]
        np.cumsum(cum_srv, out=cum_srv)
        c_srv = cum_srv[-1]
        run_min -= cum_srv
        np.minimum(run_min, 0.0, out=run_min)
        run_min[0] = np.minimum(c_min, run_min[0])
        np.minimum.accumulate(run_min, out=run_min)
        c_min = run_min[-1]
        departures = cum_srv + run_min
        departures[0] = np.maximum(c_dep, departures[0])
        np.maximum.accumulate(departures, out=departures)  # departed bits never recede
        c_dep = departures[-1]
        # waiting packets whose level the block's last departure reaches
        # leave inside this block
        stop = int(np.searchsorted(wait_level, c_dep, side="right"))
        slots.append(wait_slot[:stop])
        deps.append(start + np.searchsorted(departures, wait_level[:stop], side="left"))
        wait_slot, wait_level = wait_slot[stop:], wait_level[stop:]

    slots.append(wait_slot)             # not departed within the horizon
    deps.append(np.full(wait_slot.size, t_slots))
    dep_idx = np.concatenate(deps)
    delay = (dep_idx - np.concatenate(slots)).astype(float)
    delay[dep_idx >= t_slots] = np.inf
    return QueueResult(delay, n_slots)


def _rice_parts(stats: LinkStats, rng: np.random.Generator, size: int):
    """Real and imaginary parts of the Rician user amplitude: a complex
    Gaussian around the LoS mean, whose power is the user SNR."""
    los = math.sqrt(stats.rho * stats.upsilon_k)
    sd = math.sqrt(stats.snr_scale / 2.0)
    return rng.normal(los, sd, size), rng.normal(0.0, sd, size)


def fbc_service_sampler(stats: LinkStats, secrecy: SecrecyParams):
    """Physical per-slot service: n_k * R(gamma_k, gamma_e) on success, else 0.

    SNRs are drawn independently per slot (block fading), the user SNR from
    the Rician model; the rate uses the exact dispersion.
    """
    n_mult = float(secrecy.blocklength)

    def sampler(rng: np.random.Generator, n_slots: int) -> np.ndarray:
        gamma_e = rng.exponential(1.0 / stats.lambda_eve, n_slots)
        re, im = _rice_parts(stats, rng, n_slots)
        rate = fbc_secrecy_rate(re ** 2 + im ** 2, gamma_e, secrecy)
        return n_mult * rate * (rng.random(n_slots) >= secrecy.epsilon_e)

    return sampler


def model_matched_service_sampler(stats: LinkStats, secrecy: SecrecyParams):
    """Service distribution whose Mellin transform is exactly the analytic one.

    Per success slot: log2(u) bits on the wedge {finite gamma_k >= gamma_e}
    (possibly negative in the penalty sliver), and a queue flush elsewhere —
    the sub-normalised user density and the wedge restriction both encode
    "infinite service" mass.  Decode failures serve 0 bits.  Against this
    sampler the kernel bound is a sharp (theory-exact) upper bound.
    """
    finite_mass = math.exp(stats.los_log)

    def sampler(rng: np.random.Generator, n_slots: int) -> np.ndarray:
        gamma_e = rng.exponential(1.0 / stats.lambda_eve, n_slots)
        gamma_k = rng.exponential(stats.snr_scale, n_slots)
        wedge = (rng.random(n_slots) < finite_mass) & (gamma_k >= gamma_e)
        log2_u = (np.log2(1.0 + gamma_k) - np.log2(1.0 + gamma_e)
                  - (secrecy.pen_u + secrecy.pen_e(gamma_e)) / math.log(2.0))
        bits = np.where(wedge, log2_u, FLUSH_BITS)
        return bits * (rng.random(n_slots) >= secrecy.epsilon_e)

    return sampler
