"""Discrete-time FCFS fluid-bit queue: Monte-Carlo oracle for the delay bounds.

Each slot, Poisson(lambda) packets of x bits arrive and the server drains a
random number of service bits drawn from a pluggable per-slot sampler.  The
Lindley backlog recursion is evaluated in closed form (cumulative arrivals
minus cumulative service, less its running minimum) and per-packet delays
are recovered from cumulative departures.

Every random variate is drawn whole-length, one generator call each in a
fixed order, so the stream is that of a single pass over the horizon.  The
work after the draws -- the samplers' rate formulas and the Lindley pass --
runs in blocks of BLOCK_SLOTS slots that stay in the L2 cache.  The Lindley
pass carries four values across block boundaries: the arrival count, the
service sum and the running minimum and maximum; each float carry is folded
into the block's first element before the running sum or extremum, so every
sequential sum is bit-identical to one whole-array pass.  Delays are looked
up only for the analysed packets.

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
    bound controls at matching horizon.
    """

    delays: np.ndarray
    n_slots: int
    warmup_slots: int

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


def _blocks(n_slots: int):
    """Consecutive slices of at most BLOCK_SLOTS slots covering [0, n_slots)."""
    return (slice(i, i + BLOCK_SLOTS) for i in range(0, n_slots, BLOCK_SLOTS))


def simulate_queue(arrival: ArrivalModel, service_sampler, horizon_slots: int,
                   n_packets: int, rng: np.random.Generator,
                   warmup_slots: int = WARMUP_SLOTS,
                   censor_margin: int = CENSOR_SLOTS) -> QueueResult:
    """Run the fluid-bit FCFS queue and collect packet delays.

    Simulates ``horizon_slots`` slots; packets arriving inside
    [warmup_slots, horizon - censor_margin) are analysed, truncated to the
    first ``n_packets``.  Arrivals join at the start of a slot and can be
    served within it: a packet arriving and fully served in slot t has
    virtual delay 0 (sojourn 1).
    """
    t_slots = int(horizon_slots)
    arrivals = rng.poisson(arrival.lambda_pkts, t_slots)
    service = np.asarray(service_sampler(rng, t_slots), dtype=float)
    if service.shape != (t_slots,):
        raise ValueError("service sampler must return one value per slot")

    x = float(arrival.pkt_bits)
    # the analysed slots [lo, hi), clipped to the horizon
    lo = min(max(warmup_slots, 0), t_slots)
    hi = min(max(t_slots - censor_margin, lo), t_slots)
    pkt_slot = np.repeat(np.arange(lo, hi), arrivals[lo:hi])[:n_packets]
    first = int(arrivals[:lo].sum())     # packets that arrived before slot lo
    pkt_level = x * np.arange(first + 1, first + pkt_slot.size + 1)
    dep_idx = np.full(pkt_slot.size, t_slots)
    # a flush slot only ever needs to drain the whole offered load; capping
    # there keeps the cumulative sums small enough for exact float arithmetic
    flush_cap = int(arrivals.sum()) * x + x

    # carries: arrivals so far, then the service sum, running minimum and
    # departures at the end of the previous block (each starts neutral)
    n_arr, c_srv, c_min, c_dep = 0, -0.0, np.inf, -np.inf
    done = 0        # leading analysed packets whose departure slot is known
    for sl in _blocks(t_slots):
        if done == pkt_level.size:      # later slots serve no analysed packet
            break
        cum_arr = np.cumsum(arrivals[sl])
        cum_arr += n_arr
        n_arr = int(cum_arr[-1])
        cum_srv = np.where(service[sl] >= FLUSH_BITS, flush_cap, service[sl])
        cum_srv[0] = c_srv + cum_srv[0]
        np.cumsum(cum_srv, out=cum_srv)
        c_srv = cum_srv[-1]
        # Lindley in closed form: backlog(t) = Y(t) - min_{u<=t} Y(u), Y = A - C
        run_min = cum_arr * x
        run_min -= cum_srv
        np.minimum(run_min, 0.0, out=run_min)
        run_min[0] = np.minimum(c_min, run_min[0])
        np.minimum.accumulate(run_min, out=run_min)
        c_min = run_min[-1]
        departures = cum_srv + run_min
        departures[0] = np.maximum(c_dep, departures[0])
        np.maximum.accumulate(departures, out=departures)  # departed bits never recede
        c_dep = departures[-1]
        # pending packets whose level the block's last departure reaches
        # leave inside this block
        stop = done + int(np.searchsorted(pkt_level[done:], c_dep, side="right"))
        dep_idx[done:stop] = sl.start + np.searchsorted(
            departures, pkt_level[done:stop], side="left")
        done = stop

    delay = (dep_idx - pkt_slot).astype(float)
    delay[dep_idx >= t_slots] = np.inf
    return QueueResult(delay, t_slots, warmup_slots)


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
        u_success = rng.random(n_slots)
        for sl in _blocks(n_slots):     # each block overwrites the gamma_e it used
            gamma_k = re[sl] ** 2 + im[sl] ** 2
            rate = fbc_secrecy_rate(gamma_k, gamma_e[sl], secrecy)
            gamma_e[sl] = n_mult * rate * (u_success[sl] >= secrecy.epsilon_e)
        return gamma_e

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
        u_finite = rng.random(n_slots)
        u_success = rng.random(n_slots)
        for sl in _blocks(n_slots):     # each block overwrites the gamma_e it used
            ge, gk = gamma_e[sl], gamma_k[sl]
            wedge = (u_finite[sl] < finite_mass) & (gk >= ge)
            log2_u = (np.log2(1.0 + gk) - np.log2(1.0 + ge)
                      - (secrecy.pen_u + secrecy.pen_e(ge)) / math.log(2.0))
            bits = np.where(wedge, log2_u, FLUSH_BITS)
            gamma_e[sl] = bits * (u_success[sl] >= secrecy.epsilon_e)
        return gamma_e

    return sampler
