import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ris_detnet import queuesim
from ris_detnet.channel import LinkStats
from ris_detnet.config import default_config
from ris_detnet.env import RisDownlinkEnv
from ris_detnet.fbc import SecrecyParams, dispersion, fbc_secrecy_rate, q_inv
from ris_detnet.mellin import ArrivalModel, ServiceModel, violation_bound
from ris_detnet.queuesim import (BLOCK_SLOTS, FLUSH_BITS, QueueResult, _rice_parts,
                                 fbc_service_sampler,
                                 model_matched_service_sampler, simulate_queue)

STATS = LinkStats(delta_k_sq=2e-9, upsilon_k=2e-9, rho=1e12, lambda_eve=1 / 30)
SECRECY = SecrecyParams(epsilon_e=2e-6, sigma_leak=1e-3, blocklength=64)
ARRIVAL = ArrivalModel(lambda_pkts=0.08, pkt_bits=16)


def brute_force_delays(arrivals, service, pkt_bits):
    """Slot-by-slot FIFO fluid queue; independent oracle for the vectorised
    Lindley computation.  Nonnegative service only.  Returns per-packet
    virtual delays in arrival order."""
    arrived = 0.0
    served = 0.0
    queue = []          # (arrival_slot, cumulative bit level)
    delays = []
    for t in range(len(arrivals)):
        for _ in range(arrivals[t]):
            arrived += pkt_bits
            queue.append((t, arrived))
        served = min(arrived, served + max(service[t], 0.0))
        while queue and queue[0][1] <= served + 1e-9:
            t_arr, _ = queue.pop(0)
            delays.append(t - t_arr)
    return delays


def whole_array_queue(arrival, service_sampler, horizon_slots, n_packets, rng,
                      warmup_slots=200, censor_margin=200):
    """Oracle: the Lindley pass over the whole horizon at once, with every
    packet's departure looked up before the analysed ones are picked."""
    t_slots = int(horizon_slots)
    arrivals = rng.poisson(arrival.lambda_pkts, t_slots)
    service = np.asarray(service_sampler(rng, t_slots), dtype=float)
    x = float(arrival.pkt_bits)
    cum_arr = np.cumsum(arrivals) * x
    cum_srv = np.cumsum(np.where(service >= FLUSH_BITS, cum_arr + x, service))
    y = cum_arr - cum_srv
    run_min = np.minimum.accumulate(np.minimum(y, 0.0))
    departures = np.maximum.accumulate(cum_srv + run_min)
    pkt_slot = np.repeat(np.arange(t_slots), arrivals)
    if pkt_slot.size == 0:
        return QueueResult(np.empty(0), t_slots)
    pkt_level = x * np.arange(1, pkt_slot.size + 1)
    dep_idx = np.searchsorted(departures, pkt_level, side="left")
    delay = (dep_idx - pkt_slot).astype(float)
    delay[dep_idx >= t_slots] = np.inf
    keep = (pkt_slot >= warmup_slots) & (pkt_slot < t_slots - censor_margin)
    return QueueResult(delay[keep][:n_packets], t_slots)


@contextlib.contextmanager
def analysed_slots(warmup, censor):
    """Run the oracle inside the block with WARMUP_SLOTS = warmup and
    CENSOR_SLOTS = censor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queuesim, "WARMUP_SLOTS", warmup)
        mp.setattr(queuesim, "CENSOR_SLOTS", censor)
        yield


def whole_array_physical_sampler(stats, secrecy):
    """Oracle: the physical sampler's formulas over whole-length arrays."""
    n_mult = float(secrecy.blocklength)

    def sampler(rng, n_slots):
        gamma_e = rng.exponential(1.0 / stats.lambda_eve, n_slots)
        sd = math.sqrt(stats.rho * stats.delta_k_sq / 2.0)
        re = rng.normal(math.sqrt(stats.rho * stats.upsilon_k), sd, n_slots)
        im = rng.normal(0.0, sd, n_slots)
        rate = fbc_secrecy_rate(re ** 2 + im ** 2, gamma_e, secrecy)
        success = rng.random(n_slots) >= secrecy.epsilon_e
        return n_mult * rate * success

    return sampler


def whole_array_model_sampler(stats, secrecy):
    """Oracle: the model-matched sampler's formulas over whole-length arrays."""
    n_cbl = secrecy.blocklength
    pen_u = q_inv(secrecy.epsilon_e) / math.sqrt(n_cbl)
    qinv_sigma = q_inv(secrecy.sigma_leak)
    finite_mass = math.exp(-stats.upsilon_k / stats.delta_k_sq)

    def sampler(rng, n_slots):
        gamma_e = rng.exponential(1.0 / stats.lambda_eve, n_slots)
        gamma_k = rng.exponential(stats.rho * stats.delta_k_sq, n_slots)
        finite = rng.random(n_slots) < finite_mass
        wedge = finite & (gamma_k >= gamma_e)
        pen_e = np.sqrt(dispersion(gamma_e) / n_cbl) * qinv_sigma
        log2_u = (np.log2(1.0 + gamma_k) - np.log2(1.0 + gamma_e)
                  - (pen_u + pen_e) / math.log(2.0))
        bits = np.where(wedge, log2_u, FLUSH_BITS)
        success = rng.random(n_slots) >= secrecy.epsilon_e
        return bits * success

    return sampler


def cursor_sampler(service):
    """A sampler that serves the next n values of ``service`` on each call;
    ``sampler.served`` counts the values served so far."""
    def sampler(_rng, n):
        sampler.served += n
        return service[sampler.served - n:sampler.served]

    sampler.served = 0
    return sampler


EDGE_HORIZONS = [0, 1, BLOCK_SLOTS - 1, BLOCK_SLOTS, BLOCK_SLOTS + 1]


@settings(max_examples=60, deadline=None, derandomize=True)
@example(horizon=3 * BLOCK_SLOTS + 7, lam=0.5, load=0.9, flush_share=0.0,
         neg_share=0.0, tenths=True, warmup=0, censor=0, n_packets=10 ** 9, seed=0)
@example(horizon=BLOCK_SLOTS + 1, lam=0.5, load=1.5, flush_share=0.001,
         neg_share=0.05, tenths=False, warmup=-3, censor=-3, n_packets=10 ** 9,
         seed=3)
@example(horizon=BLOCK_SLOTS, lam=0.001, load=0.5, flush_share=0.3,
         neg_share=0.2, tenths=False, warmup=BLOCK_SLOTS, censor=0, n_packets=5,
         seed=1)
@example(horizon=300, lam=3.0, load=0.9, flush_share=0.01, neg_share=0.1,
         tenths=False, warmup=10, censor=400, n_packets=10, seed=2)
@given(horizon=st.sampled_from(EDGE_HORIZONS) | st.integers(0, 3 * BLOCK_SLOTS + 7),
       lam=st.sampled_from([0.001, 0.05, 0.5, 3.0]), load=st.floats(0.3, 2.0),
       flush_share=st.sampled_from([0.0, 0.001, 0.3]),
       neg_share=st.sampled_from([0.0, 0.05, 0.5]), tenths=st.booleans(),
       warmup=st.integers(-3, 4 * BLOCK_SLOTS), censor=st.integers(-3, 4 * BLOCK_SLOTS),
       n_packets=st.integers(0, 3000) | st.just(10 ** 9), seed=st.integers(0, 2 ** 16))
def test_block_queue_equals_whole_array_pass(horizon, lam, load, flush_share,
                                             neg_share, tenths, warmup, censor,
                                             n_packets, seed):
    # slot blocks with carried sums give every delay bit for bit, across
    # block edges, flush slots, negative service (the model sampler's
    # penalty sliver), idle stretches at low lambda, empty analysed ranges
    # and packet counts cut below the analysed count.  Service in tenths of
    # a packet puts departures on packet levels up to rounding, so a float
    # sum taken in another order moves delays.
    x = 16
    svc_rng = np.random.default_rng(seed)
    service = svc_rng.normal(lam * x / load, lam * x, horizon)
    if tenths:
        service = np.round(service * 10.0 / x) * (x / 10.0)
    neg = svc_rng.random(horizon) < neg_share
    service[neg] = -np.abs(service[neg])
    service[svc_rng.random(horizon) < flush_share] = FLUSH_BITS
    arrival = ArrivalModel(lam, x)
    blocks = cursor_sampler(service)
    with analysed_slots(warmup, censor):
        got = simulate_queue(arrival, blocks, horizon, n_packets,
                             np.random.default_rng(seed))
    want = whole_array_queue(arrival, cursor_sampler(service), horizon, n_packets,
                             np.random.default_rng(seed), warmup, censor)
    assert got.delays.dtype == want.delays.dtype
    assert np.array_equal(got.delays, want.delays)
    # the slots simulated: those the sampler served, at most the horizon
    assert got.n_slots == blocks.served <= want.n_slots == horizon


@pytest.mark.parametrize("horizon", [0, 1, BLOCK_SLOTS + 1, 10 * BLOCK_SLOTS])
def test_n_slots_counts_the_slots_simulated(horizon):
    # 200 packets at lambda 0.08 all depart within the first block, so a
    # long horizon stops after it; n_slots is the sum of the block lengths
    # the sampler was asked for
    asked = []
    model = model_matched_service_sampler(STATS, SECRECY)

    def sampler(rng, n):
        asked.append(n)
        return model(rng, n)

    res = simulate_queue(ARRIVAL, sampler, horizon, 200, np.random.default_rng(9))
    assert res.n_slots == sum(asked) <= horizon
    if horizon == 10 * BLOCK_SLOTS:
        assert np.all(np.isfinite(res.delays)) and res.n_packets == 200
        assert res.n_slots == BLOCK_SLOTS


@pytest.mark.parametrize("n_slots", EDGE_HORIZONS + [3 * BLOCK_SLOTS + 7])
@pytest.mark.parametrize("kind", ["physical", "model"])
def test_block_samplers_equal_whole_array_samplers(kind, n_slots):
    # one sampler call draws its n slots in the old order and applies the
    # old formulas: same bits, and the stream ends in the same place
    if kind == "model":
        fast = model_matched_service_sampler(STATS, SECRECY)
        slow = whole_array_model_sampler(STATS, SECRECY)
    else:
        fast = fbc_service_sampler(STATS, SECRECY)
        slow = whole_array_physical_sampler(STATS, SECRECY)
    rng_fast, rng_slow = np.random.default_rng(11), np.random.default_rng(11)
    got, want = fast(rng_fast, n_slots), slow(rng_slow, n_slots)
    assert got.shape == want.shape == (n_slots,)
    assert np.array_equal(got, want)
    assert rng_fast.bit_generator.state == rng_slow.bit_generator.state
    if kind == "model" and n_slots > BLOCK_SLOTS:
        # the cases the block code must carry: flushes and negative service
        assert np.any(got >= FLUSH_BITS) and np.any(got < 0.0)


@pytest.mark.parametrize("kind", ["model", "physical"])
def test_slot_block_stream_matches_whole_length_stream(kind):
    # the oracle draws per slot block, so its random stream differs from
    # the whole-length one the test oracles compose; on the reference link
    # statistics both estimate the same tail probabilities within Monte-Carlo
    # error (4 combined 95% half-widths), seeds as simulate draws them
    cfg = default_config()
    env = RisDownlinkEnv(cfg)
    power, cbl = env.p_max / env.n_users, env.n_max / env.n_users
    secrecy = cfg.build_secrecy(cbl)
    new_sampler, old_sampler = {
        "model": (model_matched_service_sampler, whole_array_model_sampler),
        "physical": (fbc_service_sampler, whole_array_physical_sampler)}[kind]
    n_pkt = 100_000
    horizon = int(n_pkt / env.arrival.lambda_pkts * 1.3) + 2000
    for user in range(env.n_users):
        stats = env.link_stats(user, power, 0)
        for seed in (1, 2, 3):
            new = simulate_queue(env.arrival, new_sampler(stats, secrecy), horizon,
                                 n_pkt, np.random.default_rng([seed, 40, user]))
            old = whole_array_queue(env.arrival, old_sampler(stats, secrecy), horizon,
                                    n_pkt, np.random.default_rng([seed, 40, user]))
            assert new.n_packets == old.n_packets == n_pkt
            for t in (2, 8):
                (p_new, ci_new), (p_old, ci_old) = new.tail_prob(t), old.tail_prob(t)
                assert abs(p_new - p_old) <= 4 * math.hypot(ci_new, ci_old), \
                    f"user {user} seed {seed} t={t}: {p_new} vs {p_old}"


@settings(max_examples=30, deadline=None, derandomize=True)
@given(blocks=st.integers(1, 3), kind=st.sampled_from(["model", "physical"]),
       lam=st.sampled_from([0.02, 0.08, 0.3]), n_packets=st.integers(1, 6000),
       warmup=st.integers(0, BLOCK_SLOTS), censor=st.integers(0, BLOCK_SLOTS),
       seed=st.integers(0, 2 ** 16))
def test_horizon_only_caps_the_stream(blocks, kind, lam, n_packets, warmup, censor,
                                      seed):
    # a horizon H of whole blocks whose run analyses every packet asked for
    # and sees each depart: the run at 4H draws the same blocks, analyses the
    # same packets and stops at the same slot, so every delay bit agrees
    make = model_matched_service_sampler if kind == "model" else fbc_service_sampler
    arrival = ArrivalModel(lam, 16)
    horizon = blocks * BLOCK_SLOTS

    def run(h):
        with analysed_slots(warmup, censor):
            return simulate_queue(arrival, make(STATS, SECRECY), h, n_packets,
                                  np.random.default_rng(seed))

    short = run(horizon)
    assume(short.n_packets == n_packets and np.all(np.isfinite(short.delays)))
    assert np.array_equal(short.delays, run(4 * horizon).delays)


def test_peak_memory_does_not_grow_with_horizon():
    # 4M slots of the physical sampler at a light load, so the queue never
    # stops early: whole-length draws would need 32 MB per array, the slot
    # blocks keep only a block's temporaries alive
    tracemalloc.start()
    try:
        res = simulate_queue(ArrivalModel(0.001, 16), fbc_service_sampler(STATS, SECRECY),
                             4_000_000, 10 ** 9, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_packets > 3000
    assert peak < 24 * 8 * BLOCK_SLOTS


def test_overwhelming_service_all_sojourns_one():
    # deterministic service large enough to clear any burst in one slot
    lam, x = 0.4, 16
    arr = ArrivalModel(lam, x)
    sampler = lambda rng, n: np.full(n, x * 10.0 * max(1.0, lam))
    with analysed_slots(10, 10):
        res = simulate_queue(arr, sampler, 5000, 2000, np.random.default_rng(0))
    assert res.n_packets > 0
    assert np.all(res.delays == 0.0)


def test_starved_arrivals_empty_sample():
    arr = ArrivalModel(1e-9, 16)
    sampler = lambda rng, n: np.ones(n)
    res = simulate_queue(arr, sampler, 2000, 100, np.random.default_rng(0))
    assert res.n_packets == 0
    p, ci = res.tail_prob(2)
    assert math.isnan(p) and math.isnan(ci)


def test_deterministic_under_seed():
    sampler = fbc_service_sampler(STATS, SECRECY)
    a = simulate_queue(ARRIVAL, sampler, 50_000, 3000, np.random.default_rng(7))
    b = simulate_queue(ARRIVAL, sampler, 50_000, 3000, np.random.default_rng(7))
    assert np.array_equal(a.delays, b.delays)


def test_vectorised_queue_matches_slot_loop_oracle(monkeypatch):
    rng = np.random.default_rng(3)
    lam, x = 0.5, 8
    arrivals = rng.poisson(lam, 4000)
    service = np.maximum(rng.normal(6.0, 6.0, 4000), 0.0)

    class FixedSampler:
        def __call__(self, _rng, n):
            return service[:n]

    monkeypatch.setattr(queuesim, "WARMUP_SLOTS", 0)
    res = simulate_queue(ArrivalModel(lam, x), FixedSampler(), 4000, 10 ** 9,
                         np.random.default_rng(99))
    # replay with identical arrivals: regenerate them the same way the
    # simulator does
    sim_arrivals = np.random.default_rng(99).poisson(lam, 4000)
    oracle = brute_force_delays(sim_arrivals, service, x)
    assert res.n_packets <= len(oracle)
    assert np.allclose(res.delays, oracle[:res.n_packets])


def test_tail_and_window_probabilities_consistent():
    delays = np.array([0, 0, 1, 2, 3, 5, 9, np.inf])
    res = QueueResult(delays, 100)
    p2, _ = res.tail_prob(2)
    assert p2 == pytest.approx(4 / 8)      # delays 3, 5, 9, inf
    w, _ = res.window_prob(1, 9)
    assert w == pytest.approx(3 / 8)       # delays 2, 3, 5


def test_ci_width_shrinks_with_packets():
    sampler = model_matched_service_sampler(STATS, SECRECY)
    widths = []
    for n_pkt, slots in ((1000, 40_000), (10_000, 300_000), (100_000, 1_600_000)):
        res = simulate_queue(ARRIVAL, sampler, slots, n_pkt,
                             np.random.default_rng(5))
        assert res.n_packets == n_pkt
        widths.append(res.tail_prob(1)[1])
    assert widths[0] > widths[1] > widths[2]
    # roughly 1/sqrt(n): a decade of packets shrinks the CI ~3.2x
    assert widths[0] / widths[1] == pytest.approx(math.sqrt(10), rel=0.35)
    assert widths[1] / widths[2] == pytest.approx(math.sqrt(10), rel=0.35)


def test_physical_sampler_service_structure():
    sampler = fbc_service_sampler(STATS, SECRECY)
    bits = sampler(np.random.default_rng(1), 20000)
    assert np.all(bits >= 0.0)
    assert np.all(np.isfinite(bits))


def test_snr_sampler_moments():
    re, im = _rice_parts(STATS, np.random.default_rng(2), 400_000)
    want_mean = STATS.rho * (STATS.upsilon_k + STATS.delta_k_sq)
    assert np.mean(re ** 2 + im ** 2) == pytest.approx(want_mean, rel=0.02)


def test_bound_dominance_central_oracle():
    # the module's central test: analytic kernel bound dominates the
    # model-matched queue on seeded scenarios at both window edges
    svc = ServiceModel(STATS, SECRECY)
    b = {t: violation_bound(t, ARRIVAL, svc).bound for t in (2, 8)}
    sampler = model_matched_service_sampler(STATS, SECRECY)
    for seed in (42, 7, 2026):
        res = simulate_queue(ARRIVAL, sampler, 1_200_000, 100_000,
                             np.random.default_rng(seed))
        for t in (2, 8):
            emp, ci = res.tail_prob(t)
            assert emp <= b[t] + 2 * ci, f"seed {seed} t={t}: {emp} > {b[t]}"
