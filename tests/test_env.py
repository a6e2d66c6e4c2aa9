import gc
import json
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import ris_detnet as rd
from ris_detnet import channel, mellin
from ris_detnet.channel import (LinkStats, PhaseShiftConfig, composite_gain,
                                sample_channels)
from ris_detnet.env import (HybridAction, RisDownlinkEnv, StateVector,
                            build_codebook)
from ris_detnet.fbc import SecrecyParams
from ris_detnet.mellin import (QUADRATURE_PROFILES, SearchError, ServiceModel,
                               delay_determinacy)

REFERENCE_CFG = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"


def scenario(n_users=2, **overrides):
    cfg = rd.default_config()
    cfg.values["topology"]["n_users"] = n_users
    cfg.values["topology"]["n_elements"] = 8
    cfg.values["fading"]["eve_mean_snr"] = 0.5
    cfg.values["arrival"]["lambda_pkts"] = 0.1
    cfg.values["arrival"]["pkt_bits"] = 16
    cfg.values["budget"]["n_max"] = 256
    for path, value in overrides.items():
        section, key = path.split(".")
        cfg.values[section][key] = value
    return cfg


# ------------------------------------------------------------- codebook

def test_codebook_power_grid():
    cb = build_codebook(1.0, 4, "random", 2, 4, np.random.default_rng(0))
    assert np.allclose(cb.power_levels, [0.25, 0.5, 0.75, 1.0])
    assert cb.size == 8


def test_codebook_decode_power_major():
    cb = build_codebook(2.0, 3, "random", 4, 4, np.random.default_rng(0))
    p, cw = cb.decode(7)
    assert p == pytest.approx(2.0 * 2 / 3) and cw == 3
    with pytest.raises(ValueError):
        cb.decode(12)


def test_codebook_quantized_phases_on_grid():
    cb = build_codebook(1.0, 1, "quantized", 5, 6, np.random.default_rng(1),
                        phase_bits=3)
    grid = 2 * np.pi * np.arange(8) / 8
    for cw in cb.phase_codewords:
        for phi in cw.phases:
            assert np.min(np.abs(phi - grid)) < 1e-12


def test_aligned_codeword_beats_random_search():
    # brute-force oracle: on LoS-only channels no random codeword beats the
    # aligned one
    rng = np.random.default_rng(3)
    n = 6
    f_los = rng.normal(size=n) + 1j * rng.normal(size=n)
    g_los = rng.normal(size=n) + 1j * rng.normal(size=n)
    cb = build_codebook(1.0, 1, "aligned", 1, n, rng, align_los=(f_los, g_los))
    aligned_gain = abs(composite_gain(0.0, f_los, cb.phase_codewords[0], g_los))
    for _ in range(1000):
        theta = PhaseShiftConfig(rng.uniform(0, 2 * np.pi, n))
        assert abs(composite_gain(0.0, f_los, theta, g_los)) <= aligned_gain + 1e-12


# ------------------------------------------------------------- reset

def test_reset_deterministic_and_budgeted():
    cfg = scenario(n_users=3)
    env_a = RisDownlinkEnv(cfg, seed=7)
    env_b = RisDownlinkEnv(cfg, seed=7)
    sa = env_a.reset(episode=0)
    sb = env_b.reset(episode=0)
    assert len(sa) == 3
    for a, b in zip(sa, sb):
        assert np.array_equal(a.encode(env_a.p_max, env_a.n_max),
                              b.encode(env_b.p_max, env_b.n_max))
    assert all(s.remaining_power == env_a.p_max for s in sa)
    assert all(s.remaining_cbl == env_a.n_max for s in sa)
    assert all(np.all(s.prev_action == 0.0) for s in sa)


def test_sid_order_rotates_per_episode():
    env = RisDownlinkEnv(scenario(n_users=3), seed=1)
    env.reset(episode=0)
    first = env.sid_order
    env.reset(episode=1)
    assert env.sid_order == tuple(np.roll(first, -1))


# ------------------------------------------------------------- projection

def test_projection_feasible_passthrough():
    env = RisDownlinkEnv(scenario(), seed=2)
    env.reset(episode=0)
    acts = [HybridAction(0, 0.0), HybridAction(0, 0.0)]   # lowest power
    alloc = env.project_actions(acts)
    assert not alloc.power_scaled and not alloc.cbl_scaled
    p0, _ = env.codebook.decode(0)
    assert np.allclose(alloc.powers, p0)
    assert np.allclose(alloc.blocklengths, env.n_floor)


def test_projection_splits_power_budget():
    env = RisDownlinkEnv(scenario(), seed=2)
    env.reset(episode=0)
    top = env.codebook.size - 1          # max power level
    alloc = env.project_actions([HybridAction(top, 0.0), HybridAction(top, 0.0)])
    assert alloc.power_scaled
    assert np.allclose(alloc.powers, env.p_max / 2)


def test_projection_budgets_hold_on_random_actions():
    # auto ceiling (n_max / n_users, never scaled), then explicit ceilings
    # above it, where scaling puts users below the floor min(n_floor,
    # n_max / n_users) unless the floored users' share is taken out first
    for n_floor, n_ceiling in ((16, None), (16, 200.0), (16, 1000.0), (80, 256.0),
                               (100, 300.0)):
        env = RisDownlinkEnv(scenario(n_users=3, **{"codebook.n_floor": n_floor,
                                                    "codebook.n_ceiling": n_ceiling}),
                             seed=4)
        env.reset(episode=0)
        floor = min(n_floor, env.n_max / 3)
        rng = np.random.default_rng(0)
        floored = 0
        for _ in range(1000):
            acts = [HybridAction(int(rng.integers(env.codebook.size)),
                                 float(rng.random()) ** 4) for _ in range(3)]
            alloc = env.project_actions(acts)
            assert alloc.powers.sum() <= env.p_max * (1 + 1e-9)
            assert alloc.blocklengths.sum() <= env.n_max * (1 + 1e-9)
            assert alloc.blocklengths.min() >= floor * (1 - 1e-12)
            if alloc.cbl_scaled:
                assert alloc.blocklengths.sum() == pytest.approx(env.n_max, rel=1e-12)
                floored += np.count_nonzero(alloc.blocklengths == floor)
        assert (floored > 0) == (n_ceiling is not None)


def test_projection_scales_the_unfloored_into_the_budget_left():
    env = RisDownlinkEnv(scenario(**{"budget.n_max": 40, "codebook.n_floor": 16,
                                     "codebook.n_ceiling": 100.0}), seed=4)
    env.reset(episode=0)
    alloc = env.project_actions([HybridAction(0, 1.0), HybridAction(0, 0.0)])
    assert alloc.cbl_scaled
    assert alloc.blocklengths.tolist() == [24.0, 16.0]


def test_shared_codeword_follows_priority_user():
    env = RisDownlinkEnv(scenario(), seed=2)
    env.reset(episode=0)
    n_cw = len(env.codebook.phase_codewords)
    acts = [HybridAction(1, 0.5), HybridAction(2, 0.5)]   # codewords 1 and 2
    alloc = env.project_actions(acts)
    assert alloc.codeword_index == acts[env.sid_order[0]].discrete_index % n_cw


# ------------------------------------------------------------- step

def test_step_reward_is_mean_varpi(monkeypatch):
    env = RisDownlinkEnv(scenario(), seed=5)
    env.reset(episode=0)

    class FakeResult:
        def __init__(self, v):
            self.varpi = v
            self.clamped = {"vacuous": False}

    fakes = {0: FakeResult(0.2), 1: FakeResult(0.4)}
    monkeypatch.setattr(env, "varpi",
                        lambda user, *a, **k: fakes[user])
    out = env.step([HybridAction(0, 0.2), HybridAction(0, 0.4)])
    assert out.reward == pytest.approx(0.3)
    assert out.per_user_varpi == [0.2, 0.4]


def test_step_zero_varpi_zero_reward():
    # saturating arrivals make every bound vacuous
    cfg = scenario(**{"arrival.lambda_pkts": 80.0, "arrival.pkt_bits": 1024})
    env = RisDownlinkEnv(cfg, seed=5)
    env.reset(episode=0)
    out = env.step([HybridAction(0, 0.5), HybridAction(0, 0.5)])
    assert out.per_user_varpi == [0.0, 0.0]
    assert out.reward == 0.0
    assert out.constraint_violation["stability"]


def test_step_reward_matches_direct_determinacy():
    # cross-module consistency: recompute varpi through the analytic API
    cfg = scenario()
    env = RisDownlinkEnv(cfg, seed=6)
    env.reset(episode=0)
    acts = [HybridAction(3, 0.7), HybridAction(5, 0.25)]
    # train: coarse quadrature on a blocklength quantised to 4 channel uses;
    # eval: fine quadrature on the exact blocklength
    for profile in ("train", "eval"):
        env.reset(episode=0)
        out = env.step(acts, profile=profile)
        alloc_cw = out.info["codeword_index"]
        for k in range(2):
            power = out.info["powers"][k]
            n_k = out.info["blocklengths"][k]
            n_q = max(1.0, 4.0 * round(n_k / 4.0)) if profile == "train" else n_k
            stats = LinkStats(float(env.delta_sq[k]), float(env.upsilon[k, alloc_cw]),
                              power / env.noise_w, env.lambda_eve)
            service = ServiceModel(stats, cfg.build_secrecy(n_q),
                                   QUADRATURE_PROFILES[profile])
            res = delay_determinacy(env.window, env.arrival, service)
            assert out.per_user_varpi[k] == pytest.approx(res.varpi, rel=1e-9)


def test_varpi_memo_hit_builds_no_link_stats(monkeypatch):
    # a warm hit returns the memoised result object and constructs no
    # LinkStats; a miss builds the one its determinacy needs
    env = RisDownlinkEnv(scenario(), seed=6)
    power = env.p_max / env.n_users
    first = env.varpi(1, power, 2, 64.0)
    built = []
    post_init = LinkStats.__post_init__
    monkeypatch.setattr(LinkStats, "__post_init__",
                        lambda self: (built.append(self), post_init(self))[1])
    assert env.varpi(1, power, 2, 64.0) is first
    assert env.varpi(1, np.float64(power), 2, 64.0) is first
    assert built == []
    env.varpi(1, power, 2, 64.0, profile="eval")
    assert len(built) == 1


def _reachable(root):
    """Every object reachable from root through gc referents, classes and
    modules excluded."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_unread_memo_entry_holds_no_model_and_no_env():
    # a memo entry keeps no tensor, model, link statistics or secrecy
    # parameters, and no cycle back to its env: a deleted env dies by
    # reference counting alone
    env = RisDownlinkEnv(rd.load_config(REFERENCE_CFG))
    env.varpi(0, env.p_max / env.n_users, 0, env.n_max / env.n_users, profile="eval")
    env.reset(episode=0)
    for t in range(3):
        env.step([HybridAction(t, 0.5), HybridAction(t + 1, 0.25)])
    results = [r for cache in env._varpi_cache.values() for r in cache.values()]
    assert len(results) >= 4
    for res in results:
        held = [o for o in _reachable(res) if isinstance(
            o, (np.ndarray, ServiceModel, LinkStats, SecrecyParams, RisDownlinkEnv))]
        assert held == []
    gc.disable()
    try:
        env_ref = weakref.ref(env)
        del env
        assert env_ref() is None
    finally:
        gc.enable()


def test_unbracketed_edge_keeps_the_floor_bounds(monkeypatch):
    # with the edge search out of probes, a floor-certified determinacy still
    # scores its bounds, while the edge search on its allocation raises
    cfg = rd.load_config(REFERENCE_CFG)
    alloc = (0, cfg.get("budget", "p_max") / 2, 0, cfg.get("budget", "n_max") / 2)
    envs = [RisDownlinkEnv(cfg) for _ in range(2)]
    want = envs[0].varpi(*alloc, profile="eval")
    monkeypatch.setattr(mellin, "MAX_SEARCH_STEPS", 1)
    got = envs[1].varpi(*alloc, profile="eval")
    assert got == want
    with pytest.raises(SearchError, match="stability edge not bracketed"):
        mellin.stability_edge(envs[1].arrival, envs[1].service_model(*alloc, "eval"))


def test_step_updates_prev_action_with_applied_values():
    env = RisDownlinkEnv(scenario(), seed=7)
    env.reset(episode=0)
    top = env.codebook.size - 1
    acts = [HybridAction(top, 1.0), HybridAction(top, 1.0)]
    out = env.step(acts)
    alloc = out.info
    for k, sv in enumerate(out.next_states):
        assert sv.prev_action[0] == pytest.approx(top / (env.codebook.size - 1))
        assert sv.prev_action[1] == pytest.approx(alloc["blocklengths"][k] / env.n_max)
        assert sv.prev_action[2] == pytest.approx(alloc["powers"][k] / env.p_max)
        # projection halved the power: encoding reflects applied, not requested
        assert sv.prev_action[2] == pytest.approx(0.5)


def test_trajectory_bitwise_deterministic():
    cfg = scenario()
    rewards = []
    encodings = []
    for _ in range(2):
        env = RisDownlinkEnv(cfg, seed=11)
        states = env.reset(episode=0)
        acc_r, acc_e = [], []
        for t in range(4):
            acts = [HybridAction((t + k) % env.codebook.size, 0.3 * k)
                    for k in range(2)]
            out = env.step(acts)
            acc_r.append(out.reward)
            acc_e.append(np.concatenate([s.encode(env.p_max, env.n_max)
                                         for s in out.next_states]))
        rewards.append(acc_r)
        encodings.append(np.concatenate(acc_e))
    assert rewards[0] == rewards[1]
    assert np.array_equal(encodings[0], encodings[1])


@pytest.mark.parametrize("block", [1, 3, None], ids=["one", "three", "bytes"])
def test_fading_blocks_equal_per_slot_draws(monkeypatch, block):
    # the env reads each slot's realization from blocks of draws; the oracle
    # draws one realization per slot from the episode's stream.  Blocks of 3
    # cross boundaries within an episode, and the second reset starts afresh
    if block is not None:
        total = channel._normal_layout(8, 2)[2]
        monkeypatch.setattr(channel, "DRAW_BLOCK_BYTES", 8 * total * block)
    env = RisDownlinkEnv(scenario(), seed=12)
    for episode in range(2):
        states = env.reset()
        rng = np.random.default_rng([12, 1000, episode])
        theta = env.codebook.phase_codewords[0]
        for t in range(8):
            real = sample_channels(env.topology, env.fading, rng)
            fading, i = env._fading_block, env._draw
            assert np.array_equal(fading.f_user[i], real.f_user)
            assert np.array_equal(fading.g_ris[i], real.g_ris)
            assert fading.h_direct_eve[i] == real.h_direct_eve
            gain_e = composite_gain(real.h_direct_eve, real.f_eve, theta, real.g_ris)
            for k, sv in enumerate(states):
                gain_u = composite_gain(real.h_direct[k], real.f_user[k], theta,
                                        real.g_ris)
                assert sv.chan_user[0] == abs(gain_u) ** 2
                assert sv.chan_eve[0] == abs(gain_e) ** 2
            out = env.step([HybridAction((t + k) % env.codebook.size, 0.3 * k)
                            for k in range(2)])
            theta = env.codebook.phase_codewords[out.info["codeword_index"]]
            states = out.next_states


def test_reward_in_unit_interval_and_penalty():
    cfg = scenario(**{"env.violation_penalty": 0.05})
    env = RisDownlinkEnv(cfg, seed=8)
    env.reset(episode=0)
    rng = np.random.default_rng(2)
    for _ in range(10):
        acts = [HybridAction(int(rng.integers(env.codebook.size)),
                             float(rng.random())) for _ in range(2)]
        out = env.step(acts)
        assert 0.0 <= out.reward <= 1.0


def test_state_encode_dimension():
    env = RisDownlinkEnv(scenario(), seed=10)
    states = env.reset(episode=0)
    from ris_detnet.env import STATE_DIM
    assert states[0].encode(env.p_max, env.n_max).shape == (STATE_DIM,)


def test_hybrid_action_validation():
    with pytest.raises(ValueError):
        HybridAction(0, 1.5)
    with pytest.raises(ValueError):
        HybridAction(-1, 0.5)


# ------------------------------------------------------------- analysis reference

ANALYSIS_TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "analysis_reference.json"


def test_eval_determinacies_match_the_analysis_reference():
    # every row of the benchmark's reference table: six envs, all users,
    # powers, codewords and blocklengths, and both cost families (the two
    # low powers converge at orders 16/32, the two high ones need 128).
    # Bounds and varpi within 1e-6, as the benchmark checks them, and both
    # bounds within 1e-9 relative: 336 rows have bound_tmax below 1e-4, where
    # 1e-6 absolute lets the bound drift by 1% or more
    table = json.loads(ANALYSIS_TABLE.read_text(encoding="utf-8"))
    rows = [dict(zip(table["columns"], r)) for r in table["rows"]]
    assert len(rows) == 1536
    envs = {}
    for row in rows:
        key = (row["lam"], row["t_min"], row["t_max"])
        if key not in envs:
            cfg = rd.default_config()
            cfg.set_by_path("arrival.lambda_pkts", row["lam"])
            cfg.set_by_path("delay.t_max", row["t_max"])
            cfg.set_by_path("delay.t_min", row["t_min"])
            envs[key] = RisDownlinkEnv(cfg)
        env = envs[key]
        res = env.varpi(row["user"], float(env.codebook.power_levels[row["power_index"]]),
                        row["codeword"], row["blocklength"], profile="eval")
        for name in ("bound_tmin", "bound_tmax", "varpi"):
            assert abs(getattr(res, name) - row[name]) <= 1e-6, (row, name)
        for name in ("bound_tmin", "bound_tmax"):
            want = row[name]
            assert abs(getattr(res, name) - want) <= 1e-9 * abs(want), (row, name)
    assert len(envs) == 6
