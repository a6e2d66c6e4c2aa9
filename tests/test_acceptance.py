"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one CRITERION line so a full run doubles as the
sign-off report.  Scenario knobs are desk-scale; geometry and channel
defaults are the reference setup throughout.
"""
import math

import numpy as np
import pytest

import ris_detnet as rd
from ris_detnet.agents import (AgentConfig, DqnAgent, SidPdqnAgent,
                               actor_loss_and_grads, critic_loss_and_grads,
                               random_policy_log)
from ris_detnet.channel import LinkStats
from ris_detnet.env import RisDownlinkEnv
from ris_detnet.fbc import SecrecyParams, fbc_secrecy_rate, q_inv, secrecy_capacity
from ris_detnet.mellin import (QUADRATURE_PROFILES, ArrivalModel, ServiceModel, kernel,
                               lemma1_kernel, service_mellin_u, stability_smax,
                               violation_bound)
from ris_detnet.neural import Mlp
from ris_detnet.queuesim import (fbc_service_sampler,
                                 model_matched_service_sampler, simulate_queue)

LN2 = math.log(2.0)


def ris_scenario(seed, **overrides):
    """Reference geometry with a 8-element RIS and light traffic."""
    cfg = rd.default_config()
    cfg.values["topology"]["n_users"] = 2
    cfg.values["topology"]["n_elements"] = 8
    cfg.values["arrival"]["lambda_pkts"] = 0.08
    cfg.values["arrival"]["pkt_bits"] = 16
    cfg.values["budget"]["n_max"] = 256
    cfg.values["run"]["seed"] = seed
    for path, value in overrides.items():
        sec, key = path.split(".")
        cfg.values[sec][key] = value
    return cfg


def learn_scenario(seed):
    """One user, dominant codeword: aligned phases + max power + max
    blocklength strictly best."""
    cfg = rd.default_config()
    cfg.values["topology"]["n_users"] = 1
    cfg.values["topology"]["n_elements"] = 16
    cfg.values["fading"]["eve_mean_snr"] = 0.2
    cfg.values["arrival"]["lambda_pkts"] = 0.4
    cfg.values["arrival"]["pkt_bits"] = 8
    cfg.values["budget"]["p_max"] = 2.0
    cfg.values["budget"]["n_max"] = 256
    cfg.values["delay"]["t_min"] = 0
    cfg.values["delay"]["t_max"] = 6
    cfg.values["agent"]["warmup"] = 200.0
    cfg.values["agent"]["epsilon_decay_steps"] = 700
    cfg.values["env"]["episode_steps"] = 40
    cfg.values["run"]["seed"] = seed
    return cfg


# -------------------------------------------------------------------------
# Criterion 1: bound dominance (central correctness)
# -------------------------------------------------------------------------

def test_criterion_1_bound_dominance_model_matched():
    # the sharp oracle: service drawn from exactly the process the analysis
    # transforms; kernel bounds must dominate at both window edges
    for seed in (11, 12, 13):
        cfg = ris_scenario(seed)
        env = RisDownlinkEnv(cfg)
        power = env.p_max / env.n_users
        cbl = env.n_max / env.n_users
        arrival = cfg.build_arrival()
        for user in range(env.n_users):
            stats = LinkStats(float(env.delta_sq[user]), float(env.upsilon[user, 0]),
                              power / env.noise_w, env.lambda_eve)
            secrecy = cfg.build_secrecy(cbl)
            service = ServiceModel(stats, secrecy, QUADRATURE_PROFILES["eval"])
            sampler = model_matched_service_sampler(stats, secrecy)
            res = simulate_queue(arrival, sampler, 1_500_000, 100_000,
                                 np.random.default_rng([seed, user]))
            assert res.n_packets >= 100_000
            for t in (env.window.t_min, env.window.t_max):
                emp, ci = res.tail_prob(t)
                bound = violation_bound(t, arrival, service).bound
                assert emp <= bound + 2 * ci, \
                    f"seed {seed} user {user} t={t}: {emp:.5f} > {bound:.5f}"
    print("CRITERION 1a PASS: model-matched queue dominated on 3 seeds x 2 users")


def test_criterion_1_bound_dominance_physical():
    # physical service (blocklength x clamped rate) in a regime where the
    # analytic model is faithful: no RIS, weak eavesdropper
    for seed in (21, 22, 23):
        cfg = ris_scenario(seed, **{"topology.n_elements": 0,
                                    "fading.eve_mean_snr": 0.5,
                                    "budget.p_max": 4.0})
        env = RisDownlinkEnv(cfg)
        power = env.p_max / env.n_users
        cbl = env.n_max / env.n_users
        arrival = cfg.build_arrival()
        for user in range(env.n_users):
            stats = LinkStats(float(env.delta_sq[user]), float(env.upsilon[user, 0]),
                              power / env.noise_w, env.lambda_eve)
            secrecy = cfg.build_secrecy(cbl)
            service = ServiceModel(stats, secrecy, QUADRATURE_PROFILES["eval"])
            sampler = fbc_service_sampler(stats, secrecy)
            res = simulate_queue(arrival, sampler, 1_500_000, 100_000,
                                 np.random.default_rng([seed, user]))
            assert res.n_packets >= 100_000
            for t in (env.window.t_min, env.window.t_max):
                emp, ci = res.tail_prob(t)
                bound = violation_bound(t, arrival, service).bound
                assert emp <= bound + 2 * ci, \
                    f"seed {seed} user {user} t={t}: {emp:.5f} > {bound:.5f}"
    print("CRITERION 1b PASS: physical queue dominated on 3 seeds x 2 users")


# -------------------------------------------------------------------------
# Criterion 2: closed form vs composed kernel
# -------------------------------------------------------------------------

def test_criterion_2_lemma_internal_consistency():
    arrival = ArrivalModel(0.08, 16, "paper_literal")
    stats = LinkStats(2e-9, 2e-9, 1e12, 1 / 30)
    worst = 0.0
    points = 0
    for n_cbl in (64.0, 256.0):
        service = ServiceModel(stats, SecrecyParams(2e-6, 1e-3, n_cbl))
        s_max = stability_smax(arrival, service)
        for frac, horizon in ((0.15, 2), (0.35, 4), (0.55, 8), (0.75, 2),
                              (0.9, 16)):
            s = frac * s_max
            composed = kernel(s, horizon, arrival, service)
            closed = lemma1_kernel(s, horizon, arrival, service)
            rel = abs(closed - composed) / abs(composed)
            worst = max(worst, rel)
            points += 1
    assert points == 10
    assert worst < 1e-6
    print(f"CRITERION 2 PASS: closed form vs composed kernel, max rel err "
          f"{worst:.2e} over 10 (s, T) points")


# -------------------------------------------------------------------------
# Criterion 3: trend reproduction
# -------------------------------------------------------------------------

def test_criterion_3_window_trends():
    cfg = ris_scenario(3, **{"delay.t_max": 20})
    env = RisDownlinkEnv(cfg)
    power = env.p_max / env.n_users
    cbl = env.n_max / env.n_users

    def varpi_for_window(t_min, t_max):
        env.window = rd.DelayWindow(t_min, t_max)
        env._varpi_cache = {p: {} for p in ("train", "eval")}
        return env.varpi(0, power, 0, cbl, profile="eval").varpi

    by_tmin = [varpi_for_window(t, 20) for t in (2, 4, 6, 8)]
    assert all(b <= a + 1e-9 for a, b in zip(by_tmin, by_tmin[1:])), by_tmin
    by_tmax = [varpi_for_window(2, t) for t in (4, 8, 12, 16)]
    assert all(b >= a - 1e-9 for a, b in zip(by_tmax, by_tmax[1:])), by_tmax
    print(f"CRITERION 3a PASS: varpi nonincreasing in t_min {by_tmin}, "
          f"nondecreasing in t_max {by_tmax}")


def _trained_eval_reward(cfg, seed):
    env = RisDownlinkEnv(cfg, seed=seed)
    agent = SidPdqnAgent(env, AgentConfig.from_scenario(cfg), seed=seed)
    agent.train(episodes=25, steps=40)
    reward, _ = agent.evaluate(2, 40)
    return reward


def test_criterion_3_budget_trends():
    seeds = (5, 9)
    p_rewards = []
    for p_max in (0.25, 0.7, 2.0):
        vals = []
        for seed in seeds:
            cfg = learn_scenario(seed)
            cfg.values["budget"]["p_max"] = p_max
            vals.append(_trained_eval_reward(cfg, seed))
        p_rewards.append(float(np.mean(vals)))
    assert all(b >= a - 1e-9 for a, b in zip(p_rewards, p_rewards[1:])), p_rewards

    n_rewards = []
    for n_max in (48, 112, 256):
        vals = []
        for seed in seeds:
            cfg = learn_scenario(seed)
            cfg.values["budget"]["n_max"] = n_max
            vals.append(_trained_eval_reward(cfg, seed))
        n_rewards.append(float(np.mean(vals)))
    assert all(b >= a - 1e-9 for a, b in zip(n_rewards, n_rewards[1:])), n_rewards
    print(f"CRITERION 3b PASS: eval reward nondecreasing in p_max {p_rewards} "
          f"and n_max {n_rewards}")


# -------------------------------------------------------------------------
# Criterion 4: quadrature fidelity
# -------------------------------------------------------------------------

def test_criterion_4_h_vs_monte_carlo():
    stats = LinkStats(2e-9, 2e-9, 1e12, 1 / 30)
    rng = np.random.default_rng(99)
    draws = 1_000_000
    gamma_e = rng.exponential(1 / stats.lambda_eve, draws)
    gamma_k = rng.exponential(stats.rho * stats.delta_k_sq, draws)
    wedge = gamma_k >= gamma_e
    sub = math.exp(-stats.upsilon_k / stats.delta_k_sq)
    v_eve = 1.0 - 1.0 / (1.0 + gamma_e) ** 2
    worst = 0.0
    for s, n_cbl in ((0.1, 64.0), (0.3, 64.0), (0.6, 128.0), (0.9, 256.0),
                     (1.5, 1024.0)):
        a = s / LN2
        pen_u = q_inv(2e-6) / math.sqrt(n_cbl)
        pen_e = np.sqrt(v_eve / n_cbl) * q_inv(1e-3)
        mc = sub * math.exp(a * pen_u) * float(np.mean(
            np.exp(a * (np.log1p(gamma_e) + pen_e - np.log1p(gamma_k))) * wedge))
        service = ServiceModel(stats, SecrecyParams(2e-6, 1e-3, n_cbl))
        h = service_mellin_u(s, service)
        rel = abs(h - mc) / mc
        worst = max(worst, rel)
        assert rel < 0.02, f"s={s} n={n_cbl}: H={h} MC={mc} rel={rel}"
    print(f"CRITERION 4 PASS: H within {worst:.3%} of 1e6-draw Monte Carlo "
          "at 5 (s, n) points")


# -------------------------------------------------------------------------
# Criterion 5: gradient correctness
# -------------------------------------------------------------------------

def _finite_diff(net, loss_fn, h=1e-5):
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            orig = p[i]
            p[i] = orig + h
            up = loss_fn()
            p[i] = orig - h
            dn = loss_fn()
            p[i] = orig
            g[i] = (up - dn) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def _max_rel(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        worst = max(worst, float(np.max(np.abs(a - n) /
                                        np.maximum(np.abs(n), 1e-6))))
    return worst


def test_criterion_5_gradient_correctness():
    rng = np.random.default_rng(17)
    state_dim, n_l, batch_n = 7, 4, 6
    actor = Mlp([state_dim, 12, 2 * n_l], rng, head="actor", n_discrete=n_l)
    critic = Mlp([state_dim + n_l, 12, n_l], rng)
    batch = {
        "states": rng.normal(size=(batch_n, state_dim)),
        "action_idx": rng.integers(0, n_l, batch_n),
        "param_vecs": rng.random((batch_n, n_l)),
    }
    targets = rng.normal(size=batch_n)

    _, critic_grads = critic_loss_and_grads(batch, critic, targets)
    err_c = _max_rel(critic_grads,
                     _finite_diff(critic,
                                  lambda: critic_loss_and_grads(batch, critic,
                                                                targets)[0]))
    assert err_c < 1e-4
    errs = {"critic": err_c}
    for mode in ("paper_literal", "standard_pdqn"):
        _, grads = actor_loss_and_grads(batch, actor, critic, mode)
        err = _max_rel(grads,
                       _finite_diff(actor,
                                    lambda: actor_loss_and_grads(batch, actor,
                                                                 critic, mode)[0]))
        assert err < 1e-4
        errs[mode] = err
    print("CRITERION 5 PASS: max relative gradient errors "
          + ", ".join(f"{k}={v:.2e}" for k, v in errs.items()))


# -------------------------------------------------------------------------
# Criterion 6: learnability
# -------------------------------------------------------------------------

def test_criterion_6_learnability():
    seed = 5
    cfg = learn_scenario(seed)
    episodes, steps = 30, 40

    env = RisDownlinkEnv(cfg, seed=seed)
    sid = SidPdqnAgent(env, AgentConfig.from_scenario(cfg), seed=seed)
    sid_final = sid.train(episodes, steps).final_mean_reward(100)

    env_d = RisDownlinkEnv(cfg, seed=seed)
    dqn = DqnAgent(env_d, AgentConfig.from_scenario(cfg), seed=seed)
    dqn_final = dqn.train(episodes, steps).final_mean_reward(100)

    env_r = RisDownlinkEnv(cfg, seed=seed)
    rand_mean = random_policy_log(env_r, episodes, steps,
                                  np.random.default_rng(seed)).final_mean_reward(
                                      episodes * steps)

    assert sid_final >= 1.2 * rand_mean, (sid_final, rand_mean)
    assert sid_final >= dqn_final, (sid_final, dqn_final)
    print(f"CRITERION 6 PASS: SID-PDQN {sid_final:.4f} >= 1.2 x random "
          f"{rand_mean:.4f} and >= DQN {dqn_final:.4f}")


# -------------------------------------------------------------------------
# Criterion 7: determinism of CLI outputs
# -------------------------------------------------------------------------

def test_criterion_7_byte_identical_reruns(tmp_path):
    from ris_detnet.cli import main
    from ris_detnet.config import dump_config
    cfg = ris_scenario(3)
    cfg.values["agent"]["episodes"] = 2
    cfg.values["agent"]["warmup"] = 20.0
    cfg.values["env"]["episode_steps"] = 10
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(dump_config(cfg))
    pairs = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--packets", "5000", "--sampler", "model"]) == 0
        pairs[tag] = {name: (out / name).read_bytes()
                      for name in ("analyze.csv", "train_log.csv", "simulate.csv")}
    assert pairs["a"] == pairs["b"]
    print("CRITERION 7 PASS: analyze/train/simulate CSVs byte-identical on re-run")


# -------------------------------------------------------------------------
# Criterion 8: finite-blocklength limits
# -------------------------------------------------------------------------

def test_criterion_8_fbc_limits():
    cases = ((100.0, 1.0), (3.0, 1.0), (0.5, 2.0))
    for gu, ge in cases:
        c = max(0.0, float(secrecy_capacity(gu, ge)))
        big_n = fbc_secrecy_rate(gu, ge, SecrecyParams(2e-6, 1e-3, 1e9))
        assert abs(big_n - c) < 1e-3, (gu, ge, big_n, c)
        half = fbc_secrecy_rate(gu, ge, SecrecyParams(0.5, 0.5, 128))
        assert half == pytest.approx(c, abs=1e-12)
    print("CRITERION 8 PASS: rate -> max(0, C) at n=1e9 (gap < 1e-3) and "
          "exact at eps = sigma = 1/2")
