import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

import ris_detnet as rd
import ris_detnet.agents as agents_mod
from ris_detnet.agents import (AgentConfig, DqnAgent, EpsilonSchedule,
                               NStepAssembler, ReplayBuffer, SidPdqnAgent,
                               TrainingLog,
                               actor_loss_and_grads, critic_loss_and_grads,
                               critic_update, actor_update, n_step_target,
                               pass_q, pass_q_param_grad, select_action,
                               sid_collect_slot)
from ris_detnet.env import RisDownlinkEnv
from ris_detnet.env import STATE_DIM as ENV_STATE_DIM
from ris_detnet.neural import Mlp, OptimizerState, optimizer_step

STATE_DIM = 6
N_DISCRETE = 5


def make_actor(seed=0, state_dim=STATE_DIM, n=N_DISCRETE):
    return Mlp([state_dim, 16, 2 * n], np.random.default_rng(seed),
               head="actor", n_discrete=n)


def make_critic(seed=1, state_dim=STATE_DIM, n=N_DISCRETE):
    return Mlp([state_dim + n, 16, n], np.random.default_rng(seed))


def constant_q_critic(values, state_dim=STATE_DIM, n=N_DISCRETE):
    """Zero weights, bias = values: Q independent of the input."""
    net = make_critic(0, state_dim, n)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][:] = values
    return net


def make_batch(rng, b=8, state_dim=STATE_DIM, n=N_DISCRETE):
    return {
        "states": rng.normal(size=(b, state_dim)),
        "action_idx": rng.integers(0, n, b),
        "param_vecs": rng.random((b, n)),
        "n_reward": rng.random(b),
        "next_states": rng.normal(size=(b, state_dim)),
        "done": rng.random(b) < 0.3,
        "steps": rng.integers(1, 4, b),
    }


def finite_diff(net, loss_fn, h=1e-5):
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


def max_rel_err(a_list, n_list):
    worst = 0.0
    for a, n in zip(a_list, n_list):
        worst = max(worst, float(np.max(np.abs(a - n) /
                                        np.maximum(np.abs(n), 1e-6))))
    return worst


# ------------------------------------------------------------- schedule

def test_epsilon_schedule_linear_floor():
    sch = EpsilonSchedule(1.0, 0.1, 100)
    vals = [sch.value(s) for s in range(0, 140, 10)]
    assert vals[0] == 1.0
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert sch.value(100) == pytest.approx(0.1)
    assert sch.value(99) > 0.1
    assert sch.value(5000) == pytest.approx(0.1)


# ------------------------------------------------------------- buffer

def test_replay_buffer_wraparound_order():
    buf = ReplayBuffer(4, 2, 1)
    for i in range(6):
        buf.insert(np.full(2, i), i, np.zeros(1), float(i), np.zeros(2), False, 1)
    assert len(buf) == 4
    # oldest (0, 1) overwritten; ring holds 2..5
    assert sorted(buf.action_idx.tolist()) == [2, 3, 4, 5]


def test_replay_buffer_sampling_without_replacement():
    buf = ReplayBuffer(32, 2, 1)
    for i in range(20):
        buf.insert(np.zeros(2), i, np.zeros(1), 0.0, np.zeros(2), False, 1)
    batch = buf.sample(np.random.default_rng(0), 16)
    assert len(set(batch["action_idx"].tolist())) == 16


def test_replay_buffer_never_reads_unwritten_rows():
    buf = ReplayBuffer(64, 3, 2)
    for arr in (buf.states, buf.param_vecs, buf.n_reward, buf.next_states):
        arr[:] = np.nan
    buf.action_idx[:] = -1
    buf.steps[:] = -1
    k = 10
    for i in range(k):
        buf.insert(np.full(3, i), i, np.full(2, 0.1 * i), float(i), np.full(3, -i),
                   i % 2 == 0, 1 + i % 3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        batch = buf.sample(rng, 8)
        i = batch["action_idx"]
        assert np.all((i >= 0) & (i < k))
        assert np.array_equal(batch["states"], np.repeat(i[:, None], 3, axis=1))
        assert np.array_equal(batch["param_vecs"],
                              np.repeat(0.1 * i[:, None], 2, axis=1))
        assert np.array_equal(batch["n_reward"], i.astype(float))
        assert np.array_equal(batch["next_states"], np.repeat(-i[:, None], 3, axis=1))
        assert np.array_equal(batch["done"], i % 2 == 0)
        assert np.array_equal(batch["steps"], 1 + i % 3)


# ------------------------------------------------------------- selection

def test_select_action_uniform_at_full_exploration():
    rng = np.random.default_rng(12)
    actor, critic = make_actor(), make_critic()
    state = np.zeros(STATE_DIM)
    counts = np.zeros(N_DISCRETE)
    for _ in range(10_000):
        act, _ = select_action(state, actor, critic, 1.0, N_DISCRETE, rng)
        counts[act.discrete_index] += 1
    assert chisquare(counts).pvalue > 0.01


def test_select_action_greedy_uses_argmax():
    critic = constant_q_critic([0.0, 0.0, 0.0, 1.0, 0.0])
    actor = make_actor()
    rng = np.random.default_rng(0)
    for _ in range(20):
        act, _ = select_action(rng.normal(size=STATE_DIM), actor, critic,
                               0.0, N_DISCRETE, rng)
        assert act.discrete_index == 3


def test_select_action_param_is_actor_output_bitwise():
    actor, critic = make_actor(3), make_critic(4)
    rng = np.random.default_rng(5)
    state = rng.normal(size=STATE_DIM)
    (params, _), _ = actor.forward(state)
    act, vec = select_action(state, actor, critic, 0.0, N_DISCRETE,
                             np.random.default_rng(5))
    assert act.continuous_param == params[0][act.discrete_index]
    assert np.array_equal(vec, params[0])


def test_argmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(9)
    critic = make_critic(7)
    scaled = critic.copy()
    scaled.weights[-1] *= 3.5
    scaled.biases[-1] *= 3.5
    actor = make_actor(8)
    for _ in range(20):
        s = rng.normal(size=STATE_DIM)
        a1, _ = select_action(s, actor, critic, 0.0, N_DISCRETE,
                              np.random.default_rng(0))
        a2, _ = select_action(s, actor, scaled, 0.0, N_DISCRETE,
                              np.random.default_rng(0))
        assert a1.discrete_index == a2.discrete_index


# ------------------------------------------------------------- sid slot

def env_for_sid(n_users, p_max=1.0, **overrides):
    cfg = rd.default_config()
    cfg.values["topology"]["n_users"] = n_users
    cfg.values["topology"]["n_elements"] = 4
    cfg.values["fading"]["eve_mean_snr"] = 0.5
    cfg.values["arrival"]["lambda_pkts"] = 0.1
    cfg.values["arrival"]["pkt_bits"] = 16
    cfg.values["budget"]["p_max"] = p_max
    cfg.values["budget"]["n_max"] = 128
    for path, value in overrides.items():
        sec, key = path.split(".")
        cfg.values[sec][key] = value
    return RisDownlinkEnv(cfg, seed=3)


def encode_all(env, states):
    return [s.encode(env.p_max, env.n_max) for s in states]


def test_sid_single_user_equals_select_action():
    env = env_for_sid(1)
    states = env.reset(episode=0)
    from ris_detnet.env import STATE_DIM as SD
    actor = make_actor(0, SD, env.codebook.size)
    critic = make_critic(1, SD, env.codebook.size)
    enc = states[0].encode(env.p_max, env.n_max)
    want, _ = select_action(enc, actor, critic, 0.0, env.codebook.size,
                            np.random.default_rng(7))
    acts, encoded, _ = sid_collect_slot(encode_all(env, env.reset(episode=0)),
                                        env.sid_order, actor, critic, 0.0,
                                        env.codebook, env, np.random.default_rng(7))
    assert acts[0].discrete_index == want.discrete_index
    assert acts[0].continuous_param == want.continuous_param
    assert np.array_equal(encoded[0], enc)


def test_sid_budget_telegraphing():
    env = env_for_sid(2)
    states = env.reset(episode=0)
    from ris_detnet.env import STATE_DIM as SD
    actor = make_actor(0, SD, env.codebook.size)
    critic = make_critic(1, SD, env.codebook.size)
    acts, encoded, _ = sid_collect_slot(encode_all(env, states), env.sid_order, actor,
                                        critic, 0.0, env.codebook, env,
                                        np.random.default_rng(7))
    first, second = env.sid_order
    # entries 10 and 11 encode the remaining power and blocklength as
    # fractions of the budgets, 12 the user's rank in the slot
    p_first, _ = env.codebook.decode(acts[first].discrete_index)
    # the second user observes p_max minus the first user's applied power
    assert encoded[second][10] * env.p_max == pytest.approx(env.p_max - p_first,
                                                            abs=1e-12)
    n_first = env.blocklength_of(acts[first].continuous_param)
    assert encoded[second][11] * env.n_max == pytest.approx(env.n_max - n_first,
                                                            abs=1e-9)
    assert encoded[second][12] == pytest.approx(0.5)
    assert encoded[first][12] == 0.0


@pytest.mark.parametrize("agent_cls", [SidPdqnAgent, DqnAgent])
def test_act_leaves_the_env_states_alone(agent_cls):
    # the second user in the slot acts on budgets and a peer summary that
    # differ from the env's state; act must write them into its own copy of
    # the encoding, which the replay records also hold as the next state
    cfg = train_cfg(**{"topology.n_users": 2})
    env = RisDownlinkEnv(cfg, seed=3)
    agent = agent_cls(env, AgentConfig.from_scenario(cfg), seed=3)
    actions, _ = agent.act(agent.encode(env.reset()), 1.0)
    outcome = env.step(actions)
    observed = agent.encode(outcome.next_states)
    given = [enc.copy() for enc in observed]
    _, records = agent.act(observed, 1.0)
    assert not np.array_equal(records[env.sid_order[1]][0], observed[env.sid_order[1]])
    for state, enc, before in zip(outcome.next_states, observed, given, strict=True):
        assert np.array_equal(enc, before)
        assert np.array_equal(state.encode(env.p_max, env.n_max), enc)
        assert state.remaining_power == env.p_max and state.remaining_cbl == env.n_max
        assert not state.slot_peers.any()


def test_acting_encoding_equals_the_replaced_state_encoded():
    # collect_slot writes the slot's context into a copy of each observed
    # encoding; that copy must be, to the bit, the encoding of the state
    # holding the same budgets left and peer summary, at every rank; budgets
    # that are not powers of two, so each division rounds
    env = env_for_sid(3, p_max=0.7, **{"budget.n_max": 300})
    states = env.reset(episode=0)
    actor = make_actor(0, ENV_STATE_DIM, env.codebook.size)
    critic = make_critic(1, ENV_STATE_DIM, env.codebook.size)
    rng = np.random.default_rng(4)
    acts, encoded, _ = sid_collect_slot(encode_all(env, states), env.sid_order, actor,
                                        critic, 0.5, env.codebook, env, rng)
    remaining_power, remaining_cbl = env.p_max, env.n_max
    power_fracs, cbl_params = [], []
    for rank, user in enumerate(env.sid_order):
        want = replace(states[user], remaining_power=remaining_power,
                       remaining_cbl=remaining_cbl, slot_peers=np.array([
                           rank / 3,
                           float(np.mean(power_fracs)) if power_fracs else 0.0,
                           float(np.mean(cbl_params)) if cbl_params else 0.0]))
        assert encoded[user].tobytes() == want.encode(env.p_max, env.n_max).tobytes()
        p_req, _ = env.codebook.decode(acts[user].discrete_index)
        remaining_power = max(0.0, remaining_power - p_req)
        remaining_cbl = max(0.0, remaining_cbl
                            - env.blocklength_of(acts[user].continuous_param))
        power_fracs.append(p_req / env.p_max)
        cbl_params.append(acts[user].continuous_param)
    assert remaining_power < env.p_max and len(set(cbl_params)) == 3


def test_sid_order_changes_selection_when_budgets_bind():
    # critic wired to the remaining-power feature: the first user in the
    # order always takes index 0, the depleted follower index 1, so the
    # per-user selections flip when the order rotates
    env = env_for_sid(2, p_max=1.0)
    from ris_detnet.env import STATE_DIM as SD
    n_l = env.codebook.size
    actor = make_actor(2, SD, n_l)
    critic = Mlp([SD + n_l, n_l], np.random.default_rng(0))
    critic.weights[0][:] = 0.0
    critic.biases[0][:] = -1.0
    critic.weights[0][0, 10] = 1.0    # Q_0 = remaining_power fraction
    critic.biases[0][0] = 0.0
    critic.biases[0][1] = 0.9         # Q_1 constant, beats a depleted budget
    per_user = []
    for episode in (0, 1):            # rotation permutes the order
        states = env.reset(episode=episode)
        acts, _, _ = sid_collect_slot(encode_all(env, states), env.sid_order, actor,
                                      critic, 0.0, env.codebook, env,
                                      np.random.default_rng(1))
        per_user.append([a.discrete_index for a in acts])
    assert per_user[0] == [0, 1]
    assert per_user[1] == [1, 0]


# ------------------------------------------------------------- targets

def test_n_step_target_collapses_at_gamma_zero():
    batch = make_batch(np.random.default_rng(0))
    y = n_step_target(batch, make_critic(), make_actor(), 0.0)
    assert np.allclose(y, batch["n_reward"])


def test_n_step_target_arithmetic():
    critic = constant_q_critic([8.0, 0.0, 0.0, 0.0, 0.0])
    actor = make_actor()
    batch = {
        "next_states": np.zeros((1, STATE_DIM)),
        "n_reward": np.array([1.0 + 0.5 + 0.25]),
        "done": np.array([False]),
        "steps": np.array([3]),
    }
    y = n_step_target(batch, critic, actor, 0.5)
    assert y[0] == pytest.approx(2.75)


def test_n_step_target_truncated_chain_drops_bootstrap():
    critic = constant_q_critic([100.0] * N_DISCRETE)
    batch = {
        "next_states": np.zeros((1, STATE_DIM)),
        "n_reward": np.array([0.7]),
        "done": np.array([True]),
        "steps": np.array([1]),
    }
    y = n_step_target(batch, critic, make_actor(), 0.9)
    assert y[0] == pytest.approx(0.7)


def test_n_step_assembler_emits_and_flushes():
    asm = NStepAssembler(3, 0.5)
    recs = []
    for t in range(4):
        recs += asm.push(np.array([t]), t, np.zeros(1), 1.0, np.array([t + 1]))
    assert len(recs) == 2      # t=0 and t=1 chains complete
    s0, a0, _, r0, s_n0, done0, k0 = recs[0]
    assert a0 == 0 and r0 == pytest.approx(1 + 0.5 + 0.25)
    assert s_n0[0] == 3 and not done0 and k0 == 3
    tail = asm.flush()
    assert len(tail) == 2
    assert all(rec[5] for rec in tail)      # done flags
    assert tail[-1][3] == pytest.approx(1.0)  # last reward alone


# ------------------------------------------------------------- updates

def test_critic_loss_zero_when_fitted():
    critic = constant_q_critic([2.0] * N_DISCRETE)
    batch = make_batch(np.random.default_rng(1))
    targets = np.full(8, 2.0)
    loss, grads = critic_loss_and_grads(batch, critic, targets)
    assert loss == pytest.approx(0.0, abs=1e-18)
    assert all(np.allclose(g, 0.0) for g in grads)


def test_critic_loss_single_sample_value():
    critic = constant_q_critic([2.0] * N_DISCRETE)
    batch = make_batch(np.random.default_rng(2), b=1)
    loss, _ = critic_loss_and_grads(batch, critic, np.array([1.0]))
    assert loss == pytest.approx(0.5)


def test_critic_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    critic = make_critic(4)
    batch = make_batch(rng)
    targets = rng.normal(size=8)

    def loss_fn():
        return critic_loss_and_grads(batch, critic, targets)[0]

    _, analytic = critic_loss_and_grads(batch, critic, targets)
    numeric = finite_diff(critic, loss_fn)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_actor_constant_q_paper_literal():
    c = 1.7
    critic = constant_q_critic([c] * N_DISCRETE)
    actor = make_actor(5)
    batch = make_batch(np.random.default_rng(4))
    loss, grads = actor_loss_and_grads(batch, actor, critic, "paper_literal")
    assert loss == pytest.approx(-c, rel=1e-12)   # sum P = 1
    # constant Q: no gradient through either head
    assert all(np.max(np.abs(g)) < 1e-12 for g in grads)


def test_actor_standard_mode_chain_rule_1d():
    # critic Q_L = w * x_L through the param inputs only: gradient on the
    # x-head must match the hand derivative -w * sum_L dx_L/dtheta
    n = 2
    state_dim = 3
    actor = Mlp([state_dim, 2 * n], np.random.default_rng(6), head="actor",
                n_discrete=n)
    critic = Mlp([state_dim + n, n], np.random.default_rng(7))
    critic.weights[0][:] = 0.0
    critic.biases[0][:] = 0.0
    critic.weights[0][0, state_dim] = 2.0     # Q_0 = 2 * x_0
    critic.weights[0][1, state_dim + 1] = 2.0  # Q_1 = 2 * x_1
    batch = {"states": np.array([[0.3, -0.2, 0.1]])}
    loss, grads = actor_loss_and_grads(batch, actor, critic, "standard_pdqn")
    (params, _), cache = actor.forward(batch["states"])
    assert loss == pytest.approx(-2.0 * float(params.sum()), rel=1e-12)
    numeric = finite_diff(actor, lambda: actor_loss_and_grads(
        batch, actor, critic, "standard_pdqn")[0])
    assert max_rel_err(grads, numeric) < 1e-4


@pytest.mark.parametrize("mode", ["paper_literal", "standard_pdqn"])
def test_actor_gradients_match_finite_differences(mode):
    rng = np.random.default_rng(8)
    actor, critic = make_actor(9), make_critic(10)
    batch = make_batch(rng)

    def loss_fn():
        return actor_loss_and_grads(batch, actor, critic, mode)[0]

    _, analytic = actor_loss_and_grads(batch, actor, critic, mode)
    numeric = finite_diff(actor, loss_fn)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_updates_do_not_touch_other_network():
    rng = np.random.default_rng(11)
    actor, critic = make_actor(12), make_critic(13)
    batch = make_batch(rng)
    critic_before = [p.copy() for p in critic.parameters()]
    actor_update(batch, actor, critic, OptimizerState(1e-2))
    assert all(np.array_equal(a, b)
               for a, b in zip(critic_before, critic.parameters()))
    actor_before = [p.copy() for p in actor.parameters()]
    critic_update(batch, critic, rng.normal(size=8), OptimizerState(1e-2))
    assert all(np.array_equal(a, b)
               for a, b in zip(actor_before, actor.parameters()))


# ------------------------------------------------------------- multi-pass critic

def fixed_actor(x, prob_logits):
    """Zero weights: every state gets parameters x and probabilities
    softmax(prob_logits)."""
    n = len(x)
    actor = Mlp([STATE_DIM, 2 * n], np.random.default_rng(0), head="actor",
                n_discrete=n)
    actor.weights[0][:] = 0.0
    actor.biases[0][:n] = np.log(x) - np.log1p(-x)
    actor.biases[0][n:] = prob_logits
    return actor


def own_pass_q(critic, state, x):
    """Reference Q_L: output L of a plain forward of [s, x_L e_L]."""
    n = len(x)
    return np.array([critic.forward(np.concatenate([state, np.where(
        np.arange(n) == l, x, 0.0)]))[0][0, l] for l in range(n)])


def test_q_values_read_only_their_own_parameter():
    # moving x_j must leave every Q_L with L != j unchanged wherever Q is read
    rng = np.random.default_rng(21)
    states = rng.normal(size=(12, STATE_DIM))
    x = rng.uniform(0.1, 0.9, N_DISCRETE)
    j = 2
    x_moved = x.copy()
    x_moved[j] = 0.99
    others = [l for l in range(N_DISCRETE) if l != j]
    flat = np.zeros(N_DISCRETE)

    # selection: with Q_j pushed out of reach, moving x_j cannot change the
    # greedy index, which is the argmax of the per-pass reference
    critic = make_critic(22)
    critic.biases[-1][j] -= 100.0
    for s in states:
        picks = [select_action(s, fixed_actor(p, flat), critic, 0.0, N_DISCRETE,
                               np.random.default_rng(0))[0].discrete_index
                 for p in (x, x_moved)]
        assert picks[0] == picks[1] == int(np.argmax(own_pass_q(critic, s, x)))

    batch = {"states": states, "next_states": states,
             "n_reward": np.zeros(len(states)), "done": np.zeros(len(states), bool),
             "steps": np.ones(len(states), int)}
    for l in others:
        # targets: a large bias makes Q_L the max, so y = Q_L + 100
        critic = make_critic(22)
        critic.biases[-1][l] += 100.0
        y = [n_step_target(batch, critic, fixed_actor(p, flat), 1.0)
             for p in (x, x_moved)]
        ref = [own_pass_q(critic, s, x)[l] for s in states]
        assert np.allclose(y[0], ref, rtol=0.0, atol=1e-12)
        assert np.allclose(y[1], y[0], rtol=0.0, atol=1e-12)

        # actor loss: P(L|s) ~ 1 makes the paper_literal loss -mean Q_L, and
        # no parameter but x_L gets a gradient
        critic = make_critic(22)
        logits = np.where(np.arange(N_DISCRETE) == l, 60.0, 0.0)
        out = [actor_loss_and_grads(batch, fixed_actor(p, logits), critic,
                                    "paper_literal") for p in (x, x_moved)]
        ref = -np.mean([own_pass_q(critic, s, x)[l] for s in states])
        assert out[0][0] == pytest.approx(ref, rel=0.0, abs=1e-12)
        assert out[1][0] == pytest.approx(out[0][0], rel=0.0, abs=1e-12)
        param_bias_grad = out[0][1][1][:N_DISCRETE]
        assert np.all(np.abs(np.delete(param_bias_grad, l)) < 1e-12)
        assert abs(param_bias_grad[l]) > 1e-6


def test_unknown_actor_mode_rejected():
    with pytest.raises(ValueError):
        actor_loss_and_grads(make_batch(np.random.default_rng(0)), make_actor(),
                             make_critic(), "bogus")


# ------------------------------------------------------------- precision
# The agents' networks run in float32.  Against a float64 twin holding the
# same weights, at the reference shapes, Q values agree within 1e-5 of
# max|Q| and every gradient and optimizer array within 1e-4 and 1e-5
# norm-wise relative (measured: about 3e-7 throughout).

REF_L = 16
REF_HIDDEN = [128, 128]
REF_BATCH = 32


def cast(net, dtype):
    """A net of dtype holding net's weights, rounded to dtype."""
    twin = Mlp(net.layer_dims, np.random.default_rng(0), head=net.head,
               n_discrete=net.n_discrete, dtype=dtype)
    twin.flat[...] = net.flat
    return twin


def twin64(net):
    return cast(net, np.float64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pass_q_kept_zeros_relu_equals_scalar_relu_bitwise(dtype):
    # with a scratch dict the ReLUs compare against a kept zeros array,
    # without one against 0.0; both must give the same bits, inputs holding
    # +-0.0, NaN and inf included
    critic = cast(Mlp([ENV_STATE_DIM + REF_L, *REF_HIDDEN, REF_L],
                      np.random.default_rng(6)), dtype)
    rng = np.random.default_rng(7)
    states = rng.normal(size=(REF_BATCH, ENV_STATE_DIM))
    params = rng.random((REF_BATCH, REF_L))
    states[0], states[1], params[1] = 0.0, -0.0, -0.0
    params[2, :3] = (np.nan, -np.nan, np.inf)
    states[3, 4] = np.nan
    scratch = {}
    with np.errstate(invalid="ignore"):
        for _ in range(2):                  # fresh, then reused, scratch arrays
            got, got_acts = pass_q(critic, states, params, scratch)
            want, want_acts = pass_q(critic, states, params)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()
            assert [a.tobytes() for a in got_acts] == [a.tobytes() for a in want_acts]
    assert np.isnan(got).any() and np.isfinite(got).any()
    assert not any(z.any() for (tag, _, _), z in scratch.items() if tag == "zeros")
    # the passes above cannot put -0.0 before a ReLU, so the comparison
    # itself is checked on signed zeros, NaNs, infinities and subnormals
    info = np.finfo(dtype)
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                        info.smallest_subnormal, -info.smallest_subnormal, -1.0, 1.0],
                       dtype=dtype)
    h = np.tile(special, REF_BATCH * REF_L * 16).reshape(REF_BATCH, REF_L, -1)
    assert (np.maximum(h, np.zeros_like(h)).tobytes()
            == np.maximum(h, 0.0).tobytes())


def rel_norm(a, b):
    return float(np.linalg.norm(np.asarray(a, float) - b) / np.linalg.norm(b))


@pytest.fixture(scope="module")
def reference_nets():
    rng = np.random.default_rng(40)
    critic = Mlp([ENV_STATE_DIM + REF_L, *REF_HIDDEN, REF_L], rng, dtype=np.float32)
    actor = Mlp([ENV_STATE_DIM, *REF_HIDDEN, 2 * REF_L], rng, head="actor",
                n_discrete=REF_L, dtype=np.float32)
    batch = make_batch(np.random.default_rng(41), b=REF_BATCH,
                       state_dim=ENV_STATE_DIM, n=REF_L)
    return (critic, twin64(critic)), (actor, twin64(actor)), batch


def test_float32_pass_q_within_tolerance(reference_nets):
    (c32, c64), _, batch = reference_nets
    x = np.random.default_rng(42).random((REF_BATCH, REF_L))
    q32, acts32 = pass_q(c32, batch["states"], x, {})
    q64, acts64 = pass_q(c64, batch["states"], x, {})
    assert q32.dtype == np.float32 and q64.dtype == np.float64
    assert np.max(np.abs(q32 - q64)) <= 1e-5 * np.max(np.abs(q64))
    dq = np.random.default_rng(43).normal(size=(REF_BATCH, REF_L)) / REF_BATCH
    g32 = pass_q_param_grad(c32, acts32, dq)
    assert g32.dtype == np.float32
    assert rel_norm(g32, pass_q_param_grad(c64, acts64, dq)) <= 1e-4


def test_float32_critic_grads_within_tolerance(reference_nets):
    (c32, c64), _, batch = reference_nets
    y = np.random.default_rng(44).normal(size=REF_BATCH)
    _, g32 = critic_loss_and_grads(batch, c32, y)
    _, g64 = critic_loss_and_grads(batch, c64, y)
    for a, b in zip(g32, g64):
        assert a.dtype == np.float32
        assert rel_norm(a, b) <= 1e-4


@pytest.mark.parametrize("mode", ["paper_literal", "standard_pdqn"])
def test_float32_actor_grads_within_tolerance(reference_nets, mode):
    (c32, c64), (a32, a64), batch = reference_nets
    _, g32 = actor_loss_and_grads(batch, a32, c32, mode, {})
    _, g64 = actor_loss_and_grads(batch, a64, c64, mode, {})
    for a, b in zip(g32, g64):
        assert a.dtype == np.float32
        assert rel_norm(a, b) <= 1e-4


def test_float32_optimizer_step_within_tolerance(reference_nets):
    (c32, _), _, batch = reference_nets
    # a float64 state with live moments, then its float32 copy
    net64 = twin64(c32)
    opt64 = OptimizerState(1e-3)
    rng = np.random.default_rng(45)
    for _ in range(3):
        optimizer_step(net64.flat, rng.normal(size=net64.flat.size), opt64)
    net32 = cast(net64, np.float32)
    opt32 = OptimizerState(1e-3)
    opt32.step_count = opt64.step_count
    opt32.m, opt32.v = opt64.m.astype(np.float32), opt64.v.astype(np.float32)
    grad = rng.normal(size=net32.flat.size).astype(np.float32)
    optimizer_step(net32.flat, grad, opt32)
    optimizer_step(net64.flat, grad.astype(float), opt64)
    for a, b in zip(net32.parameters() + net32.split(opt32.m) + net32.split(opt32.v),
                    net64.parameters() + net64.split(opt64.m) + net64.split(opt64.v)):
        assert a.dtype == np.float32
        assert rel_norm(a, b) <= 1e-5


def nets_and_opts(agent):
    if isinstance(agent, SidPdqnAgent):
        return ([agent.actor, agent.critic, agent.critic_target],
                [agent.actor_opt, agent.critic_opt])
    return [agent.q_net, agent.q_target], [agent.opt]


def saved_arrays(agent):
    """Every weight, bias and Adam moment of an agent, in checkpoint order."""
    nets, opts = nets_and_opts(agent)
    arrays = [p for net in nets for p in net.parameters()]
    for opt in opts:
        assert opt.m is not None, "no Adam moments: the agent never learned"
        arrays += [opt.m, opt.v]
    return arrays


@pytest.mark.parametrize("agent_cls", [SidPdqnAgent, DqnAgent])
def test_agents_keep_float32_after_training(agent_cls):
    # a silent upcast would give back the float32 speed without failing a test
    cfg = train_cfg()
    agent = agent_cls(RisDownlinkEnv(cfg, seed=3), AgentConfig.from_scenario(cfg),
                      seed=3)
    log = agent.train(episodes=1, steps=45)
    assert not math.isnan(log.rows[-1]["critic_loss"])
    _, opts = nets_and_opts(agent)
    arrays = saved_arrays(agent) + [a for opt in opts for a in opt.scratch]
    if agent_cls is SidPdqnAgent:
        assert agent.scratch, "no pass_q scratch: the agent never learned"
        arrays += list(agent.scratch.values())
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


# ------------------------------------------------------------- training

def train_cfg(**overrides):
    cfg = rd.default_config()
    cfg.values["topology"]["n_users"] = 1
    cfg.values["topology"]["n_elements"] = 4
    cfg.values["fading"]["eve_mean_snr"] = 0.5
    cfg.values["arrival"]["lambda_pkts"] = 0.1
    cfg.values["arrival"]["pkt_bits"] = 16
    cfg.values["budget"]["n_max"] = 128
    cfg.values["agent"]["warmup"] = 20.0
    cfg.values["agent"]["epsilon_decay_steps"] = 50
    for path, value in overrides.items():
        sec, key = path.split(".")
        cfg.values[sec][key] = value
    return cfg


def test_train_warmup_blocks_updates():
    cfg = train_cfg()
    env = RisDownlinkEnv(cfg, seed=0)
    agent = SidPdqnAgent(env, AgentConfig.from_scenario(cfg), seed=0)
    log = agent.train(episodes=1, steps=1)
    assert len(log.rows) == 1
    assert math.isnan(log.rows[0]["critic_loss"])
    assert len(agent.buffer) == 1   # flushed at episode end


def test_train_deterministic_logs():
    cfg = train_cfg()
    logs = []
    for _ in range(2):
        env = RisDownlinkEnv(cfg, seed=4)
        agent = SidPdqnAgent(env, AgentConfig.from_scenario(cfg), seed=4)
        logs.append(agent.train(episodes=2, steps=20).rows)
    assert logs[0] == logs[1]


def test_dqn_action_space_size_and_determinism():
    cfg = train_cfg()
    env = RisDownlinkEnv(cfg, seed=2)
    agent = DqnAgent(env, AgentConfig.from_scenario(cfg), seed=2)
    assert agent.n_actions == env.codebook.size * 8
    logs = []
    for _ in range(2):
        env2 = RisDownlinkEnv(cfg, seed=2)
        a2 = DqnAgent(env2, AgentConfig.from_scenario(cfg), seed=2)
        logs.append(a2.train(episodes=2, steps=15).rows)
    assert logs[0] == logs[1]


# the online and target nets of each learner
ONLINE_TARGET = [(SidPdqnAgent, "critic", "critic_target"), (DqnAgent, "q_net", "q_target")]


@pytest.mark.parametrize("agent_cls,online,target", ONLINE_TARGET)
def test_target_net_is_the_online_net_at_the_last_sync(agent_cls, online, target):
    cfg = train_cfg(**{"agent.target_sync": 10})
    agent = agent_cls(RisDownlinkEnv(cfg, seed=5), AgentConfig.from_scenario(cfg),
                      seed=5)
    after_step = {}     # online weights once global_step reaches the key

    class SnapshotLog(TrainingLog):
        def append(self, **kw):
            super().append(**kw)
            after_step[kw["step"] + 1] = getattr(agent, online).flat.copy()

    agent.train(episodes=1, steps=45, log=SnapshotLog())
    assert np.array_equal(getattr(agent, target).flat, after_step[40])
    # learning moved the online net before the last sync and after it
    assert not np.array_equal(after_step[40], after_step[30])
    assert not np.array_equal(getattr(agent, online).flat, after_step[40])


@pytest.mark.parametrize("agent_cls,online,target", ONLINE_TARGET)
def test_learn_bootstraps_through_the_target_net(monkeypatch, agent_cls, online, target):
    # y of one learn step after the same 45 training steps, with one net
    # perturbed first: the online net does not reach y, the target net does
    cfg = train_cfg()
    ys = []
    n_step_return = agents_mod._n_step_return

    def spy(batch, gamma, boot):
        y = n_step_return(batch, gamma, boot)
        ys.append(y)
        return y

    def y_with(perturbed):
        agent = agent_cls(RisDownlinkEnv(cfg, seed=5), AgentConfig.from_scenario(cfg),
                          seed=5)
        agent.train(episodes=1, steps=45)
        if perturbed:
            getattr(agent, perturbed).flat += 0.5
        with monkeypatch.context() as m:
            m.setattr(agents_mod, "_n_step_return", spy)
            agent.learn()
        return ys[-1]

    y = y_with(None)
    assert np.array_equal(y_with(online), y)
    assert not np.array_equal(y_with(target), y)


@pytest.mark.parametrize("optimizer,step", [("plain_sgd", 0.2), ("adam", 0.1)])
def test_optimizer_key_selects_the_update_rule(optimizer, step):
    # a gradient of 2 at lr 0.1: the literal rule steps by lr * g, Adam's
    # first bias-corrected step by lr * g / |g|
    cfg = rd.load_config_text(f"[agent]\noptimizer = {optimizer}\n")
    opt = AgentConfig.from_scenario(cfg).make_optimizer(0.1)
    net = Mlp([2, 2], np.random.default_rng(0))
    before = net.flat.copy()
    optimizer_step(net.flat, np.full_like(net.flat, 2.0), opt)
    assert np.allclose(net.flat, before - step, rtol=0.0, atol=1e-7)
    if optimizer == "plain_sgd":
        assert np.array_equal(net.flat, before - 0.1 * 2.0)


def test_checkpoint_round_trip(tmp_path):
    from ris_detnet.agents import load_checkpoint, save_checkpoint
    cfg = train_cfg()
    env = RisDownlinkEnv(cfg, seed=6)
    agent = SidPdqnAgent(env, AgentConfig.from_scenario(cfg), seed=6)
    agent.train(episodes=1, steps=25)
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), agent, cfg)
    env2 = RisDownlinkEnv(cfg, seed=6)
    twin = SidPdqnAgent(env2, AgentConfig.from_scenario(cfg), seed=6)
    load_checkpoint(str(path), twin, cfg)
    r1, _ = agent.evaluate(1, 10)
    r2, _ = twin.evaluate(1, 10)
    assert r1 == pytest.approx(r2, rel=1e-12)
    # config mismatch detection
    other = train_cfg(**{"budget.p_max": 9.0})
    env3 = RisDownlinkEnv(other, seed=6)
    third = SidPdqnAgent(env3, AgentConfig.from_scenario(other), seed=6)
    with pytest.raises(ValueError):
        load_checkpoint(str(path), third, other)


@pytest.mark.parametrize("agent_cls", [SidPdqnAgent, DqnAgent])
@pytest.mark.parametrize("steps", [0, 45])
def test_checkpoint_holds_state_only(tmp_path, agent_cls, steps):
    # one flat list per net and each optimizer's count and flat moments,
    # null before its first step; the layout and the hyperparameters are
    # the scenario's
    import json
    from ris_detnet.agents import CHECKPOINT_VERSION, save_checkpoint
    cfg = train_cfg()
    agent = agent_cls(RisDownlinkEnv(cfg, seed=7), AgentConfig.from_scenario(cfg),
                      seed=7)
    agent.train(episodes=1, steps=steps)
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), agent, cfg)
    blob = json.loads(path.read_text())
    assert CHECKPOINT_VERSION == 5 and blob["version"] == 5
    assert set(blob) == {"version", "algo", "config_hash", "rng_state", "global_step",
                         "nets", "optimizers"}
    assert blob["global_step"] == steps
    nets, opts = nets_and_opts(agent)
    names = (["actor", "critic", "critic_target"] if agent_cls is SidPdqnAgent
             else ["q_net", "q_target"])
    assert list(blob["nets"]) == names
    for name, net in zip(names, nets, strict=True):
        assert blob["nets"][name] == net.flat.tolist()
    assert list(blob["optimizers"]) == names[:len(opts)]
    for saved, opt in zip(blob["optimizers"].values(), opts, strict=True):
        assert set(saved) == {"step_count", "m", "v"}
        assert saved["step_count"] == opt.step_count
        if steps == 0:
            assert saved["m"] is None and saved["v"] is None and opt.step_count == 0
        else:
            assert opt.step_count > 0
            assert saved["m"] == opt.m.tolist() and saved["v"] == opt.v.tolist()


@pytest.mark.parametrize("agent_cls", [SidPdqnAgent, DqnAgent])
def test_checkpoint_keeps_float32_bitwise(tmp_path, agent_cls):
    from ris_detnet.agents import load_checkpoint, save_checkpoint
    cfg = train_cfg()
    agent = agent_cls(RisDownlinkEnv(cfg, seed=7), AgentConfig.from_scenario(cfg),
                      seed=7)
    agent.train(episodes=1, steps=45)
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), agent, cfg)
    twin = agent_cls(RisDownlinkEnv(cfg, seed=7), AgentConfig.from_scenario(cfg),
                     seed=7)
    load_checkpoint(str(path), twin, cfg)
    for saved, loaded in zip(saved_arrays(agent), saved_arrays(twin), strict=True):
        assert loaded.dtype == np.float32
        assert np.array_equal(saved, loaded)


@pytest.mark.parametrize("agent_cls", [SidPdqnAgent, DqnAgent])
def test_checkpoint_then_training_equals_uninterrupted_training(tmp_path, agent_cls):
    # a checkpoint keeps the per-array Adam moments and loads them back
    # into the flat ones, so training on from it repeats the bits of a run
    # that never stopped; the replay buffer is not checkpointed, so the
    # resumed agent takes the stopped agent's
    from ris_detnet.agents import load_checkpoint, save_checkpoint
    cfg = train_cfg()

    def fresh():
        return agent_cls(RisDownlinkEnv(cfg, seed=8), AgentConfig.from_scenario(cfg),
                         seed=8)

    whole = fresh()
    whole_rows = whole.train(episodes=3, steps=20).rows
    stopped = fresh()
    stopped.train(episodes=2, steps=20)
    saved_arrays(stopped)               # asserts that the moments are live
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), stopped, cfg)
    resumed = fresh()
    load_checkpoint(str(path), resumed, cfg)
    resumed.buffer = stopped.buffer
    resumed.env.reset()
    resumed.env.reset()                 # the env's episode count: 2 is next
    rows = resumed.train(episodes=1, steps=20).rows
    assert repr(rows) == repr(whole_rows[40:]).replace("'episode': 2", "'episode': 0")
    for a, b in zip(saved_arrays(resumed), saved_arrays(whole), strict=True):
        assert np.array_equal(a, b)
