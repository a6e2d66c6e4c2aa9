"""Hybrid-action Q-learning with sequential per-user selection.

The Actor maps a user state to one continuous blocklength parameter per
discrete action plus a discrete-action probability head.  The Critic takes
(state, parameter vector) and scores each discrete action L from its own
pass, whose parameter input holds x_L alone with every other entry zeroed
(multi-pass critic, Bester et al. 2019): Q_L depends on x_L and on no other
action's parameter, so neither its fit nor the actor's gradient couples the
actions' parameters.  Users select sequentially within a slot in a rotating
order, telegraphing their budget consumption and choices to later users
through the state.  Baselines: a plain DQN over the fully discretised action
space and a random policy.  All three run training and evaluation through
the one rollout loop of Agent, and both learners keep their networks in
NET_DTYPE, so they are compared at one precision.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError, ScenarioConfig, config_hash
from .env import STATE_DIM, HybridAction, RisDownlinkEnv, with_slot_context
from .neural import Mlp, OptimizerState, clip_global_norm, optimizer_step

CHECKPOINT_VERSION = 5
# the learners' weights, activations, gradients and moments; replay records
# and targets stay float64
NET_DTYPE = np.float32


@dataclass
class EpsilonSchedule:
    """Linear decay from start to end, reaching the floor exactly at
    decay_steps and staying there."""

    start: float
    end: float
    decay_steps: int

    def value(self, step: int) -> float:
        if self.decay_steps <= 0:
            return self.end
        frac = min(1.0, max(0.0, step / self.decay_steps))
        return self.start - (self.start - self.end) * frac


@dataclass
class AgentConfig:
    alpha: float                     # critic learning rate
    beta: float                      # actor learning rate
    gamma_discount: float
    epsilon: EpsilonSchedule
    n_step: int
    batch_size: int
    buffer_capacity: int
    target_sync: int
    optimizer: str
    warmup: int
    grad_clip: float
    hidden: tuple
    cbl_levels: int

    @classmethod
    def from_scenario(cls, cfg: ScenarioConfig) -> "AgentConfig":
        a = cfg.values["agent"]
        return cls(
            alpha=a["alpha"], beta=a["beta"], gamma_discount=a["gamma"],
            epsilon=EpsilonSchedule(a["epsilon_start"], a["epsilon_end"],
                                    a["epsilon_decay_steps"]),
            n_step=a["n_step"], batch_size=a["batch_size"],
            buffer_capacity=a["buffer_capacity"], target_sync=a["target_sync"],
            optimizer=a["optimizer"], warmup=cfg.warmup_transitions,
            grad_clip=a["grad_clip"],
            hidden=tuple(a["hidden"]), cbl_levels=a["cbl_levels"])

    def make_optimizer(self, lr: float) -> OptimizerState:
        if self.optimizer == "plain_sgd":
            return OptimizerState(lr, beta1=0.0, beta2=0.0)
        return OptimizerState(lr)


class ReplayBuffer:
    """Fixed-capacity ring of n-step transition records.

    Oldest entries are overwritten in insertion order after wraparound;
    batches are sampled uniformly without replacement.  Rows at and above
    size are never read, so the arrays start uninitialised: zeroing them
    would touch every page of a buffer that may never fill.
    """

    def __init__(self, capacity: int, state_dim: int, param_dim: int):
        self.capacity = capacity
        self.states = np.empty((capacity, state_dim))
        self.param_vecs = np.empty((capacity, param_dim))
        self.action_idx = np.empty(capacity, dtype=int)
        self.n_reward = np.empty(capacity)
        self.next_states = np.empty((capacity, state_dim))
        self.done = np.empty(capacity, dtype=bool)
        self.steps = np.empty(capacity, dtype=int)
        self.cursor = 0
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def insert(self, state, action_idx, param_vec, n_reward, next_state, done, steps):
        i = self.cursor
        self.states[i] = state
        self.action_idx[i] = action_idx
        self.param_vecs[i] = param_vec
        self.n_reward[i] = n_reward
        self.next_states[i] = next_state
        self.done[i] = done
        self.steps[i] = steps
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int) -> dict:
        idx = rng.choice(self.size, size=min(batch_size, self.size), replace=False)
        return {
            "states": self.states[idx],
            "action_idx": self.action_idx[idx],
            "param_vecs": self.param_vecs[idx],
            "n_reward": self.n_reward[idx],
            "next_states": self.next_states[idx],
            "done": self.done[idx],
            "steps": self.steps[idx],
        }


def _buffer(scratch: dict | None, tag: str, shape: tuple, dtype: np.dtype,
            make=np.empty) -> np.ndarray:
    """An array from make (uninitialised by default), kept in scratch for
    the next call of this tag, shape and dtype."""
    if scratch is None:
        return make(shape, dtype)
    key = (tag, shape, dtype)
    if key not in scratch:
        scratch[key] = make(shape, dtype)
    return scratch[key]


def _relu_zero(scratch: dict | None, shape: tuple, dtype: np.dtype):
    """The zero pass_q's ReLUs compare against: a zeros array kept in
    scratch and never written, or 0.0 without scratch.  np.maximum gives
    the same bits against either; against an array of the same shape it
    runs numpy's contiguous loop, not the broadcast one, about twice as
    fast on a (32, 16, 128) float32 tensor."""
    if scratch is None:
        return 0.0
    return _buffer(scratch, "zeros", shape, dtype, np.zeros)


def _mean(values: list) -> float:
    """np.mean of a list of floats to the bit: the same pairwise sum and
    division, without np.mean's dispatch, which costs more than the sum on
    a list this short."""
    return float(np.add.reduce(values) / len(values))


def pass_q(critic: Mlp, states: np.ndarray, params: np.ndarray,
           scratch: dict | None = None):
    """Q_L(s, x_L) for every discrete action L, each from its own critic pass.

    Pass L feeds [s, x_L e_L] and keeps output L alone.  The passes share the
    state's share of the first layer, so it is computed once and broadcast.
    Returns (q of shape (batch, n_discrete), cache for pass_q_param_grad),
    both in the critic's dtype.  With a scratch dict kept by the caller, the
    cache arrays are reused between calls, so a cache is valid until the
    next call with that dict, which also keeps the ReLUs' zeros.
    """
    states = np.atleast_2d(np.asarray(states, dtype=critic.dtype))
    params = np.atleast_2d(np.asarray(params, dtype=critic.dtype))
    w0 = critic.weights[0]
    w_x = w0[:, states.shape[1]:]
    base = states @ w0[:, :states.shape[1]].T + critic.biases[0]
    if critic.n_layers == 1:
        return base + params * np.diagonal(w_x), []
    b, n = params.shape
    h = _buffer(scratch, "act0", (b, n, w0.shape[0]), critic.dtype)
    np.einsum("bl,lh->blh", params, np.ascontiguousarray(w_x.T), out=h)
    h += base[:, None, :]
    np.maximum(h, _relu_zero(scratch, h.shape, critic.dtype), out=h)
    acts = [h]
    for i, (w, bias) in enumerate(zip(critic.weights[1:-1], critic.biases[1:-1]), 1):
        h = _buffer(scratch, f"act{i}", (b, n, w.shape[0]), critic.dtype)
        np.matmul(acts[-1].reshape(b * n, -1), w.T, out=h.reshape(b * n, -1))
        h += bias
        np.maximum(h, _relu_zero(scratch, h.shape, critic.dtype), out=h)
        acts.append(h)
    q = np.einsum("blh,lh->bl", h, critic.weights[-1]) + critic.biases[-1]
    return q, acts


def pass_q_param_grad(critic: Mlp, acts: list, dq: np.ndarray) -> np.ndarray:
    """d(loss)/d x_L through pass L alone, given dq = d(loss)/d Q_L.

    Weight gradients are not formed: the actor loss leaves the critic fixed.
    The backward pass overwrites the arrays of acts, the cache of pass_q.
    """
    dq = np.asarray(dq, dtype=critic.dtype)
    b, n = dq.shape
    w_x = critic.weights[0][:, critic.layer_dims[0] - n:].T
    if critic.n_layers == 1:
        return dq * np.diagonal(w_x)
    g = acts[-1]
    mask = g > 0.0
    np.einsum("bl,lh->blh", dq, critic.weights[-1], out=g)
    g *= mask
    for a, w in zip(acts[-2::-1], critic.weights[-2:0:-1]):
        mask = a > 0.0
        np.matmul(g.reshape(b * n, -1), w, out=a.reshape(b * n, -1))
        g = a
        g *= mask
    return np.einsum("blh,lh->bl", g, np.ascontiguousarray(w_x))


def select_action(state_enc: np.ndarray, actor: Mlp, critic: Mlp, epsilon: float,
                  codebook_size: int, rng: np.random.Generator):
    """Epsilon-greedy hybrid selection.

    The actor always produces the full parameter vector; the discrete index
    is uniform with probability epsilon, otherwise argmax_L Q_L(s, x_L),
    each Q_L from its own critic pass.  Returns (HybridAction, param_vector).
    """
    params = actor.actor_params(state_enc)[0]
    if rng.random() < epsilon:
        idx = int(rng.integers(codebook_size))
    else:
        q, _ = pass_q(critic, state_enc, params)
        idx = int(np.argmax(q[0]))
    return HybridAction(idx, float(params[idx])), params


def collect_slot(encoded: list, order, choose, env: RisDownlinkEnv):
    """Sequential within-slot selection with budget/action telegraphing.

    encoded[u] is user u's observed state, StateVector.encode(p_max, n_max).
    Users act in the given order; choose(user, encoded_state) returns
    (HybridAction, record).  Each selection decrements the remaining
    power/blocklength budgets and updates the peer summary seen by later
    users, which each user reads from its own copy of its encoding; the
    arrays passed in are left as they are.  Returns per-user actions, the
    encoded states each user saw and the records.
    """
    n_users = len(encoded)
    actions: list = [None] * n_users
    seen: list = [None] * n_users
    records: list = [None] * n_users
    remaining_power = env.p_max
    remaining_cbl = env.n_max
    power_fracs: list = []
    cbl_params: list = []
    for rank, user in enumerate(order):
        enc = with_slot_context(encoded[user], env.p_max, env.n_max,
                                remaining_power, remaining_cbl, (
                                    rank / max(1, n_users),
                                    _mean(power_fracs) if power_fracs else 0.0,
                                    _mean(cbl_params) if cbl_params else 0.0))
        act, records[user] = choose(user, enc)
        actions[user] = act
        seen[user] = enc
        p_req, _ = env.codebook.decode(act.discrete_index)
        n_req = env.blocklength_of(act.continuous_param)
        remaining_power = max(0.0, remaining_power - p_req)
        remaining_cbl = max(0.0, remaining_cbl - n_req)
        power_fracs.append(p_req / env.p_max)
        cbl_params.append(act.continuous_param)
    return actions, seen, records


def sid_collect_slot(encoded: list, order, actor: Mlp, critic: Mlp, epsilon: float,
                     codebook, env: RisDownlinkEnv, rng: np.random.Generator):
    """SID-PDQN slot: collect_slot choosing by select_action with the nets
    shared by all users; the records are the actor's full parameter vectors."""
    def choose(user, enc):
        return select_action(enc, actor, critic, epsilon, codebook.size, rng)
    return collect_slot(encoded, order, choose, env)


def n_step_target(batch: dict, critic_target: Mlp, actor: Mlp, gamma: float,
                  scratch: dict | None = None):
    """y = sum_i gamma^i r_{t+i} + gamma^k max_L Q(s_{t+k}, L, x_L(s_{t+k})),
    each Q_L from its own critic pass; the bootstrap term is dropped on
    episode-truncated chains."""
    params = actor.actor_params(batch["next_states"])
    q, _ = pass_q(critic_target, batch["next_states"], params, scratch)
    return _n_step_return(batch, gamma, q.max(axis=1))


def _n_step_return(batch: dict, gamma: float, boot: np.ndarray) -> np.ndarray:
    """n-step reward plus gamma^k * boot, which truncated chains drop."""
    return batch["n_reward"] + np.where(batch["done"], 0.0,
                                        gamma ** batch["steps"] * boot)


def _clipped_step(net: Mlp, grads: list, opt: OptimizerState, grad_clip: float):
    """One optimizer step over the net's flat array, on the gradients of
    Mlp.backward clipped to global norm grad_clip if > 0."""
    optimizer_step(net.flat, clip_global_norm(grads, grad_clip), opt)


def _fit_taken(net: Mlp, inputs: np.ndarray, idx: np.ndarray, targets: np.ndarray):
    """Mean of 0.5*(Q(inputs)[idx] - y)^2 over the batch and the weight
    gradients, through the taken index's output alone."""
    q, cache = net.forward(inputs)
    rows = np.arange(q.shape[0])
    err = q[rows, idx] - targets
    loss = float(np.mean(0.5 * err ** 2))
    dq = np.zeros_like(q)
    dq[rows, idx] = err / q.shape[0]
    grads = net.backward(cache, dq)
    return loss, grads


def critic_loss_and_grads(batch: dict, critic: Mlp, targets: np.ndarray):
    """Mean of 0.5*(Q(s_t, L_t, x_{L_t}; w) - y)^2 over the batch; only the
    taken action's pass is fitted."""
    rows = np.arange(batch["states"].shape[0])
    idx = batch["action_idx"]
    own = np.zeros_like(batch["param_vecs"])
    own[rows, idx] = batch["param_vecs"][rows, idx]
    return _fit_taken(critic, np.concatenate([batch["states"], own], axis=1), idx,
                     targets)


def critic_update(batch: dict, critic: Mlp, targets: np.ndarray,
                  opt: OptimizerState, grad_clip: float = 0.0) -> float:
    loss, grads = critic_loss_and_grads(batch, critic, targets)
    _clipped_step(critic, grads, opt, grad_clip)
    return loss


def actor_loss_and_grads(batch: dict, actor: Mlp, critic: Mlp, mode: str,
                         scratch: dict | None = None):
    """Policy loss and actor gradients; critic parameters are left untouched.

    paper_literal: -sum_L Q[s, L, x_L(s); w] * P(L|s) with gradients through
    both the parameter heads and the probability head, the loss SID-PDQN
    trains with; standard_pdqn drops the probability weighting, the loss of
    plain P-DQN that the gradient checks compare against.  Each Q_L comes
    from its own critic pass, so x_L receives gradient from Q_L alone.
    """
    if mode not in ("paper_literal", "standard_pdqn"):
        raise ValueError(f"unknown actor loss mode: {mode}")
    states = batch["states"]
    (params, probs), cache_a = actor.forward(states)
    q, acts = pass_q(critic, states, params, scratch)
    b = states.shape[0]
    if mode == "paper_literal":
        loss = float(np.mean(-(q * probs).sum(axis=1)))
        dq = -probs / b
        dprobs = -q / b
    else:
        loss = float(np.mean(-q.sum(axis=1)))
        dq = np.full_like(q, -1.0 / b)
        dprobs = np.zeros_like(probs)
    grad_params = pass_q_param_grad(critic, acts, dq)
    grads = actor.backward(cache_a, (grad_params, dprobs))
    return loss, grads


def actor_update(batch: dict, actor: Mlp, critic: Mlp, opt: OptimizerState,
                 grad_clip: float = 0.0, scratch: dict | None = None) -> float:
    """One actor step on the paper_literal loss."""
    loss, grads = actor_loss_and_grads(batch, actor, critic, "paper_literal", scratch)
    _clipped_step(actor, grads, opt, grad_clip)
    return loss


class NStepAssembler:
    """Builds n-step records from a per-user stream of transitions."""

    def __init__(self, n: int, gamma: float):
        self.n = n
        self.gamma = gamma
        self.pending = deque()

    def push(self, state, action_idx, param_vec, reward, next_state):
        self.pending.append([state, action_idx, param_vec, reward, next_state])
        if len(self.pending) == self.n:
            return [self._emit(done=False)]
        return []

    def flush(self):
        out = []
        while self.pending:
            out.append(self._emit(done=True))
        return out

    def _emit(self, done: bool):
        k = len(self.pending)
        r_n = sum(self.gamma ** i * rec[3] for i, rec in enumerate(self.pending))
        last_next = self.pending[-1][4]
        first = self.pending.popleft()
        return (first[0], first[1], first[2], r_n, last_next, done, k)


@dataclass
class TrainingLog:
    rows: list = field(default_factory=list)

    def append(self, **kw):
        self.rows.append(kw)

    def final_mean_reward(self, n: int = 100) -> float:
        rewards = [r["reward"] for r in self.rows[-n:]]
        return float(np.mean(rewards)) if rewards else math.nan


class Agent:
    """The rollout loop shared by every algorithm.

    All users share one replay buffer and, in a learner, one set of
    networks.  Each observed state is encoded once, by encode.  A subclass
    supplies act(encoded, epsilon) -> (actions, records), given every
    user's encoded state, with one (encoded state, action index, parameter
    vector) record per user for the buffer (none for a policy that does not
    learn); learn() -> (critic loss, actor loss); and, if it learns,
    sync_target(), the target-network copy.
    """

    def __init__(self, env: RisDownlinkEnv, config: AgentConfig,
                 rng: np.random.Generator, param_dim: int):
        self.env = env
        self.config = config
        self.rng = rng
        self.buffer = ReplayBuffer(config.buffer_capacity, STATE_DIM, param_dim)
        self.global_step = 0

    def _batch(self):
        """A replay batch, or None while the buffer is warming up."""
        buf = self.buffer
        if len(buf) < self.config.warmup or len(buf) < self.config.batch_size:
            return None
        return buf.sample(self.rng, self.config.batch_size)

    def sync_target(self):
        """Copy the online nets to the target nets; nothing to copy here."""

    def encode(self, states: list) -> list:
        """Each user's StateVector as the network input act reads; the
        records' next states are these arrays too."""
        env = self.env
        return [s.encode(env.p_max, env.n_max) for s in states]

    def train(self, episodes: int, steps: int, log: TrainingLog | None = None) -> TrainingLog:
        log = log or TrainingLog()
        cfg = self.config
        env = self.env
        for ep in range(episodes):
            encoded = self.encode(env.reset())
            assemblers = [NStepAssembler(cfg.n_step, cfg.gamma_discount)
                          for _ in range(env.n_users)]
            ep_rewards = []
            for _ in range(steps):
                eps = cfg.epsilon.value(self.global_step)
                actions, records = self.act(encoded, eps)
                outcome = env.step(actions)
                encoded = self.encode(outcome.next_states)
                for u, rec in enumerate(records):
                    for n_rec in assemblers[u].push(*rec, outcome.reward, encoded[u]):
                        self.buffer.insert(*n_rec)
                closs, aloss = self.learn()
                ep_rewards.append(outcome.reward)
                log.append(episode=ep, step=self.global_step, epsilon=eps,
                           reward=outcome.reward,
                           mean_episode_reward=_mean(ep_rewards),
                           critic_loss=closs, actor_loss=aloss,
                           buffer_fill=len(self.buffer))
                self.global_step += 1
                if self.global_step % cfg.target_sync == 0:
                    self.sync_target()
            for asm in assemblers:
                for n_rec in asm.flush():
                    self.buffer.insert(*n_rec)
        return log

    def evaluate(self, episodes: int, steps: int):
        """Greedy rollouts scored under the eval quadrature profile."""
        env = self.env
        rewards = []
        varpis = np.zeros(env.n_users)
        count = 0
        for _ in range(episodes):
            encoded = self.encode(env.reset())
            for _ in range(steps):
                actions, _ = self.act(encoded, 0.0)
                outcome = env.step(actions, profile="eval")
                rewards.append(outcome.reward)
                varpis += np.asarray(outcome.per_user_varpi)
                count += 1
                encoded = self.encode(outcome.next_states)
        mean_varpi = (varpis / max(count, 1)).tolist()
        return float(np.mean(rewards)) if rewards else math.nan, mean_varpi

    # -- persistence: a learner names its algo, its nets and its optimizers --

    def to_blob(self) -> dict:
        """The learner's state: each net's flat array, and each optimizer's
        step count and moments (None before its first step).  The layout and
        the hyperparameters are the scenario's, which config_hash pins."""
        def listed(a):
            return None if a is None else a.tolist()
        return {"version": CHECKPOINT_VERSION, "algo": self.algo,
                "nets": {name: net.flat.tolist() for name, net in self._nets().items()},
                "optimizers": {name: {"step_count": opt.step_count,
                                      "m": listed(opt.m), "v": listed(opt.v)}
                               for name, (opt, _) in self._optimizers().items()},
                "rng_state": self.rng.bit_generator.state,
                "global_step": self.global_step}

    def load_blob(self, blob: dict):
        """Load a to_blob state in place into the nets and optimizers built
        from the scenario.  Every entry is checked before any is loaded: a
        missing or malformed one raises ConfigError."""
        if blob.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"checkpoint version mismatch: {blob.get('version')}")
        if blob.get("algo") != self.algo:
            raise ConfigError(f"checkpoint algo mismatch: {blob.get('algo')}")
        nets = _entry(blob, "nets")
        flats = [(net.flat, _finite_array(_entry(nets, name), net.flat, name))
                 for name, net in self._nets().items()]
        saved = _entry(blob, "optimizers")
        opts = []
        for name, (opt, net) in self._optimizers().items():
            entry = _entry(saved, name)
            moments = [_entry(entry, k) for k in ("m", "v")]
            if moments != [None, None]:         # both moments, or neither
                moments = [_finite_array(a, net.flat, f"{name} optimizer {k}")
                           for k, a in zip(("m", "v"), moments)]
            step_count = _count(_entry(entry, "step_count"), f"{name} step_count")
            opts.append((opt, step_count, *moments))
        global_step = _count(_entry(blob, "global_step"), "global_step")
        rng_state = _entry(blob, "rng_state")
        try:
            self.rng.bit_generator.state = rng_state
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"checkpoint rng_state rejected: {exc}") from None
        for flat, values in flats:
            flat[...] = values
        for opt, step_count, m, v in opts:
            opt.step_count, opt.m, opt.v = step_count, m, v
        self.global_step = global_step


def _entry(blob, key: str):
    """blob[key] of a checkpoint's JSON object; ConfigError if it has none."""
    if not isinstance(blob, dict) or key not in blob:
        raise ConfigError(f"checkpoint has no {key!r} entry")
    return blob[key]


def _finite_array(values, like: np.ndarray, what: str) -> np.ndarray:
    """A checkpoint list as an array of like's dtype; ConfigError unless it
    holds exactly like.size floats, as to_blob writes them, each finite in
    that dtype."""
    if (isinstance(values, list) and len(values) == like.size
            and all(type(x) is float for x in values)):
        with np.errstate(over="ignore"):
            arr = np.array(values, dtype=like.dtype)
        if np.isfinite(arr).all():
            return arr
    raise ConfigError(f"checkpoint {what} is not a list of {like.size} finite floats")


def _count(value, what: str) -> int:
    if type(value) is not int or value < 0:
        raise ConfigError(f"checkpoint {what} is not a non-negative integer: {value!r}")
    return value


class SidPdqnAgent(Agent):
    """Hybrid-action agent over a RisDownlinkEnv."""

    algo = "sid_pdqn"

    def __init__(self, env: RisDownlinkEnv, config: AgentConfig, seed: int = 0):
        n_l = env.codebook.size
        super().__init__(env, config, np.random.default_rng([seed, 21]), n_l)
        net_rng = np.random.default_rng([seed, 22])
        self.actor = Mlp([STATE_DIM, *config.hidden, 2 * n_l], net_rng,
                         head="actor", n_discrete=n_l, dtype=NET_DTYPE)
        self.critic = Mlp([STATE_DIM + n_l, *config.hidden, n_l], net_rng,
                          dtype=NET_DTYPE)
        self.critic_target = self.critic.copy()
        self.actor_opt = config.make_optimizer(config.beta)
        self.critic_opt = config.make_optimizer(config.alpha)
        # per-pass critic arrays kept between learn steps: fresh ones of this
        # size come from the OS and page-fault on every step
        self.scratch: dict = {}

    def act(self, encoded: list, epsilon: float):
        actions, seen, params = sid_collect_slot(
            encoded, self.env.sid_order, self.actor, self.critic, epsilon,
            self.env.codebook, self.env, self.rng)
        return actions, [(e, a.discrete_index, p)
                         for a, e, p in zip(actions, seen, params)]

    def learn(self):
        cfg = self.config
        batch = self._batch()
        if batch is None:
            return math.nan, math.nan
        y = n_step_target(batch, self.critic_target, self.actor, cfg.gamma_discount,
                          self.scratch)
        closs = critic_update(batch, self.critic, y, self.critic_opt, cfg.grad_clip)
        aloss = actor_update(batch, self.actor, self.critic, self.actor_opt,
                             cfg.grad_clip, self.scratch)
        return closs, aloss

    def sync_target(self):
        self.critic_target = self.critic.copy()

    def _nets(self) -> dict:
        return {"actor": self.actor, "critic": self.critic,
                "critic_target": self.critic_target}

    def _optimizers(self) -> dict:
        return {"actor": (self.actor_opt, self.actor),
                "critic": (self.critic_opt, self.critic)}


class DqnAgent(Agent):
    """Plain DQN baseline over the fully discretised action space.

    The continuous blocklength parameter is collapsed onto a fixed grid so
    one flat index selects (codeword, blocklength level).
    """

    algo = "dqn"

    def __init__(self, env: RisDownlinkEnv, config: AgentConfig, seed: int = 0):
        super().__init__(env, config, np.random.default_rng([seed, 31]), 1)
        net_rng = np.random.default_rng([seed, 32])
        levels = config.cbl_levels
        self.cbl_grid = np.array([0.5]) if levels == 1 else np.linspace(0.0, 1.0, levels)
        self.n_actions = env.codebook.size * len(self.cbl_grid)
        self.q_net = Mlp([STATE_DIM, *config.hidden, self.n_actions], net_rng,
                         dtype=NET_DTYPE)
        self.q_target = self.q_net.copy()
        self.opt = config.make_optimizer(config.alpha)
        self.no_param = np.zeros(1)

    def flat_to_hybrid(self, flat: int) -> HybridAction:
        grid = len(self.cbl_grid)
        return HybridAction(flat // grid, float(self.cbl_grid[flat % grid]))

    def act(self, encoded: list, epsilon: float):
        def choose(user, enc):
            if self.rng.random() < epsilon:
                flat = int(self.rng.integers(self.n_actions))
            else:
                q, _ = self.q_net.forward(enc)
                flat = int(np.argmax(q[0]))
            return self.flat_to_hybrid(flat), flat

        actions, seen, flats = collect_slot(encoded, self.env.sid_order, choose,
                                            self.env)
        return actions, [(e, f, self.no_param) for e, f in zip(seen, flats)]

    def learn(self):
        cfg = self.config
        batch = self._batch()
        if batch is None:
            return math.nan, math.nan
        q_next, _ = self.q_target.forward(batch["next_states"])
        y = _n_step_return(batch, cfg.gamma_discount, q_next.max(axis=1))
        loss, grads = _fit_taken(self.q_net, batch["states"], batch["action_idx"], y)
        _clipped_step(self.q_net, grads, self.opt, cfg.grad_clip)
        return loss, math.nan

    def sync_target(self):
        self.q_target = self.q_net.copy()

    def _nets(self) -> dict:
        return {"q_net": self.q_net, "q_target": self.q_target}

    def _optimizers(self) -> dict:
        return {"q_net": (self.opt, self.q_net)}


class RandomPolicy(Agent):
    """Uniform-random hybrid actions, drawn in user-index order; learns
    nothing and stores nothing in its buffer."""

    def __init__(self, env: RisDownlinkEnv, rng: np.random.Generator):
        # every action explores, so the log reads epsilon = 1
        config = replace(AgentConfig.from_scenario(env.config),
                         epsilon=EpsilonSchedule(1.0, 1.0, 0))
        super().__init__(env, config, rng, 0)

    def encode(self, states: list) -> list:
        return states                   # act reads no state

    def act(self, encoded: list, epsilon: float):
        return [HybridAction(int(self.rng.integers(self.env.codebook.size)),
                             float(self.rng.random()))
                for _ in range(self.env.n_users)], []

    def learn(self):
        return math.nan, math.nan


def random_policy_log(env: RisDownlinkEnv, episodes: int, steps: int,
                      rng: np.random.Generator) -> TrainingLog:
    """Uniform-random hybrid actions; the learnability reference."""
    return RandomPolicy(env, rng).train(episodes, steps)


def save_checkpoint(path: str, agent, scenario: ScenarioConfig):
    blob = agent.to_blob()
    blob["config_hash"] = config_hash(scenario)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)


def load_checkpoint(path: str, agent, scenario: ScenarioConfig):
    """Restore ``agent``, built from ``scenario``, from a checkpoint file.  An
    unreadable file, one that is not a JSON object, one trained under another
    scenario, one of another checkpoint version or algo, or one with a
    missing or malformed entry raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read checkpoint {path!r}: {exc}") from None
    if not isinstance(blob, dict):
        raise ConfigError(f"checkpoint {path!r} is not a JSON object")
    if blob.get("config_hash") != config_hash(scenario):
        raise ConfigError("checkpoint was trained under a different config")
    agent.load_blob(blob)
    return agent
