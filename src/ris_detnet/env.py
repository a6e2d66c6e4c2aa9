"""Episodic MDP over the downlink: hybrid actions, budget projection, reward.

Each user picks a discrete codeword (transmit power level x RIS phase
configuration) plus a continuous blocklength parameter in [0, 1].  The
environment projects the joint request onto the per-slot power and
blocklength budgets, applies the shared RIS configuration chosen by the
slot's priority user, scores every user's window determinacy analytically
and pays the mean as reward.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (LinkStats, PhaseShiftConfig, composite_gain,
                      delta_sq_closed_form, draws_per_block, estimate_eve_mean_snr,
                      los_components, sample_channels)
from .config import ScenarioConfig
from .mellin import QUADRATURE_PROFILES, ServiceModel, delay_determinacy

T_SCALE = 32.0   # slot counts are fed to the networks divided by this


@dataclass
class HybridAction:
    """Discrete codeword index plus the continuous blocklength parameter."""

    discrete_index: int
    continuous_param: float

    def __post_init__(self):
        if not 0.0 <= self.continuous_param <= 1.0:
            raise ValueError("continuous_param must be in [0, 1]")
        if self.discrete_index < 0:
            raise ValueError("discrete_index must be >= 0")


@dataclass
class ActionCodebook:
    """Discrete set: power levels crossed with phase codewords (power-major)."""

    power_levels: np.ndarray
    phase_codewords: list

    @property
    def size(self) -> int:
        return len(self.power_levels) * len(self.phase_codewords)

    def decode(self, index: int):
        """index -> (power_watts, codeword_index)."""
        if not 0 <= index < self.size:
            raise ValueError("codeword index out of range")
        n_cw = len(self.phase_codewords)
        return float(self.power_levels[index // n_cw]), index % n_cw


def build_codebook(p_max: float, n_power_levels: int, phase_mode: str,
                   n_codewords: int, n_elements: int, rng: np.random.Generator,
                   phase_bits: int = 3, align_los=None) -> ActionCodebook:
    """Uniform power grid on (0, p_max] and phase codewords per mode.

    quantized: each phase drawn from a b-bit grid; random: uniform phases;
    aligned: the first codeword phase-aligns every reflected term of the
    supplied LoS pair (f_los, g_los), the rest are random fills.
    """
    if n_power_levels < 1 or n_codewords < 1:
        raise ValueError("codebook counts must be >= 1")
    powers = p_max * np.arange(1, n_power_levels + 1) / n_power_levels
    codewords = []
    if phase_mode == "aligned":
        if align_los is None:
            raise ValueError("aligned mode needs the (f_los, g_los) pair")
        f_los, g_los = align_los
        # cancel each term's phase so the reflected sum adds coherently
        codewords.append(PhaseShiftConfig(-np.angle(np.conj(f_los) * g_los)))
    while len(codewords) < n_codewords:
        if phase_mode == "quantized":
            grid = 2 * np.pi * rng.integers(0, 2 ** phase_bits, n_elements) / (2 ** phase_bits)
            codewords.append(PhaseShiftConfig(grid))
        else:
            codewords.append(PhaseShiftConfig(rng.uniform(0.0, 2 * np.pi, n_elements)))
    return ActionCodebook(powers, codewords)


@dataclass
class StateVector:
    """Per-user observation; budgets and peer fields carry the within-slot
    interdependence for sequential action selection."""

    chan_user: np.ndarray        # |composite gain|^2, delta^2, upsilon
    chan_eve: np.ndarray         # |composite gain at Eve|^2, 1/lambda_eve
    prev_action: np.ndarray      # applied (index frac, cbl param, power frac)
    t_min_req: int
    t_max_req: int
    remaining_power: float
    remaining_cbl: float
    slot_peers: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def encode(self, p_max: float, n_max: float) -> np.ndarray:
        """Flat network input; channel powers are mapped through log10."""
        def logf(x):
            return math.log10(max(float(x), 1e-30)) / 10.0
        return np.array([
            logf(self.chan_user[0]), logf(self.chan_user[1]), logf(self.chan_user[2]),
            logf(self.chan_eve[0]), logf(self.chan_eve[1]),
            *self.prev_action,
            self.t_min_req / T_SCALE, self.t_max_req / T_SCALE,
            self.remaining_power / p_max, self.remaining_cbl / n_max,
            *self.slot_peers,
        ], dtype=float)


STATE_DIM = 15


def with_slot_context(enc: np.ndarray, p_max: float, n_max: float,
                      remaining_power: float, remaining_cbl: float,
                      slot_peers) -> np.ndarray:
    """A copy of a StateVector.encode array with the budgets left (entries
    10, 11) and the peer summary (12-14) replaced: to the bit, encode() of
    the state that holds them."""
    out = enc.copy()
    out[10] = remaining_power / p_max
    out[11] = remaining_cbl / n_max
    out[12:] = slot_peers
    return out


@dataclass
class ProjectedAllocation:
    """Budget-feasible per-user allocation after proportional scaling."""

    powers: np.ndarray
    blocklengths: np.ndarray
    codeword_index: int
    power_scaled: bool
    cbl_scaled: bool


@dataclass
class StepOutcome:
    next_states: list
    reward: float
    per_user_varpi: list
    constraint_violation: dict
    info: dict


class RisDownlinkEnv:
    """Quasi-static geometry, per-slot block fading, analytic reward.

    The window-determinacy evaluations are memoised per quadrature profile
    on the exact (user, power, codeword, blocklength, window) key; geometry
    and the codebook are fixed for the lifetime of the instance, so the
    first three fix the LinkStats.  An episode's fading stream is drawn in
    blocks of ``draws_per_block`` realizations, one sample_channels call
    each, and read one realization per slot.
    """

    def __init__(self, config: ScenarioConfig, seed: int | None = None):
        self.config = config
        self.seed = config.get("run", "seed") if seed is None else seed
        geom_rng = np.random.default_rng([self.seed, 11])
        self._codebook_rng = np.random.default_rng([self.seed, 12])
        self._calib_rng = np.random.default_rng([self.seed, 13])

        self.fading = config.build_fading()
        self.topology = config.build_topology(config.sample_user_positions(geom_rng))
        self.n_users = self.topology.n_users
        self.p_max = config.get("budget", "p_max")
        self.n_max = float(config.get("budget", "n_max"))
        self.n_floor = float(config.get("codebook", "n_floor"))
        self.n_ceiling = config.n_ceiling
        self.noise_w = self.fading.noise_power_watts
        self.arrival = config.build_arrival()
        self.window = config.build_window()
        self.violation_penalty = config.get("env", "violation_penalty")

        g_los, f_user_los, _ = los_components(self.topology, self.fading)
        align_user = config.get("codebook", "align_user")
        self.codebook = build_codebook(
            self.p_max, config.get("codebook", "n_power_levels"),
            config.get("codebook", "phase_mode"), config.get("codebook", "n_codewords"),
            self.topology.n_elements, self._codebook_rng,
            phase_bits=config.get("codebook", "phase_bits"),
            align_los=(f_user_los[align_user], g_los))

        if self.fading.eve_mean_snr is not None:
            self.lambda_eve = 1.0 / self.fading.eve_mean_snr
        else:
            mean_snr = estimate_eve_mean_snr(
                self.topology, self.fading, self.p_max / self.n_users,
                self._calib_rng, n_draws=500)
            self.lambda_eve = 1.0 / mean_snr

        # codeword-independent variance and per-codeword LoS composites
        self.delta_sq = np.array([delta_sq_closed_form(self.topology, self.fading, k)
                                  for k in range(self.n_users)])
        n_cw = len(self.codebook.phase_codewords)
        self.upsilon = np.zeros((self.n_users, n_cw))
        for c, theta in enumerate(self.codebook.phase_codewords):
            coeff = theta.coefficients
            for k in range(self.n_users):
                self.upsilon[k, c] = abs(np.vdot(f_user_los[k], coeff * g_los)) ** 2

        self._varpi_cache = {p: {} for p in QUADRATURE_PROFILES}

        self._episode = -1
        self._fade_rng = None
        self._block_draws = draws_per_block(self.topology)
        self._fading_block = None    # a ChannelRealization with a draw axis
        self._draw = 0               # the current slot's draw within it
        self.sid_order = tuple(range(self.n_users))
        self._last_theta = self.codebook.phase_codewords[0]

    # -- determinacy scoring --------------------------------------------

    def link_stats(self, user: int, power: float, codeword_index: int) -> LinkStats:
        """SNR-model parameters of one user at a transmit power and codeword."""
        return LinkStats(delta_k_sq=float(self.delta_sq[user]),
                         upsilon_k=float(self.upsilon[user, codeword_index]),
                         rho=power / self.noise_w, lambda_eve=self.lambda_eve)

    def varpi(self, user: int, power: float, codeword_index: int,
              blocklength: float, profile: str = "train"):
        """Cached window-determinacy result for one user's allocation.

        (user, power, codeword_index) stands for its LinkStats in the memo
        key, so a hit builds none.  A miss scores a fresh model of the key
        (``service_model``), which the memo does not keep.
        """
        # train profile trades blocklength resolution (4 channel uses) for
        # cache hits; evaluation scores the exact continuous value
        n_q = max(1.0, 4.0 * round(blocklength / 4.0)) if profile == "train" else blocklength
        key = (user, float(power), codeword_index, n_q, self.window.t_min, self.window.t_max)
        cache = self._varpi_cache[profile]
        hit = cache.get(key)
        if hit is not None:
            return hit
        result = delay_determinacy(self.window, self.arrival,
                                   self.service_model(*key[:4], profile))
        cache[key] = result
        return result

    def service_model(self, user: int, power: float, codeword_index: int,
                      blocklength: float, profile: str) -> ServiceModel:
        """A fresh service model of one user's allocation under a quadrature
        profile, with the blocklength as given."""
        return ServiceModel(self.link_stats(user, power, codeword_index),
                            self.config.build_secrecy(blocklength),
                            QUADRATURE_PROFILES[profile])

    # -- gym-like surface -------------------------------------------------

    def blocklength_of(self, continuous_param: float) -> float:
        return self.n_floor + continuous_param * (self.n_ceiling - self.n_floor)

    def reset(self, episode: int | None = None) -> list:
        """New episode: fresh fading stream, full budgets, zeroed actions."""
        self._episode = self._episode + 1 if episode is None else episode
        self._fade_rng = np.random.default_rng([self.seed, 1000, self._episode])
        self._fading_block = None
        self._next_fading()
        self.sid_order = tuple(np.roll(np.arange(self.n_users), -(self._episode % self.n_users)))
        self._last_theta = self.codebook.phase_codewords[0]
        return self._observe([np.zeros(3) for _ in range(self.n_users)])

    def _next_fading(self):
        """Move to the next realization of the episode's fading stream,
        drawing a new block of them when the current one is used up."""
        self._draw += 1
        if self._fading_block is None or self._draw == self._block_draws:
            self._fading_block = sample_channels(self.topology, self.fading,
                                                 self._fade_rng, self._block_draws)
            self._draw = 0

    def _observe(self, prev_actions: list) -> list:
        """Every user's state under the current realization and RIS
        configuration; Eve's composite gain is formed once for all users."""
        theta = self._last_theta
        block, i = self._fading_block, self._draw
        gain_e = composite_gain(block.h_direct_eve[i], block.f_eve[i], theta,
                                block.g_ris[i])
        eve = (abs(gain_e) ** 2, 1.0 / self.lambda_eve)
        states = []
        for user, prev_action in enumerate(prev_actions):
            gain_u = composite_gain(block.h_direct[i, user], block.f_user[i, user],
                                    theta, block.g_ris[i])
            states.append(StateVector(
                chan_user=np.array([abs(gain_u) ** 2, self.delta_sq[user],
                                    self.upsilon[user].max()]),
                chan_eve=np.array(eve),
                prev_action=np.asarray(prev_action, dtype=float),
                t_min_req=self.window.t_min, t_max_req=self.window.t_max,
                remaining_power=self.p_max, remaining_cbl=self.n_max))
        return states

    def project_actions(self, actions: list) -> ProjectedAllocation:
        """Proportional scaling onto the power and blocklength budgets.

        Each scaled blocklength is at least min(n_floor, n_max / n_users);
        see _scale_blocklengths.  The applied RIS codeword is the one
        selected by the first user in the slot's round-robin order (the RIS
        is shared).
        """
        if len(actions) != self.n_users:
            raise ValueError("need one action per user")
        powers = np.empty(self.n_users)
        cbls = np.empty(self.n_users)
        cw_by_user = np.empty(self.n_users, dtype=int)
        for k, act in enumerate(actions):
            p, cw = self.codebook.decode(act.discrete_index)
            powers[k] = p
            cw_by_user[k] = cw
            cbls[k] = self.blocklength_of(act.continuous_param)
        power_scaled = powers.sum() > self.p_max * (1 + 1e-12)
        if power_scaled:
            powers *= self.p_max / powers.sum()
        cbl_scaled = cbls.sum() > self.n_max * (1 + 1e-12)
        if cbl_scaled:
            cbls = self._scale_blocklengths(cbls)
        return ProjectedAllocation(powers, cbls, int(cw_by_user[self.sid_order[0]]),
                                   power_scaled, cbl_scaled)

    def _scale_blocklengths(self, cbls: np.ndarray) -> np.ndarray:
        """Blocklengths scaled to sum to n_max, none below the floor
        min(n_floor, n_max / n_users), which n_users floors fit in.  A user
        that scaling would put below the floor gets it, and the others are
        scaled into the budget the floored users leave, until no new user
        falls below.  With no user below, this is the plain scaling."""
        floor = min(self.n_floor, self.n_max / self.n_users)
        out = np.full_like(cbls, floor)
        free = np.ones(len(cbls), dtype=bool)
        while free.any():
            budget = self.n_max - floor * np.count_nonzero(~free)
            scaled = cbls[free] * (budget / cbls[free].sum())
            low = scaled < floor
            if not low.any():
                out[free] = scaled
                break
            free[np.flatnonzero(free)[low]] = False
        return out

    def step(self, actions: list, profile: str = "train") -> StepOutcome:
        """Project, score every user's determinacy under the quadrature
        profile, advance the fading."""
        alloc = self.project_actions(actions)
        results = [self.varpi(k, alloc.powers[k], alloc.codeword_index,
                              alloc.blocklengths[k], profile)
                   for k in range(self.n_users)]
        varpis = [r.varpi for r in results]
        vacuous = [r.clamped["vacuous"] for r in results]
        n_viol = int(alloc.power_scaled) + int(alloc.cbl_scaled)
        # np.mean's sum and division, without its dispatch
        mean_varpi = float(np.add.reduce(varpis) / len(varpis))
        reward = max(0.0, mean_varpi - self.violation_penalty * n_viol)

        self._last_theta = self.codebook.phase_codewords[alloc.codeword_index]
        self._next_fading()
        prevs = [np.array([actions[k].discrete_index / max(1, self.codebook.size - 1),
                           alloc.blocklengths[k] / self.n_max,
                           alloc.powers[k] / self.p_max])
                 for k in range(self.n_users)]
        return StepOutcome(
            next_states=self._observe(prevs),
            reward=reward,
            per_user_varpi=varpis,
            constraint_violation={"power": alloc.power_scaled,
                                  "cbl": alloc.cbl_scaled,
                                  "stability": any(vacuous)},
            info={"codeword_index": alloc.codeword_index,
                  "powers": alloc.powers.tolist(),
                  "blocklengths": alloc.blocklengths.tolist()})
