"""Network geometry, large-scale path loss and Rician/Rayleigh block fading.

All links of the downlink are modelled here: the direct AP->user / AP->Eve
scalars (Rayleigh) and the RIS-related vectors AP->RIS, RIS->user, RIS->Eve
(Rician with geometric steering phases).  The module also computes
delta_k^2 and the LoS components behind upsilon_k, from which
RisDownlinkEnv.link_stats builds the LinkStats of the analytic delay
machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

REFERENCE_DISTANCE_M = 1.0
# the episode's fading and the Eve calibration build their links in blocks of
# draws whose normals take at most this many bytes, or of one draw: 61 draws
# on the reference scenario (500 calibration draws at once raised the peak
# RSS of a process by about 1.5 MB; one draw of 1024 users and 4096 elements
# is 67 MB of normals)
DRAW_BLOCK_BYTES = 1 << 16


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


@dataclass
class Topology:
    """Node coordinates (metres) plus the RIS array description.

    RIS elements form a uniform linear array along the x axis, centred on
    ``ris_pos``.  ``element_spacing`` defaults to half the carrier
    wavelength when left as None.  The geometry is fixed once built, so the
    link distances and steering vectors are computed on first use and kept.
    """

    ap_pos: np.ndarray
    ris_pos: np.ndarray
    eve_pos: np.ndarray
    user_pos: np.ndarray          # (K, 2)
    n_elements: int
    carrier_wavelength: float = 0.1
    element_spacing: float | None = None
    placement_radius: float = 2.0

    def __post_init__(self):
        self.ap_pos = np.asarray(self.ap_pos, dtype=float).reshape(2)
        self.ris_pos = np.asarray(self.ris_pos, dtype=float).reshape(2)
        self.eve_pos = np.asarray(self.eve_pos, dtype=float).reshape(2)
        self.user_pos = np.atleast_2d(np.asarray(self.user_pos, dtype=float))
        if self.user_pos.shape[1] != 2:
            raise ValueError("user_pos must be (K, 2)")
        if self.n_elements < 0:
            raise ValueError("n_elements must be >= 0")
        if self.carrier_wavelength <= 0:
            raise ValueError("carrier_wavelength must be positive")
        if self.element_spacing is None:
            self.element_spacing = self.carrier_wavelength / 2.0
        if self.element_spacing <= 0:
            raise ValueError("element_spacing must be positive")
        for name, d in (("ap-ris", self.dist_ap_ris),
                        ("ap-eve", self.dist_ap_eve)):
            if d <= 0:
                raise ValueError(f"degenerate {name} link distance")
        if np.any(self.dist_ap_user <= 0) or np.any(self.dist_ris_user <= 0):
            raise ValueError("degenerate user link distance")
        off = np.linalg.norm(self.user_pos - self.eve_pos[None, :], axis=1)
        if np.any(off > self.placement_radius + 1e-9):
            raise ValueError("user outside the placement radius around Eve")

    @property
    def n_users(self) -> int:
        return self.user_pos.shape[0]

    @cached_property
    def dist_ap_ris(self) -> float:
        return float(np.linalg.norm(self.ap_pos - self.ris_pos))

    @cached_property
    def dist_ap_eve(self) -> float:
        return float(np.linalg.norm(self.ap_pos - self.eve_pos))

    @cached_property
    def dist_ap_user(self) -> np.ndarray:
        return np.linalg.norm(self.user_pos - self.ap_pos[None, :], axis=1)

    @cached_property
    def dist_ris_user(self) -> np.ndarray:
        return np.linalg.norm(self.user_pos - self.ris_pos[None, :], axis=1)

    @cached_property
    def dist_ris_eve(self) -> float:
        return float(np.linalg.norm(self.eve_pos - self.ris_pos))

    def element_positions(self) -> np.ndarray:
        """(N, 2) element coordinates of the ULA."""
        n = np.arange(self.n_elements, dtype=float)
        offs = (n - (self.n_elements - 1) / 2.0) * self.element_spacing
        pos = np.tile(self.ris_pos, (self.n_elements, 1))
        pos[:, 0] += offs
        return pos

    @cached_property
    def steering(self):
        """LoS steering vectors of the AP, of each user (a (K, N) array) and
        of Eve."""
        return (steering_vector(self.ap_pos, self),
                np.array([steering_vector(u, self) for u in self.user_pos],
                         dtype=complex).reshape(self.n_users, self.n_elements),
                steering_vector(self.eve_pos, self))


@dataclass
class FadingParams:
    """Large/small-scale channel statistics shared by all links."""

    pl0_db: float = -30.0
    alpha_direct: float = 4.0
    alpha_ris: float = 2.2
    rician_k_r: float = 3.0
    rician_k_gk: float = 3.0
    noise_power_dbm: float = -85.0
    eve_mean_snr: float | None = None   # 1/lambda_Eve; None = calibrate later

    def __post_init__(self):
        if self.pl0_db >= 0:
            raise ValueError("pl0_db must be negative (a loss)")
        if self.alpha_direct < 2 or self.alpha_ris < 2:
            raise ValueError("path loss exponents must be >= 2")
        if self.rician_k_r < 0 or self.rician_k_gk < 0:
            raise ValueError("Rician factors must be >= 0")
        if not np.isfinite(self.noise_power_dbm):
            raise ValueError("noise power must be finite")
        if self.eve_mean_snr is not None and self.eve_mean_snr <= 0:
            raise ValueError("eve_mean_snr must be positive")

    @property
    def noise_power_watts(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)


@dataclass
class PhaseShiftConfig:
    """Unit-modulus RIS reflection phases, one per element."""

    phases: np.ndarray

    def __post_init__(self):
        self.phases = np.mod(np.asarray(self.phases, dtype=float).ravel(), 2 * np.pi)

    @property
    def n_elements(self) -> int:
        return self.phases.size

    @property
    def coefficients(self) -> np.ndarray:
        """exp(j*phi_n); |theta_n| = 1 by construction."""
        return np.exp(1j * self.phases)


@dataclass
class ChannelRealization:
    """One block-fading draw of every complex link, or a block of draws
    when every field carries a leading axis of draws (h_direct_eve too)."""

    h_direct: np.ndarray        # (K,) AP->user
    g_ris: np.ndarray           # (N,) AP->RIS
    f_user: np.ndarray          # (K, N) RIS->user
    f_eve: np.ndarray           # (N,) RIS->Eve
    h_direct_eve: complex

    def __post_init__(self):
        for arr in (self.h_direct, self.g_ris, self.f_user, self.f_eve):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite channel entry")
        n = self.g_ris.shape[-1]
        if self.f_eve.shape[-1] != n or (self.f_user.size and self.f_user.shape[-1] != n):
            raise ValueError("RIS vector length mismatch")


@dataclass(frozen=True)
class LinkStats:
    """Distribution parameters of one user's SNR model.

    delta_k_sq is the variance of the composite gain around its LoS mean,
    upsilon_k the squared LoS composite |f^H Theta g|^2, rho the transmit
    SNR P_k/sigma_n^2 and lambda_eve the exponential rate (1/mean linear
    SNR) of the eavesdropper model.  In place of the Rician user SNR the
    analysis assumes an exponential of scale ``snr_scale`` that is finite
    with probability exp(``los_log``); the rest counts as infinite service.
    """

    delta_k_sq: float
    upsilon_k: float
    rho: float
    lambda_eve: float

    def __post_init__(self):
        vals = (self.delta_k_sq, self.upsilon_k, self.rho, self.lambda_eve)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("non-finite link statistic")
        if self.delta_k_sq <= 0 or self.rho <= 0 or self.lambda_eve <= 0:
            raise ValueError("delta_k_sq, rho and lambda_eve must be positive")
        if self.upsilon_k < 0:
            raise ValueError("upsilon_k must be >= 0")

    @property
    def snr_scale(self) -> float:
        """rho*delta^2."""
        return self.rho * self.delta_k_sq

    @property
    def los_log(self) -> float:
        """-upsilon/delta^2."""
        return -self.upsilon_k / self.delta_k_sq


def path_loss(d: float, alpha: float, pl0_db: float) -> float:
    """Linear power gain PL0 * (d/d0)^-alpha with d0 = 1 m."""
    if d <= 0:
        raise ValueError("distance must be positive")
    return db_to_linear(pl0_db) * (d / REFERENCE_DISTANCE_M) ** (-alpha)


def steering_vector(src_pos: np.ndarray, topology: Topology) -> np.ndarray:
    """Unit-magnitude LoS phases exp(-j*2*pi*l_n/lambda) to all elements."""
    elem = topology.element_positions()
    l_n = np.linalg.norm(elem - np.asarray(src_pos, dtype=float)[None, :], axis=1)
    return np.exp(-2j * np.pi * l_n / topology.carrier_wavelength)


def _rician_vector(cn, steering, pl, k_factor):
    """sqrt(PL) * (sqrt(K/(K+1)) * LoS + sqrt(1/(K+1)) * NLoS).

    cn holds the unit-variance complex normals of the NLoS part.  Path loss
    and the Rician mixing weights are applied exactly once so that
    E|entry|^2 equals the link path loss.
    """
    los = np.sqrt(k_factor / (k_factor + 1.0)) * steering
    nlos = np.sqrt(1.0 / (k_factor + 1.0)) * cn
    return np.sqrt(pl) * (los + nlos)


def los_components(topology: Topology, fading: FadingParams):
    """Fully scaled LoS parts of (g_ris, f_user[k], f_eve).

    Entries carry sqrt(PL * K/(K+1)) * steering phase; these are the means
    of the corresponding Rician vectors.
    """
    g_steer, user_steer, eve_steer = topology.steering
    pl_r = path_loss(topology.dist_ap_ris, fading.alpha_ris, fading.pl0_db)
    g_los = np.sqrt(pl_r * fading.rician_k_r / (fading.rician_k_r + 1.0)) * g_steer
    k_g = fading.rician_k_gk
    f_user_los = []
    for k in range(topology.n_users):
        pl_g = path_loss(topology.dist_ris_user[k], fading.alpha_ris, fading.pl0_db)
        f_user_los.append(np.sqrt(pl_g * k_g / (k_g + 1.0)) * user_steer[k])
    pl_e = path_loss(topology.dist_ris_eve, fading.alpha_ris, fading.pl0_db)
    f_eve_los = np.sqrt(pl_e * k_g / (k_g + 1.0)) * eve_steer
    return g_los, f_user_los, f_eve_los


@lru_cache(maxsize=16)
def _normal_layout(n_elements: int, n_users: int):
    """Where each link's complex normals sit in one realization's draw.

    The draw keeps the order of one standard_normal call per real and per
    imaginary part: AP->RIS, then per user the direct scalar and RIS->user,
    then RIS->Eve and the direct Eve scalar.  Returns the real-part and
    imaginary-part indices of all complex entries, in that link order.
    """
    re, im, pos = [], [], 0
    sizes = [n_elements] + [1, n_elements] * n_users + [n_elements, 1]
    for size in sizes:
        re.append(np.arange(pos, pos + size))
        im.append(np.arange(pos + size, pos + 2 * size))
        pos += 2 * size
    return np.concatenate(re), np.concatenate(im), pos


def draws_per_block(topology: Topology) -> int:
    """Realizations whose normals fit in DRAW_BLOCK_BYTES, and at least one."""
    return max(1, DRAW_BLOCK_BYTES // (8 * _normal_layout(topology.n_elements,
                                                           topology.n_users)[2]))


@lru_cache(maxsize=16)
def _eve_normal_layout(n_elements: int, n_users: int):
    """The real-part and imaginary-part indices of the AP->RIS, RIS->Eve and
    direct Eve normals within one realization's draw."""
    re, im, total = _normal_layout(n_elements, n_users)
    keep = np.r_[0:n_elements, re.size - n_elements - 1:re.size]
    return re[keep], im[keep], total


def _ris_eve_links(topology: Topology, fading: FadingParams, cn_g, cn_e):
    """g_ris, f_eve and h_direct_eve from their unit complex normals: cn_g
    for AP->RIS, cn_e for RIS->Eve followed by the direct Eve scalar.  A
    leading axis of draws, if any, carries through to every output."""
    g_steer, _, eve_steer = topology.steering
    n_el = topology.n_elements
    pl_r = path_loss(topology.dist_ap_ris, fading.alpha_ris, fading.pl0_db)
    g_ris = _rician_vector(cn_g, g_steer, pl_r, fading.rician_k_r)
    pl_fe = path_loss(topology.dist_ris_eve, fading.alpha_ris, fading.pl0_db)
    f_eve = _rician_vector(cn_e[..., :n_el], eve_steer, pl_fe, fading.rician_k_gk)
    pl_de = path_loss(topology.dist_ap_eve, fading.alpha_direct, fading.pl0_db)
    return g_ris, f_eve, np.sqrt(pl_de) * cn_e[..., n_el]


def sample_channels(topology: Topology, fading: FadingParams,
                    rng: np.random.Generator, n_draws: int | None = None
                    ) -> ChannelRealization:
    """Draw one block-fading realization of every link, or n_draws of them.

    Each realization takes 4N + K(2 + 2N) + 2 normals, in the order of
    ``_normal_layout``, and all realizations come from one standard_normal
    call, one after the other; so a block of n_draws holds, bit for bit, the
    realizations that n_draws calls without n_draws would give.  With
    n_draws, every field carries a leading axis of draws.
    """
    n_el, n_users = topology.n_elements, topology.n_users
    re, im, total = _normal_layout(n_el, n_users)
    z = rng.standard_normal((1 if n_draws is None else n_draws, total))
    # take keeps each draw's row contiguous (z[:, re] would not), so every
    # link of a draw is contiguous and its dot products see the same strides
    # as a single draw's
    cn = (np.take(z, re, axis=1) + 1j * np.take(z, im, axis=1)) / np.sqrt(2.0)
    del z       # one draw of 1024 users x 4096 elements is 67 MB of normals
    user_steer = topology.steering[1]

    end = n_el + n_users * (1 + n_el)
    per_user = cn[:, n_el:end].reshape(-1, n_users, 1 + n_el)
    h_direct = np.empty(per_user.shape[:2], dtype=complex)
    f_user = np.empty(per_user[:, :, 1:].shape, dtype=complex)
    # user by user, so that no temporary spans every user's links
    for k in range(n_users):
        pl_d = path_loss(topology.dist_ap_user[k], fading.alpha_direct, fading.pl0_db)
        h_direct[:, k] = np.sqrt(pl_d) * per_user[:, k, 0]
        pl_g = path_loss(topology.dist_ris_user[k], fading.alpha_ris, fading.pl0_db)
        f_user[:, k] = _rician_vector(per_user[:, k, 1:], user_steer[k], pl_g,
                                      fading.rician_k_gk)
    g_ris, f_eve, h_direct_eve = _ris_eve_links(topology, fading, cn[:, :n_el],
                                                cn[:, end:])
    if n_draws is None:
        return ChannelRealization(h_direct[0], g_ris[0], f_user[0], f_eve[0],
                                  complex(h_direct_eve[0]))
    return ChannelRealization(h_direct, g_ris, f_user, f_eve, h_direct_eve)


def composite_gain(h: complex, f: np.ndarray, theta: PhaseShiftConfig,
                   g: np.ndarray) -> complex:
    """h + f^H Theta g, the effective scalar channel through the RIS."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.size != g.size or f.size != theta.n_elements:
        raise ValueError("vector length mismatch")
    return complex(h + np.vdot(f, theta.coefficients * g))


def snr(gain: complex, p_tx: float, noise_watts: float) -> float:
    """|gain|^2 * P / sigma_n^2 (linear)."""
    if noise_watts <= 0:
        raise ValueError("noise power must be positive")
    if p_tx < 0:
        raise ValueError("transmit power must be >= 0")
    return (abs(gain) ** 2) * p_tx / noise_watts


def delta_sq_closed_form(topology: Topology, fading: FadingParams, user: int) -> float:
    """Composite-gain variance: direct path loss + RIS fluctuation term.

    beta0*d^-alpha0 + beta0^2 * d_r^-a1 * d_g^-a2 * N*(1+K_g+K_r)/((1+K_g)(1+K_r))
    """
    beta0 = db_to_linear(fading.pl0_db)
    direct = path_loss(topology.dist_ap_user[user], fading.alpha_direct, fading.pl0_db)
    kr, kg = fading.rician_k_r, fading.rician_k_gk
    ris = (beta0 ** 2
           * topology.dist_ap_ris ** (-fading.alpha_ris)
           * topology.dist_ris_user[user] ** (-fading.alpha_ris)
           * topology.n_elements * (1.0 + kg + kr)
           / ((1.0 + kg) * (1.0 + kr)))
    return direct + ris


def estimate_eve_mean_snr(topology: Topology, fading: FadingParams, p_tx: float,
                          rng: np.random.Generator, n_draws: int) -> float:
    """Mean simulated Eve SNR under random phase configs; 1/lambda_Eve.

    Each draw takes a realization's normals and then a random phase config
    from the stream, as ``sample_channels`` and a uniform draw would, but
    builds only the links that reach Eve, for a block of draws at once
    (``draws_per_block``).  The per-draw dot products run on C-contiguous rows
    and the SNRs are summed in draw order, so the mean is that of a
    per-draw loop bit for bit.
    """
    noise = fading.noise_power_watts
    n_el = topology.n_elements
    re, im, total = _eve_normal_layout(n_el, topology.n_users)
    block = draws_per_block(topology)
    acc = 0.0
    for start in range(0, n_draws, block):
        n = min(block, n_draws - start)
        z = np.empty((n, total))
        phases = np.empty((n, n_el))
        for i in range(n):
            rng.standard_normal(out=z[i])
            phases[i] = rng.uniform(0.0, 2 * np.pi, n_el)
        cn = (z[:, re] + 1j * z[:, im]) / np.sqrt(2.0)
        g_ris, f_eve, h_direct_eve = _ris_eve_links(topology, fading, cn[:, :n_el],
                                                    cn[:, n_el:])
        coeff = PhaseShiftConfig(phases).coefficients.reshape(phases.shape)
        reflected = np.ascontiguousarray(coeff * g_ris)
        f_eve = np.ascontiguousarray(f_eve)
        for i in range(n):
            gain = complex(h_direct_eve[i] + np.vdot(f_eve[i], reflected[i]))
            acc += snr(gain, p_tx, noise)
    return acc / n_draws
