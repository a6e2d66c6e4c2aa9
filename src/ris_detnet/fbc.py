"""Finite-blocklength secrecy-rate arithmetic.

Normal-approximation secrecy rate for short packets:

    R = C - sqrt(V_k/n)*Qinv(eps_e)*log2(e) - sqrt(V_e/n)*Qinv(sigma)*log2(e)

with secrecy capacity C = log2((1+gamma_k)/(1+gamma_e)) and channel
dispersion V = 1 - (1+gamma)^-2.  Negative rates are clamped to zero (no
secure transmission in that slot).  Qinv comes from the standard library's
`statistics.NormalDist`, so the package runs on numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

LOG2E = float(np.log2(np.e))
_STD = NormalDist()


@dataclass(frozen=True)
class SecrecyParams:
    """Decoding error rate, leakage probability and blocklength.

    The blocklength is kept continuous (it is an RL control).  The Qinv
    factors and the constant penalties are computed at construction; the
    parameters are frozen, so they cannot go stale.
    """

    epsilon_e: float = 2e-6
    sigma_leak: float = 1e-3
    blocklength: float = 128.0

    def __post_init__(self):
        if not 0.0 < self.epsilon_e < 1.0:
            raise ValueError("epsilon_e must be in (0, 1)")
        if not 0.0 < self.sigma_leak < 1.0:
            raise ValueError("sigma_leak must be in (0, 1)")
        if self.blocklength < 1.0:
            raise ValueError("blocklength must be >= 1")
        qinv_eps = q_inv(self.epsilon_e)
        qinv_sigma = q_inv(self.sigma_leak)
        root_n = math.sqrt(self.blocklength)
        object.__setattr__(self, "_qinv_eps", qinv_eps)
        object.__setattr__(self, "_qinv_sigma", qinv_sigma)
        # decoding-error penalty Qinv(eps_e)/sqrt(n), in nats per channel use,
        # with the user dispersion taken as 1 (the analysed service model)
        object.__setattr__(self, "pen_u", qinv_eps / root_n)
        # upper bound of pen_e over Eve's SNR (V_e < 1), and 0 when
        # sigma > 1/2 makes the penalty a bonus
        object.__setattr__(self, "pen_e_max", max(0.0, qinv_sigma) / root_n)

    def pen_e(self, gamma_e):
        """Leakage penalty sqrt(V_e/n)*Qinv(sigma) at Eve's SNR gamma_e, in
        nats per channel use."""
        return self.pen_e_of_dispersion(dispersion(gamma_e))

    def pen_e_of_dispersion(self, v_e):
        """``pen_e`` from Eve's dispersion V_e = ``dispersion(gamma_e)``."""
        return np.sqrt(v_e / self.blocklength) * self._qinv_sigma


@lru_cache(maxsize=64)
def q_inv(p: float) -> float:
    """Inverse of the Gaussian Q function; Q(q_inv(p)) = p.  Memoised by
    value: every model of a run shares its epsilon_e and sigma_leak."""
    if not 0.0 < p < 1.0:
        raise ValueError("q_inv argument must be in (0, 1)")
    return -_STD.inv_cdf(p)


def dispersion(gamma):
    """Channel dispersion V = 1 - (1+gamma)^-2, in [0, 1)."""
    gamma = np.asarray(gamma, dtype=float)
    return 1.0 - 1.0 / (1.0 + gamma) ** 2


def secrecy_capacity(gamma_user, gamma_eve):
    """log2((1+gamma_k)/(1+gamma_e)); negative when Eve's channel is better."""
    gu = np.asarray(gamma_user, dtype=float)
    ge = np.asarray(gamma_eve, dtype=float)
    return np.log2(1.0 + gu) - np.log2(1.0 + ge)


def fbc_secrecy_rate(gamma_user, gamma_eve, params: SecrecyParams):
    """Secrecy rate in bits per channel use, clamped below at 0, with the
    exact user and Eve dispersions."""
    gu = np.asarray(gamma_user, dtype=float)
    ge = np.asarray(gamma_eve, dtype=float)
    n = params.blocklength
    rate = (secrecy_capacity(gu, ge)
            - np.sqrt(dispersion(gu) / n) * params._qinv_eps * LOG2E
            - params.pen_e(ge) * LOG2E)
    out = np.maximum(rate, 0.0)
    return float(out) if out.ndim == 0 else out
