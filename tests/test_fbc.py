import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc, ndtri

from ris_detnet import fbc
from ris_detnet.fbc import (LOG2E, SecrecyParams, dispersion, fbc_secrecy_rate,
                            q_inv, secrecy_capacity)


def bisect_q_inv(p, lo=-10.0, hi=10.0):
    """Independent oracle: bisection on 0.5*erfc(z/sqrt(2)) = p."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * erfc(mid / math.sqrt(2.0)) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_q_inv_half_is_zero():
    assert q_inv(0.5) == pytest.approx(0.0, abs=1e-12)


def test_q_inv_matches_bisection_oracle():
    assert q_inv(2e-6) == pytest.approx(4.6114, abs=1e-3)
    for p in (1e-6, 1e-3, 0.1, 0.9):
        assert q_inv(p) == pytest.approx(bisect_q_inv(p), abs=1e-9)


def test_q_inv_round_trip():
    for p in (1e-6, 1e-3, 0.1, 0.9):
        assert float(0.5 * erfc(q_inv(p) / math.sqrt(2.0))) == pytest.approx(
            p, abs=1e-9 * max(p, 1e-3))


def test_q_inv_equals_scipy_ndtri_at_shipped_probabilities():
    # every shipped scenario uses epsilon_e = 2e-6 and sigma_leak = 1e-3, so
    # these values must match the scipy reference bit for bit
    for p in (2e-6, 1e-3, 0.5):
        assert type(q_inv(p)) is float
        assert q_inv(p) == -float(ndtri(p))


def test_q_inv_within_1e_15_relative_of_scipy_ndtri():
    ps = np.geomspace(1e-15, 1.0 - 1e-6, 20000)
    ours = np.array([q_inv(p) for p in ps])
    ref = -ndtri(ps)
    assert np.all(np.abs(ours - ref) <= 1e-15 * np.abs(ref))


def test_package_import_does_not_load_scipy():
    # scipy is a test reference only; the package runs on numpy and the stdlib
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, ris_detnet, ris_detnet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_q_inv_domain():
    for bad in (0.0, 1.0, -0.1, 1.3):
        with pytest.raises(ValueError):
            q_inv(bad)


def test_dispersion_values():
    assert dispersion(0.0) == 0.0
    assert dispersion(1.0) == pytest.approx(0.75)
    assert dispersion(1e6) > 1 - 1e-11
    gammas = np.linspace(0, 50, 100)
    v = dispersion(gammas)
    assert np.all(np.diff(v) > 0)
    assert np.all((v >= 0) & (v < 1))


def test_secrecy_capacity_values():
    assert secrecy_capacity(5.0, 5.0) == 0.0
    assert secrecy_capacity(3.0, 1.0) == pytest.approx(1.0)
    assert secrecy_capacity(7.0, 0.0) == pytest.approx(np.log2(8.0))
    assert secrecy_capacity(1.0, 3.0) < 0


def test_rate_equals_capacity_at_half_probabilities():
    params = SecrecyParams(epsilon_e=0.5, sigma_leak=0.5, blocklength=32)
    assert fbc_secrecy_rate(9.0, 1.0, params) == pytest.approx(
        max(0.0, secrecy_capacity(9.0, 1.0)), abs=1e-12)
    assert fbc_secrecy_rate(1.0, 9.0, params) == 0.0


def test_rate_limit_large_blocklength():
    params = SecrecyParams(blocklength=1e9)
    c = secrecy_capacity(100.0, 1.0)
    assert abs(fbc_secrecy_rate(100.0, 1.0, params) - max(0.0, c)) < 1e-3


def test_rate_nondecreasing_in_blocklength():
    rates = [fbc_secrecy_rate(100.0, 1.0, SecrecyParams(2e-6, 1e-3, n))
             for n in (64, 128, 256, 512, 1024, 2048, 4096, 8192)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_rate_below_clamped_capacity():
    rng = np.random.default_rng(3)
    params = SecrecyParams(epsilon_e=1e-4, sigma_leak=1e-3, blocklength=200)
    for _ in range(200):
        gu, ge = rng.exponential(50), rng.exponential(5)
        rate = fbc_secrecy_rate(gu, ge, params)
        assert rate <= max(0.0, secrecy_capacity(gu, ge)) + 1e-12


def test_rate_monotone_in_snrs():
    params = SecrecyParams(blocklength=128)
    gus = np.geomspace(1, 1e4, 25)
    r_up = [fbc_secrecy_rate(g, 2.0, params) for g in gus]
    assert all(b >= a - 1e-12 for a, b in zip(r_up, r_up[1:]))
    ges = np.geomspace(0.1, 1e3, 25)
    r_dn = [fbc_secrecy_rate(1e4, g, params) for g in ges]
    assert all(b <= a + 1e-12 for a, b in zip(r_dn, r_dn[1:]))


def test_penalties_and_rate_follow_the_normal_approximation():
    # pen_u takes the user dispersion as 1; the rate keeps the exact one
    params = SecrecyParams(epsilon_e=2e-6, sigma_leak=1e-3, blocklength=256)
    assert params.pen_u == q_inv(2e-6) / 16.0
    ge = np.array([0.0, 0.2, 3.0, 1e4])
    pen_e = params.pen_e(ge)
    assert pen_e[0] == 0.0
    np.testing.assert_allclose(pen_e, np.sqrt(dispersion(ge)) / 16.0 * q_inv(1e-3),
                               rtol=1e-14)
    for gu in (3.16, 10.0, 100.0):
        want = (secrecy_capacity(gu, 0.2)
                - (math.sqrt(dispersion(gu)) * q_inv(2e-6)
                   + math.sqrt(dispersion(0.2)) * q_inv(1e-3)) / 16.0 * LOG2E)
        assert fbc_secrecy_rate(gu, 0.2, params) == pytest.approx(want, rel=1e-12)


def test_secrecy_constants_computed_once_per_params(monkeypatch):
    # pen_u, pen_e, pen_e_max and the rate take their Qinv factors from one
    # computation per SecrecyParams, bit for bit as computed on each access;
    # the parameters are frozen, so those factors cannot go stale
    calls = []
    monkeypatch.setattr(fbc, "q_inv", lambda p: calls.append(p) or q_inv(p))
    ge = np.array([0.0, 0.2, 3.0, 1e4])
    for eps, sigma, n in ((2e-6, 1e-3, 128.0), (0.3, 0.7, 17.5), (1e-12, 0.5, 1.0)):
        params = SecrecyParams(eps, sigma, n)
        for _ in range(3):
            assert params.pen_u == q_inv(eps) / math.sqrt(n)
            assert params.pen_e_max == max(0.0, q_inv(sigma)) / math.sqrt(n)
            assert params.pen_e(ge).tobytes() == (
                np.sqrt(dispersion(ge) / n) * q_inv(sigma)).tobytes()
            rate = (secrecy_capacity(50.0, 0.2)
                    - np.sqrt(dispersion(50.0) / n) * q_inv(eps) * LOG2E
                    - params.pen_e(0.2) * LOG2E)
            assert fbc_secrecy_rate(50.0, 0.2, params) == float(np.maximum(rate, 0.0))
        assert sorted(calls) == sorted([eps, sigma])
        calls.clear()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.blocklength = 2.0


def test_secrecy_params_validation():
    with pytest.raises(ValueError):
        SecrecyParams(epsilon_e=0.0)
    with pytest.raises(ValueError):
        SecrecyParams(sigma_leak=1.0)
    with pytest.raises(ValueError):
        SecrecyParams(blocklength=0.5)
