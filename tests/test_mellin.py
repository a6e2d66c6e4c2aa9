import contextlib
import gc
import io
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from ris_detnet import env as env_module
from ris_detnet import mellin
from ris_detnet.channel import LinkStats
from ris_detnet.cli import main
from ris_detnet.config import dump_config
from ris_detnet.fbc import SecrecyParams, dispersion, q_inv
from ris_detnet.mellin import (QUADRATURE_PROFILES, ArrivalModel, DelayWindow,
                               QuadratureError, QuadratureSpec, SearchError,
                               ServiceModel, StabilityError,
                               arrival_mellin, delay_determinacy, kernel,
                               kernel_from_values, lemma1_kernel,
                               service_mellin_u,
                               service_mellin_u_with_error, stability_edge,
                               stability_product, stability_smax, violation_bound)
from test_acceptance import ris_scenario

LN2 = math.log(2.0)


def make_stats(delta=2e-9, ups=2e-9, rho=1e12, lam_e=1 / 30):
    return LinkStats(delta_k_sq=delta, upsilon_k=ups, rho=rho, lambda_eve=lam_e)


def make_service(blocklength=64.0, eps=2e-6, sigma=1e-3, **kw):
    return ServiceModel(make_stats(**kw), SecrecyParams(eps, sigma, blocklength))


ARRIVAL = ArrivalModel(lambda_pkts=0.08, pkt_bits=16)


# ------------------------------------------------------------- arrival

def test_arrival_mellin_is_one_at_unity():
    for variant in ("paper_literal", "standard_compound"):
        m = ArrivalModel(0.3, 64, variant)
        assert arrival_mellin(1.0, m) == pytest.approx(1.0, rel=1e-14)


def test_arrival_mellin_paper_literal_value():
    m = ArrivalModel(1.0, 1, "paper_literal")
    assert arrival_mellin(2.0, m) == pytest.approx(math.exp(math.e - 1.0), abs=1e-3)
    assert arrival_mellin(2.0, m) == pytest.approx(5.5749, abs=1e-3)


def test_arrival_mellin_standard_matches_mc_oracle():
    # MC moment oracle: E[exp(theta * x * N)], N ~ Poisson(lambda)
    theta, lam, x = 0.01, 0.5, 32
    rng = np.random.default_rng(42)
    draws = rng.poisson(lam, 1_000_000)
    mc = float(np.mean(np.exp(theta * x * draws)))
    val = arrival_mellin(1.0 + theta, ArrivalModel(lam, x, "standard_compound"))
    assert val == pytest.approx(mc, rel=0.01)


def test_arrival_mellin_saturates_instead_of_overflowing():
    m = ArrivalModel(5.0, 4096, "standard_compound")
    assert math.isinf(arrival_mellin(2.0, m))


def test_arrival_model_validation():
    with pytest.raises(ValueError):
        ArrivalModel(0.0, 16)
    with pytest.raises(ValueError):
        ArrivalModel(0.1, 16.5)
    with pytest.raises(ValueError):
        ArrivalModel(0.1, 16, "bogus")


# ------------------------------------------------------------- H integral

def test_h_at_zero_matches_closed_form():
    svc = make_service()
    st = svc.stats
    m = st.rho * st.delta_k_sq
    closed = math.exp(-st.upsilon_k / st.delta_k_sq) * \
        st.lambda_eve / (st.lambda_eve + 1.0 / m)
    assert service_mellin_u(0.0, svc) == pytest.approx(closed, rel=1e-6)


def test_h_at_zero_matches_dblquad_oracle():
    # direct double quadrature of the two densities over the wedge
    svc = make_service(delta=3e-10, ups=1e-10, rho=1e11, lam_e=0.1)
    st = svc.stats
    m = st.rho * st.delta_k_sq
    sub = math.exp(-st.upsilon_k / st.delta_k_sq)

    def joint(gk, ge):
        return st.lambda_eve * math.exp(-st.lambda_eve * ge) * \
            sub * math.exp(-gk / m) / m

    oracle, _ = dblquad(joint, 0, 40 / st.lambda_eve,
                        lambda ge: ge, lambda ge: 60 * m, epsrel=1e-10)
    assert service_mellin_u(0.0, svc) == pytest.approx(oracle, rel=1e-6)


def test_h_matches_mc_oracle_with_unit_penalties():
    # eps = sigma = 0.5 kills the penalty factors; cross-check against a
    # paired-draw Monte-Carlo estimate of E[u^(-s/ln2); wedge]
    svc = make_service(blocklength=64.0, eps=0.5, sigma=0.5)
    st = svc.stats
    s = 0.5
    m = st.rho * st.delta_k_sq
    rng = np.random.default_rng(11)
    ge = rng.exponential(1.0 / st.lambda_eve, 1_000_000)
    gk = rng.exponential(m, 1_000_000)
    wedge = gk >= ge
    ratio = ((1.0 + gk) / (1.0 + ge)) ** (-s / LN2)
    mc = math.exp(-st.upsilon_k / st.delta_k_sq) * float(np.mean(ratio * wedge))
    assert service_mellin_u(s, svc) == pytest.approx(mc, rel=0.02)


def test_h_user_penalty_prefactor_decreases_with_blocklength():
    s = 0.4
    pref = [math.exp(s / LN2 * q_inv(2e-6) / math.sqrt(n))
            for n in (16, 32, 64, 128, 256, 1024)]
    assert all(b < a for a, b in zip(pref, pref[1:]))
    h_vals = [service_mellin_u(s, make_service(blocklength=n))
              for n in (16, 64, 256)]
    assert all(b < a for a, b in zip(h_vals, h_vals[1:]))


def test_h_self_consistency_on_tolerance_halving():
    # halving rel_tol moves H by less than the reported error estimate
    for s in np.linspace(0.05, 1.2, 5):
        for n in (32, 256):
            coarse = ServiceModel(make_stats(), SecrecyParams(2e-6, 1e-3, n),
                                  QuadratureSpec(rel_tol=1e-4))
            fine = ServiceModel(make_stats(), SecrecyParams(2e-6, 1e-3, n),
                                QuadratureSpec(rel_tol=5e-5))
            v1, err = service_mellin_u_with_error(s, coarse)
            v2, _ = service_mellin_u_with_error(s, fine)
            assert abs(v2 - v1) <= err + 1e-15


def test_h_cache_reuse():
    svc = make_service()
    a = service_mellin_u(0.3, svc)
    b = service_mellin_u(0.3, svc)
    assert a == b
    assert 0.3 in svc._h_cache


def _h_eval_one_pass(s, stats, secrecy, order):
    """Oracle: H(s), dH/ds and d^2H/ds^2 from a tensor built for this s alone."""
    a = s / LN2
    lam_e = stats.lambda_eve
    m = stats.rho * stats.delta_k_sq
    n_cbl = secrecy.blocklength
    pen_u = q_inv(secrecy.epsilon_e) / math.sqrt(n_cbl)
    q_hi = -math.expm1(-mellin.OUTER_TRUNCATION_MULT)
    p_hi = -math.expm1(-mellin.INNER_TRUNCATION_MULT)
    x, w = np.polynomial.legendre.leggauss(order)
    xq, wq = (x + 1.0) / 2.0, w / 2.0
    xo, wo = xq * q_hi, wq * q_hi
    xi, wi = xq * p_hi, wq * p_hi
    gamma_e = -np.log1p(-xo) / lam_e
    v_eve = 1.0 - 1.0 / (1.0 + gamma_e) ** 2
    pen_e = np.sqrt(v_eve / n_cbl) * q_inv(secrecy.sigma_leak)
    gamma_k = gamma_e[:, None] - m * np.log1p(-xi)[None, :]
    log_ratio = np.log1p(gamma_e)[:, None] - np.log1p(gamma_k)
    weight = np.exp(a * log_ratio + (a * pen_e - gamma_e / m)[:, None])
    slope = log_ratio + (pen_e + pen_u)[:, None]
    sloped = weight * slope
    prefac = math.exp(-stats.upsilon_k / stats.delta_k_sq + a * pen_u)
    return (prefac * float(wo @ (weight @ wi)),
            prefac * float(wo @ (sloped @ wi)) / LN2,
            prefac * float(wo @ ((sloped * slope) @ wi)) / (LN2 * LN2))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


H_ORDERS = st.sampled_from([16, 32, 64, 128, 256])
H_ARGS = st.floats(1e-4, 8.0)


def _h_tensors_at(model, order):
    """The model's quadrature tensors at one order, built on first use as
    the order doubling builds them."""
    t = model._h_tensors.get(order)
    if t is None:
        t = model._h_tensors[order] = mellin._HTensors.build(model.stats, model.secrecy,
                                                             order)
    return t


def _h_eval_at(s, model, order):
    """H(s), dH/ds and d^2H/ds^2 at one order: the H pass, then the two
    derivative passes on its exp tensor."""
    t = _h_tensors_at(model, order)
    a = s / LN2
    return (t.h(a), t.dh(a), t.ddh(a))


def _assert_cached_at_accepted_order(s, model):
    """The cached (H, dH/ds, d^2H/ds^2) of s, the last formed on its first
    read, equal the one-pass oracle at the order the doubling accepts, which
    is the top order a fresh model builds for s alone."""
    fresh = ServiceModel(model.stats, model.secrecy, model.quadrature)
    service_mellin_u_with_error(s, fresh)
    accepted = max(fresh._h_tensors)
    for m in (model, fresh):
        mellin._h_curvature(s, m)
    h, _, d1, d2, order = model._h_cache[s]
    assert order == accepted
    assert _bits((h, d1, d2)) == _bits(
        _h_eval_one_pass(s, model.stats, model.secrecy, accepted))
    assert _bits(model._h_cache[s]) == _bits(fresh._h_cache[s])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(log_rho=st.floats(6.0, 14.0), blocklength=st.floats(16.0, 1024.0),
       s=H_ARGS, others=st.lists(H_ARGS, min_size=1, max_size=3), order=H_ORDERS)
def test_h_eval_bitwise_independent_of_earlier_s(log_rho, blocklength, s, others, order):
    # a model that keeps the s-independent tensors and work buffers of
    # earlier s, with or without their derivative passes, returns H, dH/ds
    # and d^2H/ds^2 bit for bit as a fresh model and as a tensor built for
    # s alone, at one order and through the order doubling
    def make():
        return ServiceModel(make_stats(rho=10.0 ** log_rho),
                            SecrecyParams(2e-6, 1e-3, blocklength),
                            QuadratureSpec(max_subdivisions=5))

    warm = make()
    for i, x in enumerate(others):
        if i % 2:
            _h_tensors_at(warm, order).h(x / LN2)
        else:
            _h_eval_at(x, warm, order)
    got = _h_eval_at(s, warm, order)
    assert _bits(got) == _bits(_h_eval_at(s, make(), order))
    assert _bits(got) == _bits(_h_eval_one_pass(s, warm.stats, warm.secrecy, order))

    try:
        service_mellin_u_with_error(s, make())
    except QuadratureError:
        with pytest.raises(QuadratureError):
            service_mellin_u_with_error(s, warm)
        return
    for x in others:
        try:
            service_mellin_u_with_error(x, warm)
        except QuadratureError:
            pass
    service_mellin_u_with_error(s, warm)
    _assert_cached_at_accepted_order(s, warm)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(log_rhos=st.lists(st.floats(6.0, 14.0), min_size=2, max_size=6), s=H_ARGS,
       order=H_ORDERS)
def test_h_tensors_live_and_die_with_their_model(log_rhos, s, order):
    # models made and dropped in a loop, so that a new one may take a dead
    # one's address, each start with no tensors and get tensors of their own
    # link stats, at one order and through the order doubling
    for log_rho in log_rhos:
        model = make_service(rho=10.0 ** log_rho)
        model.quadrature = QuadratureSpec(max_subdivisions=5)
        assert model._h_tensors == {}
        got = _h_eval_at(s, model, order)
        assert _bits(got) == _bits(_h_eval_one_pass(s, model.stats, model.secrecy, order))
        try:
            service_mellin_u_with_error(s, model)
        except QuadratureError:
            pass
        else:
            _assert_cached_at_accepted_order(s, model)
        del model
        gc.collect()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(log_rho=st.floats(6.0, 14.0), blocklength=st.floats(16.0, 1024.0), s=H_ARGS)
def test_h_slope_built_only_at_the_accepted_order(log_rho, blocklength, s):
    # the doubling forms dH/ds only at the order it accepts, so a rung it
    # passes over never builds its slope tensor
    model = ServiceModel(make_stats(rho=10.0 ** log_rho),
                         SecrecyParams(2e-6, 1e-3, blocklength),
                         QuadratureSpec(max_subdivisions=5))
    try:
        service_mellin_u_with_error(s, model)
    except QuadratureError:
        assert all(t.slope is None for t in model._h_tensors.values())
        return
    accepted = max(model._h_tensors)
    assert len(model._h_tensors) >= 2
    for order, t in model._h_tensors.items():
        assert (t.slope is None) == (order != accepted), order


def test_determinacy_releases_h_tensors(monkeypatch):
    # a determinacy leaves its H values cached but drops the quadrature
    # tensors, also when a search raises, so kept models stay small
    service = make_service()
    delay_determinacy(DelayWindow(2, 8), ARRIVAL, service)
    assert service._h_cache and service._h_tensors == {}
    monkeypatch.setattr(mellin, "MAX_SEARCH_STEPS", 1)
    service = make_service()
    with pytest.raises(SearchError):
        delay_determinacy(DelayWindow(2, 8), ARRIVAL, service)
    assert service._h_cache and service._h_tensors == {}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(log_rho=st.floats(6.0, 14.0), log_delta=st.floats(-11.0, -7.0),
       log_lam=st.floats(-3.0, 1.0), ups=st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
       blocklengths=st.tuples(st.floats(16.0, 1024.0), st.floats(16.0, 1024.0)),
       s=H_ARGS, order=H_ORDERS)
def test_h_bitwise_on_geometry_shared_across_codewords_and_blocklengths(
        log_rho, log_delta, log_lam, ups, blocklengths, s, order):
    # a second model with the same (lambda_E, rho*delta^2) but another
    # codeword (upsilon) and blocklength reuses the first one's geometry
    # and still gets H, dH/ds and d^2H/ds^2 of a tensor built for it alone
    delta, lam = 10.0 ** log_delta, 10.0 ** log_lam
    first, second = (
        ServiceModel(make_stats(delta=delta, ups=u * delta, rho=10.0 ** log_rho, lam_e=lam),
                     SecrecyParams(2e-6, 1e-3, n))
        for u, n in zip(ups, blocklengths))
    _h_eval_at(s, first, order)
    got = _h_eval_at(s, second, order)
    assert second._h_tensors[order].geo is first._h_tensors[order].geo
    assert _bits(got) == _bits(_h_eval_one_pass(s, second.stats, second.secrecy, order))


def test_shared_geometry_is_read_only():
    model = make_service()
    service_mellin_u(0.3, model)
    assert model._h_tensors
    for tensors in model._h_tensors.values():
        for name in ("wo", "wi", "gamma_e", "log_ratio", "decay"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(tensors.geo, name)[0] = 0.0


def test_geometry_cache_evicts_the_least_recently_used(monkeypatch):
    size = mellin._Geometry.build(1.0, 1.0, 16).nbytes
    monkeypatch.setattr(mellin, "GEOMETRY_BUDGET_BYTES", 2 * size)
    cache = mellin._GeometryCache()
    first = cache(1.0, 1.0, 16)
    cache(1.0, 2.0, 16)
    assert cache(1.0, 1.0, 16) is first
    cache(1.0, 3.0, 16)
    assert list(cache.entries) == [(1.0, 1.0, 16), (1.0, 3.0, 16)]
    assert cache.nbytes == 2 * size
    # larger than the whole budget: built, returned and not kept
    big = cache(1.0, 1.0, 32)
    assert big.log_ratio.shape == (32, 32)
    assert list(cache.entries) == [(1.0, 1.0, 16), (1.0, 3.0, 16)]
    assert cache.nbytes == 2 * size


def test_geometry_cache_within_budget_over_determinacies(monkeypatch):
    # a budget that holds orders 16-64 of two (lambda_E, m) keys but no
    # order 128: across determinacies the LRU stays within it, a second
    # blocklength reuses what the first built, and every geometry over the
    # budget is freed when the determinacy that built it returns
    budget = 100_000
    monkeypatch.setattr(mellin, "GEOMETRY_BUDGET_BYTES", budget)
    cache = mellin._GeometryCache()
    monkeypatch.setattr(mellin, "_geometry", cache)
    built = []
    build = mellin._Geometry.build

    def recording_build(lam_e, m, order):
        geo = build(lam_e, m, order)
        built.append(((m, order), geo.nbytes, weakref.ref(geo)))
        return geo

    monkeypatch.setattr(mellin._Geometry, "build", recording_build)
    for rho in (1e11, 1e12, 1e13, 1e14):
        for blocklength in (32.0, 200.0):
            delay_determinacy(DelayWindow(2, 8), ARRIVAL,
                              make_service(rho=rho, blocklength=blocklength))
            gc.collect()
            assert cache.nbytes == sum(g.nbytes for g in cache.entries.values()) <= budget
            assert all(ref() is None for _, nbytes, ref in built if nbytes > budget)
    kept = [key for key, nbytes, _ in built if nbytes <= budget]
    assert len(kept) == len(set(kept)) < len(built)
    assert len(cache.entries) < len(kept)


# ------------------------------------------------------------- service mellin

def test_service_mellin_degenerate_failure_rate():
    svc = ServiceModel(make_stats(), SecrecyParams(1 - 1e-15, 1e-3, 64))
    for s in (0.8, 0.3, 0.0):
        assert mellin._service_transform(s, svc) == pytest.approx(1.0, abs=1e-12)


def test_service_mellin_zero_failure_rate():
    svc = ServiceModel(make_stats(), SecrecyParams(1e-300, 1e-3, 64))
    s = 0.4
    assert mellin._service_transform(s, svc) == pytest.approx(
        service_mellin_u(s, svc), rel=1e-12)


def test_service_mellin_equals_lemma_bracket():
    # Eq.-25 composition vs the bound expression's bracket at three points
    for s, n in ((0.1, 64.0), (0.4, 128.0), (0.9, 1024.0)):
        svc = make_service(blocklength=n)
        eps = svc.secrecy.epsilon_e
        bracket = (1 - eps) * service_mellin_u(s, svc) + eps
        assert mellin._service_transform(s, svc) == pytest.approx(bracket, rel=1e-12)


# ------------------------------------------------------------- kernel

def test_kernel_from_stubbed_transforms():
    assert kernel_from_values(1.2, 0.5, 3) == pytest.approx(0.3125)
    assert kernel_from_values(1.2, 0.5, 0) == pytest.approx(1.0 / 0.4)


def test_kernel_horizon_zero():
    svc = make_service()
    s = 0.05
    prod = stability_product(s, ARRIVAL, svc)
    assert kernel(s, 0, ARRIVAL, svc) == pytest.approx(1.0 / (1.0 - prod), rel=1e-12)


def test_kernel_stability_error_carries_product():
    with pytest.raises(StabilityError) as err:
        kernel_from_values(2.0, 0.6, 4)
    assert err.value.product == pytest.approx(1.2)


def test_kernel_bounded_by_queue_oracle():
    # queue-simulation oracle: empirical tails never beat the kernel bound
    from ris_detnet.queuesim import model_matched_service_sampler, simulate_queue
    svc = make_service()
    sampler = model_matched_service_sampler(svc.stats, svc.secrecy)
    rng = np.random.default_rng(4)
    res = simulate_queue(ARRIVAL, sampler, 400_000, 30_000, rng)
    for horizon in (2, 4, 8):
        emp, ci = res.tail_prob(horizon)
        bound = violation_bound(horizon, ARRIVAL, svc).bound
        assert emp <= min(1.0, bound) + 2 * ci


# ------------------------------------------------------------- search

def test_stability_smax_bisection_width():
    svc = make_service()
    s_max = stability_smax(ARRIVAL, svc)
    assert s_max is not None
    assert stability_product(s_max, ARRIVAL, svc) < 1.0
    assert stability_product(s_max + 1e-6, ARRIVAL, svc) >= 1.0 - 1e-9


def test_kernel_and_product_reuse_the_search_transforms():
    # kernel, stability_product and the searches all evaluate H at s itself,
    # so at the search's own points they add no H and return its values
    svc = make_service()
    s_max = stability_smax(ARRIVAL, svc)
    cached = list(svc._h_cache)
    m_arr, m_srv, _, _ = mellin._transforms(s_max, ARRIVAL, svc)
    assert stability_product(s_max, ARRIVAL, svc) == m_arr * m_srv
    for s in cached:
        k, _, _ = mellin._log_kernel_probe(s, 8, ARRIVAL, svc)
        if math.isfinite(k):
            assert kernel(s, 8, ARRIVAL, svc) == k
        else:
            with pytest.raises(StabilityError):
                kernel(s, 8, ARRIVAL, svc)
    assert list(svc._h_cache) == cached


def test_violation_bound_horizon_zero_is_one():
    res = violation_bound(0, ARRIVAL, make_service())
    assert res.bound == 1.0


def test_violation_bound_vacuous_when_unstable():
    heavy = ArrivalModel(lambda_pkts=50.0, pkt_bits=1024)
    res = violation_bound(4, heavy, make_service())
    assert res.vacuous
    assert res.bound == 1.0


def test_violation_bound_nonincreasing_in_horizon():
    svc = make_service()
    bounds = [violation_bound(h, ARRIVAL, svc).bound for h in (1, 2, 4, 8, 16)]
    assert all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))


# ------------------------------------------------------------- determinacy

def test_delay_determinacy_degenerate_tmin():
    svc = make_service()
    res = delay_determinacy(DelayWindow(0, 6), ARRIVAL, svc)
    assert res.bound_tmin == 1.0
    assert res.varpi == pytest.approx(1.0 - res.bound_tmax, abs=1e-12)
    assert res.ordering_ok


def test_delay_determinacy_adjacent_window_small():
    svc = make_service()
    res = delay_determinacy(DelayWindow(3, 4), ARRIVAL, svc)
    wide = delay_determinacy(DelayWindow(3, 12), ARRIVAL, svc)
    assert 0.0 <= res.varpi <= 1.0
    assert res.varpi < wide.varpi


def test_delay_determinacy_window_monotonicity():
    svc = make_service()
    by_tmin = [delay_determinacy(DelayWindow(t, 20), ARRIVAL, svc).varpi
               for t in (1, 2, 4, 6)]
    assert all(b <= a + 1e-9 for a, b in zip(by_tmin, by_tmin[1:]))
    by_tmax = [delay_determinacy(DelayWindow(1, t), ARRIVAL, svc).varpi
               for t in (3, 5, 9, 15)]
    assert all(b >= a - 1e-9 for a, b in zip(by_tmax, by_tmax[1:]))


def test_delay_determinacy_clamp_identity():
    svc = make_service()
    res = delay_determinacy(DelayWindow(2, 8), ARRIVAL, svc)
    assert res.varpi == pytest.approx(
        min(1.0, max(0.0, res.bound_tmin - res.bound_tmax)), abs=1e-15)
    assert 0.0 <= res.varpi <= 1.0


def test_delay_window_validation():
    with pytest.raises(ValueError):
        DelayWindow(3, 3)
    with pytest.raises(ValueError):
        DelayWindow(-1, 3)
    with pytest.raises(ValueError):
        DelayWindow(5, 3)


# ------------------------------------------------------------- lemma form

def test_lemma_closed_form_matches_composed_kernel():
    arr = ArrivalModel(0.08, 16, "paper_literal")
    for n in (64.0, 256.0):
        svc = make_service(blocklength=n)
        s_max = stability_smax(arr, svc)
        for s in np.linspace(0.1, 0.9, 5) * s_max:
            for horizon in (2, 8):
                composed = kernel(s, horizon, arr, svc)
                closed = lemma1_kernel(s, horizon, arr, svc)
                assert closed == pytest.approx(composed, rel=1e-6)


# ------------------------------------------------------------- search equivalence

def _reference_edge(arrival, service):
    """The stability edge by doubling from S_FLOOR and bisection of the
    transform product to 1e-10; None when the floor is unstable."""
    def stable(s):
        return stability_product(s, arrival, service) < 1.0

    if not stable(mellin.S_FLOOR):
        return None
    lo = hi = mellin.S_FLOOR
    while stable(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return lo


def _reference_determinacy(window, arrival, service):
    """Reference for the Newton searches, built on the public transforms only.

    The stability edge by doubling and bisection of the transform product;
    each bound by a dense log-spaced scan of kernel() and a golden-section
    refinement between the scan neighbours of its minimum.  Returns s_max
    (None when the interval is empty) and the clamped flags.
    """
    lo = _reference_edge(arrival, service)
    if lo is None:
        return None, (1.0, 1.0), {"tmin": True, "tmax": True, "vacuous": True,
                                  "ordering": False}
    grid = np.geomspace(mellin.S_FLOOR, lo * (1.0 - mellin.S_MAX_MARGIN), 120)
    raw = []
    for horizon in (window.t_min, window.t_max):
        vals = [kernel(s, horizon, arrival, service) for s in grid]
        i = int(np.argmin(vals))
        a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        best = vals[i]
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(30):
            c, d = b - invphi * (b - a), a + invphi * (b - a)
            fc, fd = (kernel(x, horizon, arrival, service) for x in (c, d))
            best = min(best, fc, fd)
            a, b = (a, d) if fc < fd else (c, b)
        raw.append(best)
    bounds = (min(1.0, raw[0]), min(1.0, raw[1]))
    return lo, bounds, {"tmin": raw[0] > 1.0, "tmax": raw[1] > 1.0, "vacuous": False,
                        "ordering": not bounds[1] <= bounds[0] + 1e-12}


def _reference_config_services():
    """The analyze allocation of the reference config, one service per user."""
    from ris_detnet.config import default_config
    from ris_detnet.env import RisDownlinkEnv
    cfg = default_config()
    env = RisDownlinkEnv(cfg)
    power, cbl = env.p_max / env.n_users, env.n_max / env.n_users
    codeword = cfg.get("allocation", "codeword")
    return cfg, [
        (lambda k=k: ServiceModel(
            LinkStats(float(env.delta_sq[k]), float(env.upsilon[k, codeword]),
                      power / env.noise_w, env.lambda_eve),
            cfg.build_secrecy(cbl), QUADRATURE_PROFILES["eval"]))
        for k in range(env.n_users)]


def _equivalence_cases():
    cfg, users = _reference_config_services()
    ref_window = DelayWindow(cfg.get("delay", "t_min"), cfg.get("delay", "t_max"))
    cases = [pytest.param(ref_window, cfg.build_arrival(), make,
                          id=f"reference config user {k}, floor minima")
             for k, make in enumerate(users)]
    return cases + [
        pytest.param(DelayWindow(2, 8), ARRIVAL, make_service,
                     id="pkt_bits 16, interior minima"),
        pytest.param(DelayWindow(2, 8), ARRIVAL,
                     lambda: ServiceModel(make_stats(), SecrecyParams(2e-6, 1e-3, 64.0),
                                          QUADRATURE_PROFILES["train"]),
                     id="pkt_bits 16, train quadrature"),
        pytest.param(DelayWindow(2, 8), ArrivalModel(0.08, 64), make_service,
                     id="pkt_bits 64, interior minima"),
        pytest.param(DelayWindow(0, 4), ArrivalModel(0.05, 64, "paper_literal"),
                     make_service, id="paper_literal, t_min 0 clamped"),
        pytest.param(DelayWindow(2, 8), ArrivalModel(50.0, 1024), make_service,
                     id="vacuous"),
        pytest.param(DelayWindow(2, 8), ArrivalModel(0.2, 2),
                     lambda: make_service(blocklength=256.0), id="high rho, s_max 1.57"),
    ]


@pytest.mark.parametrize("window,arrival,make", _equivalence_cases())
def test_search_matches_dense_scan_reference(window, arrival, make):
    # stated tolerance: |bound difference| <= 1e-9, the edge of the
    # determinacy's model within BISECT_TOL of the reference edge, identical
    # flags, no quadrature failure
    service = make()
    res = delay_determinacy(window, arrival, service)
    edge = stability_edge(arrival, service)
    s_max, bounds, flags = _reference_determinacy(window, arrival, make())
    assert abs(res.bound_tmin - bounds[0]) <= 1e-9
    assert abs(res.bound_tmax - bounds[1]) <= 1e-9
    assert res.clamped == flags
    if s_max is None:
        assert math.isnan(edge)
    else:
        assert abs(edge - s_max) <= mellin.BISECT_TOL + 1e-10
        assert stability_product(edge, arrival, make()) < 1.0


def test_determinacy_h_evaluation_count():
    # one cold eval-profile determinacy at the analyze allocation of the
    # reference config integrates H at no more than 26 distinct s values
    cfg, users = _reference_config_services()
    window = DelayWindow(cfg.get("delay", "t_min"), cfg.get("delay", "t_max"))
    for make in users:
        service = make()
        delay_determinacy(window, cfg.build_arrival(), service)
        assert len(service._h_cache) <= 26


def test_stability_edge_h_evaluation_count():
    # the exact-arrival bounds find the edge of each analyze user of the
    # reference config in a few probes; the doubling climb took 10-11
    cfg, users = _reference_config_services()
    for make in users:
        service = make()
        stability_edge(cfg.build_arrival(), service)
        assert len(service._h_cache) <= 6


def test_cold_determinacy_integrates_h_at_three_points():
    # one cold eval-profile determinacy at each analyze user of the reference
    # config, then the edge on its model: the edge search starts from the
    # determinacy's floor probe and ends on its tangent certificate, with no
    # probe past the edge
    cfg, users = _reference_config_services()
    window = DelayWindow(cfg.get("delay", "t_min"), cfg.get("delay", "t_max"))
    for make in users:
        service = make()
        delay_determinacy(window, cfg.build_arrival(), service)
        assert stability_edge(cfg.build_arrival(), service) > mellin.S_FLOOR
        assert len(service._h_cache) == 3


@pytest.mark.parametrize("profile", ["eval", "train"])
def test_floor_certified_determinacy_integrates_h_at_the_floor_only(profile):
    # both bounds of each analyze user of the reference config sit at the
    # floor, so H is integrated at S_FLOOR alone
    cfg, users = _reference_config_services()
    window = DelayWindow(cfg.get("delay", "t_min"), cfg.get("delay", "t_max"))
    for make in users:
        eval_service = make()
        service = ServiceModel(eval_service.stats, eval_service.secrecy,
                               QUADRATURE_PROFILES[profile])
        res = delay_determinacy(window, cfg.build_arrival(), service)
        assert res.s_star_tmin == res.s_star_tmax == mellin.S_FLOOR
        assert list(service._h_cache) == [mellin.S_FLOOR]


def _violation_fields(res):
    return _determinacy_fields(**{k: getattr(res, k) for k in
                                  ("bound", "s_star", "s_max", "vacuous", "raw_inf")})


@pytest.mark.parametrize("profile", ["eval", "train"])
def test_deferred_curvature_has_the_eager_bits(profile):
    # a floor-certified determinacy leaves d^2H/ds^2 at the floor unformed;
    # a later violation_bound on the same model forms it after its tensors
    # are released, and a model whose buffer moved on to another s forms it
    # on its own tensors, each with the bits of a fresh model
    cfg, users = _reference_config_services()
    window = DelayWindow(cfg.get("delay", "t_min"), cfg.get("delay", "t_max"))
    arrival = cfg.build_arrival()
    for make_eval in users:
        base = make_eval()

        def make():
            return ServiceModel(base.stats, base.secrecy, QUADRATURE_PROFILES[profile])

        model = make()
        delay_determinacy(window, arrival, model)
        assert model._h_cache[mellin.S_FLOOR][3] is None and model._h_tensors == {}
        for t in (window.t_min, window.t_max):
            assert (_violation_fields(violation_bound(t, arrival, model))
                    == _violation_fields(violation_bound(t, arrival, make())))
        _assert_cached_at_accepted_order(mellin.S_FLOOR, model)

        moved = make()
        service_mellin_u_with_error(mellin.S_FLOOR, moved)
        order = moved._h_cache[mellin.S_FLOOR][4]
        _h_tensors_at(moved, order).h(0.5 / LN2)
        _assert_cached_at_accepted_order(mellin.S_FLOOR, moved)


class _CountingTensors:
    """Records the a of every H, dH/ds and d^2H/ds^2 pass of any model's
    quadrature tensors."""

    def __init__(self, monkeypatch):
        self.calls = {"h": [], "dh": [], "ddh": []}
        for name, seen in self.calls.items():
            monkeypatch.setattr(mellin._HTensors, name, self._counted(
                getattr(mellin._HTensors, name), seen))

    @staticmethod
    def _counted(method, seen):
        def counted(tensors, a):
            seen.append(a)
            return method(tensors, a)
        return counted

    def reset(self):
        for seen in self.calls.values():
            seen.clear()


@pytest.mark.parametrize("profile", ["eval", "train"])
def test_floor_certified_determinacy_forms_dh_once_and_no_curvature(profile, monkeypatch):
    cfg, users = _reference_config_services()
    window = DelayWindow(cfg.get("delay", "t_min"), cfg.get("delay", "t_max"))
    counts = _CountingTensors(monkeypatch)
    for make in users:
        eval_service = make()
        service = ServiceModel(eval_service.stats, eval_service.secrecy,
                               QUADRATURE_PROFILES[profile])
        counts.reset()
        res = delay_determinacy(window, cfg.build_arrival(), service)
        assert res.s_star_tmin == res.s_star_tmax == mellin.S_FLOOR
        assert counts.calls["dh"] == [mellin.S_FLOOR / LN2]
        assert counts.calls["ddh"] == []


@pytest.mark.parametrize("window,arrival,make", [
    case for case in _equivalence_cases() if "interior" in case.id or "train" in case.id])
def test_uncertified_determinacy_forms_floor_curvature_once(window, arrival, make,
                                                             monkeypatch):
    # the floor's d^2H/ds^2 comes from the sloped tensor its dH/ds left, so
    # H is integrated only on the ladders of the probed s
    counts = _CountingTensors(monkeypatch)
    service = make()
    res = delay_determinacy(window, arrival, service)
    assert res.s_star_tmin != mellin.S_FLOOR
    floor_a = mellin.S_FLOOR / LN2
    assert counts.calls["ddh"].count(floor_a) == 1
    assert counts.calls["dh"].count(floor_a) == 1
    rungs = sum(int(math.log2(entry[4] // mellin.BASE_ORDER)) + 1
                for entry in service._h_cache.values())
    assert len(counts.calls["h"]) == rungs


def _eager_determinacy(window, arrival, service):
    """The determinacy with no floor shortcut: stability_smax, then one
    violation_bound per horizon, assembled into the result's fields."""
    try:
        s_max = stability_smax(arrival, service)
        b_min, b_max = (violation_bound(t, arrival, service, s_max=s_max)
                        for t in (window.t_min, window.t_max))
    finally:
        service._h_tensors.clear()
    ordering_ok = b_max.bound <= b_min.bound + 1e-12
    return _determinacy_fields(
        varpi=min(1.0, max(0.0, b_min.bound - b_max.bound)),
        bound_tmin=b_min.bound, bound_tmax=b_max.bound,
        s_star_tmin=b_min.s_star, s_star_tmax=b_max.s_star, s_max=b_min.s_max,
        ordering_ok=ordering_ok,
        clamped={"tmin": b_min.raw_inf > 1.0, "tmax": b_max.raw_inf > 1.0,
                 "vacuous": b_min.vacuous, "ordering": not ordering_ok},
        quadrature_error_estimate=max(service._h_cache[b.s_star][1]
                                      for b in (b_min, b_max)))


def test_vacuous_floor_searches_no_edge_and_forms_no_curvature(monkeypatch):
    # at lambda_pkts = 60 the floor of the reference config's user 0 is
    # unstable: the determinacy is vacuous from its floor probe alone, with
    # every field of the eager determinacy
    cfg, users = _reference_config_services()
    window = DelayWindow(cfg.get("delay", "t_min"), cfg.get("delay", "t_max"))
    arrival = ArrivalModel(60.0, cfg.get("arrival", "pkt_bits"),
                           cfg.get("arrival", "variant"))
    want = _eager_determinacy(window, arrival, users[0]())
    calls = {"stability_smax": 0, "violation_bound": 0, "_h_curvature": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(mellin, name, counted(name, getattr(mellin, name)))
    res = delay_determinacy(window, arrival, users[0]())
    assert calls == {"stability_smax": 0, "violation_bound": 0, "_h_curvature": 0}
    assert res.clamped["vacuous"] and res.bound_tmin == res.bound_tmax == 1.0
    assert res.s_star_tmin == res.s_star_tmax == mellin.S_FLOOR
    assert {**_result_fields(res), "s_max": math.nan.hex()} == want


def _determinacy_fields(**fields):
    """Every field of a determinacy, floats as their exact hex form."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in fields.items()}


def _result_fields(res):
    names = ("varpi", "bound_tmin", "bound_tmax", "s_star_tmin", "s_star_tmax",
             "ordering_ok", "clamped", "quadrature_error_estimate")
    return _determinacy_fields(**{k: getattr(res, k) for k in names})


def _assert_equals_eager_determinacy(window, arrival, make):
    """delay_determinacy on a fresh model equals the eager determinacy on
    another, bit for bit, and stability_edge on a third equals the eager
    edge; a search error of the eager one is raised by the determinacy or,
    where the floor certified both bounds, by the edge search."""
    try:
        want = _eager_determinacy(window, arrival, make())
    except (QuadratureError, SearchError) as exc:
        with pytest.raises(type(exc)):
            delay_determinacy(window, arrival, make())
            stability_edge(arrival, make())
        return
    got = _result_fields(delay_determinacy(window, arrival, make()))
    assert {**got, "s_max": stability_edge(arrival, make()).hex()} == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_rho=st.floats(9.0, 14.0), log_delta=st.floats(-11.0, -7.0),
       ups=st.floats(0.0, 4.0), log_lam_e=st.floats(-3.0, 1.0),
       lam=st.floats(0.01, 2.0), pkt_bits=st.sampled_from([1, 2, 4, 16, 64, 256]),
       blocklength=st.floats(16.0, 1024.0), t_min=st.integers(0, 8),
       width=st.integers(1, 24), profile=st.sampled_from(["eval", "train"]))
def test_determinacy_equals_eager_searches(log_rho, log_delta, ups, log_lam_e, lam,
                                           pkt_bits, blocklength, t_min, width, profile):
    # the floor shortcut changes no field, and the edge searched apart from
    # the determinacy is the eager one
    delta = 10.0 ** log_delta

    def make():
        return ServiceModel(make_stats(delta=delta, ups=ups * delta, rho=10.0 ** log_rho,
                                       lam_e=10.0 ** log_lam_e),
                            SecrecyParams(2e-6, 1e-3, blocklength),
                            QUADRATURE_PROFILES[profile])

    _assert_equals_eager_determinacy(DelayWindow(t_min, t_min + width),
                                     ArrivalModel(lam, pkt_bits), make)


@pytest.mark.parametrize("window,arrival,make", _equivalence_cases())
def test_determinacy_equals_eager_searches_on_equivalence_cases(window, arrival, make):
    _assert_equals_eager_determinacy(window, arrival, make)


class _CountingTol(float):
    """A LOG_K_TOL that counts the stops it makes: a float subclass that
    overrides the reflected comparison answers ``x <= LOG_K_TOL`` through
    its own ``__ge__``."""

    stops = 0

    def __ge__(self, other):
        hit = float(self) >= other
        _CountingTol.stops += hit
        return hit


def test_criterion_7_training_takes_the_log_k_tol_stop(tmp_path, monkeypatch):
    # criterion 7's training scores interior infima, which the floor does not
    # certify: violation_bound's Newton search stops on LOG_K_TOL there, each
    # determinacy equals the eager one bit for bit, and its bounds lie within
    # 1e-13 relative of the same search without that stop (a LOG_K_TOL of
    # 1e-12 or more moves some of them further)
    monkeypatch.setattr(mellin, "LOG_K_TOL", _CountingTol(mellin.LOG_K_TOL))
    _CountingTol.stops = 0
    scored = []

    def recording(window, arrival, service):
        res = delay_determinacy(window, arrival, service)
        scored.append((window, arrival, (service.stats, service.secrecy,
                                         service.quadrature), res))
        return res

    monkeypatch.setattr(env_module, "delay_determinacy", recording)
    cfg = ris_scenario(3)
    cfg.values["agent"]["episodes"] = 2
    cfg.values["agent"]["warmup"] = 20.0
    cfg.values["env"]["episode_steps"] = 10
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(dump_config(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert _CountingTol.stops >= 1
    assert any(res.s_star_tmin != mellin.S_FLOOR for *_, res in scored)
    for window, arrival, model, res in scored:
        want = _eager_determinacy(window, arrival, ServiceModel(*model))
        del want["s_max"]
        assert _result_fields(res) == want
    monkeypatch.setattr(mellin, "LOG_K_TOL", -math.inf)
    for window, arrival, model, res in scored:
        full = delay_determinacy(window, arrival, ServiceModel(*model))
        for got, tight in ((res.bound_tmin, full.bound_tmin),
                           (res.bound_tmax, full.bound_tmax)):
            assert got == pytest.approx(tight, rel=1e-13, abs=0.0)


def _probing_edge(arrival, service):
    """The stability edge search that confirms its tangent bound by a probe:
    once the upper bound is within BISECT_TOL of the stable lo, it probes
    lo + BISECT_TOL.  Returns the edge and the number of probes it made once
    that bound held: one, or two where rounding leaves the bracket
    [lo, lo + BISECT_TOL] a hair wider than BISECT_TOL and its midpoint is
    probed as well."""
    rate, scale = mellin._arrival_exponent(arrival)

    def probe(s):
        m_arr, m_srv, _, (d_srv, _) = mellin._transforms(s, arrival, service)
        return m_arr * m_srv < 1.0, math.log(m_srv), d_srv

    def model_root(l_x, slope, x, lo, hi):
        return mellin._exact_arrival_root(rate, scale, l_x - slope * x, slope, lo, hi)

    lo = mellin.S_FLOOR
    stable, l_lo, g_lo = probe(lo)
    if not stable:
        return None, 0
    hi, l_hi, g_hi = math.inf, math.nan, math.nan
    ceiling = math.inf
    confirming = 0
    for _ in range(mellin.MAX_SEARCH_STEPS):
        upper = model_root(l_lo, g_lo, lo, lo, hi)
        if hi < math.inf:
            upper = min(upper, model_root(l_hi, g_hi, hi, lo, hi))
        if upper - lo <= mellin.BISECT_TOL:
            confirming += 1
            s = lo + mellin.BISECT_TOL
        else:
            s = upper
            if hi < math.inf:
                lower = model_root(l_lo, (l_hi - l_lo) / (hi - lo), lo, lo, hi)
                if lo < lower and upper - lower <= mellin.BISECT_TOL:
                    s = lower
        s = min(s, mellin.S_CAP)
        top = min(hi, ceiling)
        if not lo < s < top:
            s = 0.5 * (lo + top)
        try:
            stable, l_s, g_s = probe(s)
        except QuadratureError:
            if s <= 2.0 * lo:
                raise
            ceiling = s
            continue
        if stable:
            if s == mellin.S_CAP:
                return s, confirming
            lo, l_lo, g_lo = s, l_s, g_s
        else:
            hi, l_hi, g_hi = s, l_s, g_s
        if hi - lo <= mellin.BISECT_TOL:
            return lo, confirming
    raise SearchError("probing edge search did not close its bracket")


def _edge_matrix():
    """Every analysed link of the reference scenario (both users, all power
    levels and codewords) at three blocklengths, both quadrature profiles and
    both arrival variants, plus the search tests' link at rho 1e10-1e13."""
    from ris_detnet.config import default_config
    from ris_detnet.env import RisDownlinkEnv
    cfg = default_config()
    env = RisDownlinkEnv(cfg)
    base = cfg.build_arrival()
    for variant in ("standard_compound", "paper_literal"):
        arrival = ArrivalModel(base.lambda_pkts, base.pkt_bits, variant)
        for profile in ("train", "eval"):
            for k in range(env.n_users):
                for power in env.codebook.power_levels:
                    for codeword in range(len(env.codebook.phase_codewords)):
                        for n in (16.0, 64.0, 256.0):
                            yield arrival, lambda k=k, p=float(power), c=codeword, n=n, q=profile: \
                                ServiceModel(env.link_stats(k, p, c), cfg.build_secrecy(n),
                                             QUADRATURE_PROFILES[q])
    for log_rho in (10, 11, 12, 13):
        for arrival in (ARRIVAL, ArrivalModel(0.05, 64, "paper_literal")):
            yield arrival, lambda rho=10.0 ** log_rho: make_service(rho=rho)


def test_certified_edge_equals_probing_edge():
    # ending on the tangent certificate returns the very float the probing
    # search returns, with the confirming probes' H the only ones missing
    cases = confirmed = 0
    for arrival, make in _edge_matrix():
        service = make()
        edge = stability_smax(arrival, service)
        probed = set(service._h_cache)
        ref_service = make()
        ref, confirming = _probing_edge(arrival, ref_service)
        assert edge == ref
        assert probed <= set(ref_service._h_cache)
        assert len(ref_service._h_cache) - len(probed) == confirming
        cases += 1
        confirmed += confirming > 0
    assert cases == 392 and confirmed > cases // 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lam=st.floats(0.01, 2.0), pkt_bits=st.sampled_from([1, 2, 4, 16, 64, 256]),
       log_rho=st.floats(10.0, 13.0), blocklength=st.floats(16.0, 1024.0),
       variant=st.sampled_from(["standard_compound", "paper_literal"]))
def test_stability_edge_is_certified_by_its_tangent_bound(lam, pkt_bits, log_rho,
                                                          blocklength, variant):
    # the edge returned is a probed stable point, and the tighter tangent
    # root of its final bracket, built from the cached H, lies within
    # BISECT_TOL above it, unless the probed bracket itself is that narrow
    arrival = ArrivalModel(lam, pkt_bits, variant)
    service = make_service(blocklength=blocklength, rho=10.0 ** log_rho)
    try:
        s_max = stability_smax(arrival, service)
    except QuadratureError:
        return
    if s_max is None or s_max == mellin.S_CAP:
        return
    assert s_max in service._h_cache
    assert stability_product(s_max, arrival, service) < 1.0
    rate, scale = mellin._arrival_exponent(arrival)
    hi = min((s for s in service._h_cache
              if s > s_max and stability_product(s, arrival, service) >= 1.0),
             default=math.inf)
    if hi - s_max <= mellin.BISECT_TOL:
        return
    upper = math.inf
    for x in (s_max, hi) if hi < math.inf else (s_max,):
        _, m_srv, _, (slope, _) = mellin._transforms(x, arrival, service)
        l_x = math.log(m_srv)
        upper = min(upper, mellin._exact_arrival_root(rate, scale, l_x - slope * x,
                                                      slope, s_max, hi))
    assert s_max <= upper <= s_max + mellin.BISECT_TOL


def test_stability_smax_raises_when_bracket_not_closed(monkeypatch):
    monkeypatch.setattr(mellin, "MAX_SEARCH_STEPS", 1)
    with pytest.raises(SearchError):
        stability_smax(ARRIVAL, make_service())


def test_stability_smax_probes_s_cap(monkeypatch):
    # an edge past S_CAP is reported as S_CAP only once S_CAP is probed
    # stable; the first step from this floor would pass S_CAP
    service = make_service()
    edge = stability_smax(ARRIVAL, service)
    monkeypatch.setattr(mellin, "S_CAP", edge * 1.5)
    assert stability_smax(ARRIVAL, make_service()) == pytest.approx(
        edge, abs=mellin.BISECT_TOL)
    monkeypatch.setattr(mellin, "S_FLOOR", edge / 4)
    monkeypatch.setattr(mellin, "S_CAP", edge / 3)
    service = make_service()
    assert stability_smax(ARRIVAL, service) == mellin.S_CAP
    assert mellin.S_CAP in service._h_cache


def test_violation_bound_out_of_probes_stays_a_bound(monkeypatch):
    # a kernel-infimum search that runs out of probes returns K at its best
    # probe: never below the full search's bound, never above 1, not vacuous
    s_max = stability_smax(ARRIVAL, make_service())
    full = {t: violation_bound(t, ARRIVAL, make_service(), s_max=s_max).bound
            for t in (2, 8)}
    for steps in (0, 1):
        monkeypatch.setattr(mellin, "MAX_SEARCH_STEPS", steps)
        for t in (2, 8):
            res = violation_bound(t, ARRIVAL, make_service(), s_max=s_max)
            assert full[t] <= res.bound <= 1.0
            assert not res.vacuous


def test_stability_smax_steps_back_from_unconverged_overshoot(monkeypatch):
    # at rho 1e14 the upper bound from the floor lands where H does not
    # converge; the search steps back and still brackets the edge
    arrival = ArrivalModel(0.35, 16, "paper_literal")
    failed = []

    def make():
        return make_service(blocklength=128.0, rho=1e14)

    def recording(s, model):
        try:
            return service_mellin_u_with_error(s, model)
        except QuadratureError:
            failed.append(s)
            raise

    monkeypatch.setattr(mellin, "service_mellin_u_with_error", recording)
    s_max = stability_smax(arrival, make())
    assert failed
    assert stability_product(s_max, arrival, make()) < 1.0
    assert stability_product(s_max + 1e-6, arrival, make()) >= 1.0 - 1e-9


def test_error_estimate_ignores_probes_past_edge():
    # the estimate comes from the H values behind the bounds, so an H that
    # no bound uses (here one at twice the edge, whose error estimate is
    # four times the reported one) does not move it
    def make():
        return ServiceModel(make_stats(), SecrecyParams(2e-6, 1e-3, 64.0),
                            QUADRATURE_PROFILES["train"])

    window = DelayWindow(2, 8)
    plain = delay_determinacy(window, ARRIVAL, make())
    service = make()
    _, far_err = service_mellin_u_with_error(2.0 * stability_edge(ARRIVAL, make()), service)
    assert far_err > plain.quadrature_error_estimate
    probed = delay_determinacy(window, ARRIVAL, service)
    assert probed.quadrature_error_estimate == plain.quadrature_error_estimate
    assert (probed.bound_tmin, probed.bound_tmax) == (plain.bound_tmin, plain.bound_tmax)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(lam=0.35, pkt_bits=2, log_rho=14.0, blocklength=32.0,
         variant="standard_compound")      # both raise QuadratureError
@given(lam=st.floats(0.01, 2.0), pkt_bits=st.sampled_from([1, 2, 4, 16, 64, 256]),
       log_rho=st.floats(10.0, 14.0), blocklength=st.floats(16.0, 1024.0),
       variant=st.sampled_from(["standard_compound", "paper_literal"]))
def test_stability_smax_matches_bisection_reference(lam, pkt_bits, log_rho,
                                                    blocklength, variant):
    # the edge lies within BISECT_TOL of the doubling-plus-bisection edge and
    # is stable; the search may fail to converge H only where the reference
    # fails too
    arrival = ArrivalModel(lam, pkt_bits, variant)

    def make():
        return make_service(blocklength=blocklength, rho=10.0 ** log_rho)

    try:
        s_max = stability_smax(arrival, make())
    except QuadratureError:
        with pytest.raises(QuadratureError):
            _reference_edge(arrival, make())
        return
    try:
        ref = _reference_edge(arrival, make())
    except QuadratureError:
        return
    if ref is None:
        assert s_max is None
        return
    assert abs(s_max - ref) <= mellin.BISECT_TOL + 1e-10
    assert stability_product(s_max, arrival, make()) < 1.0


def _exact_arrival_root_reevaluating(rate, scale, c0, c1, lo, hi=math.inf):
    """Oracle: the exact-arrival root search that evaluates f afresh at the
    upper end on every step."""
    def f(s):
        x = rate * s
        if x > 700.0:
            return math.inf, math.inf
        return scale * math.expm1(x) + c0 + c1 * s, scale * rate * math.exp(x) + c1

    if f(lo)[0] >= 0.0:
        return lo
    if math.isinf(hi):
        hi = 2.0 * lo
        while f(hi)[0] < 0.0:
            lo, hi = hi, 2.0 * hi
    elif f(hi)[0] < 0.0:
        return hi
    for _ in range(mellin.MAX_SEARCH_STEPS):
        v, d = f(hi)
        s = hi - v / d if math.isfinite(v) and d > 0.0 else 0.5 * (lo + hi)
        if not lo < s < hi:
            break
        if f(s)[0] < 0.0:
            lo = s
        else:
            hi = s
    return hi


@settings(max_examples=300, deadline=None, derandomize=True)
@example(rate=1.0, scale=1e-6, c0=-50.0, c1=-10.0, lo=1e-4, width=math.inf)
@example(rate=256.0, scale=0.35, c0=-0.2, c1=0.0, lo=1e-4, width=1e3)
@given(rate=st.sampled_from([1.0, 2.0, 16.0, 256.0]) | st.floats(1e-3, 1e3),
       scale=st.floats(1e-6, 1e3), c0=st.floats(-50.0, 5.0), c1=st.floats(-10.0, 10.0),
       lo=st.floats(1e-4, 10.0),
       width=st.just(math.inf) | st.floats(1e-12, 1e3))
def test_exact_arrival_root_equals_reevaluating_search(rate, scale, c0, c1, lo, width):
    # carrying f and f' at the upper end leaves every iterate, so the
    # returned point, as it was
    hi = lo + width
    got = mellin._exact_arrival_root(rate, scale, c0, c1, lo, hi)
    want = _exact_arrival_root_reevaluating(rate, scale, c0, c1, lo, hi)
    assert got.hex() == want.hex()
