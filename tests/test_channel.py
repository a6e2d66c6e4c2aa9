import tracemalloc

import numpy as np
import pytest

from ris_detnet.channel import (DRAW_BLOCK_BYTES, FadingParams, LinkStats,
                                PhaseShiftConfig, Topology, composite_gain,
                                delta_sq_closed_form, draws_per_block,
                                estimate_eve_mean_snr, los_components, path_loss,
                                _eve_normal_layout, _normal_layout, _ris_eve_links,
                                sample_channels, snr, steering_vector)
from ris_detnet.config import default_config
from ris_detnet.env import RisDownlinkEnv


# ---------------------------------------------------------------- path loss

def test_path_loss_reference_values():
    assert path_loss(1.0, 4.0, -30.0) == pytest.approx(1e-3, rel=1e-12)
    assert path_loss(1.0, 2.2, -30.0) == pytest.approx(10 ** (-30 / 10), rel=1e-12)
    assert path_loss(10.0, 2.0, -30.0) == pytest.approx(1e-5, rel=1e-12)


def test_path_loss_monotone():
    ds = np.linspace(1.5, 200.0, 40)
    vals = [path_loss(d, 3.0, -30.0) for d in ds]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    alphas = np.linspace(2.0, 6.0, 20)
    vals_a = [path_loss(5.0, a, -30.0) for a in alphas]
    assert all(a > b for a, b in zip(vals_a, vals_a[1:]))


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss(0.0, 4.0, -30.0)
    with pytest.raises(ValueError):
        path_loss(-2.0, 4.0, -30.0)


# ---------------------------------------------------------------- sampling

def test_los_limit_high_k_factor(topo):
    fad = FadingParams(rician_k_r=1e9, rician_k_gk=1e9)
    real = sample_channels(topo, fad, np.random.default_rng(0))
    pl = path_loss(topo.dist_ap_ris, fad.alpha_ris, fad.pl0_db)
    assert np.allclose(np.abs(real.g_ris) ** 2, pl, rtol=2e-4)


def test_ris_entry_power_matches_path_loss_mc(topo, fading):
    # Monte-Carlo moment oracle: per-entry mean power equals the path loss
    rng = np.random.default_rng(7)
    draws = 10000
    acc = np.zeros(topo.n_elements)
    for _ in range(draws):
        acc += np.abs(sample_channels(topo, fading, rng).g_ris) ** 2
    pl = path_loss(topo.dist_ap_ris, fading.alpha_ris, fading.pl0_db)
    assert np.mean(acc) / draws == pytest.approx(pl, rel=0.02)


def test_direct_link_power_matches_path_loss_mc(topo, fading):
    rng = np.random.default_rng(8)
    draws = 20000
    acc = 0.0
    for _ in range(draws):
        acc += abs(sample_channels(topo, fading, rng).h_direct[0]) ** 2
    pl = path_loss(topo.dist_ap_user[0], fading.alpha_direct, fading.pl0_db)
    assert acc / draws == pytest.approx(pl, rel=0.03)


def test_sampling_deterministic_under_seed(topo, fading):
    a = sample_channels(topo, fading, np.random.default_rng(99))
    b = sample_channels(topo, fading, np.random.default_rng(99))
    assert np.array_equal(a.h_direct, b.h_direct)
    assert np.array_equal(a.g_ris, b.g_ris)
    assert np.array_equal(a.f_user, b.f_user)
    assert np.array_equal(a.f_eve, b.f_eve)
    assert a.h_direct_eve == b.h_direct_eve


def _per_link_channels(topology, fading, rng):
    """Oracle: one steering vector, path loss and pair of normal draws per
    link, drawn link by link."""
    def cn(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    def rician(steering, pl, k_factor):
        los = np.sqrt(k_factor / (k_factor + 1.0)) * steering
        nlos = np.sqrt(1.0 / (k_factor + 1.0)) * cn(steering.shape)
        return np.sqrt(pl) * (los + nlos)

    pl_r = path_loss(topology.dist_ap_ris, fading.alpha_ris, fading.pl0_db)
    g_ris = rician(steering_vector(topology.ap_pos, topology), pl_r, fading.rician_k_r)
    h_direct = np.empty(topology.n_users, dtype=complex)
    f_user = np.empty((topology.n_users, topology.n_elements), dtype=complex)
    for k in range(topology.n_users):
        pl_d = path_loss(topology.dist_ap_user[k], fading.alpha_direct, fading.pl0_db)
        h_direct[k] = np.sqrt(pl_d) * cn(())
        pl_g = path_loss(topology.dist_ris_user[k], fading.alpha_ris, fading.pl0_db)
        f_user[k] = rician(steering_vector(topology.user_pos[k], topology), pl_g,
                           fading.rician_k_gk)
    pl_fe = path_loss(topology.dist_ris_eve, fading.alpha_ris, fading.pl0_db)
    f_eve = rician(steering_vector(topology.eve_pos, topology), pl_fe, fading.rician_k_gk)
    pl_de = path_loss(topology.dist_ap_eve, fading.alpha_direct, fading.pl0_db)
    return h_direct, g_ris, f_user, f_eve, complex(np.sqrt(pl_de) * cn(()))


def _shaped(topo, shape):
    """The conftest topology, without its RIS or with one user and 16 elements."""
    if shape == "conftest":
        return topo
    users = topo.user_pos[:1] if shape == "one_user" else topo.user_pos
    return Topology(ap_pos=topo.ap_pos, ris_pos=topo.ris_pos, eve_pos=topo.eve_pos,
                    user_pos=users, n_elements=0 if shape == "no_ris" else 16)


@pytest.mark.parametrize("shape", ["conftest", "no_ris", "one_user"])
def test_sampling_equals_per_link_draws(topo, fading, shape):
    # one normal draw per realization and the cached steering vectors give
    # the same bits, and leave the stream in the same place, as drawing
    # link by link
    topo = _shaped(topo, shape)
    fast, slow = np.random.default_rng(21), np.random.default_rng(21)
    for _ in range(200):
        real = sample_channels(topo, fading, fast)
        got = (real.h_direct, real.g_ris, real.f_user, real.f_eve,
               np.array(real.h_direct_eve))
        for a, b in zip(got, _per_link_channels(topo, fading, slow)):
            assert np.array_equal(a, b)
            assert np.shape(a) == np.shape(b)
    assert fast.random() == slow.random()


@pytest.mark.parametrize("shape", ["conftest", "no_ris", "one_user"])
def test_block_of_draws_equals_single_draws(topo, fading, shape):
    # a block of n draws holds, bit for bit, the realizations of n calls
    # without n_draws, and leaves the stream where they leave it
    topo = _shaped(topo, shape)
    block_rng, single_rng = np.random.default_rng(23), np.random.default_rng(23)
    for n in (1, 5, 64):
        block = sample_channels(topo, fading, block_rng, n)
        assert block.f_user.shape == (n, topo.n_users, topo.n_elements)
        assert block.h_direct_eve.shape == (n,)
        for i in range(n):
            real = sample_channels(topo, fading, single_rng)
            got = (block.h_direct[i], block.g_ris[i], block.f_user[i], block.f_eve[i],
                   np.array(block.h_direct_eve[i]))
            want = (real.h_direct, real.g_ris, real.f_user, real.f_eve,
                    np.array(real.h_direct_eve))
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
                assert np.shape(a) == np.shape(b)
    assert block_rng.random() == single_rng.random()


def test_draw_block_bounded_by_bytes_not_draws():
    # a block holds as many realizations as fit DRAW_BLOCK_BYTES of normals,
    # and at least one: one realization of the capped 1024-user, 4096-element
    # topology is 8.4 M normals (67 MB), so its episodes draw one per block,
    # and a reset peaks near that one draw's arrays, far below two draws'
    cfg = default_config()
    assert draws_per_block(RisDownlinkEnv(cfg).topology) == 61
    cfg.set_by_path("budget.n_max", 16384)
    cfg.set_by_path("topology.n_users", 1024)
    cfg.set_by_path("topology.n_elements", 4096)
    cfg.set_by_path("fading.eve_mean_snr", 10.0)
    env = RisDownlinkEnv(cfg, seed=0)
    normal_bytes = 8 * _normal_layout(4096, 1024)[2]
    assert normal_bytes > DRAW_BLOCK_BYTES
    assert draws_per_block(env.topology) == 1
    env.reset()
    tracemalloc.start()
    try:
        env.reset()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * normal_bytes


def _eve_snr_from_realizations(topology, fading, p_tx, rng, n_draws):
    """Oracle: the Eve calibration built from whole realizations."""
    noise = fading.noise_power_watts
    acc = 0.0
    for _ in range(n_draws):
        real = sample_channels(topology, fading, rng)
        theta = PhaseShiftConfig(rng.uniform(0.0, 2 * np.pi, topology.n_elements))
        gain = composite_gain(real.h_direct_eve, real.f_eve, theta, real.g_ris)
        acc += snr(gain, p_tx, noise)
    return acc / n_draws


@pytest.mark.parametrize("shape", ["conftest", "no_ris", "one_user"])
def test_eve_calibration_equals_whole_realizations(topo, fading, shape):
    # building only the links that reach Eve gives the same mean SNR bit for
    # bit and leaves the stream where whole realizations leave it
    topo = _shaped(topo, shape)
    fast, slow = np.random.default_rng(8), np.random.default_rng(8)
    got = estimate_eve_mean_snr(topo, fading, 0.5, fast, 300)
    want = _eve_snr_from_realizations(topo, fading, 0.5, slow, 300)
    assert got.hex() == want.hex()
    assert fast.bit_generator.state == slow.bit_generator.state


def _eve_snr_per_draw(topology, fading, p_tx, rng, n_draws):
    """Oracle: the Eve calibration as a loop that builds each draw's links
    to Eve on their own."""
    noise = fading.noise_power_watts
    n_el = topology.n_elements
    re, im, total = _eve_normal_layout(n_el, topology.n_users)
    acc = 0.0
    for _ in range(n_draws):
        z = rng.standard_normal(total)
        cn = (z[re] + 1j * z[im]) / np.sqrt(2.0)
        g_ris, f_eve, h_direct_eve = _ris_eve_links(topology, fading, cn[:n_el],
                                                    cn[n_el:])
        theta = PhaseShiftConfig(rng.uniform(0.0, 2 * np.pi, n_el))
        gain = composite_gain(complex(h_direct_eve), f_eve, theta, g_ris)
        acc += snr(gain, p_tx, noise)
    return acc / n_draws


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_env_lambda_eve_equals_per_draw_loop(seed):
    # the env's calibration, all draws at once, gives lambda_eve bit for bit
    # as a per-draw loop on the same stream
    env = RisDownlinkEnv(default_config(), seed=seed)
    rng = np.random.default_rng([seed, 13])
    want = 1.0 / _eve_snr_per_draw(env.topology, env.fading, env.p_max / env.n_users,
                                   rng, 500)
    assert env.lambda_eve.hex() == want.hex()


def test_eve_calibration_memory_bounded_by_bytes_not_draws(fading):
    # a block holds as many draws as fit the byte bound, and at least one:
    # 64 users and 256 elements take 271 KB of normals per draw, so the
    # calibration builds one draw's links at a time
    angles = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    users = np.c_[50.0 + 1.5 * np.cos(angles), 1.5 * np.sin(angles)]
    big = Topology(ap_pos=(0.0, 20.0), ris_pos=(50.0, 20.0), eve_pos=(50.0, 0.0),
                   user_pos=users, n_elements=256)
    estimate_eve_mean_snr(big, fading, 0.5, np.random.default_rng(0), 1)
    tracemalloc.start()
    try:
        estimate_eve_mean_snr(big, fading, 0.5, np.random.default_rng(1), 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


# ---------------------------------------------------------------- composite

def test_composite_gain_cancellation():
    theta = PhaseShiftConfig([np.pi])
    gain = composite_gain(1.0, np.array([1.0 + 0j]), theta, np.array([1.0 + 0j]))
    assert abs(gain) < 1e-12


def test_composite_gain_no_reflection():
    theta = PhaseShiftConfig([0.3, 1.2, 2.2])
    gain = composite_gain(0.7 - 0.2j, np.zeros(3, dtype=complex), theta,
                          np.ones(3, dtype=complex))
    assert gain == pytest.approx(0.7 - 0.2j)


def test_composite_gain_length_mismatch():
    with pytest.raises(ValueError):
        composite_gain(0.0, np.ones(2, dtype=complex), PhaseShiftConfig([0.0]),
                       np.ones(2, dtype=complex))


def test_phase_alignment_is_grid_optimal():
    # brute force over a 16-level grid on N=3 elements: the maximizer aligns
    # every reflected term with the direct path's argument
    rng = np.random.default_rng(5)
    h = 0.8 * np.exp(1j * 0.9)
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    g = rng.normal(size=3) + 1j * rng.normal(size=3)
    grid = 2 * np.pi * np.arange(16) / 16
    best = -1.0
    for i in range(16):
        for j in range(16):
            for k in range(16):
                theta = PhaseShiftConfig([grid[i], grid[j], grid[k]])
                best = max(best, abs(composite_gain(h, f, theta, g)))
    term_phase = np.angle(np.conj(f) * g)
    want = np.angle(h) - term_phase
    snapped = grid[np.argmin(np.abs(np.exp(1j * (want[:, None] - grid[None, :])) - 1),
                             axis=1)]
    aligned = abs(composite_gain(h, f, PhaseShiftConfig(snapped), g))
    assert aligned == pytest.approx(best, rel=1e-12)


def test_triangle_inequality_and_equality(rng):
    for _ in range(50):
        h = rng.normal() + 1j * rng.normal()
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        theta = PhaseShiftConfig(rng.uniform(0, 2 * np.pi, 4))
        lhs = abs(composite_gain(h, f, theta, g))
        rhs = abs(h) + np.sum(np.abs(f) * np.abs(g))
        assert lhs <= rhs + 1e-12
    # equality by alignment
    aligned = PhaseShiftConfig(np.angle(h) - np.angle(np.conj(f) * g))
    assert abs(composite_gain(h, f, aligned, g)) == pytest.approx(
        abs(h) + np.sum(np.abs(f) * np.abs(g)), rel=1e-12)


# ---------------------------------------------------------------- snr

def test_snr_values():
    assert snr(1.0 + 0j, 1.0, 1e-3) == pytest.approx(1e3)
    assert snr(0.5 + 0.5j, 0.0, 1e-3) == 0.0
    theta = PhaseShiftConfig([np.pi])
    gain = composite_gain(1.0, np.array([1.0 + 0j]), theta, np.array([1.0 + 0j]))
    assert snr(gain, 2.0, 1e-3) < 1e-20


def test_snr_linear_in_power(rng):
    gain = rng.normal() + 1j * rng.normal()
    base = snr(gain, 0.7, 1e-3)
    for c in (0.0, 0.4, 2.5):
        assert snr(gain, c * 0.7, 1e-3) == pytest.approx(c * base)


def test_snr_rejects_zero_noise():
    with pytest.raises(ValueError):
        snr(1.0 + 0j, 1.0, 0.0)


# ---------------------------------------------------------------- link stats

def test_delta_sq_direct_only_without_ris(fading):
    topo0 = Topology(ap_pos=(0, 20), ris_pos=(50, 20), eve_pos=(50, 0),
                     user_pos=[(50.6, 1.1)], n_elements=0)
    want = path_loss(topo0.dist_ap_user[0], fading.alpha_direct, fading.pl0_db)
    assert delta_sq_closed_form(topo0, fading, 0) == pytest.approx(want, rel=1e-12)


def test_delta_sq_ris_term_linear_in_elements(fading):
    def make(n):
        return Topology(ap_pos=(0, 20), ris_pos=(50, 20), eve_pos=(50, 0),
                        user_pos=[(50.6, 1.1)], n_elements=n)
    direct = path_loss(make(1).dist_ap_user[0], fading.alpha_direct, fading.pl0_db)
    ris8 = delta_sq_closed_form(make(8), fading, 0) - direct
    ris16 = delta_sq_closed_form(make(16), fading, 0) - direct
    assert ris16 == pytest.approx(2 * ris8, rel=1e-12)


def test_delta_sq_matches_composite_gain_variance_mc(topo, fading):
    # Monte-Carlo variance oracle: complex sample variance of the composite
    # gain around its mean matches the closed form within 5%
    rng = np.random.default_rng(17)
    theta = PhaseShiftConfig(rng.uniform(0, 2 * np.pi, topo.n_elements))
    draws = 12000
    gains = np.empty(draws, dtype=complex)
    for i in range(draws):
        real = sample_channels(topo, fading, rng)
        gains[i] = composite_gain(real.h_direct[0], real.f_user[0], theta, real.g_ris)
    sample_var = np.mean(np.abs(gains - gains.mean()) ** 2)
    assert sample_var == pytest.approx(delta_sq_closed_form(topo, fading, 0), rel=0.05)


def test_link_stats_fields():
    cfg = default_config()
    cfg.values["fading"]["eve_mean_snr"] = 20.0
    env = RisDownlinkEnv(cfg, seed=0)
    stats = env.link_stats(1, 0.5, 2)
    assert stats.rho == pytest.approx(0.5 / env.fading.noise_power_watts)
    assert stats.lambda_eve == 0.05
    assert stats.delta_k_sq == pytest.approx(
        delta_sq_closed_form(env.topology, env.fading, 1), rel=1e-12)
    theta = env.codebook.phase_codewords[2]
    g_los, f_los, _ = los_components(env.topology, env.fading)
    want_ups = abs(np.vdot(f_los[1], theta.coefficients * g_los)) ** 2
    assert stats.upsilon_k == pytest.approx(want_ups, rel=1e-12)


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(ap_pos=(0, 20), ris_pos=(50, 20), eve_pos=(50, 0),
                 user_pos=[(10.0, 10.0)], n_elements=4)   # outside the circle
