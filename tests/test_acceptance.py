"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single ``CRITERION n: PASS`` line on success (visible with
``pytest -s`` or in the captured output); the test name doubles as the
pass/fail line under ``pytest -v``.

Criterion 4 checks the equal-ratio fair split's vanishing limit in the form
it takes: the split is 1/(1 + sqrt(1 + zeta)), which decays like
1/sqrt(zeta), so every grid point must lie in the band
(1/sqrt(zeta) - 1/zeta, 1/sqrt(zeta)).  At zeta = 1e3 that band is 1e-3
wide.  A bare "within 1e-3 of 0 at zeta = 1e3" would contradict the
rate-equalising root that criterion 5 pins (0.0306 there).
"""

import math
import statistics
import time
from dataclasses import replace

import numpy as np

from nomabeam.array_geometry import eligible_pairs
from nomabeam.baselines import SchemeId
from nomabeam.channel import draw_paths
from nomabeam.clustering import greedy_pairs
from nomabeam.link_metrics import link_states
from nomabeam.power_allocation import _gamma_fair, _gamma_hat, opa
from nomabeam.sim_harness import ScenarioConfig, _drop_users, run_sweep, write_csv

from drops import array, beta_matrices, channel_matrix, pair_beta, plan_toward, user_paths
from oracles import (
    beta_phasor_sum,
    emitted_power_check,
    emitted_powers,
    pair_rate,
    pair_rate_grid_max,
    random_direction,
    rc_derivative,
    sinr_dbs_monopath_closed,
    sinr_dbs_multipath_closed,
)

SEED = 20260810


def test_criterion_01_beta_closed_form_vs_brute_force():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        cfg = array(int(rng.integers(1, 65)), int(rng.integers(1, 65)), 0.5)
        dir_k, dir_u = random_direction(rng), random_direction(rng)
        diff = abs(pair_beta(cfg, dir_k, dir_u) - beta_phasor_sum(cfg, dir_k, dir_u))
        worst = max(worst, diff)
        assert diff < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"CRITERION 1: PASS - 1000 instances, worst |closed - brute| = {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_opa_optimality_against_grid_search():
    # epsilon = 0 so every instance takes a throughput-maximizing endpoint;
    # the fairness branch is a tie rule, not a maximizer, and is checked in
    # criterion 5.
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    p_min = 1e-3
    for _ in range(1000):
        z1 = float(rng.uniform(0.01, 100.0))
        z2 = float(rng.uniform(0.01, 100.0))
        gamma1, _ = opa(z1, z2, p_min, 0.0)
        achieved = pair_rate(z1, z2, float(gamma1))
        grid_max = pair_rate_grid_max(z1, z2, _gamma_hat(z1, p_min), step=1e-4)
        assert achieved >= grid_max - 1e-6 * abs(grid_max)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"CRITERION 2: PASS - 1000 instances beat the 1e-4 grid within 1e-6 rel, {elapsed:.2f}s")


def test_criterion_03_throughput_slope_sign_and_finite_difference():
    rng = np.random.default_rng(SEED)
    h = 1e-6
    gamma_grid = np.linspace(0.0, 0.5, 101)
    for _ in range(1000):
        z1 = float(rng.uniform(0.01, 100.0))
        z2 = float(rng.uniform(0.01, 100.0))
        expected_sign = math.copysign(1.0, z1 - z2)
        signs = {math.copysign(1.0, rc_derivative(z1, z2, float(g))) for g in gamma_grid}
        assert signs == {expected_sign}
        g = float(rng.uniform(h, 0.5 - h))
        fd = (pair_rate(z1, z2, g + h) - pair_rate(z1, z2, g - h)) / (2.0 * h)
        assert abs(rc_derivative(z1, z2, g) - fd) <= 1e-4 * abs(fd)
    print("CRITERION 3: PASS - slope sign constant and equal to sign(zeta1 - zeta2); FD match at 1e-4 rel")


def test_criterion_04_fair_split_range_monotonicity_and_limits():
    grid = np.logspace(-3, 3, 301)
    values = [_gamma_fair(z, z) for z in grid]
    assert all(0.0 < v < 0.5 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))
    low_end = values[0]
    high_end = values[-1]
    assert abs(low_end - 0.5) < 1e-3
    # The limit 0 is approached like 1/sqrt(zeta): with s = sqrt(zeta) and
    # t = sqrt(1 + zeta) the split is (t - 1)/s^2, so it sits 1/(s^2 (s + t))
    # above 1/s - 1/s^2 and below 1/s because s < 1 + t.
    for z, v in zip(grid, values):
        decay = 1.0 / math.sqrt(z)
        assert decay - 1.0 / z < v < decay, (
            f"fair split at zeta = {z:.6g} is {v:.6f}, outside the 1/sqrt(zeta) decay band "
            f"({decay - 1.0 / z:.6f}, {decay:.6f})"
        )
    high_gap = 1.0 / math.sqrt(grid[-1]) - high_end
    print(
        "CRITERION 4: PASS - fair split in (0, 1/2), strictly decreasing, "
        f"endpoints {low_end:.6f} / {high_end:.6f}; "
        f"1/sqrt(zeta) - split = {high_gap:.3e} < 1/zeta = {1.0 / grid[-1]:.0e} at zeta = 1e3"
    )


def test_criterion_05_fairness_point():
    value = _gamma_fair(3.0, 3.0)
    assert abs(value - 1.0 / 3.0) < 1e-12
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        z1 = float(10.0 ** rng.uniform(-3, 3))
        z2 = float(10.0 ** rng.uniform(-3, 3))
        g = _gamma_fair(z1, z2)
        r1 = math.log2(1.0 + z1 * g)
        r2 = math.log2(1.0 + z2 * (1.0 - g) / (1.0 + z2 * g))
        assert abs(r1 - r2) < 1e-9 * r1
    print("CRITERION 5: PASS - rates equal at the fair split (1e-9 rel); _gamma_fair(3,3) = 1/3 exact")


def test_criterion_06_pipeline_matches_closed_forms():
    rng = np.random.default_rng(SEED)
    cfg = array(16, 2, 0.5)
    noise = 8.1e-14
    mono = ScenarioConfig(num_time_clusters=(1, 1), paths_per_cluster=(1, 1))
    multi = ScenarioConfig(num_time_clusters=(2, 2), paths_per_cluster=(2, 2))

    def check(config, closed_fn, drops):
        for _ in range(drops):
            k = int(rng.integers(1, 8))
            paths = draw_paths([rng], config, k)
            gains, dirs = user_paths(paths)
            los = paths.starts
            weights, powers = plan_toward(cfg, paths.theta[los], paths.phi[los], np.ones(k, dtype=int), 1.0)
            eta_dbs = powers[0]
            own = int(rng.integers(0, k))
            h = channel_matrix(cfg, paths)[own]
            pipeline = float(link_states(np.abs(h[np.newaxis] @ weights) ** 2, powers, [own], noise)[2][0])
            if closed_fn is sinr_dbs_monopath_closed:
                closed = closed_fn([g[0] for g in gains], [d[0] for d in dirs], own, eta_dbs, noise, cfg)
            else:
                closed = closed_fn(gains, dirs, own, eta_dbs, noise, cfg)
            assert abs(pipeline - closed) <= 1e-9 * abs(closed)

    check(mono, sinr_dbs_monopath_closed, 200)
    check(multi, sinr_dbs_multipath_closed, 200)
    print("CRITERION 6: PASS - pipeline SINR matches both closed forms on 200+200 drops (1e-9 rel)")


def test_criterion_07_power_conservation_smoke_sweep():
    config = ScenarioConfig(user_counts=(25,), trials=100, master_seed=SEED)
    total = config.total_power_w
    for trial in range(100):
        paths = _drop_users(config, 25, [trial])
        los_theta, los_phi = paths.theta[paths.starts], paths.phi[paths.starts]
        _, pairs = greedy_pairs(eligible_pairs(config, los_theta[None], los_phi[None], config.beta0))
        pairs = pairs.tolist()
        singles = sorted(set(range(25)) - {m for pair in pairs for m in pair})
        beams = [
            ((los_theta[a] + los_theta[b]) / 2, (los_phi[a] + los_phi[b]) / 2) for a, b in pairs
        ] + [(los_theta[s], los_phi[s]) for s in singles]
        sizes = [2] * len(pairs) + [1] * len(singles)
        theta, phi = zip(*beams)
        weights, powers = plan_toward(config, theta, phi, sizes, total, config.inter_cluster_rule)
        assert abs(emitted_power_check(weights, powers) - total) <= 1e-9 * total
        shares = [p / k_c for p, k_c in zip(emitted_powers(weights, powers), sizes)]
        assert all(abs(s - total / 25) <= 1e-12 * total for s in shares)
    print("CRITERION 7: PASS - emitted power = total (1e-9 rel) and P_c/K_c constant on 100 trials")


def test_criterion_08_clustering_contract():
    rng = np.random.default_rng(SEED)
    cfg = array(32, 2, 0.5)
    config = ScenarioConfig()
    beta0 = 0.5
    for _ in range(500):
        k = int(rng.integers(2, 41))
        paths = draw_paths([rng], config, k)
        theta, phi = paths.theta[paths.starts][None], paths.phi[paths.starts][None]
        _, pairs = greedy_pairs(eligible_pairs(cfg, theta, phi, beta0))
        (beta,) = beta_matrices(cfg, theta, phi)
        pairs = pairs.tolist()
        paired = [m for pair in pairs for m in pair]
        assert len(set(paired)) == len(paired) and set(paired) <= set(range(k))
        selected = [beta[a, b] for a, b in pairs]
        assert all(b >= beta0 for b in selected)
        assert all(a >= b - 1e-12 for a, b in zip(selected, selected[1:]))
    print("CRITERION 8: PASS - partition, pair admissibility and greedy order hold on 500 drops")


def test_criterion_09_trend_reproduction():
    start = time.perf_counter()
    user_counts = (5, 15, 25, 35, 45, 55)
    schemes = (SchemeId.DBS, SchemeId.NOMA_DBS_FCSI, SchemeId.NOMA_DBS_PCSI)
    # rural defaults, M = 64, beta0 = 0.5; the sweep evaluates the three
    # schemes on the same drops, and its means run over the 500 trials of each K
    config = ScenarioConfig(user_counts=user_counts, schemes=schemes, trials=500, master_seed=1)
    columns = run_sweep(config)
    means = {
        scheme: [statistics.fmean(columns[scheme, k].spectral_eff.tolist()) for k in user_counts] for scheme in schemes
    }
    gains = [f / d - 1.0 for f, d in zip(means[SchemeId.NOMA_DBS_FCSI], means[SchemeId.DBS])]
    pcsi_dev = [
        abs(p - f) / f
        for p, f in zip(means[SchemeId.NOMA_DBS_PCSI], means[SchemeId.NOMA_DBS_FCSI])
    ]
    assert all(f >= d for f, d in zip(means[SchemeId.NOMA_DBS_FCSI], means[SchemeId.DBS]))
    assert all(b >= a for a, b in zip(gains, gains[1:])), f"gains not increasing: {gains}"
    assert gains[user_counts.index(45)] >= 0.10
    assert all(dev <= 0.05 for dev in pcsi_dev), f"partial-CSI deviation too large: {pcsi_dev}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    gain_pct = ", ".join(f"{g * 100:.1f}%" for g in gains)
    print(
        f"CRITERION 9: PASS - shared-beam gain over plain steering [{gain_pct}] across K={user_counts}, "
        f"partial CSI within {max(pcsi_dev) * 100:.1f}%, {elapsed:.0f}s"
    )


def test_criterion_10_byte_identical_sweeps(tmp_path):
    config = ScenarioConfig(user_counts=(5, 15), trials=20, master_seed=SEED)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    results_a = run_sweep(config)
    results_b = run_sweep(replace(config))
    write_csv(results_a, str(out_a))
    write_csv(results_b, str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    print("CRITERION 10: PASS - identical seed and config give byte-identical CSV")
