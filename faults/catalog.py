"""Planted faults that the tests must catch, for ``faults/run.py``.

Each entry is one exact text edit of a file under ``src/``: its ``old`` text
must occur there exactly once, and with ``new`` in its place every test in
``tests`` must have a failing case.  A test id names a case, a function
(any of its parametrized cases may fail) or a class (any of its tests may
fail).  An entry that the runner reports missed or stale is a finding: mend
the test or record the finding, and never edit the entry's tests so that
the run passes.
"""

from typing import NamedTuple


class Fault(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


HARNESS = "src/nomabeam/sim_harness.py"
SIM = "tests/test_sim_harness.py"
GOLDEN = "tests/test_golden.py::test_golden_sweep_digest"
TRIAL_STATES = f"{SIM}::TestTrialStates::test_states_and_generators_are_numpys"
ROWS_ALONE = f"{SIM}::TestTrialBlocks::test_rows_match_each_trial_alone"
DIRECTION_ESTIMATE = f"{SIM}::TestDirectionEstimate::test_each_paired_user_splits_on_its_beams_betas"
NO_LEAKAGE = f"{SIM}::TestSharedBeams::test_beam_with_no_leakage_splits_on_the_fed_back_ratios"
CARRIER = f"{SIM}::TestInvariances::test_carrier_times_four_with_the_noise_as_much_lower_keeps_every_rate"
RELATIONS = f"{SIM}::TestInvariances::test_physical_relations_keep_every_scheme"
UNIT_GAIN = f"{SIM}::TestUnitGainPaths::test_partial_csi_gives_full_csi_sum_rate"
LOADER_BOUNDS = f"{SIM}::TestLoaderProperty::test_each_bound_parts_its_neighbours"
SCALAR_ORACLE = "tests/test_channel.py::TestScalarOracle::test_paths_and_stream_match_bit_for_bit"
RAW_WORDS = "tests/test_channel.py::TestRawWords::test_values_state_and_held_half_are_numpys"
CB_LOOP = "tests/test_baselines.py::TestConjugateBfLoop::test_matches_the_user_loop_and_each_drop_alone"
PEAK_MEMORY = f"{SIM}::TestDropScoredAlone::test_massive_array_trial_peak_memory"
OPA = "tests/test_power_allocation.py::TestOpa"

FAULTS = [
    # Seeding: a block's seed states against numpy's SeedSequence.
    Fault(
        "trial hash constants one word late",
        HARNESS,
        "4 * n_words, 4 * n_words + 4)",
        "4 * n_words + 4, 4 * n_words + 8)",
        (TRIAL_STATES, ROWS_ALONE, f"{SIM}::TestDropScoredAlone::test_lone_shared_beam_is_reached", GOLDEN),
    ),
    Fault(
        "seed's word count not padded to 4",
        HARNESS,
        "n_words = max(-(-master_seed.bit_length() // 32), _POOL_WORDS) + ",
        "n_words = -(-master_seed.bit_length() // 32) + ",
        (TRIAL_STATES, "tests/test_acceptance.py::test_criterion_09_trend_reproduction", GOLDEN),
    ),
    Fault(
        "seed's words past the fourth ignored",
        HARNESS,
        "n_words = max(-(-master_seed.bit_length() // 32), _POOL_WORDS) + ",
        "n_words = _POOL_WORDS + ",
        (TRIAL_STATES, ROWS_ALONE),
    ),
    # Pairing: greedy selection order.
    Fault(
        "a drop's pairs in (k, u) order, not selection order",
        "src/nomabeam/clustering.py",
        "np.array(chosen, dtype=np.intp)",
        "np.array(sorted(chosen), dtype=np.intp)",
        (
            "tests/test_acceptance.py::test_criterion_08_clustering_contract",
            "tests/test_clustering.py::TestGreedyPairs::test_matches_the_masked_argmax_on_tied_values",
            "tests/test_clustering.py::TestPairingFromAngles::test_partition_admissibility_and_greedy_order",
            "tests/test_clustering.py::TestBlockPairing::test_each_drop_pairs_as_it_would_alone",
        ),
    ),
    # Partial CSI: a beam that nothing leaks into keeps the fed-back ratio.
    Fault(
        "lone-beam estimate put back at psi over the noise",
        HARNESS,
        "        _, nu, zeta = link_states(gains, powers, pair_places, 0.0, n_beams)\n"
        "    estimated = shared.copy()\n"
        "    t, p = np.nonzero((pair_places < n_pairs[:, None]) & (nu != 0.0))\n"
        "    estimated[drops[t], p] = zeta[t, p]\n",
        "        psi, nu, zeta = link_states(gains, powers, pair_places, 0.0, n_beams)\n"
        "    estimated = shared.copy()\n"
        "    t, p = np.nonzero(pair_places < n_pairs[:, None])\n"
        "    estimated[drops[t], p] = np.where(nu == 0.0, psi / config.noise_w, zeta)[t, p]\n",
        (CARRIER, NO_LEAKAGE, DIRECTION_ESTIMATE, GOLDEN),
    ),
    # The channel draw from PCG64's raw words, against numpy's own calls.
    Fault(
        "high half of a raw word taken first",
        "src/nomabeam/channel.py",
        "half, held = word & 0xFFFFFFFF, word >> 32",
        "half, held = word >> 32, word & 0xFFFFFFFF",
        (RAW_WORDS, SCALAR_ORACLE, GOLDEN),
    ),
    Fault(
        "held half word reset for every user",
        "src/nomabeam/channel.py",
        "        for _ in range(k_users):\n            los_words += (raw(), raw())\n",
        "        for _ in range(k_users):\n            held = None\n            los_words += (raw(), raw())\n",
        (SCALAR_ORACLE, GOLDEN),
    ),
    Fault(
        "Lemire's rejection test dropped",
        "src/nomabeam/channel.py",
        "        if m & 0xFFFFFFFF >= 2**32 % excl:",
        "        if True:",
        (RAW_WORDS,),
    ),
    Fault(
        "uniforms from the top 52 bits",
        "src/nomabeam/channel.py",
        "(words >> 11) * 2.0**-53",
        "(words >> 12) * 2.0**-53",
        (RAW_WORDS, SCALAR_ORACLE, GOLDEN),
    ),
    # The power split's branch codes and edges.
    Fault(
        "a zero weak ratio accepted",
        "src/nomabeam/power_allocation.py",
        "(z1 > 0) & (z2 > 0)",
        "(z1 > 0) & (z2 >= 0)",
        (f"{OPA}::test_zero_ratio_rejected",),
    ),
    Fault(
        "DEACTIVATE renumbered to FAIR's code",
        "src/nomabeam/power_allocation.py",
        "    DEACTIVATE = 0\n",
        "    DEACTIVATE = 1\n",
        (f"{OPA}::test_branch_codes_are_distinct",),
    ),
    Fault(
        "FAIR renumbered to UPPER_ENDPOINT's code",
        "src/nomabeam/power_allocation.py",
        "    FAIR = 1\n",
        "    FAIR = 2\n",
        (f"{OPA}::test_branch_codes_are_distinct",),
    ),
    Fault(
        "the feasible interval's edge moved to a ratio of 1.5",
        "src/nomabeam/power_allocation.py",
        "np.where(ratio > 1.0, np.nan",
        "np.where(ratio > 1.5, np.nan",
        (f"{OPA}::test_codes_on_both_sides_of_p_min_at_zeta1",),
    ),
    # Conjugate beamforming's Gram form, against a user-by-user loop.
    Fault(
        "conjugate beamforming's imaginary part dropped",
        "src/nomabeam/baselines.py",
        "    power_gains = np.square(re, out=re)\n    power_gains += np.square(im, out=im)\n",
        "    power_gains = np.square(re, out=re)\n",
        (CB_LOOP, GOLDEN),
    ),
    Fault(
        "conjugate beamforming's ||h_j|| not squared",
        "src/nomabeam/baselines.py",
        "/ re.diagonal(0, -2, -1)[..., None, :]",
        "/ np.sqrt(re.diagonal(0, -2, -1))[..., None, :]",
        (CB_LOOP,),
    ),
    Fault(
        "conjugate beamforming normalised on row k",
        "src/nomabeam/baselines.py",
        "re.diagonal(0, -2, -1)[..., None, :]",
        "re.diagonal(0, -2, -1)[..., :, None]",
        (CB_LOOP,),
    ),
    Fault(
        "conjugate beamforming's eta = 1/M",
        "src/nomabeam/baselines.py",
        "1.0 / k_users * total_power_w",
        "1.0 / m * total_power_w",
        (CB_LOOP,),
    ),
    Fault(
        "[Re H, Im H] held through the imaginary part",
        "src/nomabeam/baselines.py",
        "    del x\n    im -= im.swapaxes(-1, -2)\n",
        "    im -= im.swapaxes(-1, -2)\n    del x\n",
        (PEAK_MEMORY,),
    ),
    # rate's message names the first negative entry.
    Fault(
        "rate's message names the first nonpositive entry",
        "src/nomabeam/link_metrics.py",
        "got {sinr[sinr < 0][0]}",
        "got {sinr[sinr <= 0][0]}",
        ("tests/test_link_metrics.py::TestRate::test_any_negative_entry_rejected",),
    ),
    Fault(
        "rate's message names the first entry below 1",
        "src/nomabeam/link_metrics.py",
        "got {sinr[sinr < 0][0]}",
        "got {sinr[sinr < 1][0]}",
        ("tests/test_link_metrics.py::TestRate::test_any_negative_entry_rejected",),
    ),
    # The loader's bounds.
    Fault(
        "beta0 = 0 accepted",
        HARNESS,
        "if not 0.0 < self.beta0 < 1.0:",
        "if not 0.0 <= self.beta0 < 1.0:",
        (LOADER_BOUNDS,),
    ),
    Fault(
        "2**32 trials rejected",
        HARNESS,
        "if not 1 <= self.trials <= MAX_TRIALS:",
        "if not 1 <= self.trials < MAX_TRIALS:",
        (LOADER_BOUNDS, f"{SIM}::TestConfigValidation::test_trials_stay_within_32_bit_trial_indices"),
    ),
    Fault(
        "no ceiling on the shadowing",
        HARNESS,
        "if not 0.0 <= self.shadowing_sigma_db <= MAX_SHADOWING_SIGMA_DB:",
        "if not 0.0 <= self.shadowing_sigma_db:",
        (LOADER_BOUNDS,),
    ),
    Fault(
        "a user count of M accepted",
        HARNESS,
        "if not 1 <= k < self.num_elements:",
        "if not 1 <= k <= self.num_elements:",
        (f"{SIM}::TestConfigValidation::test_user_count_must_stay_below_element_count[8]",),
    ),
    # Physical relations: every SINR is a ratio of powers.
    Fault(
        "a 1e-15 W floor on the interference plus noise",
        "src/nomabeam/link_metrics.py",
        "nu = sums - psi + noise_w\n",
        "nu = sums - psi + noise_w + 1e-15\n",
        (RELATIONS, CARRIER, DIRECTION_ESTIMATE, GOLDEN),
    ),
    Fault(
        "LOS amplitude from the wavelength squared",
        "src/nomabeam/channel.py",
        "los_amp = wavelength_m / (4.0",
        "los_amp = wavelength_m**2 / (4.0",
        (RELATIONS, CARRIER, SCALAR_ORACLE, GOLDEN),
    ),
    # The shared plan in beam order.
    Fault(
        "strong/weak swap applied to the order only",
        HARNESS,
        "for table in (order, zeta):",
        "for table in (order,):",
        (DIRECTION_ESTIMATE, f"{SIM}::TestSharedBeams", UNIT_GAIN, GOLDEN),
    ),
    Fault(
        "power gains not gathered into beam order",
        HARNESS,
        "    gains = gains[np.arange(len(drops))[:, None], order]\n",
        "",
        (DIRECTION_ESTIMATE, UNIT_GAIN, GOLDEN),
    ),
    Fault(
        "weak user's SINR without its interference term",
        "src/nomabeam/link_metrics.py",
        "zeta_weak * (1.0 - gamma1) / (1.0 + zeta_weak * gamma1)",
        "zeta_weak * (1.0 - gamma1)",
        (
            "tests/test_link_metrics.py::TestSinrFormulas::test_weak_user_endpoints_and_hand_value",
            "tests/test_link_metrics.py::TestSinrFormulas::test_direct_expression_identity",
            NO_LEAKAGE,
            GOLDEN,
        ),
    ),
    Fault(
        "strong and weak SINRs assigned the wrong way round",
        HARNESS,
        "sinr[strong], sinr[weak] = sinr_noma(",
        "sinr[weak], sinr[strong] = sinr_noma(",
        (NO_LEAKAGE, f"{SIM}::TestSharedBeams::test_shared_beam_rates_follow_the_split"),
    ),
    # Scoring drops from their paths.
    Fault(
        "spectral efficiency over the wrong scalar",
        HARNESS,
        "spectral_eff=sums / config.bandwidth_hz,",
        "spectral_eff=sums / config.total_power_w,",
        (f"{SIM}::TestDropScoredAlone::test_single_user_is_noise_limited", GOLDEN),
    ),
    Fault(
        "a block's drops drawn from trials 0 to T - 1, whatever its trials",
        HARNESS,
        "states = _trial_states(config.master_seed, k_users, trials)",
        "states = _trial_states(config.master_seed, k_users, range(len(trials)))",
        (ROWS_ALONE,),
    ),
    Fault(
        "dbs beams given twice the total power",
        HARNESS,
        "config.num_elements, config.total_power_w, config.inter_cluster_rule)[0]",
        "config.num_elements, 2 * config.total_power_w, config.inter_cluster_rule)[0]",
        (f"{SIM}::TestDropScoredAlone::test_monopath_dbs_matches_closed_form", GOLDEN),
    ),
]
