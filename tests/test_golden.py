"""Golden output: small sweeps' CSV bytes are pinned by their sha256.

The default-cell sweep covers all five schemes, K=1 (nothing to pair), K=2
(a lone pair on one shared beam) and K=55, over 20 trials: 400 rows.  The
low-threshold sweep (beta0 = 0.05, K=2 and 3, 100 trials: 1,000 rows) pairs
users often enough that a partial-CSI shared beam with no interfering beam,
whose link ratio takes the noise floor, occurs in dozens of trials.  The
uniform-split sweep (one array row, ``inter_cluster_rule = uniform``, K=2, 5
and 15 over 100 trials: 1,500 rows) covers the equal per-beam power split.  A change that moves any reported
number changes a digest.  A change meant to move the numbers updates the
digest in the same commit and says why.
"""

import hashlib

import pytest

from nomabeam.sim_harness import ScenarioConfig, run_sweep, write_csv

# name: (config, rows, sha256 of the CSV)
GOLDEN_CASES = {
    "default-cell": (
        ScenarioConfig(user_counts=(1, 2, 5, 55), trials=20, master_seed=1),
        400,
        "68bfb80a349a7391f16358a04200fe74dbf752f97cb1d598f4aff1f02efd081c",
    ),
    "lone-shared-beam": (
        ScenarioConfig(user_counts=(2, 3), trials=100, beta0=0.05, master_seed=1),
        1000,
        "34fd56757203a962688ce63118ff2245a307a57765d6ee1cf27873dac99a5203",
    ),
    "uniform-split": (
        ScenarioConfig(m_v=1, inter_cluster_rule="uniform", user_counts=(2, 5, 15), trials=100, master_seed=1),
        1500,
        "e5eae4bbf449bbff0fb95e077d55022071b89a2985dae14f680ab1704b83c27a",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_golden_sweep_digest(tmp_path, case):
    config, rows, digest = GOLDEN_CASES[case]
    out = tmp_path / "golden.csv"
    results, _ = run_sweep(config)
    write_csv(results, str(out))
    content = out.read_bytes()
    assert content.count(b"\n") == 1 + rows
    assert hashlib.sha256(content).hexdigest() == digest
