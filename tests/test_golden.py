"""Golden output: small sweeps' CSV bytes are pinned by their sha256.

The default-cell sweep covers all five schemes, K=1 (nothing to pair), K=2
(a lone pair on one shared beam) and K=55, over 20 trials: 400 rows.  The
low-threshold sweep (beta0 = 0.05, K=2 and 3, 100 trials: 1,000 rows) pairs
users often enough that a partial-CSI shared beam with no interfering beam,
whose users split on their fed-back ratios, occurs in dozens of trials.  The
uniform-split sweep (one array row, ``inter_cluster_rule = uniform``, K=2, 5
and 15 over 100 trials: 1,500 rows) covers the equal per-beam power split.
The multipath-ties sweep (3 paths per time cluster, every scattered path
exactly 7 dB below line of sight, no angle spread or shadowing, spacing 0.9
wavelengths; K=5 and 15 over 40 trials: 400 rows) sorts paths whose
magnitudes differ only in their last bits.  The scheme-subset sweep, read
from scenario text, asks for three schemes out of order and for the
``noma_dbs`` alias under partial CSI (K=2, 5 and 15 over 40 trials: 360
rows).  The massive-array sweep (a 64x8 array, K=128, 256 and 448 over 2
trials: 30 rows) pins drops whose pairing and link states are largest.  The
default-sweep case runs the shipped ``configs/rural_default.cfg`` at 100
trials (3,000 rows), the sweep users run first.  A change that moves any
reported number changes a digest.  A change
meant to move the numbers updates the digest in the same commit and says
why.
"""

import hashlib
from pathlib import Path

import pytest

from nomabeam.sim_harness import ScenarioConfig, _parse_config_text, load_scenario, run_sweep, write_csv

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "rural_default.cfg"

# name: (config, rows, sha256 of the CSV)
GOLDEN_CASES = {
    "default-cell": (
        ScenarioConfig(user_counts=(1, 2, 5, 55), trials=20, master_seed=1),
        400,
        "75f5f11231c16be3c514d37141c34158011bbda4e03de2b56049625799e76d08",
    ),
    "lone-shared-beam": (
        ScenarioConfig(user_counts=(2, 3), trials=100, beta0=0.05, master_seed=1),
        1000,
        "f9355e7fe3f5ed4f9f1d1e8a421cb297382879e26d321c766319bc3ebf9f9def",
    ),
    "uniform-split": (
        ScenarioConfig(m_v=1, inter_cluster_rule="uniform", user_counts=(2, 5, 15), trials=100, master_seed=1),
        1500,
        "cb3c5bd224f1b6c388850261b01431dc97fad301523333e8543203de22261e8a",
    ),
    "multipath-ties": (
        ScenarioConfig(
            user_counts=(5, 15),
            trials=40,
            paths_per_cluster=(3, 3),
            nlos_gain_offset_db=(7.0, 7.0),
            angle_spread_deg=0.0,
            shadowing_sigma_db=0.0,
            d_over_lambda=0.9,
            master_seed=1,
        ),
        400,
        "6d5a5d2d503b1406d7ed8e36e41a6fd0b7c8bfd09647fb0526afe8a30cb3a653",
    ),
    "scheme-subset": (
        ScenarioConfig(
            **_parse_config_text(
                "user_counts = 2,5,15\ntrials = 40\nschemes = cb,noma_dbs,dbs\ncsi_mode = partial\nmaster_seed = 2\n"
            )
        ),
        360,
        "8f544ac6860a7c56532dd936673aac443a43fede9b0e930737ce0f7966080cac",
    ),
    "massive-array": (
        ScenarioConfig(m_h=64, m_v=8, user_counts=(128, 256, 448), trials=2),
        30,
        "1dff263ee4c838bd3e8fdf726b8981143acb7f5026ecf3486a2b5a786c3fa3fa",
    ),
    "default-sweep": (
        load_scenario(str(DEFAULT_CONFIG), trials=100),
        3000,
        "9157ab12fcf055262a5adb43f702ca626c8c722aff9195dd370e2e0429c1fba7",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_golden_sweep_digest(tmp_path, case):
    config, rows, digest = GOLDEN_CASES[case]
    out = tmp_path / "golden.csv"
    results = run_sweep(config)
    write_csv(results, str(out))
    content = out.read_bytes()
    assert content.count(b"\n") == 1 + rows
    assert hashlib.sha256(content).hexdigest() == digest
