"""Golden output: a small sweep's CSV bytes are pinned by their sha256.

The sweep covers all five schemes, K=1 (nothing to pair), K=2 (a lone pair
on one shared beam) and K=55, over 20 trials: 400 rows.  A change that moves
any reported number changes the digest.  A change meant to move the numbers
updates the digest in the same commit and says why.
"""

import hashlib

from nomabeam.sim_harness import ScenarioConfig, run_sweep, write_csv

GOLDEN_CONFIG = ScenarioConfig(user_counts=(1, 2, 5, 55), trials=20, master_seed=1)
GOLDEN_SHA256 = "68bfb80a349a7391f16358a04200fe74dbf752f97cb1d598f4aff1f02efd081c"


def test_golden_sweep_digest(tmp_path):
    out = tmp_path / "golden.csv"
    results, _ = run_sweep(GOLDEN_CONFIG)
    write_csv(results, str(out))
    content = out.read_bytes()
    assert content.count(b"\n") == 1 + 400
    assert hashlib.sha256(content).hexdigest() == GOLDEN_SHA256
