"""nomabeam: link-level simulator for a beam-steered mmWave multi-user downlink.

A base station with a uniform planar array steers one beam per cluster of
users; strongly interfering users are paired two-by-two onto shared beams and
separated in the power domain, with a closed-form optimal intra-cluster power
split under full or direction-only channel feedback.  Seeded Monte Carlo
sweeps compare the scheme against one-beam-per-user steering, orthogonal beam
sharing, and conjugate beamforming.
"""

from .array_geometry import (
    ArrayConfig,
    beta_matrix,
    pattern_cut,
    steering_matrix,
)
from .baselines import SchemeId, conjugate_bf_sinr, energy_efficiency
from .beamforming import BeamformingPlan, build_plan
from .channel import DropPaths, channel_rows, draw_paths
from .link_metrics import link_states, rate, sinr_noma_strong, sinr_noma_weak
from .power_allocation import (
    Branch,
    gamma_fair,
    gamma_hat,
    opa,
    partial_csi_zeta,
)
from .sim_harness import (
    ConfigError,
    ScenarioConfig,
    ScenarioResult,
    evaluate_trial,
    load_scenario,
    parse_config_text,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"
