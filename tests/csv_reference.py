"""The CSV text of both writers, every value formatted on its own.

These are the per-value f-strings that the writers' row templates replaced;
the tests require the same bytes from both.  The pattern values come from
the library's ``pattern`` on the same probes, so only the formatting is the
reference (the pattern itself is checked against ``oracles``).
"""

import math

import numpy as np

from nomabeam.array_geometry import pattern
from nomabeam.sim_harness import ScenarioConfig

# The header that ``write_csv`` must write, pinned here as text.
SWEEP_HEADER = "scheme,K,trial,sum_rate_bps,spectral_eff,energy_eff,noma_clusters,deactivated_users"


def pattern_csv(cfg: ScenarioConfig, beam_theta: float, beam_phi: float, step: float) -> str:
    """The text ``nomabeam pattern`` writes for a beam at (``beam_theta``, ``beam_phi``)."""
    offsets = np.arange(-math.pi / 2, math.pi / 2 + step, step)
    held = np.full_like(offsets, beam_theta), np.full_like(offsets, beam_phi)
    probes = {"az": (beam_theta + offsets, held[1]), "el": (held[0], beam_phi + offsets)}
    lines = ["axis,offset_rad,theta_rad,phi_rad,array_factor"]
    for axis, (theta, phi) in probes.items():
        values = pattern(cfg, beam_theta, beam_phi, theta, phi)
        keep = (-math.pi / 2 <= phi) & (phi <= math.pi / 2) if axis == "el" else slice(None)
        rows = zip(offsets[keep].tolist(), theta[keep].tolist(), phi[keep].tolist(), values[keep].tolist())
        lines.extend(f"{axis},{o:.9g},{t:.9g},{p:.9g},{v:.9g}" for o, t, p, v in rows)
    return "\n".join(lines) + "\n"


def sweep_csv(columns: dict) -> str:
    """The text ``write_csv`` writes for ``columns``."""
    lines = [SWEEP_HEADER]
    for (scheme, k_users), cols in columns.items():
        rows = zip(*(column.tolist() for column in cols))
        lines.extend(
            f"{scheme.value},{k_users},{trial},{sum_rate:.9g},{se:.9g},{ee:.9g},{n_shared},{n_off}"
            for trial, (sum_rate, se, ee, n_shared, n_off) in enumerate(rows)
        )
    return "\n".join(lines) + "\n"
