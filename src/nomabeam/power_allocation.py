"""Intra-beam power split optimization for shared beams.

With the inter-beam split fixed, the throughput of a 2-user shared beam is
a monotone function of the strong user's coefficient ``gamma1`` whose slope
has the sign of ``zeta1 - zeta2``, so the optimum sits at an endpoint of the
feasible interval [0, gamma_hat]: the cancellation-constraint endpoint when
the strong user also has the better link ratio, or full deactivation of the
strong user when it does not.  When the two users' standalone rates are
within a relative ``epsilon`` the throughput is nearly flat and the split
that equalizes their rates is chosen instead.  Every function here takes
scalars or arrays with one entry per shared beam.

The partial-feedback variant estimates both link ratios purely from the
users' LOS steering vectors against the plan's beams, with no channel gains
and, in the high-SNR form, no noise: the other beams' leakage alone is the
denominator.  Only a beam with no interfering beam falls back on the noise
power as the denominator.  The split is then solved as under full feedback.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

from .beamforming import BeamformingPlan

__all__ = [
    "Branch",
    "gamma_hat",
    "gamma_fair",
    "opa",
    "rc_derivative",
    "partial_csi_zeta",
]


class Branch(IntEnum):
    """How :func:`opa` chose a beam's split."""

    DEACTIVATE = 0
    FAIR = 1
    UPPER_ENDPOINT = 2
    # The cancellation constraint admits no split (p_min exceeds zeta1) on
    # the fair or upper-endpoint branch: only the weak user is served.
    INFEASIBLE = 3


def _check_ratios(zeta1, zeta2) -> None:
    if not np.all((zeta1 > 0) & (zeta2 > 0)):
        raise ValueError(f"link ratios must be positive, got ({zeta1}, {zeta2})")


def _check_p_min(p_min: float) -> None:
    if p_min < 0:
        raise ValueError(f"p_min must be nonnegative, got {p_min}")


def gamma_hat(zeta1, p_min: float):
    """Upper endpoint of the feasible interval: (1 - p_min/zeta1) / 2.

    NaN where p_min exceeds zeta1, i.e. the interval is empty.
    """
    if not np.all(zeta1 > 0):
        raise ValueError(f"zeta1 must be positive, got {zeta1}")
    _check_p_min(p_min)
    ratio = p_min / zeta1
    return np.where(ratio > 1.0, np.nan, np.maximum(0.0, 0.5 * (1.0 - ratio)))


def gamma_fair(zeta1, zeta2):
    """Split at which the two users' rates coincide.

    The positive root of zeta1*zeta2*g^2 + (zeta1+zeta2)*g - zeta2 = 0,
    evaluated in the cancellation-free form 2*zeta2 / (s + sqrt(s^2 + 4*zeta1*zeta2^2))
    with s = zeta1 + zeta2.

    On equal ratios zeta1 = zeta2 = zeta the split is 1/(1 + sqrt(1 + zeta)).
    It tends to 1/2 as zeta -> 0 and to 0 as zeta -> infinity, decaying like
    1/sqrt(zeta): it lies in (1/sqrt(zeta) - 1/zeta, 1/sqrt(zeta)).
    """
    _check_ratios(zeta1, zeta2)
    s = zeta1 + zeta2
    return 2.0 * zeta2 / (s + np.sqrt(s * s + 4.0 * zeta1 * zeta2 * zeta2))


def _log2_1p(zeta: np.ndarray) -> np.ndarray:
    """log2(1 + zeta) per entry through ``math.log2``, which numpy's log2 does not match to the ulp."""
    return np.array([math.log2(1.0 + z) for z in zeta.ravel().tolist()]).reshape(zeta.shape)


def opa(zeta1, zeta2, p_min: float, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal intra-beam split ``(gamma1, branch)`` of every shared beam.

    ``zeta1`` and ``zeta2`` are the strong and weak users' link ratios.
    Near-equal standalone rates (relative gap below ``epsilon``) take the
    rate-equalizing split, capped at the feasibility endpoint; otherwise the
    beam's throughput is monotone in gamma1 and the optimum is gamma_hat
    when the strong user has the better link ratio, or 0 (strong user
    deactivated, all power to the weak user) when it does not.  Where the
    fair or upper-endpoint branch has an empty feasible interval the split
    is 0 as well, with the branch code ``Branch.INFEASIBLE``.
    """
    z1 = np.asarray(zeta1, dtype=float)
    z2 = np.asarray(zeta2, dtype=float)
    _check_ratios(z1, z2)
    _check_p_min(p_min)
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    r1 = _log2_1p(z1)
    fair = np.abs(r1 - _log2_1p(z2)) / r1 < epsilon
    upper = ~fair & (z2 < z1)
    cap = gamma_hat(z1, p_min)
    infeasible = (fair | upper) & np.isnan(cap)
    gamma1 = np.where(fair, np.minimum(gamma_fair(z1, z2), cap), np.where(upper, cap, 0.0))
    branch = np.where(fair, Branch.FAIR, np.where(upper, Branch.UPPER_ENDPOINT, Branch.DEACTIVATE))
    return np.where(infeasible, 0.0, gamma1), np.where(infeasible, Branch.INFEASIBLE, branch)


def rc_derivative(zeta1: float, zeta2: float, gamma1: float) -> float:
    """Slope of the shared beam's unit-bandwidth throughput in gamma1.

    (zeta1 - zeta2) / (ln2 * (1 + zeta1*gamma1) * (1 + zeta2*gamma1)): its
    sign is that of zeta1 - zeta2 over the whole feasible range.
    """
    if not 0.0 <= gamma1 <= 0.5:
        raise ValueError(f"gamma1 must be in [0, 1/2], got {gamma1}")
    return (zeta1 - zeta2) / (
        math.log(2.0) * (1.0 + zeta1 * gamma1) * (1.0 + zeta2 * gamma1)
    )


def partial_csi_zeta(
    los_rows: np.ndarray,
    plan: BeamformingPlan,
    own_beams: np.ndarray,
    noise_w: float,
) -> np.ndarray:
    """Link ratios estimated from LOS directions alone, row k on beam ``own_beams[k]``.

    Each of ``los_rows`` is the conjugated steering vector toward a user's
    LOS direction, the channel row of a unit-gain single path.  Signal part
    eta * p_c * |a_los^H w_c|^2 over the same quantity summed across the
    other beams, with no path gains and no noise (high-SNR form).  Where no
    beam interferes, the noise power ``noise_w`` is the denominator instead.
    """
    weighted = plan.received_powers(los_rows)
    psi = weighted[np.arange(len(weighted)), own_beams]
    nu = np.sum(weighted, axis=1) - psi
    return psi / np.where(nu == 0.0, noise_w, nu)
