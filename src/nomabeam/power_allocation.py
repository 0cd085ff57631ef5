"""Intra-beam power split optimization for shared beams.

With the inter-beam split fixed, the throughput of a 2-user shared beam is
a monotone function of the strong user's coefficient ``gamma1`` whose slope
has the sign of ``zeta1 - zeta2``, so the optimum sits at an endpoint of the
feasible interval [0, gamma_hat]: the cancellation-constraint endpoint when
the strong user also has the better link ratio, or full deactivation of the
strong user when it does not.  When the two users' standalone rates are
within a relative ``epsilon`` the throughput is nearly flat and the split
that equalizes their rates is chosen instead.  Every function here takes
scalars or arrays with one entry per shared beam; :func:`opa` alone checks
that the link ratios are positive.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .link_metrics import rate

__all__ = [
    "Branch",
    "opa",
]


class Branch(IntEnum):
    """How :func:`opa` chose a beam's split."""

    DEACTIVATE = 0
    FAIR = 1
    UPPER_ENDPOINT = 2
    # The cancellation constraint admits no split (p_min exceeds zeta1) on
    # the fair or upper-endpoint branch: only the weak user is served.
    INFEASIBLE = 3


def _gamma_hat(zeta1, p_min: float):
    """Upper endpoint of the feasible interval: (1 - p_min/zeta1) / 2.

    NaN where p_min exceeds zeta1, i.e. the interval is empty.
    """
    with np.errstate(over="ignore"):  # a ratio past the float range is inf, hence infeasible
        ratio = p_min / zeta1
    return np.where(ratio > 1.0, np.nan, np.maximum(0.0, 0.5 * (1.0 - ratio)))


def _gamma_fair(zeta1, zeta2):
    """Split at which the two users' rates coincide.

    The positive root of zeta1*zeta2*g^2 + (zeta1+zeta2)*g - zeta2 = 0,
    evaluated in the cancellation-free form 2*zeta2 / (s + sqrt(s^2 + 4*zeta1*zeta2^2))
    with s = zeta1 + zeta2.

    On equal ratios zeta1 = zeta2 = zeta the split is 1/(1 + sqrt(1 + zeta)).
    It tends to 1/2 as zeta -> 0 and to 0 as zeta -> infinity, decaying like
    1/sqrt(zeta): it lies in (1/sqrt(zeta) - 1/zeta, 1/sqrt(zeta)).
    """
    s = zeta1 + zeta2
    return 2.0 * zeta2 / (s + np.sqrt(s * s + 4.0 * zeta1 * zeta2 * zeta2))


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
    if not np.all((z1 > 0) & (z2 > 0)):
        raise ValueError(f"link ratios must be positive, got ({z1}, {z2})")
    r1, r2 = rate(z1, 1.0), rate(z2, 1.0)
    # A strong rate that rounds to 0 is as far from fair as r2 is from it.
    gap = np.divide(np.abs(r1 - r2), r1, out=np.where(r1 == r2, 0.0, np.inf), where=r1 > 0)
    fair = gap < epsilon
    upper = ~fair & (z2 < z1)
    cap = _gamma_hat(z1, p_min)
    infeasible = (fair | upper) & np.isnan(cap)
    gamma1 = np.where(fair, np.minimum(_gamma_fair(z1, z2), cap), np.where(upper, cap, 0.0))
    branch = np.where(fair, Branch.FAIR, np.where(upper, Branch.UPPER_ENDPOINT, Branch.DEACTIVATE))
    return np.where(infeasible, 0.0, gamma1), np.where(infeasible, Branch.INFEASIBLE, branch)

