"""Intra-cluster power split optimization for shared beams.

With the inter-cluster split fixed, the throughput of a 2-user shared beam is
a monotone function of the strong user's coefficient ``gamma1`` whose slope
has the sign of ``zeta1 - zeta2``, so the optimum sits at an endpoint of the
feasible interval [0, gamma_hat]: the cancellation-constraint endpoint when
the strong user also has the better link ratio, or full deactivation of the
strong user when it does not.  When the two users' standalone rates are
within a relative ``epsilon`` the throughput is nearly flat and the split
that equalizes their rates is chosen instead.

The partial-feedback variant computes both link ratios purely from the users'
LOS steering vectors against the plan's beams (no channel gains, no noise),
valid in the high-SNR, LOS-dominated regime, and then solves the same problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .beamforming import BeamformingPlan

__all__ = [
    "InfeasibleSic",
    "Branch",
    "PaInput",
    "PaResult",
    "gamma_hat",
    "gamma_fair",
    "opa",
    "rc_derivative",
    "partial_csi_zeta",
    "opa_partial_csi",
]


class InfeasibleSic(Exception):
    """The cancellation constraint admits no split: p_min exceeds zeta1."""


class Branch(Enum):
    FAIR = "fair"
    UPPER_ENDPOINT = "upper_endpoint"
    DEACTIVATE = "deactivate"


@dataclass(frozen=True)
class PaInput:
    """Inputs of the intra-cluster optimization for one shared beam."""

    zeta1: float
    zeta2: float
    p_min: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (self.zeta1 > 0 and self.zeta2 > 0):
            raise ValueError(f"link ratios must be positive, got ({self.zeta1}, {self.zeta2})")
        if self.p_min < 0:
            raise ValueError(f"p_min must be nonnegative, got {self.p_min}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class PaResult:
    """Chosen strong-user coefficient and the branch that produced it."""

    gamma1: float
    branch: Branch

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma1 <= 0.5:
            raise ValueError(f"gamma1 must be in [0, 1/2], got {self.gamma1}")

    @property
    def gamma2(self) -> float:
        return 1.0 - self.gamma1


def gamma_hat(zeta1: float, p_min: float) -> float:
    """Upper endpoint of the feasible interval: (1 - p_min/zeta1) / 2.

    Raises InfeasibleSic when p_min exceeds zeta1, i.e. the interval is empty.
    """
    if not zeta1 > 0:
        raise ValueError(f"zeta1 must be positive, got {zeta1}")
    if p_min < 0:
        raise ValueError(f"p_min must be nonnegative, got {p_min}")
    ratio = p_min / zeta1
    if ratio > 1.0:
        raise InfeasibleSic(f"p_min/zeta1 = {ratio:.6g} > 1: no feasible split")
    return max(0.0, 0.5 * (1.0 - ratio))


def gamma_fair(zeta1: float, zeta2: float) -> float:
    """Split at which the two users' rates coincide.

    The positive root of zeta1*zeta2*g^2 + (zeta1+zeta2)*g - zeta2 = 0,
    evaluated in the cancellation-free form 2*zeta2 / (s + sqrt(s^2 + 4*zeta1*zeta2^2))
    with s = zeta1 + zeta2.

    On equal ratios zeta1 = zeta2 = zeta the split is 1/(1 + sqrt(1 + zeta)).
    It tends to 1/2 as zeta -> 0 and to 0 as zeta -> infinity, decaying like
    1/sqrt(zeta): it lies in (1/sqrt(zeta) - 1/zeta, 1/sqrt(zeta)).
    """
    if not (zeta1 > 0 and zeta2 > 0):
        raise ValueError(f"link ratios must be positive, got ({zeta1}, {zeta2})")
    s = zeta1 + zeta2
    return 2.0 * zeta2 / (s + math.sqrt(s * s + 4.0 * zeta1 * zeta2 * zeta2))


def opa(pa_input: PaInput) -> PaResult:
    """Optimal intra-cluster split for one shared beam.

    Near-equal standalone rates (relative gap below ``epsilon``) take the
    rate-equalizing split, capped at the feasibility endpoint; otherwise the
    cluster throughput is monotone in gamma1 and the optimum is gamma_hat
    when the strong user has the better link ratio, or 0 (strong user
    deactivated, all power to the weak user) when it does not.

    Raises InfeasibleSic (from gamma_hat) when the feasible interval is empty
    on the fair or upper-endpoint branches.
    """
    z1, z2 = pa_input.zeta1, pa_input.zeta2
    r1 = math.log2(1.0 + z1)
    r2 = math.log2(1.0 + z2)
    if abs(r1 - r2) / r1 < pa_input.epsilon:
        cap = gamma_hat(z1, pa_input.p_min)
        return PaResult(gamma1=min(gamma_fair(z1, z2), cap), branch=Branch.FAIR)
    if z2 < z1:
        return PaResult(gamma1=gamma_hat(z1, pa_input.p_min), branch=Branch.UPPER_ENDPOINT)
    return PaResult(gamma1=0.0, branch=Branch.DEACTIVATE)


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
    los_row: np.ndarray,
    plan: BeamformingPlan,
    own_cluster: int,
    noise_w: float,
) -> float:
    """Link ratio estimated from the LOS direction alone.

    ``los_row`` is the conjugated steering vector toward the user's LOS
    direction, the channel row of a unit-gain single path.  Signal part
    eta * p_c * |a_los^H w_c|^2 over the same quantity summed across the
    other beams, with no noise term and no path gains (high-SNR form).  When
    there is no interfering beam the noise power ``noise_w`` is the floor of
    the denominator.
    """
    weighted = plan.received_powers(los_row)
    psi = float(weighted[own_cluster])
    nu = float(np.sum(weighted) - weighted[own_cluster])
    if nu == 0.0:
        return psi / (nu + noise_w)
    return psi / nu


def opa_partial_csi(
    strong_los_row: np.ndarray,
    weak_los_row: np.ndarray,
    plan: BeamformingPlan,
    own_cluster: int,
    p_min: float,
    epsilon: float,
    noise_w: float,
) -> PaResult:
    """Intra-cluster split decided from LOS directions only.

    The strong/weak roles must already be fixed from the fed-back received
    powers; both link ratios are the geometric estimates of
    :func:`partial_csi_zeta` from the users' LOS rows, and the optimization
    is the same as :func:`opa`, with the cancellation constraint evaluated
    against the strong user's estimate.
    """
    z1 = partial_csi_zeta(strong_los_row, plan, own_cluster, noise_w)
    z2 = partial_csi_zeta(weak_los_row, plan, own_cluster, noise_w)
    return opa(PaInput(zeta1=z1, zeta2=z2, p_min=p_min, epsilon=epsilon))
