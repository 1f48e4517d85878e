"""Zero-order-hold discretization of the classic low-order process models.

The prototype continuous-time transfer functions covered here are the ones
an operator typically fits by eye from a step test:

    Integrator:            K / s
    FirstOrder:            K / (1 + tau s)
    IntegratorFirstOrder:  K / (s (1 + tau s))
    TwoTimeConstants:      K / ((1 + tau1 s)(1 + tau2 s))
    SecondOrderOsc:        K w0^2 / (s^2 + 2 xi w0 s + w0^2)

Sampling with a zero-order hold maps each of them to a DT transfer function
with known coefficients, and those coefficients fix a linear recurrence on
the Markov parameters: geometric decay for the first-order lag, a constant
tail for the integrator, and a two-term recurrence for the second-order
models.  The recurrences are what the prior-knowledge constraints are built
from, so they are exposed here both as coefficient sets and as generated
Markov sequences.

Delays are not modeled; integer-sample delays are handled by shifting the
data before estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .statespace import MarkovSequence, StateSpaceModel, _require_positive

__all__ = [
    "Integrator",
    "FirstOrder",
    "IntegratorFirstOrder",
    "TwoTimeConstants",
    "SecondOrderOsc",
    "PrototypeModel",
    "DtSecondOrderCoeffs",
    "zoh_first_order",
    "zoh_integrator",
    "zoh_second_order",
    "controller_form",
    "prototype_markov",
    "prototype_statespace",
]

# Two-time-constant coefficients divide by tau1 - tau2; below this relative
# gap the result is numerically meaningless and the model is rejected.
TAU_GAP_MIN = 1e-8


@dataclass(frozen=True)
class Integrator:
    """Pure integrator K/s."""

    K: float


@dataclass(frozen=True)
class FirstOrder:
    """First-order lag K/(1 + tau s)."""

    K: float
    tau: float

    def __post_init__(self) -> None:
        _require_positive("tau", self.tau)


@dataclass(frozen=True)
class IntegratorFirstOrder:
    """Integrator in series with a first-order lag, K/(s (1 + tau s))."""

    K: float
    tau: float

    def __post_init__(self) -> None:
        _require_positive("tau", self.tau)


@dataclass(frozen=True)
class TwoTimeConstants:
    """Two distinct first-order lags, K/((1 + tau1 s)(1 + tau2 s))."""

    K: float
    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        _require_positive("tau1", self.tau1)
        _require_positive("tau2", self.tau2)
        gap = abs(self.tau1 - self.tau2) / max(self.tau1, self.tau2)
        if gap <= TAU_GAP_MIN:
            raise ValueError(
                f"tau1={self.tau1} and tau2={self.tau2} are too close "
                f"(relative gap {gap:.3g} <= {TAU_GAP_MIN:.0e}); the "
                "coefficients divide by tau1 - tau2"
            )


@dataclass(frozen=True)
class SecondOrderOsc:
    """Underdamped second order, K w0^2/(s^2 + 2 xi w0 s + w0^2), 0 < xi < 1."""

    K: float
    omega0: float
    xi: float

    def __post_init__(self) -> None:
        _require_positive("omega0", self.omega0)
        if not (math.isfinite(self.xi) and 0.0 < self.xi < 1.0):
            raise ValueError(f"xi must lie strictly inside (0, 1), got {self.xi}")


PrototypeModel = Union[
    Integrator, FirstOrder, IntegratorFirstOrder, TwoTimeConstants, SecondOrderOsc
]

_SECOND_ORDER = (IntegratorFirstOrder, TwoTimeConstants, SecondOrderOsc)


@dataclass(frozen=True)
class DtSecondOrderCoeffs:
    """DT transfer function (beta1 z + beta0) / (z^2 + alpha1 z + alpha0).

    The denominator roots must lie in the closed unit disk: the sampled
    prototypes always satisfy this, and it is asserted numerically.
    """

    beta1: float
    beta0: float
    alpha1: float
    alpha0: float
    Ts: float

    def __post_init__(self) -> None:
        _require_positive("Ts", self.Ts)
        for name in ("beta1", "beta0", "alpha1", "alpha0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        roots = np.roots([1.0, self.alpha1, self.alpha0])
        radius = float(np.max(np.abs(roots))) if roots.size else 0.0
        if radius > 1.0 + 1e-9:
            raise ValueError(
                f"denominator roots must lie in the unit disk, got modulus {radius:.6g}"
            )


def zoh_first_order(K: float, tau: float, Ts: float) -> StateSpaceModel:
    """ZOH discretization of K/(1 + tau s) as a scalar state-space model.

    With a = exp(-Ts/tau) the model is A = a, B = K (1 - a), C = 1, D = 0,
    so the Markov parameters decay geometrically: M_i = a M_{i-1} for
    i >= 2 with M_1 = K (1 - a).
    """
    _require_positive("tau", tau)
    _require_positive("Ts", Ts)
    a = math.exp(-Ts / tau)
    return StateSpaceModel(A=[[a]], B=[[K * (1.0 - a)]], C=[[1.0]], D=[[0.0]], Ts=Ts)


def zoh_integrator(K: float, Ts: float) -> StateSpaceModel:
    """ZOH discretization of K/s: A = 1, B = K Ts, C = 1, D = 0.

    All Markov parameters past M_0 equal the constant K Ts.
    """
    _require_positive("Ts", Ts)
    return StateSpaceModel(A=[[1.0]], B=[[K * Ts]], C=[[1.0]], D=[[0.0]], Ts=Ts)


def zoh_second_order(proto: PrototypeModel, Ts: float) -> DtSecondOrderCoeffs:
    """ZOH coefficients of the three second-order prototypes.

    Accepts ``IntegratorFirstOrder``, ``TwoTimeConstants`` or
    ``SecondOrderOsc`` and returns the (beta1, beta0, alpha1, alpha0) of the
    sampled transfer function (beta1 z + beta0)/(z^2 + alpha1 z + alpha0).
    For the oscillator the damped frequency is wp = w0 sqrt(1 - xi^2), and
    both numerator coefficients carry the gain K so that the DC gain of the
    sampled model equals K.
    """
    _require_positive("Ts", Ts)
    if isinstance(proto, IntegratorFirstOrder):
        K, tau = proto.K, proto.tau
        a = math.exp(-Ts / tau)
        beta1 = K * (Ts - tau * (1.0 - a))
        beta0 = K * (tau * (1.0 - a) - Ts * a)
        alpha1 = -1.0 - a
        alpha0 = a
    elif isinstance(proto, TwoTimeConstants):
        K, tau1, tau2 = proto.K, proto.tau1, proto.tau2
        e1 = math.exp(-Ts / tau1)
        e2 = math.exp(-Ts / tau2)
        beta1 = K * (tau1 * (1.0 - e1) - tau2 * (1.0 - e2)) / (tau1 - tau2)
        beta0 = K * e1 * e2 - K * (tau1 * e2 - tau2 * e1) / (tau1 - tau2)
        alpha1 = -e1 - e2
        alpha0 = e1 * e2
    elif isinstance(proto, SecondOrderOsc):
        K, w0, xi = proto.K, proto.omega0, proto.xi
        wp = w0 * math.sqrt(1.0 - xi * xi)
        E = math.exp(-xi * w0 * Ts)
        c = math.cos(wp * Ts)
        s = math.sin(wp * Ts)
        g = xi / math.sqrt(1.0 - xi * xi)
        beta1 = K * (1.0 - E * (c + g * s))
        beta0 = K * (E * E + E * (g * s - c))
        alpha1 = -2.0 * E * c
        alpha0 = E * E
    else:
        raise TypeError(
            f"expected a second-order prototype, got {type(proto).__name__}"
        )
    return DtSecondOrderCoeffs(
        beta1=beta1, beta0=beta0, alpha1=alpha1, alpha0=alpha0, Ts=Ts
    )


def controller_form(coeffs: DtSecondOrderCoeffs) -> StateSpaceModel:
    """Controller canonical state space of a second-order DT transfer function.

    A = [[-alpha1, -alpha0], [1, 0]], B = [1, 0]^T, C = [beta1, beta0],
    D = 0.  The resulting Markov parameters obey
    M_1 = beta1, M_2 = beta0 - alpha1 beta1 and
    M_i = -alpha1 M_{i-1} - alpha0 M_{i-2} for i >= 3.
    """
    A = [[-coeffs.alpha1, -coeffs.alpha0], [1.0, 0.0]]
    return StateSpaceModel(A=A, B=[[1.0], [0.0]], C=[[coeffs.beta1, coeffs.beta0]],
                           D=[[0.0]], Ts=coeffs.Ts)


def prototype_statespace(proto: PrototypeModel, Ts: float) -> StateSpaceModel:
    """Sampled state-space form of any prototype model."""
    if isinstance(proto, Integrator):
        return zoh_integrator(proto.K, Ts)
    if isinstance(proto, FirstOrder):
        return zoh_first_order(proto.K, proto.tau, Ts)
    if isinstance(proto, _SECOND_ORDER):
        return controller_form(zoh_second_order(proto, Ts))
    raise TypeError(f"unknown prototype model {type(proto).__name__}")


def prototype_markov(proto: PrototypeModel, Ts: float, ell: int) -> MarkovSequence:
    """Markov parameters M_0 .. M_ell of a sampled prototype, by recurrence.

    First order: M_i = exp(-Ts/tau) M_{i-1} seeded with M_1 = K (1 - a).
    Integrator: constant M_i = K Ts.  Second order: the two-term recurrence
    seeded with M_1 = beta1 and M_2 = beta0 - alpha1 beta1.  M_0 is always
    zero (the prototypes are strictly proper).
    """
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    _require_positive("Ts", Ts)
    m = np.zeros(ell + 1)
    if isinstance(proto, Integrator):
        m[1:] = proto.K * Ts
    elif isinstance(proto, FirstOrder):
        a = math.exp(-Ts / proto.tau)
        if ell >= 1:
            m[1] = proto.K * (1.0 - a)
        for i in range(2, ell + 1):
            m[i] = a * m[i - 1]
    elif isinstance(proto, _SECOND_ORDER):
        c = zoh_second_order(proto, Ts)
        if ell >= 1:
            m[1] = c.beta1
        if ell >= 2:
            m[2] = c.beta0 - c.alpha1 * c.beta1
        for i in range(3, ell + 1):
            m[i] = -c.alpha1 * m[i - 1] - c.alpha0 * m[i - 2]
    else:
        raise TypeError(f"unknown prototype model {type(proto).__name__}")
    return MarkovSequence(blocks=m.reshape(-1, 1, 1), Ts=Ts)
