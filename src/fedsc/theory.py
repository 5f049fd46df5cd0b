"""Executable convergence bounds for the composite local objective.

Three calculators mirror the analysis of prototype-collaboration training
under the usual assumptions (L1-smooth loss, unbiased minibatch gradients
with variance sigma^2 <= sigma_sq, gradient norms bounded by B, and an
L2-continuous feature extractor):

* one-round deviation bound on the post-round loss,
* the learning-rate threshold below which a round cannot increase the bound,
* the minimum number of rounds to reach an expected-gradient target xi,
  together with the largest admissible learning rate.

``estimate_constants`` recovers empirical lower bounds for the constants
from a recorded training trace.

The composite loss meets the L1-smooth assumption with the default CPDR form
(``cpdr_norm="sq"``, a mean squared distance whose gradient is Lipschitz).
The ``"l1"`` CPDR ablation does not: its gradient jumps at the consistent
prototype, so these bounds do not cover runs that use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleConfigurationError,
    InsufficientTraceError,
    InvalidConstantsError,
    NoFeasibleRateError,
    check_float_fields,
    check_int_fields,
)


@dataclass
class TheoryConstants:
    """Problem constants shared by the calculators.

    ``xi``, ``l0`` and ``l_star`` are only needed for the round-count
    calculator and may stay None otherwise.
    """

    l1: float
    l2: float
    b: float
    sigma_sq: float
    num_classes: int
    m: int
    local_epochs: int
    eta: float
    xi: float | None = None
    l0: float | None = None
    l_star: float | None = None

    def __post_init__(self):
        check_int_fields(self, InvalidConstantsError)
        check_float_fields(self, InvalidConstantsError)
        for name in ("l1", "l2", "b", "sigma_sq", "eta", "xi", "l0", "l_star"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise InvalidConstantsError(f"{name} must be finite, got {value}")
        if self.l1 <= 0:
            raise InvalidConstantsError("l1 must be > 0")
        if self.l2 < 0:
            raise InvalidConstantsError("l2 must be >= 0")
        if self.b <= 0:
            raise InvalidConstantsError("b must be > 0")
        if self.sigma_sq < 0:
            raise InvalidConstantsError("sigma_sq must be >= 0")
        if self.num_classes < 1:
            raise InvalidConstantsError("num_classes must be >= 1")
        if self.m < 0:
            raise InvalidConstantsError("m must be >= 0")
        if self.local_epochs < 1:
            raise InvalidConstantsError("local_epochs must be >= 1")
        if self.eta < 0:
            raise InvalidConstantsError("eta must be >= 0")
        if self.xi is not None and self.xi <= 0:
            raise InvalidConstantsError("xi must be > 0")
        if (self.l0 is None) != (self.l_star is None):
            raise InvalidConstantsError("l0 and l_star must be given together")
        if self.l0 is not None and self.l_star > self.l0:
            raise InvalidConstantsError("l_star must be <= l0")


def theorem1_bound(l_re: float, c: TheoryConstants) -> float:
    """Upper bound on the expected loss after one more round.

    bound = l_re - (eta - l1 eta^2 / 2) E B^2 + (l1 E eta^2 / 2) sigma^2
            + l2 E eta |C| B (M + 2) / (M + 1)
    """
    descent = (c.eta - c.l1 * c.eta**2 / 2.0) * c.local_epochs * c.b**2
    noise = (c.l1 * c.local_epochs * c.eta**2 / 2.0) * c.sigma_sq
    drift = (
        c.l2 * c.local_epochs * c.eta * c.num_classes * c.b
        * (c.m + 2.0) / (c.m + 1.0)
    )
    return l_re - descent + noise + drift


def theorem2_eta_threshold(c: TheoryConstants) -> float:
    """Largest learning rate at which the one-round bound cannot increase.

    threshold = (2 (M+1) B^2 - 2 (M+2) l2 |C| B) / (l1 (M+1) (sigma^2 + B^2))

    Raises no-feasible-rate when the prototype drift already dominates the
    descent term (nonpositive numerator).
    """
    numer = 2.0 * (c.m + 1.0) * c.b**2 - 2.0 * (c.m + 2.0) * c.l2 * c.num_classes * c.b
    if numer <= 0:
        raise NoFeasibleRateError(
            "prototype drift dominates descent; no learning rate is feasible"
        )
    return numer / (c.l1 * (c.m + 1.0) * (c.sigma_sq + c.b**2))


@dataclass
class ConvergencePlan:
    """Round budget and admissible learning rate from the third calculator."""

    min_rounds: float
    eta_max: float


def theorem3_min_rounds(c: TheoryConstants) -> ConvergencePlan:
    """Rounds needed to drive the mean squared gradient below xi.

    min_rounds = 2 (M+1) (l0 - l_star)
                 / (xi E eta (M+1) (2 - l1 eta) - (omega1 + omega2))
    with omega1 = (M+1) l1 E eta^2 sigma^2 and
    omega2 = 2 (M+2) l2 E eta |C| B, and

    eta_max = (2 xi (M+1) - 2 (M+2) l2 |C| B) / (l1 (M+1) (xi + sigma^2)).
    """
    if c.xi is None or c.l0 is None or c.l_star is None:
        raise InvalidConstantsError("xi, l0 and l_star are required")
    omega1 = (c.m + 1.0) * c.l1 * c.local_epochs * c.eta**2 * c.sigma_sq
    omega2 = (
        2.0 * (c.m + 2.0) * c.l2 * c.local_epochs * c.eta * c.num_classes * c.b
    )
    denom = (
        c.xi * c.local_epochs * c.eta * (c.m + 1.0) * (2.0 - c.l1 * c.eta)
        - (omega1 + omega2)
    )
    if denom <= 0:
        raise InfeasibleConfigurationError(
            "learning rate too large for the target xi; no round count suffices"
        )
    min_rounds = 2.0 * (c.m + 1.0) * (c.l0 - c.l_star) / denom
    eta_numer = 2.0 * c.xi * (c.m + 1.0) - 2.0 * (c.m + 2.0) * c.l2 * c.num_classes * c.b
    eta_max = eta_numer / (c.l1 * (c.m + 1.0) * (c.xi + c.sigma_sq))
    return ConvergencePlan(min_rounds, eta_max)


@dataclass
class TraceRecord:
    """One optimizer snapshot: weights, gradients there, and probe features.

    ``minibatch_gradients`` holds stochastic gradients evaluated at the same
    weights as ``full_gradient``; ``features`` are the extractor's outputs on
    a fixed probe set, used for the continuity estimate.
    """

    weights: np.ndarray
    full_gradient: np.ndarray
    minibatch_gradients: list[np.ndarray]
    extractor_weights: np.ndarray
    features: np.ndarray


@dataclass
class EstimatedConstants:
    """Empirical estimates; every value is a lower bound for the true constant."""

    b: float
    sigma_sq: float
    l1: float
    l2: float


def estimate_constants(records: list[TraceRecord]) -> EstimatedConstants:
    """Estimate (B, sigma^2, l1, l2) from a recorded trace.

    B is the largest observed gradient norm, sigma^2 the largest observed
    minibatch-gradient variance about the matching full-batch gradient, and
    l1 / l2 the steepest observed gradient and feature Lipschitz ratios
    between snapshot pairs.  All are lower bounds: unobserved regions can
    only be worse.
    """
    if len(records) < 2:
        raise InsufficientTraceError("need at least two trace records")

    norms = [float(np.linalg.norm(r.full_gradient)) for r in records]
    for r in records:
        norms.extend(float(np.linalg.norm(g)) for g in r.minibatch_gradients)
    b = max(norms)
    if b <= 0:
        raise InsufficientTraceError("trace contains no nonzero gradient")

    sigma_sq = 0.0
    for r in records:
        if r.minibatch_gradients:
            sq = [
                float(np.sum((g - r.full_gradient) ** 2))
                for g in r.minibatch_gradients
            ]
            sigma_sq = max(sigma_sq, float(np.mean(sq)))

    l1 = 0.0
    l2 = 0.0
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            ri, rj = records[i], records[j]
            dw = float(np.linalg.norm(ri.weights - rj.weights))
            if dw > 1e-12:
                dg = float(np.linalg.norm(ri.full_gradient - rj.full_gradient))
                l1 = max(l1, dg / dw)
            du = float(np.linalg.norm(ri.extractor_weights - rj.extractor_weights))
            if du > 1e-12:
                df = float(
                    np.linalg.norm(ri.features - rj.features, axis=1).max()
                )
                l2 = max(l2, df / du)
    return EstimatedConstants(b, sigma_sq, l1, l2)
