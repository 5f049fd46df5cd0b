"""Bound calculators: hand values, grid properties, and the constant estimator."""

import math

import numpy as np
import pytest

from fedsc.errors import (
    InfeasibleConfigurationError,
    InsufficientTraceError,
    InvalidConstantsError,
    NoFeasibleRateError,
)
from fedsc.theory import (
    TheoryConstants,
    TraceRecord,
    estimate_constants,
    theorem1_bound,
    theorem2_eta_threshold,
    theorem3_min_rounds,
)


def constants(**overrides):
    defaults = dict(l1=1.0, l2=0.0, b=1.0, sigma_sq=0.0, num_classes=10,
                    m=1, local_epochs=1, eta=0.1)
    defaults.update(overrides)
    return TheoryConstants(**defaults)


def random_feasible(rng, with_l2=True):
    """Constants for which a positive descent learning rate exists."""
    l1 = rng.uniform(0.1, 5.0)
    b = rng.uniform(0.2, 4.0)
    sigma_sq = rng.uniform(0.0, 4.0)
    num_classes = int(rng.integers(1, 11))
    m = int(rng.integers(0, 6))
    local_epochs = int(rng.integers(1, 11))
    if with_l2 and rng.random() > 0.3:
        # keep the drift term strictly inside the feasibility region
        limit = (m + 1) * b / ((m + 2) * num_classes)
        l2 = rng.uniform(0.0, 0.95 * limit)
    else:
        l2 = 0.0
    return dict(l1=l1, l2=l2, b=b, sigma_sq=sigma_sq, num_classes=num_classes,
                m=m, local_epochs=local_epochs)


class TestTheoryConstants:
    def test_validation(self):
        for bad in (
            dict(l1=0.0),
            dict(l2=-1.0),
            dict(b=0.0),
            dict(sigma_sq=-0.1),
            dict(num_classes=0),
            dict(m=-1),
            dict(local_epochs=0),
            dict(eta=-0.1),
            dict(xi=0.0),
            dict(l0=1.0),                 # l0 without l_star
            dict(l0=1.0, l_star=2.0),     # l_star above l0
            dict(l1=math.nan),
            dict(l2=math.nan),
            dict(b=math.inf),
            dict(sigma_sq=math.nan),
            dict(eta=math.nan),
            dict(xi=math.nan),
            dict(l0=math.nan, l_star=0.1),
            dict(l0=1.0, l_star=-math.inf),
        ):
            with pytest.raises(InvalidConstantsError):
                constants(**bad)

    @pytest.mark.parametrize("name", ["num_classes", "m", "local_epochs"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(InvalidConstantsError,
                           match=rf"^{name} must be an integer, got {value!r}$"):
            constants(**{name: value})
        # a numpy integer is an integer
        assert getattr(constants(**{name: np.int64(2)}), name) == 2

    @pytest.mark.parametrize("name", ["l1", "l2", "b", "sigma_sq", "eta",
                                      "xi", "l0", "l_star"])
    @pytest.mark.parametrize("value", ["1.0", True, [1.0]])
    def test_reals_must_be_numbers(self, name, value):
        with pytest.raises(InvalidConstantsError,
                           match=rf"^{name} must be a real number, got "):
            constants(**{name: value})

    @pytest.mark.parametrize("name", ["l1", "l2", "b", "sigma_sq", "eta"])
    def test_required_reals_reject_none(self, name):
        with pytest.raises(InvalidConstantsError,
                           match=rf"^{name} must be a real number, got None$"):
            constants(**{name: None})

    def test_optional_fields_accepted(self):
        c = constants(xi=0.5, l0=2.0, l_star=0.1)
        assert c.xi == 0.5


class TestTheorem1Bound:
    def test_hand_value(self):
        c = constants(eta=0.1, local_epochs=1, b=1.0, sigma_sq=0.0,
                      l1=1.0, l2=0.0)
        assert theorem1_bound(1.0, c) == pytest.approx(0.905, abs=1e-15)

    def test_zero_eta_returns_input(self):
        c = constants(eta=0.0, l2=3.0, sigma_sq=2.0)
        assert theorem1_bound(1.7, c) == 1.7

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            kw = random_feasible(rng)
            c = TheoryConstants(eta=rng.uniform(0.0, 2.0 / kw["l1"]), **kw)
            l_re = rng.uniform(-1.0, 5.0)
            got = theorem1_bound(l_re, c)
            e, eta = c.local_epochs, c.eta
            expected = (
                l_re
                - e * c.b * c.b * (eta - 0.5 * c.l1 * eta * eta)
                + 0.5 * c.l1 * e * eta * eta * c.sigma_sq
                + (c.m + 2.0) / (c.m + 1.0) * c.l2 * e * eta * c.num_classes * c.b
            )
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestTheorem2Threshold:
    def test_hand_value(self):
        c = constants(m=1, b=1.0, sigma_sq=1.0, l1=1.0, l2=0.0, num_classes=10)
        assert theorem2_eta_threshold(c) == pytest.approx(1.0, abs=1e-15)

    def test_infeasible_drift_raises(self):
        c = constants(l2=10.0, num_classes=10)
        with pytest.raises(NoFeasibleRateError):
            theorem2_eta_threshold(c)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            kw = random_feasible(rng)
            c = TheoryConstants(eta=0.0, **kw)
            got = theorem2_eta_threshold(c)
            expected = (
                2.0 * ((kw["m"] + 1) * kw["b"] ** 2
                       - (kw["m"] + 2) * kw["l2"] * kw["num_classes"] * kw["b"])
            ) / (kw["l1"] * (kw["m"] + 1) * (kw["sigma_sq"] + kw["b"] ** 2))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_rates_below_threshold_do_not_increase_the_bound(self):
        # below the threshold, every non-carry term of the one-round bound
        # sums to <= 0, so the bound cannot exceed the incoming loss
        rng = np.random.default_rng(2)
        for _ in range(1000):
            kw = random_feasible(rng)
            threshold = theorem2_eta_threshold(TheoryConstants(eta=0.0, **kw))
            c = TheoryConstants(eta=rng.uniform(0.0, 1.0) * threshold, **kw)
            assert theorem1_bound(0.0, c) <= 1e-12


class TestTheorem3MinRounds:
    def test_hand_value(self):
        c = constants(m=0, l2=0.0, xi=1.0, local_epochs=1, eta=0.5,
                      l1=1.0, sigma_sq=0.0, l0=1.0, l_star=0.0)
        plan = theorem3_min_rounds(c)
        assert plan.min_rounds == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_converged_needs_zero_rounds(self):
        c = constants(xi=1.0, eta=0.5, l0=2.0, l_star=2.0)
        assert theorem3_min_rounds(c).min_rounds == 0.0

    def test_eta_max_formula(self):
        c = constants(m=1, b=1.0, sigma_sq=1.0, l1=1.0, l2=0.0,
                      num_classes=10, xi=1.0, eta=0.1, l0=1.0, l_star=0.0)
        plan = theorem3_min_rounds(c)
        assert plan.eta_max == pytest.approx(1.0, abs=1e-15)

    def test_requires_target_fields(self):
        with pytest.raises(InvalidConstantsError):
            theorem3_min_rounds(constants())

    def test_too_large_eta_is_infeasible(self):
        c = constants(m=0, l2=0.0, xi=0.01, local_epochs=1, eta=1.99,
                      l1=1.0, sigma_sq=5.0, l0=1.0, l_star=0.0)
        with pytest.raises(InfeasibleConfigurationError):
            theorem3_min_rounds(c)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 1000:
            kw = random_feasible(rng)
            xi = rng.uniform(0.05, 3.0)
            l0 = rng.uniform(0.0, 5.0)
            l_star = l0 - rng.uniform(0.0, 3.0)
            eta_max = (
                2.0 * (xi * (kw["m"] + 1)
                       - (kw["m"] + 2) * kw["l2"] * kw["num_classes"] * kw["b"])
            ) / (kw["l1"] * (kw["m"] + 1) * (xi + kw["sigma_sq"]))
            if eta_max <= 0:
                continue
            eta = rng.uniform(0.0, 1.0) * eta_max
            if eta == 0.0:
                continue
            c = TheoryConstants(eta=eta, xi=xi, l0=l0, l_star=l_star, **kw)
            plan = theorem3_min_rounds(c)
            e, m = kw["local_epochs"], kw["m"]
            omega1 = (m + 1) * kw["l1"] * e * eta**2 * kw["sigma_sq"]
            omega2 = 2 * (m + 2) * kw["l2"] * e * eta * kw["num_classes"] * kw["b"]
            denom = xi * e * eta * (m + 1) * (2 - kw["l1"] * eta) - omega1 - omega2
            assert plan.min_rounds == pytest.approx(
                2 * (m + 1) * (l0 - l_star) / denom, rel=1e-10
            )
            assert plan.eta_max == pytest.approx(eta_max, rel=1e-12)
            checked += 1


class TestGridMonotonicity:
    def test_min_rounds_strictly_decreasing_in_xi(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 1000:
            kw = random_feasible(rng)
            xi = rng.uniform(0.05, 2.0)
            eta_max = (
                2.0 * (xi * (kw["m"] + 1)
                       - (kw["m"] + 2) * kw["l2"] * kw["num_classes"] * kw["b"])
            ) / (kw["l1"] * (kw["m"] + 1) * (xi + kw["sigma_sq"]))
            if eta_max <= 0:
                continue
            eta = rng.uniform(0.1, 0.9) * eta_max
            l0, l_star = 3.0, 1.0
            lo = theorem3_min_rounds(TheoryConstants(
                eta=eta, xi=xi, l0=l0, l_star=l_star, **kw))
            hi = theorem3_min_rounds(TheoryConstants(
                eta=eta, xi=xi * rng.uniform(1.1, 3.0), l0=l0, l_star=l_star, **kw))
            assert hi.min_rounds < lo.min_rounds
            checked += 1

    def test_bound_strictly_decreasing_in_b_squared(self):
        # provable for eta <= 1/l1 whenever a feasible descent rate exists;
        # with no drift term the full eta < 2/l1 window works
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 1000:
            kw = random_feasible(rng)
            threshold = theorem2_eta_threshold(TheoryConstants(eta=0.0, **kw))
            if kw["l2"] == 0.0:
                eta = rng.uniform(0.01, 0.999) * (2.0 / kw["l1"])
            else:
                eta = rng.uniform(0.01, 1.0) * min(threshold, 1.0 / kw["l1"])
            base = TheoryConstants(eta=eta, **kw)
            bigger = dict(kw, b=math.sqrt(kw["b"] ** 2 + rng.uniform(0.1, 2.0)))
            grown = TheoryConstants(eta=eta, **bigger)
            assert theorem1_bound(5.0, grown) < theorem1_bound(5.0, base)
            checked += 1


def record(weights, grad, minis=(), extractor=None, features=None):
    w = np.asarray(weights, dtype=np.float64)
    return TraceRecord(
        weights=w,
        full_gradient=np.asarray(grad, dtype=np.float64),
        minibatch_gradients=[np.asarray(g, dtype=np.float64) for g in minis],
        extractor_weights=w if extractor is None else np.asarray(extractor),
        features=np.zeros((1, 2)) if features is None else np.asarray(features),
    )


class TestEstimateConstants:
    def test_constant_gradient_trace(self):
        trace = [
            record([0.0, 0.0], [1.0, 0.0], minis=[[1.0, 0.0], [1.0, 0.0]]),
            record([1.0, 0.0], [1.0, 0.0]),
        ]
        est = estimate_constants(trace)
        assert est.sigma_sq == 0.0
        assert est.l1 == 0.0
        assert est.b == 1.0

    def test_quadratic_loss_recovers_curvature(self):
        # gradient of 0.5 * a ||w||^2 is a w, so every snapshot pair reports a
        a = 2.5
        points = [np.array([x, -x]) for x in (0.2, 0.7, 1.3)]
        trace = [record(w, a * w) for w in points]
        est = estimate_constants(trace)
        assert est.l1 == pytest.approx(a, rel=1e-12)

    def test_b_is_max_norm_and_grows_with_trace(self):
        r1 = record([0.0], [3.0], minis=[[4.0]])
        r2 = record([1.0], [2.0])
        est = estimate_constants([r1, r2])
        assert est.b == 4.0
        r3 = record([2.0], [6.0])
        grown = estimate_constants([r1, r2, r3])
        assert grown.b >= est.b
        assert grown.b == 6.0

    def test_minibatch_variance(self):
        # deviations +/- e around the full gradient give mean ||e||^2
        trace = [
            record([0.0, 0.0], [1.0, 1.0],
                   minis=[[1.0, 2.0], [1.0, 0.0]]),
            record([1.0, 1.0], [1.0, 1.0]),
        ]
        est = estimate_constants(trace)
        assert est.sigma_sq == pytest.approx(1.0, abs=1e-12)

    def test_feature_continuity_ratio(self):
        # features move 3x as fast as the extractor weights
        r1 = record([0.0], [1.0], extractor=[0.0], features=[[0.0, 0.0]])
        r2 = record([1.0], [1.0], extractor=[2.0], features=[[6.0, 0.0]])
        est = estimate_constants([r1, r2])
        assert est.l2 == pytest.approx(3.0, rel=1e-12)

    def test_lower_bound_never_exceeds_truth_on_quadratic(self):
        a = 1.75
        rng = np.random.default_rng(6)
        points = [rng.standard_normal(3) for _ in range(6)]
        trace = [record(w, a * w) for w in points]
        est = estimate_constants(trace)
        assert est.l1 <= a + 1e-9

    def test_insufficient_trace(self):
        with pytest.raises(InsufficientTraceError):
            estimate_constants([record([0.0], [1.0])])
        dead = [
            record([0.0], [0.0]), record([1.0], [0.0]),
        ]
        with pytest.raises(InsufficientTraceError):
            estimate_constants(dead)
