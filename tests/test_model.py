"""MLP forward/backward, the flat parameter layout, and the in-place
momentum-SGD optimizer."""

import copy
import pickle

import numpy as np
import pytest

from fedsc.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NonfiniteGradientError,
)
from fedsc.losses import total_loss
from fedsc.model import (
    _BLOCK_ROWS,
    ModelParams,
    OptimizerConfig,
    backward,
    evaluate_accuracy,
    extract_features,
    forward_features,
    forward_logits,
    init_params,
    sgd_step,
)

_FIELDS = ("w1", "b1", "w2", "b2", "v", "c")


def tiny_params(seed=0, d_in=3, hidden=4, feature_dim=3, num_classes=3):
    return init_params(d_in, hidden, feature_dim, num_classes, seed=seed)


def tiny_batch(params, n=5, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, params.d_in))
    y = rng.integers(1, params.num_classes + 1, size=n)
    return forward_features(params, x, y)


def numeric_gradient(params, loss_fn, h=1e-6):
    """Central finite differences of loss_fn over every parameter entry."""
    grads = {}
    for name in _FIELDS:
        p = getattr(params, name)
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = p[idx]
            p[idx] = keep + h
            up = loss_fn(params)
            p[idx] = keep - h
            down = loss_fn(params)
            p[idx] = keep
            g[idx] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def filled_like(params, value):
    """Gradients of ``params``' layout with every entry set to ``value``."""
    return params.with_flat(np.full_like(params.flat, value))


def relative_error(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


class TestInitParams:
    def test_shapes_and_bounds(self):
        p = init_params(6, 5, 4, 3, seed=0)
        assert p.w1.shape == (6, 5) and p.w2.shape == (5, 4) and p.v.shape == (4, 3)
        assert (p.b1 == 0).all() and (p.b2 == 0).all() and (p.c == 0).all()
        assert np.abs(p.w1).max() <= 1 / np.sqrt(6)
        assert np.abs(p.w2).max() <= 1 / np.sqrt(5)
        assert np.abs(p.v).max() <= 1 / np.sqrt(4)

    def test_deterministic_and_seedsequence(self):
        a = init_params(3, 4, 3, 2, seed=5)
        b = init_params(3, 4, 3, 2, seed=5)
        c = init_params(3, 4, 3, 2, seed=np.random.SeedSequence(5))
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w1, c.w1)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            init_params(0, 4, 3, 2)


class TestForward:
    def test_feature_formula(self):
        p = tiny_params()
        x = np.array([[1.0, -2.0, 0.5]])
        fb = forward_features(p, x)
        pre1 = x @ p.w1 + p.b1
        assert np.allclose(fb.pre1, pre1)
        assert np.allclose(fb.act1, np.maximum(pre1, 0))
        assert np.allclose(fb.z, np.maximum(pre1, 0) @ p.w2 + p.b2)

    def test_logits_formula(self):
        p = tiny_params()
        z = np.random.default_rng(0).standard_normal((4, p.feature_dim))
        assert np.allclose(forward_logits(p, z), z @ p.v + p.c)

    def test_dimension_errors(self):
        p = tiny_params()
        with pytest.raises(DimensionMismatchError):
            forward_features(p, np.zeros((2, p.d_in + 1)))
        with pytest.raises(DimensionMismatchError):
            forward_logits(p, np.zeros((2, p.feature_dim + 1)))


class TestBackward:
    def test_classifier_gradients_match_finite_differences(self):
        params = tiny_params()
        batch = tiny_batch(params)
        x, y = batch.inputs, batch.labels

        def loss_fn(p):
            fb = forward_features(p, x, y)
            return total_loss(fb, None, None, None, p).total

        fb = forward_features(params, x, y)
        breakdown = total_loss(fb, None, None, None, params)
        grads = backward(params, fb, breakdown.grad_z, breakdown.grad_logits)
        numeric = numeric_gradient(params, loss_fn)
        for name in _FIELDS:
            assert relative_error(getattr(grads, name), numeric[name]) < 1e-6

    def test_feature_path_matches_finite_differences(self):
        # upstream gradient applied straight to z, bypassing the classifier
        params = tiny_params(seed=2)
        batch = tiny_batch(params, seed=3)
        g = np.random.default_rng(4).standard_normal(batch.z.shape)

        def loss_fn(p):
            fb = forward_features(p, batch.inputs)
            return float(np.sum(fb.z * g))

        no_logits = np.zeros((batch.z.shape[0], params.num_classes))
        grads = backward(params, batch, g, no_logits)
        numeric = numeric_gradient(params, loss_fn)
        for name in ("w1", "b1", "w2", "b2"):
            assert relative_error(getattr(grads, name), numeric[name]) < 1e-6
        assert (grads.v == 0).all() and (grads.c == 0).all()

    def test_both_paths_sum(self):
        params = tiny_params(seed=5)
        batch = tiny_batch(params, seed=6)
        rng = np.random.default_rng(7)
        gz = rng.standard_normal(batch.z.shape)
        gl = rng.standard_normal((batch.z.shape[0], params.num_classes))
        both = backward(params, batch, gz, gl)
        only_z = backward(params, batch, gz, np.zeros_like(gl))
        only_l = backward(params, batch, np.zeros_like(gz), gl)
        assert np.allclose(both.flat, only_z.flat + only_l.flat)

    def test_shape_check(self):
        params = tiny_params()
        batch = tiny_batch(params)
        gz = np.zeros_like(batch.z)
        gl = np.zeros((batch.z.shape[0], params.num_classes))
        with pytest.raises(DimensionMismatchError):
            backward(params, batch, np.zeros((1, 1)), gl)
        with pytest.raises(DimensionMismatchError):
            backward(params, batch, gz, np.zeros((1, 1)))


class TestSgdStep:
    def test_two_step_recurrence(self):
        config = OptimizerConfig(learning_rate=0.1, momentum=0.8,
                                 weight_decay=0.01, batch_size=4)
        params = tiny_params(seed=8)
        g = filled_like(params, 1.0)

        p0 = params.w1.copy()
        buf1 = 1.0 + 0.01 * p0
        p1 = p0 - 0.1 * buf1
        buf2 = 0.8 * buf1 + (1.0 + 0.01 * p1)
        p2 = p1 - 0.1 * buf2

        w1 = slice(0, p0.size)
        buf = np.zeros(params.flat.size)
        assert sgd_step(params, g, buf, config) is None
        assert np.allclose(params.w1, p1)
        assert np.allclose(buf[w1].reshape(p0.shape), buf1)
        sgd_step(params, g, buf, config)
        assert np.allclose(params.w1, p2)
        assert np.allclose(buf[w1].reshape(p0.shape), buf2)

    def test_does_not_mutate_input(self):
        # the weights and the buffer change in place; the gradients must not
        params = tiny_params()
        g = filled_like(params, 0.5)
        buf = np.zeros(params.flat.size)
        frozen = g.flat.copy()
        sgd_step(params, g, buf, OptimizerConfig(momentum=0.9, weight_decay=0.1))
        sgd_step(params, g, buf, OptimizerConfig(momentum=0.9, weight_decay=0.1))
        assert np.array_equal(g.flat, frozen)
        assert (buf != 0).all()
        assert not np.shares_memory(buf, g.flat)
        assert not np.shares_memory(buf, params.flat)

    def test_zero_momentum_is_plain_sgd(self):
        config = OptimizerConfig(learning_rate=0.5, momentum=0.0, weight_decay=0.0)
        params = tiny_params()
        expected = params.w1 - 1.0
        sgd_step(params, filled_like(params, 2.0), np.zeros(params.flat.size),
                 config)
        assert np.allclose(params.w1, expected)

    def test_rejects_nonfinite(self):
        params = tiny_params()
        buf = np.zeros(params.flat.size)
        buf[-params.c.size :] += 0.5
        weights = params.flat.copy()
        momentum = buf.copy()
        # the bad entry sits in the last field, after five finite ones
        g = filled_like(params, 1.0)
        g.c[:] = np.nan
        with pytest.raises(NonfiniteGradientError):
            sgd_step(params, g, buf, OptimizerConfig())
        # backward leaves the check to sgd_step
        batch = tiny_batch(params)
        bad = np.full(batch.z.shape, np.inf)
        no_logits = np.zeros((batch.z.shape[0], params.num_classes))
        with np.errstate(invalid="ignore"):
            grads = backward(params, batch, bad, no_logits)
            with pytest.raises(NonfiniteGradientError):
                sgd_step(params, grads, buf, OptimizerConfig())
        assert np.array_equal(params.flat, weights)
        assert np.array_equal(buf, momentum)

    def test_optimizer_validation(self):
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(learning_rate=-1.0)
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(momentum=1.0)
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(weight_decay=-0.1)
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(batch_size=0)
        for bad in (dict(learning_rate=np.nan), dict(learning_rate=np.inf),
                    dict(weight_decay=np.nan), dict(weight_decay=np.inf)):
            with pytest.raises(InvalidArgumentError):
                OptimizerConfig(**bad)


class TestModelParams:
    def test_copy_isolation(self):
        params = tiny_params()
        clone = params.copy()
        clone.w1 += 1.0
        assert not np.array_equal(clone.w1, params.w1)
        assert not np.shares_memory(clone.flat, params.flat)

    def test_flat_layout(self):
        params = tiny_params()
        sizes = [getattr(params, f).size for f in _FIELDS]
        assert params.flat.shape == (sum(sizes),)
        assert params.flat.dtype == np.float64
        start = 0
        for name, size in zip(_FIELDS, sizes):
            field = getattr(params, name)
            assert np.array_equal(params.flat[start : start + size], field.ravel())
            assert np.shares_memory(field, params.flat)
            start += size
        assert list(params.weights()) == list(_FIELDS)

    def test_fields_are_views_of_flat(self):
        params = tiny_params()
        params.w1[1, 2] = 7.0
        assert params.flat[1 * params.hidden + 2] == 7.0
        params.flat[-1] = -3.0
        assert params.c[-1] == -3.0
        params.weights()["b2"][:] = 0.5
        assert (params.b2 == 0.5).all()

    def test_backward_gradients_share_the_layout(self):
        params = tiny_params()
        batch = tiny_batch(params)
        grads = backward(params, batch, np.zeros_like(batch.z),
                         np.zeros((batch.z.shape[0], params.num_classes)))
        assert isinstance(grads, ModelParams)
        assert grads.flat.shape == params.flat.shape
        assert not np.shares_memory(grads.flat, params.flat)
        assert grads.w2.shape == params.w2.shape

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda p: pickle.loads(pickle.dumps(p))],
                             ids=["deepcopy", "pickle"])
    def test_copies_keep_fields_as_views_of_flat(self, clone):
        params = tiny_params()
        before = params.flat.copy()
        twin = clone(params)
        assert np.array_equal(twin.flat, params.flat)
        assert not np.shares_memory(twin.flat, params.flat)
        for name in _FIELDS:
            assert np.shares_memory(getattr(twin, name), twin.flat), name
        # an in-place step on the copy's flat vector reaches its layers only
        twin.flat += 1.0
        assert np.array_equal(twin.w1, params.w1 + 1.0)
        assert np.array_equal(twin.c, params.c + 1.0)
        assert np.array_equal(params.flat, before)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            ModelParams(np.zeros((3, 4)), np.zeros(5), np.zeros((4, 2)),
                        np.zeros(2), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(DimensionMismatchError, match="must be 2-d"):
            ModelParams(np.zeros(3), np.zeros(4), np.zeros((4, 2)),
                        np.zeros(2), np.zeros((2, 2)), np.zeros(2))


class TestExtractFeatures:
    # the acceptance head-to-head's widths and the desk preset's
    @pytest.mark.parametrize("hidden", [128, 64])
    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 1])
    def test_bitwise_equal_to_the_training_forward(self, n, hidden):
        params = init_params(16, hidden, 32, 10, seed=4)
        rng = np.random.default_rng(5)
        params.flat[:] = rng.standard_normal(params.flat.size) * 0.3  # nonzero biases
        x = rng.standard_normal((n, 16))
        z = extract_features(params, x)
        assert z.flags.c_contiguous
        assert np.array_equal(z, forward_features(params, x).z)

    def test_empty_and_mismatched_inputs(self):
        params = tiny_params()
        assert extract_features(params, np.zeros((0, params.d_in))).shape == (0, 3)
        with pytest.raises(DimensionMismatchError):
            extract_features(params, np.zeros((2, params.d_in + 1)))


class TestEvaluateAccuracy:
    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 1])
    def test_matches_manual_argmax(self, n):
        # the blocked pass against one pass over every row
        params = tiny_params(seed=9)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((n, params.d_in))
        y = rng.integers(1, params.num_classes + 1, size=n)
        z = forward_features(params, x).z
        pred = np.argmax(forward_logits(params, z), axis=1) + 1
        assert evaluate_accuracy(params, x, y) == np.mean(pred == y)

    def test_label_count_checked(self):
        # a single label would broadcast against 60 rows into an accuracy
        params = tiny_params(seed=9)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((60, params.d_in))
        y = rng.integers(1, params.num_classes + 1, size=60)
        with pytest.raises(DimensionMismatchError):
            evaluate_accuracy(params, x, y[:1])
