"""Two-layer ReLU MLP feature extractor plus linear classifier, trained by
hand-derived backprop and SGD with momentum, applied in place.

The feature extractor maps inputs x to z = W2 relu(W1 x + b1) + b2; the
classifier maps z to logits = V z + c.  All arithmetic is float64.  The
weights and each gradient are one flat vector apiece, with the layers as
named views into it, so the optimizer works on whole vectors; its momentum
buffer is a plain vector of the same size that the caller owns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidArgumentError,
    NonfiniteGradientError,
    check_float_fields,
    check_int_fields,
)

# weight fields in declaration order
_FIELDS = ("w1", "b1", "w2", "b2", "v", "c")

# extract_features and evaluate_accuracy work on this many rows at a time
_BLOCK_ROWS = 512


class ModelParams:
    """Extractor and classifier weights as named views into one flat vector.

    ``flat`` holds w1 b1 w2 b2 v c back to back in declaration order and
    each named field is a view into it, so an in-place write to either shows
    in both (rebinding a field detaches it).  ``backward`` returns gradients
    in this type as well.
    """

    def __init__(self, w1, b1, w2, b2, v, c):
        arrays = [np.asarray(a, dtype=np.float64) for a in (w1, b1, w2, b2, v, c)]
        w1, b1, w2, b2, v, c = arrays
        if w1.ndim != 2 or w2.ndim != 2 or v.ndim != 2:
            raise DimensionMismatchError("weight matrices must be 2-d")
        if (
            b1.shape != (w1.shape[1],)
            or w2.shape[0] != w1.shape[1]
            or b2.shape != (w2.shape[1],)
            or v.shape[0] != w2.shape[1]
            or c.shape != (v.shape[1],)
        ):
            raise DimensionMismatchError("inconsistent parameter shapes")
        # (field, its slice of flat, its shape), worked out once per layout
        ends = np.cumsum([a.size for a in arrays]).tolist()
        self._layout = tuple(
            (name, slice(end - a.size, end), a.shape)
            for name, a, end in zip(_FIELDS, arrays, ends)
        )
        self._bind(np.concatenate([a.ravel() for a in arrays]))

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        for name, part, shape in self._layout:
            setattr(self, name, flat[part].reshape(shape))

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        """A model of this layout on ``flat`` (not copied)."""
        out = object.__new__(ModelParams)
        out._layout = self._layout
        out._bind(flat)
        return out

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.w2.shape[1]

    @property
    def num_classes(self) -> int:
        return self.v.shape[1]

    def copy(self) -> "ModelParams":
        return self.with_flat(self.flat.copy())

    def weights(self) -> dict[str, np.ndarray]:
        return dict(zip(_FIELDS, (self.w1, self.b1, self.w2, self.b2, self.v, self.c)))

    def __reduce__(self):
        # copies and unpickled models rebuild flat, so their fields stay views
        return ModelParams, tuple(self.weights().values())


@dataclass
class FeatureBatch:
    """Forward-pass cache: inputs, hidden pre-activations, and features."""

    inputs: np.ndarray   # (n, d_in) float64
    pre1: np.ndarray     # (n, hidden) before relu
    act1: np.ndarray     # (n, hidden) after relu
    z: np.ndarray        # (n, d) features
    labels: np.ndarray | None = None  # 1-based, optional


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    batch_size: int = 64

    def __post_init__(self):
        check_int_fields(self)
        check_float_fields(self)
        if not 0 <= self.learning_rate < np.inf:
            raise InvalidArgumentError("learning_rate must be finite and >= 0")
        if not 0 <= self.momentum < 1:
            raise InvalidArgumentError("momentum must lie in [0, 1)")
        if not 0 <= self.weight_decay < np.inf:
            raise InvalidArgumentError("weight_decay must be finite and >= 0")
        if self.batch_size < 1:
            raise InvalidArgumentError("batch_size must be >= 1")


def init_params(
    d_in: int, hidden: int, feature_dim: int, num_classes: int, seed: int = 0
) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if min(d_in, hidden, feature_dim, num_classes) < 1:
        raise InvalidArgumentError("all layer sizes must be >= 1")
    rng = np.random.default_rng(seed)

    def layer(fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return ModelParams(
        layer(d_in, hidden), np.zeros(hidden),
        layer(hidden, feature_dim), np.zeros(feature_dim),
        layer(feature_dim, num_classes), np.zeros(num_classes),
    )


def _checked_inputs(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """``inputs`` as a float64 (n, d_in) array for the extractor."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.d_in:
        raise DimensionMismatchError(
            f"inputs of shape {x.shape} do not match d_in={params.d_in}"
        )
    return x


def forward_features(
    params: ModelParams, inputs: np.ndarray, labels: np.ndarray | None = None
) -> FeatureBatch:
    """Run the extractor; caches activations for backward."""
    x = _checked_inputs(params, inputs)
    pre1 = x @ params.w1
    pre1 += params.b1
    act1 = np.maximum(pre1, 0.0)
    z = act1 @ params.w2
    z += params.b2
    y = None if labels is None else np.asarray(labels, dtype=np.int64)
    return FeatureBatch(x, pre1, act1, z, y)


def forward_logits(params: ModelParams, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != params.feature_dim:
        raise DimensionMismatchError(
            f"features of shape {z.shape} do not match feature_dim={params.feature_dim}"
        )
    return z @ params.v + params.c


def extract_features(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """The features z of every row, with nothing cached for backward.

    The extractor runs on blocks of ``_BLOCK_ROWS`` rows through one hidden
    buffer, so its activations never hold more than a block, and z is
    bitwise ``forward_features(params, inputs).z``.
    """
    x = _checked_inputs(params, inputs)
    n = len(x)
    # numpy multiplies a lone row as a matrix-vector product, whose sums may
    # differ in the last bit from the matrix product's, so the block before a
    # lone last row takes it
    bounds = list(range(0, n, _BLOCK_ROWS))
    if n > 1 and n % _BLOCK_ROWS == 1:
        bounds.pop()
    bounds.append(n)
    z = np.empty((n, params.feature_dim))
    buf = np.empty((min(n, _BLOCK_ROWS + 1), params.hidden))
    for start, stop in zip(bounds, bounds[1:]):
        rows = x[start:stop]
        hidden, out = buf[:len(rows)], z[start:stop]
        np.matmul(rows, params.w1, out=hidden)
        hidden += params.b1
        np.maximum(hidden, 0.0, out=hidden)
        np.matmul(hidden, params.w2, out=out)
        out += params.b2
    return z


def backward(
    params: ModelParams,
    batch: FeatureBatch,
    grad_z: np.ndarray,
    grad_logits: np.ndarray,
) -> ModelParams:
    """Backpropagate upstream feature and logit gradients to the parameters.

    ``grad_z`` hits the extractor output directly; ``grad_logits`` flows
    through the classifier and then into the extractor as well.  The
    gradients come back in ``params``' layout.
    """
    n = batch.z.shape[0]
    gz = np.asarray(grad_z, dtype=np.float64)
    if gz.shape != batch.z.shape:
        raise DimensionMismatchError(f"grad_z shape {gz.shape} != {batch.z.shape}")
    gl = np.asarray(grad_logits, dtype=np.float64)
    if gl.shape != (n, params.num_classes):
        raise DimensionMismatchError(
            f"grad_logits shape {gl.shape} != {(n, params.num_classes)}"
        )

    # every field is written below
    grads = params.with_flat(np.empty(params.flat.size))
    np.matmul(batch.z.T, gl, out=grads.v)
    gl.sum(axis=0, out=grads.c)
    gz_total = gl @ params.v.T
    gz_total += gz
    np.matmul(batch.act1.T, gz_total, out=grads.w2)
    gz_total.sum(axis=0, out=grads.b2)
    gpre1 = gz_total @ params.w2.T
    gpre1 *= batch.pre1 > 0.0
    np.matmul(batch.inputs.T, gpre1, out=grads.w1)
    gpre1.sum(axis=0, out=grads.b1)
    return grads


def sgd_step(params: ModelParams, grads: ModelParams, buf: np.ndarray,
             config: OptimizerConfig) -> None:
    """One SGD-with-momentum update of ``params`` and the momentum buffer
    ``buf`` (a vector of ``params.flat``'s size), both in place; weight decay
    is added to the gradient.

    buf <- momentum * buf + (grad + weight_decay * param)
    param <- param - learning_rate * buf

    A gradient holding NaN or Inf raises before any weight or buffer changes.
    """
    if not np.isfinite(grads.flat).all():
        raise NonfiniteGradientError("gradient contains NaN or Inf")
    step = config.weight_decay * params.flat
    step += grads.flat
    buf *= config.momentum
    buf += step
    np.multiply(config.learning_rate, buf, out=step)
    params.flat -= step


def evaluate_accuracy(params: ModelParams, features: np.ndarray,
                      labels: np.ndarray) -> float:
    """Fraction of samples whose argmax logit matches the 1-based label.

    Each block of ``_BLOCK_ROWS`` test rows goes through the extractor, the
    classifier and the argmax on its own, so no intermediate spans the set.
    Zero samples raise ``EmptyDatasetError``: their accuracy is undefined.  A
    label count other than the sample count raises
    ``DimensionMismatchError``.
    """
    if len(features) == 0:
        raise EmptyDatasetError("cannot evaluate on zero samples")
    labels = np.asarray(labels)
    if labels.shape != (len(features),):
        raise DimensionMismatchError(
            f"labels shape {labels.shape} does not match {len(features)} samples"
        )
    correct = 0
    for start in range(0, len(features), _BLOCK_ROWS):
        z = extract_features(params, features[start:start + _BLOCK_ROWS])
        pred = np.argmax(forward_logits(params, z), axis=1) + 1
        correct += np.count_nonzero(pred == labels[start:start + _BLOCK_ROWS])
    return correct / len(features)
