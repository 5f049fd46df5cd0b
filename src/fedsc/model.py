"""Two-layer ReLU MLP feature extractor plus linear classifier, trained by
hand-derived backprop and SGD with momentum, applied in place.

The feature extractor maps inputs x to z = W2 relu(W1 x + b1) + b2; the
classifier maps z to logits = V z + c.  All arithmetic is float64.  The
weights and each gradient are one flat vector apiece, with the layers as
named views into it, so the optimizer works on whole vectors; its momentum
buffer is a plain vector of the same size that the caller owns.

Each bias is folded into its weight matrix.  The flat vector holds w1 b1 w2
b2 v c back to back, so ``[w1; b1]``, ``[w2; b2]`` and ``[v; c]`` are
(fan_in + 1, fan_out) views of it, and each layer is one product with an
input that carries a trailing ones column:

    pre1 = [x, 1] @ [w1; b1],  z = [relu(pre1), 1] @ [w2; b2],
    logits = [z, 1] @ [v; c].

Backward multiplies the same augmented inputs, transposed, by the upstream
gradients, which gives each ``[W; b]`` gradient, bias row included, in one
product.  A bias therefore costs no add of its own forward and no column sum
backward.

A client's minibatch steps can write into :class:`StepArrays`, allocated
once per client; a call without them allocates its own arrays and checks
its inputs, and both run the same arithmetic.
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

# each layer's [weights; bias] matrix: (name, weight field, bias field)
_FOLDED = (("w1b1", "w1", "b1"), ("w2b2", "w2", "b2"), ("vc", "v", "c"))

# extract_features and evaluate_accuracy work on this many rows at a time
_BLOCK_ROWS = 512


class ModelParams:
    """Extractor and classifier weights as named views into one flat vector.

    ``flat`` holds w1 b1 w2 b2 v c back to back in declaration order and
    each named field is a view into it, so an in-place write to either shows
    in both (rebinding a field detaches it).  ``w1b1``, ``w2b2`` and ``vc``
    are the folded layers ``[w1; b1]``, ``[w2; b2]`` and ``[v; c]``, views
    into ``flat`` as well.  ``backward`` returns gradients in this type.
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
        # (view, its slice of flat, its shape), worked out once per layout
        ends = np.cumsum([a.size for a in arrays]).tolist()
        fields = {name: (slice(end - a.size, end), a.shape)
                  for name, a, end in zip(_FIELDS, arrays, ends)}
        layout = [(name, *fields[name]) for name in _FIELDS]
        for name, w, b in _FOLDED:
            (w_part, (fan_in, fan_out)), (b_part, _) = fields[w], fields[b]
            layout.append((name, slice(w_part.start, b_part.stop), (fan_in + 1, fan_out)))
        self._layout = tuple(layout)
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
    """Forward-pass cache: each layer's input with a trailing ones column,
    and the hidden pre-activations.

    ``inputs``, ``act1`` and ``z`` are views of the leading columns of
    ``inputs_aug``, ``act1_aug`` and ``z_aug``.
    """

    inputs_aug: np.ndarray  # (n, d_in + 1) [x, 1]
    pre1: np.ndarray        # (n, hidden) before relu
    act1_aug: np.ndarray    # (n, hidden + 1) [relu(pre1), 1]
    z_aug: np.ndarray       # (n, d + 1) [z, 1]
    labels: np.ndarray | None = None  # 1-based, optional

    @property
    def inputs(self) -> np.ndarray:
        return self.inputs_aug[:, :-1]

    @property
    def act1(self) -> np.ndarray:
        return self.act1_aug[:, :-1]

    @property
    def z(self) -> np.ndarray:
        return self.z_aug[:, :-1]


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
    """``inputs`` as an (n, d_in) array for the extractor, which copies them
    into float64 arrays with a ones column."""
    x = np.asarray(inputs)
    if x.ndim != 2 or x.shape[1] != params.d_in:
        raise DimensionMismatchError(
            f"inputs of shape {x.shape} do not match d_in={params.d_in}"
        )
    return x


def _ones_after(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols + 1) array whose last column is ones, the rest unset."""
    out = np.empty((rows, cols + 1))
    out[:, -1] = 1.0
    return out


class StepArrays:
    """The arrays one client's minibatch steps write into, allocated once
    per :func:`fedsc.federation.run_client` call.

    ``shard`` is the client's inputs with a ones column, ``[x, 1]``; the
    step's batches are row slices of each epoch's shuffled copy of it.
    Every other array holds one batch of up to ``batch_size`` rows, and a
    shorter last batch uses its leading rows: the forward's ``pre1``,
    ``act1_aug`` and ``z_aug``, the loss's ``logits``, ``grad_logits``,
    ``grad_z`` and three (rows, ``width``) RPCL arrays, where ``width`` is
    the number of relational prototypes, and backward's ``grad_hidden``,
    ``grad_pre1``, ``active`` and ``grads``.  What a step returns lives in
    these arrays until the next step.
    """

    def __init__(self, params: ModelParams, inputs: np.ndarray, batch_size: int,
                 width: int):
        x = _checked_inputs(params, inputs)
        n = min(batch_size, len(x))
        self.shard = _ones_after(*x.shape)
        self.shard[:, :-1] = x
        self.pre1 = np.empty((n, params.hidden))
        self.act1_aug = _ones_after(n, params.hidden)
        self.z_aug = _ones_after(n, params.feature_dim)
        self.logits = np.empty((n, params.num_classes))
        self.grad_logits = np.empty((n, params.num_classes))
        self.grad_z = np.empty((n, params.feature_dim))
        self.scores, self.weights, self.coef = np.empty((3, n, width))
        self.grad_hidden = np.empty((n, params.feature_dim))
        self.grad_pre1 = np.empty((n, params.hidden))
        self.active = np.empty((n, params.hidden), dtype=bool)
        self.grads = params.with_flat(np.empty(params.flat.size))


def forward_features(
    params: ModelParams, inputs: np.ndarray, labels: np.ndarray | None = None,
    *, arrays: StepArrays | None = None,
) -> FeatureBatch:
    """Run the extractor; caches activations for backward.

    With ``arrays``, ``inputs`` are rows of ``arrays.shard``, ones column
    included, nothing is checked, and the batch lives in ``arrays``.
    """
    if arrays is None:
        x = _checked_inputs(params, inputs)
        n = len(x)
        x_aug = _ones_after(n, params.d_in)
        x_aug[:, :-1] = x
        pre1 = np.empty((n, params.hidden))
        act_aug = _ones_after(n, params.hidden)
        z_aug = _ones_after(n, params.feature_dim)
        y = None if labels is None else np.asarray(labels, dtype=np.int64)
    else:
        x_aug, y = inputs, labels
        n = len(x_aug)
        pre1, act_aug, z_aug = arrays.pre1[:n], arrays.act1_aug[:n], arrays.z_aug[:n]
    np.matmul(x_aug, params.w1b1, out=pre1)
    np.maximum(pre1, 0.0, out=act_aug[:, :-1])
    np.matmul(act_aug, params.w2b2, out=z_aug[:, :-1])
    return FeatureBatch(x_aug, pre1, act_aug, z_aug, y)


def _features_into(params: ModelParams, x: np.ndarray, out: np.ndarray) -> None:
    """Write the features of the rows ``x`` into ``out``, ``_BLOCK_ROWS``
    rows at a time through one augmented input and one hidden array."""
    n = len(x)
    # numpy multiplies a lone row as a matrix-vector product, whose sums may
    # differ in the last bit from the matrix product's, so the block before a
    # lone last row takes it
    bounds = list(range(0, n, _BLOCK_ROWS))
    if n > 1 and n % _BLOCK_ROWS == 1:
        bounds.pop()
    bounds.append(n)
    x_aug = _ones_after(min(n, _BLOCK_ROWS + 1), params.d_in)
    act_aug = _ones_after(len(x_aug), params.hidden)
    for start, stop in zip(bounds, bounds[1:]):
        rows = stop - start
        hidden = act_aug[:rows, :-1]
        x_aug[:rows, :-1] = x[start:stop]
        np.matmul(x_aug[:rows], params.w1b1, out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        np.matmul(act_aug[:rows], params.w2b2, out=out[start:stop])


def extract_features(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """The features z of every row, with nothing cached for backward.

    The extractor runs on blocks of ``_BLOCK_ROWS`` rows, so its activations
    never hold more than a block, and z is bitwise
    ``forward_features(params, inputs).z``.
    """
    x = _checked_inputs(params, inputs)
    z = np.empty((len(x), params.feature_dim))
    _features_into(params, x, z)
    return z


def backward(
    params: ModelParams,
    batch: FeatureBatch,
    grad_z: np.ndarray,
    grad_logits: np.ndarray,
    *,
    arrays: StepArrays | None = None,
) -> ModelParams:
    """Backpropagate upstream feature and logit gradients to the parameters.

    ``grad_z`` hits the extractor output directly; ``grad_logits`` flows
    through the classifier and then into the extractor as well.  The
    gradients come back in ``params``' layout, written into
    ``arrays.grads`` when ``arrays`` is given, in which case nothing is
    checked.
    """
    n = len(batch.z_aug)
    if arrays is None:
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
        hidden = np.empty((n, params.feature_dim))
        gpre1 = np.empty((n, params.hidden))
        active = np.empty((n, params.hidden), dtype=bool)
    else:
        gz, gl, grads = grad_z, grad_logits, arrays.grads
        hidden, gpre1, active = (arrays.grad_hidden[:n], arrays.grad_pre1[:n],
                                 arrays.active[:n])
    np.matmul(batch.z_aug.T, gl, out=grads.vc)
    np.matmul(gl, params.v.T, out=hidden)
    hidden += gz
    np.matmul(batch.act1_aug.T, hidden, out=grads.w2b2)
    np.matmul(hidden, params.w2.T, out=gpre1)
    np.greater(batch.pre1, 0.0, out=active)
    gpre1 *= active
    np.matmul(batch.inputs_aug.T, gpre1, out=grads.w1b1)
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
    x = _checked_inputs(params, features)
    z_aug = _ones_after(min(len(x), _BLOCK_ROWS), params.feature_dim)
    correct = 0
    for start in range(0, len(x), _BLOCK_ROWS):
        rows = x[start:start + _BLOCK_ROWS]
        block = z_aug[:len(rows)]
        _features_into(params, rows, block[:, :-1])
        pred = np.argmax(block @ params.vc, axis=1) + 1
        correct += np.count_nonzero(pred == labels[start:start + _BLOCK_ROWS])
    return correct / len(features)
