"""Local training objective: cross-entropy plus two prototype terms.

RPCL pulls a sample's features toward every relational prototype of its own
class and away from other classes' (an InfoNCE-style contrast over
distance-normalized cosine similarities); CPDR penalizes the distance to the
class's consistent prototype.  The total loss is the unweighted sum
CE + RPCL + CPDR.

CPDR defaults to the mean squared coordinate distance (``"sq"``): its
gradient ``2 (z - o) / d`` is Lipschitz, so the composite loss stays
L1-smooth as the convergence bounds in ``fedsc.theory`` assume, and the pull
fades as a feature reaches its prototype.  Averaging over the d coordinates
keeps the term on the scale of CE and RPCL at any feature width.  The
summed L1 distance (``"l1"``) remains as an ablation; its unit-scale
gradient jumps at the prototype.

The per-sample CE and RPCL functions are the readable reference;
``total_loss`` runs a vectorized batch path that the tests pin against
them.  The batch RPCL folds ``1 / (u tau)`` into the prototypes, so its
scores and gradient may differ from the reference in the last bits.

Everything in RPCL that depends only on the relational set and the
normalizers is prepared once per epoch, by ``compute_normalizers``: the
valid prototypes scaled by ``1 / (|r| u tau)``, a (class, prototype)
positive table and a per-class flag for "has a positive and a negative".
The zero-norm-prototype and ``u <= 0`` checks run there too.  A context
built by hand carries none of this, and ``total_loss`` prepares it on each
call through the same function; so does a computed context passed with a
relational set other than the one it was computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    DegeneratePrototypeError,
    DegenerateVectorError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidArgumentError,
    LabelOutOfRangeError,
    NoNegativePrototypeError,
    NoPositivePrototypeError,
)
from .model import _BLOCK_ROWS, FeatureBatch, ModelParams, forward_logits
from .prototypes import ConsistentSet, RelationalSet

_EPS = 1e-12

CPDR_NORMS = ("sq", "l1")
DEFAULT_CPDR_NORM = "sq"


class _RpclPrototypes(NamedTuple):
    """The RPCL arrays that change once per epoch, not per batch."""

    relational: RelationalSet  # the set they were prepared from
    r_scaled: np.ndarray       # (P, d) valid prototypes r / (|r| u tau)
    positive: np.ndarray       # (C, P) 1.0 where prototype p belongs to class j
    contrasted: np.ndarray     # (C,) bool: class j has a positive and a negative


@dataclass(frozen=True)
class SimilarityContext:
    """Per-prototype distance normalizers U[j, k] plus the temperature.

    ``prepared`` holds the per-epoch RPCL arrays that ``compute_normalizers``
    builds; a context built by hand leaves it ``None``.  Frozen, so a
    computed context cannot change under its prepared arrays.
    """

    u: np.ndarray      # (num_classes, num_clients)
    valid: np.ndarray  # (num_classes, num_clients) bool
    tau: float = 0.05
    prepared: _RpclPrototypes | None = field(
        default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if np.ndim(self.u) != 2 or np.shape(self.valid) != np.shape(self.u):
            raise DimensionMismatchError(
                f"normalizers u {np.shape(self.u)} and valid "
                f"{np.shape(self.valid)} are not both (C, K)"
            )
        if not 0 < self.tau < np.inf:
            raise InvalidArgumentError("tau must be finite and > 0")


@dataclass
class LossBreakdown:
    """Batch-mean loss terms and upstream gradients for backprop.

    ``total == ce + rpcl + cpdr``; ``grad_z`` and ``grad_logits`` are
    gradients of the batch-mean total.
    """

    ce: float
    rpcl: float
    cpdr: float
    total: float
    grad_z: np.ndarray       # (n, d)
    grad_logits: np.ndarray  # (n, num_classes)


def compute_normalizers(
    features: np.ndarray, relational: RelationalSet, tau: float = 0.05
) -> SimilarityContext:
    """Mean distance from a client's features to each relational prototype.

    U[j, k] averages ||z_q - r[j, k]|| over all the client's features, the
    scale that divides the cosine in RPCL.  Recomputed from a feature
    snapshot at every epoch start.  Only the valid (class, client) cells are
    computed; RPCL never reads the others, and they hold 0.

    The returned context is the epoch's snapshot: it also carries the RPCL
    prototypes prepared from ``relational``, so a zero-norm valid prototype
    raises ``DegeneratePrototypeError`` and a valid cell with ``u <= 0`` raises
    ``InvalidArgumentError`` here, and its ``u`` and ``valid`` are read-only.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DimensionMismatchError(f"features of shape {feats.shape} are not (n, d)")
    if feats.shape[0] == 0:
        raise EmptyDatasetError("need a nonempty (n, d) feature matrix")
    d = relational.r.shape[2]
    if feats.shape[1] != d:
        raise DimensionMismatchError(
            f"features dim {feats.shape[1]} != prototype dim {d}"
        )
    valid = relational.valid
    r = relational.r[valid]
    # ||z - r||^2 = (||z||^2 + ||r||^2) - 2 z.r, clipped against rounding; the
    # cross term is one product (a row block of it may differ in the last
    # bit), turned into the squared distance a block of rows at a time
    zz, rr = np.sum(feats**2, axis=1), np.sum(r**2, axis=1)
    sq = 2.0 * feats @ r.T
    for start in range(0, len(sq), _BLOCK_ROWS):
        block = sq[start:start + _BLOCK_ROWS]
        np.subtract(zz[start:start + _BLOCK_ROWS, None] + rr, block, out=block)
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    u = np.zeros(valid.shape)
    u[valid] = sq.sum(axis=0) / feats.shape[0]
    u.flags.writeable = False
    context = SimilarityContext(u, valid, tau)
    return replace(context, prepared=_prepare_rpcl(relational, context))


def _prepare_rpcl(
    relational: RelationalSet, context: SimilarityContext
) -> _RpclPrototypes:
    """The RPCL arrays for the prototypes valid in both the set and the
    context; checks their norms and normalizers once."""
    valid = relational.valid & context.valid
    r = relational.r[valid]                     # (P, d)
    u = context.u[valid]
    rn = np.linalg.norm(r, axis=1)
    if (rn < _EPS).any():
        raise DegeneratePrototypeError("zero-norm relational prototype")
    if (u <= 0).any():
        raise InvalidArgumentError("normalizer u must be > 0")
    r_scaled = r / (rn * u * context.tau)[:, None]
    class_of = np.nonzero(valid)[0]
    positive = class_of[None, :] == np.arange(valid.shape[0])[:, None]
    pos_count = positive.sum(axis=1)
    contrasted = (pos_count > 0) & (pos_count < positive.shape[1])
    return _RpclPrototypes(relational, r_scaled, positive.astype(np.float64),
                           contrasted)


def _check_prototype_shapes(
    num_classes: int,
    d: int,
    relational: RelationalSet | None,
    consistent: ConsistentSet | None,
    context: SimilarityContext | None,
) -> None:
    """The prototype sets cover ``num_classes`` classes of width ``d``, and
    the normalizers cover the relational set's (class, client) grid."""
    if relational is not None:
        c, k, width = relational.r.shape
        if (c, width) != (num_classes, d):
            raise DimensionMismatchError(
                f"relational prototypes {relational.r.shape} do not match "
                f"{num_classes} classes of dim {d}"
            )
        if context is not None and context.u.shape != (c, k):
            raise DimensionMismatchError(
                f"normalizers {context.u.shape} do not match relational "
                f"prototypes {(c, k)}"
            )
    if consistent is not None and consistent.o.shape != (num_classes, d):
        raise DimensionMismatchError(
            f"consistent prototypes {consistent.o.shape} do not match "
            f"{num_classes} classes of dim {d}"
        )


def _check_label(label: int, num_classes: int) -> int:
    if not 1 <= label <= num_classes:
        raise LabelOutOfRangeError(f"label {label} outside 1..{num_classes}")
    return label - 1


def rpcl_loss_and_grad(
    z: np.ndarray,
    label: int,
    relational: RelationalSet,
    context: SimilarityContext,
) -> tuple[float, np.ndarray]:
    """Contrastive loss of one sample against the relational prototypes.

    Positives are the valid prototypes of the sample's class, negatives every
    other class's valid prototype.  Returns the loss and its gradient in z,
    holding prototypes and normalizers fixed.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise DimensionMismatchError(f"features {z.shape} are not one (d,) vector")
    num_classes, num_clients, _ = relational.r.shape
    _check_prototype_shapes(num_classes, len(z), relational, None, context)
    j = _check_label(label, num_classes)
    zn = np.linalg.norm(z)
    if zn < _EPS:
        raise DegenerateVectorError("zero-norm feature vector")

    scores, grads, positive = [], [], []
    for q in range(num_classes):
        for k in range(num_clients):
            if not (relational.valid[q, k] and context.valid[q, k]):
                continue
            r = relational.r[q, k]
            rn = np.linalg.norm(r)
            if rn < _EPS:
                raise DegeneratePrototypeError("zero-norm relational prototype")
            u = context.u[q, k]
            if u <= 0:
                raise InvalidArgumentError("normalizer u must be > 0")
            cos = float(z @ r / (zn * rn))
            scores.append(cos / u)
            grads.append((r / rn - cos * z / zn) / (zn * u))
            positive.append(q == j)

    positive = np.array(positive, dtype=bool)
    if not positive.any():
        raise NoPositivePrototypeError(f"no relational prototype for class {label}")
    if positive.all():
        raise NoNegativePrototypeError(f"no negative prototype against class {label}")

    s = np.array(scores) / context.tau
    shift = s.max()
    w = np.exp(s - shift)
    s_all = w.sum()
    s_pos = w[positive].sum()
    loss = float(np.log(s_all) - np.log(s_pos))
    coef = (w / s_all - positive * (w / s_pos)) / context.tau
    grad = np.zeros_like(z)
    for c, g in zip(coef, grads):
        grad += c * g
    return loss, grad


def ce_loss_and_grad(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy of one sample; gradient is softmax - onehot."""
    logits = np.asarray(logits, dtype=np.float64)
    j = _check_label(label, logits.shape[0])
    shifted = logits - logits.max()
    lse = float(np.log(np.exp(shifted).sum()))
    probs = np.exp(shifted - lse)
    grad = probs.copy()
    grad[j] -= 1.0
    return lse - float(shifted[j]), grad


def _rpcl_batch(
    z: np.ndarray, idx: np.ndarray, prepared: _RpclPrototypes
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized RPCL over a batch with 0-based class indices ``idx``;
    samples without a valid positive or negative contribute zero."""
    r_scaled = prepared.r_scaled
    if r_scaled.shape[0] == 0:
        return np.zeros(len(z)), np.zeros_like(z)
    # np.linalg.norm(z, axis=1) without its wrapper
    zn = np.sqrt(np.add.reduce(z * z, axis=1))
    if (zn < _EPS).any():
        raise DegenerateVectorError("zero-norm feature vector in batch")
    z_hat = z / zn[:, None]
    s = z_hat @ r_scaled.T                      # (n, P): cos / (u tau)

    pos = prepared.positive[idx]                # (n, P)
    active = prepared.contrasted[idx]

    w = s - s.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    s_all = w.sum(axis=1)
    s_pos = np.maximum((w * pos).sum(axis=1), _EPS)
    losses = np.where(active, np.log(s_all) - np.log(s_pos), 0.0)

    # c = w / s_all - pos * (w / s_pos), zero for inactive rows
    c = w / s_all[:, None]
    w /= s_pos[:, None]
    w *= pos
    c -= w
    c *= active[:, None]
    s *= c
    z_hat *= s.sum(axis=1)[:, None]
    grad = c @ r_scaled
    grad -= z_hat
    grad /= zn[:, None]
    return losses, grad


def _cpdr_batch(
    z: np.ndarray, idx: np.ndarray, consistent: ConsistentSet, norm: str
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized CPDR with 0-based class indices ``idx``; samples of classes
    without a prototype contribute zero."""
    active = consistent.present[idx]
    grad = z - consistent.o[idx]                # the difference, then its gradient
    if norm == "sq":
        losses = (grad**2).sum(axis=1) / grad.shape[1]
        grad *= 2.0
        grad /= grad.shape[1]
    elif norm == "l1":
        losses = np.abs(grad).sum(axis=1)
        np.sign(grad, out=grad)
    else:
        raise InvalidArgumentError(f"unknown cpdr norm '{norm}'")
    losses *= active
    grad *= active[:, None]
    return losses, grad


def _ce_batch(logits: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = np.arange(len(idx))
    shifted = logits - logits.max(axis=1, keepdims=True)
    grad = np.exp(shifted)
    lse = np.log(grad.sum(axis=1))
    losses = lse - shifted[rows, idx]
    np.subtract(shifted, lse[:, None], out=grad)
    np.exp(grad, out=grad)
    grad[rows, idx] -= 1.0
    return losses, grad


def total_loss(
    batch: FeatureBatch,
    relational: RelationalSet | None,
    consistent: ConsistentSet | None,
    context: SimilarityContext | None,
    params: ModelParams,
    cpdr_norm: str = DEFAULT_CPDR_NORM,
) -> LossBreakdown:
    """Batch-mean composite loss CE + RPCL + CPDR with upstream gradients.

    The prototype terms apply only when ``relational``/``consistent`` (and
    ``context``) are given, and per sample only where the sample's class has
    valid prototypes; otherwise they contribute zero, which makes a run
    without prototypes identical to plain cross-entropy training.
    """
    if batch.labels is None:
        raise InvalidArgumentError("batch must carry labels")
    labels = batch.labels
    num_classes = params.num_classes
    if labels.min() < 1 or labels.max() > num_classes:
        raise LabelOutOfRangeError(f"labels outside 1..{num_classes}")
    n = batch.z.shape[0]
    logits = forward_logits(params, batch.z)
    _check_prototype_shapes(num_classes, params.feature_dim, relational,
                            consistent, context)

    idx = labels - 1
    ce_losses, ce_grad = _ce_batch(logits, idx)
    ce = float(ce_losses.sum() / n)
    rpcl = cpdr = 0.0
    grad_z = None
    if relational is not None and context is not None:
        prepared = context.prepared
        if prepared is None or prepared.relational is not relational:
            prepared = _prepare_rpcl(relational, context)
        rpcl_losses, grad_z = _rpcl_batch(batch.z, idx, prepared)
        rpcl = float(rpcl_losses.sum() / n)
    if consistent is not None:
        cpdr_losses, cpdr_grad = _cpdr_batch(batch.z, idx, consistent, cpdr_norm)
        cpdr = float(cpdr_losses.sum() / n)
        if grad_z is None:
            grad_z = cpdr_grad
        else:
            grad_z += cpdr_grad
    if grad_z is None:
        grad_z = np.zeros_like(batch.z)
    grad_z /= n
    ce_grad /= n
    return LossBreakdown(ce, rpcl, cpdr, ce + rpcl + cpdr, grad_z, ce_grad)
