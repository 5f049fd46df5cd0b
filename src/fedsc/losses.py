"""Local training objective: cross-entropy plus two prototype terms.

RPCL pulls a sample's features toward every relational prototype of its own
class and away from other classes' (an InfoNCE-style contrast over
distance-normalized cosine similarities); CPDR penalizes the distance to the
class's consistent prototype.  The total loss is the unweighted sum
CE + RPCL + CPDR.

CPDR is the mean squared coordinate distance: its gradient
``2 (z - o) / d`` is Lipschitz, so the composite loss stays L1-smooth as the
convergence bounds in ``fedsc.theory`` assume, and the pull fades as a
feature reaches its prototype.  Averaging over the d coordinates keeps the
term on the scale of CE and RPCL at any feature width.

``total_loss`` spends one numpy call wherever it can, because at training
shapes a call costs more than its arithmetic.  The logits are
``[z, 1] @ [v; c]``, one product with the classifier's folded bias (see
``fedsc.model``).  RPCL forms its coefficients as
``c = w (1 / s_all - pos / s_pos)`` and its per-row dot products with
``einsum``; CPDR scales the difference ``z - o`` by one factor per class,
``2 / d`` where the class has a consistent prototype and 0 elsewhere; and
``compute_normalizers`` forms every squared distance in one product.  Given
a client's ``StepArrays``, ``total_loss`` writes into them and checks
nothing, because the client checked its labels and prototypes once with
``check_loss_inputs``; without them it allocates its own arrays and checks
every call, and both run the same arithmetic.

RPCL's inputs are split by how often they change.  What depends on the
relational set alone (its valid rows, their norms, a (class, prototype)
positive table and a per-class flag for "has a positive and a negative") is
``RelationalSet.valid_rows``, built at the first read of each set object, which
also rejects a zero-norm prototype: once per round in a serial run, and once
per client in a worker, which receives each client's set as its own pickled
copy.  A ``SimilarityContext`` belongs to one set: it is made from the set,
its normalizers ``u`` and ``tau``, and checks them once, when it is made,
keeping the set's valid rows and those rows scaled by ``1 / (|r| u tau)``.
``compute_normalizers`` makes one per epoch, so each epoch computes only
``u`` and the scaled rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateVectorError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidArgumentError,
    LabelOutOfRangeError,
)
from .model import FeatureBatch, ModelParams, StepArrays
from .prototypes import ConsistentSet, RelationalSet, ValidRows

_EPS = 1e-12

CPDR_NORM = "sq"


@dataclass(frozen=True)
class SimilarityContext:
    """Distance normalizers U[j, k] and the temperature of one relational set.

    Made once, it checks what RPCL reads (``u`` covers the set's (C, K) grid,
    no valid prototype has zero norm, every valid ``u`` is > 0) and keeps
    the set's ``rows`` and those rows scaled by ``1 / (|r| u tau)``.
    """

    relational: RelationalSet
    u: np.ndarray      # (num_classes, num_clients)
    tau: float = 0.05
    rows: ValidRows = field(init=False, repr=False, compare=False)
    scaled: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = self.relational.valid.shape
        if np.shape(self.u) != grid:
            raise DimensionMismatchError(
                f"normalizers {np.shape(self.u)} do not match relational "
                f"prototypes {grid}"
            )
        if not 0 < self.tau < np.inf:
            raise InvalidArgumentError("tau must be finite and > 0")
        u = np.array(self.u, dtype=np.float64)
        u.flags.writeable = False
        rows = self.relational.valid_rows
        u_valid = u.take(rows.cells)
        if (u_valid <= 0).any():
            raise InvalidArgumentError("normalizer u must be > 0")
        scaled = rows.rows / (rows.norms * u_valid * self.tau)[:, None]
        scaled.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "scaled", scaled)

    @property
    def valid(self) -> np.ndarray:
        """The set's (C, K) mask of valid cells."""
        return self.relational.valid


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

    The returned context is the epoch's snapshot for ``relational``, so its
    checks (a zero-norm prototype, ``u <= 0`` on a valid cell) raise here.
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
    rows = relational.valid_rows
    # ||z - r||^2 = ||z||^2 + ||r||^2 - 2 z.r is one product,
    # [z, ||z||^2, 1] @ [-2 r, 1, ||r||^2]^T, clipped against rounding
    n = feats.shape[0]
    lhs = np.empty((n, d + 2))
    lhs[:, :d] = feats
    lhs[:, d] = np.einsum("ij,ij->i", feats, feats)
    lhs[:, d + 1] = 1.0
    rhs = np.empty((len(rows.rows), d + 2))
    np.multiply(rows.rows, -2.0, out=rhs[:, :d])
    rhs[:, d] = 1.0
    rhs[:, d + 1] = rows.sq_norms
    sq = lhs @ rhs.T
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    u = np.zeros(relational.valid.size)
    u[rows.cells] = sq.sum(axis=0) / n
    return SimilarityContext(relational, u.reshape(relational.valid.shape), tau)


def _rpcl_batch(
    z: np.ndarray, idx: np.ndarray, rows: ValidRows, scaled: np.ndarray,
    grad: np.ndarray, s: np.ndarray, w: np.ndarray, c: np.ndarray,
) -> np.ndarray:
    """Vectorized RPCL over a batch with 0-based class indices ``idx``;
    samples without a valid positive or negative contribute zero.  Returns
    the per-sample losses and writes their gradients into ``grad``; ``s``,
    ``w`` and ``c`` are (n, P) arrays it overwrites."""
    if scaled.shape[0] == 0:
        grad.fill(0.0)
        return np.zeros(len(z))
    zn = np.sqrt(np.einsum("ij,ij->i", z, z))
    if (zn < _EPS).any():
        raise DegenerateVectorError("zero-norm feature vector in batch")
    z_hat = z / zn[:, None]
    np.matmul(z_hat, scaled.T, out=s)           # cos / (u tau)

    np.subtract(s, s.max(axis=1, keepdims=True), out=w)
    np.exp(w, out=w)
    s_all = w.sum(axis=1)
    # the labels were checked, and a take that may clip needs no buffer
    np.take(rows.positive, idx, axis=0, out=c, mode="clip")
    s_pos = np.maximum(np.einsum("ij,ij->i", w, c), _EPS)
    losses = np.log(s_all) - np.log(s_pos)

    # c = w (1 / s_all - pos / s_pos), zero for rows not contrasted
    c *= (-1.0 / s_pos)[:, None]
    c += (1.0 / s_all)[:, None]
    c *= w
    if not rows.all_contrasted:
        active = rows.contrasted[idx]
        losses = np.where(active, losses, 0.0)
        c *= active[:, None]
    z_hat *= np.einsum("ij,ij->i", s, c)[:, None]
    np.matmul(c, scaled, out=grad)
    grad -= z_hat
    grad /= zn[:, None]
    return losses


def _cpdr_batch(
    z: np.ndarray, idx: np.ndarray, consistent: ConsistentSet
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized CPDR with 0-based class indices ``idx``; samples of classes
    without a prototype contribute zero."""
    # one factor per class: 2 / d where the class has a prototype, else 0
    factor = ((2.0 / z.shape[1]) * consistent.present)[idx]
    grad = consistent.o[idx]
    np.subtract(z, grad, out=grad)              # the difference, then its gradient
    losses = np.einsum("ij,ij->i", grad, grad)
    losses *= 0.5 * factor
    grad *= factor[:, None]
    return losses, grad


def _ce_batch(logits: np.ndarray, idx: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy; writes its gradient into ``grad`` and
    overwrites ``logits``."""
    rows = np.arange(len(idx))
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=grad)
    lse = np.log(grad.sum(axis=1))
    losses = lse - logits[rows, idx]
    np.subtract(logits, lse[:, None], out=grad)
    np.exp(grad, out=grad)
    grad[rows, idx] -= 1.0
    return losses


def check_loss_inputs(
    labels: np.ndarray,
    params: ModelParams,
    relational: RelationalSet | None,
    consistent: ConsistentSet | None,
) -> None:
    """What :func:`total_loss` checks at every call without step arrays,
    which a caller that passes them checks once: there is at least one
    label, the labels lie in 1..num_classes, and the prototype sets cover
    that many classes of the feature width."""
    num_classes, d = params.num_classes, params.feature_dim
    if labels.size == 0:
        raise EmptyDatasetError("need at least one labelled row")
    if labels.min() < 1 or labels.max() > num_classes:
        raise LabelOutOfRangeError(f"labels outside 1..{num_classes}")
    if relational is not None and (
            relational.r.shape[0], relational.r.shape[2]) != (num_classes, d):
        raise DimensionMismatchError(
            f"relational prototypes {relational.r.shape} do not match "
            f"{num_classes} classes of dim {d}"
        )
    if consistent is not None and consistent.o.shape != (num_classes, d):
        raise DimensionMismatchError(
            f"consistent prototypes {consistent.o.shape} do not match "
            f"{num_classes} classes of dim {d}"
        )


def total_loss(
    batch: FeatureBatch,
    relational: RelationalSet | None,
    consistent: ConsistentSet | None,
    context: SimilarityContext | None,
    params: ModelParams,
    cpdr_norm: str = CPDR_NORM,
    *,
    arrays: StepArrays | None = None,
) -> LossBreakdown:
    """Batch-mean composite loss CE + RPCL + CPDR with upstream gradients.

    The prototype terms apply only when ``relational``/``consistent`` (and
    ``context``) are given, and per sample only where the sample's class has
    valid prototypes; otherwise they contribute zero, which makes a run
    without prototypes identical to plain cross-entropy training.
    ``cpdr_norm`` accepts only ``CPDR_NORM``, the one CPDR form.  The logits
    are ``[z, 1] @ [v; c]``, from the batch's augmented features.

    With ``arrays`` the gradients are written into them and the inputs are
    not checked: the caller checked them once with
    :func:`check_loss_inputs`, and ``arrays`` has room for every valid
    relational prototype.
    """
    if cpdr_norm != CPDR_NORM:
        raise InvalidArgumentError(f"unknown cpdr norm '{cpdr_norm}'")
    if batch.labels is None:
        raise InvalidArgumentError("batch must carry labels")
    labels = batch.labels
    z = batch.z
    n, d = z.shape
    if arrays is None:
        if labels.shape != (n,):
            raise DimensionMismatchError(
                f"labels shape {labels.shape} does not match {n} feature rows")
        check_loss_inputs(labels, params, relational, consistent)
        logits, grad_logits = np.empty((2, n, params.num_classes))
        grad_z = np.empty((n, d))
    else:
        logits, grad_logits, grad_z = (arrays.logits[:n], arrays.grad_logits[:n],
                                       arrays.grad_z[:n])
    np.matmul(batch.z_aug, params.vc, out=logits)

    idx = labels - 1
    ce_losses = _ce_batch(logits, idx, grad_logits)
    ce = float(ce_losses.sum() / n)
    rpcl = cpdr = 0.0
    rpcl_on = relational is not None and context is not None
    if rpcl_on:
        if context.relational is not relational:
            raise InvalidArgumentError("context was made for another relational set")
        width = len(context.scaled)
        if arrays is None:
            s, w, c = np.empty((3, n, width))
        else:
            s, w, c = (a[:n, :width] for a in (arrays.scores, arrays.weights,
                                               arrays.coef))
        rpcl_losses = _rpcl_batch(z, idx, context.rows, context.scaled, grad_z,
                                  s, w, c)
        rpcl = float(rpcl_losses.sum() / n)
    if consistent is not None:
        cpdr_losses, cpdr_grad = _cpdr_batch(z, idx, consistent)
        cpdr = float(cpdr_losses.sum() / n)
        if rpcl_on:
            grad_z += cpdr_grad
        else:
            grad_z[...] = cpdr_grad
    if rpcl_on or consistent is not None:
        grad_z /= n
    else:
        grad_z.fill(0.0)
    grad_logits /= n
    return LossBreakdown(ce, rpcl, cpdr, ce + rpcl + cpdr, grad_z, grad_logits)
