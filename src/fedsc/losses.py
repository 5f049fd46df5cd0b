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

The per-sample CE and RPCL functions are the readable reference;
``total_loss`` runs a vectorized batch path that the tests pin against
them.  The batch RPCL folds ``1 / (u tau)`` into the prototypes, so its
scores and gradient may differ from the reference in the last bits.

The batch path spends one numpy call wherever it can, because at training
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
copy.  What depends on the normalizers too is
built once per epoch: ``compute_normalizers`` computes ``u`` and the valid
prototypes scaled by ``1 / (|r| u tau)``, and checks ``u > 0``.  A context
built by hand gets its scaled prototypes from the same method at the first
``total_loss`` call, and so does a computed context passed with a
relational set other than the one it was computed from.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .model import FeatureBatch, ModelParams, StepArrays
from .prototypes import ConsistentSet, RelationalSet, ValidRows

_EPS = 1e-12

CPDR_NORM = "sq"


@dataclass(frozen=True)
class SimilarityContext:
    """Per-prototype distance normalizers U[j, k] plus the temperature.

    A context is a value: it holds read-only copies of ``u`` and ``valid``,
    so the scaled prototypes kept with it cannot go stale.
    """

    u: np.ndarray      # (num_classes, num_clients)
    valid: np.ndarray  # (num_classes, num_clients) bool
    tau: float = 0.05

    def __post_init__(self):
        if np.ndim(self.u) != 2 or np.shape(self.valid) != np.shape(self.u):
            raise DimensionMismatchError(
                f"normalizers u {np.shape(self.u)} and valid "
                f"{np.shape(self.valid)} are not both (C, K)"
            )
        if not 0 < self.tau < np.inf:
            raise InvalidArgumentError("tau must be finite and > 0")
        u = np.array(self.u, dtype=np.float64)
        valid = np.array(self.valid, dtype=bool)
        u.flags.writeable = valid.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "valid", valid)

    def _scaled(self, relational: RelationalSet) -> tuple[ValidRows, np.ndarray]:
        """The set's valid rows over the cells valid in both, and those rows
        scaled by ``1 / (|r| u tau)``; kept for the last set passed.

        Raises ``DegeneratePrototypeError`` for a zero-norm prototype and
        ``InvalidArgumentError`` for ``u <= 0`` on those cells.
        """
        kept = self.__dict__.get("_kept")
        if kept is None or kept[0] is not relational:
            source = relational
            if not (relational.valid <= self.valid).all():
                # a context built by hand may leave out cells the set holds
                source = RelationalSet(relational.r, relational.valid & self.valid)
            rows = source.valid_rows
            u = self.u.take(rows.cells)
            if (u <= 0).any():
                raise InvalidArgumentError("normalizer u must be > 0")
            r_scaled = rows.rows / (rows.norms * u * self.tau)[:, None]
            r_scaled.flags.writeable = False
            kept = (relational, rows, r_scaled)
            object.__setattr__(self, "_kept", kept)
        return kept[1], kept[2]


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

    The returned context is the epoch's snapshot, with its scaled RPCL
    prototypes built from ``relational``: a zero-norm valid prototype raises
    ``DegeneratePrototypeError`` and a valid cell with ``u <= 0`` raises
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
    context = SimilarityContext(u.reshape(relational.valid.shape), relational.valid, tau)
    context._scaled(relational)  # once per epoch, and its errors belong to this call
    return context


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
    z: np.ndarray, idx: np.ndarray, rows: ValidRows, r_scaled: np.ndarray,
    grad: np.ndarray, s: np.ndarray, w: np.ndarray, c: np.ndarray,
) -> np.ndarray:
    """Vectorized RPCL over a batch with 0-based class indices ``idx``;
    samples without a valid positive or negative contribute zero.  Returns
    the per-sample losses and writes their gradients into ``grad``; ``s``,
    ``w`` and ``c`` are (n, P) arrays it overwrites."""
    if r_scaled.shape[0] == 0:
        grad.fill(0.0)
        return np.zeros(len(z))
    zn = np.sqrt(np.einsum("ij,ij->i", z, z))
    if (zn < _EPS).any():
        raise DegenerateVectorError("zero-norm feature vector in batch")
    z_hat = z / zn[:, None]
    np.matmul(z_hat, r_scaled.T, out=s)         # cos / (u tau)

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
    np.matmul(c, r_scaled, out=grad)
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
    context: SimilarityContext | None = None,
) -> None:
    """What :func:`total_loss` checks at every call without step arrays,
    which a caller that passes them checks once: the labels lie in
    1..num_classes, and the prototypes and normalizers fit ``params``."""
    num_classes = params.num_classes
    if labels.min() < 1 or labels.max() > num_classes:
        raise LabelOutOfRangeError(f"labels outside 1..{num_classes}")
    _check_prototype_shapes(num_classes, params.feature_dim, relational,
                            consistent, context)


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
        check_loss_inputs(labels, params, relational, consistent, context)
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
        valid_rows, r_scaled = context._scaled(relational)
        width = len(r_scaled)
        if arrays is None:
            s, w, c = np.empty((3, n, width))
        else:
            s, w, c = (a[:n, :width] for a in (arrays.scores, arrays.weights,
                                               arrays.coef))
        rpcl_losses = _rpcl_batch(z, idx, valid_rows, r_scaled, grad_z, s, w, c)
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
