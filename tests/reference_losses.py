"""Per-sample references for the three loss terms, written for reading.

Each function takes one sample and returns its loss and the loss's
gradient, holding prototypes and normalizers fixed.  ``fedsc.losses``
trains through the batch path in ``total_loss`` alone; the tests pin it
against these.  Where the batch path lets a sample contribute zero (no
positive or no negative relational prototype, or no consistent prototype
for its class), the reference returns ``(0.0, zero gradient)``, so both
describe the same loss.

The batch RPCL folds ``1 / (u tau)`` into the prototypes, so its scores
and gradient may differ from these in the last bits.
"""

import numpy as np

from fedsc.errors import (
    DegeneratePrototypeError,
    DegenerateVectorError,
    InvalidArgumentError,
)
from fedsc.model import forward_features

_EPS = 1e-12


def ce_loss_and_grad(logits, label):
    """Softmax cross-entropy of one sample; gradient is softmax - onehot."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max()
    lse = float(np.log(np.exp(shifted).sum()))
    grad = np.exp(shifted - lse)
    grad[label - 1] -= 1.0
    return lse - float(shifted[label - 1]), grad


def rpcl_loss_and_grad(z, label, relational, context):
    """Contrastive loss of one (d,) feature vector against the relational
    prototypes.

    Positives are the valid prototypes of the sample's class, negatives every
    other class's valid prototype.  A zero-norm feature, a zero-norm valid
    prototype and a valid normalizer ``u <= 0`` raise, as in the batch path,
    whenever any prototype is valid.
    """
    z = np.asarray(z, dtype=np.float64)
    cells = relational.valid
    if not cells.any():
        return 0.0, np.zeros_like(z)
    zn = np.linalg.norm(z)
    if zn < _EPS:
        raise DegenerateVectorError("zero-norm feature vector")

    scores, grads, positive = [], [], []
    for q, k in zip(*np.nonzero(cells)):
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
        positive.append(q == label - 1)

    positive = np.array(positive)
    if positive.all() or not positive.any():
        return 0.0, np.zeros_like(z)
    s = np.array(scores) / context.tau
    w = np.exp(s - s.max())
    s_all = w.sum()
    s_pos = w[positive].sum()
    loss = float(np.log(s_all) - np.log(s_pos))
    coef = (w / s_all - positive * (w / s_pos)) / context.tau
    grad = np.zeros_like(z)
    for c, g in zip(coef, grads):
        grad += c * g
    return loss, grad


def cpdr_loss_and_grad(z, label, consistent):
    """The mean squared distance from one (d,) feature vector to its class's
    consistent prototype, and its gradient in z."""
    z = np.asarray(z, dtype=np.float64)
    if not consistent.present[label - 1]:
        return 0.0, np.zeros_like(z)
    diff = z - consistent.o[label - 1]
    return float((diff**2).mean()), 2.0 * diff / diff.shape[0]


def one_row_batch(params, z, label):
    """A one-row batch whose features are ``z``, the input ``total_loss``
    reads: its label and ``z_aug = [z, 1]``."""
    batch = forward_features(params, np.zeros((1, params.d_in)), [label])
    batch.z[:] = z
    return batch
