"""Prototype collaboration pipeline.

Per round the server turns client class prototypes into relational and
consistent prototypes:

    client means -> global means -> angular differences -> top-M adjacency
    -> relational prototypes -> discrepancy-aware weights -> consistent
    prototypes

``build_collaboration`` stacks the K reports once, into (K, C, d) vectors
and a (K, C) presence mask, and each stage takes and returns plain arrays;
only the relational and consistent prototypes, which the clients' losses
read, keep their ``RelationalSet`` and ``ConsistentSet`` masks.  Class axes
are 0-based (row j holds label j + 1); client axes follow the 1-based client
ids in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePrototypeError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidArgumentError,
)

_EPS = 1e-12


@dataclass
class PrototypeSet:
    """One client's per-class feature means.

    ``present[j]`` is True where the owner holds at least one sample of class
    j + 1.  The rows of absent classes are zeroed on construction, into a new
    array, whatever the caller passed there (NaN included).
    """

    vectors: np.ndarray  # (num_classes, d)
    present: np.ndarray  # (num_classes,) bool
    owner: int = 0

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.present = np.asarray(self.present, dtype=bool)
        if self.vectors.ndim != 2 or self.present.shape != (self.vectors.shape[0],):
            raise DimensionMismatchError("prototype set shapes are inconsistent")
        self.vectors = np.where(self.present[:, None], self.vectors, 0.0)


@dataclass
class RelationalSet:
    """Neighbourhood-averaged prototypes r[j, k]."""

    r: np.ndarray      # (num_classes, num_clients, d)
    valid: np.ndarray  # (num_classes, num_clients) bool

    def __post_init__(self):
        if np.ndim(self.r) != 3 or np.shape(self.valid) != np.shape(self.r)[:2]:
            raise DimensionMismatchError(
                f"relational r {np.shape(self.r)} and valid "
                f"{np.shape(self.valid)} are not (C, K, d) and (C, K)"
            )


@dataclass
class ConsistentSet:
    """Weight-averaged relational prototypes o[j], one row per class."""

    o: np.ndarray        # (num_classes, d)
    present: np.ndarray  # (num_classes,) bool

    def __post_init__(self):
        if np.ndim(self.o) != 2 or np.shape(self.present) != np.shape(self.o)[:1]:
            raise DimensionMismatchError(
                f"consistent o {np.shape(self.o)} and present "
                f"{np.shape(self.present)} are not (C, d) and (C,)"
            )


@dataclass
class Collaboration:
    """Everything the server derives from one batch of prototype sets."""

    global_prototypes: np.ndarray  # (num_classes, d)
    phi: np.ndarray                # (num_classes, num_clients)
    adjacency: np.ndarray          # (num_classes, num_clients, num_clients) uint8
    relational: RelationalSet
    discrepancies: np.ndarray      # (num_clients,)
    weights: np.ndarray            # (num_clients,) nonnegative, sums to 1
    consistent: ConsistentSet


def prototypes_from_features(
    z: np.ndarray, labels: np.ndarray, num_classes: int, owner: int = 0
) -> PrototypeSet:
    """Mean feature vector per class of a labelled feature matrix.

    Classes without a sample get a zero row and a False mask entry.  ``owner``
    is the 1-based id of the owning client (0 = unowned).
    """
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    vectors = np.zeros((num_classes, z.shape[1]))
    present = np.zeros(num_classes, dtype=bool)
    for j in range(num_classes):
        rows = z[labels == j + 1]
        if len(rows):
            vectors[j] = rows.mean(axis=0)
            present[j] = True
    return PrototypeSet(vectors, present, owner)


def compute_global_prototypes(vectors: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Average client prototypes per class over the clients that hold it.

    ``vectors`` is (K, C, d) and ``present`` (K, C); the result is (C, d).
    A class no client holds gets a zero row.
    """
    support = present.sum(axis=0)
    denom = np.maximum(support, 1)[:, None]
    return vectors.sum(axis=0) / denom


def angular_differences(
    g: np.ndarray, vectors: np.ndarray, present: np.ndarray, owners: list[int]
) -> np.ndarray:
    """Cosine similarity phi[j, k] between g_j and client k's prototype.

    Returns (C, K), zero where the client lacks the class.  A zero-norm
    prototype on a present entry is degenerate; the error names the first
    such entry in client-major order, with client k as ``owners[k]`` (or
    k + 1 when that is 0).
    """
    g_norm = np.linalg.norm(g, axis=1)
    c_norm = np.linalg.norm(vectors, axis=2)
    degenerate = present & ((g_norm < _EPS) | (c_norm < _EPS))
    if degenerate.any():
        k, j = np.argwhere(degenerate)[0]
        raise DegeneratePrototypeError(
            f"zero-norm prototype for class {j + 1}, client {owners[k] or k + 1}"
        )
    dots = np.einsum("jd,kjd->kj", g, vectors)
    phi = np.divide(dots, g_norm * c_norm, out=np.zeros_like(dots), where=present)
    return phi.T


def build_adjacency(phi: np.ndarray, valid: np.ndarray, neighbors: int) -> np.ndarray:
    """Self plus the M clients with closest angular difference, per class.

    ``phi`` and ``valid`` are (C, K); the result is the (C, K, K) uint8
    adjacency.  Neighbour candidates are the other clients valid for the
    class.  Each of the min(M, n_valid - 1) passes takes every client's
    nearest remaining candidate by ``argmin``, whose first minimum makes ties
    on the absolute angular difference go to the lower client index.  Rows
    for clients that lack the class stay all-zero.
    """
    if neighbors < 0:
        raise InvalidArgumentError("neighbors must be >= 0")
    num_classes, num_clients = phi.shape
    a = np.zeros((num_classes, num_clients, num_clients), dtype=np.uint8)
    for j in range(num_classes):
        idx = np.flatnonzero(valid[j])
        phi_j = phi[j, idx]
        diffs = np.abs(phi_j[None, :] - phi_j[:, None])  # row k: |phi_q - phi_k|
        np.fill_diagonal(diffs, np.inf)                  # never its own neighbour
        rows = np.arange(idx.size)
        for _ in range(min(neighbors, idx.size - 1)):
            nbr = diffs.argmin(axis=1)
            a[j, idx, idx[nbr]] = 1
            diffs[rows, nbr] = np.inf
        a[j, idx, idx] = 1
    return a


def relational_prototypes(adjacency: np.ndarray, vectors: np.ndarray) -> RelationalSet:
    """Average each client's selected neighbourhood of class prototypes.

    r[j, k] = sum_q a[j, k, q] v[q, j] / sum_q a[j, k, q], one product per
    class so the scratch stays O(K^2); rows with no neighbour stay zero.
    """
    num_classes, num_clients, _ = adjacency.shape
    if vectors.shape[0] != num_clients:
        raise DimensionMismatchError(
            f"adjacency covers {num_clients} clients, vectors {vectors.shape[0]}"
        )
    count = adjacency.sum(axis=2)                     # (C, K)
    r = np.empty((num_classes, num_clients, vectors.shape[2]))
    for j in range(num_classes):
        r[j] = adjacency[j] @ vectors[:, j] / np.maximum(count[j], 1)[:, None]
    return RelationalSet(r, count > 0)


def client_discrepancy(class_counts: np.ndarray) -> float | np.ndarray:
    """Distance of a client's label histogram from uniform.

    d = sqrt(0.5 * sum_j (n_j / n - 1/|C|)^2); 0 for a perfectly balanced
    client, approaching sqrt((|C| - 1) / (2 |C|)) as it concentrates on one
    class.  A (num_clients, num_classes) table gives one value per row.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    total = counts.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise EmptyDatasetError("client has no samples")
    ratios = counts / total
    uniform = 1.0 / counts.shape[-1]
    return np.sqrt(0.5 * np.sum((ratios - uniform) ** 2, axis=-1))


def aggregation_weights(
    sample_counts: np.ndarray, discrepancies: np.ndarray
) -> np.ndarray:
    """Normalized sigmoid weights e_k from sizes and label-skew discrepancies.

    e_k = sigmoid(a n_k - b d_k) / sum_i sigmoid(a n_i - b d_i) with
    a = 1 / sum(n) and b = 1 / sum(d) (b = 0 when every discrepancy is 0).
    """
    n = np.asarray(sample_counts, dtype=np.float64)
    d = np.asarray(discrepancies, dtype=np.float64)
    if n.shape != d.shape or n.ndim != 1 or n.size == 0:
        raise DimensionMismatchError("counts and discrepancies must be equal-length 1-d")
    if (n <= 0).any():
        raise EmptyDatasetError("every client must hold at least one sample")
    if (d < 0).any():
        raise InvalidArgumentError("discrepancies must be >= 0")
    a = 1.0 / n.sum()
    d_total = d.sum()
    b = 0.0 if d_total == 0 else 1.0 / d_total
    raw = 1.0 / (1.0 + np.exp(-(a * n - b * d)))
    return raw / raw.sum()


def consistent_prototypes(relational: RelationalSet, weights: np.ndarray) -> ConsistentSet:
    """Weighted average of relational prototypes across clients, per class.

    Clients lacking a class get zero weight and the remaining weights are
    renormalized for that class; a class no client holds gets a zero row
    and a False mask entry.
    """
    num_classes, num_clients, d = relational.r.shape
    if weights.shape != (num_clients,):
        raise DimensionMismatchError("weights do not match the client axis")
    w = np.where(relational.valid, weights, 0.0)   # (C, K)
    w_total = w.sum(axis=1)
    present = w_total > 0
    w = np.divide(w, w_total[:, None], out=np.zeros_like(w), where=present[:, None])
    return ConsistentSet(np.einsum("jk,jkd->jd", w, relational.r), present)


def build_collaboration(
    sets: list[PrototypeSet], class_counts: np.ndarray, neighbors: int
) -> Collaboration:
    """Run the full server-side pipeline for one batch of client reports.

    The one place that stacks the reports: every stage reads the (K, C, d)
    vectors and (K, C) presence built here.

    Args:
        sets: prototype sets in ascending client-id order, all (C, d).
        class_counts: (num_clients, num_classes) per-client label histograms.
        neighbors: adjacency size M.
    """
    if not sets:
        raise InvalidArgumentError("need at least one prototype set")
    shape = sets[0].vectors.shape
    for k, s in enumerate(sets):
        if s.vectors.shape != shape:
            raise DimensionMismatchError(
                f"client {s.owner or k + 1} prototypes are {s.vectors.shape}, "
                f"the first set's are {shape}"
            )
    counts = np.asarray(class_counts)
    if counts.shape != (len(sets), shape[0]):
        raise DimensionMismatchError(
            f"class_counts is {counts.shape}, expected (num_clients, num_classes) "
            f"= {(len(sets), shape[0])}"
        )
    vectors = np.stack([s.vectors for s in sets])   # (K, C, d)
    present = np.stack([s.present for s in sets])   # (K, C)
    g = compute_global_prototypes(vectors, present)
    phi = angular_differences(g, vectors, present, [s.owner for s in sets])
    adjacency = build_adjacency(phi, present.T, neighbors)
    relational = relational_prototypes(adjacency, vectors)
    discrepancies = client_discrepancy(counts)
    weights = aggregation_weights(counts.sum(axis=1), discrepancies)
    consistent = consistent_prototypes(relational, weights)
    return Collaboration(g, phi, adjacency, relational, discrepancies, weights,
                         consistent)
