"""Prototype collaboration pipeline.

Per round the server turns client class prototypes into relational and
consistent prototypes:

    client means -> global means -> angular differences -> top-M adjacency
    -> relational prototypes -> discrepancy-aware weights -> consistent
    prototypes

Class axes are 0-based (row j holds label j + 1); client axes follow the
1-based client ids in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePrototypeError,
    DimensionMismatchError,
    EmptyClientError,
    InvalidArgumentError,
)

_EPS = 1e-12


@dataclass
class PrototypeSet:
    """One client's per-class feature means.

    ``vectors[j]`` is meaningful only where ``present[j]`` is True (the owner
    holds at least one sample of class j + 1).
    """

    vectors: np.ndarray  # (num_classes, d)
    present: np.ndarray  # (num_classes,) bool
    owner: int = 0

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.present = np.asarray(self.present, dtype=bool)
        if self.vectors.ndim != 2 or self.present.shape != (self.vectors.shape[0],):
            raise DimensionMismatchError("prototype set shapes are inconsistent")


@dataclass
class GlobalPrototypes:
    """Average of client prototypes over the clients that hold each class."""

    vectors: np.ndarray  # (num_classes, d)


@dataclass
class AngularTable:
    """Cosine of each client prototype against the global one, per class."""

    phi: np.ndarray    # (num_classes, num_clients)
    valid: np.ndarray  # (num_classes, num_clients) bool


@dataclass
class AdjacencyTensor:
    """Per class, each client's self-plus-top-M angular neighbourhood."""

    a: np.ndarray  # (num_classes, num_clients, num_clients) uint8


@dataclass
class RelationalSet:
    """Neighbourhood-averaged prototypes r[j, k]."""

    r: np.ndarray      # (num_classes, num_clients, d)
    valid: np.ndarray  # (num_classes, num_clients) bool


@dataclass
class DiscrepancyWeights:
    """Sigmoid weights favouring large, label-balanced clients."""

    discrepancies: np.ndarray  # (num_clients,)
    weights: np.ndarray        # (num_clients,) nonnegative, sums to 1


@dataclass
class ConsistentSet:
    """Weight-averaged relational prototypes o[j], one row per class."""

    o: np.ndarray        # (num_classes, d)
    present: np.ndarray  # (num_classes,) bool


@dataclass
class Collaboration:
    """Everything the server derives from one batch of prototype sets."""

    global_prototypes: GlobalPrototypes
    angular: AngularTable
    adjacency: AdjacencyTensor
    relational: RelationalSet
    weights: DiscrepancyWeights
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


def compute_global_prototypes(sets: list[PrototypeSet]) -> GlobalPrototypes:
    """Average client prototypes per class over the clients that hold it.

    A class no client holds gets a zero row.
    """
    if not sets:
        raise InvalidArgumentError("need at least one prototype set")
    vectors = np.stack([s.vectors for s in sets])   # (K, C, d)
    present = np.stack([s.present for s in sets])   # (K, C)
    support = present.sum(axis=0)
    masked = np.where(present[:, :, None], vectors, 0.0)
    totals = masked.sum(axis=0)
    denom = np.maximum(support, 1)[:, None]
    return GlobalPrototypes(totals / denom)


def angular_differences(
    global_prototypes: GlobalPrototypes, sets: list[PrototypeSet]
) -> AngularTable:
    """Cosine similarity phi[j, k] between g_j and client k's prototype.

    Entries are valid where the client holds the class.  A zero-norm
    prototype on a valid entry is degenerate; the error names the first such
    entry in client-major order.
    """
    g = global_prototypes.vectors                       # (C, d)
    vectors = np.stack([s.vectors for s in sets])       # (K, C, d)
    valid = np.stack([s.present for s in sets])         # (K, C)
    g_norm = np.linalg.norm(g, axis=1)
    c_norm = np.linalg.norm(vectors, axis=2)
    degenerate = valid & ((g_norm < _EPS) | (c_norm < _EPS))
    if degenerate.any():
        k, j = np.argwhere(degenerate)[0]
        raise DegeneratePrototypeError(
            f"zero-norm prototype for class {j + 1}, client {sets[k].owner or k + 1}"
        )
    dots = np.einsum("jd,kjd->kj", g, vectors)
    phi = np.divide(dots, g_norm * c_norm, out=np.zeros_like(dots), where=valid)
    return AngularTable(phi.T, valid.T)


def build_adjacency(table: AngularTable, neighbors: int) -> AdjacencyTensor:
    """Self plus the M clients with closest angular difference, per class.

    Neighbour candidates are the other clients valid for the class; ties on
    the absolute angular difference go to the lower client index.  Rows for
    clients that lack the class stay all-zero.
    """
    if neighbors < 0:
        raise InvalidArgumentError("neighbors must be >= 0")
    num_classes, num_clients = table.phi.shape
    a = np.zeros((num_classes, num_clients, num_clients), dtype=np.uint8)
    for j in range(num_classes):
        idx = np.flatnonzero(table.valid[j])
        take = min(neighbors, idx.size - 1)
        if take > 0:
            phi = table.phi[j, idx]
            diffs = np.abs(phi[None, :] - phi[:, None])  # row k: |phi_q - phi_k|
            np.fill_diagonal(diffs, np.inf)              # never its own neighbour
            # what a stable sort would put first: every difference below the
            # take-th smallest, then ties at it in ascending client order
            cut = np.partition(diffs, take - 1, axis=1)[:, take - 1, None]
            below, tied = diffs < cut, diffs == cut
            room = take - below.sum(axis=1, keepdims=True)
            a[j][np.ix_(idx, idx)] = below | (tied & (np.cumsum(tied, axis=1) <= room))
        a[j, idx, idx] = 1
    return AdjacencyTensor(a)


def relational_prototypes(
    adjacency: AdjacencyTensor, sets: list[PrototypeSet]
) -> RelationalSet:
    """Average each client's selected neighbourhood of class prototypes.

    r[j, k] = sum_q a[j, k, q] v[q, j] / sum_q a[j, k, q], one product per
    class so the scratch stays O(K^2); rows with no neighbour stay zero.
    """
    num_classes, num_clients, _ = adjacency.a.shape
    if len(sets) != num_clients:
        raise DimensionMismatchError(
            f"adjacency covers {num_clients} clients, got {len(sets)} sets"
        )
    # absent rows are meaningless (may be NaN) and 0 * NaN would leak
    vectors = np.stack([np.where(s.present[:, None], s.vectors, 0.0)
                        for s in sets])               # (K, C, d)
    count = adjacency.a.sum(axis=2)                   # (C, K)
    r = np.empty((num_classes, num_clients, vectors.shape[2]))
    for j in range(num_classes):
        r[j] = adjacency.a[j] @ vectors[:, j] / np.maximum(count[j], 1)[:, None]
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
        raise EmptyClientError("client has no samples")
    ratios = counts / total
    uniform = 1.0 / counts.shape[-1]
    return np.sqrt(0.5 * np.sum((ratios - uniform) ** 2, axis=-1))


def aggregation_weights(
    sample_counts: np.ndarray, discrepancies: np.ndarray
) -> DiscrepancyWeights:
    """Normalized sigmoid weights e_k from sizes and label-skew discrepancies.

    e_k = sigmoid(a n_k - b d_k) / sum_i sigmoid(a n_i - b d_i) with
    a = 1 / sum(n) and b = 1 / sum(d) (b = 0 when every discrepancy is 0).
    """
    n = np.asarray(sample_counts, dtype=np.float64)
    d = np.asarray(discrepancies, dtype=np.float64)
    if n.shape != d.shape or n.ndim != 1 or n.size == 0:
        raise DimensionMismatchError("counts and discrepancies must be equal-length 1-d")
    if (n <= 0).any():
        raise EmptyClientError("every client must hold at least one sample")
    if (d < 0).any():
        raise InvalidArgumentError("discrepancies must be >= 0")
    a = 1.0 / n.sum()
    d_total = d.sum()
    b = 0.0 if d_total == 0 else 1.0 / d_total
    raw = 1.0 / (1.0 + np.exp(-(a * n - b * d)))
    return DiscrepancyWeights(d, raw / raw.sum())


def consistent_prototypes(
    relational: RelationalSet, weights: DiscrepancyWeights
) -> ConsistentSet:
    """Weighted average of relational prototypes across clients, per class.

    Clients lacking a class get zero weight and the remaining weights are
    renormalized for that class; a class no client holds gets a zero row
    and a False mask entry.
    """
    num_classes, num_clients, d = relational.r.shape
    if weights.weights.shape != (num_clients,):
        raise DimensionMismatchError("weights do not match the client axis")
    w = np.where(relational.valid, weights.weights, 0.0)   # (C, K)
    w_total = w.sum(axis=1)
    present = w_total > 0
    w = np.divide(w, w_total[:, None], out=np.zeros_like(w), where=present[:, None])
    return ConsistentSet(np.einsum("jk,jkd->jd", w, relational.r), present)


def build_collaboration(
    sets: list[PrototypeSet], class_counts: np.ndarray, neighbors: int
) -> Collaboration:
    """Run the full server-side pipeline for one batch of client reports.

    Args:
        sets: prototype sets in ascending client-id order.
        class_counts: (num_clients, num_classes) per-client label histograms.
        neighbors: adjacency size M.
    """
    counts = np.asarray(class_counts)
    if counts.ndim != 2 or counts.shape[0] != len(sets):
        raise DimensionMismatchError("class_counts must be (num_clients, num_classes)")
    global_prototypes = compute_global_prototypes(sets)
    angular = angular_differences(global_prototypes, sets)
    adjacency = build_adjacency(angular, neighbors)
    relational = relational_prototypes(adjacency, sets)
    weights = aggregation_weights(counts.sum(axis=1), client_discrepancy(counts))
    consistent = consistent_prototypes(relational, weights)
    return Collaboration(global_prototypes, angular, adjacency, relational,
                         weights, consistent)
