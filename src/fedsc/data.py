"""Synthetic datasets, heterogeneous client partitions, and the FSD1 file format.

Labels are 1-based class ids in ``{1..num_classes}`` throughout; arrays that
are indexed by class use row ``j`` for label ``j + 1``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    MalformedHeaderError,
    TruncatedFileError,
    check_float_fields,
    check_int,
    check_int_fields,
)

_MAGIC = b"FSD1"
_HEADER = struct.Struct("<4sIII")


@dataclass
class Dataset:
    """A labelled feature matrix.

    Attributes:
        features: float32 array of shape (num_samples, dim).
        labels: int64 array of 1-based class ids, shape (num_samples,).
        num_classes: number of classes the label space covers.
        class_counts: per-class sample counts; entry j counts label j + 1.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    class_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_int_fields(self)
        check_float_fields(self)
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        labels = np.ascontiguousarray(self.labels)
        if self.features.ndim != 2:
            raise DimensionMismatchError("features must be 2-d (samples x dim)")
        if labels.shape != (self.features.shape[0],):
            raise DimensionMismatchError(
                f"labels shape {labels.shape} does not match "
                f"{self.features.shape[0]} samples"
            )
        if self.num_classes < 1:
            raise InvalidArgumentError("num_classes must be >= 1")
        # checked before the int64 cast, which would truncate 1.7 to 1
        outside = (labels < 1) | (labels > self.num_classes)
        bad = outside
        if labels.dtype.kind == "f":
            bad = outside | (labels != np.trunc(labels))  # NaN is unequal to itself
        if bad.any():
            row = int(np.argmax(bad))
            reason = (f"outside 1..{self.num_classes}" if outside[row]
                      else "that is not an integer")
            raise InvalidArgumentError(f"row {row} has label {labels[row]} {reason}")
        self.labels = labels.astype(np.int64, copy=False)
        self.class_counts = np.bincount(self.labels - 1, minlength=self.num_classes)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The rows picked by an index array or a boolean mask, in that order."""
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


@dataclass
class ClientDataset(Dataset):
    """One client's local shard. Clients are 1-based, never empty."""

    client_id: int = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if self.client_id < 1:
            raise InvalidArgumentError("client_id must be >= 1")
        if self.num_samples < 1:
            raise InvalidArgumentError(f"client {self.client_id} has no samples")

    @property
    def total(self) -> int:
        """Alias of ``num_samples``, which ``perfbench`` reads."""
        return self.num_samples


@dataclass
class PartitionConfig:
    """How a global dataset is split across clients.

    ``scheme`` is ``dirichlet`` or ``biased``.  A long-tailed setting thins
    the global dataset with :func:`apply_long_tail` before partitioning.
    """

    scheme: str = "dirichlet"
    num_clients: int = 10
    alpha: float = 0.2
    seed: int = 0

    def __post_init__(self):
        check_int_fields(self)
        check_float_fields(self)
        if self.scheme not in ("dirichlet", "biased"):
            raise InvalidArgumentError(f"unknown partition scheme '{self.scheme}'")
        if self.num_clients < 2:
            raise InvalidArgumentError("num_clients must be >= 2")
        if not 0 < self.alpha < np.inf:
            raise InvalidArgumentError("alpha must be finite and > 0")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be >= 0")


def _check_seed(seed) -> None:
    """The rule ``PartitionConfig`` applies to its seed, with its messages."""
    check_int("seed", seed)
    if seed < 0:
        raise InvalidArgumentError("seed must be >= 0")


def generate_gaussian_blobs(
    num_classes: int,
    per_class_count: int,
    dim: int,
    separation: float = 4.0,
    seed: int = 0,
) -> Dataset:
    """Sample an isotropic Gaussian blob per class.

    Class means are drawn by rejection so every pair sits at least
    ``separation`` apart (unit noise scale); samples are mean + N(0, I).

    Args:
        num_classes: number of blobs, >= 2.
        per_class_count: samples per class, >= 1.
        dim: feature dimensionality, >= 2.
        separation: minimum pairwise distance between class means.
        seed: RNG seed, an integer >= 0; output is a pure function of the
            arguments.
    """
    check_int("num_classes", num_classes)
    check_int("per_class_count", per_class_count)
    check_int("dim", dim)
    if num_classes < 2:
        raise InvalidArgumentError("num_classes must be >= 2")
    if per_class_count < 1:
        raise InvalidArgumentError("per_class_count must be >= 1")
    if dim < 2:
        raise InvalidArgumentError("dim must be >= 2")
    if not 0 < separation < np.inf:
        raise InvalidArgumentError("separation must be finite and > 0")
    _check_seed(seed)

    rng = np.random.default_rng(seed)
    radius = separation * max(1.0, float(num_classes) ** (1.0 / dim))
    means: list[np.ndarray] = []
    misses = 0
    while len(means) < num_classes:
        cand = rng.uniform(-radius, radius, size=dim)
        if all(np.linalg.norm(cand - m) >= separation for m in means):
            means.append(cand)
            misses = 0
        else:
            # widen the search box if placement keeps colliding
            misses += 1
            if misses >= 64:
                radius *= 1.5
                misses = 0

    features = np.empty((num_classes * per_class_count, dim))
    labels = np.empty(num_classes * per_class_count, dtype=np.int64)
    for j, mean in enumerate(means):
        block = slice(j * per_class_count, (j + 1) * per_class_count)
        features[block] = mean + rng.standard_normal((per_class_count, dim))
        labels[block] = j + 1
    return Dataset(features, labels, num_classes)


def split_holdout(
    dataset: Dataset, fraction: float = 0.1, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Hold out ``fraction`` of every class (at least one sample) for evaluation.

    Returns (train, heldout); both preserve the original sample order.
    """
    if not 0 < fraction < 1:
        raise InvalidArgumentError("fraction must lie in (0, 1)")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    held = np.zeros(dataset.num_samples, dtype=bool)
    for j in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == j + 1)
        if idx.size < 2:
            raise InvalidArgumentError(
                f"class {j + 1} needs >= 2 samples to hold out a split"
            )
        take = max(1, int(round(fraction * idx.size)))
        held[rng.choice(idx, size=take, replace=False)] = True
    return dataset.subset(~held), dataset.subset(held)


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``; ties go to the lower index."""
    ideal = proportions * total
    counts = np.floor(ideal).astype(np.int64)
    left = total - int(counts.sum())
    if left > 0:
        order = np.argsort(-(ideal - counts), kind="stable")
        counts[order[:left]] += 1
    return counts


def _dirichlet_owner(
    dataset: Dataset, num_clients: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Per class, client shares drawn from Dirichlet(alpha * 1_K), turned into
    integer counts by largest-remainder rounding.  Each client left empty by
    rounding then receives one sample from the largest client: the last
    sample, in its class's shuffle, of that client's largest class share.
    """
    if num_clients > dataset.num_samples:
        raise InvalidArgumentError(
            f"cannot split {dataset.num_samples} samples across {num_clients} clients"
        )
    perms = []
    counts = np.zeros((num_clients, dataset.num_classes), dtype=np.int64)
    for j in range(dataset.num_classes):
        perms.append(rng.permutation(np.flatnonzero(dataset.labels == j + 1)))
        if perms[j].size:
            shares = rng.dirichlet(np.full(num_clients, alpha))
            counts[:, j] = _largest_remainder(shares, perms[j].size)

    owner = np.empty(dataset.num_samples, dtype=np.int64)
    for j, perm in enumerate(perms):
        owner[perm] = np.repeat(np.arange(num_clients), counts[:, j])
    stops = np.cumsum(counts, axis=0)  # share k of class j ends at perms[j][stops[k, j] - 1]
    while not (totals := counts.sum(axis=1)).all():
        empty, donor = int(np.argmin(totals)), int(np.argmax(totals))
        j = int(np.argmax(counts[donor]))
        # K <= N: a recipient holds 1 sample, never the most, so shares shrink from the end
        stops[donor, j] -= 1
        owner[perms[j][stops[donor, j]]] = empty
        counts[donor, j] -= 1
        counts[empty, j] += 1
    return owner


def _biased_owner(
    dataset: Dataset, num_clients: int, rng: np.random.Generator
) -> np.ndarray:
    """Client K first receives a tenth of every class (rounded down, at least
    one sample per class); the rest of each class block goes to its owner."""
    if dataset.num_classes % (num_clients - 1) != 0:
        raise InvalidArgumentError(
            f"{dataset.num_classes} classes do not split evenly across "
            f"{num_clients - 1} biased clients"
        )
    block = dataset.num_classes // (num_clients - 1)
    owner = np.empty(dataset.num_samples, dtype=np.int64)
    for j in range(dataset.num_classes):
        idx = rng.permutation(np.flatnonzero(dataset.labels == j + 1))
        if idx.size < 2:
            raise InvalidArgumentError(
                f"class {j + 1} needs >= 2 samples for a biased split"
            )
        take = max(1, int(np.floor(0.1 * idx.size)))
        owner[idx[:take]] = num_clients - 1
        owner[idx[take:]] = j // block
    return owner


def partition_dataset(dataset: Dataset, config: PartitionConfig) -> list[ClientDataset]:
    """Split a dataset across ``config.num_clients`` clients.

    ``dirichlet`` draws each class's client shares from Dirichlet(alpha) and
    leaves no client empty.  ``biased`` gives K - 1 clients disjoint class
    blocks and one client a tenth of every class; it needs num_classes
    divisible by K - 1.  Client k + 1 holds the samples marked k in one
    owner vector, in dataset order.
    """
    rng = np.random.default_rng(config.seed)
    if config.scheme == "dirichlet":
        owner = _dirichlet_owner(dataset, config.num_clients, config.alpha, rng)
    else:
        owner = _biased_owner(dataset, config.num_clients, rng)
    masks = owner == np.arange(config.num_clients)[:, None]  # row k: client k + 1
    return [ClientDataset(dataset.features[m], dataset.labels[m], dataset.num_classes,
                          client_id=k + 1) for k, m in enumerate(masks)]


def apply_long_tail(dataset: Dataset, rho: float, seed: int = 0) -> Dataset:
    """Thin a class-balanced dataset to an exponential long-tail profile.

    Class j keeps floor(n_max * rho^(-j / (|C| - 1))) samples, chosen at
    random; surviving samples keep their original order, so rho = 1 is the
    identity.
    """
    if not 1 <= rho < np.inf:
        raise InvalidArgumentError("rho must be finite and >= 1")
    _check_seed(seed)
    counts = dataset.class_counts
    if counts.size < 2:
        raise InvalidArgumentError("long-tail thinning needs >= 2 classes")
    if not (counts == counts[0]).all():
        raise InvalidArgumentError(
            "long-tail thinning expects a class-balanced dataset"
        )
    j = np.arange(counts.size)
    keep = np.floor(int(counts[0]) * rho ** (-j / (counts.size - 1))).astype(np.int64)
    if keep[-1] < 1:
        raise InvalidArgumentError(
            f"rho={rho} empties the rarest class ({counts[0]} per class)"
        )
    rng = np.random.default_rng(seed)
    kept = np.zeros(dataset.num_samples, dtype=bool)
    for j in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == j + 1)
        kept[rng.choice(idx, size=keep[j], replace=False)] = True
    return dataset.subset(kept)


def save_dataset(path, dataset: Dataset) -> None:
    """Write the FSD1 container: magic, u32 counts, then f32 rows + u32 labels."""
    record = np.dtype([("x", "<f4", (dataset.dim,)), ("y", "<u4")])
    body = np.empty(dataset.num_samples, dtype=record)
    body["x"] = dataset.features
    body["y"] = dataset.labels.astype(np.uint32)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, dataset.num_samples, dataset.dim,
                              dataset.num_classes))
        fh.write(body.tobytes())


def load_dataset(path) -> Dataset:
    """Read an FSD1 container written by :func:`save_dataset`.

    Every feature must be finite and every label in ``1..num_classes`` of
    the header; the error names the file and the first bad row (0-based).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise MalformedHeaderError(f"{path}: header truncated at {len(raw)} bytes")
    magic, n, dim, num_classes = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise MalformedHeaderError(f"{path}: bad magic {magic!r}")
    if dim < 1 or num_classes < 1:
        raise DimensionMismatchError(
            f"{path}: header declares dim={dim}, num_classes={num_classes}"
        )
    expected = _HEADER.size + n * (4 * dim + 4)
    if len(raw) != expected:
        raise TruncatedFileError(
            f"{path}: expected {expected} bytes for {n} samples, found {len(raw)}"
        )
    # each record is dim float32 features then a uint32 label, 4 bytes a word
    words = np.frombuffer(raw, dtype="<u4", offset=_HEADER.size).reshape(n, dim + 1)
    # frombuffer views are read-only; copy into owned arrays
    features = words[:, :dim].view("<f4").astype(np.float32)
    labels = words[:, dim].astype(np.int64)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise InvalidArgumentError(f"{path}: row {row} has a NaN or infinite feature")
    try:
        return Dataset(features, labels, num_classes)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc
