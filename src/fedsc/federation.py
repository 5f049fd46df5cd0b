"""Round-based federation: local SGD on the composite loss, size-weighted
model averaging, and the server-side prototype rebuild.

Every quantity is a deterministic function of (config, seed): client RNGs are
derived from (seed, round, client id), the server's sampling RNG from the
seed alone, so FedAvg and FedSC runs with the same seed see identical client
selections and identical round-1 training (round 1 is CE-only for both, since
no prototypes exist yet).
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import BrokenExecutor, Executor, ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .data import ClientDataset, Dataset, PartitionConfig, partition_dataset
from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    FedscError,
    InvalidArgumentError,
    MalformedCsvError,
    WorkerLostError,
    check_float_fields,
    check_int_fields,
)
from .losses import CPDR_NORM, check_loss_inputs, compute_normalizers, total_loss
from .model import (
    ModelParams,
    OptimizerConfig,
    StepArrays,
    backward,
    evaluate_accuracy,
    extract_features,
    forward_features,
    init_params,
    sgd_step,
)
from .prototypes import (
    ConsistentSet,
    PrototypeSet,
    RelationalSet,
    build_collaboration,
    prototypes_from_features,
)

# seed-derivation domains so data, init, sampling, and clients draw from
# unrelated streams
_TAG_INIT = 11
_TAG_SAMPLE = 22
_TAG_CLIENT = 33

@dataclass
class FederationConfig:
    """Knobs for one federated run."""

    rounds: int = 100
    num_clients: int = 10
    local_epochs: int = 10
    participation_fraction: float = 1.0
    neighbors: int = 2
    temperature: float = 0.05
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    algorithm: str = "fedsc"
    seed: int = 0
    hidden_dim: int = 64
    feature_dim: int = 32
    threads: int = 1
    # not a field: CPDR has one form, and perfbench's loss probe reads this
    cpdr_norm = CPDR_NORM

    def __post_init__(self):
        check_int_fields(self)
        check_float_fields(self)
        if self.rounds < 1:
            raise InvalidArgumentError("rounds must be >= 1")
        if self.num_clients < 1:
            raise InvalidArgumentError("num_clients must be >= 1")
        if self.local_epochs < 1:
            raise InvalidArgumentError("local_epochs must be >= 1")
        if not 0 < self.participation_fraction <= 1:
            raise InvalidArgumentError("participation_fraction must lie in (0, 1]")
        if self.neighbors < 0:
            raise InvalidArgumentError("neighbors must be >= 0")
        if not 0 < self.temperature < np.inf:
            raise InvalidArgumentError("temperature must be finite and > 0")
        if self.algorithm not in ("fedavg", "fedsc"):
            raise InvalidArgumentError(f"unknown algorithm '{self.algorithm}'")
        if self.threads < 1:
            raise InvalidArgumentError("threads must be >= 1")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be >= 0")
        if self.hidden_dim < 1:
            raise InvalidArgumentError("hidden_dim must be >= 1")
        if self.feature_dim < 1:
            raise InvalidArgumentError("feature_dim must be >= 1")


@dataclass
class ClientUpdate:
    """What one client sends back: new weights, prototypes, loss means."""

    params: ModelParams
    prototypes: PrototypeSet
    ce: float
    rpcl: float
    cpdr: float
    total: float


@dataclass
class RoundMetrics:
    round: int
    accuracy: float
    loss_total: float
    loss_ce: float
    loss_rpcl: float
    loss_cpdr: float
    wall_ms: float


CSV_HEADER = [f.name for f in fields(RoundMetrics)]


@dataclass(frozen=True)
class ServerState:
    """What the next round reads: the global model, each client's latest
    prototypes by client id, and the relational and consistent prototypes
    built from them (None until round 1 ends).  :func:`run_round` returns
    the next state and never writes the one it is given."""

    params: ModelParams
    round_index: int = 0
    latest_prototypes: dict[int, PrototypeSet] = field(default_factory=dict)
    relational: RelationalSet | None = None
    consistent: ConsistentSet | None = None


@dataclass
class ExperimentResult:
    metrics: list[RoundMetrics]
    state: ServerState


def run_client(
    global_params: ModelParams,
    dataset: ClientDataset,
    config: FederationConfig,
    round_index: int,
    relational: RelationalSet | None = None,
    consistent: ConsistentSet | None = None,
    *,
    workers: Executor | None = None,
) -> ClientUpdate:
    """Train one client: in this process, or in one of ``workers`` while
    this call waits for the update.

    A ``FedscError`` from the local work is raised again as the same class
    with ``round R, client K: `` before its message, wherever it trained.  A
    worker that died, leaving ``workers`` broken, raises ``WorkerLostError``
    with the same prefix.
    """
    task = (global_params, dataset, config, round_index, relational, consistent)
    where = f"round {round_index}, client {dataset.client_id}"
    try:
        if workers is None:
            return _train_client(*task)
        return workers.submit(_train_client, *task).result()
    except FedscError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    except BrokenExecutor as exc:
        raise WorkerLostError(f"{where}: client worker process died") from exc


def _train_client(
    global_params: ModelParams,
    dataset: ClientDataset,
    config: FederationConfig,
    round_index: int,
    relational: RelationalSet | None,
    consistent: ConsistentSet | None,
) -> ClientUpdate:
    """Local epochs of minibatch SGD, then prototypes from the final extractor.

    The momentum buffer starts at zero on every call.  The composite loss
    applies exactly when both relational and consistent prototypes are
    given; otherwise training is plain cross-entropy.  The server decides
    which: :func:`run_round` sends fedavg clients none.  The final
    prototypes read whole-shard features from ``extract_features``, which
    streams the shard in row blocks.
    """
    params = global_params.copy()
    if relational is None or consistent is None:
        relational = consistent = None
    terms = _local_epochs(params, dataset, config, round_index, relational, consistent)
    final_z = extract_features(params, dataset.features)
    prototypes = prototypes_from_features(final_z, dataset.labels, dataset.num_classes,
                                          owner=dataset.client_id)
    ce, rpcl, cpdr, tot = (np.sum(terms, axis=0) / len(terms)).tolist()
    return ClientUpdate(params, prototypes, ce, rpcl, cpdr, tot)


def _local_epochs(
    params: ModelParams,
    dataset: ClientDataset,
    config: FederationConfig,
    round_index: int,
    relational: RelationalSet | None,
    consistent: ConsistentSet | None,
) -> list[tuple[float, float, float, float]]:
    """Train ``params`` in place and return each step's (ce, rpcl, cpdr,
    total).

    The steps write into one :class:`StepArrays`, freed when this returns,
    so the labels and prototype shapes are checked once per call and the
    context once per epoch, by ``compute_normalizers``, which recomputes the
    distance normalizers from a feature snapshot at every epoch start.  Only
    the step's minibatches keep activations for backward.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, _TAG_CLIENT, round_index,
                                dataset.client_id))
    )
    buf = np.zeros(params.flat.size)
    x, y = dataset.features, dataset.labels
    check_loss_inputs(y, params, relational, consistent)
    width = 0 if relational is None else len(relational.valid_rows.cells)
    size = config.optimizer.batch_size
    arrays = StepArrays(params, x, size, width)
    terms = []
    for _ in range(config.local_epochs):
        context = None
        if relational is not None:
            snapshot = extract_features(params, x)
            context = compute_normalizers(snapshot, relational, config.temperature)
        order = rng.permutation(dataset.num_samples)
        # each epoch's minibatches are consecutive slices of one shuffled copy
        xs, ys = arrays.shard[order], y[order]
        for start in range(0, dataset.num_samples, size):
            fb = forward_features(params, xs[start:start + size],
                                  ys[start:start + size], arrays=arrays)
            breakdown = total_loss(fb, relational, consistent, context, params,
                                   arrays=arrays)
            grads = backward(params, fb, breakdown.grad_z, breakdown.grad_logits,
                             arrays=arrays)
            sgd_step(params, grads, buf, config.optimizer)
            terms.append((breakdown.ce, breakdown.rpcl, breakdown.cpdr, breakdown.total))
    return terms


def aggregate_models(
    contributions: list[tuple[ModelParams, int]]
) -> ModelParams:
    """Sample-count-weighted average of model weights.

    Computed in delta form around the first contributor so averaging
    identical models reproduces them bit for bit.
    """
    if not contributions:
        raise InvalidArgumentError("nothing to aggregate")
    counts = np.array([n for _, n in contributions], dtype=np.float64)
    if (counts <= 0).any():
        raise InvalidArgumentError("sample counts must be positive")
    weights = counts / counts.sum()
    base = contributions[0][0]
    shapes = [a.shape for a in base.weights().values()]
    for params, _ in contributions[1:]:
        if [a.shape for a in params.weights().values()] != shapes:
            raise DimensionMismatchError("models to aggregate differ in layout")
    acc = base.flat.copy()
    for (params, _), w in zip(contributions, weights):
        acc += w * (params.flat - base.flat)
    return base.with_flat(acc)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _ClientPool:
    """Trains a round's clients on ``size`` worker processes.

    A round's clients are dispatched from up to two threads per worker, each
    of which calls ``train`` and waits for the update, so every worker has a
    client queued behind the one it trains.  The workers are forked at the
    first round that uses them and live until :meth:`close`.  Python 3.11's
    ``ProcessPoolExecutor`` forks every worker at its first submit, from the
    submitting thread, so that submit is made here, on the calling thread,
    before any dispatch thread exists.  The process machinery is imported
    only then, so serial runs never load it.
    """

    def __init__(self, size: int):
        self.size = size
        self._executor = None

    def map(self, train, clients: list[ClientDataset]) -> list[ClientUpdate]:
        """``train(client, workers)`` for every client, in client order."""
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            self._executor = ProcessPoolExecutor(
                self.size, mp_context=multiprocessing.get_context("fork"))
            self._executor.submit(int)
        # no worker waits for the parent to hand it its next client
        with ThreadPoolExecutor(max_workers=min(len(clients), 2 * self.size)) as dispatch:
            return list(dispatch.map(lambda c: train(c, self._executor), clients))

    def close(self) -> None:
        """Shut the workers down and wait for them to exit."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


def run_round(
    state: ServerState,
    clients: list[ClientDataset],
    config: FederationConfig,
    rng: np.random.Generator,
    test: Dataset,
    *,
    pool: _ClientPool | None = None,
) -> tuple[ServerState, RoundMetrics]:
    """One federated round: sample, train, aggregate, rebuild prototypes.

    Returns the next state and the round's metrics, and never writes
    ``state``, so a round that raises leaves it as it was.  Only fedsc
    clients receive the relational and consistent prototypes.  Clients train
    in ``pool`` if given, else one after another in this process: only
    :func:`run_experiment` reads ``config.threads``.  Updates are merged in
    the order of ``clients`` and the prototype rebuild walks clients in
    ascending id order, so results do not depend on scheduling.  An empty
    ``test`` raises ``EmptyDatasetError``.  A ``FedscError`` from the
    prototype build or the evaluation is raised again as the same class with
    ``round R, server: `` before its message.
    """
    if test.num_samples == 0:
        raise EmptyDatasetError("cannot evaluate on zero samples")
    start = time.perf_counter()
    round_index = state.round_index + 1
    k = len(clients)
    num_selected = max(1, int(round(config.participation_fraction * k)))
    selected = np.sort(rng.choice(k, size=num_selected, replace=False))
    chosen = [clients[i] for i in selected]

    relational, consistent = ((state.relational, state.consistent)
                              if config.algorithm == "fedsc" else (None, None))

    def train(client: ClientDataset, workers: Executor | None) -> ClientUpdate:
        return run_client(state.params, client, config, round_index,
                          relational, consistent, workers=workers)

    updates = ([train(client, None) for client in chosen] if pool is None
               else pool.map(train, chosen))

    params = aggregate_models(
        [(u.params, c.num_samples) for u, c in zip(updates, chosen)])
    reports = {**state.latest_prototypes,
               **{c.client_id: u.prototypes for u, c in zip(updates, chosen)}}
    # built for fedavg too: perfbench's loss probe reads a fedavg state.relational
    ids = sorted(reports)
    counts = {c.client_id: c.class_counts for c in clients}
    try:
        built = build_collaboration([reports[i] for i in ids],
                                    np.stack([counts[i] for i in ids]), config.neighbors)
        accuracy = evaluate_accuracy(params, test.features, test.labels)
    except FedscError as exc:
        raise type(exc)(f"round {round_index}, server: {exc}") from exc
    means = np.mean([(u.total, u.ce, u.rpcl, u.cpdr) for u in updates], axis=0)
    wall_ms = (time.perf_counter() - start) * 1000.0
    metrics = RoundMetrics(round_index, accuracy, float(means[0]),
                           float(means[1]), float(means[2]), float(means[3]),
                           wall_ms)
    return ServerState(params, round_index, reports, built.relational,
                       built.consistent), metrics


def run_experiment(
    config: FederationConfig,
    dataset: Dataset,
    partition: PartitionConfig,
    test: Dataset,
) -> ExperimentResult:
    """Partition a dataset, run the configured number of rounds, return metrics.

    Clients train on ``min(config.threads, usable CPUs)`` worker processes
    when that is above 1, kept for every round and shut down when this
    returns or raises, else in this process.

    Both sets must be nonempty.  Every round is evaluated on ``test``, which
    must have the dataset's dim and class count.  The partition's client
    count must match the federation config.
    """
    if dataset.num_samples == 0:
        raise EmptyDatasetError("cannot run on an empty dataset")
    if test.num_samples == 0:
        raise EmptyDatasetError("cannot evaluate on an empty test set")
    if partition.num_clients != config.num_clients:
        raise InvalidArgumentError(
            f"partition has {partition.num_clients} clients, "
            f"config expects {config.num_clients}"
        )
    if (test.dim, test.num_classes) != (dataset.dim, dataset.num_classes):
        raise DimensionMismatchError(
            f"test set has dim={test.dim}, num_classes={test.num_classes}; "
            f"train set has dim={dataset.dim}, num_classes={dataset.num_classes}"
        )
    clients = partition_dataset(dataset, partition)

    params = init_params(
        dataset.dim, config.hidden_dim, config.feature_dim, dataset.num_classes,
        seed=np.random.SeedSequence((config.seed, _TAG_INIT)),
    )
    state = ServerState(params)
    sampler = np.random.default_rng(np.random.SeedSequence((config.seed, _TAG_SAMPLE)))
    metrics = []
    size = min(config.threads, usable_cpus())
    pool = _ClientPool(size) if size > 1 else None
    try:
        for _ in range(config.rounds):
            state, round_metrics = run_round(state, clients, config, sampler, test,
                                             pool=pool)
            metrics.append(round_metrics)
    finally:
        if pool is not None:
            pool.close()
    return ExperimentResult(metrics, state)


def rounds_to_accuracy(metrics: list[RoundMetrics], threshold: float) -> int | None:
    """First round whose test accuracy reaches the threshold, else None."""
    for m in metrics:
        if m.accuracy >= threshold:
            return m.round
    return None


def write_metrics_csv(path, metrics: list[RoundMetrics]) -> None:
    """Fixed 6-decimal CSV, one row per round."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for m in metrics:
            writer.writerow([m.round, *(f"{v:.6f}" for v in astuple(m)[1:])])


def read_metrics_csv(path) -> list[RoundMetrics]:
    """Parse a file written by :func:`write_metrics_csv`; values must be finite."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedCsvError(f"{path}: {exc}") from exc
    if not rows or rows[0] != CSV_HEADER:
        raise MalformedCsvError(f"{path}: missing or wrong header")
    out = []
    for line, row in enumerate(rows[1:], 2):
        if len(row) != len(CSV_HEADER):
            raise MalformedCsvError(f"{path}: row has {len(row)} fields")
        try:
            values = [float(v) for v in row[1:]]
            out.append(RoundMetrics(int(row[0]), *values))
        except ValueError as exc:
            raise MalformedCsvError(f"{path}: {exc}") from exc
        for column, value in zip(CSV_HEADER[1:], values):
            if not math.isfinite(value):
                raise MalformedCsvError(f"{path}: line {line}: {column} is {value}")
    return out


def write_run_metadata(path, entries: dict) -> None:
    """Flat key=value run description (resolved config, seed, variant flags)."""
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")
