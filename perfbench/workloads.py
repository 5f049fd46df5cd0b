"""The benchmark workloads and the untraced experiment runner.

Every workload drives fedsc only through its public functions:
``run_experiment`` for the in-process workloads and ``fedsc.cli.main`` for
``desk-cli``.  Functions are looked up on their modules at call time, so the
tracer in ``tracing.py`` sees every call it wraps.

An experiment is one complete training run.  ``RoundClock`` is the only hook
on an untraced run: it times each ``run_round`` call and counts the samples
each trained client passes over, which costs a few microseconds per round.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import fedsc.cli as fcli
import fedsc.data as fdata
import fedsc.federation as ffed


@dataclass(frozen=True)
class BlobSpec:
    """Data, partition and federation shape of one workload.

    Every workload shares 16-d blobs at separation 4.0, a dirichlet(0.2)
    partition, 5 local epochs and 32 features, the desk preset's values.
    """

    num_classes: int
    per_class: int
    holdout: float
    num_clients: int
    participation: float
    algorithm: str
    hidden_dim: int


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``min_reps`` experiments run in every untraced run, more while they fit
    in ``--seconds``; ``target`` is the accuracy ``time_to_target_s`` waits
    for and ``floor`` the final accuracy every experiment must reach.  Both
    were met by every seed tried on the commit that introduced them.
    """

    name: str
    spec: BlobSpec
    rounds: int
    min_reps: int
    target: float
    floor: float
    via_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("h2h-fedsc", BlobSpec(10, 1000, 0.5, 10, 1.0, "fedsc", 128),
                 rounds=30, min_reps=2, target=0.6, floor=0.5),
        Workload("h2h-fedavg", BlobSpec(10, 1000, 0.5, 10, 1.0, "fedavg", 128),
                 rounds=30, min_reps=4, target=0.6, floor=0.9),
        # the desk preset over the CLI's defaults
        Workload("desk-cli", BlobSpec(10, 500, 0.1, 10, 1.0, "fedsc", 64),
                 rounds=30, min_reps=2, target=0.6, floor=0.5, via_cli=True),
    )
}

# Traced only, inside every ``--trace 1`` run: the one shape with stale
# reports and thousands of relational prototypes.  It is not timed end to
# end because three timed workloads are all that fit the run budget.
CROSS_DEVICE = Workload("cross-device", BlobSpec(100, 100, 0.5, 300, 0.05, "fedsc", 128),
                        rounds=20, min_reps=1, target=0.2, floor=0.2)


def federation_inputs(spec: BlobSpec, seed: int, rounds: int):
    """(config, train, test, partition) for an in-process experiment."""
    full = fdata.generate_gaussian_blobs(spec.num_classes, spec.per_class,
                                         16, 4.0, seed)
    train, test = fdata.split_holdout(full, spec.holdout, seed)
    partition = fdata.PartitionConfig("dirichlet", spec.num_clients, 0.2,
                                      seed=seed)
    config = ffed.FederationConfig(
        rounds=rounds, num_clients=spec.num_clients, local_epochs=5,
        participation_fraction=spec.participation, algorithm=spec.algorithm,
        seed=seed, hidden_dim=spec.hidden_dim, feature_dim=32, threads=1,
    )
    return config, train, test, partition


class SetupDone(Exception):
    """Raised at the first round when only the set-up is being timed."""


class RoundClock:
    """Times every ``run_round`` call and counts local SGD samples."""

    def __init__(self, stop_at_first_round: bool = False):
        self.stop_at_first_round = stop_at_first_round
        self.rounds: list[tuple[float, float]] = []
        self.samples: list[int] = []
        self.first_round_start: float | None = None

    @contextlib.contextmanager
    def installed(self):
        run_round, run_client = ffed.run_round, ffed.run_client

        def timed_round(*args, **kwargs):
            start = time.perf_counter()
            if self.first_round_start is None:
                self.first_round_start = start
            if self.stop_at_first_round:
                raise SetupDone
            result = run_round(*args, **kwargs)
            self.rounds.append((start, time.perf_counter()))
            return result

        def counted_client(global_params, dataset, config, *args, **kwargs):
            self.samples.append(dataset.total * config.local_epochs)
            return run_client(global_params, dataset, config, *args, **kwargs)

        ffed.run_round, ffed.run_client = timed_round, counted_client
        try:
            yield self
        finally:
            ffed.run_round, ffed.run_client = run_round, run_client


@dataclass
class Rep:
    """One finished experiment and what its output check found."""

    setup_s: float
    round_times: list[tuple[float, float]]
    accuracies: list[float]
    samples: int
    digest: str
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.round_times[-1][1] - self.round_times[0][0]

    def time_to_target_s(self, target: float) -> float | None:
        for acc, (_, end) in zip(self.accuracies, self.round_times):
            if acc >= target:
                return end - self.round_times[0][0]
        return None


def _cli(argv: list[str], span) -> str:
    out = io.StringIO()
    with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out):
        code = fcli.main(argv)
    if code != 0:
        raise RuntimeError(f"fedsc {' '.join(argv)} exited with {code}")
    return out.getvalue()


def _run(workload: Workload, seed: int, rounds: int, workdir: Path,
         cli_threads: int | None, span):
    """Run one experiment; return (round metrics, metrics CSV, stdout)."""
    spec = workload.spec
    if workload.via_cli:
        common = ["--preset", "desk", "--out", str(workdir), "--seed", str(seed)]
        if rounds != workload.rounds:
            common += ["--rounds", str(rounds)]
        _cli(["generate", *common], span)
        run_flags = [] if cli_threads is None else ["--threads", str(cli_threads)]
        stdout = _cli(["run", *common, "--algorithm", spec.algorithm, *run_flags],
                      span)
        path = workdir / f"metrics_{spec.algorithm}.csv"
        return ffed.read_metrics_csv(path), path, stdout
    config, train, test, partition = federation_inputs(spec, seed, rounds)
    result = ffed.run_experiment(config, train, partition, test=test)
    path = workdir / f"metrics_{spec.algorithm}.csv"
    ffed.write_metrics_csv(path, result.metrics)
    return result.metrics, path, None


def csv_digest(path: Path) -> str:
    """SHA-256 of a metrics CSV without its ``wall_ms`` column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][-1] != "wall_ms":
        raise ValueError(f"{path}: unexpected metrics header {rows[:1]}")
    body = "\n".join(",".join(row[:-1]) for row in rows)
    return hashlib.sha256(body.encode()).hexdigest()


def time_setup(workload: Workload, seed: int, rounds: int, workdir: Path,
               cli_threads: int | None) -> float:
    """Seconds from the start of an experiment to its first round."""
    clock = RoundClock(stop_at_first_round=True)
    start = time.perf_counter()
    with clock.installed(), contextlib.suppress(SetupDone):
        _run(workload, seed, rounds, workdir, cli_threads, _no_span)
    if clock.first_round_start is None:
        raise RuntimeError("experiment ended before its first round")
    return clock.first_round_start - start


def run_rep(workload: Workload, seed: int, rounds: int, workdir: Path,
            cli_threads: int | None, check_accuracy: bool, span=None) -> Rep:
    """Run one experiment under a RoundClock and check its output."""
    clock = RoundClock()
    start = time.perf_counter()
    with clock.installed():
        metrics, path, stdout = _run(workload, seed, rounds, workdir,
                                     cli_threads, span or _no_span)
    if not clock.rounds:
        raise RuntimeError("the experiment ran no rounds")
    rep = Rep(
        setup_s=clock.rounds[0][0] - start,
        round_times=clock.rounds,
        accuracies=[m.accuracy for m in metrics],
        samples=sum(clock.samples),
        digest=csv_digest(path),
    )
    rep.problems = check_output(workload, rounds, metrics, rep, stdout,
                                check_accuracy)
    return rep


def check_output(workload: Workload, rounds: int, metrics, rep: Rep,
                 stdout: str | None, check_accuracy: bool) -> list[str]:
    """Everything wrong with one experiment's output, empty if nothing."""
    problems = []
    if [m.round for m in metrics] != list(range(1, rounds + 1)):
        problems.append(f"metrics rounds {[m.round for m in metrics]} "
                        f"are not 1..{rounds}")
    if len(rep.round_times) != rounds:
        problems.append(f"{len(rep.round_times)} timed rounds, expected {rounds}")
    for m in metrics:
        values = (m.accuracy, m.loss_total, m.loss_ce, m.loss_rpcl, m.loss_cpdr)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"round {m.round}: non-finite metrics {values}")
    if stdout is not None:
        printed = sum(line.startswith("round ") for line in stdout.splitlines())
        if printed != rounds:
            problems.append(f"fedsc run printed {printed} round lines, "
                            f"expected {rounds}")
    if check_accuracy and metrics:
        if metrics[-1].accuracy < workload.floor:
            problems.append(f"final accuracy {metrics[-1].accuracy} below "
                            f"floor {workload.floor}")
        if rep.time_to_target_s(workload.target) is None:
            problems.append(f"accuracy target {workload.target} never reached")
    return problems


@contextlib.contextmanager
def _no_span(name):
    yield
