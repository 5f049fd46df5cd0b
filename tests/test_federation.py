"""Federated rounds: client training, aggregation, determinism, metrics IO."""

import tracemalloc
from dataclasses import fields, make_dataclass
from fractions import Fraction

import numpy as np
import pytest

import fedsc.federation as federation
from fedsc.data import (
    ClientDataset,
    Dataset,
    PartitionConfig,
    generate_gaussian_blobs,
    partition_dataset,
    split_holdout,
)
from fedsc.errors import (
    DegeneratePrototypeError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidArgumentError,
    MalformedCsvError,
    NonfiniteGradientError,
    check_float_fields,
    check_int_fields,
)
from fedsc.federation import (
    CSV_HEADER,
    FederationConfig,
    RoundMetrics,
    ServerState,
    aggregate_models,
    read_metrics_csv,
    rounds_to_accuracy,
    run_client,
    run_experiment,
    run_round,
    write_metrics_csv,
    write_run_metadata,
)
from fedsc.model import (
    OptimizerConfig,
    evaluate_accuracy,
    forward_features,
    init_params,
)
from fedsc.prototypes import PrototypeSet, build_collaboration, prototypes_from_features


def small_config(**overrides):
    defaults = dict(
        rounds=2,
        num_clients=4,
        local_epochs=1,
        neighbors=1,
        seed=3,
        hidden_dim=8,
        feature_dim=6,
        optimizer=OptimizerConfig(batch_size=16),
    )
    defaults.update(overrides)
    return FederationConfig(**defaults)


def small_dataset(seed=0):
    return generate_gaussian_blobs(3, 40, 4, 3.0, seed=seed)


def small_partition(**overrides):
    defaults = dict(scheme="dirichlet", num_clients=4, alpha=0.5, seed=3)
    defaults.update(overrides)
    return PartitionConfig(**defaults)


def small_run(config, ds=None):
    """``run_experiment`` on ``small_partition()``, tested on a 10% holdout."""
    train, test = split_holdout(small_dataset() if ds is None else ds, seed=3)
    return run_experiment(config, train, small_partition(), test=test)


class TestFederationConfig:
    def test_validation(self):
        for bad in (
            dict(rounds=0),
            dict(num_clients=0),
            dict(local_epochs=0),
            dict(participation_fraction=0.0),
            dict(participation_fraction=1.5),
            dict(neighbors=-1),
            dict(temperature=0.0),
            dict(temperature=float("nan")),
            dict(temperature=float("inf")),
            dict(algorithm="fedprox"),
            dict(threads=0),
            dict(seed=-1),
            dict(hidden_dim=0),
            dict(feature_dim=0),
        ):
            with pytest.raises(InvalidArgumentError):
                FederationConfig(**bad)

    def test_cpdr_norm_is_not_a_field(self):
        # CPDR has one form; the name stays readable, with that one value
        assert "cpdr_norm" not in {f.name for f in fields(FederationConfig)}
        assert FederationConfig().cpdr_norm == "sq"
        with pytest.raises(TypeError):
            FederationConfig(cpdr_norm="sq")


# without postponed annotations a field's type is the int class itself
Runtime = make_dataclass("Runtime", [("count", int)],
                         namespace={"__post_init__": check_int_fields})
# the int-annotated fields, and keyword arguments that build each owner
BASE = {
    Runtime: dict(count=1),
    FederationConfig: {}, OptimizerConfig: {}, PartitionConfig: {},
    Dataset: dict(features=[[0.0]], labels=[1], num_classes=3),
    ClientDataset: dict(features=[[0.0]], labels=[1], num_classes=3, client_id=1),
}
INT_FIELDS = [
    *((FederationConfig, name) for name in ("rounds", "num_clients", "local_epochs",
                                            "neighbors", "seed", "hidden_dim",
                                            "feature_dim", "threads")),
    (OptimizerConfig, "batch_size"), (PartitionConfig, "num_clients"),
    (PartitionConfig, "seed"), (Dataset, "num_classes"), (ClientDataset, "client_id"),
    (Runtime, "count"),
]


class TestIntegerFields:
    @pytest.mark.parametrize("owner,name", INT_FIELDS,
                             ids=lambda x: getattr(x, "__name__", x))
    def test_non_integers_rejected_naming_the_field(self, owner, name):
        for bad in (2.5, 3.0, "3", True):
            with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer"):
                owner(**{**BASE[owner], name: bad})
        owner(**{**BASE[owner], name: np.int64(3)})


# the same check for float fields, with an optional one
Measure = make_dataclass("Measure", [("rate", float), ("cap", float | None)],
                         namespace={"__post_init__": check_float_fields})
FLOAT_FIELDS = [
    (FederationConfig, "participation_fraction"), (FederationConfig, "temperature"),
    (OptimizerConfig, "learning_rate"), (OptimizerConfig, "momentum"),
    (OptimizerConfig, "weight_decay"), (PartitionConfig, "alpha"),
    (Measure, "rate"), (Measure, "cap"),
]


class TestFloatFields:
    @pytest.mark.parametrize("owner,name", FLOAT_FIELDS,
                             ids=lambda x: getattr(x, "__name__", x))
    def test_non_numbers_rejected_naming_the_field(self, owner, name):
        base = dict(rate=0.5, cap=0.5) if owner is Measure else {}
        for bad in ("0.1", True, [0.5], 0.5j):
            with pytest.raises(InvalidArgumentError,
                               match=f"^{name} must be a real number"):
                owner(**{**base, name: bad})
        for good in (np.float64(0.5), np.float32(0.5), Fraction(1, 2)):
            owner(**{**base, name: good})

    def test_integers_are_numbers(self):
        assert OptimizerConfig(learning_rate=1).learning_rate == 1
        assert PartitionConfig(alpha=2).alpha == 2

    def test_none_only_where_the_field_is_optional(self):
        assert Measure(rate=1.0, cap=None).cap is None
        with pytest.raises(InvalidArgumentError, match="^rate must be a real number"):
            Measure(rate=None, cap=1.0)
        with pytest.raises(InvalidArgumentError, match="^learning_rate must be"):
            OptimizerConfig(learning_rate=None)


class TestRunClient:
    def client_fixture(self):
        config = PartitionConfig(num_clients=2, alpha=10.0, seed=0)
        return partition_dataset(small_dataset(), config)[0]

    def test_deterministic_per_round_and_client(self):
        client = self.client_fixture()
        config = small_config(num_clients=2)
        params = init_params(4, 8, 6, 3, seed=0)
        a = run_client(params, client, config, round_index=1)
        b = run_client(params, client, config, round_index=1)
        c = run_client(params, client, config, round_index=2)
        assert np.array_equal(a.params.flat, b.params.flat)
        assert not np.array_equal(a.params.flat, c.params.flat)

    def test_prototypes_come_from_final_extractor(self):
        client = self.client_fixture()
        config = small_config(num_clients=2)
        params = init_params(4, 8, 6, 3, seed=0)
        update = run_client(params, client, config, round_index=1)
        z = forward_features(update.params, client.features).z
        expected = prototypes_from_features(z, client.labels, 3,
                                            owner=client.client_id)
        assert np.allclose(update.prototypes.vectors, expected.vectors)
        assert np.array_equal(update.prototypes.present, expected.present)

    def test_ce_only_without_prototypes(self):
        client = self.client_fixture()
        config = small_config(num_clients=2, algorithm="fedsc")
        params = init_params(4, 8, 6, 3, seed=0)
        update = run_client(params, client, config, round_index=1)
        assert update.rpcl == 0.0 and update.cpdr == 0.0
        assert update.total == pytest.approx(update.ce, abs=1e-12)

    def test_global_params_not_mutated(self):
        client = self.client_fixture()
        config = small_config(num_clients=2)
        params = init_params(4, 8, 6, 3, seed=0)
        frozen = params.flat.copy()
        run_client(params, client, config, round_index=1)
        assert np.array_equal(params.flat, frozen)

    def test_repeat_calls_are_byte_identical(self):
        # a momentum buffer carried from one call into the next would make
        # the second call train differently
        ds = small_dataset()
        config = small_config(local_epochs=2, algorithm="fedsc")
        state = small_run(config, ds).state
        client = max(partition_dataset(ds, small_partition()),
                     key=lambda c: c.total)
        a, b = (run_client(state.params, client, config, 3, state.relational,
                           state.consistent) for _ in range(2))
        assert a.rpcl > 0.0 and a.cpdr > 0.0
        assert a.params.flat.tobytes() == b.params.flat.tobytes()
        assert (a.ce, a.rpcl, a.cpdr) == (b.ce, b.rpcl, b.cpdr)

    def test_prototype_terms_follow_the_sets_given(self):
        # the server decides the algorithm: given both sets, a fedavg config
        # trains the composite loss exactly as a fedsc config does
        ds = small_dataset()
        state = small_run(small_config(algorithm="fedsc"), ds).state
        client = max(partition_dataset(ds, small_partition()),
                     key=lambda c: c.total)
        fedavg, fedsc = (
            run_client(state.params, client, small_config(algorithm=alg), 3,
                       state.relational, state.consistent)
            for alg in ("fedavg", "fedsc"))
        assert fedavg.rpcl > 0.0 and fedavg.cpdr > 0.0
        assert fedavg.params.flat.tobytes() == fedsc.params.flat.tobytes()

    def test_memory_does_not_grow_with_hidden_activations(self):
        # whole-shard passes stream their hidden activations in row blocks:
        # the peak holds the shard's inputs, features and distance table, and
        # no (n, hidden) array, which at n = 20,000 and hidden 128 is 20.5 MB
        n, d_in, hidden, d = 20_000, 16, 128, 32
        ds = generate_gaussian_blobs(10, n // 10, d_in, 3.0, seed=0)
        client = ClientDataset(ds.features, ds.labels, 10, client_id=1)
        params = init_params(d_in, hidden, d, 10, seed=0)
        z = forward_features(params, ds.features).z
        sets = [prototypes_from_features(z[k::3], ds.labels[k::3], 10, owner=k + 1)
                for k in range(3)]
        counts = np.stack([np.bincount(ds.labels[k::3] - 1, minlength=10)
                           for k in range(3)])
        built = build_collaboration(sets, counts, neighbors=1)
        p = int(built.relational.valid.sum())
        config = small_config(num_clients=3, hidden_dim=hidden, feature_dim=d,
                              algorithm="fedsc", optimizer=OptimizerConfig(batch_size=64))
        del z
        tracemalloc.start()
        try:
            update = run_client(params, client, config, 2, built.relational,
                                built.consistent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert update.rpcl > 0.0
        bound = 8 * n * (3 * d_in + 2 * d + p) + 4 * 2**20
        assert peak < bound, f"peak {peak / 2**20:.1f} MB, bound {bound / 2**20:.1f} MB"


class TestAggregateModels:
    def test_identical_models_reproduced_bitwise(self):
        params = init_params(4, 8, 6, 3, seed=1)
        merged = aggregate_models([(params, 10), (params.copy(), 30)])
        assert np.array_equal(merged.flat, params.flat)
        # also with weights whose products do not sum back exactly, and the
        # result owns its memory
        merged = aggregate_models([(params.copy(), n) for n in (3, 7, 11)])
        assert merged.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(merged.flat, params.flat)

    def test_weighted_mean(self):
        a = init_params(3, 4, 3, 2, seed=0)
        b = init_params(3, 4, 3, 2, seed=1)
        merged = aggregate_models([(a, 1), (b, 3)])
        assert np.allclose(merged.w1, 0.25 * a.w1 + 0.75 * b.w1)
        assert np.allclose(merged.c, 0.25 * a.c + 0.75 * b.c)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            aggregate_models([])
        params = init_params(3, 4, 3, 2, seed=0)
        with pytest.raises(InvalidArgumentError):
            aggregate_models([(params, 0)])
        # a model of another layout must not reach numpy's broadcasting
        five, six = (init_params(4, hidden, 6, 3, seed=0) for hidden in (5, 6))
        for pair in ((five, six), (six, five)):
            with pytest.raises(DimensionMismatchError, match="layout"):
                aggregate_models([(m, 1) for m in pair])


class TestRunRound:
    def test_reports_keep_their_client_when_not_in_id_order(self):
        ds = small_dataset()
        clients = partition_dataset(ds, small_partition())
        states = []
        for order in (clients, clients[::-1]):
            state, _ = run_round(ServerState(init_params(4, 8, 6, 3, seed=0)), order,
                                 small_config(rounds=1), np.random.default_rng(0), ds)
            states.append(state)
        # the build pairs each report with its client's class counts, in
        # ascending id order, whatever the order of ``clients``
        ordered, reversed_ = states
        assert ordered.relational.r.tobytes() == reversed_.relational.r.tobytes()
        assert ordered.consistent.o.tobytes() == reversed_.consistent.o.tobytes()
        for client in clients:
            protos = reversed_.latest_prototypes[client.client_id]
            assert protos.owner == client.client_id
            assert np.array_equal(protos.present, client.class_counts > 0)

    def test_empty_test_set_rejected(self):
        # a caller that drives rounds itself gets an error, not a nan accuracy,
        # and a state that has not moved
        ds = small_dataset()
        clients = partition_dataset(ds, small_partition())
        state = ServerState(init_params(4, 8, 6, 3, seed=0))
        before = state.params.flat.tobytes()
        empty = Dataset(np.empty((0, 4)), np.empty(0), 3)
        with pytest.raises(EmptyDatasetError, match="zero samples"):
            run_round(state, clients, small_config(rounds=1),
                      np.random.default_rng(0), empty)
        assert state.round_index == 0
        assert state.params.flat.tobytes() == before
        assert state.latest_prototypes == {}
        assert state.relational is None
        with pytest.raises(EmptyDatasetError):
            evaluate_accuracy(state.params, empty.features, empty.labels)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_client_errors_leave_the_state_as_it_was(self):
        # the first step's overflowing weights give a nonfinite gradient
        ds = small_dataset()
        clients = partition_dataset(ds, small_partition())
        state = ServerState(init_params(4, 8, 6, 3, seed=0))
        before = state.params.flat.tobytes()
        config = small_config(rounds=1, optimizer=OptimizerConfig(
            learning_rate=1e200, batch_size=16))
        with pytest.raises(NonfiniteGradientError, match=r"^round 1, client \d+: "):
            run_round(state, clients, config, np.random.default_rng(0), ds)
        assert state.round_index == 0
        assert state.params.flat.tobytes() == before
        assert state.latest_prototypes == {}
        assert state.relational is None

    def test_server_errors_name_their_round(self):
        # every client's stale report holds a zero-norm prototype; the one
        # client selected this round replaces its own, so the others reach
        # the server build
        ds = small_dataset()
        clients = partition_dataset(ds, small_partition())
        stale = {c.client_id: PrototypeSet(np.zeros((3, 6)), np.array([True, False, False]),
                                           owner=c.client_id) for c in clients}
        state = ServerState(init_params(4, 8, 6, 3, seed=0), latest_prototypes=dict(stale))
        before = state.params.flat.tobytes()
        with pytest.raises(DegeneratePrototypeError,
                           match=r"^round 1, server: zero-norm prototype for class 1, "
                                 r"client \d+$"):
            run_round(state, clients, small_config(rounds=1, participation_fraction=0.25),
                      np.random.default_rng(0), ds)
        assert state.round_index == 0
        assert state.params.flat.tobytes() == before
        assert state.latest_prototypes.keys() == stale.keys()
        assert all(state.latest_prototypes[i] is stale[i] for i in stale)
        assert state.relational is None


class TestRunExperiment:
    def test_metrics_shape_and_state(self):
        result = small_run(small_config())
        assert len(result.metrics) == 2
        assert [m.round for m in result.metrics] == [1, 2]
        assert result.state.round_index == 2
        assert 0.0 <= result.metrics[-1].accuracy <= 1.0
        assert result.state.consistent is not None

    def test_round_one_algorithm_invariance(self):
        # no prototypes exist during round 1, so both algorithms train CE-only
        ds = small_dataset()
        runs = {}
        for alg in ("fedavg", "fedsc"):
            config = small_config(rounds=1, algorithm=alg)
            runs[alg] = small_run(config, ds)
        assert np.array_equal(
            runs["fedavg"].state.params.flat,
            runs["fedsc"].state.params.flat,
        )
        assert runs["fedavg"].metrics[0].accuracy == runs["fedsc"].metrics[0].accuracy

    def test_seed_determinism(self):
        ds = small_dataset()
        a = small_run(small_config(), ds)
        b = small_run(small_config(), ds)
        assert np.array_equal(a.state.params.flat, b.state.params.flat)
        assert [m.accuracy for m in a.metrics] == [m.accuracy for m in b.metrics]

    def test_threads_do_not_change_results(self, monkeypatch):
        # two usable CPUs, so the pooled run trains on two worker processes
        monkeypatch.setattr(federation, "usable_cpus", lambda: 2)
        ds = small_dataset()
        serial = small_run(small_config(rounds=3), ds)
        pooled = small_run(small_config(rounds=3, threads=4), ds)
        assert np.array_equal(serial.state.params.flat,
                              pooled.state.params.flat)
        for a, b in zip(serial.metrics, pooled.metrics):
            assert (a.accuracy, a.loss_total, a.loss_ce, a.loss_rpcl, a.loss_cpdr) \
                == (b.accuracy, b.loss_total, b.loss_ce, b.loss_rpcl, b.loss_cpdr)

    def test_partial_participation_keeps_stale_reports(self):
        config = small_config(rounds=3, participation_fraction=0.5,
                              algorithm="fedsc")
        result = small_run(config)
        # two clients train per round; earlier reports stay on the server
        assert len(result.state.latest_prototypes) >= 2
        assert result.state.consistent is not None

    def test_explicit_test_set_is_used(self):
        ds = small_dataset()
        train, test = split_holdout(ds, 0.5, seed=0)
        result = run_experiment(small_config(), train, small_partition(), test=test)
        final = evaluate_accuracy(result.state.params, test.features, test.labels)
        assert result.metrics[-1].accuracy == final

    def test_test_set_of_another_shape_rejected(self):
        train = small_dataset()
        for other in (generate_gaussian_blobs(3, 8, 5, 3.0),
                      generate_gaussian_blobs(6, 8, 4, 3.0)):
            with pytest.raises(DimensionMismatchError) as info:
                run_experiment(small_config(), train, small_partition(), test=other)
            message = str(info.value)
            assert f"dim={other.dim}, num_classes={other.num_classes}" in message
            assert "dim=4, num_classes=3" in message

    def test_empty_train_or_test_set_rejected(self):
        train, test = split_holdout(small_dataset(), seed=3)
        empty = Dataset(np.empty((0, train.dim)), np.empty(0), train.num_classes)
        for data, held_out, what in ((empty, test, "empty dataset"),
                                     (train, empty, "empty test set")):
            with pytest.raises(EmptyDatasetError, match=what):
                run_experiment(small_config(), data, small_partition(),
                               test=held_out)

    def test_client_count_mismatch_rejected(self):
        train, test = split_holdout(small_dataset(), seed=3)
        with pytest.raises(InvalidArgumentError):
            run_experiment(small_config(num_clients=5), train,
                           small_partition(num_clients=4), test=test)

    def test_fedavg_ignores_prototypes(self):
        config = small_config(rounds=2, algorithm="fedavg")
        result = small_run(config)
        assert all(m.loss_rpcl == 0.0 and m.loss_cpdr == 0.0
                   for m in result.metrics)


class TestDeterminismOracle:
    """Metrics rows (every column but wall_ms) of two tiny fixed-seed runs,
    recorded before the model moved onto one flat parameter vector and the
    collaboration build was vectorized.  A refactor that changes results
    fails here."""

    EXPECTED = {
        "fedsc": [
            "1,0.666667,1.058579,1.058579,0.000000,0.000000",
            "2,0.916667,1.136111,0.948173,0.132729,0.055209",
            "3,1.000000,0.960716,0.847556,0.058766,0.054394",
        ],
        "fedavg": [
            "1,0.666667,1.058579,1.058579,0.000000,0.000000",
            "2,1.000000,0.950631,0.950631,0.000000,0.000000",
            "3,1.000000,0.866102,0.866102,0.000000,0.000000",
        ],
    }

    @pytest.mark.parametrize("algorithm", ["fedsc", "fedavg"])
    def test_rows_match_recorded(self, tmp_path, algorithm):
        config = small_config(rounds=3, local_epochs=2, algorithm=algorithm)
        result = small_run(config)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, result.metrics)
        rows = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        assert rows[0].split(",") == CSV_HEADER[:-1]
        assert rows[1:] == self.EXPECTED[algorithm]


class TestRoundsToAccuracy:
    def rows(self, accs):
        return [RoundMetrics(i + 1, a, 0, 0, 0, 0, 0) for i, a in enumerate(accs)]

    def test_first_hit(self):
        assert rounds_to_accuracy(self.rows([0.1, 0.5, 0.9, 0.95]), 0.9) == 3

    def test_none_when_never_reached(self):
        assert rounds_to_accuracy(self.rows([0.1, 0.2]), 0.9) is None

    def test_invariant_to_appended_rounds(self):
        base = self.rows([0.1, 0.8, 0.92])
        extended = self.rows([0.1, 0.8, 0.92, 0.99, 1.0])
        assert rounds_to_accuracy(base, 0.9) == rounds_to_accuracy(extended, 0.9)


class TestMetricsCsv:
    def test_roundtrip(self, tmp_path):
        metrics = [
            RoundMetrics(1, 0.5, 1.25, 1.0, 0.125, 0.125, 12.5),
            RoundMetrics(2, 0.75, 0.5, 0.25, 0.125, 0.125, 13.0),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, metrics)
        back = read_metrics_csv(path)
        assert back == metrics

    def test_header_and_layout(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [RoundMetrics(1, 0.5, 1, 1, 0, 0, 3.0)])
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == CSV_HEADER
        assert lines[1] == "1,0.500000,1.000000,1.000000,0.000000,0.000000,3.000000"

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("round,acc\n1,0.5\n")
        with pytest.raises(MalformedCsvError):
            read_metrics_csv(path)

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "metrics.csv"
        header = ",".join(CSV_HEADER)
        path.write_text(f"{header}\n1,0.5\n")
        with pytest.raises(MalformedCsvError):
            read_metrics_csv(path)
        path.write_text(f"{header}\n1,x,1,1,0,0,3\n")
        with pytest.raises(MalformedCsvError):
            read_metrics_csv(path)


class TestRunMetadata:
    def test_flat_key_value_lines(self, tmp_path):
        path = tmp_path / "meta.txt"
        write_run_metadata(path, {"seed": 3, "algorithm": "fedsc"})
        assert path.read_text() == "seed=3\nalgorithm=fedsc\n"
