"""Server-side prototype pipeline, step by step on hand-sized cases."""

import math

import numpy as np
import pytest

from fedsc.errors import (
    DegeneratePrototypeError,
    DimensionMismatchError,
    EmptyClientError,
    InvalidArgumentError,
)
from fedsc.prototypes import (
    AngularTable,
    DiscrepancyWeights,
    PrototypeSet,
    RelationalSet,
    aggregation_weights,
    angular_differences,
    build_adjacency,
    build_collaboration,
    client_discrepancy,
    compute_global_prototypes,
    consistent_prototypes,
    prototypes_from_features,
    relational_prototypes,
)


def proto(vectors, present=None, owner=0):
    vectors = np.asarray(vectors, dtype=np.float64)
    if present is None:
        present = np.ones(vectors.shape[0], dtype=bool)
    return PrototypeSet(vectors, present, owner)


class TestClientPrototypes:
    def test_per_class_means(self):
        z = np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 0.0]])
        labels = np.array([1, 1, 3])
        s = prototypes_from_features(z, labels, 4, owner=4)
        assert np.allclose(s.vectors[0], [2.0, 3.0])
        assert np.allclose(s.vectors[2], [10.0, 0.0])
        # classes without a sample: zero row, not present
        assert np.array_equal(s.vectors[[1, 3]], np.zeros((2, 2)))
        assert s.present.tolist() == [True, False, True, False]
        assert s.owner == 4

    def test_from_features_groups_by_label(self):
        z = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 0.0]])
        labels = np.array([2, 2, 1])
        s = prototypes_from_features(z, labels, 3, owner=1)
        assert np.allclose(s.vectors[0], [4.0, 0.0])
        assert np.allclose(s.vectors[1], [1.0, 1.0])
        assert s.present.tolist() == [True, True, False]


class TestGlobalPrototypes:
    def test_average_over_supporting_clients(self):
        sets = [
            proto([[1.0, 0.0], [0.0, 2.0]]),
            proto([[3.0, 0.0], [0.0, 0.0]], present=[True, False]),
        ]
        g = compute_global_prototypes(sets)
        assert np.allclose(g.vectors[0], [2.0, 0.0])
        assert np.allclose(g.vectors[1], [0.0, 2.0])

    def test_missing_class_gets_zero_row(self):
        sets = [proto([[1.0, 0.0], [5.0, 5.0]], present=[True, False])]
        g = compute_global_prototypes(sets)
        assert np.allclose(g.vectors[1], 0.0)

    def test_needs_at_least_one_set(self):
        with pytest.raises(InvalidArgumentError):
            compute_global_prototypes([])


class TestAngularDifferences:
    def test_cosine_values(self):
        sets = [proto([[1.0, 0.0]]), proto([[0.0, 1.0]])]
        g = compute_global_prototypes(sets)  # [0.5, 0.5]
        table = angular_differences(g, sets)
        expected = 0.5 / (math.sqrt(0.5) * 1.0)
        assert table.phi[0, 0] == pytest.approx(expected)
        assert table.phi[0, 1] == pytest.approx(expected)
        assert table.valid.all()

    def test_absent_entries_invalid(self):
        sets = [
            proto([[1.0, 0.0], [0.0, 1.0]]),
            proto([[1.0, 1.0], [0.0, 0.0]], present=[True, False]),
        ]
        g = compute_global_prototypes(sets)
        table = angular_differences(g, sets)
        assert table.valid.tolist() == [[True, True], [True, False]]
        assert table.phi[1, 1] == 0.0

    def test_degenerate_prototype_raises(self):
        sets = [proto([[0.0, 0.0]]), proto([[1.0, 0.0]])]
        g = compute_global_prototypes(sets)
        with pytest.raises(DegeneratePrototypeError):
            angular_differences(g, sets)

    def test_degenerate_error_names_first_pair_client_major(self):
        # client 5 holds a zero class-3 prototype, client 7 a zero class-1
        # one; client order decides before class order
        ok = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        sets = [proto(ok, owner=3),
                proto([ok[0], ok[1], [0.0, 0.0]], owner=5),
                proto([[0.0, 0.0], ok[1], ok[2]], owner=7)]
        g = compute_global_prototypes(sets)
        with pytest.raises(DegeneratePrototypeError,
                           match=r"^zero-norm prototype for class 3, client 5$"):
            angular_differences(g, sets)
        # an absent class is never degenerate
        sets[1] = proto([ok[0], ok[1], [0.0, 0.0]], owner=5,
                        present=[True, True, False])
        with pytest.raises(DegeneratePrototypeError,
                           match=r"^zero-norm prototype for class 1, client 7$"):
            angular_differences(compute_global_prototypes(sets), sets)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        sets = [proto(rng.standard_normal((4, 6))) for _ in range(5)]
        table = angular_differences(compute_global_prototypes(sets), sets)
        assert (np.abs(table.phi) <= 1.0 + 1e-12).all()


class TestBuildAdjacency:
    def test_self_always_selected(self):
        table = AngularTable(
            np.array([[0.9, 0.5, 0.1]]), np.ones((1, 3), dtype=bool)
        )
        adj = build_adjacency(table, neighbors=0)
        assert np.array_equal(adj.a[0], np.eye(3, dtype=np.uint8))

    def test_top_one_neighbourhood(self):
        table = AngularTable(
            np.array([[0.9, 0.8, 0.6, 0.1]]), np.ones((1, 4), dtype=bool)
        )
        adj = build_adjacency(table, neighbors=1)
        # nearest by |phi difference|: 0<->1, 2->1, 3->2
        assert adj.a[0].tolist() == [
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
        ]

    def test_tie_goes_to_lower_client_index(self):
        # clients 1 and 2 are both 0.1 away from client 0
        table = AngularTable(
            np.array([[0.5, 0.4, 0.6, 0.9]]), np.ones((1, 4), dtype=bool)
        )
        adj = build_adjacency(table, neighbors=1)
        assert adj.a[0, 0].tolist() == [1, 1, 0, 0]

    def test_neighbors_capped_by_validity(self):
        table = AngularTable(
            np.array([[0.9, 0.5, 0.0]]),
            np.array([[True, True, False]]),
        )
        adj = build_adjacency(table, neighbors=5)
        assert adj.a[0].tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 0]]

    def test_invalid_rows_stay_zero(self):
        table = AngularTable(np.zeros((1, 2)), np.zeros((1, 2), dtype=bool))
        adj = build_adjacency(table, neighbors=1)
        assert (adj.a == 0).all()

    def test_validation(self):
        table = AngularTable(np.zeros((1, 2)), np.ones((1, 2), dtype=bool))
        with pytest.raises(InvalidArgumentError):
            build_adjacency(table, neighbors=-1)


class TestRelationalPrototypes:
    def test_neighbourhood_means(self):
        sets = [proto([[0.0, 0.0]]), proto([[2.0, 2.0]]), proto([[4.0, 0.0]])]
        table = AngularTable(
            np.array([[0.9, 0.8, 0.1]]), np.ones((1, 3), dtype=bool)
        )
        adj = build_adjacency(table, neighbors=1)
        rel = relational_prototypes(adj, sets)
        # client 0 averages itself with client 1; client 2 with client 1
        assert np.allclose(rel.r[0, 0], [1.0, 1.0])
        assert np.allclose(rel.r[0, 1], [1.0, 1.0])
        assert np.allclose(rel.r[0, 2], [3.0, 1.0])
        assert rel.valid.all()

    def test_rows_without_class_invalid(self):
        sets = [
            proto([[1.0, 0.0], [0.0, 0.0]], present=[True, False]),
            proto([[1.0, 1.0], [2.0, 0.0]]),
        ]
        table = angular_differences(
            compute_global_prototypes(sets), sets
        )
        rel = relational_prototypes(build_adjacency(table, 1), sets)
        assert rel.valid.tolist() == [[True, True], [False, True]]
        assert np.allclose(rel.r[1, 0], 0.0)
        assert np.allclose(rel.r[1, 1], [2.0, 0.0])

    def test_client_count_must_match(self):
        sets = [proto([[1.0, 0.0]])]
        table = AngularTable(np.zeros((1, 2)), np.ones((1, 2), dtype=bool))
        with pytest.raises(DimensionMismatchError):
            relational_prototypes(build_adjacency(table, 1), sets)


class TestClientDiscrepancy:
    def test_uniform_is_zero(self):
        assert client_discrepancy(np.array([5, 5, 5, 5])) == pytest.approx(0.0)

    def test_one_hot_two_classes(self):
        assert client_discrepancy(np.array([7, 0])) == pytest.approx(0.5, abs=1e-9)

    def test_one_hot_ten_classes(self):
        value = client_discrepancy(np.array([3] + [0] * 9))
        assert value == pytest.approx(math.sqrt(9 / 20), abs=1e-9)

    def test_upper_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = rng.integers(2, 8)
            counts = rng.integers(0, 30, size=c)
            if counts.sum() == 0:
                counts[0] = 1
            limit = math.sqrt((c - 1) / (2 * c))
            assert client_discrepancy(counts) <= limit + 1e-12

    def test_empty_client_raises(self):
        with pytest.raises(EmptyClientError):
            client_discrepancy(np.zeros(3))


class TestAggregationWeights:
    def test_hand_case(self):
        w = aggregation_weights(np.array([900.0, 100.0]), np.array([0.1, 0.5]))
        # sigmoid(n_k / N - d_k / D), normalized
        assert w.weights[0] == pytest.approx(0.675536322989, abs=1e-9)
        assert w.weights[1] == pytest.approx(0.324463677011, abs=1e-9)
        # closed form with a = 1 / sum(n) and b = 1 / sum(d)
        raw = 1 / (1 + np.exp(-(np.array([900.0, 100.0]) / 1000
                                - np.array([0.1, 0.5]) / 0.6)))
        assert np.allclose(w.weights, raw / raw.sum(), rtol=0, atol=1e-15)

    def test_symmetry_gives_uniform(self):
        for k in (2, 5, 9):
            w = aggregation_weights(np.full(k, 30.0), np.full(k, 0.2))
            assert np.allclose(w.weights, 1.0 / k, atol=1e-12)

    def test_zero_discrepancies_disable_b(self):
        w = aggregation_weights(np.array([10.0, 20.0]), np.zeros(2))
        # b = 0, so e_k = sigmoid(n_k / sum(n)) normalized
        raw = 1 / (1 + np.exp(-np.array([10.0, 20.0]) / 30))
        assert np.allclose(w.weights, raw / raw.sum(), rtol=0, atol=1e-15)
        assert w.weights.sum() == pytest.approx(1.0)

    def test_balanced_client_outweighs_skewed(self):
        w = aggregation_weights(np.array([50.0, 50.0]), np.array([0.6, 0.1]))
        assert w.weights[1] > w.weights[0]

    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            aggregation_weights(np.array([1.0]), np.array([0.1, 0.2]))
        with pytest.raises(EmptyClientError):
            aggregation_weights(np.array([0.0, 1.0]), np.array([0.1, 0.1]))
        with pytest.raises(InvalidArgumentError):
            aggregation_weights(np.array([1.0, 1.0]), np.array([-0.1, 0.1]))


class TestConsistentPrototypes:
    def test_weighted_average(self):
        rel = RelationalSet(
            np.array([[[0.0, 0.0], [4.0, 8.0]]]),
            np.ones((1, 2), dtype=bool),
        )
        weights = DiscrepancyWeights(np.zeros(2), np.array([0.25, 0.75]))
        out = consistent_prototypes(rel, weights)
        assert np.allclose(out.o[0], [3.0, 6.0])
        assert out.present.tolist() == [True]

    def test_renormalizes_over_valid_clients(self):
        rel = RelationalSet(
            np.array([[[2.0, 0.0], [10.0, 10.0], [4.0, 2.0]]]),
            np.array([[True, False, True]]),
        )
        weights = DiscrepancyWeights(np.zeros(3), np.array([0.2, 0.5, 0.3]))
        out = consistent_prototypes(rel, weights)
        expected = (0.2 * np.array([2.0, 0.0]) + 0.3 * np.array([4.0, 2.0])) / 0.5
        assert np.allclose(out.o[0], expected)

    def test_missing_class_is_not_present(self):
        rel = RelationalSet(np.zeros((1, 2, 2)), np.zeros((1, 2), dtype=bool))
        weights = DiscrepancyWeights(np.zeros(2), np.array([0.5, 0.5]))
        out = consistent_prototypes(rel, weights)
        assert out.present.tolist() == [False]
        assert np.array_equal(out.o, np.zeros((1, 2)))

    def test_weight_shape_checked(self):
        rel = RelationalSet(np.zeros((1, 2, 2)), np.ones((1, 2), dtype=bool))
        weights = DiscrepancyWeights(np.zeros(3), np.full(3, 1 / 3))
        with pytest.raises(DimensionMismatchError):
            consistent_prototypes(rel, weights)


class TestBuildCollaboration:
    def test_matches_manual_pipeline(self):
        rng = np.random.default_rng(2)
        sets = [proto(rng.standard_normal((3, 4)) + 2.0, owner=k + 1)
                for k in range(4)]
        counts = rng.integers(1, 20, size=(4, 3))
        col = build_collaboration(sets, counts, neighbors=2)

        g = compute_global_prototypes(sets)
        table = angular_differences(g, sets)
        adj = build_adjacency(table, 2)
        rel = relational_prototypes(adj, sets)
        d = np.array([client_discrepancy(row) for row in counts])
        w = aggregation_weights(counts.sum(axis=1), d)
        out = consistent_prototypes(rel, w)

        assert np.allclose(col.global_prototypes.vectors, g.vectors)
        assert np.array_equal(col.adjacency.a, adj.a)
        assert np.allclose(col.relational.r, rel.r)
        assert np.allclose(col.weights.weights, w.weights)
        assert np.allclose(col.consistent.o, out.o)

    def test_counts_shape_checked(self):
        sets = [proto(np.ones((2, 3)))]
        with pytest.raises(DimensionMismatchError):
            build_collaboration(sets, np.ones((2, 2)), neighbors=1)

    def test_partial_presence_flows_through(self):
        sets = [
            proto([[1.0, 0.0], [0.0, 0.0]], present=[True, False], owner=1),
            proto([[2.0, 0.0], [0.0, 0.0]], present=[True, False], owner=2),
        ]
        counts = np.array([[3, 0], [4, 0]])
        col = build_collaboration(sets, counts, neighbors=1)
        assert col.consistent.present.tolist() == [True, False]

    def test_absent_row_contents_are_ignored(self):
        # PrototypeSet leaves absent rows meaningless; NaN there must not
        # leak through the adjacency product into any prototype
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((3, 4, 2)) + 2.0
        present = np.ones((3, 4), dtype=bool)
        present[1, 2] = present[2, 0] = False
        counts = rng.integers(1, 20, size=(3, 4))
        built = []
        for fill in (np.nan, 0.0):
            v = vectors.copy()
            v[~present] = fill
            sets = [proto(v[k], present[k], owner=k + 1) for k in range(3)]
            built.append(build_collaboration(sets, counts, neighbors=2))
        with_nan, zeroed = built
        for col in built:
            assert np.isfinite(col.relational.r).all()
            assert np.isfinite(col.consistent.o).all()
        assert np.array_equal(with_nan.adjacency.a, zeroed.adjacency.a)
        assert np.array_equal(with_nan.relational.r, zeroed.relational.r)
        assert np.array_equal(with_nan.consistent.o, zeroed.consistent.o)
        assert np.array_equal(with_nan.relational.valid, zeroed.relational.valid)
