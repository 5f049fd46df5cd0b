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


def stacked(sets):
    """(K, C, d) vectors and (K, C) presence, as build_collaboration stacks them."""
    return np.stack([s.vectors for s in sets]), np.stack([s.present for s in sets])


def phi_of(sets):
    """Global prototypes and angular differences of a list of sets."""
    vectors, present = stacked(sets)
    g = compute_global_prototypes(vectors, present)
    return g, angular_differences(g, vectors, present, [s.owner for s in sets])


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

    def test_absent_rows_zeroed_without_touching_input(self):
        vectors = np.full((3, 2), np.nan)
        vectors[1] = [1.0, 2.0]
        s = PrototypeSet(vectors, [False, True, False], owner=2)
        assert s.vectors.tolist() == [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]
        assert np.isnan(vectors[[0, 2]]).all()
        assert vectors[1].tolist() == [1.0, 2.0]


class TestGlobalPrototypes:
    def test_average_over_supporting_clients(self):
        sets = [
            proto([[1.0, 0.0], [0.0, 2.0]]),
            proto([[3.0, 0.0], [0.0, 0.0]], present=[True, False]),
        ]
        g = compute_global_prototypes(*stacked(sets))
        assert np.allclose(g[0], [2.0, 0.0])
        assert np.allclose(g[1], [0.0, 2.0])

    def test_missing_class_gets_zero_row(self):
        sets = [proto([[1.0, 0.0], [5.0, 5.0]], present=[True, False])]
        g = compute_global_prototypes(*stacked(sets))
        assert np.allclose(g[1], 0.0)


class TestAngularDifferences:
    def test_cosine_values(self):
        sets = [proto([[1.0, 0.0]]), proto([[0.0, 1.0]])]
        g, phi = phi_of(sets)  # g = [0.5, 0.5]
        expected = 0.5 / (math.sqrt(0.5) * 1.0)
        assert phi.shape == (1, 2)  # (class, client)
        assert phi[0, 0] == pytest.approx(expected)
        assert phi[0, 1] == pytest.approx(expected)

    def test_absent_entries_invalid(self):
        sets = [
            proto([[1.0, 0.0], [0.0, 1.0]]),
            proto([[1.0, 1.0], [0.0, 0.0]], present=[True, False]),
        ]
        _, phi = phi_of(sets)
        assert stacked(sets)[1].T.tolist() == [[True, True], [True, False]]
        assert phi[1, 1] == 0.0

    def test_degenerate_prototype_raises(self):
        sets = [proto([[0.0, 0.0]]), proto([[1.0, 0.0]])]
        with pytest.raises(DegeneratePrototypeError):
            phi_of(sets)

    def test_degenerate_error_names_first_pair_client_major(self):
        # client 5 holds a zero class-3 prototype, client 7 a zero class-1
        # one; client order decides before class order
        ok = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        sets = [proto(ok, owner=3),
                proto([ok[0], ok[1], [0.0, 0.0]], owner=5),
                proto([[0.0, 0.0], ok[1], ok[2]], owner=7)]
        with pytest.raises(DegeneratePrototypeError,
                           match=r"^zero-norm prototype for class 3, client 5$"):
            phi_of(sets)
        # an absent class is never degenerate
        sets[1] = proto([ok[0], ok[1], [0.0, 0.0]], owner=5,
                        present=[True, True, False])
        with pytest.raises(DegeneratePrototypeError,
                           match=r"^zero-norm prototype for class 1, client 7$"):
            phi_of(sets)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        sets = [proto(rng.standard_normal((4, 6))) for _ in range(5)]
        _, phi = phi_of(sets)
        assert (np.abs(phi) <= 1.0 + 1e-12).all()


class TestBuildAdjacency:
    def test_self_always_selected(self):
        adj = build_adjacency(np.array([[0.9, 0.5, 0.1]]),
                              np.ones((1, 3), dtype=bool), neighbors=0)
        assert np.array_equal(adj[0], np.eye(3, dtype=np.uint8))

    def test_top_one_neighbourhood(self):
        adj = build_adjacency(np.array([[0.9, 0.8, 0.6, 0.1]]),
                              np.ones((1, 4), dtype=bool), neighbors=1)
        # nearest by |phi difference|: 0<->1, 2->1, 3->2
        assert adj[0].tolist() == [
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
        ]

    def test_tie_goes_to_lower_client_index(self):
        # clients 1 and 2 are both 0.1 away from client 0
        adj = build_adjacency(np.array([[0.5, 0.4, 0.6, 0.9]]),
                              np.ones((1, 4), dtype=bool), neighbors=1)
        assert adj[0, 0].tolist() == [1, 1, 0, 0]

    def test_neighbors_capped_by_validity(self):
        adj = build_adjacency(np.array([[0.9, 0.5, 0.0]]),
                              np.array([[True, True, False]]), neighbors=5)
        assert adj[0].tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 0]]

    def test_tie_heavy_random_tables_match_sorted_reference(self):
        # integer-valued phi with 2-3 distinct values ties almost every gap;
        # the reference ranks the other valid clients by (gap, client index)
        rng = np.random.default_rng(7)
        for _ in range(40):
            num_classes, num_clients = rng.integers(1, 4), rng.integers(1, 9)
            phi = rng.integers(0, rng.integers(2, 4), size=(num_classes, num_clients))
            valid = rng.random((num_classes, num_clients)) < 0.7
            for neighbors in range(num_clients + 1):
                expected = np.zeros((num_classes, num_clients, num_clients), np.uint8)
                for j in range(num_classes):
                    idx = np.flatnonzero(valid[j])
                    for k in idx:
                        others = sorted((abs(phi[j, q] - phi[j, k]), q)
                                        for q in idx if q != k)
                        chosen = [q for _, q in others[:neighbors]] + [k]
                        expected[j, k, chosen] = 1
                adj = build_adjacency(phi.astype(np.float64), valid, neighbors)
                assert np.array_equal(adj, expected), (phi, valid, neighbors)

    def test_invalid_rows_stay_zero(self):
        adj = build_adjacency(np.zeros((1, 2)), np.zeros((1, 2), dtype=bool),
                              neighbors=1)
        assert (adj == 0).all()

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            build_adjacency(np.zeros((1, 2)), np.ones((1, 2), dtype=bool),
                            neighbors=-1)


class TestRelationalPrototypes:
    def test_neighbourhood_means(self):
        sets = [proto([[0.0, 0.0]]), proto([[2.0, 2.0]]), proto([[4.0, 0.0]])]
        adj = build_adjacency(np.array([[0.9, 0.8, 0.1]]),
                              np.ones((1, 3), dtype=bool), neighbors=1)
        rel = relational_prototypes(adj, stacked(sets)[0])
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
        vectors, present = stacked(sets)
        _, phi = phi_of(sets)
        rel = relational_prototypes(build_adjacency(phi, present.T, 1), vectors)
        assert rel.valid.tolist() == [[True, True], [False, True]]
        assert np.allclose(rel.r[1, 0], 0.0)
        assert np.allclose(rel.r[1, 1], [2.0, 0.0])

    def test_client_count_must_match(self):
        sets = [proto([[1.0, 0.0]])]
        adj = build_adjacency(np.zeros((1, 2)), np.ones((1, 2), dtype=bool), 1)
        with pytest.raises(DimensionMismatchError):
            relational_prototypes(adj, stacked(sets)[0])


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
        assert w[0] == pytest.approx(0.675536322989, abs=1e-9)
        assert w[1] == pytest.approx(0.324463677011, abs=1e-9)
        # closed form with a = 1 / sum(n) and b = 1 / sum(d)
        raw = 1 / (1 + np.exp(-(np.array([900.0, 100.0]) / 1000
                                - np.array([0.1, 0.5]) / 0.6)))
        assert np.allclose(w, raw / raw.sum(), rtol=0, atol=1e-15)

    def test_symmetry_gives_uniform(self):
        for k in (2, 5, 9):
            w = aggregation_weights(np.full(k, 30.0), np.full(k, 0.2))
            assert np.allclose(w, 1.0 / k, atol=1e-12)

    def test_zero_discrepancies_disable_b(self):
        w = aggregation_weights(np.array([10.0, 20.0]), np.zeros(2))
        # b = 0, so e_k = sigmoid(n_k / sum(n)) normalized
        raw = 1 / (1 + np.exp(-np.array([10.0, 20.0]) / 30))
        assert np.allclose(w, raw / raw.sum(), rtol=0, atol=1e-15)
        assert w.sum() == pytest.approx(1.0)

    def test_balanced_client_outweighs_skewed(self):
        w = aggregation_weights(np.array([50.0, 50.0]), np.array([0.6, 0.1]))
        assert w[1] > w[0]

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
        weights = np.array([0.25, 0.75])
        out = consistent_prototypes(rel, weights)
        assert np.allclose(out.o[0], [3.0, 6.0])
        assert out.present.tolist() == [True]

    def test_renormalizes_over_valid_clients(self):
        rel = RelationalSet(
            np.array([[[2.0, 0.0], [10.0, 10.0], [4.0, 2.0]]]),
            np.array([[True, False, True]]),
        )
        weights = np.array([0.2, 0.5, 0.3])
        out = consistent_prototypes(rel, weights)
        expected = (0.2 * np.array([2.0, 0.0]) + 0.3 * np.array([4.0, 2.0])) / 0.5
        assert np.allclose(out.o[0], expected)

    def test_missing_class_is_not_present(self):
        rel = RelationalSet(np.zeros((1, 2, 2)), np.zeros((1, 2), dtype=bool))
        weights = np.array([0.5, 0.5])
        out = consistent_prototypes(rel, weights)
        assert out.present.tolist() == [False]
        assert np.array_equal(out.o, np.zeros((1, 2)))

    def test_weight_shape_checked(self):
        rel = RelationalSet(np.zeros((1, 2, 2)), np.ones((1, 2), dtype=bool))
        weights = np.full(3, 1 / 3)
        with pytest.raises(DimensionMismatchError):
            consistent_prototypes(rel, weights)


class TestBuildCollaboration:
    def test_matches_manual_pipeline(self):
        rng = np.random.default_rng(2)
        sets = [proto(rng.standard_normal((3, 4)) + 2.0, owner=k + 1)
                for k in range(4)]
        counts = rng.integers(1, 20, size=(4, 3))
        col = build_collaboration(sets, counts, neighbors=2)

        vectors, present = stacked(sets)
        g, phi = phi_of(sets)
        adj = build_adjacency(phi, present.T, 2)
        rel = relational_prototypes(adj, vectors)
        d = np.array([client_discrepancy(row) for row in counts])
        w = aggregation_weights(counts.sum(axis=1), d)
        out = consistent_prototypes(rel, w)

        assert np.array_equal(col.global_prototypes, g)
        assert np.array_equal(col.phi, phi)
        assert np.array_equal(col.adjacency, adj)
        assert np.array_equal(col.relational.r, rel.r)
        assert np.array_equal(col.relational.valid, rel.valid)
        assert np.array_equal(col.discrepancies, d)
        assert np.array_equal(col.weights, w)
        assert np.array_equal(col.consistent.o, out.o)
        assert np.array_equal(col.consistent.present, out.present)

    def test_counts_shape_checked(self):
        sets = [proto(np.ones((2, 3)))]
        with pytest.raises(DimensionMismatchError):
            build_collaboration(sets, np.ones((2, 2)), neighbors=1)
        # one row per client, but the class axis is not the sets' 3 classes
        sets = [proto(np.ones((3, 2)) + k, owner=k + 1) for k in range(4)]
        with pytest.raises(DimensionMismatchError, match=r"\(4, 7\)"):
            build_collaboration(sets, np.ones((4, 7)), neighbors=1)
        # a set whose (C, d) differs from the first set's names its owner
        for odd in (np.ones((2, 2)), np.ones((3, 5))):
            mixed = sets[:2] + [proto(odd, owner=9)] + sets[3:]
            with pytest.raises(DimensionMismatchError, match=r"^client 9 "):
                build_collaboration(mixed, np.ones((4, 3)), neighbors=1)

    def test_needs_at_least_one_set(self):
        with pytest.raises(InvalidArgumentError):
            build_collaboration([], np.ones((0, 3)), neighbors=1)

    def test_partial_presence_flows_through(self):
        sets = [
            proto([[1.0, 0.0], [0.0, 0.0]], present=[True, False], owner=1),
            proto([[2.0, 0.0], [0.0, 0.0]], present=[True, False], owner=2),
        ]
        counts = np.array([[3, 0], [4, 0]])
        col = build_collaboration(sets, counts, neighbors=1)
        assert col.consistent.present.tolist() == [True, False]

    def test_absent_row_contents_are_ignored(self):
        # PrototypeSet zeroes absent rows, so NaN passed there must not
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
        assert np.array_equal(with_nan.adjacency, zeroed.adjacency)
        assert np.array_equal(with_nan.relational.r, zeroed.relational.r)
        assert np.array_equal(with_nan.consistent.o, zeroed.consistent.o)
        assert np.array_equal(with_nan.relational.valid, zeroed.relational.valid)
