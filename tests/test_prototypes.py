"""Server-side prototype pipeline, step by step on hand-sized cases."""

import math

import numpy as np
import pytest

from fedsc.errors import (
    DegeneratePrototypeError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidArgumentError,
)
from fedsc.prototypes import (
    PrototypeSet,
    _build_adjacency,
    aggregation_weights,
    build_collaboration,
    client_discrepancy,
    prototypes_from_features,
)


def proto(vectors, present=None, owner=0):
    vectors = np.asarray(vectors, dtype=np.float64)
    if present is None:
        present = np.ones(vectors.shape[0], dtype=bool)
    return PrototypeSet(vectors, present, owner)


def stacked(sets):
    """(K, C, d) vectors and (K, C) presence, as build_collaboration stacks them."""
    return np.stack([s.vectors for s in sets]), np.stack([s.present for s in sets])


def collab(sets, neighbors=1, counts=None):
    """build_collaboration, by default with one sample per held class."""
    if counts is None:
        counts = stacked(sets)[1].astype(np.int64)
    return build_collaboration(sets, counts, neighbors)


def sorted_adjacency(phi, valid, neighbors):
    """Reference top-M selection: rank the other valid clients of each class
    by (|phi difference|, client index) and keep the first M, plus self."""
    num_classes, num_clients = phi.shape
    expected = np.zeros((num_classes, num_clients, num_clients), np.uint8)
    for j in range(num_classes):
        idx = np.flatnonzero(valid[j])
        for k in idx:
            others = sorted((abs(phi[j, q] - phi[j, k]), q) for q in idx if q != k)
            chosen = [q for _, q in others[:neighbors]] + [k]
            expected[j, k, chosen] = 1
    return expected


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

    def test_shapes_checked(self):
        with pytest.raises(DimensionMismatchError, match="inconsistent"):
            PrototypeSet(np.ones((3, 2)), [True, False])
        with pytest.raises(DimensionMismatchError, match="inconsistent"):
            PrototypeSet(np.ones(3), [True, False, True])

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
        g = collab(sets).global_prototypes
        assert np.allclose(g[0], [2.0, 0.0])
        assert np.allclose(g[1], [0.0, 2.0])

    def test_missing_class_gets_zero_row(self):
        sets = [proto([[1.0, 0.0], [5.0, 5.0]], present=[True, False])]
        g = collab(sets).global_prototypes
        assert np.allclose(g[1], 0.0)


class TestAngularDifferences:
    def test_cosine_values(self):
        sets = [proto([[1.0, 0.0]]), proto([[0.0, 1.0]])]
        phi = collab(sets).phi  # g = [0.5, 0.5]
        expected = 0.5 / (math.sqrt(0.5) * 1.0)
        assert phi.shape == (1, 2)  # (class, client)
        assert phi[0, 0] == pytest.approx(expected)
        assert phi[0, 1] == pytest.approx(expected)

    def test_absent_entries_invalid(self):
        sets = [
            proto([[1.0, 0.0], [0.0, 1.0]]),
            proto([[1.0, 1.0], [0.0, 0.0]], present=[True, False]),
        ]
        phi = collab(sets).phi
        assert stacked(sets)[1].T.tolist() == [[True, True], [True, False]]
        assert phi[1, 1] == 0.0

    def test_degenerate_prototype_raises(self):
        sets = [proto([[0.0, 0.0]]), proto([[1.0, 0.0]])]
        with pytest.raises(DegeneratePrototypeError):
            collab(sets)

    def test_degenerate_error_names_first_pair_client_major(self):
        # client 5 holds a zero class-3 prototype, client 7 a zero class-1
        # one; client order decides before class order
        ok = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        sets = [proto(ok, owner=3),
                proto([ok[0], ok[1], [0.0, 0.0]], owner=5),
                proto([[0.0, 0.0], ok[1], ok[2]], owner=7)]
        with pytest.raises(DegeneratePrototypeError,
                           match=r"^zero-norm prototype for class 3, client 5$"):
            collab(sets)
        # an absent class is never degenerate
        sets[1] = proto([ok[0], ok[1], [0.0, 0.0]], owner=5,
                        present=[True, True, False])
        with pytest.raises(DegeneratePrototypeError,
                           match=r"^zero-norm prototype for class 1, client 7$"):
            collab(sets)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        sets = [proto(rng.standard_normal((4, 6))) for _ in range(5)]
        phi = collab(sets).phi
        assert (np.abs(phi) <= 1.0 + 1e-12).all()


class TestBuildAdjacency:
    def test_self_always_selected(self):
        adj = _build_adjacency(np.array([[0.9, 0.5, 0.1]]),
                               np.ones((1, 3), dtype=bool), neighbors=0)
        assert np.array_equal(adj[0], np.eye(3, dtype=np.uint8))

    def test_top_one_neighbourhood(self):
        adj = _build_adjacency(np.array([[0.9, 0.8, 0.6, 0.1]]),
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
        adj = _build_adjacency(np.array([[0.5, 0.4, 0.6, 0.9]]),
                               np.ones((1, 4), dtype=bool), neighbors=1)
        assert adj[0, 0].tolist() == [1, 1, 0, 0]

    def test_neighbors_capped_by_validity(self):
        adj = _build_adjacency(np.array([[0.9, 0.5, 0.0]]),
                               np.array([[True, True, False]]), neighbors=5)
        assert adj[0].tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 0]]

    def test_tie_heavy_random_tables_match_sorted_reference(self):
        # integer-valued phi with 2-3 distinct values ties almost every gap
        rng = np.random.default_rng(7)
        for _ in range(40):
            num_classes, num_clients = rng.integers(1, 4), rng.integers(1, 9)
            phi = rng.integers(0, rng.integers(2, 4), size=(num_classes, num_clients))
            valid = rng.random((num_classes, num_clients)) < 0.7
            for neighbors in range(num_clients + 1):
                adj = _build_adjacency(phi.astype(np.float64), valid, neighbors)
                assert np.array_equal(adj, sorted_adjacency(phi, valid, neighbors)), (
                    phi, valid, neighbors)

    def test_invalid_rows_stay_zero(self):
        adj = _build_adjacency(np.zeros((1, 2)), np.zeros((1, 2), dtype=bool),
                               neighbors=1)
        assert (adj == 0).all()


class TestRelationalPrototypes:
    def test_neighbourhood_means(self):
        # g = [1, 4/3], so phi = [0.6, 2/sqrt(5), 0.8]: with M = 1 client 0
        # pairs with client 2, and clients 1 and 2 with each other
        sets = [proto([[1.0, 0.0]]), proto([[2.0, 1.0]]), proto([[0.0, 3.0]])]
        col = collab(sets, neighbors=1)
        assert col.adjacency[0].tolist() == [[1, 0, 1], [0, 1, 1], [0, 1, 1]]
        assert np.allclose(col.relational.r[0, 0], [0.5, 1.5])
        assert np.allclose(col.relational.r[0, 1], [1.0, 2.0])
        assert np.allclose(col.relational.r[0, 2], [1.0, 2.0])
        assert col.relational.valid.all()

    def test_rows_without_class_invalid(self):
        sets = [
            proto([[1.0, 0.0], [0.0, 0.0]], present=[True, False]),
            proto([[1.0, 1.0], [2.0, 0.0]]),
        ]
        rel = collab(sets, neighbors=1).relational
        assert rel.valid.tolist() == [[True, True], [False, True]]
        assert np.allclose(rel.r[1, 0], 0.0)
        assert np.allclose(rel.r[1, 1], [2.0, 0.0])


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
        with pytest.raises(EmptyDatasetError):
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
        with pytest.raises(EmptyDatasetError):
            aggregation_weights(np.array([0.0, 1.0]), np.array([0.1, 0.1]))
        with pytest.raises(InvalidArgumentError):
            aggregation_weights(np.array([1.0, 1.0]), np.array([-0.1, 0.1]))


class TestConsistentPrototypes:
    # with M = 0 every relational prototype is the client's own prototype
    def test_weighted_average(self):
        sets = [proto([[1.0, 0.0]]), proto([[4.0, 8.0]])]
        counts = np.array([[10], [30]])
        col = collab(sets, neighbors=0, counts=counts)
        w = aggregation_weights(np.array([10, 30]), np.zeros(2))
        assert np.array_equal(col.weights, w)
        assert np.allclose(col.consistent.o[0], w[0] * np.array([1.0, 0.0])
                           + w[1] * np.array([4.0, 8.0]))
        assert col.consistent.present.tolist() == [True]

    def test_renormalizes_over_valid_clients(self):
        sets = [proto([[1.0, 1.0], [2.0, 0.0]]),
                proto([[1.0, 2.0], [0.0, 0.0]], present=[True, False]),
                proto([[2.0, 1.0], [4.0, 2.0]])]
        counts = np.array([[5, 3], [9, 0], [4, 4]])
        col = collab(sets, neighbors=0, counts=counts)
        w = col.weights
        expected = ((w[0] * np.array([2.0, 0.0]) + w[2] * np.array([4.0, 2.0]))
                    / (w[0] + w[2]))
        assert np.allclose(col.consistent.o[1], expected)
        assert col.relational.valid[1].tolist() == [True, False, True]

    def test_missing_class_is_not_present(self):
        sets = [proto([[1.0, 0.0], [5.0, 5.0]], present=[True, False]),
                proto([[0.0, 1.0], [5.0, 5.0]], present=[True, False])]
        col = collab(sets)
        assert col.consistent.present.tolist() == [True, False]
        assert np.array_equal(col.consistent.o[1], np.zeros(2))


def reference_collaboration(sets, counts, neighbors):
    """The paper's definitions, entry by entry."""
    vectors, present = stacked(sets)
    num_clients, num_classes, d = vectors.shape
    g = np.zeros((num_classes, d))
    phi = np.zeros((num_classes, num_clients))
    for j in range(num_classes):
        holders = np.flatnonzero(present[:, j])
        if holders.size:
            g[j] = vectors[holders, j].mean(axis=0)
        for k in holders:
            phi[j, k] = g[j] @ vectors[k, j] / (np.linalg.norm(g[j])
                                                * np.linalg.norm(vectors[k, j]))
    adj = sorted_adjacency(phi, present.T, neighbors)
    r = np.zeros((num_classes, num_clients, d))
    for j in range(num_classes):
        for k in np.flatnonzero(present[:, j]):
            r[j, k] = vectors[np.flatnonzero(adj[j, k]), j].mean(axis=0)
    disc = np.array([client_discrepancy(row) for row in counts])
    w = aggregation_weights(counts.sum(axis=1), disc)
    o = np.zeros((num_classes, d))
    for j in range(num_classes):
        holders = np.flatnonzero(present[:, j])
        if holders.size:
            o[j] = (w[holders, None] * r[j, holders]).sum(axis=0) / w[holders].sum()
    return g, phi, adj, r, present.T, disc, w, o, present.any(axis=0)


class TestBuildCollaboration:
    def test_matches_reference_definitions(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            num_clients, num_classes = rng.integers(1, 8), rng.integers(2, 6)
            present = rng.random((num_clients, num_classes)) < 0.7
            present[:, 0] = True
            sets = [proto(rng.standard_normal((num_classes, 4)) + 2.0, present[k],
                          owner=k + 1) for k in range(num_clients)]
            counts = rng.integers(1, 20, size=(num_clients, num_classes)) * present
            neighbors = int(rng.integers(0, 4))
            col = build_collaboration(sets, counts, neighbors)
            g, phi, adj, r, valid, disc, w, o, held = reference_collaboration(
                sets, counts, neighbors)
            assert np.allclose(col.global_prototypes, g, rtol=0, atol=1e-12)
            assert np.allclose(col.phi, phi, rtol=0, atol=1e-12)
            assert np.array_equal(col.adjacency, adj)
            assert np.allclose(col.relational.r, r, rtol=0, atol=1e-12)
            assert np.array_equal(col.relational.valid, valid)
            assert np.array_equal(col.discrepancies, disc)
            assert np.array_equal(col.weights, w)
            assert np.allclose(col.consistent.o, o, rtol=0, atol=1e-12)
            assert np.array_equal(col.consistent.present, held)

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

    @pytest.mark.parametrize("num_clients", [2, 5])
    @pytest.mark.parametrize("neighbors, message", [
        (-1, r"^neighbors must be >= 0$"),
        (1.5, r"^neighbors must be an integer, got 1\.5$"),
        (2.0, r"^neighbors must be an integer, got 2\.0$"),
        (True, r"^neighbors must be an integer, got True$"),
        ("1", r"^neighbors must be an integer, got '1'$"),
    ])
    def test_neighbors_must_be_a_nonnegative_integer(self, num_clients, neighbors,
                                                     message):
        sets = [proto(np.eye(3) + k, owner=k + 1) for k in range(num_clients)]
        counts = np.ones((num_clients, 3))
        with pytest.raises(InvalidArgumentError, match=message):
            build_collaboration(sets, counts, neighbors)
        # a numpy integer is an integer
        col = build_collaboration(sets, counts, np.int64(1))
        assert (col.adjacency.sum(axis=2) == 2).all()

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
