"""Datasets, partitions, long-tail thinning, and the FSD1 container."""

import hashlib
import math
import struct

import numpy as np
import pytest

from fedsc.data import (
    ClientDataset,
    Dataset,
    PartitionConfig,
    _largest_remainder,
    apply_long_tail,
    generate_gaussian_blobs,
    load_dataset,
    long_tail_profile,
    partition_biased,
    partition_dataset,
    partition_dirichlet,
    save_dataset,
    split_holdout,
)
from fedsc.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    MalformedHeaderError,
    TruncatedFileError,
)


def small_blobs(seed=0, num_classes=4, per_class=30, dim=3, separation=4.0):
    return generate_gaussian_blobs(num_classes, per_class, dim, separation, seed)


class TestDataset:
    def test_dtypes_and_counts(self):
        ds = Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [1, 2, 2], 3)
        assert ds.features.dtype == np.float32
        assert ds.labels.dtype == np.int64
        assert ds.num_samples == 3 and ds.dim == 2
        assert ds.class_counts.tolist() == [1, 2, 0]

    def test_subset_keeps_rows(self):
        ds = small_blobs()
        sub = ds.subset(np.array([5, 0, 7]))
        assert np.array_equal(sub.features[1], ds.features[0])
        assert sub.labels[0] == ds.labels[5]

    def test_label_range_enforced(self):
        with pytest.raises(InvalidArgumentError):
            Dataset([[0.0, 0.0]], [0], 2)
        with pytest.raises(InvalidArgumentError):
            Dataset([[0.0, 0.0]], [3], 2)

    def test_label_error_names_first_bad_row(self):
        labels = [1, 2, 2, 1, 0, 3, 0]
        with pytest.raises(InvalidArgumentError, match=r"^row 4 has label 0 outside 1\.\.3$"):
            Dataset(np.zeros((7, 2)), labels, 3)

    def test_non_integral_labels_rejected_not_truncated(self):
        features = [[0.0, 1.0], [2.0, 3.0]]
        with pytest.raises(InvalidArgumentError,
                           match=r"^row 0 has label 1\.7 that is not an integer$"):
            Dataset(features, [1.7, 2.2], 3)
        with pytest.raises(InvalidArgumentError, match=r"^row 1 has label nan "):
            Dataset(features, [2.0, np.nan], 3)
        for bad in (np.inf, -np.inf):
            with pytest.raises(InvalidArgumentError, match=r"^row 1 has label -?inf "):
                Dataset(features, [1.0, bad], 3)
        with pytest.raises(InvalidArgumentError, match=r"^row 0 has label 1\.5 "):
            ClientDataset(features, [1.5, 2.0], 3, client_id=1)
        ds = Dataset(features, [2.0, 3.0], 3)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 3]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Dataset([[0.0, 0.0]], [1, 2], 2)


class TestClientDataset:
    def test_counts_and_ids(self):
        client = ClientDataset([[0.0, 1.0], [2.0, 3.0]], [2, 2], 4, client_id=3)
        assert client.total == 2
        assert client.class_counts.tolist() == [0, 2, 0, 0]

    def test_rejects_empty_and_bad_id(self):
        with pytest.raises(InvalidArgumentError):
            ClientDataset([[0.0, 1.0]], [1], 2, client_id=0)
        with pytest.raises(InvalidArgumentError):
            ClientDataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), 2, client_id=1)


class TestGenerateGaussianBlobs:
    def test_shapes_and_labels(self):
        ds = generate_gaussian_blobs(5, 12, 7, 4.0, seed=3)
        assert ds.features.shape == (60, 7)
        assert ds.class_counts.tolist() == [12] * 5
        assert ds.labels.min() == 1 and ds.labels.max() == 5

    def test_deterministic_in_seed(self):
        a = generate_gaussian_blobs(4, 20, 5, 3.0, seed=9)
        b = generate_gaussian_blobs(4, 20, 5, 3.0, seed=9)
        c = generate_gaussian_blobs(4, 20, 5, 3.0, seed=10)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_class_means_separated(self):
        # empirical means sit close to the true ones at 200 samples/class,
        # so pairwise distances clear separation minus a small margin
        sep = 4.0
        ds = generate_gaussian_blobs(6, 200, 4, sep, seed=1)
        means = np.stack([
            ds.features[ds.labels == j + 1].mean(axis=0) for j in range(6)
        ])
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.linalg.norm(means[i] - means[j]) > sep - 0.5

    def test_many_classes_low_dim_terminates(self):
        # rejection placement must widen its box instead of looping forever
        ds = generate_gaussian_blobs(30, 2, 2, 3.0, seed=0)
        assert ds.num_classes == 30

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            generate_gaussian_blobs(1, 10, 3)
        with pytest.raises(InvalidArgumentError):
            generate_gaussian_blobs(3, 0, 3)
        with pytest.raises(InvalidArgumentError):
            generate_gaussian_blobs(3, 10, 1)
        with pytest.raises(InvalidArgumentError):
            generate_gaussian_blobs(3, 10, 3, separation=0.0)
        for separation in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError):
                generate_gaussian_blobs(3, 10, 3, separation=separation)


class TestSplitHoldout:
    def test_per_class_fraction(self):
        ds = small_blobs(per_class=30)
        train, held = split_holdout(ds, 0.1, seed=0)
        assert held.class_counts.tolist() == [3, 3, 3, 3]
        assert train.class_counts.tolist() == [27, 27, 27, 27]

    def test_partition_is_exact(self):
        ds = small_blobs()
        train, held = split_holdout(ds, 0.25, seed=1)
        assert train.num_samples + held.num_samples == ds.num_samples
        merged = np.concatenate([train.features, held.features])
        assert (
            np.sort(merged.sum(axis=1)).tolist()
            == np.sort(ds.features.sum(axis=1)).tolist()
        )

    def test_holds_out_at_least_one(self):
        ds = small_blobs(per_class=2)
        train, held = split_holdout(ds, 0.01, seed=0)
        assert (held.class_counts >= 1).all()

    def test_half_split_is_even(self):
        ds = small_blobs(per_class=30)
        train, held = split_holdout(ds, 0.5, seed=2)
        assert train.class_counts.tolist() == held.class_counts.tolist()

    def test_validation(self):
        ds = small_blobs(per_class=1)
        with pytest.raises(InvalidArgumentError):
            split_holdout(ds, 0.1)
        with pytest.raises(InvalidArgumentError):
            split_holdout(small_blobs(), 0.0)
        with pytest.raises(InvalidArgumentError):
            split_holdout(small_blobs(), 1.0)


class TestLargestRemainder:
    def test_hand_case(self):
        counts = _largest_remainder(np.array([0.5, 0.25, 0.25]), 5)
        assert counts.tolist() == [3, 1, 1]

    def test_tie_goes_to_lower_index(self):
        counts = _largest_remainder(np.array([0.5, 0.5]), 3)
        assert counts.tolist() == [2, 1]

    def test_sums_to_total(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.dirichlet(np.full(6, 0.3))
            total = int(rng.integers(0, 50))
            counts = _largest_remainder(p, total)
            assert counts.sum() == total
            assert (counts >= 0).all()


class TestPartitionDirichlet:
    def test_partition_preserves_counts(self):
        ds = small_blobs(per_class=40)
        clients = partition_dirichlet(ds, 5, alpha=0.2, seed=0)
        assert len(clients) == 5
        assert [c.client_id for c in clients] == [1, 2, 3, 4, 5]
        stacked = np.stack([c.class_counts for c in clients])
        assert stacked.sum(axis=0).tolist() == ds.class_counts.tolist()

    def test_no_client_left_empty(self):
        ds = small_blobs(num_classes=2, per_class=10)
        for seed in range(20):
            clients = partition_dirichlet(ds, 8, alpha=0.05, seed=seed)
            assert all(c.total >= 1 for c in clients)

    def test_deterministic(self):
        ds = small_blobs()
        a = partition_dirichlet(ds, 4, 0.2, seed=7)
        b = partition_dirichlet(ds, 4, 0.2, seed=7)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.features, cb.features)

    def test_alpha_controls_skew(self):
        ds = small_blobs(num_classes=4, per_class=100)
        skewed = partition_dirichlet(ds, 4, alpha=0.05, seed=0)
        flat = partition_dirichlet(ds, 4, alpha=100.0, seed=0)

        def mean_discrepancy(clients):
            out = []
            for c in clients:
                p = c.class_counts / c.total
                out.append(np.abs(p - 0.25).sum())
            return np.mean(out)

        assert mean_discrepancy(skewed) > mean_discrepancy(flat)

    def test_validation(self):
        ds = small_blobs()
        with pytest.raises(InvalidArgumentError):
            partition_dirichlet(ds, 0, 0.2)
        with pytest.raises(InvalidArgumentError):
            partition_dirichlet(ds, 3, 0.0)
        with pytest.raises(InvalidArgumentError):
            partition_dirichlet(ds, 3, math.nan)
        with pytest.raises(InvalidArgumentError):
            partition_dirichlet(ds, ds.num_samples + 1, 0.2)


class TestPartitionBiased:
    def test_block_structure(self):
        ds = small_blobs(num_classes=6, per_class=30)
        clients = partition_biased(ds, 4, seed=0)
        # clients 1..3 own two classes each, client 4 sees every class
        for k in range(3):
            counts = clients[k].class_counts
            held = np.flatnonzero(counts > 0) + 1
            assert held.tolist() == [2 * k + 1, 2 * k + 2]
        assert (clients[3].class_counts > 0).all()

    def test_full_client_fraction(self):
        ds = small_blobs(num_classes=6, per_class=30)
        clients = partition_biased(ds, 4, seed=0)
        # floor(0.1 * 30) = 3 samples of every class for the full client
        assert clients[3].class_counts.tolist() == [3] * 6
        stacked = np.stack([c.class_counts for c in clients])
        assert stacked.sum(axis=0).tolist() == [30] * 6

    def test_validation(self):
        ds = small_blobs(num_classes=6, per_class=30)
        with pytest.raises(InvalidArgumentError):
            partition_biased(ds, 5, seed=0)  # 6 classes across 4 owners
        with pytest.raises(InvalidArgumentError):
            partition_biased(ds, 1, seed=0)
        # blobs are stored class by class: drop all but one sample of class 6
        lone = ds.subset(np.arange(ds.num_samples - 29))
        with pytest.raises(InvalidArgumentError, match="class 6 needs >= 2 samples"):
            partition_biased(lone, 4, seed=0)


class TestLongTail:
    def test_profile_formula(self):
        # oracle: direct evaluation of floor(n * rho^(-j / (C - 1)))
        n_max, num_classes, rho = 500, 10, 100.0
        oracle = [
            math.floor(n_max * rho ** (-j / (num_classes - 1)))
            for j in range(num_classes)
        ]
        profile = long_tail_profile(n_max, num_classes, rho)
        assert profile.tolist() == oracle
        assert profile.tolist() == [500, 299, 179, 107, 64, 38, 23, 13, 8, 5]

    def test_profile_monotone_and_ratio(self):
        for rho in (1.0, 2.0, 10.0, 50.0):
            profile = long_tail_profile(400, 8, rho)
            assert (np.diff(profile) <= 0).all()
            # head / tail ratio reproduces rho when the tail divides evenly
        profile = long_tail_profile(500, 10, 10.0)
        assert profile[0] / profile[-1] == 10.0

    def test_achieved_ratio_window(self):
        # floor rounding keeps head/tail within 10% of rho while the tail
        # stays above a handful of samples; at rho=200 the tail floors from
        # 2.5 down to 2 and the achieved ratio overshoots to 1.25 rho
        for rho in (10.0, 50.0, 100.0):
            profile = long_tail_profile(500, 10, rho)
            achieved = profile[0] / profile[-1]
            assert 0.9 * rho <= achieved <= 1.1 * rho
        profile = long_tail_profile(500, 10, 200.0)
        assert profile[0] / profile[-1] == 250.0

    def test_profile_rejects_rho_below_one_or_nonfinite(self):
        for rho in (0.5, math.nan, math.inf):
            with pytest.raises(InvalidArgumentError):
                long_tail_profile(10, 3, rho)

    def test_apply_identity_at_rho_one(self):
        ds = small_blobs()
        thinned = apply_long_tail(ds, 1.0, seed=0)
        assert np.array_equal(thinned.features, ds.features)
        assert np.array_equal(thinned.labels, ds.labels)

    def test_apply_matches_profile_and_order(self):
        ds = small_blobs(num_classes=5, per_class=40)
        thinned = apply_long_tail(ds, 20.0, seed=3)
        expected = long_tail_profile(40, 5, 20.0)
        assert thinned.class_counts.tolist() == expected.tolist()
        # surviving samples keep their original relative order
        sums = thinned.features.sum(axis=1)
        original = ds.features.sum(axis=1)
        pos = [int(np.flatnonzero(original == s)[0]) for s in sums]
        assert pos == sorted(pos)

    def test_apply_rejects_imbalance_and_empty_tail(self):
        ds = small_blobs()
        unbalanced = ds.subset(np.arange(ds.num_samples - 1))
        with pytest.raises(InvalidArgumentError):
            apply_long_tail(unbalanced, 2.0)
        with pytest.raises(InvalidArgumentError):
            apply_long_tail(small_blobs(per_class=3), 1000.0)


class TestPartitionDataset:
    def test_long_tailed_thins_then_partitions(self):
        ds = apply_long_tail(small_blobs(num_classes=5, per_class=40), 8.0, seed=11)
        config = PartitionConfig(scheme="dirichlet", num_clients=3, alpha=0.5, seed=11)
        clients = partition_dataset(ds, config)
        stacked = np.stack([c.class_counts for c in clients])
        expected = long_tail_profile(40, 5, 8.0)
        assert stacked.sum(axis=0).tolist() == expected.tolist()

    def test_matches_direct_calls(self):
        ds = small_blobs(per_class=40)
        config = PartitionConfig(scheme="dirichlet", num_clients=4, alpha=0.3, seed=5)
        a = partition_dataset(ds, config)
        b = partition_dirichlet(ds, 4, 0.3, seed=5)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.features, cb.features)

    @pytest.mark.parametrize("scheme", ["dirichlet", "biased"])
    def test_shards_are_datasets_with_label_counts(self, scheme):
        ds = small_blobs(num_classes=6, per_class=30)
        config = PartitionConfig(scheme=scheme, num_clients=4, alpha=0.3, seed=2)
        for c in partition_dataset(ds, config):
            assert isinstance(c, Dataset)
            assert c.num_samples == c.total >= 1
            expected = np.bincount(c.labels - 1, minlength=6)
            assert c.class_counts.tolist() == expected.tolist()

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            PartitionConfig(scheme="uniform")
        with pytest.raises(InvalidArgumentError):
            PartitionConfig(num_clients=1)
        with pytest.raises(InvalidArgumentError):
            PartitionConfig(alpha=0.0)
        for alpha in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError):
                PartitionConfig(alpha=alpha)
        with pytest.raises(InvalidArgumentError):
            PartitionConfig(scheme="long_tailed")
        with pytest.raises(InvalidArgumentError):
            PartitionConfig(seed=-1)


def split_digest(parts):
    """sha256 over each part's client id (0 for a Dataset), labels and features."""
    h = hashlib.sha256()
    for part in parts:
        h.update(struct.pack("<q", getattr(part, "client_id", 0)))
        h.update(part.labels.tobytes())
        h.update(part.features.tobytes())
    return h.hexdigest()


def _h2h_blobs():
    return generate_gaussian_blobs(10, 1000, 16, 4.0, 1)


SPLIT_CASES = {
    # every seed leaves 3-7 of the 8 clients empty before the repair
    "dirichlet-repair": lambda: [
        c
        for seed in range(20)
        for c in partition_dirichlet(small_blobs(num_classes=2, per_class=10), 8,
                                     alpha=0.05, seed=seed)
    ],
    "biased-6-class": lambda: partition_biased(
        small_blobs(num_classes=6, per_class=30), 4, seed=0
    ),
    "dirichlet-h2h": lambda: partition_dirichlet(
        split_holdout(_h2h_blobs(), 0.5, 1)[0], 10, 0.2, seed=1
    ),
    "holdout-h2h": lambda: split_holdout(_h2h_blobs(), 0.5, 1),
    "long-tail-h2h": lambda: [apply_long_tail(_h2h_blobs(), 100.0, seed=1)],
}


class TestSplitsPinned:
    """Exact splits, recorded before the split functions marked samples in
    one vector; a change here changes every experiment's data."""

    EXPECTED = {
        "dirichlet-repair": (
            "6eb83ad4f1d6ce5a3670dbee64999259"
            "95e18372b90f38892bd13bee52569fbe"
        ),
        "biased-6-class": (
            "a30100cbf4463bdbc19280822c1d249e"
            "66ba31ecb75487b8dd0d7eae7295c01e"
        ),
        "dirichlet-h2h": (
            "85eb26d43fd707a6af45941603973d15"
            "b439d1b8e93ac45e134b4921923daefc"
        ),
        "holdout-h2h": (
            "b851f99763d43921d3893021d0df2853"
            "46a22216d7b9d22d742f28c2a17ac965"
        ),
        "long-tail-h2h": (
            "0d7b36eddb94a6aade2d139c201a5019"
            "4ab5d8cb2652c8177661e2cbce62f265"
        ),
    }

    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_digest(self, case):
        assert split_digest(SPLIT_CASES[case]()) == self.EXPECTED[case]


class TestFsd1Format:
    def test_roundtrip_bitwise(self, tmp_path):
        ds = small_blobs(seed=4)
        path = tmp_path / "blob.fsd"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes

    def test_header_layout(self, tmp_path):
        ds = Dataset([[1.5, -2.0], [0.0, 3.25]], [1, 2], 2)
        path = tmp_path / "tiny.fsd"
        save_dataset(path, ds)
        raw = path.read_bytes()
        assert raw[:4] == b"FSD1"
        assert struct.unpack_from("<III", raw, 4) == (2, 2, 2)
        # one record: two little-endian f32 features then a u32 label
        assert struct.unpack_from("<ffI", raw, 16) == (1.5, -2.0, 1)
        assert len(raw) == 16 + 2 * (2 * 4 + 4)

    def test_loaded_arrays_are_writable(self, tmp_path):
        ds = small_blobs()
        path = tmp_path / "blob.fsd"
        save_dataset(path, ds)
        back = load_dataset(path)
        back.features[0, 0] = 42.0  # must not raise

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fsd"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(MalformedHeaderError):
            load_dataset(path)

    def test_empty_body_with_huge_dim(self, tmp_path):
        # a record this wide does not fit a numpy structured dtype; zero
        # samples of it are still a well-formed (empty) file
        path = tmp_path / "wide.fsd"
        path.write_bytes(struct.pack("<4sIII", b"FSD1", 0, 2**32 - 1, 1))
        ds = load_dataset(path)
        assert ds.features.shape == (0, 2**32 - 1)
        assert ds.labels.shape == (0,)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.fsd"
        path.write_bytes(b"FS")
        with pytest.raises(MalformedHeaderError):
            load_dataset(path)

    def test_label_outside_header_classes_names_file_and_row(self, tmp_path):
        ds = small_blobs(num_classes=3)
        path = tmp_path / "train.fsd"
        save_dataset(path, ds)
        raw = bytearray(path.read_bytes())
        record = 4 * ds.dim + 4
        for row, label in ((5, 7), (9, 0)):
            struct.pack_into("<I", raw, 16 + row * record + 4 * ds.dim, label)
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidArgumentError,
                           match=r"train\.fsd: row 5 has label 7 outside 1\.\.3"):
            load_dataset(path)

    def test_truncated_body(self, tmp_path):
        ds = small_blobs()
        path = tmp_path / "blob.fsd"
        save_dataset(path, ds)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TruncatedFileError):
            load_dataset(path)
