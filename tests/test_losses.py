"""Composite loss terms: closed forms, finite differences, batch vs per-sample."""

import itertools
import math

import numpy as np
import pytest

from fedsc.errors import (
    DegenerateVectorError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidArgumentError,
    LabelOutOfRangeError,
    NoNegativePrototypeError,
    NoPositivePrototypeError,
)
from fedsc.losses import (
    CPDR_NORMS,
    SimilarityContext,
    ce_loss_and_grad,
    compute_normalizers,
    cpdr_loss_and_grad,
    rpcl_loss_and_grad,
    total_loss,
)
from fedsc.model import forward_features, forward_logits, init_params
from fedsc.prototypes import ConsistentSet, RelationalSet


def random_relational(rng, num_classes, num_clients, d, all_valid=True):
    r = rng.standard_normal((num_classes, num_clients, d)) + 1.0
    if all_valid:
        valid = np.ones((num_classes, num_clients), dtype=bool)
    else:
        valid = rng.random((num_classes, num_clients)) > 0.3
        # keep at least one valid positive and one valid negative overall
        valid[0, 0] = True
        valid[-1, -1] = True
    return RelationalSet(r, valid)


class TestComputeNormalizers:
    def test_matches_naive_means(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((7, 3))
        rel = random_relational(rng, 4, 2, 3)
        ctx = compute_normalizers(feats, rel, tau=0.1)
        for j in range(4):
            for k in range(2):
                naive = np.mean(
                    [np.linalg.norm(z - rel.r[j, k]) for z in feats]
                )
                assert ctx.u[j, k] == pytest.approx(naive, rel=1e-12)
        assert ctx.tau == 0.1
        assert np.array_equal(ctx.valid, rel.valid)

    def test_invalid_cells_hold_zero(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((9, 3))
        rel = random_relational(rng, 4, 3, 3, all_valid=False)
        ctx = compute_normalizers(feats, rel)
        assert not rel.valid.all()
        assert (ctx.u[~rel.valid] == 0.0).all()
        assert (ctx.u[rel.valid] > 0.0).all()

    def test_context_is_a_read_only_snapshot(self):
        # the prepared RPCL prototypes would not see an in-place edit
        rng = np.random.default_rng(3)
        rel = random_relational(rng, 2, 2, 3)
        ctx = compute_normalizers(rng.standard_normal((5, 3)), rel)
        with pytest.raises(ValueError):
            ctx.u[0, 0] = 1.0
        with pytest.raises(ValueError):
            ctx.valid[0, 0] = False

    def test_validation(self):
        rng = np.random.default_rng(1)
        rel = random_relational(rng, 2, 2, 3)
        with pytest.raises(EmptyDatasetError):
            compute_normalizers(np.empty((0, 3)), rel)
        for shape in ((3,), (2, 4, 3)):
            with pytest.raises(DimensionMismatchError):
                compute_normalizers(np.ones(shape), rel)
        with pytest.raises(DimensionMismatchError):
            compute_normalizers(np.ones((4, 5)), rel)
        for tau in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidArgumentError):
                SimilarityContext(np.ones((2, 2)), np.ones((2, 2), dtype=bool), tau=tau)


class TestSetShapes:
    def test_context_mask_must_match_normalizers(self):
        # a (3, 1) mask would broadcast against a (3, 2) relational set
        with pytest.raises(DimensionMismatchError):
            SimilarityContext(np.ones((3, 2)), np.ones((3, 1), dtype=bool), 0.1)

    def test_relational_mask_must_match_its_prototypes(self):
        # compute_normalizers would read a (3, 2) grid from r and pass (2, 2) on
        with pytest.raises(DimensionMismatchError):
            RelationalSet(np.ones((3, 2, 3)), np.ones((2, 2), dtype=bool))

    def test_consistent_mask_must_match_its_prototypes(self):
        with pytest.raises(DimensionMismatchError):
            ConsistentSet(np.ones((3, 4)), np.ones(2, dtype=bool))


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 5, 10):
            loss, grad = ce_loss_and_grad(np.zeros(c), 1)
            assert loss == pytest.approx(math.log(c), abs=1e-9)
            expected = np.full(c, 1.0 / c)
            expected[0] -= 1.0
            assert np.allclose(grad, expected, atol=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([2.0, -1.0, 0.5])
        loss, grad = ce_loss_and_grad(logits, 3)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        expected = p.copy()
        expected[2] -= 1.0
        assert np.allclose(grad, expected, atol=1e-12)
        assert loss == pytest.approx(-math.log(p[2]), abs=1e-12)

    def test_shift_invariance(self):
        logits = np.array([1.0, 2.0, 3.0])
        a, _ = ce_loss_and_grad(logits, 2)
        b, _ = ce_loss_and_grad(logits + 1000.0, 2)
        assert a == pytest.approx(b, abs=1e-9)

    def test_label_range(self):
        with pytest.raises(LabelOutOfRangeError):
            ce_loss_and_grad(np.zeros(3), 0)
        with pytest.raises(LabelOutOfRangeError):
            ce_loss_and_grad(np.zeros(3), 4)


class TestCpdr:
    def test_shapes_checked(self):
        wide = ConsistentSet(np.zeros((3, 4)), np.ones(3, dtype=bool))
        with pytest.raises(DimensionMismatchError, match="consistent"):
            cpdr_loss_and_grad(np.ones(3), 1, wide)
        with pytest.raises(DimensionMismatchError):
            cpdr_loss_and_grad(np.ones((2, 4)), 1, wide)

    def test_l1_value_and_sign_gradient(self):
        consistent = ConsistentSet(
            np.array([[1.0, -1.0, 0.0]]), np.array([True])
        )
        z = np.array([2.0, -3.0, 0.0])
        loss, grad = cpdr_loss_and_grad(z, 1, consistent, norm="l1")
        assert loss == pytest.approx(1.0 + 2.0 + 0.0, abs=1e-12)
        assert np.array_equal(grad, [1.0, -1.0, 0.0])

    def test_default_is_mean_squared_distance(self):
        consistent = ConsistentSet(
            np.array([[1.0, -1.0, 0.0]]), np.array([True])
        )
        z = np.array([2.0, -3.0, 0.0])
        loss, grad = cpdr_loss_and_grad(z, 1, consistent)
        assert loss == pytest.approx((1.0 + 4.0 + 0.0) / 3.0, abs=1e-12)
        assert np.allclose(grad, [2.0 / 3.0, -4.0 / 3.0, 0.0], atol=1e-12)

    def test_sq_zero_distance_has_zero_loss_and_gradient(self):
        consistent = ConsistentSet(np.array([[1.0, 2.0]]), np.array([True]))
        loss, grad = cpdr_loss_and_grad(np.array([1.0, 2.0]), 1, consistent, "sq")
        assert loss == 0.0
        assert np.array_equal(grad, [0.0, 0.0])

    def test_missing_prototype_and_bad_norm(self):
        consistent = ConsistentSet(np.zeros((2, 2)), np.array([True, False]))
        with pytest.raises(NoPositivePrototypeError):
            cpdr_loss_and_grad(np.ones(2), 2, consistent)
        with pytest.raises(InvalidArgumentError):
            cpdr_loss_and_grad(np.ones(2), 1, consistent, norm="linf")


class TestRpcl:
    def test_shapes_checked(self):
        rel = RelationalSet(np.ones((3, 2, 4)), np.ones((3, 2), dtype=bool))
        narrow = SimilarityContext(np.ones((3, 1)), np.ones((3, 1), dtype=bool))
        with pytest.raises(DimensionMismatchError, match="normalizers"):
            rpcl_loss_and_grad(np.ones(4), 1, rel, narrow)
        ctx = SimilarityContext(np.ones((3, 2)), np.ones((3, 2), dtype=bool))
        with pytest.raises(DimensionMismatchError, match="relational"):
            rpcl_loss_and_grad(np.ones(5), 1, rel, ctx)

    def test_symmetric_prototypes_give_log_c(self):
        # every class holds the same prototype, so all similarities tie and
        # the contrast reduces to log(#prototypes / #positives)
        for c in (2, 4, 7):
            r = np.tile(np.array([1.0, 2.0, -1.0]), (c, 1, 1))
            rel = RelationalSet(r, np.ones((c, 1), dtype=bool))
            ctx = SimilarityContext(np.full((c, 1), 1.3), rel.valid, tau=0.05)
            loss, grad = rpcl_loss_and_grad(np.array([0.5, 1.0, 0.0]), 1, rel, ctx)
            assert loss == pytest.approx(math.log(c), abs=1e-12)
            assert np.allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        rel = random_relational(rng, 3, 2, 4)
        z = rng.standard_normal(4) + 0.5
        ctx = SimilarityContext(
            rng.uniform(0.5, 2.0, size=(3, 2)), rel.valid, tau=0.07
        )
        _, grad = rpcl_loss_and_grad(z, 2, rel, ctx)
        h = 1e-7
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            up, _ = rpcl_loss_and_grad(zp, 2, rel, ctx)
            down, _ = rpcl_loss_and_grad(zm, 2, rel, ctx)
            assert grad[i] == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-8)

    def test_loss_decreases_when_positive_gets_closer(self):
        rng = np.random.default_rng(4)
        rel = random_relational(rng, 3, 1, 4)
        ctx = SimilarityContext(np.ones((3, 1)), rel.valid, tau=0.05)
        target = rel.r[0, 0]
        near, _ = rpcl_loss_and_grad(target, 1, rel, ctx)
        far, _ = rpcl_loss_and_grad(-target, 1, rel, ctx)
        assert near < far

    def test_no_positive_or_negative_raises(self):
        r = np.ones((2, 1, 3))
        ctx_valid = np.ones((2, 1), dtype=bool)
        rel = RelationalSet(r, np.array([[False], [True]]))
        ctx = SimilarityContext(np.ones((2, 1)), ctx_valid, tau=0.05)
        with pytest.raises(NoPositivePrototypeError):
            rpcl_loss_and_grad(np.ones(3), 1, rel, ctx)
        with pytest.raises(NoNegativePrototypeError):
            rpcl_loss_and_grad(np.ones(3), 2, rel, ctx)

    def test_degenerate_feature_raises(self):
        rng = np.random.default_rng(5)
        rel = random_relational(rng, 2, 1, 3)
        ctx = SimilarityContext(np.ones((2, 1)), rel.valid, tau=0.05)
        with pytest.raises(DegenerateVectorError):
            rpcl_loss_and_grad(np.zeros(3), 1, rel, ctx)


class TestTotalLoss:
    def setup_case(self, seed=0, n=6, partial=False):
        rng = np.random.default_rng(seed)
        params = init_params(3, 5, 4, 3, seed=seed)
        params.b2 += 0.1  # keep features off exact zero despite dead relus
        x = rng.standard_normal((n, 3))
        y = rng.integers(1, 4, size=n)
        batch = forward_features(params, x, y)
        rel = random_relational(rng, 3, 2, 4, all_valid=not partial)
        present = np.array([True, True, not partial])
        consistent = ConsistentSet(rng.standard_normal((3, 4)), present)
        ctx = compute_normalizers(batch.z, rel, tau=0.08)
        return params, batch, rel, consistent, ctx

    def test_total_is_sum_of_terms(self):
        params, batch, rel, consistent, ctx = self.setup_case()
        out = total_loss(batch, rel, consistent, ctx, params)
        assert out.total == pytest.approx(out.ce + out.rpcl + out.cpdr, abs=1e-12)

    def test_matches_per_sample_reference(self):
        cases = ((0, False), (1, True), (2, True))
        for norm, (seed, partial) in itertools.product(CPDR_NORMS, cases):
            params, batch, rel, consistent, ctx = self.setup_case(seed, partial=partial)
            out = total_loss(batch, rel, consistent, ctx, params, cpdr_norm=norm)
            logits = forward_logits(params, batch.z)
            n = batch.z.shape[0]
            ce_sum = rpcl_sum = cpdr_sum = 0.0
            for i in range(n):
                label = int(batch.labels[i])
                ce_sum += ce_loss_and_grad(logits[i], label)[0]
                try:
                    rpcl_sum += rpcl_loss_and_grad(batch.z[i], label, rel, ctx)[0]
                except (NoPositivePrototypeError, NoNegativePrototypeError):
                    pass  # batch path gates these samples to zero
                try:
                    cpdr_sum += cpdr_loss_and_grad(
                        batch.z[i], label, consistent, norm
                    )[0]
                except NoPositivePrototypeError:
                    pass
            assert out.ce == pytest.approx(ce_sum / n, rel=1e-10)
            assert out.rpcl == pytest.approx(rpcl_sum / n, rel=1e-10)
            assert out.cpdr == pytest.approx(cpdr_sum / n, rel=1e-10)

    def test_grad_z_matches_finite_differences(self):
        for norm in CPDR_NORMS:
            self.check_grad_z(norm)

    def check_grad_z(self, norm):
        params, batch, rel, consistent, ctx = self.setup_case(seed=3)
        out = total_loss(batch, rel, consistent, ctx, params, cpdr_norm=norm)

        def prototype_terms(z):
            fb = forward_features(params, batch.inputs, batch.labels)
            fb.z = z
            got = total_loss(fb, rel, consistent, ctx, params, cpdr_norm=norm)
            return got.rpcl + got.cpdr

        h = 1e-6
        numeric = np.zeros_like(batch.z)
        for i in range(batch.z.shape[0]):
            for j in range(batch.z.shape[1]):
                zp, zm = batch.z.copy(), batch.z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                numeric[i, j] = (prototype_terms(zp) - prototype_terms(zm)) / (2 * h)
        # step over any sample sitting on an L1 kink
        mask = np.abs(batch.z - consistent.o[batch.labels - 1]) > 1e-4
        assert np.allclose(out.grad_z[mask], numeric[mask], rtol=1e-4, atol=1e-7)

    def test_grad_logits_matches_ce_finite_differences(self):
        params, batch, rel, consistent, ctx = self.setup_case(seed=4)
        out = total_loss(batch, rel, consistent, ctx, params)
        logits = forward_logits(params, batch.z)
        h = 1e-6
        for i in range(2):
            for j in range(params.num_classes):
                lp, lm = logits.copy(), logits.copy()
                lp[i, j] += h
                lm[i, j] -= h
                up = np.mean([
                    ce_loss_and_grad(lp[q], int(batch.labels[q]))[0]
                    for q in range(len(lp))
                ])
                down = np.mean([
                    ce_loss_and_grad(lm[q], int(batch.labels[q]))[0]
                    for q in range(len(lm))
                ])
                assert out.grad_logits[i, j] == pytest.approx(
                    (up - down) / (2 * h), rel=1e-5, abs=1e-9
                )

    def test_rejects_nonpositive_normalizer_like_reference(self):
        params, batch, rel, consistent, ctx = self.setup_case(seed=7)
        # an invalid entry's normalizer is never used
        u, valid = ctx.u.copy(), ctx.valid.copy()
        valid[1, 0] = False
        u[1, 0] = 0.0
        out = total_loss(batch, rel, consistent,
                         SimilarityContext(u, valid, ctx.tau), params)
        assert np.isfinite(out.rpcl)
        u[0, 1] = 0.0
        bad = SimilarityContext(u, valid, ctx.tau)
        with pytest.raises(InvalidArgumentError):
            rpcl_loss_and_grad(batch.z[0], 1, rel, bad)
        with pytest.raises(InvalidArgumentError):
            total_loss(batch, rel, consistent, bad, params)

    def test_invalid_cell_normalizer_unused_in_computed_context(self):
        params, batch, rel, consistent, ctx = self.setup_case(seed=2, partial=True)
        assert not rel.valid.all() and (ctx.u[~rel.valid] == 0.0).all()
        out = total_loss(batch, rel, consistent, ctx, params)
        assert np.isfinite(out.rpcl) and np.isfinite(out.grad_z).all()

    def test_nonpositive_normalizer_rejected_when_computed(self):
        # every feature sits on prototype r[0, 0], exactly: u[0, 0] == 0
        rng = np.random.default_rng(8)
        rel = random_relational(rng, 3, 2, 3)
        rel.r[0, 0] = (1.0, 2.0, 2.0)
        with pytest.raises(InvalidArgumentError):
            compute_normalizers(np.tile(rel.r[0, 0], (4, 1)), rel)

    def test_zero_norm_prototype_rejected(self):
        params, batch, rel, consistent, ctx = self.setup_case(seed=9)
        rel.r[2, 1] = 0.0
        with pytest.raises(DegenerateVectorError):
            compute_normalizers(batch.z, rel)
        hand = SimilarityContext(ctx.u.copy(), ctx.valid.copy(), ctx.tau)
        with pytest.raises(DegenerateVectorError):
            total_loss(batch, rel, consistent, hand, params)

    @pytest.mark.parametrize("partial", [False, True])
    def test_computed_and_hand_built_contexts_agree(self, partial):
        params, batch, rel, consistent, ctx = self.setup_case(seed=10, partial=partial)
        hand = SimilarityContext(ctx.u.copy(), ctx.valid.copy(), ctx.tau)
        self.assert_same(total_loss(batch, rel, consistent, ctx, params),
                         total_loss(batch, rel, consistent, hand, params))

    def test_computed_context_follows_the_relational_set_given(self):
        params, batch, rel, consistent, ctx = self.setup_case(seed=11)
        other = RelationalSet(rel.r[:, ::-1] * 2.0, rel.valid.copy())
        hand = SimilarityContext(ctx.u.copy(), ctx.valid.copy(), ctx.tau)
        got = total_loss(batch, other, consistent, ctx, params)
        self.assert_same(got, total_loss(batch, other, consistent, hand, params))
        assert got.rpcl != total_loss(batch, rel, consistent, ctx, params).rpcl

    @staticmethod
    def assert_same(a, b):
        assert (a.ce, a.rpcl, a.cpdr, a.total) == (b.ce, b.rpcl, b.cpdr, b.total)
        assert np.array_equal(a.grad_z, b.grad_z)
        assert np.array_equal(a.grad_logits, b.grad_logits)

    @pytest.mark.parametrize("grid", [(3, 1), (2, 2)])
    def test_context_must_cover_relational_grid(self, grid):
        # neither grid may reach numpy's indexing or broadcasting
        params, batch, rel, consistent, _ = self.setup_case()
        ctx = SimilarityContext(np.ones(grid), np.ones(grid, dtype=bool), 0.1)
        with pytest.raises(DimensionMismatchError, match="normalizers"):
            total_loss(batch, rel, consistent, ctx, params)

    def test_consistent_must_match_model_classes(self):
        params, batch, rel, _, ctx = self.setup_case()
        two = ConsistentSet(np.zeros((2, 4)), np.ones(2, dtype=bool))
        with pytest.raises(DimensionMismatchError, match="consistent"):
            total_loss(batch, rel, two, ctx, params)

    def test_consistent_must_match_feature_width(self):
        params, batch, rel, _, ctx = self.setup_case()
        wide = ConsistentSet(np.zeros((3, 5)), np.ones(3, dtype=bool))
        with pytest.raises(DimensionMismatchError, match="consistent"):
            total_loss(batch, rel, wide, ctx, params)

    def test_relational_must_match_model_classes_and_width(self):
        params, batch, _, consistent, _ = self.setup_case()
        rng = np.random.default_rng(5)
        for classes, d in ((2, 4), (3, 5)):
            rel = random_relational(rng, classes, 2, d)
            ctx = SimilarityContext(np.ones((classes, 2)), rel.valid, 0.1)
            with pytest.raises(DimensionMismatchError, match="relational"):
                total_loss(batch, rel, consistent, ctx, params)

    def test_without_prototypes_reduces_to_ce(self):
        params, batch, _, _, _ = self.setup_case(seed=6)
        out = total_loss(batch, None, None, None, params)
        assert out.rpcl == 0.0 and out.cpdr == 0.0
        assert out.total == out.ce
        assert np.array_equal(out.grad_z, np.zeros_like(batch.z))

    def test_requires_labels_and_valid_range(self):
        params, batch, rel, consistent, ctx = self.setup_case(seed=7)
        unlabelled = forward_features(params, batch.inputs)
        with pytest.raises(InvalidArgumentError):
            total_loss(unlabelled, rel, consistent, ctx, params)
        bad = forward_features(params, batch.inputs,
                               np.full(batch.z.shape[0], 9))
        with pytest.raises(LabelOutOfRangeError):
            total_loss(bad, rel, consistent, ctx, params)
