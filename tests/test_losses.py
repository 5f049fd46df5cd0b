"""Composite loss terms: closed forms, finite differences, batch vs the
per-sample references in ``reference_losses``."""

import dataclasses
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from fedsc.errors import (
    DegeneratePrototypeError,
    DegenerateVectorError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidArgumentError,
    LabelOutOfRangeError,
)
from fedsc.data import ClientDataset
from fedsc.federation import _TAG_CLIENT, FederationConfig, run_client
from fedsc.losses import (
    SimilarityContext,
    _rpcl_batch,
    check_loss_inputs,
    compute_normalizers,
    total_loss,
)
from fedsc.model import (
    OptimizerConfig,
    StepArrays,
    backward,
    extract_features,
    forward_features,
    init_params,
    sgd_step,
)
from fedsc.prototypes import ConsistentSet, RelationalSet
from reference_losses import (
    ce_loss_and_grad,
    cpdr_loss_and_grad,
    one_row_batch,
    rpcl_loss_and_grad,
)


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

    def test_context_and_set_cannot_go_stale(self):
        # the prepared RPCL prototypes hold tau and r as they were computed
        rng = np.random.default_rng(3)
        r = rng.standard_normal((2, 2, 3)) + 1.0
        rel = RelationalSet(r, np.ones((2, 2), dtype=bool))
        ctx = compute_normalizers(rng.standard_normal((5, 3)), rel)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.tau = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            rel.r = -rel.r
        with pytest.raises(ValueError):
            rel.r[0, 0] *= -1
        with pytest.raises(ValueError):
            rel.valid[0, 0] = False
        r[0, 0] *= -1  # the set holds its own copy
        assert np.array_equal(rel.r[0, 0], -r[0, 0])

    def test_set_arrays_are_read_only(self):
        rng = np.random.default_rng(4)
        rel = random_relational(rng, 3, 4, 5, all_valid=False)
        ctx = compute_normalizers(rng.standard_normal((6, 5)), rel)
        rows, scaled = ctx.rows, ctx.scaled
        arrays = [a for a in rows if isinstance(a, np.ndarray)] + [scaled]
        assert len(arrays) == len(rows)
        for a in arrays:
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            rows.positive[0, 0] = 0.0
        for name in ("relational", "rows", "scaled"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ctx, name, None)

    def test_set_arrays_are_built_once_per_set(self):
        # catches a rebuild at every epoch: five epochs' normalizers read the
        # same array objects, and each context keeps the set's rows
        rng = np.random.default_rng(5)
        rel = random_relational(rng, 3, 4, 5, all_valid=False)
        first = rel.valid_rows
        for _ in range(5):
            ctx = compute_normalizers(rng.standard_normal((6, 5)), rel)
            rows = ctx.rows
            assert ctx.rows is rel.valid_rows
            assert rows is first and rel.valid_rows is first
            assert all(a is b for a, b in zip(rows, first))
        valid = rel.valid
        assert np.array_equal(first.rows, rel.r[valid])
        assert np.array_equal(first.norms, np.linalg.norm(rel.r[valid], axis=1))
        assert np.array_equal(first.positive.astype(bool),
                              np.nonzero(valid)[0] == np.arange(3)[:, None])

    def test_pickled_set_leaves_its_arrays_behind_and_gives_the_same_loss(self):
        # a worker receives the set pickled: it rebuilds the arrays itself,
        # and they give the same bits
        params, batch, rel, consistent, _ = TestTotalLoss().setup_case(seed=6,
                                                                       partial=True)
        ctx = compute_normalizers(batch.z, rel, tau=0.08)
        want = total_loss(batch, rel, consistent, ctx, params)
        sent = pickle.dumps(rel)
        assert len(sent) < len(pickle.dumps(rel.valid_rows))
        got = pickle.loads(sent)
        assert "valid_rows" not in vars(got)
        assert not got.r.flags.writeable and not got.valid.flags.writeable
        ctx = compute_normalizers(batch.z, got, tau=0.08)
        TestTotalLoss.assert_same(want, total_loss(batch, got, consistent, ctx, params))

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
                SimilarityContext(rel, np.ones((2, 2)), tau=tau)


class TestSetShapes:
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


class TestCpdr:
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
        loss, grad = cpdr_loss_and_grad(np.array([1.0, 2.0]), 1, consistent)
        assert loss == 0.0
        assert np.array_equal(grad, [0.0, 0.0])


class TestRpcl:
    @staticmethod
    def both_paths(z, label, rel, ctx):
        """The loss and gradient of one sample from the reference and from
        ``total_loss`` on a one-row batch."""
        params = init_params(1, 1, rel.r.shape[2], rel.r.shape[0])
        out = total_loss(one_row_batch(params, z, label), rel, None, ctx, params)
        return rpcl_loss_and_grad(z, label, rel, ctx), (out.rpcl, out.grad_z[0])

    def test_symmetric_prototypes_give_log_c(self):
        # every class holds the same prototype, so all similarities tie and
        # the contrast reduces to log(#prototypes / #positives)
        for c in (2, 4, 7):
            r = np.tile(np.array([1.0, 2.0, -1.0]), (c, 1, 1))
            rel = RelationalSet(r, np.ones((c, 1), dtype=bool))
            ctx = SimilarityContext(rel, np.full((c, 1), 1.3), tau=0.05)
            for loss, grad in self.both_paths(np.array([0.5, 1.0, 0.0]), 1, rel, ctx):
                assert loss == pytest.approx(math.log(c), abs=1e-12)
                assert np.allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        rel = random_relational(rng, 3, 2, 4)
        z = rng.standard_normal(4) + 0.5
        ctx = SimilarityContext(rel, rng.uniform(0.5, 2.0, size=(3, 2)), tau=0.07)
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
        ctx = SimilarityContext(rel, np.ones((3, 1)), tau=0.05)
        target = rel.r[0, 0]
        for (near, _), (far, _) in zip(self.both_paths(target, 1, rel, ctx),
                                       self.both_paths(-target, 1, rel, ctx)):
            assert near < far

    def test_no_positive_or_negative_contributes_zero(self):
        # class 1 has no valid prototype, and class 2 holds every one
        r = np.ones((2, 1, 3))
        rel = RelationalSet(r, np.array([[False], [True]]))
        ctx = SimilarityContext(rel, np.ones((2, 1)), tau=0.05)
        for label in (1, 2):
            for loss, grad in self.both_paths(np.ones(3), label, rel, ctx):
                assert loss == 0.0
                assert np.array_equal(grad, np.zeros(3))

    def test_degenerate_feature_raises(self):
        rng = np.random.default_rng(5)
        rel = random_relational(rng, 2, 1, 3)
        ctx = SimilarityContext(rel, np.ones((2, 1)), tau=0.05)
        with pytest.raises(DegenerateVectorError):
            rpcl_loss_and_grad(np.zeros(3), 1, rel, ctx)
        params = init_params(1, 1, 3, 2)
        with pytest.raises(DegenerateVectorError):
            total_loss(one_row_batch(params, np.zeros(3), 1), rel, None, ctx, params)

    def test_zero_norm_prototype_raises(self):
        r = np.ones((2, 1, 3))
        r[1, 0] = 0.0
        rel = RelationalSet(r, np.ones((2, 1), dtype=bool))
        # the reference reads only u and tau of its context, which the batch
        # path can no longer be given for this set
        normalizers = SimpleNamespace(u=np.ones((2, 1)), tau=0.05)
        with pytest.raises(DegeneratePrototypeError, match="^zero-norm relational prototype$"):
            rpcl_loss_and_grad(np.ones(3), 1, rel, normalizers)
        with pytest.raises(DegeneratePrototypeError, match="^zero-norm relational prototype$"):
            SimilarityContext(rel, normalizers.u, normalizers.tau)


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
        # seeds 1 and 2 leave some samples without a positive, a negative or
        # a consistent prototype, where both paths contribute zero
        for seed, partial in ((0, False), (1, True), (2, True)):
            params, batch, rel, consistent, ctx = self.setup_case(seed, partial=partial)
            out = total_loss(batch, rel, consistent, ctx, params)
            logits = batch.z @ params.v + params.c
            n = batch.z.shape[0]
            ce_sum = rpcl_sum = cpdr_sum = 0.0
            grad_z, grad_logits = np.zeros_like(batch.z), np.zeros_like(logits)
            for i in range(n):
                label = int(batch.labels[i])
                ce, grad_logits[i] = ce_loss_and_grad(logits[i], label)
                rpcl, rpcl_grad = rpcl_loss_and_grad(batch.z[i], label, rel, ctx)
                cpdr, cpdr_grad = cpdr_loss_and_grad(batch.z[i], label, consistent)
                ce_sum, rpcl_sum, cpdr_sum = ce_sum + ce, rpcl_sum + rpcl, cpdr_sum + cpdr
                grad_z[i] = rpcl_grad + cpdr_grad
            assert out.ce == pytest.approx(ce_sum / n, rel=1e-10)
            assert out.rpcl == pytest.approx(rpcl_sum / n, rel=1e-10)
            assert out.cpdr == pytest.approx(cpdr_sum / n, rel=1e-10)
            np.testing.assert_allclose(out.grad_z, grad_z / n, rtol=1e-10, atol=1e-13)
            np.testing.assert_allclose(out.grad_logits, grad_logits / n,
                                       rtol=1e-10, atol=1e-13)

    def test_grad_z_matches_finite_differences(self):
        params, batch, rel, consistent, ctx = self.setup_case(seed=3)
        out = total_loss(batch, rel, consistent, ctx, params)

        def prototype_terms(z):
            fb = forward_features(params, batch.inputs, batch.labels)
            fb.z[:] = z
            got = total_loss(fb, rel, consistent, ctx, params)
            return got.rpcl + got.cpdr

        h = 1e-6
        numeric = np.zeros_like(batch.z)
        for i in range(batch.z.shape[0]):
            for j in range(batch.z.shape[1]):
                zp, zm = batch.z.copy(), batch.z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                numeric[i, j] = (prototype_terms(zp) - prototype_terms(zm)) / (2 * h)
        assert np.allclose(out.grad_z, numeric, rtol=1e-4, atol=1e-7)

    def test_grad_logits_matches_ce_finite_differences(self):
        params, batch, rel, consistent, ctx = self.setup_case(seed=4)
        out = total_loss(batch, rel, consistent, ctx, params)
        logits = batch.z @ params.v + params.c
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
        valid = rel.valid.copy()
        valid[1, 0] = False
        rel = RelationalSet(rel.r, valid)
        u = ctx.u.copy()
        u[1, 0] = 0.0
        out = total_loss(batch, rel, consistent, SimilarityContext(rel, u, ctx.tau),
                         params)
        assert np.isfinite(out.rpcl)
        u[0, 1] = 0.0
        with pytest.raises(InvalidArgumentError):
            rpcl_loss_and_grad(batch.z[0], 1, rel, SimpleNamespace(u=u, tau=ctx.tau))
        with pytest.raises(InvalidArgumentError):
            SimilarityContext(rel, u, ctx.tau)

    def test_invalid_cell_normalizer_unused_in_computed_context(self):
        params, batch, rel, consistent, ctx = self.setup_case(seed=2, partial=True)
        assert not rel.valid.all() and (ctx.u[~rel.valid] == 0.0).all()
        out = total_loss(batch, rel, consistent, ctx, params)
        assert np.isfinite(out.rpcl) and np.isfinite(out.grad_z).all()

    def test_nonpositive_normalizer_rejected_when_computed(self):
        # every feature sits on prototype r[0, 0], exactly: u[0, 0] == 0
        rng = np.random.default_rng(8)
        r = random_relational(rng, 3, 2, 3).r.copy()
        r[0, 0] = (1.0, 2.0, 2.0)
        rel = RelationalSet(r, np.ones((3, 2), dtype=bool))
        with pytest.raises(InvalidArgumentError):
            compute_normalizers(np.tile(rel.r[0, 0], (4, 1)), rel)

    def test_zero_norm_prototype_rejected(self):
        params, batch, rel, consistent, ctx = self.setup_case(seed=9)
        r = rel.r.copy()
        r[2, 1] = 0.0
        rel = RelationalSet(r, rel.valid)
        # a failed build caches nothing, so every call raises again
        for _ in range(2):
            with pytest.raises(DegeneratePrototypeError):
                compute_normalizers(batch.z, rel)
        with pytest.raises(DegeneratePrototypeError):
            SimilarityContext(rel, ctx.u.copy(), ctx.tau)

    @pytest.mark.parametrize("partial", [False, True])
    def test_computed_and_hand_built_contexts_agree(self, partial):
        params, batch, rel, consistent, ctx = self.setup_case(seed=10, partial=partial)
        hand = SimilarityContext(rel, ctx.u.copy(), ctx.tau)
        self.assert_same(total_loss(batch, rel, consistent, ctx, params),
                         total_loss(batch, rel, consistent, hand, params))

    def test_hand_built_context_holds_its_own_copies(self):
        # the scaled prototypes kept with a context cannot go stale
        params, batch, rel, consistent, ctx = self.setup_case(seed=13)
        u = ctx.u.copy()
        hand = SimilarityContext(rel, u, ctx.tau)
        before = total_loss(batch, rel, consistent, hand, params)
        u *= 2.0
        self.assert_same(before, total_loss(batch, rel, consistent, hand, params))
        with pytest.raises(ValueError):
            hand.u[0, 0] = 1.0

    def test_context_must_belong_to_the_relational_set_given(self):
        # a context is made for one set object: an equal copy is another set
        params, batch, rel, consistent, ctx = self.setup_case(seed=11)
        for other in (RelationalSet(rel.r[:, ::-1] * 2.0, rel.valid.copy()),
                      RelationalSet(rel.r, rel.valid)):
            with pytest.raises(InvalidArgumentError, match="another relational set"):
                total_loss(batch, other, consistent, ctx, params)

    def test_leaves_its_inputs_unchanged(self):
        # perfbench's loss probe times total_loss again and again on one batch
        params, batch, rel, consistent, ctx = self.setup_case(seed=12, partial=True)
        inputs = (params.flat, batch.inputs_aug, batch.pre1, batch.act1_aug, batch.z_aug,
                  batch.labels, ctx.u, ctx.valid, *ctx.rows[:-1], ctx.scaled, rel.r,
                  rel.valid, consistent.o, consistent.present)
        before = [a.tobytes() for a in inputs]
        out = total_loss(batch, rel, consistent, ctx, params)
        self.assert_same(out, total_loss(batch, rel, consistent, ctx, params))
        upstream = (out.grad_z, out.grad_logits)
        sent = [a.tobytes() for a in upstream]
        backward(params, batch, *upstream)
        assert [a.tobytes() for a in upstream] == sent
        assert [a.tobytes() for a in inputs] == before

    @staticmethod
    def assert_same(a, b):
        assert (a.ce, a.rpcl, a.cpdr, a.total) == (b.ce, b.rpcl, b.cpdr, b.total)
        assert np.array_equal(a.grad_z, b.grad_z)
        assert np.array_equal(a.grad_logits, b.grad_logits)

    @pytest.mark.parametrize("grid", [(3, 1), (2, 2)])
    def test_context_must_cover_relational_grid(self, grid):
        # neither grid may reach numpy's indexing or broadcasting
        _, _, rel, _, _ = self.setup_case()
        with pytest.raises(DimensionMismatchError, match="normalizers"):
            SimilarityContext(rel, np.ones(grid), 0.1)

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
            ctx = SimilarityContext(rel, np.ones((classes, 2)), 0.1)
            with pytest.raises(DimensionMismatchError, match="relational"):
                total_loss(batch, rel, consistent, ctx, params)

    def test_rpcl_mask_skip_gives_the_masked_bits(self):
        # when every class is contrasted the batch RPCL skips a multiply by
        # 1.0 and a where that keeps every loss; the masked path must agree
        params, batch, rel, consistent, ctx = self.setup_case(seed=15)
        rows, scaled = ctx.rows, ctx.scaled
        assert rows.all_contrasted
        idx = batch.labels - 1

        def rpcl(valid_rows):
            grad = np.empty_like(batch.z)
            scratch = np.empty((3, len(idx), len(scaled)))
            return _rpcl_batch(batch.z, idx, valid_rows, scaled, grad, *scratch), grad

        skipped = rpcl(rows)
        masked = rpcl(rows._replace(all_contrasted=False))
        for a, b in zip(skipped, masked):
            assert a.tobytes() == b.tobytes()

    def test_rpcl_without_a_valid_prototype_contributes_zero(self):
        params, batch, rel, consistent, _ = self.setup_case(seed=13)
        none_valid = RelationalSet(rel.r, np.zeros_like(rel.valid))
        ctx = compute_normalizers(batch.z, none_valid)
        out = total_loss(batch, none_valid, consistent, ctx, params)
        assert out.rpcl == 0.0
        self.assert_same(out, total_loss(batch, None, consistent, None, params))

    def test_zero_norm_feature_row_rejected(self):
        params, batch, rel, consistent, ctx = self.setup_case(seed=14)
        batch.z[2] = 0.0
        with pytest.raises(DegenerateVectorError, match="zero-norm feature vector"):
            total_loss(batch, rel, consistent, ctx, params)

    def test_unknown_cpdr_norm_rejected(self):
        # checked at entry, so also when no CPDR term is computed
        params, batch, rel, consistent, ctx = self.setup_case(seed=15)
        for con in (consistent, None):
            with pytest.raises(InvalidArgumentError, match="unknown cpdr norm 'l2'"):
                total_loss(batch, rel, con, ctx, params, cpdr_norm="l2")

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

    def test_empty_batch_rejected(self):
        # labels.min() would raise numpy's bare ValueError on zero rows
        params, batch, rel, consistent, ctx = self.setup_case(seed=7)
        empty = forward_features(params, batch.inputs[:0], batch.labels[:0])
        for args in ((rel, consistent, ctx), (None, None, None)):
            with pytest.raises(EmptyDatasetError, match="at least one labelled row"):
                total_loss(empty, *args, params)

    def test_labels_must_be_one_per_row(self):
        # must not reach numpy's broadcasting in the CE gather
        params, batch, rel, consistent, ctx = self.setup_case(seed=7)
        short = forward_features(params, batch.inputs, batch.labels[:2])
        with pytest.raises(DimensionMismatchError, match="labels shape"):
            total_loss(short, rel, consistent, ctx, params)


class TestStepArrays:
    """The client step with its arrays allocated once gives the bits of the
    checked calls, which allocate their own."""

    BATCH = 4

    @staticmethod
    def case():
        rng = np.random.default_rng(21)
        params = init_params(5, 7, 4, 3, seed=21)
        params.b2 += 0.1  # keep features off exact zero despite dead relus
        x = rng.standard_normal((10, 5)).astype(np.float32)
        y = np.array([1, 2, 3, 1, 2, 3, 3, 2, 3, 1])
        # class 3 has no valid prototype, so not every class is contrasted,
        # and class 2 has no consistent prototype
        valid = np.array([[True, True], [True, False], [False, False]])
        rel = RelationalSet(rng.standard_normal((3, 2, 4)) + 1.0, valid)
        consistent = ConsistentSet(rng.standard_normal((3, 4)),
                                   np.array([True, False, True]))
        return params, x, y, rel, consistent

    # a full batch, the short last batch and a one-row batch
    @pytest.mark.parametrize("rows", [slice(0, 4), slice(8, 10), slice(9, 10)],
                             ids=["full", "short", "one-row"])
    @pytest.mark.parametrize("algorithm", ["fedavg", "fedsc"])
    def test_the_step_with_arrays_gives_the_checked_bits(self, rows, algorithm):
        params, x, y, rel, consistent = self.case()
        assert not rel.valid_rows.all_contrasted
        ctx = compute_normalizers(extract_features(params, x), rel)
        if algorithm == "fedavg":
            rel = consistent = ctx = None
        width = 0 if rel is None else len(rel.valid_rows.cells)
        arrays = StepArrays(params, x, self.BATCH, width)
        check_loss_inputs(y, params, rel, consistent)

        fb = forward_features(params, x[rows], y[rows])
        out = total_loss(fb, rel, consistent, ctx, params)
        grads = backward(params, fb, out.grad_z, out.grad_logits)
        fast_fb = forward_features(params, arrays.shard[rows], y[rows], arrays=arrays)
        fast = total_loss(fast_fb, rel, consistent, ctx, params, arrays=arrays)
        fast_grads = backward(params, fast_fb, fast.grad_z, fast.grad_logits,
                              arrays=arrays)

        assert np.array_equal(fast_fb.z_aug, fb.z_aug)
        TestTotalLoss.assert_same(fast, out)
        assert np.array_equal(fast_grads.flat, grads.flat)
        if algorithm == "fedsc":
            assert out.rpcl > 0 and out.cpdr > 0
            assert not np.array_equal(out.grad_z, np.zeros_like(out.grad_z))

    def test_a_run_client_step_matches_its_checked_replay(self):
        # one epoch of one batch: run_client's weights are those of the
        # checked calls on the same shuffled rows
        params, x, y, rel, consistent = self.case()
        client = ClientDataset(x, y, 3, client_id=1)
        config = FederationConfig(rounds=1, num_clients=1, local_epochs=1,
                                  optimizer=OptimizerConfig(batch_size=16),
                                  seed=5, hidden_dim=7, feature_dim=4)
        update = run_client(params, client, config, 1, rel, consistent)
        replay = params.copy()
        rng = np.random.default_rng(np.random.SeedSequence((5, _TAG_CLIENT, 1, 1)))
        order = rng.permutation(len(x))
        ctx = compute_normalizers(extract_features(replay, x), rel, config.temperature)
        fb = forward_features(replay, x[order], y[order])
        out = total_loss(fb, rel, consistent, ctx, replay)
        grads = backward(replay, fb, out.grad_z, out.grad_logits)
        sgd_step(replay, grads, np.zeros(replay.flat.size), config.optimizer)
        assert np.array_equal(update.params.flat, replay.flat)
        assert (update.ce, update.rpcl, update.cpdr, update.total) == (
            out.ce, out.rpcl, out.cpdr, out.total)
