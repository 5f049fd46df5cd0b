"""Dissect the composite training loss on one mini-batch.

Runs a fresh model forward on a small labelled batch, attaches synthetic
relational and consistent prototypes, and prints how the three terms (plain
cross-entropy, the prototype contrast, and the consistency penalty) respond
to the temperature.  Also shows the per-term gradient scales arriving at the
feature layer, which is where the three terms compete.
"""

import argparse

import numpy as np

from fedsc.losses import compute_normalizers, total_loss
from fedsc.model import forward_features, init_params
from fedsc.prototypes import ConsistentSet, RelationalSet, prototypes_from_features


def build_state(rng, num_classes, dim, feature_dim, n):
    params = init_params(dim, 16, feature_dim, num_classes, seed=5)
    # fresh init keeps biases at zero; nudge them so no feature is exactly 0
    params.b2 += 0.05
    inputs = rng.normal(size=(n, dim)) + 2.0 * rng.integers(
        0, 2, size=(n, 1))
    labels = rng.integers(1, num_classes + 1, size=n).astype(np.int64)
    batch = forward_features(params, inputs, labels)

    # one synthetic "client" per class pair to give the contrast negatives
    proto_features = batch.z + rng.normal(scale=0.3, size=batch.z.shape)
    own = prototypes_from_features(proto_features, labels, num_classes,
                                   owner=1)
    other = prototypes_from_features(
        proto_features + rng.normal(scale=0.5, size=batch.z.shape),
        labels, num_classes, owner=2)
    r = np.stack([own.vectors, other.vectors], axis=1)
    valid = np.stack([own.present, other.present], axis=1)
    relational = RelationalSet(r, valid)
    consistent = ConsistentSet(r.mean(axis=1), valid.any(axis=1))
    return params, batch, relational, consistent


def gradient_scales(batch, relational, consistent, context, params):
    """Feature-layer gradient norm of each term in isolation."""
    rpcl_only = total_loss(batch, relational, None, context, params)
    cpdr_only = total_loss(batch, None, consistent, context, params)
    ce_only = total_loss(batch, None, None, None, params)
    return (np.linalg.norm(ce_only.grad_logits),
            np.linalg.norm(rpcl_only.grad_z),
            np.linalg.norm(cpdr_only.grad_z))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-classes", type=int, default=4)
    parser.add_argument("--batch", type=int, default=24)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    params, batch, relational, consistent = build_state(
        rng, args.num_classes, dim=6, feature_dim=8, n=args.batch)

    print(f"batch of {args.batch}, {args.num_classes} classes, "
          f"feature dim {batch.z.shape[1]}")
    print(f"uniform-logit cross-entropy would be log({args.num_classes}) = "
          f"{np.log(args.num_classes):.4f}\n")

    print("temperature sweep")
    print("tau     ce      rpcl    cpdr    total")
    for tau in (0.02, 0.05, 0.1, 0.5, 1.0):
        context = compute_normalizers(batch.z, relational, tau=tau)
        bd = total_loss(batch, relational, consistent, context, params)
        print(f"{tau:<7.2f} {bd.ce:<7.4f} {bd.rpcl:<7.4f} {bd.cpdr:<7.4f} "
              f"{bd.total:.4f}")
    print("small tau amplifies score gaps, so an untrained model pays more\n")

    context = compute_normalizers(batch.z, relational, tau=0.05)
    ce_g, rpcl_g, cpdr_g = gradient_scales(batch, relational, consistent,
                                           context, params)
    print("isolated gradient scales at tau=0.05")
    print(f"  cross-entropy at the logits: {ce_g:.4f}")
    print(f"  contrast at the features:    {rpcl_g:.4f}")
    print(f"  consistency at the features: {cpdr_g:.4f}")
    print("the consistency penalty is a mean squared distance, so its "
          "gradient shrinks as features approach their consistent prototype")


if __name__ == "__main__":
    main()
