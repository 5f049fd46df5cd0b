"""Walk the server-side prototype pipeline on synthetic client reports.

Builds per-client class prototypes from raw features, then prints every
intermediate the server derives from them: global prototypes, the angular
table, the self-plus-neighbors adjacency, relational prototypes, discrepancy
weights, and the final consistent prototypes.  One client is deliberately
skewed so the weighting stage has something to react to.
"""

import argparse

import numpy as np

from fedsc.prototypes import build_collaboration, prototypes_from_features


def synthetic_reports(rng, num_clients, num_classes, dim, skew_client):
    """Per-client features around shared class centers, one client off-axis."""
    centers = rng.normal(scale=3.0, size=(num_classes, dim))
    sets, counts = [], np.zeros((num_clients, num_classes), dtype=int)
    for k in range(num_clients):
        sizes = rng.integers(8, 40, size=num_classes)
        if k == skew_client:
            # concentrate this client on its first class
            sizes = np.maximum(sizes // 8, 1)
            sizes[0] = 120
        z, labels = [], []
        for j, size in enumerate(sizes):
            drift = rng.normal(scale=0.4, size=dim)
            z.append(centers[j] + drift + rng.normal(scale=0.6, size=(size, dim)))
            labels.append(np.full(size, j + 1))
        sets.append(prototypes_from_features(np.vstack(z),
                                             np.concatenate(labels),
                                             num_classes, owner=k + 1))
        counts[k] = sizes
    return sets, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-clients", type=int, default=5)
    parser.add_argument("--num-classes", type=int, default=4)
    parser.add_argument("--dim", type=int, default=6)
    parser.add_argument("--neighbors", type=int, default=2)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    skew_client = args.num_clients - 1
    sets, counts = synthetic_reports(rng, args.num_clients, args.num_classes,
                                     args.dim, skew_client)
    collab = build_collaboration(sets, counts, args.neighbors)

    np.set_printoptions(precision=3, suppress=True)
    print(f"{args.num_clients} clients, {args.num_classes} classes, "
          f"dim {args.dim}, M={args.neighbors} neighbors")
    print(f"client {skew_client + 1} holds mostly class 1\n")

    print("global prototypes (per-class mean over reporting clients)")
    print(collab.global_prototypes)

    print("\nangular table phi[class, client] = cos(global, client prototype)")
    print(collab.phi)

    print("\nadjacency for class 1 (row = client, self plus closest M)")
    print(collab.adjacency[0])

    print("\nper-client sample totals and label-skew discrepancies")
    totals = counts.sum(axis=1)
    for k in range(args.num_clients):
        print(f"  client {k + 1}: n={totals[k]:<4d} "
              f"d={collab.discrepancies[k]:.3f} "
              f"e={collab.weights[k]:.3f}")
    print("(larger, better-balanced clients earn larger weights e)")

    print("\nrelational prototypes for class 1 (one row per client)")
    print(collab.relational.r[0])

    print("\nconsistent prototypes (weighted blend, one row per class)")
    print(collab.consistent.o)

    drift = np.linalg.norm(collab.consistent.o - collab.global_prototypes, axis=1)
    print("\n|consistent - global| per class:", np.round(drift, 3))
    print("the gap comes from neighbor averaging plus discrepancy weighting")


if __name__ == "__main__":
    main()
