"""Show how each partition scheme spreads one dataset across clients.

Generates a blob dataset once, partitions it under every scheme (and under
dirichlet again after long-tail thinning), and prints the per-client
class-count tables side by side with each client's label-skew discrepancy.
Useful for eyeballing how alpha and rho shape the heterogeneity the
federation has to cope with.
"""

import argparse

import numpy as np

from fedsc.data import (
    PartitionConfig,
    apply_long_tail,
    generate_gaussian_blobs,
    partition_dataset,
)
from fedsc.prototypes import client_discrepancy


def print_partition(title, clients):
    num_classes = clients[0].num_classes
    header = "client " + " ".join(f"c{j + 1:<4d}" for j in range(num_classes))
    print(f"\n{title}")
    print(header)
    for c in clients:
        cells = " ".join(f"{n:<5d}" for n in c.class_counts)
        print(f"{c.client_id:<6d} {cells} d={client_discrepancy(c.class_counts):.3f}")
    totals = sum(c.class_counts for c in clients)
    print("total  " + " ".join(f"{n:<5d}" for n in totals))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-classes", type=int, default=6)
    parser.add_argument("--per-class", type=int, default=120)
    parser.add_argument("--num-clients", type=int, default=4)
    parser.add_argument("--alpha", type=float, default=0.3,
                        help="dirichlet concentration; smaller = more skew")
    parser.add_argument("--rho", type=float, default=20.0,
                        help="head-to-tail ratio of the long-tailed dataset")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    data = generate_gaussian_blobs(args.num_classes, args.per_class, dim=8,
                                   seed=args.seed)
    print(f"dataset: {data.num_samples} samples, "
          f"{args.num_classes} classes, dim {data.dim}")

    long_tailed = apply_long_tail(data, args.rho, args.seed)
    for label, scheme, dataset in (
        (f"dirichlet (alpha={args.alpha})", "dirichlet", data),
        ("biased", "biased", data),
        (f"long_tailed (rho={args.rho}, inner=dirichlet)", "dirichlet", long_tailed),
    ):
        if scheme == "biased" and args.num_classes % (args.num_clients - 1):
            print(f"\nbiased: skipped, needs num_classes divisible by "
                  f"{args.num_clients - 1}")
            continue
        config = PartitionConfig(scheme=scheme, num_clients=args.num_clients,
                                 alpha=args.alpha, seed=args.seed)
        print_partition(label, partition_dataset(dataset, config))

    # the same alpha sweep, summarized by the discrepancy spread
    print("\ndirichlet discrepancy spread by alpha")
    print("alpha  min    mean   max")
    for alpha in (0.1, 0.2, 0.5, 1.0, 5.0):
        config = PartitionConfig(scheme="dirichlet",
                                 num_clients=args.num_clients, alpha=alpha,
                                 seed=args.seed)
        discs = [client_discrepancy(c.class_counts)
                 for c in partition_dataset(data, config)]
        print(f"{alpha:<6.1f} {min(discs):.3f}  {np.mean(discs):.3f}  "
              f"{max(discs):.3f}")


if __name__ == "__main__":
    main()
