"""Plan a training budget from smoothness and gradient-noise constants.

Given the problem constants (Lipschitz constants, a gradient-norm bound,
minibatch gradient variance), the calculators answer three questions: how
far one round can lower the prototype-contrast objective, which learning
rates descend at all, and how many rounds guarantee reaching a target
gradient floor.  This script prints all three for a baseline constant set,
sweeps the floor and the rate, and finishes by estimating the constants
empirically from a short recorded trace of a toy quadratic.
"""

import argparse

import numpy as np

from fedsc.theory import (
    TheoryConstants,
    TraceRecord,
    estimate_constants,
    theorem1_bound,
    theorem2_eta_threshold,
    theorem3_min_rounds,
)


def quadratic_trace(rng, steps, dim, curvature, noise):
    """Noisy-gradient SGD trace on f(w) = curvature/2 ||w||^2."""
    w = rng.normal(scale=2.0, size=dim)
    records = []
    for _ in range(steps):
        full = curvature * w
        minis = [full + rng.normal(scale=noise, size=dim) for _ in range(4)]
        features = np.abs(np.vstack([w, full]))
        records.append(TraceRecord(
            weights=w.copy(), full_gradient=full,
            minibatch_gradients=minis,
            extractor_weights=w.copy(), features=features,
        ))
        w = w - 0.05 * full
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eta", type=float, default=0.05)
    parser.add_argument("--xi", type=float, default=0.5,
                        help="target squared-gradient floor")
    parser.add_argument("--seed", type=int, default=9)
    args = parser.parse_args()

    base = TheoryConstants(l1=2.0, l2=0.02, b=1.5, sigma_sq=0.4,
                           num_classes=10, m=2, local_epochs=5, eta=args.eta,
                           xi=args.xi, l0=2.5, l_star=0.3)

    print("baseline constants: L1=2.0 L2=0.02 B=1.5 sigma^2=0.4 "
          f"|C|=10 M=2 E=5 eta={args.eta}")
    print(f"one-round objective bound from 2.0: "
          f"{theorem1_bound(2.0, base):.4f}")
    eta_thr = theorem2_eta_threshold(base)
    print(f"descent learning rates: eta < {eta_thr:.4f}")
    plan = theorem3_min_rounds(base)
    print(f"rounds to drive the mean squared gradient below xi={args.xi}: "
          f"{plan.min_rounds:.1f} (eta_max {plan.eta_max:.4f})\n")

    print("floor sweep at fixed eta (looser floors need fewer rounds; a "
          "floor below the prototype drift is unreachable)")
    print("xi     min_rounds  eta_max")
    for xi in (0.25, 0.5, 1.0, 2.0, 4.0):
        c = TheoryConstants(l1=2.0, l2=0.02, b=1.5, sigma_sq=0.4,
                            num_classes=10, m=2, local_epochs=5, eta=args.eta,
                            xi=xi, l0=2.5, l_star=0.3)
        try:
            p = theorem3_min_rounds(c)
            print(f"{xi:<6.2f} {p.min_rounds:<11.1f} {p.eta_max:.4f}")
        except Exception as err:
            print(f"{xi:<6.2f} infeasible ({err})")

    print("\nrate sweep at the baseline floor (too large stops descending)")
    print("eta     min_rounds")
    for eta in (0.01, 0.05, 0.1, 0.3, 0.6):
        c = TheoryConstants(l1=2.0, l2=0.02, b=1.5, sigma_sq=0.4,
                            num_classes=10, m=2, local_epochs=5, eta=eta,
                            xi=args.xi, l0=2.5, l_star=0.3)
        try:
            print(f"{eta:<7.2f} {theorem3_min_rounds(c).min_rounds:.1f}")
        except Exception as err:
            print(f"{eta:<7.2f} infeasible ({err})")

    rng = np.random.default_rng(args.seed)
    records = quadratic_trace(rng, steps=40, dim=8, curvature=1.7, noise=0.3)
    est = estimate_constants(records)
    print("\nconstants estimated from a 40-step quadratic trace "
          "(true curvature 1.7, noise sd 0.3 per coordinate)")
    print(f"  L1 estimate:      {est.l1:.3f}")
    print(f"  L2 estimate:      {est.l2:.3f}")
    print(f"  B estimate:       {est.b:.3f}")
    print(f"  sigma^2 estimate: {est.sigma_sq:.3f} "
          f"(per-step mean is noise_sd^2 * dim = {0.3 ** 2 * 8:.2f}; the "
          f"estimator keeps the largest observation)")


if __name__ == "__main__":
    main()
