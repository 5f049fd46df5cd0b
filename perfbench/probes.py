"""Micro-probes that isolate costs the traced run cannot split.

``loss_split`` times the public ``total_loss`` three ways on a frozen
round-4 state: cross-entropy only, CE+RPCL and CE+CPDR.  The RPCL and CPDR
costs are the differences to CE only.

``collaboration_scaling`` times ``build_collaboration`` on synthetic full
reports (every client holds every class) over client count K and class
count C.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import fedsc.data as fdata
import fedsc.federation as ffed
import fedsc.losses as flosses
import fedsc.model as fmodel
import fedsc.prototypes as fprotos

from workloads import BlobSpec, federation_inputs

FROZEN_ROUND = 4
LOSS_SPLIT_METRICS = ("losses.ce_us", "losses.rpcl_us", "losses.cpdr_us",
                      "prototypes.relational_valid")
LOSS_REPEATS = 300
SCALE_SIZES = ((10, 10), (10, 100), (100, 10), (100, 100), (300, 10), (300, 100))
SCALE_DIM = 32
SCALE_BUDGET_S = 0.3  # each size repeats until this much time is spent


def loss_split(spec: BlobSpec, seed: int) -> dict[str, float]:
    """Per-call cost of each loss term on one minibatch of the largest client."""
    config, train, test, partition = federation_inputs(spec, seed, FROZEN_ROUND)
    state = ffed.run_experiment(config, train, partition, test=test).state
    relational, consistent = state.relational, state.consistent
    client = max(fdata.partition_dataset(train, partition), key=lambda c: c.total)
    size = config.optimizer.batch_size
    params = state.params
    batch = fmodel.forward_features(params, client.features[:size],
                                    client.labels[:size])
    snapshot = fmodel.forward_features(params, client.features).z
    context = flosses.compute_normalizers(snapshot, relational, config.temperature)
    variants = {
        "ce": (None, None, None),
        "rpcl": (relational, None, context),
        "cpdr": (None, consistent, None),
    }
    times = {key: [] for key in variants}
    for _ in range(LOSS_REPEATS):
        for key, (rel, con, ctx) in variants.items():
            start = time.perf_counter()
            flosses.total_loss(batch, rel, con, ctx, params,
                               cpdr_norm=config.cpdr_norm)
            times[key].append(time.perf_counter() - start)
    ce = statistics.median(times["ce"])
    return {
        "losses.ce_us": 1e6 * ce,
        "losses.rpcl_us": 1e6 * (statistics.median(times["rpcl"]) - ce),
        "losses.cpdr_us": 1e6 * (statistics.median(times["cpdr"]) - ce),
        "prototypes.relational_valid": int((relational.valid & context.valid).sum()),
    }


def collaboration_scaling(seed: int) -> dict[str, float]:
    """Median build time per (K, C) with the default neighbourhood of 2."""
    rng = np.random.default_rng(seed)
    out = {}
    for num_clients, num_classes in SCALE_SIZES:
        sets = [
            fprotos.PrototypeSet(rng.standard_normal((num_classes, SCALE_DIM)),
                                 np.ones(num_classes, dtype=bool), owner=k + 1)
            for k in range(num_clients)
        ]
        counts = rng.integers(1, 50, size=(num_clients, num_classes))
        times = []
        while not times or (sum(times) < SCALE_BUDGET_S and len(times) < 25):
            start = time.perf_counter()
            fprotos.build_collaboration(sets, counts, 2)
            times.append(time.perf_counter() - start)
        out[f"prototypes.scale.K{num_clients}_C{num_classes}_ms"] = (
            1e3 * statistics.median(times))
    return out
