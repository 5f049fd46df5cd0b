"""The two kinds of benchmark run: untraced end-to-end and traced per-layer.

Each returns a record with ``metrics``, ``attempted`` (experiments tried)
and ``failed`` (experiments that raised or failed their output check), or
None when no experiment completed.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import traceback
import time

import probes
import tracing
from workloads import CROSS_DEVICE, run_rep, time_setup

SETUP_REPS = 11


def _attempt(errors, *args, **kwargs):
    """Run one experiment; an exception is logged and yields None."""
    try:
        return run_rep(*args, **kwargs)
    except Exception:  # every failure counts toward failed_share
        errors.append(traceback.format_exc())
        print(errors[-1], file=sys.stderr)
        return None


def _describe(rep, **extra):
    return {**extra, "wall_s": rep.wall_s, "setup_s": rep.setup_s,
            "samples": rep.samples, "digest": rep.digest,
            "problems": rep.problems, "accuracy": rep.accuracies,
            "round_ms": [1e3 * (end - start) for start, end in rep.round_times]}


def end_to_end(workload, seed, seconds, rounds, check, workdir, cli_threads):
    """Experiments at one seed, each after a batch of SETUP_REPS set-ups.

    The machine's speed drifts over tens of seconds, so every time is first
    summarised per experiment (or per set-up batch) and then averaged over
    the run: one slow stretch then moves the result by its share of the
    run, where a pooled median would jump to it.
    """
    errors = []
    reps, setups, attempted, last = [], [], 0, 0.0
    start = time.perf_counter()
    while attempted < workload.min_reps or (
            time.perf_counter() - start + last <= seconds):
        began = time.perf_counter()
        setups.append(statistics.median(
            time_setup(workload, seed, rounds, workdir, cli_threads)
            for _ in range(SETUP_REPS)))
        rep = _attempt(errors, workload, seed, rounds, workdir, cli_threads, check)
        attempted += 1
        last = time.perf_counter() - began
        if rep is not None:
            reps.append(rep)
    if not reps:
        return None
    for rep in reps[1:]:
        if rep.digest != reps[0].digest:
            rep.problems.append("metrics digest differs from the first "
                                "experiment at the same seed")

    # the highest percentile with at least ten of an experiment's rounds
    # beyond it, so it means the same however many experiments fit
    tail_pct = max(50, math.floor(100 * (1 - 10 / rounds)))

    def round_ms(rep, pct):
        times = [1e3 * (end - begin) for begin, end in rep.round_times]
        if pct == 50:
            return statistics.median(times)
        return statistics.quantiles(times, n=100, method="inclusive")[pct - 1]

    # a missed target fails the output check; such an experiment counts
    # its whole wall time
    to_target = [r.time_to_target_s(workload.target) for r in reps]
    return {
        "metrics": {
            "wall_s": statistics.fmean(r.wall_s for r in reps),
            "setup_s": statistics.fmean(setups),
            "round_ms_p50": statistics.fmean(round_ms(r, 50) for r in reps),
            "round_ms_tail": statistics.fmean(round_ms(r, tail_pct) for r in reps),
            "train_samples_per_s": (sum(r.samples for r in reps)
                                    / sum(r.wall_s for r in reps)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        # reported but not gated in BENCHMARK.json: the round that first
        # reaches a fixed accuracy depends on the seed's data, so its spread
        # across seeds is wider than any allowed bound
        "time_to_target_s": statistics.median(
            r.wall_s if t is None else t for r, t in zip(reps, to_target)),
        "round_ms_tail_percentile": tail_pct,
        "round_samples": sum(len(r.round_times) for r in reps),
        "setup_samples": SETUP_REPS * len(setups),
        "attempted": attempted,
        "failed": attempted - len(reps) + sum(bool(r.problems) for r in reps),
        "experiments": [_describe(r) for r in reps],
        "errors": errors,
    }


# per-layer metrics of the traced cross-device run, reported under
# "cross-device." next to those of the workload's own traced run
CROSS_DEVICE_METRICS = (
    "prototypes.build_collaboration.ms_per_call",
    "prototypes.build_collaboration.ms_max",
    "prototypes.build_collaboration.used_share",
    "prototypes.reports_in",
    "prototypes.report_age_rounds",
    "losses.total_loss.us_per_call",
    "losses.compute_normalizers.ms_per_call",
    "federation.server_share",
)


def per_layer(workload, seed, rounds, check, workdir, cli_threads, spans_dir):
    """One untraced and one traced experiment, a traced cross-device
    experiment, then the probes."""
    errors = []
    untraced = _attempt(errors, workload, seed, rounds, workdir, cli_threads, check)
    tracer = tracing.Tracer(f"{workload.name}-seed{seed}-traced")
    with tracer.installed():
        traced = _attempt(errors, workload, seed, rounds, workdir, cli_threads,
                          check, span=tracer.span)
    xd_tracer = tracing.Tracer(f"{CROSS_DEVICE.name}-seed{seed}-traced")
    with xd_tracer.installed():
        xd_traced = _attempt(errors, CROSS_DEVICE, seed,
                             CROSS_DEVICE.rounds if check else rounds, workdir,
                             None, check, span=xd_tracer.span)
    if untraced is None or traced is None or xd_traced is None:
        return None
    if traced.digest != untraced.digest:
        traced.problems.append("traced metrics digest differs from the untraced run")

    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_dir / f"{workload.name}-seed{seed}.jsonl")
    xd_tracer.write(spans_dir / f"{workload.name}-seed{seed}-{CROSS_DEVICE.name}.jsonl")
    metrics = tracing.layer_metrics(tracer)
    metrics.update(probes.loss_split(workload.spec, seed))
    xd_metrics = tracing.layer_metrics(xd_tracer)
    xd_metrics.update(probes.loss_split(CROSS_DEVICE.spec, seed))
    for name in (*CROSS_DEVICE_METRICS, *probes.LOSS_SPLIT_METRICS):
        metrics[f"{CROSS_DEVICE.name}.{name}"] = xd_metrics[name]
    metrics.update(probes.collaboration_scaling(seed))
    metrics["trace.overhead"] = traced.wall_s / untraced.wall_s
    reps = (untraced, traced, xd_traced)
    return {
        "metrics": metrics,
        "spans": len(tracer.spans) + len(xd_tracer.spans),
        "attempted": len(reps),
        "failed": sum(bool(r.problems) for r in reps),
        "experiments": [_describe(untraced, traced=False),
                        _describe(traced, traced=True),
                        _describe(xd_traced, traced=True, workload=CROSS_DEVICE.name)],
        "errors": errors,
    }
