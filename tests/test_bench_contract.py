"""The benchmark's use of the library, checked in the unit suite.

``perfbench/`` drives fedsc only through public names: ``run_experiment``,
the arguments of ``run_client``, ``state.relational`` and the other names
its wrappers read.  Its own smoke test (``perfbench/test_smoke.py``) is not
part of this suite, so these tiny runs catch a library change that would
break the benchmark.  ``perfbench/`` is imported without writing bytecode
into it.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import probes
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return probes, tracing, workloads


def tiny_spec(workloads, algorithm):
    return workloads.BlobSpec(3, 40, 0.5, 3, 1.0, algorithm, 8)


def test_loss_probe_reads_a_fedavg_state(bench):
    probes, _, workloads = bench
    split = probes.loss_split(tiny_spec(workloads, "fedavg"), seed=1)
    assert set(split) == set(probes.LOSS_SPLIT_METRICS)
    assert split["prototypes.relational_valid"] > 0


def test_scaling_probe_builds_from_its_own_reports(bench, monkeypatch):
    # the probe calls build_collaboration directly with (K, C) counts
    probes, _, _ = bench
    monkeypatch.setattr(probes, "SCALE_SIZES", ((3, 2),))
    timings = probes.collaboration_scaling(seed=1)
    assert list(timings) == ["prototypes.scale.K3_C2_ms"]
    assert timings["prototypes.scale.K3_C2_ms"] > 0


def test_traced_runs_see_what_each_algorithm_exchanges(bench, tmp_path):
    _, tracing, workloads = bench
    metrics = {}
    for algorithm in ("fedavg", "fedsc"):
        workload = workloads.Workload(f"tiny-{algorithm}",
                                      tiny_spec(workloads, algorithm),
                                      rounds=3, min_reps=1, target=0.0, floor=0.0)
        tracer = tracing.Tracer(workload.name)
        with tracer.installed():
            rep = workloads.run_rep(workload, 1, 3, tmp_path, None, False,
                                    span=tracer.span)
        assert rep.problems == []
        metrics[algorithm] = tracing.layer_metrics(tracer)
        assert metrics[algorithm]["prototypes.build_collaboration.calls"] == 3
        # the step runs through the names the tracer wraps
        step = [metrics[algorithm][f"{name}.calls"] for name in
                ("losses.total_loss", "model.backward", "model.sgd_step")]
        assert step[0] > 0 and step.count(step[0]) == len(step)
    assert metrics["fedavg"]["losses.compute_normalizers.calls"] == 0
    assert metrics["fedsc"]["losses.compute_normalizers.calls"] > 0
    used = "prototypes.build_collaboration.used_share"
    assert metrics["fedavg"][used] == 0
    assert metrics["fedsc"][used] > 0
    down = "federation.downlink_bytes_per_round"
    assert metrics["fedavg"][down] < metrics["fedsc"][down]
