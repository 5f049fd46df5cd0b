"""Client training on worker processes: lifetime, size, failure and results.

``usable_cpus`` is patched to 2 wherever workers must start, so each test
forks the same two workers on any host.
"""

import concurrent.futures
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import fedsc.federation as ffed
from fedsc.data import PartitionConfig, generate_gaussian_blobs, split_holdout
from fedsc.errors import NonfiniteGradientError
from fedsc.federation import FederationConfig, ServerState, run_experiment, run_round
from fedsc.model import OptimizerConfig, init_params

SRC = Path(__file__).resolve().parent.parent / "src"

# one tiny run, pasted into the subprocess scripts below
TINY_RUN = """
import numpy as np
import fedsc.federation as ffed
from fedsc.data import PartitionConfig, generate_gaussian_blobs, split_holdout
from fedsc.federation import FederationConfig, run_experiment
from fedsc.model import OptimizerConfig

ffed.usable_cpus = lambda: 2


def tiny(threads):
    train, test = split_holdout(generate_gaussian_blobs(3, 40, 4, 3.0, seed=0), seed=3)
    config = FederationConfig(rounds=2, num_clients=4, local_epochs=1, seed=3,
                              hidden_dim=8, feature_dim=6, threads=threads,
                              optimizer=OptimizerConfig(batch_size=16))
    partition = PartitionConfig(num_clients=4, alpha=0.5, seed=3)
    return run_experiment(config, train, partition, test=test)
"""


def tiny_inputs(**overrides):
    train, test = split_holdout(generate_gaussian_blobs(3, 40, 4, 3.0, seed=0), seed=3)
    config = dict(rounds=3, num_clients=4, local_epochs=1, neighbors=1, seed=3,
                  hidden_dim=8, feature_dim=6, optimizer=OptimizerConfig(batch_size=16))
    config.update(overrides)
    return (FederationConfig(**config), train,
            PartitionConfig(num_clients=4, alpha=0.5, seed=3), test)


def run_script(body: str, env=None) -> subprocess.CompletedProcess:
    """Run ``TINY_RUN`` plus ``body`` in a fresh interpreter, killed after 120 s."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", TINY_RUN + textwrap.dedent(body)],
                          capture_output=True, text=True, timeout=120, env=env)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(ffed, "usable_cpus", lambda: 2)


@pytest.fixture
def client_calls(monkeypatch):
    """The ``workers`` each ``run_client`` call in this process was given."""
    calls = []
    inner = ffed.run_client

    def recorded(*args, workers=None, **kwargs):
        calls.append(workers)
        return inner(*args, workers=workers, **kwargs)

    monkeypatch.setattr(ffed, "run_client", recorded)
    return calls


def test_one_pool_per_run_and_no_child_left(two_cpus, client_calls):
    run_experiment(*tiny_inputs(threads=2))
    # every client of every round was dispatched from here to the same pool
    assert len(client_calls) == 3 * 4
    assert len({id(w) for w in client_calls}) == 1
    assert isinstance(client_calls[0], concurrent.futures.ProcessPoolExecutor)
    assert multiprocessing.active_children() == []


def test_workers_fork_on_the_calling_thread_in_the_first_round(two_cpus, monkeypatch):
    # a fork from a dispatch thread could copy a lock another thread holds,
    # and a fork before the first round would be counted as set-up
    rounds, forks = [], []
    start, run_round_ = multiprocessing.process.BaseProcess.start, ffed.run_round

    def recorded_start(process):
        forks.append((threading.current_thread(), len(rounds)))
        start(process)

    def recorded_round(*args, **kwargs):
        rounds.append(1)
        return run_round_(*args, **kwargs)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recorded_start)
    monkeypatch.setattr(ffed, "run_round", recorded_round)
    run_experiment(*tiny_inputs(threads=2))
    assert forks == [(threading.main_thread(), 1)] * 2


def test_every_client_of_a_round_is_handed_off_at_once(two_cpus, monkeypatch):
    # catches one dispatch thread per worker: the third of a round's four
    # clients would wait for a thread that waits for the barrier
    serial = run_experiment(*tiny_inputs())
    barrier = threading.Barrier(4, timeout=10)
    inner = ffed.run_client

    def gathered(*args, **kwargs):
        barrier.wait()
        return inner(*args, **kwargs)

    monkeypatch.setattr(ffed, "run_client", gathered)
    result = run_experiment(*tiny_inputs(threads=2))
    assert result.state.params.flat.tobytes() == serial.state.params.flat.tobytes()


def test_dispatch_threads_are_capped_at_two_per_worker(two_cpus, monkeypatch):
    # catches one thread per client: a round of eight clients would put all
    # eight in run_client at once; two per worker keeps one queued on each
    train, test = split_holdout(generate_gaussian_blobs(3, 80, 4, 3.0, seed=0), seed=3)
    config = FederationConfig(rounds=1, num_clients=8, local_epochs=1, neighbors=1,
                              seed=3, hidden_dim=8, feature_dim=6, threads=2,
                              optimizer=OptimizerConfig(batch_size=16))
    partition = PartitionConfig(num_clients=8, alpha=0.5, seed=3)
    barrier, lock = threading.Barrier(4, timeout=10), threading.Lock()
    in_flight, most = [0], [0]
    inner = ffed.run_client

    def counted(*args, **kwargs):
        with lock:
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
        barrier.wait()
        try:
            return inner(*args, **kwargs)
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(ffed, "run_client", counted)
    run_experiment(config, train, partition, test=test)
    assert most[0] == 4


def test_one_usable_cpu_trains_in_this_process(monkeypatch, client_calls):
    monkeypatch.setattr(ffed, "usable_cpus", lambda: 1)
    run_experiment(*tiny_inputs(threads=4))
    assert client_calls == [None] * 12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("threads", [1, 2])
def test_client_error_is_located_and_leaves_no_child(two_cpus, threads):
    # the first round trains, the second overflows: the run fails mid-way
    config, *rest = tiny_inputs(threads=threads, optimizer=OptimizerConfig(
        learning_rate=1e8, batch_size=16))
    with pytest.raises(NonfiniteGradientError,
                       match=r"^round 2, client 2: gradient contains NaN or Inf$"):
        run_experiment(config, *rest)
    assert multiprocessing.active_children() == []


def test_direct_run_round_trains_in_this_process(two_cpus, client_calls):
    # only run_experiment reads threads: a round without a pool forks nothing
    config, train, partition, test = tiny_inputs(threads=2)
    clients = ffed.partition_dataset(train, partition)
    state = ServerState(init_params(4, 8, 6, 3, seed=0))
    rng = np.random.default_rng(0)
    for _ in range(2):
        state, _ = run_round(state, clients, config, rng, test)
    assert client_calls == [None] * 8
    assert multiprocessing.active_children() == []


def test_worker_count_is_capped_by_the_usable_cpus(two_cpus, monkeypatch):
    sizes = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    run_experiment(*tiny_inputs(threads=64))
    assert sizes == [2]
    assert multiprocessing.active_children() == []


def test_a_dead_worker_fails_the_run_instead_of_hanging():
    result = run_script("""
        import os
        from concurrent.futures.process import BrokenProcessPool
        from fedsc.errors import WorkerLostError

        parent, step = os.getpid(), ffed.sgd_step

        def dying_step(*args):
            if os.getpid() != parent:
                os._exit(7)
            return step(*args)

        ffed.sgd_step = dying_step
        try:
            tiny(2)
        except WorkerLostError as exc:
            import multiprocessing
            print(isinstance(exc.__cause__, BrokenProcessPool), exc,
                  multiprocessing.active_children())
    """)
    assert result.returncode == 0, result.stderr
    assert re.fullmatch(r"True round 1, client \d+: client worker process died \[\]",
                        result.stdout.strip()), result.stdout


def test_a_dead_worker_ends_the_cli_with_a_located_error(tmp_path):
    result = run_script(f"""
        import os
        import sys
        from fedsc.cli import main

        out = {str(tmp_path)!r}
        assert main(["generate", "--preset", "desk", "--out", out]) == 0
        parent, step = os.getpid(), ffed.sgd_step

        def dying_step(*args):
            if os.getpid() != parent:
                os._exit(7)
            return step(*args)

        ffed.sgd_step = dying_step
        sys.exit(main(["run", "--preset", "desk", "--threads", "2", "--rounds", "2",
                       "--out", out]))
    """)
    assert result.returncode == 3, result.stderr
    last = result.stderr.strip().splitlines()[-1]
    assert last.startswith("fedsc: worker-lost: round 1, client "), result.stderr


def test_workers_forked_after_blas_threads_started():
    # OpenBLAS starts its threads at the first large product; the workers
    # are forked after that and must neither hang nor change results
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    result = run_script("""
        a = np.random.default_rng(0).random((500, 500))
        a @ a
        same = (tiny(2).state.params.flat.tobytes()
                == tiny(1).state.params.flat.tobytes())
        print("same" if same else "differs")
    """, env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "same"


def test_serial_runs_never_load_the_process_machinery():
    result = run_script("""
        import sys
        tiny(1)
        print(sorted({"multiprocessing", "concurrent.futures.process"}
                     & set(sys.modules)))
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
