"""Release acceptance checks, one test per criterion.

Each test emits a single ``CRITERION n: PASS/FAIL - detail`` line (collected
into the terminal summary by conftest) and then asserts the criterion.
Failures here are reported with their measured numbers rather than silenced;
a red line means the behaviour genuinely does not hold at this scale.

One test is not a criterion: ``test_seed_one_runs_match_the_oracle_record``
compares the fixtures' seed-1 head-to-head runs with the equivalence
oracle's record (``tools/oracle.json``), training nothing of its own, and
adds one weights line per run to the same summary.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import acceptance_lines
from fedsc.cli import main as cli_main
from fedsc.federation import rounds_to_accuracy
from fedsc.losses import SimilarityContext, total_loss
from fedsc.model import backward, forward_features, init_params
from fedsc.prototypes import (
    ConsistentSet,
    PrototypeSet,
    RelationalSet,
    aggregation_weights,
    build_collaboration,
    client_discrepancy,
)
from fedsc.theory import (
    TheoryConstants,
    theorem1_bound,
    theorem2_eta_threshold,
    theorem3_min_rounds,
)
from h2h_protocol import (
    ALGORITHMS,
    head_to_head,
    metrics_digest,
    run_name,
    weights_line,
)
from reference_losses import one_row_batch

PARAM_FIELDS = ("w1", "b1", "w2", "b2", "v", "c")
PROTOCOL_SEEDS = (1, 2, 3)
ORACLE = Path(__file__).resolve().parent.parent / "tools"


def report(number, ok, detail):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    acceptance_lines.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def standard_runs():
    return {seed: head_to_head(seed) for seed in PROTOCOL_SEEDS}


@pytest.fixture(scope="module")
def long_tail_runs():
    return {seed: head_to_head(seed, long_tail=True) for seed in PROTOCOL_SEEDS}


def final_accuracies(runs, algorithm):
    return [runs[s][algorithm].metrics[-1].accuracy for s in PROTOCOL_SEEDS]


def test_criterion_1_directional_superiority(standard_runs):
    sc = final_accuracies(standard_runs, "fedsc")
    avg = final_accuracies(standard_runs, "fedavg")
    deltas = [a - b for a, b in zip(sc, avg)]
    mean_sc, mean_avg = float(np.mean(sc)), float(np.mean(avg))
    slowest = max(
        standard_runs[s][alg + "_seconds"]
        for s in PROTOCOL_SEEDS
        for alg in ("fedsc", "fedavg")
    )
    mean_ok = mean_sc >= mean_avg
    floor_ok = all(d >= -0.005 for d in deltas)
    time_ok = slowest <= 300.0
    detail = (
        f"fedsc mean {mean_sc:.5f} vs fedavg mean {mean_avg:.5f}, per-seed "
        f"deltas {'/'.join(f'{d:+.5f}' for d in deltas)} (floor -0.00500), "
        f"slowest run {slowest:.0f}s"
    )
    report(1, mean_ok and floor_ok and time_ok, detail)


def test_criterion_2_convergence_speed(standard_runs):
    wins, parts = 0, []
    for s in PROTOCOL_SEEDS:
        threshold = 0.9 * standard_runs[s]["fedavg"].metrics[-1].accuracy
        r_sc = rounds_to_accuracy(standard_runs[s]["fedsc"].metrics, threshold)
        r_avg = rounds_to_accuracy(standard_runs[s]["fedavg"].metrics, threshold)
        win = r_sc is not None and (r_avg is None or r_sc <= r_avg)
        wins += win
        parts.append(f"seed {s}: {r_sc} vs {r_avg}")
    report(2, wins >= 2, f"rounds to 90% of fedavg final, fedsc vs fedavg: "
                         f"{'; '.join(parts)} ({wins}/3 seeds)")


def test_criterion_3_long_tail_direction(long_tail_runs):
    sc = final_accuracies(long_tail_runs, "fedsc")
    avg = final_accuracies(long_tail_runs, "fedavg")
    mean_sc, mean_avg = float(np.mean(sc)), float(np.mean(avg))
    ok = mean_sc >= mean_avg
    detail = (
        f"100:1 imbalance, fedsc mean {mean_sc:.5f} vs fedavg mean "
        f"{mean_avg:.5f} over seeds {PROTOCOL_SEEDS}"
    )
    report(3, ok, detail)


# criterion 4 helpers ------------------------------------------------------

def numeric_gradient(value_fn, params, h=1e-6):
    grads = {}
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = value_fn()
            arr[idx] = orig - h
            down = value_fn()
            arr[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def random_composite_instance(rng):
    """A small model plus prototype state, resampled away from kinks."""
    while True:
        d_in = int(rng.integers(2, 5))
        hidden = int(rng.integers(3, 6))
        feat = int(rng.integers(2, 5))
        classes = int(rng.integers(2, 5))
        n = int(rng.integers(3, 7))
        params = init_params(d_in, hidden, feat, classes,
                             seed=int(rng.integers(1 << 31)))
        for name in PARAM_FIELDS:
            arr = getattr(params, name)
            arr += rng.normal(scale=0.3, size=arr.shape)
        inputs = rng.normal(size=(n, d_in))
        labels = rng.integers(1, classes + 1, size=n).astype(np.int64)
        batch = forward_features(params, inputs, labels)
        # stay clear of relu kinks so central differences are valid
        if np.abs(batch.pre1).min() < 1e-3:
            continue
        proto_clients = int(rng.integers(1, 4))
        r = rng.normal(size=(classes, proto_clients, feat))
        relational = RelationalSet(r, np.ones((classes, proto_clients), bool))
        context = SimilarityContext(
            relational, rng.uniform(0.6, 1.8, size=(classes, proto_clients)), tau=0.5
        )
        # CPDR is smooth, so the consistency targets need no clearance: each
        # is drawn among the features, inside their coordinate range
        o = rng.uniform(batch.z.min(axis=0), batch.z.max(axis=0),
                        size=(classes, feat))
        consistent = ConsistentSet(o, np.ones(classes, bool))
        return params, inputs, labels, relational, consistent, context


def test_criterion_4_composite_gradients_match_finite_differences():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        params, inputs, labels, relational, consistent, context = (
            random_composite_instance(rng)
        )

        def loss_value():
            batch = forward_features(params, inputs, labels)
            return total_loss(batch, relational, consistent, context,
                              params).total

        batch = forward_features(params, inputs, labels)
        breakdown = total_loss(batch, relational, consistent, context, params)
        analytic = backward(params, batch, breakdown.grad_z,
                            breakdown.grad_logits)
        numeric = numeric_gradient(loss_value, params)
        num_scale = max(np.abs(numeric[f]).max() for f in PARAM_FIELDS)
        diff = max(
            np.abs(numeric[f] - getattr(analytic, f)).max()
            for f in PARAM_FIELDS
        )
        worst = max(worst, diff / max(num_scale, 1e-12))
    report(4, worst <= 1e-4,
           f"max relative gradient error {worst:.3e} over 50 random "
           f"instances (tolerance 1e-4, targets drawn among the features)")


# criterion 5 helpers ------------------------------------------------------

def reference_pipeline(vectors, counts, neighbors):
    """Straight-line scalar-loop recomputation of the whole server pipeline."""
    num_clients, num_classes, d = vectors.shape
    g = np.zeros((num_classes, d))
    for j in range(num_classes):
        for k in range(num_clients):
            g[j] += vectors[k][j]
        g[j] /= num_clients

    phi = np.zeros((num_classes, num_clients))
    for j in range(num_classes):
        gn = math.sqrt(float(g[j] @ g[j]))
        for k in range(num_clients):
            cn = math.sqrt(float(vectors[k][j] @ vectors[k][j]))
            phi[j][k] = float(g[j] @ vectors[k][j]) / (gn * cn)

    adjacency = np.zeros((num_classes, num_clients, num_clients), dtype=np.uint8)
    for j in range(num_classes):
        for k1 in range(num_clients):
            adjacency[j][k1][k1] = 1
            gaps = sorted(
                (abs(phi[j][k1] - phi[j][k]), k)
                for k in range(num_clients) if k != k1
            )
            for _, k in gaps[:neighbors]:
                adjacency[j][k1][k] = 1

    r = np.zeros((num_classes, num_clients, d))
    for j in range(num_classes):
        for k in range(num_clients):
            for q in range(num_clients):
                if adjacency[j][k][q]:
                    r[j][k] += vectors[q][j]
            r[j][k] /= neighbors + 1

    totals = counts.sum(axis=1).astype(float)
    disc = np.zeros(num_clients)
    for k in range(num_clients):
        acc = 0.0
        for j in range(num_classes):
            acc += (counts[k][j] / totals[k] - 1.0 / num_classes) ** 2
        disc[k] = math.sqrt(0.5 * acc)

    a = 1.0 / totals.sum()
    b = 1.0 / disc.sum()
    raw = np.array([1.0 / (1.0 + math.exp(-(a * totals[k] - b * disc[k])))
                    for k in range(num_clients)])
    e = raw / raw.sum()

    o = np.zeros((num_classes, d))
    for j in range(num_classes):
        for k in range(num_clients):
            o[j] += e[k] * r[j][k]
    return g, phi, adjacency, r, disc, e, o


def test_criterion_5_pipeline_matches_straight_line_reference():
    rng = np.random.default_rng(505)
    worst = 0.0
    adjacency_off = 0
    for _ in range(100):
        num_clients = int(rng.integers(2, 7))
        num_classes = int(rng.integers(2, 6))
        d = int(rng.integers(2, 9))
        neighbors = int(rng.integers(0, num_clients))
        vectors = rng.normal(size=(num_clients, num_classes, d))
        counts = rng.integers(1, 50, size=(num_clients, num_classes))
        # the reference divides by the discrepancy sum, so keep it nonzero
        while all(client_discrepancy(row) == 0.0 for row in counts):
            counts = rng.integers(1, 50, size=(num_clients, num_classes))

        sets = [
            PrototypeSet(vectors[k], np.ones(num_classes, bool), owner=k + 1)
            for k in range(num_clients)
        ]
        collab = build_collaboration(sets, counts, neighbors)
        g, phi, adjacency, r, disc, e, o = reference_pipeline(
            vectors, counts, neighbors
        )

        adjacency_off += not np.array_equal(collab.adjacency, adjacency)
        worst = max(
            worst,
            np.abs(collab.global_prototypes - g).max(),
            np.abs(collab.phi - phi).max(),
            np.abs(collab.relational.r - r).max(),
            np.abs(collab.discrepancies - disc).max(),
            np.abs(collab.weights - e).max(),
            np.abs(collab.consistent.o - o).max(),
        )
    detail = (f"max abs deviation {worst:.3e} from the scalar-loop reference "
              f"over 100 random instances (tolerance 1e-6)")
    if adjacency_off:
        detail += f"; adjacency differs on {adjacency_off} instances"
    report(5, worst <= 1e-6 and not adjacency_off, detail)


def test_criterion_6_closed_form_spot_values():
    rng = np.random.default_rng(606)
    checks = []

    d2 = client_discrepancy(np.array([7, 0]))
    checks.append(("one-hot |C|=2 discrepancy", d2, 0.5))
    d10 = client_discrepancy(np.array([9] + [0] * 9))
    checks.append(("one-hot |C|=10 discrepancy", d10, math.sqrt(9.0 / 20.0)))

    weights = aggregation_weights(np.full(4, 25.0), np.full(4, 0.3))
    checks.append(("symmetric client weight", float(weights.max()), 0.25))
    checks.append(("symmetric client weight", float(weights.min()), 0.25))

    classes, clients, feat = 5, 3, 4
    shared = rng.normal(size=feat)
    relational = RelationalSet(
        np.tile(shared, (classes, clients, 1)),
        np.ones((classes, clients), bool),
    )
    context = SimilarityContext(relational, np.full((classes, clients), 1.3), tau=0.07)
    # both loss checks run the training path, total_loss, on one row
    params = init_params(1, 1, feat, classes)
    out = total_loss(one_row_batch(params, rng.normal(size=feat), 2), relational,
                     None, context, params)
    checks.append(("contrastive loss at equal similarities", out.rpcl,
                   math.log(classes)))
    checks.append(("contrastive gradient at equal similarities",
                   float(np.abs(out.grad_z).max()), 0.0))

    params = init_params(1, 1, feat, 7)
    params.vc[:] = 0.0  # every logit is 0 whatever the features
    out = total_loss(one_row_batch(params, rng.normal(size=feat), 3), None, None,
                     None, params)
    checks.append(("cross-entropy at uniform logits", out.ce, math.log(7.0)))

    worst = max(abs(value - want) for _, value, want in checks)
    off = [f"{name}: {value} != {want}" for name, value, want in checks
           if not abs(value - want) <= 1e-9]
    detail = (f"six closed-form values reproduced, worst abs error {worst:.2e} "
              f"(tolerance 1e-9)")
    if off:
        detail += "; " + "; ".join(off)
    report(6, not off, detail)


# criterion 7 helpers ------------------------------------------------------

def random_feasible_constants(rng):
    m = int(rng.integers(0, 4))
    classes = int(rng.integers(2, 11))
    b = float(rng.uniform(0.2, 3.0))
    l1 = float(rng.uniform(0.05, 4.0))
    sigma_sq = float(rng.uniform(0.0, 2.0))
    if rng.random() < 0.3:
        l2 = 0.0
    else:
        l2 = float(rng.uniform(0.0, 0.95 * (m + 1) * b / ((m + 2) * classes)))
    return dict(l1=l1, l2=l2, b=b, sigma_sq=sigma_sq, num_classes=classes,
                m=m, local_epochs=int(rng.integers(1, 5)))


def test_criterion_7_theorem_calculators():
    c1 = TheoryConstants(l1=1.0, l2=0.0, b=1.0, sigma_sq=0.0, num_classes=5,
                         m=1, local_epochs=1, eta=0.1)
    v1 = theorem1_bound(1.0, c1)

    c2 = TheoryConstants(l1=1.0, l2=0.0, b=1.0, sigma_sq=1.0, num_classes=10,
                         m=1, local_epochs=1, eta=0.1)
    v2 = theorem2_eta_threshold(c2)

    c3 = TheoryConstants(l1=1.0, l2=0.0, b=1.0, sigma_sq=0.0, num_classes=4,
                         m=0, local_epochs=1, eta=0.5, xi=1.0, l0=1.5,
                         l_star=0.5)
    plan = theorem3_min_rounds(c3)
    hand = (("theorem1_bound", v1, 0.905, 1e-15),
            ("theorem2_eta_threshold", v2, 1.0, 0.0),
            ("theorem3_min_rounds", plan.min_rounds, 8.0 / 3.0, 1e-15))
    off = [f"{name} {value!r} != {want!r}" for name, value, want, tol in hand
           if not abs(value - want) <= tol]

    rng = np.random.default_rng(707)
    rises = {"xi": 0, "b": 0}  # steps where a quantity that must fall did not
    # minimum-rounds estimate must fall as the gradient floor xi rises
    done = 0
    while done < 1000:
        base = random_feasible_constants(rng)
        xi_lo = float(rng.uniform(0.05, 1.0))
        m, classes = base["m"], base["num_classes"]
        eta_max = (
            2.0 * (xi_lo * (m + 1) - (m + 2) * base["l2"] * classes * base["b"])
        ) / (base["l1"] * (m + 1) * (xi_lo + base["sigma_sq"]))
        if eta_max <= 0:
            continue
        eta = 0.9 * eta_max
        previous = None
        for factor in (1.0, 1.6, 2.5, 4.0):
            c = TheoryConstants(eta=eta, xi=xi_lo * factor, l0=2.0,
                                l_star=0.5, **base)
            r_min = theorem3_min_rounds(c).min_rounds
            if previous is not None:
                rises["xi"] += not r_min < previous
            previous = r_min
        done += 1

    # the one-round bound must fall as the gradient-norm scale b rises
    for _ in range(1000):
        base = random_feasible_constants(rng)
        b_grid = np.sort(rng.uniform(0.5, 3.0, size=4))
        base.pop("l2")
        base.pop("b")
        if rng.random() < 0.3:
            l2 = 0.0
            eta = float(rng.uniform(0.05, 0.999 * 2.0 / base["l1"]))
        else:
            m, classes = base["m"], base["num_classes"]
            l2 = float(rng.uniform(
                0.0, 0.95 * (m + 1) * b_grid[0] / ((m + 2) * classes)))
            eta = float(rng.uniform(0.05, 1.0 / base["l1"]))
        l_re = float(rng.uniform(0.5, 3.0))
        previous = None
        for b in b_grid:
            c = TheoryConstants(l2=l2, b=float(b), eta=eta, **base)
            bound = theorem1_bound(l_re, c)
            if previous is not None:
                rises["b"] += not bound < previous
            previous = bound

    off += [f"{count} steps in {name} do not fall" for name, count in rises.items()
            if count]
    detail = ("hand values 0.905 / 1.0 / 2.667 exact; minimum-rounds falls in "
              "xi and the one-round bound falls in b on 1000 random feasible "
              "sets each")
    if off:
        detail += "; " + "; ".join(off)
    report(7, not off, detail)


def test_criterion_8_runs_are_bitwise_deterministic(tmp_path):
    args = [
        "--num-classes", "5", "--per-class", "80", "--dim", "6",
        "--separation", "3.0", "--num-clients", "4", "--alpha", "0.3",
        "--rounds", "4", "--local-epochs", "2", "--hidden-dim", "16",
        "--feature-dim", "8", "--seed", "11",
    ]
    dirs = {"a": "1", "b": "1", "c": "3"}
    rows = {}
    for name, threads in dirs.items():
        out = tmp_path / name
        assert cli_main(["generate", *args, "--out", str(out)]) == 0
        assert cli_main(["run", *args, "--threads", threads,
                         "--out", str(out)]) == 0
        lines = (out / "metrics_fedsc.csv").read_text().splitlines()
        # wall_ms is measured time, the one legitimately varying field
        rows[name] = [line.rsplit(",", 1)[0] for line in lines]
        for line in lines[1:]:
            float(line.rsplit(",", 1)[1])
    ok = rows["a"] == rows["b"] == rows["c"]
    report(8, ok,
           "repeat runs and differing --threads give byte-identical metrics "
           "in every result column (measured wall_ms column reports real "
           "time and is excluded)")


def test_criterion_9_round_one_matches_plain_averaging():
    runs = head_to_head(seed=1, rounds=1)
    params = {algorithm: runs[algorithm].state.params for algorithm in ALGORITHMS}
    same = all(
        np.array_equal(getattr(params["fedsc"], f), getattr(params["fedavg"], f))
        for f in PARAM_FIELDS
    )
    report(9, same,
           "round-1 global models are bitwise equal: without prototypes both "
           "algorithms train plain cross-entropy")


def test_seed_one_runs_match_the_oracle_record(standard_runs, long_tail_runs):
    # The oracle's four head-to-head runs, already trained by the fixtures.
    # Their metrics digests must match the record; the weights lines are
    # reported only, as in the oracle, since a refactor may move the last bits.
    recorded = json.loads((ORACLE / "oracle.json").read_text())
    differs = []
    with np.load(ORACLE / "oracle_weights.npz") as stored:
        for long_tail, runs in ((False, standard_runs), (True, long_tail_runs)):
            for algorithm in ALGORITHMS:
                name = run_name(algorithm, long_tail)
                result = runs[1][algorithm]
                if metrics_digest(result.metrics) != recorded[f"{name} metrics"]:
                    differs.append(name)
                line = weights_line(name, result.state.params.flat, stored[name])
                acceptance_lines.append(line)
                print(line)
    assert differs == [], f"metrics differ from tools/oracle.json: {differs}"
