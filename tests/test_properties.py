"""What makes a prototype relational: properties of ``build_collaboration``
that hold for any reports, not only for the formulas' reference values, and
of the composite loss that trains against them.

Each property names a mutation of the server pipeline or the loss that it
catches.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fedsc.losses import compute_normalizers, total_loss
from fedsc.model import FeatureBatch, ModelParams, forward_features
from fedsc.prototypes import ConsistentSet, PrototypeSet, RelationalSet, build_collaboration

# bounded and derandomized like tests/test_fuzz.py: the same examples every run
PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)


@st.composite
def reports(draw):
    """K clients' prototype sets over C classes of width d, each client
    holding about 70% of the classes and at least one, plus their counts."""
    k, c, d = draw(st.integers(2, 10)), draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    present = rng.random((k, c)) < 0.7
    present[np.arange(k), rng.integers(0, c, size=k)] = True
    counts = np.where(present, rng.integers(1, 50, size=(k, c)), 0)
    vectors = rng.standard_normal((k, c, d))
    return vectors, present, counts


def build(vectors, present, counts, neighbors, owners=None):
    owners = range(1, len(vectors) + 1) if owners is None else owners
    sets = [PrototypeSet(v, p, owner=int(o)) for v, p, o in zip(vectors, present, owners)]
    return build_collaboration(sets, counts, neighbors)


@PROPERTY
@given(reports())
def test_no_neighbours_keeps_each_client_its_own_prototype(inputs):
    # catches an adjacency without its self loop, or one that links a
    # neighbour at M = 0
    vectors, present, counts = inputs
    rel = build(vectors, present, counts, 0).relational
    assert np.array_equal(rel.valid, present.T)
    own = vectors.transpose(1, 0, 2)
    assert np.array_equal(rel.r[rel.valid], own[rel.valid])
    assert not rel.r[~rel.valid].any()


@PROPERTY
@given(reports(), st.integers(0, 3))
def test_every_client_a_neighbour_gives_the_global_prototype(inputs, extra):
    # catches a wrong class's vectors in the relational product, and a mean
    # over all K clients instead of the ones holding the class
    vectors, present, counts = inputs
    built = build(vectors, present, counts, len(vectors) - 1 + extra)
    rel, held = built.relational, present.sum(axis=0)
    for j, k in zip(*np.nonzero(rel.valid)):
        assert built.adjacency[j, k].sum() == held[j]
        assert np.array_equal(rel.r[j, k], built.global_prototypes[j]), (j, k)


@PROPERTY
@given(reports(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_permuting_classes_permutes_adjacency_and_relational(inputs, neighbors, rand):
    # catches any stage that mixes classes, such as a neighbourhood chosen on
    # one class and applied to another
    vectors, present, counts = inputs
    perm = np.array(rand.sample(range(present.shape[1]), present.shape[1]))
    base = build(vectors, present, counts, neighbors)
    moved = build(vectors[:, perm], present[:, perm], counts[:, perm], neighbors)
    assert np.array_equal(moved.adjacency, base.adjacency[perm])
    assert np.array_equal(moved.relational.valid, base.relational.valid[perm])
    assert np.array_equal(moved.relational.r, base.relational.r[perm])


@PROPERTY
@given(reports(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_permuting_clients_permutes_adjacency_relational_and_set_arrays(
        inputs, neighbors, rand):
    vectors, present, counts = inputs
    k = len(vectors)
    perm = np.array(rand.sample(range(k), k))
    base = build(vectors, present, counts, neighbors)
    moved = build(vectors[perm], present[perm], counts[perm], neighbors, owners=perm + 1)
    # catches neighbours picked by their position in the report list instead
    # of by angular difference
    assert np.array_equal(moved.adjacency, base.adjacency[:, perm][:, :, perm])
    # catches a valid mask that stays with a report's position, not its client
    assert np.array_equal(moved.relational.valid, base.relational.valid[:, perm])
    # catches a neighbour's prototype taken from another client; the global
    # means sum the clients in another order, so the bits may move
    assert np.allclose(moved.relational.r, base.relational.r[:, perm], rtol=0, atol=1e-12)

    # the set's cached arrays move with its valid cells: valid cell p of the
    # moved set is valid cell order[p] of the base set
    rows, base_rows = moved.relational.valid_rows, base.relational.valid_rows
    index = np.full(present.T.shape, -1)
    index[base.relational.valid] = np.arange(base.relational.valid.sum())
    order = index[:, perm][moved.relational.valid]
    # catches rows gathered client-major while the cells are class-major
    assert np.allclose(rows.rows, base_rows.rows[order], rtol=0, atol=1e-12)
    assert np.allclose(rows.norms, base_rows.norms[order], rtol=0, atol=1e-12)
    # catches a positive table keyed on the client instead of the class, or
    # built from a mask other than the set's
    assert np.array_equal(rows.positive, base_rows.positive[:, order])
    # catches contrasted flags that depend on a client's position
    assert np.array_equal(rows.contrasted, base_rows.contrasted)
    assert rows.all_contrasted == base_rows.all_contrasted


@PROPERTY
@given(reports(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_rotating_every_prototype_rotates_relational_and_consistent(
        inputs, neighbors, seed):
    # catches a norm taken coordinatewise, such as an L1 norm in the cosine,
    # and a nonlinear step in the relational or consistent prototypes
    vectors, present, counts = inputs
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((vectors.shape[2],) * 2))
    base = build(vectors, present, counts, neighbors)
    moved = build(vectors @ q, present, counts, neighbors)
    assert np.array_equal(moved.adjacency, base.adjacency)
    assert np.allclose(moved.relational.r, base.relational.r @ q, rtol=0, atol=1e-12)
    assert np.allclose(moved.consistent.o, base.consistent.o @ q, rtol=0, atol=1e-12)


@PROPERTY
@given(reports(), st.integers(0, 3))
def test_scaling_every_prototype_keeps_the_adjacency(inputs, neighbors):
    # catches a similarity that reads the prototypes' length, such as a floor
    # on the cosine's denominator
    vectors, present, counts = inputs
    base = build(vectors, present, counts, neighbors)
    assert np.array_equal(build(3.7 * vectors, present, counts, neighbors).adjacency,
                          base.adjacency)


@PROPERTY
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_a_tie_goes_to_the_lower_report_position(d, seed):
    # Reports a and b are identical, so the third client is equally close to
    # both.  At M = 1 it links the one earlier in the report list, whatever
    # its owner; run_round lists reports by ascending client id.  Catches
    # ties broken towards the later report, and a tie broken by owner.
    rng = np.random.default_rng(seed)
    same, other = rng.standard_normal((2, 1, d))
    vectors, present = np.stack([same, same, other]), np.ones((3, 1), bool)
    counts = np.array([[5], [7], [9]])
    # owners 1, 2, 3 in that order: client 3 links client 1
    base = build(vectors, present, counts, 1)
    assert base.adjacency[0].tolist() == [[1, 1, 0], [1, 1, 0], [1, 0, 1]]
    # listed as clients 3, 2, 1: client 3 links client 2, now the earlier copy
    perm = np.array([2, 1, 0])
    moved = build(vectors[perm], present[perm], counts[perm], 1, owners=perm + 1)
    assert moved.adjacency[0].tolist() == [[1, 1, 0], [0, 1, 1], [0, 1, 1]]


def loss_inputs(inputs, neighbors, seed):
    """A model of the reports' feature width with random weights and biases
    (so no feature row is zero), a labelled batch of 12 rows, and the
    collaboration built from the reports."""
    vectors, present, counts = inputs
    c, d = present.shape[1], vectors.shape[2]
    rng = np.random.default_rng(seed)
    params = ModelParams(*(rng.standard_normal(shape) for shape in
                           ((3, 8), 8, (8, d), d, (d, c), c)))
    x, labels = rng.standard_normal((12, 3)), rng.integers(1, c + 1, size=12)
    return params, x, labels, build(vectors, present, counts, neighbors)


def loss_at(params, x, labels, relational, consistent):
    batch = forward_features(params, x, labels)
    context = compute_normalizers(batch.z, relational)
    return total_loss(batch, relational, consistent, context, params)


@PROPERTY
@given(reports(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_rotating_features_prototypes_and_classifier_rotates_grad_z(
        inputs, neighbors, seed):
    # z -> z Q (through w2 and b2), r -> r Q, o -> o Q and v -> Q^T v keep
    # the logits, cosines and distances.  Catches a coordinatewise norm, such
    # as an L1 feature norm in RPCL's cosine or an L1 distance in the
    # normalizers, and a coordinatewise CPDR gradient such as its sign
    params, x, labels, built = loss_inputs(inputs, neighbors, seed)
    d = params.feature_dim
    q, _ = np.linalg.qr(np.random.default_rng(seed + 1).standard_normal((d, d)))
    rel, con = built.relational, built.consistent
    base = loss_at(params, x, labels, rel, con)
    turned = ModelParams(params.w1, params.b1, params.w2 @ q, params.b2 @ q,
                         q.T @ params.v, params.c)
    moved = loss_at(turned, x, labels, RelationalSet(rel.r @ q, rel.valid),
                    ConsistentSet(con.o @ q, con.present))
    for term in ("ce", "rpcl", "cpdr"):
        assert np.isclose(getattr(moved, term), getattr(base, term),
                          rtol=0, atol=1e-12), term
    assert np.allclose(moved.grad_z, base.grad_z @ q, rtol=0, atol=1e-12)


@PROPERTY
@given(reports(), st.integers(0, 3), st.integers(0, 2**32 - 1),
       st.randoms(use_true_random=False))
def test_permuting_the_batch_permutes_grad_z(inputs, neighbors, seed, rand):
    # a sample's loss and gradient depend on its own row and label alone.
    # Catches a label paired with another row, such as CPDR gathering the
    # consistent prototypes of the sorted labels
    params, x, labels, built = loss_inputs(inputs, neighbors, seed)
    perm = np.array(rand.sample(range(len(x)), len(x)))
    rel, con = built.relational, built.consistent
    batch = forward_features(params, x, labels)
    context = compute_normalizers(batch.z, rel)
    base = total_loss(batch, rel, con, context, params)
    moved = total_loss(FeatureBatch(*(a[perm] for a in (batch.inputs, batch.pre1,
                                                          batch.act1, batch.z, labels))),
                       rel, con, context, params)
    assert np.array_equal(moved.grad_z, base.grad_z[perm])
    assert np.isclose(moved.total, base.total, rtol=0, atol=1e-12)
