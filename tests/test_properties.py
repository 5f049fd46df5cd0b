"""What makes a prototype relational: properties of ``build_collaboration``
that hold for any reports, not only for the formulas' reference values.

Each property names a mutation of the server pipeline that it catches.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fedsc.prototypes import PrototypeSet, build_collaboration

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


def build(vectors, present, counts, neighbors):
    sets = [PrototypeSet(v, p, owner=i + 1)
            for i, (v, p) in enumerate(zip(vectors, present))]
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
