import numpy as np
import pytest

import dhn
from dhn.graphs import (
    disjoint_pairs_graph,
    karate_club,
    ring_graph,
    two_component_graph,
)


def test_karate_club_shape():
    g = karate_club()
    assert g.n == 34
    assert g.volume == 2 * 78
    assert set(g.labels()) == {str(i) for i in range(34)}
    assert (g.weights != g.weights.T).nnz == 0


def test_karate_degree_sequence_matches_original():
    # member 33 (the instructor's rival) has degree 17, member 0 has 16
    g = karate_club()
    by_label = dict(zip(g.labels(), g.degrees))
    assert by_label["33"] == 17.0
    assert by_label["0"] == 16.0
    assert by_label["9"] == 2.0


def test_disjoint_pairs():
    g = disjoint_pairs_graph(3)
    assert g.n == 6
    assert g.volume == 6.0


def test_ring():
    g = ring_graph(5)
    assert np.all(g.degrees == 2.0)
    with pytest.raises(ValueError):
        ring_graph(2)


def test_two_component_graph_is_disconnected():
    g = two_component_graph(4, 5, seed=3)
    assert g.n == 9
    assert g.weights[:4, 4:].nnz == 0
    assert np.all(g.degrees > 0)
    # seeded determinism
    h = two_component_graph(4, 5, seed=3)
    assert np.array_equal(g.weights.toarray(), h.weights.toarray())
