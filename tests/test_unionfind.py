import random

import pytest

from shidoku.unionfind import components, graph_components
from helpers import oracle_components


def labels_of(blocks, size):
    """Each node's index among the blocks."""
    label = [None] * size
    for c, block in enumerate(blocks):
        for k in block:
            label[k] = c
    return label


def test_components_without_maps_are_singletons():
    assert components(0, []) == ([], [])
    label, counts = components(4, [])
    assert label == labels_of([[0], [1], [2], [3]], 4) == [0, 1, 2, 3]
    assert counts == [1, 1, 1, 1]


def test_components_of_identity_maps_are_singletons():
    identity = list(range(5))
    label, counts = components(5, [identity, identity])
    assert label == labels_of([[k] for k in range(5)], 5)
    assert counts == [1] * 5


def test_components_of_one_long_cycle_is_one_block():
    n = 1000
    label, counts = components(n, [[(k + 1) % n for k in range(n)]])
    assert label == labels_of([list(range(n))], n)
    assert counts == [n]
    # one label even though the search reaches n-1 first
    label, counts = components(n, [[(k - 1) % n for k in range(n)]])
    assert label == labels_of([list(range(n))], n)
    assert counts == [n]


def test_components_orders_blocks_by_minimum_and_members_within():
    # blocks {0, 3, 5}, {1, 4}, {2}; forward from 0 the search meets 5 before 3
    m = [5, 4, 2, 0, 1, 3]
    label, counts = components(6, [m])
    assert label == labels_of([[0, 3, 5], [1, 4], [2]], 6) == [0, 1, 2, 0, 1, 0]
    assert counts == [3, 2, 1]


def test_components_match_the_edge_oracle_on_random_permutations():
    # the oracle follows each edge (k, m[k]) both ways
    rng = random.Random(3)
    for _ in range(50):
        size = rng.randrange(1, 40)
        maps = []
        for _ in range(rng.randrange(4)):
            m = list(range(size))
            # a random permutation with many fixed points, so blocks vary
            moved = rng.sample(range(size), rng.randrange(size + 1))
            for src, dst in zip(moved, rng.sample(moved, len(moved))):
                m[src] = dst
            maps.append(m)
        edges = [(k, j) for m in maps for k, j in enumerate(m)]
        blocks = oracle_components(range(size), edges)
        label, counts = components(size, maps)
        assert label == labels_of(blocks, size)
        assert counts == list(map(len, blocks))


def test_graph_components_maps_edges_by_position_in_node_order():
    # two runs of three edges: one map each, whatever the labels or the
    # order of nodes and edges within a run
    edges = [("c", "c"), ("a", "b"), ("b", "a"), ("a", "a"), ("b", "b"), ("c", "c")]
    assert graph_components(["c", "b", "a"], edges) == [["a", "b"], ["c"]]
    assert graph_components(["b", "a"], []) == [["a"], ["b"]]


def test_graph_components_rejects_edges_that_do_not_fit_the_nodes():
    edges = [("a", "b"), ("b", "a")]
    with pytest.raises(ValueError, match="2 edges are not runs of 3 nodes"):
        graph_components(["a", "b", "c"], edges)
    with pytest.raises(ValueError, match="2 edges are not runs of 0 nodes"):
        graph_components([], edges)
    with pytest.raises(ValueError, match="endpoint 'b' is not a node"):
        graph_components(["a", "c"], edges)


@pytest.mark.parametrize(
    "edges",
    [
        [("a", "b"), ("a", "a")],
        [("a", "a"), ("b", "a")],
        [("a", "a"), ("b", "b"), ("b", "a"), ("a", "a")],
    ],
    ids=["repeated-source", "repeated-target", "second-run"],
)
def test_graph_components_rejects_a_run_that_is_not_a_permutation(edges):
    # each would otherwise be read as a map that drops an edge a-b
    run = 1 if len(edges) == 2 else 2
    message = f"^edge run {run} does not name each node once as source and target$"
    with pytest.raises(ValueError, match=message):
        graph_components(["a", "b"], edges)
