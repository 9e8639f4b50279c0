"""Directed graph construction, connectivity, and diameter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsag.graph import (DirectedGraph, diameter, generate_topology,
                            hop_counts, is_strongly_connected, load_edge_list)
from helpers import bfs_distances, dump_edge_list, edges


def floyd_warshall_diameter(g: DirectedGraph) -> int:
    """Independent oracle for the sweep-based diameter."""
    n = g.n
    dist = np.full((n, n), np.inf)
    dist[g.adj] = 1
    np.fill_diagonal(dist, 0)
    for m in range(n):
        dist = np.minimum(dist, dist[:, m:m + 1] + dist[m:m + 1, :])
    assert np.isfinite(dist).all()
    return int(dist.max())


def test_ring_shape():
    g = generate_topology("ring", 5)
    assert g.n == 5
    assert sorted(edges(g)) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    assert g.adj.diagonal().all()
    assert is_strongly_connected(g)
    assert diameter(g) == 4


def test_ring_neighbor_lists_include_self():
    g = generate_topology("ring", 4)
    assert np.flatnonzero(g.adj[0]).tolist() == [0, 1]
    assert np.flatnonzero(g.adj[:, 0]).tolist() == [0, 3]
    assert g.adj.sum(axis=1).tolist() == [2, 2, 2, 2]


def test_single_node_graph():
    g = generate_topology("ring", 1)
    assert g.n == 1
    assert g.adj.tolist() == [[True]]
    assert is_strongly_connected(g)
    assert diameter(g) == 0


def test_exponential_edges():
    # hops are powers of two below n
    g = generate_topology("exponential", 8)
    assert edges(g) == {(i, (i + 2 ** j) % 8) for i in range(8)
                        for j in range(3)}
    assert diameter(g) == floyd_warshall_diameter(g)


def test_exponential_diameter_logarithmic():
    g = generate_topology("exponential", 16)
    assert diameter(g) <= 4
    assert is_strongly_connected(g)


def test_grid_is_bidirected_lattice():
    g = generate_topology("grid", 9)
    assert g.adj[0, 1] and g.adj[1, 0]
    assert g.adj[0, 3] and g.adj[3, 0]
    assert not g.adj[0, 4]  # no diagonals
    assert is_strongly_connected(g)
    assert diameter(g) == 4  # corner to corner on 3x3


def test_grid_rejects_non_square():
    with pytest.raises(ValueError):
        generate_topology("grid", 8)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        generate_topology("torus", 4)


def test_self_loops_rejected():
    with pytest.raises(ValueError):
        DirectedGraph(3, [(0, 0)])


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError):
        DirectedGraph(3, [(0, 3)])


def test_adjacency_is_read_only():
    g = generate_topology("ring", 3)
    with pytest.raises(ValueError, match="read-only"):
        g.adj[0, 2] = True
    with pytest.raises(ValueError):
        g.adj.flags.writeable = True
    assert not g.adj[0, 2]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_hop_counts_match_breadth_first_search(n, data):
    """The level sweep gives the BFS hop counts from every start, forward
    and backward, on any digraph, strongly connected or not; the
    connectivity test and the diameter follow them."""
    bits = data.draw(st.lists(st.booleans(), min_size=n * n,
                              max_size=n * n), label="adjacency")
    g = DirectedGraph(n, [(i, j) for i in range(n) for j in range(n)
                          if bits[i * n + j] and i != j])
    connected = True
    for start in range(n):
        for reverse in (False, True):
            dist = bfs_distances(g, start, reverse)
            want = [dist.get(v, -1) for v in range(n)]
            got = hop_counts(g.adj.T if reverse else g.adj, start)
            assert got.tolist() == want
            connected &= len(dist) == n
    assert is_strongly_connected(g) == connected
    if connected:
        assert diameter(g) == floyd_warshall_diameter(g)
    else:
        with pytest.raises(ValueError):
            diameter(g)


def test_diameter_matches_floyd_warshall_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        # random digraph over a guaranteed-connected ring
        edges = {(i, (i + 1) % n) for i in range(n)}
        for _ in range(int(rng.integers(0, 2 * n))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.add((int(u), int(v)))
        g = DirectedGraph(n, sorted(edges))
        assert is_strongly_connected(g)
        assert diameter(g) == floyd_warshall_diameter(g)


def test_disconnected_detected():
    g = DirectedGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert not is_strongly_connected(g)
    with pytest.raises(ValueError):
        diameter(g)


def test_one_way_chain_not_strongly_connected():
    g = DirectedGraph(3, [(0, 1), (1, 2)])
    assert not is_strongly_connected(g)


def test_edge_list_round_trip(tmp_path):
    g = generate_topology("exponential", 6)
    path = tmp_path / "graph.txt"
    dump_edge_list(g, path)
    g2 = load_edge_list(path, 6)
    assert g2 == g and hash(g2) == hash(g)
    assert g2 != generate_topology("ring", 6)


def test_edge_list_parse_error_cites_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n# fine\n2 two\n")
    with pytest.raises(ValueError) as err:
        load_edge_list(path, 3)
    assert "line 3" in str(err.value)


def test_generate_topology_edge_list_kind(tmp_path):
    g = generate_topology("ring", 4)
    path = tmp_path / "ring.txt"
    dump_edge_list(g, path)
    g2 = generate_topology("edge_list", 4, path=str(path))
    assert g2 == g
