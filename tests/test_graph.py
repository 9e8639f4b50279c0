"""Directed graph construction, connectivity, and diameter."""

from __future__ import annotations

import numpy as np
import pytest

from asyncsag.graph import (DirectedGraph, diameter, generate_topology,
                            is_strongly_connected, load_edge_list)
from helpers import dump_edge_list


def floyd_warshall_diameter(g: DirectedGraph) -> int:
    """Independent oracle for the BFS-based diameter."""
    n = g.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0)
    for u, v in g.edges:
        dist[u, v] = 1
    for m in range(n):
        dist = np.minimum(dist, dist[:, m:m + 1] + dist[m:m + 1, :])
    assert np.isfinite(dist).all()
    return int(dist.max())


def test_ring_shape():
    g = generate_topology("ring", 5)
    assert g.n == 5
    assert sorted(g.edges) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    assert is_strongly_connected(g)
    assert diameter(g) == 4


def test_ring_neighbor_lists_include_self():
    g = generate_topology("ring", 4)
    assert g.out_neighbors(0) == (0, 1)
    assert g.in_neighbors(0) == (0, 3)
    assert g.out_degree(0) == 2


def test_single_node_graph():
    g = generate_topology("ring", 1)
    assert g.n == 1
    assert len(g.edges) == 0
    assert is_strongly_connected(g)
    assert diameter(g) == 0
    assert g.out_neighbors(0) == (0,)


def test_exponential_edges():
    # hops are powers of two below n
    g = generate_topology("exponential", 8)
    assert set(g.edges) == {(i, (i + 2 ** j) % 8) for i in range(8)
                            for j in range(3)}
    assert diameter(g) == floyd_warshall_diameter(g)


def test_exponential_diameter_logarithmic():
    g = generate_topology("exponential", 16)
    assert diameter(g) <= 4
    assert is_strongly_connected(g)


def test_grid_is_bidirected_lattice():
    g = generate_topology("grid", 9)
    assert (0, 1) in g.edges and (1, 0) in g.edges
    assert (0, 3) in g.edges and (3, 0) in g.edges
    assert (0, 4) not in g.edges  # no diagonals
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
    assert g2 == g


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
