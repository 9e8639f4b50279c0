"""Directed communication topologies and connectivity analysis.

Nodes are dense 0-based integers. A graph is one read-only boolean
adjacency ``adj``: ``adj[i, j]`` is true when node ``i`` can send to node
``j``. Every node is its own neighbor (broadcasts include a self-copy), so
the diagonal is true; an edge list never names a self-loop. One level
sweep, ``hop_counts``, answers every reachability question.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


class DirectedGraph:
    """Immutable directed graph: ``n`` nodes and their (n, n) adjacency."""

    def __init__(self, n: int, edges) -> None:
        if n <= 0:
            raise ValueError(f"node count must be positive, got n={n}")
        adj = np.eye(n, dtype=bool)
        for i, j in edges:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise ValueError(
                    f"self-loop ({i}, {i}) not allowed; self-links are implicit"
                )
            adj[i, j] = True
        self.n = n
        # a view of immutable bytes, whose writeable flag cannot be set again
        self.adj = np.frombuffer(adj.tobytes(), dtype=bool).reshape(n, n)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DirectedGraph)
                and np.array_equal(self.adj, other.adj))

    def __hash__(self) -> int:
        return hash(self.adj.tobytes())

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, edges={self.adj.sum() - self.n})"


def generate_topology(kind: str, n: int, path: str | Path | None = None) -> DirectedGraph:
    """Build one of the standard experiment topologies.

    Kinds:
      ring         -- directed cycle i -> (i+1) mod n
      exponential  -- i -> (i + 2**j) mod n for 0 <= j < ceil(log2(n))
      grid         -- bidirected 4-neighbor lattice; n must be a perfect square
      edge_list    -- load edges from a text file (one "i j" pair per line)

    Deterministic: the same (kind, n) always yields the same edge set.
    """
    if n < 1:
        raise ValueError(f"node count must be positive, got n={n}")
    if kind == "ring":
        edges = [(i, (i + 1) % n) for i in range(n) if n > 1]
        return DirectedGraph(n, edges)
    if kind == "exponential":
        hops = max(0, (n - 1).bit_length())  # ceil(log2(n)) for n >= 1
        edges = set()
        for i in range(n):
            for j in range(hops):
                t = (i + (1 << j)) % n
                if t != i:
                    edges.add((i, t))
        return DirectedGraph(n, edges)
    if kind == "grid":
        side = round(n ** 0.5)
        if side * side != n:
            raise ValueError(f"grid topology needs a perfect-square node count, got n={n}")
        edges = set()
        for r in range(side):
            for c in range(side):
                v = r * side + c
                if c + 1 < side:
                    edges.add((v, v + 1))
                    edges.add((v + 1, v))
                if r + 1 < side:
                    edges.add((v, v + side))
                    edges.add((v + side, v))
        return DirectedGraph(n, edges)
    if kind == "edge_list":
        if path is None:
            raise ValueError("edge_list topology requires a file path")
        return load_edge_list(path, n)
    raise ValueError(f"unknown topology kind {kind!r}")


def load_edge_list(path: str | Path, n: int) -> DirectedGraph:
    """Parse a whitespace-separated "i j" edge-list file.

    Blank lines and lines starting with '#' are ignored. Malformed lines
    raise with the 1-based line number.
    """
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'i j', got {raw!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer node id in {raw!r}"
                ) from None
            edges.append((i, j))
    try:
        return DirectedGraph(n, edges)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def hop_counts(adj: np.ndarray, start: int) -> np.ndarray:
    """Hop counts from ``start`` along the boolean adjacency ``adj``
    (``adj[i, j]`` an edge i -> j), -1 for a node it does not reach: one
    sweep per level, the whole frontier at once."""
    hops = np.full(adj.shape[0], -1, dtype=np.int64)
    frontier = np.arange(adj.shape[0]) == start
    level = 0
    while frontier.any():
        hops[frontier] = level
        frontier = adj[frontier].any(axis=0) & (hops < 0)
        level += 1
    return hops


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every node reaches every other along directed edges: node 0
    reaches every node, and every node reaches node 0."""
    return bool((hop_counts(g.adj, 0) >= 0).all()
                and (hop_counts(g.adj.T, 0) >= 0).all())


def diameter(g: DirectedGraph) -> int:
    """Longest shortest directed path over all ordered node pairs.

    Raises if the graph is not strongly connected (the quantity would be
    undefined): then some sweep misses a node.
    """
    hops = np.array([hop_counts(g.adj, s) for s in range(g.n)])
    if (hops < 0).any():
        raise ValueError("diameter undefined: graph is not strongly connected")
    return int(hops.max())
