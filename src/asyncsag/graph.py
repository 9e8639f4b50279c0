"""Directed communication topologies and connectivity analysis.

Nodes are dense 0-based integers. Edges are ordered pairs ``(i, j)`` meaning
node ``i`` can send to node ``j``. Self-loops are never stored: every node is
implicitly its own in/out-neighbor (broadcasts include a self-copy), so the
neighbor queries below are self-inclusive and never empty.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path


class DirectedGraph:
    """Immutable directed graph with self-inclusive neighbor queries."""

    def __init__(self, n: int, edges) -> None:
        if n <= 0:
            raise ValueError(f"node count must be positive, got n={n}")
        edge_set = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise ValueError(
                    f"self-loop ({i}, {i}) not allowed; self-links are implicit"
                )
            edge_set.add((i, j))
        self.n = n
        self.edges = frozenset(edge_set)
        out = [{i} for i in range(n)]
        inn = [{i} for i in range(n)]
        for i, j in edge_set:
            out[i].add(j)
            inn[j].add(i)
        self._out = [tuple(sorted(s)) for s in out]
        self._in = [tuple(sorted(s)) for s in inn]

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        """Targets of node i's broadcasts, including i itself."""
        return self._out[i]

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        """Sources node i can hear from, including i itself."""
        return self._in[i]

    def out_degree(self, i: int) -> int:
        """Self-inclusive out-degree |N_out(i)| (push-share denominator)."""
        return len(self._out[i])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirectedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, edges={len(self.edges)})"


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


def _distances(g: DirectedGraph, start: int,
               reverse: bool = False) -> dict[int, int]:
    """Hop counts from ``start`` to every node it reaches (to every node
    that reaches it, with ``reverse``), by breadth-first search."""
    nbrs = g.in_neighbors if reverse else g.out_neighbors
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in nbrs(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every node reaches every other along directed edges."""
    return (len(_distances(g, 0)) == g.n
            and len(_distances(g, 0, reverse=True)) == g.n)


def diameter(g: DirectedGraph) -> int:
    """Longest shortest directed path over all ordered node pairs.

    Raises if the graph is not strongly connected (the quantity would be
    undefined): then some search misses a node.
    """
    best = 0
    for s in range(g.n):
        dist = _distances(g, s)
        if len(dist) < g.n:
            raise ValueError("diameter undefined: graph is not strongly connected")
        best = max(best, max(dist.values()))
    return best
