"""Simple undirected graphs and the structural primitives shared by every solver.

Vertices are dense 0-based integers.  Graphs are immutable once built; all
operations here are pure functions, so concurrent use on shared graphs is safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ParseError, PreconditionError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: no self-loops, no parallel edges.

    adjacency holds one sorted, duplicate-free neighbour tuple per vertex.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise PreconditionError("vertex count must be non-negative")
        neigh: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            neigh[u].add(v)
            neigh[v].add(u)
        return Graph(n, tuple(tuple(sorted(s)) for s in neigh))

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.adjacency[v]]

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest vertex."""
        seen = [False] * self.n
        comps = []
        for root in range(self.n):
            if seen[root]:
                continue
            seen[root] = True
            comp = [root]
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w in self.adjacency[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def induced(self, keep: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph on `keep`; also returns new-index -> old-index map.

        `pos` increases with the old index, so each kept vertex's neighbour
        tuple, read in order and renumbered, is already sorted.
        """
        kept = sorted(set(keep))
        if kept and (kept[0] < 0 or kept[-1] >= self.n):
            raise PreconditionError(f"kept vertices must lie in [0, {self.n})")
        pos = {v: i for i, v in enumerate(kept)}
        adjacency = tuple(tuple(pos[w] for w in self.adjacency[v] if w in pos) for v in kept)
        return Graph(len(kept), adjacency), kept


@dataclass(frozen=True, slots=True)
class StarForest:
    """A star forest up to isomorphism: the multiset of its star sizes.

    A star of size d has one centre and d-1 leaves, so every size is >= 2.
    Sizes are stored sorted non-increasing.
    """

    star_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(sorted(self.star_sizes, reverse=True))
        object.__setattr__(self, "star_sizes", sizes)
        if any(s < 2 for s in sizes):
            raise PreconditionError(f"star sizes must all be >= 2, got {sizes}")

    @property
    def total_vertices(self) -> int:
        return sum(self.star_sizes)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Embedding:
    """An injective placement of a star forest into a host graph.

    stars[i] = (centre, leaf, leaf, ...) lists the host vertices of star i;
    position 0 is the centre.  While every vertex and star size is below
    256, the stars are kept as one bytes object, each star as its size, its
    centre and its leaves, and ``stars`` decodes them: a caller that keeps
    many certificates keeps one small object per embedding, not a tuple per
    star.  Otherwise the tuples are kept as given.
    """

    _code: bytes | tuple[tuple[int, ...], ...]

    def __init__(self, stars: Iterable[Iterable[int]]):
        stars = tuple(map(tuple, stars))
        try:
            code = bytes([v for star in stars for v in (len(star), *star)])
        except (TypeError, ValueError):  # a value that is not a byte
            code = stars
        object.__setattr__(self, "_code", code)

    @property
    def stars(self) -> tuple[tuple[int, ...], ...]:
        code = self._code
        if type(code) is tuple:
            return code
        stars, i = [], 0
        while i < len(code):
            end = i + 1 + code[i]
            stars.append(tuple(code[i + 1:end]))
            i = end
        return tuple(stars)

    def __repr__(self) -> str:
        return f"Embedding(stars={self.stars!r})"

    def vertices(self) -> list[int]:
        return [v for star in self.stars for v in star]


@dataclass(frozen=True)
class Instance:
    g1: Graph
    g2: Graph
    h: int

    def trivially_no(self) -> bool:
        """h exceeding either vertex count can never be met."""
        return self.h > min(self.g1.n, self.g2.n)


# ---------------------------------------------------------------------------
# parsing / serialization


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: first line "n m", then m lines "u v"."""
    lines = text.splitlines()
    graph, used = _parse_graph_lines(lines, offset=0)
    _expect_end(lines, used)
    return graph


def _expect_end(lines: list[str], idx: int) -> None:
    """Refuse any non-blank line after the last graph, such as an edge beyond m."""
    for line_no in range(idx, len(lines)):
        if lines[line_no].strip():
            raise ParseError(f"unexpected line after the graph: {lines[line_no]!r}", line_no + 1)


def _parse_graph_lines(lines: list[str], offset: int) -> tuple[Graph, int]:
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise ParseError("missing graph header", offset + idx + 1)
    header = lines[idx].split()
    if len(header) != 2:
        raise ParseError(f"expected header 'n m', got {lines[idx]!r}", offset + idx + 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"non-integer header {lines[idx]!r}", offset + idx + 1) from None
    if n < 0 or m < 0:
        raise ParseError("header counts must be non-negative", offset + idx + 1)
    idx += 1
    edges: list[tuple[int, int]] = []
    read = 0
    while read < m:
        if idx >= len(lines):
            raise ParseError(f"expected {m} edges, found {read}", offset + idx + 1)
        line = lines[idx].strip()
        if not line:
            idx += 1
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected edge 'u v', got {line!r}", offset + idx + 1)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer edge {line!r}", offset + idx + 1) from None
        if u == v:
            raise ParseError(f"self-loop {u}", offset + idx + 1)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex index out of range in {line!r}", offset + idx + 1)
        edges.append((u, v))
        read += 1
        idx += 1
    return Graph.from_edges(n, edges), idx


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    """Instance file: "h" on line 1, two graph blocks separated by a "---" line."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise ParseError("missing target h", 1)
    try:
        h = int(lines[idx].strip())
    except ValueError:
        raise ParseError(f"non-integer target {lines[idx]!r}", idx + 1) from None
    if h < 0:
        raise ParseError("target h must be non-negative", idx + 1)
    idx += 1
    g1, used = _parse_graph_lines(lines[idx:], offset=idx)
    idx += used
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines) or lines[idx].strip() != "---":
        raise ParseError("expected '---' separator between graphs", idx + 1)
    idx += 1
    g2, used = _parse_graph_lines(lines[idx:], offset=idx)
    _expect_end(lines, idx + used)
    return Instance(g1, g2, h)


def serialize_instance(inst: Instance) -> str:
    return f"{inst.h}\n" + serialize_graph(inst.g1) + "---\n" + serialize_graph(inst.g2)


# ---------------------------------------------------------------------------
# matching and covers


def max_matching(g: Graph) -> set[tuple[int, int]]:
    """Maximum-cardinality matching in a general graph (blossom contraction).

    Returns edges as (u, v) with u < v.
    """
    n = g.n
    match: list[int] = [-1] * n

    def find_augmenting(root: int) -> bool:
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])

        def lca(a: int, b: int) -> int:
            hit = [False] * n
            x = a
            while True:
                x = base[x]
                hit[x] = True
                if match[x] == -1:
                    break
                x = parent[match[x]]
            y = b
            while True:
                y = base[y]
                if hit[y]:
                    return y
                y = parent[match[y]]

        def mark_path(v: int, b: int, child: int, in_blossom: list[bool]):
            while base[v] != b:
                in_blossom[base[v]] = True
                in_blossom[base[match[v]]] = True
                parent[v] = child
                child = match[v]
                v = parent[match[v]]

        while queue:
            v = queue.popleft()
            for to in g.adjacency[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom
                    cur_base = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # augment along root..to
                        u = to
                        while u != -1:
                            pv = parent[u]
                            nxt = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = nxt
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting(v)
    return {(u, match[u]) for u in range(n) if match[u] > u}


def min_vertex_cover(g: Graph, k: int) -> list[int] | None:
    """A minimum vertex cover, provided its size is <= k; otherwise None.

    Bounded-depth branching on the first uncovered edge (take u / take v).
    """
    if k < 0:
        raise PreconditionError("k must be non-negative")
    edges = list(g.edges())

    def search(chosen: set[int], budget: int) -> set[int] | None:
        pick = next(((u, v) for u, v in edges if u not in chosen and v not in chosen), None)
        if pick is None:
            return chosen
        if budget == 0:
            return None
        u, v = pick
        for w in (u, v):
            found = search(chosen | {w}, budget - 1)
            if found is not None:
                return found
        return None

    for size in range(k + 1):
        found = search(set(), size)
        if found is not None:
            return sorted(found)
    return None


def bfs_levels(g: Graph) -> list[int]:
    """BFS distance from each component's lowest-index vertex."""
    level = [-1] * g.n
    for root in range(g.n):
        if level[root] != -1:
            continue
        level[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if level[w] == -1:
                    level[w] = level[u] + 1
                    queue.append(w)
    return level


# ---------------------------------------------------------------------------
# certificates


def embedding_violation(host: Graph, forest: StarForest, emb: Embedding) -> str | None:
    """None if emb embeds forest into host; otherwise what went wrong."""
    stars = emb.stars
    if len(stars) != len(forest.star_sizes):
        return f"embedding has {len(stars)} stars, forest has {len(forest.star_sizes)}"
    emb_sizes = sorted((len(s) for s in stars), reverse=True)
    if tuple(emb_sizes) != forest.star_sizes:
        return f"star sizes {emb_sizes} do not match forest {list(forest.star_sizes)}"
    seen: set[int] = set()
    for i, star in enumerate(stars):
        if len(star) < 2:
            return f"star {i} has fewer than 2 vertices"
        for v in star:
            if not (0 <= v < host.n):
                return f"star {i} uses vertex {v} outside the host graph"
            if v in seen:
                return f"vertex {v} used twice (injectivity)"
            seen.add(v)
        centre = star[0]
        for leaf in star[1:]:
            if not host.has_edge(centre, leaf):
                return f"star {i}: ({centre},{leaf}) is not an edge of the host"
    return None


def verify_embedding(host: Graph, forest: StarForest, emb: Embedding) -> bool:
    return embedding_violation(host, forest, emb) is None
