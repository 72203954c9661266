"""Tree-decomposition toolkit and the star-forest enumeration DP.

The DP walks a nice tree decomposition bottom-up.  A state is (node, mask,
star-count vector): the mask assigns each bag vertex a role (uncovered,
centre of a partial star of known size, leaf of an in-bag centre, or leaf of
an already-forgotten centre), and the vector counts stars of each size formed
so far (bag-resident partial stars included).  At the empty root bag the
surviving vectors are exactly the star forests of the graph, up to
isomorphism.

Each table maps a mask to a set of vectors packed into ints base n+1 (see
`combinatorics.pack`).  No count exceeds n, not even the sum of two
children's counts at a join before its correction, so packing is injective
on every intermediate set.  Adding a star, growing one and the join's
correction are then int additions of powers of the base, and the root
decodes its vectors once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .combinatorics import IntVectorSet, sumset, unpack
from .errors import PreconditionError
from .graph import Graph, StarForest
from .vectors import VectorFamily, common_forest

# mask role codes: 0 = uncovered, 1 = leaf of forgotten centre,
# d >= 2 = centre of a size-d partial star, -2-u = leaf of in-bag centre u
UNCOVERED = 0
LEAF_OUTSIDE = 1


def _leaf_of(u: int) -> int:
    return -2 - u


def _leaf_centre(code: int) -> int:
    return -code - 2


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]
    root: int = 0

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def neighbours(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


@dataclass
class NiceTreeDecomposition:
    """Rooted at index `root`; kinds are ("leaf",), ("introduce", v), ("forget", v), ("join",)."""

    bags: list[tuple[int, ...]] = field(default_factory=list)
    kinds: list[tuple] = field(default_factory=list)
    children: list[list[int]] = field(default_factory=list)
    root: int = -1

    def add(self, kind: tuple, bag: tuple[int, ...], childs: list[int]) -> int:
        self.bags.append(tuple(sorted(bag)))
        self.kinds.append(kind)
        self.children.append(childs)
        return len(self.bags) - 1

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def topological_order(self) -> list[int]:
        """Children before parents."""
        order: list[int] = []
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for c in self.children[node]:
                    stack.append((c, False))
        return order


def heuristic_decomposition(g: Graph, strategy: str = "min_fill") -> TreeDecomposition:
    """Elimination-ordering decomposition; width is an upper bound only."""
    if strategy not in ("min_fill", "min_degree"):
        raise PreconditionError(f"unknown strategy {strategy!r}")
    if g.n == 0:
        return TreeDecomposition((frozenset(),), ())
    adj: list[set[int]] = [set(a) for a in g.adjacency]
    alive = set(range(g.n))
    order: list[int] = []
    elim_bags: list[frozenset[int]] = []
    while alive:
        if strategy == "min_degree":
            v = min(alive, key=lambda x: (len(adj[x]), x))
        else:
            def fill(x: int) -> int:
                nb = list(adj[x])
                return sum(
                    1
                    for i in range(len(nb))
                    for j in range(i + 1, len(nb))
                    if nb[j] not in adj[nb[i]]
                )
            v = min(alive, key=lambda x: (fill(x), x))
        bag = frozenset(adj[v] | {v})
        order.append(v)
        elim_bags.append(bag)
        for a in adj[v]:
            for b in adj[v]:
                if a != b and b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
        for a in adj[v]:
            adj[a].discard(v)
        adj[v].clear()
        alive.discard(v)

    pos = {v: i for i, v in enumerate(order)}
    edges: list[tuple[int, int]] = []
    loose: list[int] = []
    for i, bag in enumerate(elim_bags):
        rest = bag - {order[i]}
        if rest:
            edges.append((i, min(pos[w] for w in rest)))
        else:
            loose.append(i)
    # vertices eliminated with no remaining neighbours start new subtrees;
    # chaining them keeps the decomposition a single tree without touching
    # any vertex trace
    for a, b in zip(loose, loose[1:]):
        edges.append((a, b))
    td = TreeDecomposition(tuple(elim_bags), tuple(edges), root=len(elim_bags) - 1)
    assert verify_decomposition(g, td), "elimination ordering produced an invalid decomposition"
    return td


def verify_decomposition(g: Graph, td: TreeDecomposition) -> bool:
    """The three decomposition properties, plus tree-ness of the node graph."""
    nodes = len(td.bags)
    if nodes == 0:
        return g.n == 0
    if len(td.tree_edges) != nodes - 1:
        return False
    adj = td.neighbours()
    seen = {0}
    stack = [0]
    while stack:
        t = stack.pop()
        for s in adj[t]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    if len(seen) != nodes:
        return False
    covered: set[int] = set()
    for bag in td.bags:
        covered |= bag
    if covered != set(range(g.n)):
        return g.n == 0 and not covered
    for u, v in g.edges():
        if not any(u in bag and v in bag for bag in td.bags):
            return False
    for v in range(g.n):
        holding = [t for t in range(nodes) if v in td.bags[t]]
        if not holding:
            return False
        reach = {holding[0]}
        stack = [holding[0]]
        hold_set = set(holding)
        while stack:
            t = stack.pop()
            for s in adj[t]:
                if s in hold_set and s not in reach:
                    reach.add(s)
                    stack.append(s)
        if len(reach) != len(holding):
            return False
    return True


def to_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Same width, leaf/introduce/forget/join structure, empty root bag."""
    nice = NiceTreeDecomposition()
    adj = td.neighbours()

    def chain_from_empty(target: tuple[int, ...]) -> int:
        node = nice.add(("leaf",), (), [])
        bag: list[int] = []
        for v in sorted(target):
            bag.append(v)
            node = nice.add(("introduce", v), tuple(bag), [node])
        return node

    def morph(node: int, src: frozenset[int], dst: frozenset[int]) -> int:
        bag = set(src)
        for v in sorted(src - dst):
            bag.discard(v)
            node = nice.add(("forget", v), tuple(bag), [node])
        for v in sorted(dst - src):
            bag.add(v)
            node = nice.add(("introduce", v), tuple(bag), [node])
        return node

    def build(t: int, parent: int) -> int:
        """Nice subtree whose top node has bag td.bags[t]."""
        kids = [s for s in adj[t] if s != parent]
        if not kids:
            return chain_from_empty(tuple(td.bags[t]))
        tops = [morph(build(s, t), td.bags[s], td.bags[t]) for s in kids]
        node = tops[0]
        for other in tops[1:]:
            node = nice.add(("join",), tuple(td.bags[t]), [node, other])
        return node

    top = build(td.root, -1)
    root = morph(top, td.bags[td.root], frozenset())
    nice.root = root
    return nice


# ---------------------------------------------------------------------------
# the enumeration DP

Table = dict[tuple[int, ...], set[int]]  # mask -> packed count vectors


def enum_star_vectors_dp(
    g: Graph,
    delta: int,
    decomposition: TreeDecomposition | None = None,
) -> VectorFamily:
    """All star-count vectors of star forests in g with sizes <= delta+1."""
    if delta < 1:
        raise PreconditionError("delta must be >= 1")
    td = decomposition if decomposition is not None else heuristic_decomposition(g)
    if decomposition is not None and not verify_decomposition(g, td):
        raise PreconditionError("supplied decomposition is invalid for this graph")
    nice = to_nice(td)
    base = g.n + 1
    powers = [base**j for j in range(delta)]  # powers[j] packs one star of size j+2
    tables: dict[int, Table] = {}

    for node in nice.topological_order():
        kind = nice.kinds[node]
        bag = nice.bags[node]
        if kind[0] == "leaf":
            tables[node] = {(): {0}}
        elif kind[0] == "introduce":
            child = nice.children[node][0]
            tables[node] = _introduce(
                g, powers, bag, nice.bags[child], kind[1], tables.pop(child)
            )
        elif kind[0] == "forget":
            child = nice.children[node][0]
            tables[node] = _forget(bag, nice.bags[child], kind[1], tables.pop(child))
        else:
            c1, c2 = nice.children[node]
            tables[node] = _join(base, powers, bag, tables.pop(c1), tables.pop(c2))

    codes = tables[nice.root].get((), set())
    return VectorFamily(delta, frozenset(unpack(c, delta, base) for c in codes))


def _introduce(
    g: Graph,
    powers: list[int],
    bag: tuple[int, ...],
    child_bag: tuple[int, ...],
    v: int,
    child: Table,
) -> Table:
    delta = len(powers)
    pos_v = bag.index(v)
    nbr = set(g.adjacency[v])
    out: Table = {}

    def put(mask: tuple[int, ...], vecs):
        if mask in out:
            out[mask].update(vecs)
        else:
            out[mask] = set(vecs)

    for mask, vecs in child.items():
        as_list = list(mask)
        # uncovered
        put(_insert(as_list, pos_v, UNCOVERED), vecs)
        # v joins an existing bag vertex's star, or starts one as its leaf
        for i, u in enumerate(child_bag):
            if u not in nbr:
                continue
            code = mask[i]
            if code == UNCOVERED:
                new = list(mask)
                new[i] = 2  # u becomes centre of a fresh 2-star
                put(_insert(new, pos_v, _leaf_of(u)), {vec + powers[0] for vec in vecs})
            elif 2 <= code <= delta:  # centre of size code, room to grow
                new = list(mask)
                new[i] = code + 1
                # move one count from size code to size code+1
                step = powers[code - 1] - powers[code - 2]
                put(_insert(new, pos_v, _leaf_of(u)), {vec + step for vec in vecs})
        # v becomes a centre over uncovered bag neighbours
        spots = [i for i, u in enumerate(child_bag) if u in nbr and mask[i] == UNCOVERED]
        for take in range(1, min(delta, len(spots)) + 1):
            step = powers[take - 1]
            for chosen in combinations(spots, take):
                new = list(mask)
                for i in chosen:
                    new[i] = _leaf_of(v)
                put(_insert(new, pos_v, take + 1), {vec + step for vec in vecs})
    return out


def _insert(codes: list[int], pos: int, code: int) -> tuple[int, ...]:
    return tuple(codes[:pos]) + (code,) + tuple(codes[pos:])


def _forget(
    bag: tuple[int, ...], child_bag: tuple[int, ...], v: int, child: Table
) -> Table:
    pos_v = child_bag.index(v)
    leaf_code = _leaf_of(v)
    out: Table = {}
    for mask, vecs in child.items():
        code_v = mask[pos_v]
        rest = list(mask[:pos_v] + mask[pos_v + 1 :])
        if code_v >= 2:
            # forgetting a centre: its surviving bag leaves point outside now
            rest = [LEAF_OUTSIDE if c == leaf_code else c for c in rest]
        mask_out = tuple(rest)
        if mask_out in out:
            out[mask_out].update(vecs)
        else:
            out[mask_out] = set(vecs)
    return out


def _centre_leaves(bag: tuple[int, ...], mask: tuple[int, ...]) -> dict[int, frozenset[int]]:
    """centre vertex -> set of its in-bag leaf vertices, per the mask."""
    pointed: dict[int, set[int]] = {}
    for u, code in zip(bag, mask):
        if code <= -2:
            pointed.setdefault(_leaf_centre(code), set()).add(u)
    return {
        u: frozenset(pointed.get(u, set()))
        for u, code in zip(bag, mask)
        if code >= 2
    }


def _join(
    base: int, powers: list[int], bag: tuple[int, ...], t1: Table, t2: Table
) -> Table:
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    out: Table = {}
    delta = len(powers)
    leaves1 = {mask: _centre_leaves(bag, mask) for mask in t1}
    leaves2 = {mask: _centre_leaves(bag, mask) for mask in t2}
    frozen1 = {mask: frozenset(v) for mask, v in t1.items()}
    frozen2 = {mask: frozenset(v) for mask, v in t2.items()}
    centre_codes = tuple(range(2, delta + 2))
    # lazily built, per support pattern of a left mask: projection of the
    # right table onto those positions -> right masks sharing it
    proj_indexes: dict[tuple[int, ...], dict[tuple[int, ...], list]] = {}
    sum_cache: dict[tuple[frozenset, frozenset], frozenset] = {}

    for mask1, vecs1 in t1.items():
        support = tuple(i for i, c in enumerate(mask1) if c != UNCOVERED)
        options: list[tuple[int, ...]] = []
        count = 1
        for i in support:
            code = mask1[i]
            if code == LEAF_OUTSIDE:
                # the forgotten centre lives in exactly one child's subtree
                opts = (UNCOVERED,)
            elif code <= -2:
                opts = (UNCOVERED, code)
            else:
                opts = (UNCOVERED,) + centre_codes
            options.append(opts)
            count *= len(opts)
        if count <= len(t2):
            index = proj_indexes.get(support)
            if index is None:
                index = {}
                for m2 in t2:
                    index.setdefault(tuple(m2[i] for i in support), []).append(m2)
                proj_indexes[support] = index
            candidates = [
                m2
                for proj in _cartesian(options)
                for m2 in index.get(proj, ())
            ]
        else:
            candidates = [m2 for m2 in t2 if _quick_compatible(mask1, m2)]
        for mask2 in candidates:
            merged = _merge_masks(
                bag, mask1, mask2, leaves1[mask1], leaves2[mask2], powers
            )
            if merged is None:
                continue
            mask_out, shift = merged
            key = (frozen1[mask1], frozen2[mask2])
            summed = sum_cache.get(key)
            if summed is None:
                summed = sumset(
                    IntVectorSet(delta, base, key[0]),
                    IntVectorSet(delta, base, key[1]),
                ).members
                sum_cache[key] = summed
            shifted = {v + shift for v in summed}
            if mask_out in out:
                out[mask_out].update(shifted)
            else:
                out[mask_out] = shifted
    return out


def _cartesian(options: list[tuple[int, ...]]):
    stack: list[tuple[int, ...]] = [()]
    for opts in options:
        stack = [pre + (o,) for pre in stack for o in opts]
    return stack


def _quick_compatible(mask1: tuple[int, ...], mask2: tuple[int, ...]) -> bool:
    for c1, c2 in zip(mask1, mask2):
        if c1 == UNCOVERED or c2 == UNCOVERED:
            continue
        if c1 == LEAF_OUTSIDE or c2 == LEAF_OUTSIDE:
            return False
        if (c1 <= -2 or c2 <= -2) and c1 != c2:
            return False
        # both centres: fine at this level
    return True


def _merge_masks(
    bag: tuple[int, ...],
    mask1: tuple[int, ...],
    mask2: tuple[int, ...],
    lv1: dict[int, frozenset[int]],
    lv2: dict[int, frozenset[int]],
    powers: list[int],
) -> tuple[tuple[int, ...], int] | None:
    """Merged mask and the packed additive correction m - a - b, or None if incompatible."""
    delta = len(powers)
    merged: list[int] = []
    shift = 0
    for u, c1, c2 in zip(bag, mask1, mask2):
        if c1 == UNCOVERED and c2 == UNCOVERED:
            merged.append(UNCOVERED)
        elif c1 == UNCOVERED or c2 == UNCOVERED:
            # the covered side wins; a one-sided centre merges with a trivial
            # star of size 1 (q = 0), so the count correction -1 + 1 cancels
            merged.append(c2 if c1 == UNCOVERED else c1)
        elif c1 == LEAF_OUTSIDE or c2 == LEAF_OUTSIDE:
            return None
        elif c1 <= -2 or c2 <= -2:
            if c1 != c2:
                return None
            merged.append(c1)
        else:
            # centres on both sides: leaves in the bag must agree
            s1, s2 = lv1[u], lv2[u]
            if s1 != s2:
                return None
            d = c1 + c2 - len(s1) - 1
            if d > delta + 1:
                return None
            shift += powers[d - 2] - powers[c1 - 2] - powers[c2 - 2]
            merged.append(d)
    return tuple(merged), shift


def solve_tw(
    g1: Graph, g2: Graph, strategy: str = "min_fill"
) -> tuple[int, StarForest]:
    """Exact optimum via star-forest family intersection."""
    if g1.edge_count == 0 or g2.edge_count == 0:
        return 0, StarForest(())
    delta = min(g1.max_degree(), g2.max_degree())
    fam1 = enum_star_vectors_dp(g1, delta, heuristic_decomposition(g1, strategy))
    fam2 = enum_star_vectors_dp(g2, delta, heuristic_decomposition(g2, strategy))
    return common_forest(fam1, fam2)


def dump_decomposition(td: TreeDecomposition) -> str:
    lines = [f"{len(td.bags)} {td.width}"]
    for i, bag in enumerate(td.bags):
        lines.append(f"bag {i}: " + " ".join(str(v) for v in sorted(bag)))
    for a, b in td.tree_edges:
        lines.append(f"edge {a} {b}")
    return "\n".join(lines) + "\n"
