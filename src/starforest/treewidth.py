"""Tree-decomposition toolkit and the star-forest enumeration DP.

The DP walks a tree decomposition bottom-up.  A state is (bag, mask,
star-count vector): the mask gives each bag vertex one of three roles
(uncovered, leaf of an already-forgotten centre, or centre of a partial star
of known size whose leaves are all forgotten), and the vector counts stars of
each size formed so far (bag-resident partial stars included).  A child's
table reaches its parent's bag by forgetting one vertex at a time in sorted
order, and the children's tables are then joined.  Leaves start at the empty
bag and the root ends at it, where the surviving vectors are exactly the star
forests of the graph, up to isomorphism.

A mask is one int with a field of w = bit_length(delta + 1) bits per slot.
Each vertex holds one slot for its whole life in the bags: no two vertices of
a bag share one and at most width + 1 are used.  Forgetting a vertex reads
and clears its field.  Introducing one costs nothing: its field is already
clear, which reads uncovered.

Each edge is decided once, when its first endpoint is forgotten: the other
endpoint is still in the bag then, and no vertex is forgotten twice.  A
forgotten vertex v stays as it is, or, unless it is a leaf, becomes the leaf
of one bag neighbour (only when uncovered) or takes uncovered bag neighbours
and pendants (below) as its own leaves, within delta+1.  An uncovered v
never centres a star whose one leaf is an uncovered bag neighbour u (the
lone-leaf rule): v as u's leaf adds the same 2-star and leaves u a centre
of 2, which can still stay one, so every completion of u as a leaf is also
one of u as that centre.  At a join a leaf or a centre facing an uncovered
vertex stays what it is, a leaf facing a covered vertex is refused and a
centre may merge, so the rule holds there too.  A join never sees an edge
on both sides; it merges a centre held on both sides into one star whose
two leaf sets are disjoint, and `_merge_masks` refuses one past delta+1.

Without a supplied decomposition the DP first sets g's pendants aside
(`pendant_kernel`): a vertex of degree 1 whose neighbour has degree >= 2,
and the higher end of a lone edge.  A pendant can only be a leaf of its
neighbour's star (the lone edge's other orientation gives the same vector),
so the DP walks the induced kernel.  It walks `dp_pick`'s choice for the
kernel: the greedy path whenever it is at most one vertex wider than
min-fill's decomposition, and min-fill's otherwise.  The family depends
neither on the decomposition nor on the kernel.  One driver, `_walk`, runs
every walk.  A vertex is held from when the walk first meets it until it is
forgotten, and `shift[v]` is w times its slot while held, -1 before and
after, so a forgotten vertex's held neighbours are its bag neighbours.  A
path is one node with no join, walked from `path_order`'s steps with no bag
built: a vertex takes the lowest free slot when it is placed, and those it
closes are forgotten and free theirs.  A tree (min-fill's, or a supplied
one of g itself) is walked bottom-up with slots given from the root down
(`_top_down`): a vertex takes its slot at its topmost bag, and both
children of a join use their parent's slots.

Each table maps a mask to a set of vectors packed into ints base n+1, n the
input graph's vertex count even when the DP walks its kernel (see
`vectors.pack`).  No count exceeds n, not even the sum of two children's
counts at a join before its correction, so packing is injective on every
intermediate set.  Adding a star, growing one and the join's correction are
int additions of powers of the base, and the root's set is the family.  One
`_forget` builds every move, grouped by what it adds: one int step when the
move reaches one size of v's star, a tuple of steps when pendants let it
reach several.  The walk owns its tables' sets, and no two moves of one
child mask reach one output mask, so a forget hands a freshly shifted set,
and last the child's own set, on uncopied; a join wraps its children's sets
in read-only `VectorFamily`s that live only during the join.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, count

from .errors import PreconditionError
from .graph import Graph, StarForest
from .vectors import VectorFamily, common_forest, sumset

# mask role codes: 0 = uncovered, 1 = leaf of a forgotten centre,
# d >= 2 = centre of a size-d partial star whose leaves are all forgotten
UNCOVERED = 0
LEAF_OUTSIDE = 1


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


def heuristic_decomposition(g: Graph) -> TreeDecomposition:
    """Min-fill elimination-ordering decomposition; width is an upper bound only."""
    if g.n == 0:
        return TreeDecomposition((frozenset(),), ())
    adj: list[set[int]] = [set(a) for a in g.adjacency]
    order: list[int] = []
    elim_bags: list[frozenset[int]] = []

    def fill(x: int) -> int:
        return sum(1 for a, b in combinations(adj[x], 2) if b not in adj[a])

    # fill-in counts of the alive vertices; eliminating v changes only the
    # neighbourhoods of its neighbours and the edges among them, so only
    # vertices within distance 2 of v need a new count.  The heap holds a
    # (fill, x) entry for each count, stale once `fills` no longer has it
    fills = {x: fill(x) for x in range(g.n)}
    heap = sorted((f, x) for x, f in fills.items())
    while fills:
        f, v = heappop(heap)
        if fills.get(v) != f:
            continue
        nbrs = adj[v]
        order.append(v)
        elim_bags.append(frozenset(nbrs | {v}))
        for a in nbrs:
            for b in nbrs:
                if a != b and b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
        for a in nbrs:
            adj[a].discard(v)
        del fills[v]
        touched = set(nbrs)
        for a in nbrs:
            touched |= adj[a]
        for x in touched:
            f = fill(x)
            if f != fills[x]:
                fills[x] = f
                heappush(heap, (f, x))
        adj[v].clear()

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


def path_order(g: Graph) -> tuple[list[tuple[int, list[int]]], int]:
    """The greedy frontier-growing placement steps, and the width of their path decomposition.

    Vertices are placed one at a time.  The frontier is the placed vertices
    that still have an unplaced neighbour; each step places the frontier
    neighbour that leaves the smallest frontier, ties to the most placed
    neighbours, then to the lowest index.  A new component starts at its
    minimum-degree vertex.  Step i is the i-th vertex and the vertices it
    closes, sorted: those it leaves placed with no unplaced neighbour.  Bag
    i of the path is the frontier plus the i-th vertex, so the width is the
    largest frontier met by a placement; the empty graph's is -1.
    """
    adj = g.adjacency
    unplaced_nbrs = [len(a) for a in adj]
    closing = [0] * g.n  # placed neighbours of x with no other unplaced neighbour
    unplaced = set(range(g.n))
    reachable: set[int] = set()  # unplaced vertices with a placed neighbour
    steps: list[tuple[int, list[int]]] = []
    frontier = 0  # how many placed vertices have an unplaced neighbour
    width = -1

    def grown(v: int) -> tuple[int, int, int]:
        """Sort key of placing v: the frontier it grows by, then most placed neighbours, then v."""
        return (unplaced_nbrs[v] > 0) - closing[v], unplaced_nbrs[v] - len(adj[v]), v

    while unplaced:
        if reachable:
            v = min(reachable, key=grown)
            reachable.discard(v)
        else:
            v = min(unplaced, key=lambda x: (len(adj[x]), x))
        width = max(width, frontier)
        unplaced.discard(v)
        closes = [] if unplaced_nbrs[v] else [v]
        for u in adj[v]:
            unplaced_nbrs[u] -= 1
            if u in unplaced:
                reachable.add(u)
            elif unplaced_nbrs[u] == 0:
                frontier -= 1
                closes.append(u)
        for u in (v, *adj[v]):
            if unplaced_nbrs[u] == 1 and u not in unplaced:  # it has just come down to 1
                closing[next(x for x in adj[u] if x in unplaced)] += 1
        if unplaced_nbrs[v]:
            frontier += 1
        steps.append((v, sorted(closes)))
    return steps, width


def degeneracy(g: Graph) -> int:
    """Largest minimum degree over g's subgraphs, a lower bound on its treewidth."""
    deg = [len(a) for a in g.adjacency]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapify(heap)
    gone = [False] * g.n
    best = 0
    while heap:
        d, v = heappop(heap)
        if gone[v] or d != deg[v]:
            continue  # a stale entry: v was removed or lost a neighbour since
        gone[v] = True
        best = max(best, d)
        for u in g.adjacency[v]:
            if not gone[u]:
                deg[u] -= 1
                heappush(heap, (deg[u], u))
    return best


def dp_pick(g: Graph) -> list[tuple[int, list[int]]] | TreeDecomposition:
    """What the DP walks when no decomposition is supplied: `path_order`'s steps, or min-fill's.

    g is the pendant kernel there.  The path wins whenever it is at most one
    vertex wider than min-fill's decomposition, since it has no join.  Two
    wider it can lose: on the kernels of the trees of
    `scripts/dp_decompositions.py` (min-fill width 1), a path 3 wide walks
    1.3 times slower and the binary tree's, 4 wide, 1.5 times slower than
    min-fill's DP; 2 wide, about as fast, or 1.25 times slower on the hub
    tree (best of 5, in-process).  At most the degeneracy + 1 wide, it
    wins without running min-fill: min-fill is never narrower than the
    treewidth, which the degeneracy bounds from below.  At most 2 wide, it
    wins without the degeneracy too: a graph with an edge has treewidth >= 1.
    """
    steps, width = path_order(g)
    if width <= 2 or width <= degeneracy(g) + 1:
        return steps
    tree = heuristic_decomposition(g)
    return steps if width <= tree.width + 1 else tree


def verify_decomposition(g: Graph, td: TreeDecomposition) -> bool:
    """The three decomposition properties, plus tree-ness of the node graph and a root in it."""
    nodes = len(td.bags)
    if not 0 <= td.root < nodes or len(td.tree_edges) != nodes - 1:
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
    holding: list[set[int]] = [set() for _ in range(g.n)]
    for t, bag in enumerate(td.bags):
        for v in bag:
            holding[v].add(t)
    for u, v in g.edges():
        if holding[u].isdisjoint(holding[v]):
            return False
    # the nodes holding v induce a forest in the tree, which is connected
    # exactly when it has one edge fewer than nodes
    inner = [0] * g.n
    for a, b in td.tree_edges:
        for v in td.bags[a] & td.bags[b]:
            inner[v] += 1
    return all(inner[v] == len(holding[v]) - 1 for v in range(g.n))


# ---------------------------------------------------------------------------
# the enumeration DP

Table = dict[int, set[int]]  # mask (a role field per slot) -> packed count vectors


def enum_star_vectors_dp(
    g: Graph,
    delta: int,
    decomposition: TreeDecomposition | None = None,
    *,
    remember: bool = True,
) -> VectorFamily:
    """All star-count vectors of star forests in g with sizes <= delta+1.

    Without a decomposition the DP runs on g's pendant kernel, along
    `dp_pick`'s choice for it, and the families of the two most recent
    (g, delta) keys are remembered, so at most two families stay held after
    a call returns (`_remembered_family.cache_clear()` drops them).  `Graph`
    is frozen and compared by value, so an equal graph gets the remembered
    family without a decomposition or the DP.  Two is one instance's pair:
    the EPTAS run right after `solve_tw` on the same pair reuses both
    whole-graph families, since it solves each pruned graph with
    `remember=False`, which runs the same route without touching the memo.
    A supplied decomposition is always validated, and the DP then runs on
    it, with no kernel and without touching the memo.  The family's
    members are a frozenset, so no caller can change a remembered one.
    """
    if delta < 1:
        raise PreconditionError("delta must be >= 1")
    if decomposition is None:
        return _remembered_family(g, delta) if remember else _picked_family(g, delta)
    if not verify_decomposition(g, decomposition):
        raise PreconditionError("supplied decomposition is invalid for this graph")
    return _walk(g, delta, decomposition)


def _picked_family(g: Graph, delta: int) -> VectorFamily:
    """The DP on g's pendant kernel, along `dp_pick`'s path steps or tree."""
    kernel, pendants = pendant_kernel(g)
    return _walk(g, delta, dp_pick(kernel), kernel, pendants)


@lru_cache(maxsize=2)
def _remembered_family(g: Graph, delta: int) -> VectorFamily:
    """`_picked_family`, looked up at each miss, with its last two keys remembered."""
    return _picked_family(g, delta)


def pendant_kernel(g: Graph) -> tuple[Graph, list[int]]:
    """g without its pendants, and how many pendants each kept vertex has.

    A vertex of degree 1 is a pendant of its neighbour when that neighbour
    has degree >= 2; of a lone edge, the higher end is the lower end's
    pendant.  A pendant can only be a leaf of its neighbour's star (a lone
    edge's other orientation gives the same vector), so the DP lets each
    kept vertex take its pendants when it is forgotten.  The kernel is the
    induced subgraph on the kept vertices, renumbered in order; g itself
    when nothing is a pendant.
    """
    adj = g.adjacency
    pendants = [0] * g.n
    kept = []
    for v, a in enumerate(adj):
        if len(a) == 1 and (len(adj[a[0]]) > 1 or a[0] < v):
            pendants[a[0]] += 1
        else:
            kept.append(v)
    if len(kept) == g.n:
        return g, pendants
    return g.induced(kept)[0], [pendants[v] for v in kept]


def _layout(n: int, delta: int) -> tuple[int, list[int], int, int]:
    """The packing base, star[d] (one packed star of size d, none below 2), field width and field."""
    base = n + 1
    w = (delta + 1).bit_length()
    return base, [0, 0] + [base**j for j in range(delta)], w, (1 << w) - 1


def _walk(
    g: Graph,
    delta: int,
    walk: list[tuple[int, list[int]]] | TreeDecomposition,
    kernel: Graph | None = None,
    pendants: list[int] | None = None,
) -> VectorFamily:
    """The DP itself, along `path_order`'s steps or bottom-up over a valid tree decomposition.

    The walk is of `kernel`, whose vertex v takes up to pendants[v] pendants
    when it is forgotten (`pendant_kernel(g)`); without a kernel it is of g
    itself, with no pendants.  Vectors are packed at g's base either way.
    """
    base, star, w, field = _layout(g.n, delta)
    if kernel is None:
        kernel, pendants = g, [0] * g.n
    adj = kernel.adjacency
    shift = [-1] * kernel.n  # w times the slot of a held vertex, -1 before and after
    tree = isinstance(walk, TreeDecomposition)
    nodes = _tree_nodes(walk, shift, w) if tree else [(0, -1, _placed(walk, shift, w), frozenset())]
    tables: dict[int, Table] = {}  # node -> its finished children's tables, joined
    forgotten = decided = 0  # of g's vertices and edges, pendants and their edges included
    for t, p, forgets, bag in nodes:
        table = tables.pop(t) if t in tables else {0: {0}}
        for x in forgets:
            s, shift[x] = shift[x], -1
            nbrs = [shift[u] for u in adj[x] if shift[u] >= 0]
            table = _forget(star, field, s, nbrs, table, pendants[x])
            forgotten += 1 + pendants[x]
            decided += len(nbrs) + pendants[x]
        if p in tables:
            # a vertex of p's bag that neither side has met is uncovered on both
            shifts = [shift[u] for u in bag if shift[u] >= 0]
            table = _join(base, star, field, shifts, tables[p], table)
        tables[p] = table
    # a vertex forgotten before a neighbour is held leaves that edge undecided
    assert forgotten == g.n and decided == g.edge_count and max(shift, default=-1) < 0, (
        "the walk left a vertex or an edge behind"
    )
    return VectorFamily(delta, base, frozenset(tables[-1][0]))


def _placed(steps: list[tuple[int, list[int]]], shift: list[int], w: int) -> Iterator[int]:
    """Forgets along the path: a vertex takes the lowest free slot, those it closes free theirs."""
    free = [w * i for i in range(len(steps))]  # the shifts of free slots, a heap
    for v, closes in steps:
        shift[v] = heappop(free)
        for x in closes:
            heappush(free, shift[x])
            yield x


def _tree_nodes(td: TreeDecomposition, shift: list[int], w: int) -> Iterator[tuple]:
    """td's nodes from the leaves up, with their parents, sorted forgets and parents' bags."""
    order, parent, slot = _top_down(td)
    for t in reversed(order):
        for v in slot.keys() & td.bags[t]:  # v is held from its lowest bag on
            shift[v] = w * slot.pop(v)
        p = parent[t]
        bag = td.bags[p] if p >= 0 else frozenset()  # the root is carried to an empty bag
        yield t, p, sorted(td.bags[t] - bag), bag


def _top_down(td: TreeDecomposition) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """The nodes from the root down, their parents (-1 at the root), and each vertex's slot.

    A vertex is first met at its topmost bag and takes the lowest slot no
    other vertex there holds.  Of two vertices sharing a bag, the one met
    lower meets the other there, already slotted, so they never share a slot.
    """
    parent = {td.root: -1}
    order: list[int] = []
    slot: dict[int, int] = {}
    stack = [td.root]
    adj = td.neighbours()
    while stack:
        t = stack.pop()
        order.append(t)
        taken = {slot[v] for v in td.bags[t] if v in slot}
        free = (s for s in count() if s not in taken)
        for v in td.bags[t]:
            if v not in slot:
                slot[v] = next(free)
        for s in adj[t]:
            if s not in parent:
                parent[s] = t
                stack.append(s)
    return order, parent, slot


def _forget(
    star: list[int], field: int, s: int, nbrs: list[int], child: Table, pendants: int = 0
) -> Table:
    """Clear the field at shift s, deciding every edge from its vertex v to the fields at nbrs.

    v also decides the edges to its `pendants` pendants, which lie in no
    bag: unless it is a leaf, it may take any number of them as leaves.
    Each move is an output mask and what it adds to every vector: one int
    step when it reaches one size of v's star (a leaf move, or a centre
    move with no pendant to take), a tuple of steps when pendants let it
    reach sizes low..high.  Moves of one step or tuple share one shifted
    set.  No two moves of one child mask reach one output mask, so a set
    shifted afresh is handed on uncopied to its first move's mask when that
    mask is new, later moves of its step copy it, and the child's own set
    goes to v's "stay" mask last, once every move has read it.
    """
    top = len(star) - 1  # largest star size
    out: Table = {}
    get = out.get
    for mask, vecs in child.items():
        code = (mask >> s) & field
        rest = mask - (code << s)
        if code != LEAF_OUTSIDE and (nbrs or pendants):
            moves = []  # (output mask, one step or a tuple of steps)
            if code == UNCOVERED:
                # v becomes a leaf of a neighbour, which starts or grows a star,
                # or a centre of size 1 + leaves.  A centre whose one leaf is an
                # uncovered neighbour u is left out: v as u's leaf adds the same
                # star[2], and u, a centre of 2, can still stay one or grow
                spots = []  # the uncovered neighbours' lowest field bits
                for sh in nbrs:
                    c = (rest >> sh) & field
                    if c == UNCOVERED:
                        spots.append(1 << sh)
                        moves.append((rest + (2 << sh), star[2]))
                    elif c != LEAF_OUTSIDE and c != top:
                        moves.append((rest + (1 << sh), star[c + 1] - star[c]))
                size, least = 1, 2
            else:
                # v stays a centre and takes more leaves
                spots = [1 << sh for sh in nbrs if not (rest >> sh) & field]
                size, least = code, 1
            # taking `take` spots and up to `pendants` pendants; below `least`
            # spots, at least one pendant
            for take in range(0 if pendants else least, min(top - size, len(spots)) + 1):
                low = size + take + (take < least)
                high = size + take + pendants
                if high > top:
                    high = top
                if low == high:
                    step = star[low] - star[code]
                elif low < high:
                    step = tuple(star[d] - star[code] for d in range(low, high + 1))
                else:
                    continue
                for chosen in (spots if take == 1 else map(sum, combinations(spots, take))):
                    moves.append((rest + chosen, step))
            stepped: dict[int | tuple[int, ...], set[int]] = {}
            for key, step in moves:
                fresh = step not in stepped
                if not fresh:
                    new = stepped[step]
                elif step.__class__ is int:
                    new = stepped[step] = {vec + step for vec in vecs}
                else:
                    new = stepped[step] = {vec + st for st in step for vec in vecs}
                got = get(key)
                if got is None:
                    out[key] = new if fresh else set(new)
                else:
                    got |= new
        got = get(rest)
        if got is None:
            out[rest] = vecs
        else:
            got |= vecs
    return out


def _join(base: int, star: list[int], field: int, shifts: list[int], t1: Table, t2: Table) -> Table:
    delta = len(star) - 2
    # the tables' own sets serve as family members: nothing mutates them here
    right = [
        (mask, *_cover_bits(field, shifts, mask), VectorFamily(delta, base, vecs))
        for mask, vecs in t2.items()
    ]
    out: Table = {}
    for mask1, vecs1 in t1.items():
        covered1, leaves1 = _cover_bits(field, shifts, mask1)
        fam1 = VectorFamily(delta, base, vecs1)
        for mask2, covered2, leaves2, fam2 in right:
            # the forgotten centre of a leaf lives in exactly one child's subtree
            if leaves1 & covered2 or leaves2 & covered1:
                continue
            both = covered1 & covered2
            merged = _merge_masks(star, field, mask1, mask2, both) if both else (mask1 + mask2, 0)
            if merged is None:
                continue
            mask_out, shift = merged
            summed = sumset(fam1, fam2).members
            if shift:
                summed = {v + shift for v in summed}
            out.setdefault(mask_out, set()).update(summed)
    return out


def _cover_bits(field: int, shifts: list[int], mask: int) -> tuple[int, int]:
    """The lowest bit of each field at shifts that is covered, and of each that is LEAF_OUTSIDE."""
    covered = leaves = 0
    for sh in shifts:
        c = (mask >> sh) & field
        if c != UNCOVERED:
            covered |= 1 << sh
            if c == LEAF_OUTSIDE:
                leaves |= 1 << sh
    return covered, leaves


def _merge_masks(
    star: list[int], field: int, mask1: int, mask2: int, both: int
) -> tuple[int, int] | None:
    """Merged mask and the packed additive correction m - a - b, or None past delta+1.

    `both` holds the lowest bit of each field covered on both sides.  The
    join has refused a leaf facing a covered vertex, so each is a centre on
    both sides, and its two sets of forgotten leaves are disjoint.
    """
    merged, shift = mask1 + mask2, 0
    while both:
        low = both & -both
        both -= low
        sh = low.bit_length() - 1
        c1, c2 = (mask1 >> sh) & field, (mask2 >> sh) & field
        d = c1 + c2 - 1
        if d >= len(star):
            return None
        shift += star[d] - star[c1] - star[c2]
        merged -= low
    return merged, shift


def solve_tw(g1: Graph, g2: Graph) -> tuple[int, StarForest]:
    """Exact optimum via star-forest family intersection."""
    if g1.edge_count == 0 or g2.edge_count == 0:
        return 0, StarForest(())
    delta = min(g1.max_degree(), g2.max_degree())
    return common_forest(enum_star_vectors_dp(g1, delta), enum_star_vectors_dp(g2, delta))

