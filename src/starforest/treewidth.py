"""Tree-decomposition toolkit and the star-forest enumeration DP.

The DP walks a tree decomposition bottom-up.  A state is (bag, mask,
star-count vector): the mask gives each bag vertex one of three roles
(uncovered, leaf of an already-forgotten centre, or centre of a partial star
of known size whose leaves are all forgotten), and the vector counts stars of
each size formed so far (bag-resident partial stars included).  A child's
table reaches its parent's bag by forgetting vertices one at a time, and the
children's tables are then joined.  Leaves start at the empty bag and the
root ends at it, where the surviving vectors are exactly the star forests of
the graph, up to isomorphism.

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

The DP first sets g's pendants aside (`pendant_kernel`): a vertex of
degree 1 whose neighbour has degree >= 2, and the higher end of a lone
edge.  A pendant can only be a leaf of its neighbour's star (the lone
edge's other orientation gives the same vector), so the DP walks the
induced kernel.  It walks `dp_pick`'s choice for the kernel: the greedy
path whenever it is at most one vertex wider than min-fill's elimination
tree, and that tree otherwise.  The family depends neither on the walk nor
on the kernel.  One driver, `_walk`, runs both walks.  A vertex is held
from when the walk first meets it until it is forgotten, and `shift[v]` is
w times its slot while held, -1 before and after, so a forgotten vertex's
held neighbours are its bag neighbours.  A path is one node with no join,
walked from `path_order`'s steps with no bag built: a vertex takes the
lowest free slot when it is placed, and those it closes are forgotten and
free theirs.  Min-fill's tree is walked as elimination gives it
(`heuristic_decomposition`), with no rooting pass: node i forgets the i-th
eliminated vertex alone, whose later neighbours, a clique by then, all lie
in its parent's bag, and a parent comes after its children, so index order
walks the tree bottom-up.  A vertex's slot is the lowest one its later
neighbours do not hold (`_tree_nodes`), and a parent joins its children's
tables in its bag.  A component's last node joins at -1, over the empty
bag, where the path ends too.

Each table maps a mask to one int, a bitset of count vectors: bit c is set
when the vector whose mixed-radix code is c is reachable.  Digit d, the
count of stars of size d = 2..delta+1, has the bound b_d = min(n // d,
vertices of degree >= d-1) + 1, with n and the degrees g's own even when
the DP walks its kernel.  No partial forest has more stars of size d: each
star, partial ones included, has its own centre, of degree at least its
size - 1.  So every vector a table holds lies in the box of prod(b_d)
codes, and `star[d]`, the place value of digit d, is b_2 * ... * b_(d-1).
Adding a star, growing one and the join's correction add
`star[new] - star[old]` to every code of an entry, so a move shifts the
entry's int left by that much, and moves into one mask are ORed.  A join
adds two entries as a sumset of codes, ORing one side shifted by each set
bit of the other, then shifts the result by its correction: a centre held
on both sides counts on both, so a digit of the sum can pass its bound, but
codes add as plain ints and the corrected code is the merged vector's.  The
root's int is read once, with `bin()` and `str.find`, and its codes are
packed base n+1 (see `vectors.pack`) by a sum linear in code // star[d]
(`vectors._digit_sums`), without decoding each digit.

The box grows as a product, so a few high-degree vertices make it far wider
than the family: a star of 40 leaves gives about 2^43 codes for a family of
41, and an int needs one bit per code below its highest set one.  When the
box is wider than WIDEST_INT_BOX bits, each table entry is a `SparseBits`
instead, the set of its set bits' positions, with the same shifts and OR.
Its codes are the family's members themselves, packed base n+1 (each
digit's bound is n + 1, which no sum at a join reaches), so the root needs
no decoding.  On the hub trees, random trees and caterpillars timed, the
int was faster below 2^20 codes, where families fill more of their box,
and the set above it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations

from .errors import PreconditionError
from .graph import Graph, StarForest
from .vectors import VectorFamily, _digit_sums, common_forest
from .vectors import sumset  # unused; only perfbench/tracing.py looks it up

# mask role codes: 0 = uncovered, 1 = leaf of a forgotten centre,
# d >= 2 = centre of a size-d partial star whose leaves are all forgotten
UNCOVERED = 0
LEAF_OUTSIDE = 1


@dataclass(frozen=True)
class TreeDecomposition:
    """Min-fill's elimination tree: bags[i] is the i-th eliminated vertex, then its later
    neighbours, and parents[i] the bag of the earliest eliminated of those, or -1."""

    bags: tuple[tuple[int, ...], ...]
    parents: tuple[int, ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def heuristic_decomposition(g: Graph) -> TreeDecomposition:
    """Min-fill's elimination tree of g; its width is an upper bound on the treewidth only.

    Each step eliminates the vertex of least fill-in, ties to the lowest
    index, and makes its neighbours a clique.  Bag i is the i-th eliminated
    vertex, then those neighbours, sorted: its later neighbours.  Its parent
    is the bag of the earliest eliminated of them, which holds the rest
    too, since they are that vertex's later neighbours as well; a bag with
    none has parent -1.  The empty graph's tree has no node.
    """
    adj: list[set[int]] = [set(a) for a in g.adjacency]
    bags: list[tuple[int, ...]] = []

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
        bags.append((v, *sorted(nbrs)))
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

    pos = [0] * g.n
    for i, bag in enumerate(bags):
        pos[bag[0]] = i
    parents = tuple(min((pos[u] for u in bag[1:]), default=-1) for bag in bags)
    return TreeDecomposition(tuple(bags), parents)


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
    deg = [len(a) for a in adj]
    unplaced_nbrs = deg[:]
    closing = [0] * g.n  # placed neighbours of x with no other unplaced neighbour
    placed = [False] * g.n
    reachable: set[int] = set()  # unplaced vertices with a placed neighbour
    # new components' first vertices, by degree; sorting is stable, so ties keep index order
    starts = iter(sorted(range(g.n), key=deg.__getitem__))
    steps: list[tuple[int, list[int]]] = []
    frontier = 0  # how many placed vertices have an unplaced neighbour
    width = -1
    for _ in range(g.n):
        if reachable:
            # the frontier placing u grows by, then most placed neighbours, then u
            v = min([
                ((unplaced_nbrs[u] > 0) - closing[u], unplaced_nbrs[u] - deg[u], u)
                for u in reachable
            ])[2]
            reachable.discard(v)
        else:
            v = next(x for x in starts if not placed[x])
        width = max(width, frontier)
        placed[v] = True
        closes = [] if unplaced_nbrs[v] else [v]
        for u in adj[v]:
            unplaced_nbrs[u] -= 1
            if not placed[u]:
                reachable.add(u)
            elif unplaced_nbrs[u] == 0:
                frontier -= 1
                closes.append(u)
        for u in (v, *adj[v]):
            if unplaced_nbrs[u] == 1 and placed[u]:  # it has just come down to 1
                for x in adj[u]:
                    if not placed[x]:
                        closing[x] += 1
                        break
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
    """What the DP walks: `path_order`'s steps, or min-fill's elimination tree.

    g is the pendant kernel there.  The path wins whenever it is at most one
    vertex wider than min-fill's tree, since it has no join.  Wider, it can
    lose by far (`_walk` on the kernels of `scripts/dp_decompositions.py`'s
    graphs and others, best of 3, in-process): on trees whose path is 3-5
    wide (min-fill width 1) the path walk takes 0.6-1.7 times min-fill's
    time, on trees whose path is 8-12 wide 2.3-29 times, and on random
    2-trees of 31-68 vertices 4-185 times.  At most the degeneracy + 1 wide,
    it wins without running min-fill: min-fill is never narrower than the
    treewidth, which the degeneracy bounds from below.  At most 2 wide, it
    wins without the degeneracy too: a graph with an edge has treewidth >= 1.
    """
    steps, width = path_order(g)
    if width <= 2 or width <= degeneracy(g) + 1:
        return steps
    tree = heuristic_decomposition(g)
    return steps if width <= tree.width + 1 else tree


# ---------------------------------------------------------------------------
# the enumeration DP

# widest box, in bits, whose tables hold ints; a wider one's hold `SparseBits`
WIDEST_INT_BOX = 1 << 20


class SparseBits(set):
    """A bitset held as the set of its set bits' positions, for boxes too wide for one int.
    It has the shifts and the OR that the DP applies to an int bitset, each making a new one,
    and nothing mutates one once it is made."""

    __slots__ = ()

    def __lshift__(self, k: int) -> SparseBits:
        return SparseBits([c + k for c in self])

    def __or__(self, other: SparseBits | int) -> SparseBits:
        if not other:  # 0, the empty bitset that `get(key, 0)` starts from
            return self
        big, small = (self, other) if len(self) >= len(other) else (other, self)
        out = SparseBits(big)
        out |= small
        return out

    __ror__ = __or__


Bits = int | SparseBits
Table = dict[int, Bits]  # mask (a role field per slot) -> bitset of count-vector codes


def enum_star_vectors_dp(g: Graph, delta: int, *, remember: bool = True) -> VectorFamily:
    """All star-count vectors of star forests in g with sizes <= delta+1.

    The DP runs on g's pendant kernel, along `dp_pick`'s choice for it, and
    the families of the two most recent (g, delta) keys are remembered, so
    at most two families stay held after a call returns
    (`_remembered_family.cache_clear()` drops them).  `Graph` is frozen and
    compared by value, so an equal graph gets the remembered family without
    the DP.  Two is one instance's pair: the EPTAS run right after
    `solve_tw` on the same pair reuses both whole-graph families, since it
    solves each pruned graph with `remember=False`, which runs the same
    route without touching the memo.  The family's members are a
    frozenset, so no caller can change a remembered one.
    """
    if delta < 1:
        raise PreconditionError("delta must be >= 1")
    return _remembered_family(g, delta) if remember else _picked_family(g, delta)


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


def _layout(g: Graph, delta: int) -> tuple[list[int], list[int], int, int]:
    """The digit bounds b_2..b_(delta+1), star[d] (digit d's place value, 0 below 2), the field
    width and the field."""
    at_least = [0] * (delta + 1)  # at_least[k]: vertices of degree k, or of >= delta at delta
    for a in g.adjacency:
        at_least[min(len(a), delta)] += 1
    for k in range(delta - 1, -1, -1):
        at_least[k] += at_least[k + 1]  # now vertices of degree >= k
    bounds = [min(g.n // d, at_least[d - 1]) + 1 for d in range(2, delta + 2)]
    star = [0, 0, 1]
    for b in bounds[:-1]:
        star.append(star[-1] * b)
    w = (delta + 1).bit_length()
    return bounds, star, w, (1 << w) - 1


def _walk(
    g: Graph,
    delta: int,
    walk: list[tuple[int, list[int]]] | TreeDecomposition,
    kernel: Graph | None = None,
    pendants: list[int] | None = None,
) -> VectorFamily:
    """The DP itself, along `path_order`'s steps or up min-fill's elimination tree.

    The walk is of `kernel`, whose vertex v takes up to pendants[v] pendants
    when it is forgotten (`pendant_kernel(g)`); without a kernel it is of g
    itself, with no pendants.  Codes use g's digit bounds either way, and the
    family's members are packed at g's base.
    """
    bounds, star, w, field = _layout(g, delta)
    base = max(2, g.n + 1)  # VectorFamily's least base, the empty graph's too
    wide = star[-1] * bounds[-1] > WIDEST_INT_BOX
    if wide:
        # sparse tables hold codes packed at the family's base, which need no decoding
        star = [0, 0] + [base**j for j in range(delta)]
    start = SparseBits((0,)) if wide else 1  # code 0 alone, the empty forest's
    if kernel is None:
        kernel, pendants = g, [0] * g.n
    adj = kernel.adjacency
    shift = [-1] * kernel.n  # w times the slot of a held vertex, -1 before and after
    tree = isinstance(walk, TreeDecomposition)
    nodes = _tree_nodes(walk, shift, w) if tree else [(0, -1, _placed(walk, shift, w), ())]
    tables: dict[int, Table] = {}  # node -> its finished children's tables, joined
    forgotten = decided = 0  # of g's vertices and edges, pendants and their edges included
    for t, p, forgets, bag in nodes:
        table = tables.pop(t) if t in tables else {0: start}
        for x in forgets:
            s, shift[x] = shift[x], -1
            nbrs = [shift[u] for u in adj[x] if shift[u] >= 0]
            table = _forget(star, field, s, nbrs, table, pendants[x])
            forgotten += 1 + pendants[x]
            decided += len(nbrs) + pendants[x]
        if p in tables:
            # a vertex of p's bag that neither side has met is uncovered on both
            shifts = [shift[u] for u in bag if shift[u] >= 0]
            table = _join(star, field, shifts, tables[p], table)
        tables[p] = table
    # a vertex forgotten before a neighbour is held leaves that edge undecided
    assert forgotten == g.n and decided == g.edge_count and max(shift, default=-1) < 0, (
        "the walk left a vertex or an edge behind"
    )
    codes = _bits(tables[-1][0] if tables else start)  # the empty graph's tree has no node
    members = codes if wide else _digit_sums(codes, bounds, [base**j for j in range(delta)])
    return VectorFamily(delta, base, frozenset(members))


def _placed(steps: list[tuple[int, list[int]]], shift: list[int], w: int) -> Iterator[int]:
    """Forgets along the path: a vertex takes the lowest free slot, those it closes free theirs."""
    free = [w * i for i in range(len(steps))]  # the shifts of free slots, a heap
    for v, closes in steps:
        shift[v] = heappop(free)
        for x in closes:
            heappush(free, shift[x])
            yield x


def _tree_nodes(td: TreeDecomposition, shift: list[int], w: int) -> Iterator[tuple]:
    """td's nodes in index order, children first, each with its parent, its one forget and
    its parent's bag (the empty bag at -1).

    A vertex's slot is the lowest one its later neighbours do not hold, given
    in reverse index order, and it is held from the first node whose bag
    holds it.  Of two vertices sharing a bag, the one eliminated first has
    the other as a later neighbour, so they never share a slot, and no slot
    passes the width.
    """
    slot = [0] * len(shift)
    for v, *later in reversed(td.bags):
        taken = {slot[u] for u in later}
        s = 0
        while s in taken:
            s += w
        slot[v] = s
    for t, (bag, p) in enumerate(zip(td.bags, td.parents)):
        for u in bag:
            if shift[u] < 0:
                shift[u] = slot[u]
        yield t, p, bag[:1], td.bags[p] if p >= 0 else ()


def _forget(
    star: list[int], field: int, s: int, nbrs: list[int], child: Table, pendants: int = 0
) -> Table:
    """Clear the field at shift s, deciding every edge from its vertex v to the fields at nbrs.

    v also decides the edges to its `pendants` pendants, which lie in no
    bag: unless it is a leaf, it may take any number of them as leaves.
    Each move of a child mask shifts its bitset left by what it adds to
    every code and ORs the result into the move's output mask: a leaf move
    adds star[2] (a new 2-star, one shift shared by every such move of the
    mask) or grows its centre by one, and a centre move taking `take` bag
    neighbours reaches the sizes low..high that its pendants allow, one OR
    of shifts shared by every choice of those neighbours.  v's "stay" move
    ORs the child's bitset in unshifted.
    """
    top = len(star) - 1  # largest star size
    out: Table = {}
    get = out.get
    for mask, vecs in child.items():
        code = (mask >> s) & field
        rest = mask - (code << s)
        if code != LEAF_OUTSIDE and (nbrs or pendants):
            if code == UNCOVERED:
                # v becomes a leaf of a neighbour, which starts or grows a star,
                # or a centre of size 1 + leaves.  A centre whose one leaf is an
                # uncovered neighbour u is left out: v as u's leaf adds the same
                # star[2], and u, a centre of 2, can still stay one or grow
                spots = []  # the uncovered neighbours' lowest field bits
                paired = vecs << star[2]  # every new 2-star's move
                for sh in nbrs:
                    c = (rest >> sh) & field
                    if c == UNCOVERED:
                        spots.append(1 << sh)
                        key = rest + (2 << sh)
                        out[key] = get(key, 0) | paired
                    elif c != LEAF_OUTSIDE and c != top:
                        key = rest + (1 << sh)
                        out[key] = get(key, 0) | vecs << (star[c + 1] - star[c])
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
                if low > high:
                    continue
                moved = 0
                for d in range(low, high + 1):
                    moved |= vecs << (star[d] - star[code])
                for chosen in (spots if take == 1 else map(sum, combinations(spots, take))):
                    key = rest + chosen
                    out[key] = get(key, 0) | moved
        out[rest] = get(rest, 0) | vecs
    return out


def _join(star: list[int], field: int, shifts: list[int], t1: Table, t2: Table) -> Table:
    right = [
        (mask, *_cover_bits(field, shifts, mask), vecs, _bits(vecs)) for mask, vecs in t2.items()
    ]
    out: Table = {}
    for mask1, vecs1 in t1.items():
        covered1, leaves1 = _cover_bits(field, shifts, mask1)
        bits1 = _bits(vecs1)
        for mask2, covered2, leaves2, vecs2, bits2 in right:
            # the forgotten centre of a leaf lives in exactly one child's subtree
            if leaves1 & covered2 or leaves2 & covered1:
                continue
            both = covered1 & covered2
            merged = _merge_masks(star, field, mask1, mask2, both) if both else (mask1 + mask2, 0)
            if merged is None:
                continue
            mask_out, shift = merged
            # the sumset of codes: the side with more bits shifted by each bit of the other
            if len(bits1) <= len(bits2):
                summed = _sum_shifts(vecs2, bits1)
            else:
                summed = _sum_shifts(vecs1, bits2)
            # only a box with a digit bound of 1 makes a correction negative: a
            # sparse table's place values are powers of n + 1 and grow every digit
            summed = summed << shift if shift >= 0 else summed >> -shift
            out[mask_out] = out.get(mask_out, 0) | summed
    return out


def _sum_shifts(vecs: Bits, offsets: list[int]) -> Bits:
    """The OR of vecs shifted left by each of offsets."""
    if vecs.__class__ is SparseBits:
        return SparseBits([c + o for c in vecs for o in offsets])
    summed = 0
    for c in offsets:
        summed |= vecs << c
    return summed


def _bits(x: Bits) -> list[int]:
    """The positions of x's set bits, an int's read off its binary string."""
    if x.__class__ is SparseBits:
        return list(x)
    digits = bin(x)[:1:-1]  # bit i is digits[i]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
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
    """Merged mask and the additive code correction m - a - b, or None past delta+1.

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

