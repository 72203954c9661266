#!/usr/bin/env python3
"""Time the treewidth DP on min-fill's elimination tree, the greedy path's steps, and by default.

    python scripts/dp_decompositions.py [--check] [--repeat N]
    python scripts/dp_decompositions.py --digest

For a fixed seeded set of graphs (grids, random, hub and complete binary
trees, G(n, p) graphs, a caterpillar, a star, a matching, a long path, and
then a random 2-tree and a larger binary tree, on which the path walk is
far slower than min-fill's tree) it prints one row per graph: the widths of
min-fill's tree and of the greedy path decomposition of g, the vertex count
of the pendant kernel and what the DP picks to walk on it
(`treewidth.dp_pick(pendant_kernel(g)[0])`), and for the two walks the pick
chooses between, min-fill's tree (`heuristic_decomposition`) and the path's
steps (`path_order`) of the kernel, the time to build it ("dec") apart from
the DP's walk along it (`treewidth._walk`, "DP"), and the time of the DP as
the solvers call it ("default", `enum_star_vectors_dp` with
`remember=False`: the pendant kernel, the pick on it and then the picked
walk).  Each row is timed in N fresh Python processes (default 3),
one after another, and each time printed is the median over them.  Within
one process each time is the best of 3 runs, but a whole process can run
slow: times of one process can read 1.6 times those of another with the
same code, so a single process's best does not remove that spread.  With
--check it exits 1 if the three families of any graph are not equal.  The
families are computed in this process, untimed.

With --digest it prints, with no timing, one line per graph: its name,
delta, the default route's family size and the sha256 of its sorted packed
members.  A family is determined by the graph, so the output of two
versions of the DP differs only where one of them is wrong.
"""

import argparse
import hashlib
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

# only names that earlier versions of the DP also have: CI runs this script
# against the parent commit's DP to diff the digests
from starforest.graph import Graph  # noqa: E402
from starforest.treewidth import (  # noqa: E402
    _walk,
    dp_pick,
    enum_star_vectors_dp,
    heuristic_decomposition,
    path_order,
    pendant_kernel,
)

from conftest import (  # noqa: E402
    caterpillar,
    complete_binary_tree,
    disjoint_union,
    grid_graph,
    hub_tree,
    path_graph,
    random_graph,
    random_tree,
    star_graph,
)


def random_two_tree(rng, n):
    """An edge, then each new vertex joined to both ends of a random existing edge."""
    edges = [(0, 1)]
    for v in range(2, n):
        a, b = rng.choice(edges)
        edges += [(a, v), (b, v)]
    return Graph.from_edges(n, edges)


def graphs():
    """(name, graph, delta): delta is the maximum degree, but 3 on the star,
    all of whose leaves are pendants, 1 on the long path, whose family at
    delta 2 would hold about 10^5 vectors, and 2 on the 2-tree, whose family
    at its maximum degree of 14 holds 39103 vectors and whose path walk then
    takes about 30 s.  The 2-tree draws from its own rng, so the rows before it
    keep their graphs."""
    rng = random.Random(20)
    out = [(f"grid {r}x{c}", grid_graph(r, c)) for r, c in ((3, 8), (4, 6), (5, 5))]
    for i in range(3):
        out.append((f"random tree {i}", random_tree(rng, rng.randint(30, 40))))
    out.append(("binary tree 63", complete_binary_tree(63)))
    out += [(f"G(20, 0.2) {i}", random_graph(rng, 20, 0.2)) for i in range(2)]
    out += [(f"G(16, 0.3) {i}", random_graph(rng, 16, 0.3)) for i in range(3)]
    out.append(("caterpillar 60", caterpillar(20, 2)))
    out.append(("hub tree 40", hub_tree(rng, 40, 3)))
    out.append(("matching 20+3", disjoint_union(*[path_graph(2)] * 20, *[path_graph(1)] * 3)))
    rows = [(name, g, max(1, g.max_degree())) for name, g in out]
    rows += [("star K1,30", star_graph(30), 3), ("path 1200", path_graph(1200), 1)]
    rows.append(("2-tree 44", random_two_tree(random.Random(21), 44), 2))
    return rows + [("binary tree 127", complete_binary_tree(127), 3)]


RUNS = 3  # timed runs per column in one process, the best kept
# reads (n, edges, delta) as JSON on stdin and prints `row_times` as JSON; running
# the script (argv[1]) puts `src` on the path before the Graph import
CHILD = (
    "import json, runpy, sys; n, edges, delta = json.load(sys.stdin); "
    "script = runpy.run_path(sys.argv[1]); from starforest.graph import Graph; "
    "print(json.dumps(script['row_times'](Graph.from_edges(n, edges), delta)))"
)


def best_time(run):
    """Best wall time of `run()` over RUNS runs, and the result of the last."""
    best = float("inf")
    for _ in range(RUNS):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


# what builds min-fill's elimination tree and the greedy path's steps
BUILDS = (heuristic_decomposition, lambda g: path_order(g)[0])


def row_times(g, delta):
    """Seconds in this process: min-fill's tree and the path's steps of the
    pendant kernel, each built and then walked, then the default route, each
    the best of RUNS runs."""
    kernel, pendants = pendant_kernel(g)
    times = []
    for build in BUILDS:
        dec_s, walk = best_time(lambda: build(kernel))
        times += [dec_s, best_time(lambda: _walk(g, delta, walk, kernel, pendants))[0]]
    return times + [best_time(lambda: enum_star_vectors_dp(g, delta, remember=False))[0]]


def fresh_row_times(g, delta):
    """`row_times(g, delta)` in a fresh Python process."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, __file__],
        input=json.dumps([g.n, list(g.edges()), delta]),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def families(g, delta):
    """The families along min-fill's tree and the path's steps of the pendant
    kernel, and by default."""
    kernel, pendants = pendant_kernel(g)
    walked = [_walk(g, delta, build(kernel), kernel, pendants) for build in BUILDS]
    return walked + [enum_star_vectors_dp(g, delta, remember=False)]


def digest(family):
    """sha256 of a family's sorted packed members."""
    return hashlib.sha256(",".join(map(str, sorted(family.members))).encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="exit 1 if any family differs")
    parser.add_argument(
        "--repeat", type=int, default=3, help="fresh processes per row (the median is printed)"
    )
    parser.add_argument(
        "--digest", action="store_true", help="print each default family's size and sha256 only"
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.digest:
        for name, g, delta in graphs():
            family = enum_star_vectors_dp(g, delta, remember=False)
            print(f"{name}\t{delta}\t{len(family.members)}\t{digest(family)}")
        return 0
    differ = []
    header = ("graph", "n", "delta", "min-fill w", "path w", "kernel n", "kernel pick")
    kinds = ("min-fill", "path")
    cols = [f"{kind} {part} ms" for kind in kinds for part in ("dec", "DP")] + ["default ms"]
    print("{:<16} {:>5} {:>5} {:>10} {:>6} {:>8} {:>11}".format(*header), *cols)
    for name, g, delta in graphs():
        tree, path_w = heuristic_decomposition(g), path_order(g)[1]
        kernel = pendant_kernel(g)[0]
        kind = "path" if isinstance(dp_pick(kernel), list) else "min-fill"
        first, *rest = families(g, delta)
        if any(family != first for family in rest):
            differ.append(name)
        samples = [fresh_row_times(g, delta) for _ in range(args.repeat)]
        times = [statistics.median(column) for column in zip(*samples)]
        print(
            f"{name:<16} {g.n:>5} {delta:>5} {tree.width:>10} {path_w:>6} "
            f"{kernel.n:>8} {kind:>11}",
            *(f"{t * 1e3:>{len(col)}.2f}" for t, col in zip(times, cols)),
        )
    if differ:
        print("families differ on: " + ", ".join(differ))
    return 1 if args.check and differ else 0


if __name__ == "__main__":
    sys.exit(main())
