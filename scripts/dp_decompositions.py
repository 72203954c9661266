#!/usr/bin/env python3
"""Time the treewidth DP on min-fill's decomposition, the greedy path's, and by default.

    python scripts/dp_decompositions.py [--check] [--repeat N]
    python scripts/dp_decompositions.py --digest

For a fixed seeded set of graphs (grids, random, hub and complete binary
trees, G(n, p) graphs, a caterpillar, a star, a matching and a long path) it
prints one row per graph: the widths of min-fill's and of the greedy path
decomposition, the vertex count of the pendant kernel and what the DP picks
to walk on it (`treewidth.dp_pick(pendant_kernel(g)[0])`), and for
min-fill's and the path's decomposition of the whole graph (the path's
bags built by `tests/conftest.py`'s `path_decomposition`) the time to build
it ("dec") apart from the DP's time on it ("DP", which includes checking
the supplied decomposition), and the time of the DP with no decomposition
supplied ("default", `remember=False`: the pendant kernel, the pick on it
and then the walk along the path's steps or min-fill's tree, the route the
solvers take), each the best of N runs (default 3).  With --check it exits
1 if the three families of any graph are not equal; only the default route
drops pendants, so the check compares families with and without the kernel.

With --digest it prints, with no timing, one line per graph: its name,
delta, the default route's family size and the sha256 of its sorted packed
members.  A family is determined by the graph, so the output of two
versions of the DP differs only where one of them is wrong.
"""

import argparse
import hashlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from starforest.treewidth import (  # noqa: E402
    TreeDecomposition,
    dp_pick,
    enum_star_vectors_dp,
    heuristic_decomposition,
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


def graphs():
    """(name, graph, delta): delta is the maximum degree, but 3 on the star,
    all of whose leaves are pendants, and 1 on the long path, whose family at
    delta 2 would hold about 10^5 vectors."""
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
    return rows + [("star K1,30", star_graph(30), 3), ("path 1200", path_graph(1200), 1)]


def best_time(run, repeat):
    """Best wall time of `run()` over `repeat` runs, and the result of the last."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def timed(decompose, g, delta, repeat):
    """Best wall times of the decomposition and of the DP on it, and the family of the last run."""
    dec_s, td = best_time(lambda: decompose(g), repeat)
    dp_s, family = best_time(lambda: enum_star_vectors_dp(g, delta, td), repeat)
    return dec_s, dp_s, family


def digest(family):
    """sha256 of a family's sorted packed members."""
    return hashlib.sha256(",".join(map(str, sorted(family.members))).encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="exit 1 if any family differs")
    parser.add_argument("--repeat", type=int, default=3, help="runs per timing (best kept)")
    parser.add_argument(
        "--digest", action="store_true", help="print each default family's size and sha256 only"
    )
    args = parser.parse_args(argv)
    if args.digest:
        for name, g, delta in graphs():
            family = enum_star_vectors_dp(g, delta, remember=False)
            print(f"{name}\t{delta}\t{len(family.members)}\t{digest(family)}")
        return 0
    # --digest runs against older checkouts too, whose conftest may lack this
    from conftest import path_decomposition

    differ = []
    header = ("graph", "n", "delta", "min-fill w", "path w", "kernel n", "kernel pick")
    kinds = ("min-fill", "path")
    cols = [f"{kind} {part} ms" for kind in kinds for part in ("dec", "DP")] + ["default ms"]
    print("{:<16} {:>5} {:>5} {:>10} {:>6} {:>8} {:>11}".format(*header), *cols)
    for name, g, delta in graphs():
        tree, path = heuristic_decomposition(g), path_decomposition(g)
        kernel = pendant_kernel(g)[0]
        kind = "min-fill" if isinstance(dp_pick(kernel), TreeDecomposition) else "path"
        runs = [
            timed(decompose, g, delta, args.repeat)
            for decompose in (heuristic_decomposition, path_decomposition)
        ]
        default_s, default = best_time(
            lambda: enum_star_vectors_dp(g, delta, remember=False), args.repeat
        )
        if not runs[0][2] == runs[1][2] == default:
            differ.append(name)
        times = [seconds for dec_s, dp_s, _ in runs for seconds in (dec_s, dp_s)] + [default_s]
        print(
            f"{name:<16} {g.n:>5} {delta:>5} {tree.width:>10} {path.width:>6} "
            f"{kernel.n:>8} {kind:>11}",
            *(f"{t * 1e3:>{len(col)}.2f}" for t, col in zip(times, cols)),
        )
    if differ:
        print("families differ on: " + ", ".join(differ))
    return 1 if args.check and differ else 0


if __name__ == "__main__":
    sys.exit(main())
