#!/usr/bin/env python3
"""Cross-check every applicable solver on a small random corpus.

Prints one row per instance with each solver's answer and timing; exits
nonzero if any two solvers disagree, or if exact solve_h does not answer
yes at h = opt and no at h = opt + 1.  Handy as a quick regression sweep:

    python scripts/solver_matrix.py --count 25 --seed 3
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from conftest import random_graph  # noqa: E402

from starforest.component_ilp import MAX_COMPONENT, solve_cc  # noqa: E402
from starforest.eptas import EptasConfig, solve_eptas  # noqa: E402
from starforest.graph import Instance, min_vertex_cover  # noqa: E402
from starforest.oracle import opt_common_vector  # noqa: E402
from starforest.solve_h import solve_h  # noqa: E402
from starforest.treewidth import solve_tw  # noqa: E402
from starforest.vc_ilp import MAX_COVER, solve_vc  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=9)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    disagreements = 0
    print(f"{'instance':<12} {'oracle':>6} {'tw':>6} {'cc':>6} {'vc':>6} {'h@opt':>6} {'h@opt+1':>8} {'eptas.5':>8} {'ms':>8}")
    for idx in range(args.count):
        p = rng.choice([0.2, 0.4, 0.6])
        g1 = random_graph(rng, rng.randint(2, args.max_n), p)
        g2 = random_graph(rng, rng.randint(2, args.max_n), p)
        start = time.perf_counter()
        opt, _ = opt_common_vector(g1, g2)
        answers = {"oracle": opt, "tw": solve_tw(g1, g2)[0]}
        comp = max(len(c) for c in g1.components() + g2.components())
        cc = solve_cc(g1, g2, comp) if comp <= MAX_COMPONENT else None
        vc = (
            solve_vc(g1, g2, MAX_COVER)
            if min_vertex_cover(g1, MAX_COVER) is not None
            and min_vertex_cover(g2, MAX_COVER) is not None
            else None
        )
        yes, _ = solve_h(Instance(g1, g2, opt), mode="exact")
        over, _ = solve_h(Instance(g1, g2, opt + 1), mode="exact")
        eptas_size, _, _ = solve_eptas(g1, g2, EptasConfig(0.5))
        elapsed = (time.perf_counter() - start) * 1000
        if cc is not None:
            answers["cc"] = cc
        if vc is not None:
            answers["vc"] = vc
        exact_ok = len(set(answers.values())) == 1 and yes and not over
        approx_ok = eptas_size <= opt
        if not (exact_ok and approx_ok):
            disagreements += 1
        fmt = lambda v: "-" if v is None else str(v)
        print(
            f"{idx:<12} {opt:>6} {answers['tw']:>6} {fmt(cc):>6} {fmt(vc):>6}"
            f" {str(yes):>6} {str(over):>8} {eptas_size:>8} {elapsed:>8.1f}"
            + ("   <-- disagreement" if not (exact_ok and approx_ok) else "")
        )
    print(f"{args.count} instances, {disagreements} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
