"""The acceptance criteria, one callable per criterion.

Each check returns (ok, detail).  test_acceptance.py asserts them through
pytest; scripts/run_acceptance.py runs them standalone.  Workloads are
seeded, so every run exercises the same instances.
"""

from __future__ import annotations

import itertools
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from starforest import cli
from starforest.component_ilp import MAX_COMPONENT, solve_cc
from starforest.eptas import EptasConfig, prune_levels, solve_eptas
from starforest.generators import KwayInstance, gen_kway_pw4, gen_kway_td5, rescale
from starforest.graph import (
    Graph,
    Instance,
    StarForest,
    max_matching,
    min_vertex_cover,
    serialize_instance,
    verify_embedding,
)
from starforest.oracle import enum_star_vectors_brute, opt_common_vector
from starforest.solve_h import (
    ColorCodingConfig,
    embeds_star_forest,
    enum_star_partitions,
    solve_h,
)
from starforest.treewidth import enum_star_vectors_dp, solve_tw, verify_decomposition
from starforest.vc_ilp import solve_vc
from starforest.vectors import VectorFamily, sumset, vector_total

from conftest import deep_planar, planar_low_degree, random_graph
from reference import (
    dominating_matching,
    embed_from_partition,
    kway_brute,
    min_edge_cover,
    pw4_path_decomposition,
    treedepth_at_most,
)


def _random_instances(seed: int, count: int, max_n: int = 9):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.choice([0.2, 0.4, 0.6])
        g1 = random_graph(rng, rng.randint(2, max_n), p)
        g2 = random_graph(rng, rng.randint(2, max_n), p)
        out.append((g1, g2))
    return out


def check_1_oracle_equivalence(count: int = 300, per_solver: int = 100):
    """All applicable exact solvers agree with the brute-force oracle.

    Sampling continues past `count` until the component-size and vertex-cover
    solvers have each seen at least `per_solver` qualifying instances.  The
    component-size solver also runs with k equal to the largest component
    whenever the route accepts that size (counted as cc_k).
    """
    stats = {"cc": 0, "cc_k": 0, "vc": 0, "total": 0}
    rng = random.Random(1001)
    while stats["total"] < count or min(stats["cc"], stats["vc"]) < per_solver:
        p = rng.choice([0.2, 0.4, 0.6])
        g1 = random_graph(rng, rng.randint(2, 9), p)
        g2 = random_graph(rng, rng.randint(2, 9), p)
        stats["total"] += 1
        opt, _ = opt_common_vector(g1, g2)
        if solve_tw(g1, g2)[0] != opt:
            return False, f"solve_tw disagrees on {list(g1.edges())} vs {list(g2.edges())}"
        comp = max(len(c) for c in g1.components() + g2.components())
        if comp <= 5 and stats["cc"] < 2 * per_solver:
            stats["cc"] += 1
            if solve_cc(g1, g2, 5) != opt:
                return False, f"solve_cc disagrees on {list(g1.edges())} vs {list(g2.edges())}"
        if comp <= MAX_COMPONENT:
            stats["cc_k"] += 1
            if solve_cc(g1, g2, comp) != opt:
                edges = f"{list(g1.edges())} vs {list(g2.edges())}"
                return False, f"solve_cc(k={comp}) disagrees on {edges}"
        if (
            stats["vc"] < 2 * per_solver
            and min_vertex_cover(g1, 3) is not None
            and min_vertex_cover(g2, 3) is not None
        ):
            stats["vc"] += 1
            if solve_vc(g1, g2, 3) != opt:
                return False, f"solve_vc disagrees on {list(g1.edges())} vs {list(g2.edges())}"
        for h in (opt, opt + 1):
            yes, _ = solve_h(Instance(g1, g2, h), mode="exact")
            if yes != (opt >= h):
                return False, f"solve_h({h}) disagrees (opt={opt})"
    return True, (
        f"{stats['total']} instances (cc on {stats['cc']}, cc at k = largest component"
        f" on {stats['cc_k']}, vc on {stats['vc']})"
    )


def check_2_dp_vs_brute(count: int = 200):
    """The treewidth DP's vector family equals the brute-force family."""
    rng = random.Random(1002)
    for idx in range(count):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6]))
        for delta in (2, 3, max(1, g.max_degree())):
            if enum_star_vectors_dp(g, delta).vectors != enum_star_vectors_brute(g, delta).vectors:
                return False, f"family mismatch at graph {idx}, delta {delta}"
    return True, f"{count} graphs, deltas {{2, 3, maxdeg}}"


def check_3_eptas_guarantee(count: int = 100):
    """(1-eps)*OPT <= SOL <= OPT on planar max-degree-3 inputs."""
    rng = random.Random(1003)
    epsilons = [Fraction(3, 10), Fraction(5, 10), Fraction(8, 10)]
    for idx in range(count):
        g1 = planar_low_degree(rng)
        g2 = planar_low_degree(rng)
        opt, _ = opt_common_vector(g1, g2)
        for eps in epsilons:
            size, _, _ = solve_eptas(g1, g2, EptasConfig(float(eps)))
            if not (1 - eps) * opt <= size <= opt:
                return False, f"instance {idx}: SOL={size} outside [(1-{eps})*{opt}, {opt}]"
    return True, f"{count} planar instances, eps in {{0.3, 0.5, 0.8}}"


def check_9_eptas_deep(count: int = 40):
    """(1-eps)*OPT <= SOL <= OPT on planar inputs deep enough that every shift prunes.

    The graphs have 24 to 40 vertices, beyond the brute-force oracle, so OPT
    comes from the exact treewidth DP.
    """
    rng = random.Random(1009)
    epsilons = [Fraction(5, 10), Fraction(8, 10)]
    for idx in range(count):
        g1, g2 = deep_planar(rng), deep_planar(rng)
        opt = solve_tw(g1, g2)[0]
        for eps in epsilons:
            cfg = EptasConfig(float(eps))
            for g in (g1, g2):
                if any(len(prune_levels(g, r, cfg.k)[1]) == g.n for r in range(cfg.k)):
                    return False, f"instance {idx}: a shift at eps {eps} prunes nothing"
            size, _, _ = solve_eptas(g1, g2, cfg)
            if not (1 - eps) * opt <= size <= opt:
                return False, f"instance {idx}: SOL={size} outside [(1-{eps})*{opt}, {opt}]"
    return True, f"{count} deep planar instances (24-40 vertices), eps in {{0.5, 0.8}}"


def _kway_corpus(minimum: int = 20):
    rng = random.Random(1004)
    corpus = []
    while len(corpus) < minimum:
        n = rng.randint(2, 5)
        k = rng.randint(1, min(3, n))
        items = tuple(sorted((rng.randint(1, 5) for _ in range(n)), reverse=True))
        if max(items) < 3 or sum(items) % k:
            continue
        corpus.append(KwayInstance(items, k, sum(items) // k))
    return corpus


def check_4_reduction_round_trips(minimum: int = 20):
    """Closed-form counts hold; solvable instances yield verifiable certificates."""
    corpus = _kway_corpus(minimum)
    yes_count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for idx, kw in enumerate(corpus):
            part = kway_brute(kw)
            scaled = rescale(kw)
            td5 = gen_kway_td5(scaled)
            pw4 = gen_kway_pw4(kw)
            n, k, M = len(kw.items), kw.k, scaled.total
            d_td5 = M + 20
            want_td5 = n * (d_td5 + k) + M * (k * k + 7 * k)
            a = max(kw.items)
            want_pw4 = n * (2 * a * k * k + 11 * a * k - 3 * k + 8) - (k * k + k) * kw.total
            for labeled, want in ((td5, want_td5), (pw4, want_pw4)):
                if not (labeled.instance.g1.n == labeled.instance.g2.n == want == labeled.instance.h):
                    return False, f"instance {idx}: count formula violated"
            if part is None:
                continue
            yes_count += 1
            scaled_part = part  # same index partition solves the rescaled items
            for tag, labeled, chosen in (("td5", td5, scaled_part), ("pw4", pw4, part)):
                forest, e1, e2 = embed_from_partition(labeled, chosen)
                if sorted(e1.vertices()) != list(range(labeled.instance.g1.n)):
                    return False, f"instance {idx} {tag}: embedding does not span G1"
                if sorted(e2.vertices()) != list(range(labeled.instance.g2.n)):
                    return False, f"instance {idx} {tag}: embedding does not span G2"
                inst_path = Path(tmp) / f"{tag}_{idx}.txt"
                inst_path.write_text(serialize_instance(labeled.instance))
                cert_path = Path(tmp) / f"{tag}_{idx}.cert.json"
                cert_path.write_text(
                    json.dumps(
                        {
                            "star_sizes": list(forest.star_sizes),
                            "emb1": [list(s) for s in e1.stars],
                            "emb2": [list(s) for s in e2.stars],
                        }
                    )
                )
                if cli.main(["verify", str(inst_path), str(cert_path)]) != 0:
                    return False, f"instance {idx} {tag}: cmd_verify rejected the certificate"
    return True, f"{len(corpus)} k-way instances, {yes_count} solvable, both generators"


def check_5_structural_certificates(minimum: int = 8):
    """Treedepth, explicit path decomposition, and degree identities."""
    corpus = [kw for kw in _kway_corpus(20)][:minimum]
    for idx, kw in enumerate(corpus):
        k = kw.k
        scaled = rescale(kw)
        td5 = gen_kway_td5(scaled)
        if not treedepth_at_most(td5.instance.g1, 5):
            return False, f"instance {idx}: td5 trees exceed treedepth 5"
        D = td5.params["D"]
        for i in range(1, len(kw.items) + 1):
            if td5.instance.g1.degree(td5.labels1[f"r_{i}"]) != D - 1 + k:
                return False, f"instance {idx}: td5 root degree != D-1+k"
        pw4 = gen_kway_pw4(kw)
        decomposition = pw4_path_decomposition(pw4)
        if decomposition.width != 4 or not verify_decomposition(pw4.instance.g1, decomposition):
            return False, f"instance {idx}: pw4 explicit decomposition invalid"
        if pw4.instance.g1.max_degree() != 3 * k + 7:
            return False, f"instance {idx}: pw4 G1 max degree != 3k+7"
        if pw4.instance.g2.max_degree() != 2 * k + 8:
            return False, f"instance {idx}: pw4 G2 max degree != 2k+8"
    return True, f"{len(corpus)} instances: treedepth<=5, width-4 path decomposition, degrees"


def _all_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def check_6_support_identities():
    """Gallai identity, exact sumsets, star-partition counts, dominating matchings."""
    # Gallai: exhaustive through 6 vertices, sampled at 7
    for n in range(2, 7):
        for g in _all_graphs(n):
            if g.isolated_vertices():
                continue
            cover, _, _ = min_edge_cover(g)
            if len(cover) + len(max_matching(g)) != g.n:
                return False, f"Gallai fails on {list(g.edges())}"
    rng = random.Random(1006)
    sampled = 0
    while sampled < 300:
        g = random_graph(rng, 7, rng.choice([0.3, 0.5, 0.7]))
        if g.isolated_vertices():
            continue
        sampled += 1
        cover, _, _ = min_edge_cover(g)
        if len(cover) + len(max_matching(g)) != 7:
            return False, f"Gallai fails on {list(g.edges())}"
    # sumset against the quadratic oracle
    for _ in range(100):
        d = rng.randint(1, 3)
        bound = rng.randint(1, 15)
        mems_a = {tuple(rng.randint(0, bound) for _ in range(d)) for _ in range(rng.randint(1, 25))}
        mems_b = {tuple(rng.randint(0, bound) for _ in range(d)) for _ in range(rng.randint(1, 25))}
        base = 2 * bound + 1  # room for the sum of two coordinates in [0, bound]
        got = sumset(
            VectorFamily.of(mems_a, d, base), VectorFamily.of(mems_b, d, base)
        ).vectors
        want = {tuple(x + y for x, y in zip(a, b)) for a in mems_a for b in mems_b}
        if got != want:
            return False, "sumset disagrees with the quadratic oracle"
    # star-partition counts against the independent recurrence: partitions of
    # h without a part 1 number p(h) - p(h - 1)
    table = [[0] * 41 for _ in range(41)]
    for k in range(41):
        table[0][k] = 1
    for total in range(1, 41):
        for k in range(1, 41):
            table[total][k] = table[total][k - 1] + (table[total - k][k] if total >= k else 0)
    for h in range(41):
        want = table[h][h] - (table[h - 1][h - 1] if h else 0)
        if sum(1 for _ in enum_star_partitions(h)) != want:
            return False, f"star partition count wrong at h={h}"
    if sum(1 for _ in enum_star_partitions(10)) != 42 - 30:
        return False, "p(10) - p(9) != 12"
    # dominating matchings on constructed minimum dominating sets
    built = 0
    while built < 50:
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5]))
        if g.isolated_vertices():
            continue
        dom = None
        for size in range(1, g.n + 1):
            for cand in itertools.combinations(range(g.n), size):
                covered = set(cand)
                for v in cand:
                    covered.update(g.adjacency[v])
                if len(covered) == g.n:
                    dom = list(cand)
                    break
            if dom:
                break
        matching = dominating_matching(g, dom)
        if len(matching) != len(dom):
            return False, "dominating matching size != |D|"
        built += 1
    return True, "Gallai (exhaustive<=6 + 300 at n=7), 100 sumsets, star p(h<=40), 50 matchings"


def check_7_matching_or_exact(count: int = 120):
    """OPT >= h  iff  ceil(h/2)-matchings both sides or an exact-h common forest."""
    for idx, (g1, g2) in enumerate(_random_instances(1007, count, max_n=8)):
        opt, _ = opt_common_vector(g1, g2)
        m1, m2 = len(max_matching(g1)), len(max_matching(g2))
        if g1.edge_count and g2.edge_count:
            delta = min(g1.max_degree(), g2.max_degree())
            totals = {
                vector_total(v)
                for v in enum_star_vectors_brute(g1, delta).vectors
                & enum_star_vectors_brute(g2, delta).vectors
            }
        else:
            totals = {0}
        for h in range(opt + 3):
            need = (h + 1) // 2
            rhs = (m1 >= need and m2 >= need) or h in totals
            if (opt >= h) != rhs:
                return False, f"instance {idx}, h={h}: equivalence fails"
    return True, f"{count} instances, h in [0, OPT+2]"


def check_8_color_coding(calls: int = 1000, fn_sample: int = 150):
    """Randomized embedding: no false positives; small false-negative rate."""
    rng = random.Random(1008)
    cases = []
    while len(cases) < calls:
        g = random_graph(rng, rng.randint(3, 9), rng.choice([0.3, 0.5]))
        h = rng.randint(2, 5)
        shapes = [f.star_sizes for f in _star_shapes(h)]
        if not shapes:
            continue
        forest = StarForest(rng.choice(shapes))
        truth = embeds_star_forest(g, forest, "exact") is not None
        cases.append((g, forest, truth))
    # soundness: short trial counts, mixed instances, not one wrong yes
    for idx, (g, forest, truth) in enumerate(cases):
        cfg = ColorCodingConfig(trials=3, rng_seed=idx)
        emb = embeds_star_forest(g, forest, "randomized", cfg)
        if emb is not None:
            if not truth or not verify_embedding(g, forest, emb):
                return False, f"false positive at case {idx}"
    # completeness: auto trials at failure probability 0.01 rarely miss
    yes_cases = [c for c in cases if c[2]][:fn_sample]
    misses = 0
    for idx, (g, forest, _) in enumerate(yes_cases):
        cfg = ColorCodingConfig(failure_probability=0.01, rng_seed=10_000 + idx)
        if embeds_star_forest(g, forest, "randomized", cfg) is None:
            misses += 1
    rate = misses / max(1, len(yes_cases))
    if rate > 0.05:
        return False, f"false-negative rate {rate:.3f} > 0.05"
    return True, f"{calls} calls, 0 false positives; FN rate {rate:.3f} on {len(yes_cases)} yes-cases"


def _star_shapes(h: int):
    # the order of the eager list these draws were first made from
    return sorted(enum_star_partitions(h), key=lambda f: f.star_sizes[::-1][:-1])


ALL_CHECKS = [
    ("1 oracle equivalence", check_1_oracle_equivalence),
    ("2 DP vs brute families", check_2_dp_vs_brute),
    ("3 EPTAS guarantee", check_3_eptas_guarantee),
    ("4 reduction round trips", check_4_reduction_round_trips),
    ("5 structural certificates", check_5_structural_certificates),
    ("6 support identities", check_6_support_identities),
    ("7 matching-or-exact equivalence", check_7_matching_or_exact),
    ("8 randomized color coding", check_8_color_coding),
    ("9 EPTAS guarantee on deep inputs", check_9_eptas_deep),
]
