"""Command-line interface: solve, verify, gen.

Exit codes: 0 success, 1 failed verification, 2 parse error, 3 algorithm
precondition violated, 4 resource refusal.  Cross-checks and timing over many
instances live in ``scripts/solver_matrix.py`` and ``perfbench/run.py``.

Only the graph core loads with this module; each command imports what it
runs (``argparse`` when the parser is built, one route per ``solve``, the
generators for ``gen``), so a cold start pays for one route, not all.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, field

from .errors import ParseError, PreconditionError, ResourceLimitError
from .graph import (
    Embedding,
    Instance,
    StarForest,
    embedding_violation,
    min_vertex_cover,
    parse_graph,
    parse_instance,
    serialize_instance,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4

# the module each --algo runs
ROUTES = {
    "oracle": "oracle",
    "fpt-h": "solve_h",
    "vc": "vc_ilp",
    "cc": "component_ilp",
    "tw": "treewidth",
    "eptas": "eptas",
}
ALGOS = ("auto", *ROUTES)


@dataclass
class RunReport:
    instance_digest: str
    algorithm: str
    answer: int | str
    vector: list[int]
    elapsed_ms: float
    seed: int
    parameters: dict = field(default_factory=dict)

    def to_json(self) -> str:
        import json

        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunReport":
        import json

        return RunReport(**json.loads(text))


def _digest(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()[:16]


def _largest_component(inst: Instance) -> int:
    """Vertex count of the largest component of either graph; 0 if both are empty."""
    return max((len(c) for g in (inst.g1, inst.g2) for c in g.components()), default=0)


def _pick_auto(inst: Instance) -> str:
    from . import component_ilp, vc_ilp

    if _largest_component(inst) <= component_ilp.MAX_COMPONENT:
        return "cc"
    cover = vc_ilp.MAX_COVER
    if min_vertex_cover(inst.g1, cover) is not None and min_vertex_cover(inst.g2, cover) is not None:
        return "vc"
    return "tw"


def _import_route(algo: str):
    """The module that runs `algo`, imported on first use."""
    if algo not in ROUTES:
        raise PreconditionError(f"unknown algorithm {algo!r}")
    from importlib import import_module

    return import_module(f".{ROUTES[algo]}", __package__)


def run_solver(inst: Instance, algo: str, args) -> tuple[int | str, list[int], dict]:
    route = _import_route(algo)
    params: dict = {}
    if algo == "oracle":
        limit = route.DEFAULT_VERTEX_LIMIT if args.oracle_limit is None else args.oracle_limit
        size, forest, _, _ = route.opt_common_brute(inst.g1, inst.g2, limit)
        return size, list(forest.star_sizes), params
    if algo == "fpt-h":
        cfg = route.ColorCodingConfig(
            trials=args.trials,
            failure_probability=args.fail_prob,
            rng_seed=args.seed,
        )
        params = {"mode": args.mode, "h": inst.h}
        yes, cert = route.solve_h(inst, cfg, mode=args.mode)
        vector = list(cert[0].star_sizes) if yes and cert else []
        return ("yes" if yes else "no"), vector, params
    if algo == "vc":
        # solve_vc refuses at once a bound above MAX_COVER or a cover above the bound
        k = route.MAX_COVER if args.k is None else args.k
        params = {"k": k}
        return route.solve_vc(inst.g1, inst.g2, k), [], params
    if algo == "cc":
        k = args.k
        if k is None:
            # also the treedepth-plus-degree route: those two bound every component
            k = max(_largest_component(inst), 1)
        params = {"k": k}
        return route.solve_cc(inst.g1, inst.g2, k), [], params
    if algo == "tw":
        size, forest = route.solve_tw(inst.g1, inst.g2)
        return size, list(forest.star_sizes), params
    if algo == "eptas":
        cfg = route.EptasConfig(args.epsilon)
        params = {"epsilon": args.epsilon, "k": cfg.k}
        size, forest, shifts = route.solve_eptas(inst.g1, inst.g2, cfg)
        params["shifts"] = list(shifts)
        return size, list(forest.star_sizes), params
    raise AssertionError(f"run_solver has no branch for {algo!r}")


def _read_text(path: str) -> str:
    """A file's UTF-8 text; a missing, unreadable or undecodable file is a ParseError."""
    try:
        with open(path, "rb") as f:
            return f.read().decode()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _int_list(value) -> list[int]:
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise TypeError(f"expected a list of integers, got {value!r}")
    return value


def cmd_solve(args) -> int:
    text = _read_text(args.instance)
    inst = parse_instance(text)
    algo = args.algo
    params: dict = {}
    if algo == "auto":
        algo = _pick_auto(inst)
        params["decision"] = algo
    _import_route(algo)  # before the clock starts: elapsed_ms times only the solver
    start = time.perf_counter()
    answer, vector, algo_params = run_solver(inst, algo, args)
    elapsed = (time.perf_counter() - start) * 1000
    params.update(algo_params)
    report = RunReport(
        _digest(text.encode()), algo, answer, vector, round(elapsed, 3), args.seed, params
    )
    print(report.to_json())
    return EXIT_OK


def cmd_verify(args) -> int:
    import json

    inst = parse_instance(_read_text(args.instance))
    cert_text = _read_text(args.certificate)
    try:
        cert = json.loads(cert_text)
        forest = StarForest(tuple(_int_list(cert["star_sizes"])))
        emb1 = Embedding(map(_int_list, cert["emb1"]))
        emb2 = Embedding(map(_int_list, cert["emb2"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from exc
    for tag, g, emb in (("emb1", inst.g1, emb1), ("emb2", inst.g2, emb2)):
        reason = embedding_violation(g, forest, emb)
        if reason is not None:
            print(f"{tag}: {reason}")
            return EXIT_VERIFY_FAILED
    print(f"ok: common star forest on {forest.total_vertices} vertices")
    return EXIT_OK


def _parse_items(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"bad item list {text!r}") from None


def cmd_gen(args) -> int:
    import json

    from . import generators

    kind = args.kind
    if kind in ("domset", "p3"):
        if args.graph is None:
            raise ParseError(f"gen {kind} needs --graph")
        g = parse_graph(_read_text(args.graph))
        labeled = (
            generators.gen_domset(g, args.k) if kind == "domset" else generators.gen_p3(g)
        )
    else:
        if args.items is None or args.C is None:
            raise ParseError(f"gen {kind} needs --items and --C")
        kw = generators.KwayInstance(_parse_items(args.items), args.k, args.C)
        if args.rescale:
            kw = generators.rescale(kw)
        labeled = (
            generators.gen_kway_td5(kw) if kind == "kway-td5" else generators.gen_kway_pw4(kw)
        )
    out = args.out
    sidecar = out + ".labels.json"
    with open(out, "w") as f:
        f.write(serialize_instance(labeled.instance))
    with open(sidecar, "w") as f:
        json.dump(
            {"labels1": labeled.labels1, "labels2": labeled.labels2, "params": labeled.params},
            f,
            indent=1,
            sort_keys=True,
        )
    print(f"wrote {out} and {sidecar}")
    return EXIT_OK


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(prog="starforest")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("instance")
    solve.add_argument("--algo", choices=ALGOS, default="auto")
    solve.add_argument("--k", type=int, default=None, help="cover / component bound")
    solve.add_argument("--epsilon", type=float, default=0.5)
    solve.add_argument("--mode", choices=("exact", "randomized"), default="exact")
    solve.add_argument("--trials", type=int, default=None)
    solve.add_argument("--fail-prob", type=float, default=0.01)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--oracle-limit", type=int, default=None, help="brute-force vertex cap")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a certificate against an instance")
    verify.add_argument("instance")
    verify.add_argument("certificate")
    verify.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="generate a hardness-construction instance")
    gen.add_argument("kind", choices=("domset", "p3", "kway-td5", "kway-pw4"))
    gen.add_argument("--graph", help="input graph file (domset, p3)")
    gen.add_argument("--k", type=int, default=1)
    gen.add_argument("--items", help="comma-separated item values (kway)")
    gen.add_argument("--C", type=int, default=None, help="bin capacity (kway)")
    gen.add_argument("--rescale", action="store_true", help="normalize items first")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
