"""Exact solver for bounded-variable integer linear programs.

Small guess-conditioned models are the only customers, so the engine is a
plain depth-first branch and bound over variable values with interval
constraint propagation and an interval objective bound.  No LP relaxation,
no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionError, ResourceLimitError

LE, EQ, GE = "<=", "=", ">="


@dataclass(frozen=True)
class Constraint:
    coeffs: dict[str, int]
    relation: str
    rhs: int


@dataclass
class BipModel:
    """Integer variables with finite bounds, linear constraints, maximize objective."""

    variables: list[tuple[str, int, int]] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[str, int] = field(default_factory=dict)

    def add_var(self, name: str, lo: int, hi: int) -> str:
        if any(name == v for v, _, _ in self.variables):
            raise PreconditionError(f"variable {name!r} declared twice")
        if lo > hi:
            raise PreconditionError(f"variable {name!r} has empty bounds [{lo},{hi}]")
        self.variables.append((name, lo, hi))
        return name

    def add_constraint(self, coeffs: dict[str, int], relation: str, rhs: int):
        if relation not in (LE, EQ, GE):
            raise PreconditionError(f"unknown relation {relation!r}")
        declared = {v for v, _, _ in self.variables}
        for name in coeffs:
            if name not in declared:
                raise PreconditionError(f"constraint references unknown variable {name!r}")
        self.constraints.append(Constraint(dict(coeffs), relation, rhs))

    def set_objective(self, coeffs: dict[str, int]):
        declared = {v for v, _, _ in self.variables}
        for name in coeffs:
            if name not in declared:
                raise PreconditionError(f"objective references unknown variable {name!r}")
        self.objective = dict(coeffs)


@dataclass(frozen=True)
class BipSolution:
    status: str  # "optimal" | "infeasible"
    assignment: dict[str, int]
    objective_value: int


def _ceildiv(p: int, q: int) -> int:
    return -(-p // q)


def solve(model: BipModel, node_budget: int = 2_000_000) -> BipSolution:
    """Maximize the objective exactly, or report infeasibility.

    Raises ResourceLimitError when the node budget runs out; never returns a
    wrong answer.
    """
    names = [v for v, _, _ in model.variables]
    index = {v: i for i, v in enumerate(names)}
    lows = [lo for _, lo, _ in model.variables]
    highs = [hi for _, _, hi in model.variables]
    # normalize constraints into <= rows over variable indices
    rows: list[tuple[list[tuple[int, int]], int]] = []
    for c in model.constraints:
        terms = sorted((index[v], a) for v, a in c.coeffs.items() if a != 0)
        if c.relation in (LE, EQ):
            rows.append(([(i, a) for i, a in terms], c.rhs))
        if c.relation in (GE, EQ):
            rows.append(([(i, -a) for i, a in terms], -c.rhs))
        if not terms:
            ok = {LE: 0 <= c.rhs, GE: 0 >= c.rhs, EQ: c.rhs == 0}[c.relation]
            if not ok:
                return BipSolution("infeasible", {}, 0)
    obj = [(index[v], a) for v, a in sorted(model.objective.items()) if a != 0]

    def propagate(lo: list[int], hi: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for terms, rhs in rows:
                minact = 0
                for i, a in terms:
                    minact += a * lo[i] if a > 0 else a * hi[i]
                if minact > rhs:
                    return False
                for i, a in terms:
                    contrib = a * lo[i] if a > 0 else a * hi[i]
                    slack = rhs - (minact - contrib)
                    if a > 0:
                        bound = slack // a
                        if bound < hi[i]:
                            if bound < lo[i]:
                                return False
                            hi[i] = bound
                            changed = True
                    else:
                        bound = _ceildiv(slack, a)
                        if bound > lo[i]:
                            if bound > hi[i]:
                                return False
                            lo[i] = bound
                            changed = True
        return True

    def objective_bound(lo: list[int], hi: list[int]) -> int:
        return sum(a * (hi[i] if a > 0 else lo[i]) for i, a in obj)

    best: dict[str, int] | None = None
    best_val = 0
    nodes = 0

    def search(lo: list[int], hi: list[int]):
        nonlocal best, best_val, nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(f"bip node budget {node_budget} exceeded")
        if not propagate(lo, hi):
            return
        if best is not None and objective_bound(lo, hi) <= best_val:
            return
        free = [i for i in range(len(names)) if lo[i] < hi[i]]
        if not free:
            value = sum(a * lo[i] for i, a in obj)
            if best is None or value > best_val:
                best = {names[i]: lo[i] for i in range(len(names))}
                best_val = value
            return
        # branch on the tightest domain; names break ties so declaration
        # order cannot change the outcome
        pick = min(free, key=lambda i: (hi[i] - lo[i], names[i]))
        coeff = model.objective.get(names[pick], 0)
        values = range(hi[pick], lo[pick] - 1, -1) if coeff > 0 else range(lo[pick], hi[pick] + 1)
        for val in values:
            nlo, nhi = list(lo), list(hi)
            nlo[pick] = nhi[pick] = val
            search(nlo, nhi)

    search(list(lows), list(highs))
    if best is None:
        return BipSolution("infeasible", {}, 0)
    return BipSolution("optimal", best, best_val)
