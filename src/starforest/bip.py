"""Exact solver for bounded-variable integer linear programs.

Small guess-conditioned models are the only customers, so the engine is a
plain depth-first branch and bound over variable values with interval
constraint propagation.  No LP relaxation, no floats anywhere.

Every constraint becomes one or two normalized rows sum(a * x) <= rhs, and
each variable lists the rows it appears in.  Propagation runs a worklist:
the root queues every row, a child queues only the rows of the variable it
fixed, and a row that narrows a variable's bounds queues that variable's
other rows; a flag keeps each row on the list at most once.  Narrowing is
monotone, so the fixpoint, and with it every node's domains, does not
depend on the order in which rows are taken.

The objective is integral, so once an incumbent of value best exists,
"objective >= best + 1" is one more row.  It tightens bounds like any
other row, and a node whose domains cannot beat the incumbent fails
propagation.  Branching fixes the tightest domain (names break ties) and
tries large values first unless the variable's objective coefficient is
negative, so a good incumbent comes early.
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
    # variable name -> its position in `variables`
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = {v: i for i, (v, _, _) in enumerate(self.variables)}

    def add_var(self, name: str, lo: int, hi: int) -> str:
        if name in self.index:
            raise PreconditionError(f"variable {name!r} declared twice")
        if lo > hi:
            raise PreconditionError(f"variable {name!r} has empty bounds [{lo},{hi}]")
        self.index[name] = len(self.variables)
        self.variables.append((name, lo, hi))
        return name

    def add_constraint(self, coeffs: dict[str, int], relation: str, rhs: int):
        if relation not in (LE, EQ, GE):
            raise PreconditionError(f"unknown relation {relation!r}")
        for name in coeffs:
            if name not in self.index:
                raise PreconditionError(f"constraint references unknown variable {name!r}")
        self.constraints.append(Constraint(dict(coeffs), relation, rhs))

    def set_objective(self, coeffs: dict[str, int]):
        for name in coeffs:
            if name not in self.index:
                raise PreconditionError(f"objective references unknown variable {name!r}")
        self.objective = dict(coeffs)


@dataclass(frozen=True)
class BipSolution:
    status: str  # "optimal" | "infeasible"
    assignment: dict[str, int]
    objective_value: int


def solve(model: BipModel, node_budget: int = 2_000_000) -> BipSolution:
    """Maximize the objective exactly, or report infeasibility.

    Raises ResourceLimitError when the node budget runs out; never returns a
    wrong answer.
    """
    names = [v for v, _, _ in model.variables]
    index = model.index
    # normalize constraints into rows sum(a * x) <= rhs over variable indices
    rows: list[list[tuple[int, int]]] = []
    rhss: list[int] = []
    for c in model.constraints:
        terms = sorted((index[v], a) for v, a in c.coeffs.items() if a != 0)
        if not terms:
            if not {LE: 0 <= c.rhs, GE: 0 >= c.rhs, EQ: c.rhs == 0}[c.relation]:
                return BipSolution("infeasible", {}, 0)
            continue
        if c.relation in (LE, EQ):
            rows.append(terms)
            rhss.append(c.rhs)
        if c.relation in (GE, EQ):
            rows.append([(i, -a) for i, a in terms])
            rhss.append(-c.rhs)
    watch: list[list[int]] = [[] for _ in names]
    for r, terms in enumerate(rows):
        for i, _ in terms:
            watch[i].append(r)
    obj = [(index[v], a) for v, a in sorted(model.objective.items()) if a != 0]
    # the incumbent cut -objective <= -(best + 1); watched once there is a best
    cut = len(rows)
    rows.append([(i, -a) for i, a in obj])
    rhss.append(0)
    queued = [False] * len(rows)

    def propagate(lo: list[int], hi: list[int], work: list[int]) -> bool:
        """Narrow lo/hi to the fixpoint of every row; False if a domain empties.

        Only the rows on `work`, each flagged in `queued`, may be unsettled.
        """
        while work:
            r = work.pop()
            terms = rows[r]
            minact = 0
            for i, a in terms:
                minact += a * lo[i] if a > 0 else a * hi[i]
            slack = rhss[r] - minact
            if slack < 0:
                queued[r] = False
                for q in work:
                    queued[q] = False
                return False
            # the minimum activity does not move while this row narrows its
            # own variables, so one pass settles it: it stays flagged meanwhile
            for i, a in terms:
                if a > 0:
                    bound = lo[i] + slack // a
                    if bound >= hi[i]:
                        continue
                    hi[i] = bound
                else:
                    bound = hi[i] - slack // -a
                    if bound <= lo[i]:
                        continue
                    lo[i] = bound
                for q in watch[i]:
                    if not queued[q]:
                        queued[q] = True
                        work.append(q)
            queued[r] = False
        return True

    # branch on the tightest domain; names break ties so declaration order
    # cannot change the outcome
    by_name = sorted(range(len(names)), key=names.__getitem__)
    descending = [model.objective.get(v, 0) >= 0 for v in names]
    best: list[int] | None = None
    nodes = 0

    def search(lo: list[int], hi: list[int], work: list[int]):
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(f"bip node budget {node_budget} exceeded")
        if not propagate(lo, hi, work):
            return
        pick = -1
        width = 0
        for i in by_name:
            w = hi[i] - lo[i]
            if w and (pick < 0 or w < width):
                pick, width = i, w
        if pick < 0:
            # the cut let this leaf through, so it beats any incumbent
            if best is None:
                for i, _ in rows[cut]:
                    watch[i].append(cut)
            best = lo
            rhss[cut] = -(sum(a * lo[i] for i, a in obj) + 1)
            return
        if descending[pick]:
            values = range(hi[pick], lo[pick] - 1, -1)
        else:
            values = range(lo[pick], hi[pick] + 1)
        for val in values:
            nlo, nhi = lo[:], hi[:]
            nlo[pick] = nhi[pick] = val
            work = watch[pick][:]
            if best is not None and cut not in work:
                work.append(cut)
            for q in work:
                queued[q] = True
            search(nlo, nhi, work)

    root = list(range(cut))
    for q in root:
        queued[q] = True
    search([lo for _, lo, _ in model.variables], [hi for _, _, hi in model.variables], root)
    if best is None:
        return BipSolution("infeasible", {}, 0)
    return BipSolution("optimal", dict(zip(names, best)), -rhss[cut] - 1)
