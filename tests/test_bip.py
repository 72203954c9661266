import itertools
import random

import pytest

from starforest import bip
from starforest.errors import PreconditionError, ResourceLimitError


def grid_optimum(model: bip.BipModel):
    """Exhaustive reference: maximize over the whole bound box."""
    names = [v for v, _, _ in model.variables]
    boxes = [range(lo, hi + 1) for _, lo, hi in model.variables]
    best = None
    for point in itertools.product(*boxes):
        env = dict(zip(names, point))
        ok = True
        for c in model.constraints:
            lhs = sum(a * env[v] for v, a in c.coeffs.items())
            if c.relation == bip.LE and lhs > c.rhs:
                ok = False
            elif c.relation == bip.GE and lhs < c.rhs:
                ok = False
            elif c.relation == bip.EQ and lhs != c.rhs:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        value = sum(a * env[v] for v, a in model.objective.items())
        if best is None or value > best[0]:
            best = (value, env)
    return best


def random_model(rng: random.Random) -> bip.BipModel:
    model = bip.BipModel()
    nvars = rng.randint(1, 6)
    for i in range(nvars):
        lo = rng.randint(-3, 4)
        model.add_var(f"v{i}", lo, lo + rng.randint(0, 8))
    for _ in range(rng.randint(0, 5)):
        coeffs = {
            f"v{i}": rng.randint(-3, 3)
            for i in rng.sample(range(nvars), rng.randint(1, nvars))
        }
        model.add_constraint(coeffs, rng.choice([bip.LE, bip.EQ, bip.GE]), rng.randint(-6, 10))
    model.set_objective({f"v{i}": rng.randint(-3, 3) for i in range(nvars)})
    return model


def random_wide_model(rng: random.Random) -> bip.BipModel:
    """Up to 8 variables on a grid of at most 4096 points.

    Right-hand sides sit near the row's value at a random point of the box,
    so most models are feasible and many rows are tight.  Objective
    coefficients may be zero or negative, and one objective in five is empty.
    """
    model = bip.BipModel()
    nvars = rng.randint(1, 8)
    points = 1
    near: dict[str, int] = {}
    for i in range(nvars):
        width = rng.randint(0, min(5, 4096 // points - 1))
        points *= width + 1
        lo = rng.randint(-3, 3)
        model.add_var(f"v{i}", lo, lo + width)
        near[f"v{i}"] = rng.randint(lo, lo + width)
    for _ in range(rng.randint(0, 6)):
        coeffs = {
            f"v{i}": rng.randint(-3, 3)
            for i in rng.sample(range(nvars), rng.randint(1, min(nvars, 4)))
        }
        value = sum(a * near[v] for v, a in coeffs.items())
        relation = rng.choice([bip.LE, bip.EQ, bip.GE])
        shift = rng.randint(-2, 4) if relation != bip.EQ else rng.choice([0, 0, 0, 1])
        model.add_constraint(coeffs, relation, value - shift if relation == bip.GE else value + shift)
    if rng.random() >= 0.2:
        model.set_objective({f"v{i}": rng.randint(-3, 3) for i in range(nvars)})
    return model


def assert_feasible(model: bip.BipModel, env: dict[str, int]):
    for name, lo, hi in model.variables:
        assert lo <= env[name] <= hi
    for c in model.constraints:
        lhs = sum(a * env[v] for v, a in c.coeffs.items())
        assert {bip.LE: lhs <= c.rhs, bip.GE: lhs >= c.rhs, bip.EQ: lhs == c.rhs}[c.relation]


class TestExamples:
    def test_single_bound(self):
        m = bip.BipModel()
        m.add_var("x", 0, 10)
        m.add_constraint({"x": 1}, bip.LE, 3)
        m.set_objective({"x": 1})
        sol = bip.solve(m)
        assert sol.status == "optimal" and sol.assignment["x"] == 3

    def test_infeasible(self):
        m = bip.BipModel()
        m.add_var("x", 0, 2)
        m.add_var("y", 0, 2)
        m.add_constraint({"x": 1, "y": 1}, bip.EQ, 5)
        m.set_objective({"x": 1, "y": 1})
        assert bip.solve(m).status == "infeasible"

    def test_weighted(self):
        m = bip.BipModel()
        m.add_var("a", 0, 3)
        m.add_var("b", 0, 3)
        m.add_constraint({"a": 1, "b": 1}, bip.LE, 4)
        m.set_objective({"a": 2, "b": 1})
        sol = bip.solve(m)
        assert sol.objective_value == 7 and sol.assignment == {"a": 3, "b": 1}

    def test_empty_model(self):
        sol = bip.solve(bip.BipModel())
        assert sol.status == "optimal" and sol.objective_value == 0

    def test_validation(self):
        m = bip.BipModel()
        m.add_var("x", 0, 1)
        with pytest.raises(PreconditionError):
            m.add_var("x", 0, 1)
        with pytest.raises(PreconditionError):
            m.add_var("y", 3, 1)
        with pytest.raises(PreconditionError):
            m.add_constraint({"z": 1}, bip.LE, 0)

    def test_vc_shaped_model_node_count(self):
        # a program build_vc_model emits for a seed-1 vc_guess pair: two
        # type-I centres per side; the incumbent cut and large-first leaf
        # counts solve it in 11 nodes, where bounding only at the objective
        # check and trying small leaf counts first takes 34
        m = bip.BipModel()
        for name, lo, hi in [
            ("alpha_0", 2, 9), ("x_0_c0", 0, 2), ("x_0_c1", 0, 3),
            ("alpha_1", 2, 9), ("x_1_c1", 0, 3), ("x_1_c2", 0, 2),
            ("gamma_0", 2, 8), ("y_0_c0", 0, 2), ("y_0_c1", 0, 2),
            ("gamma_1", 2, 8), ("y_1_c1", 0, 2), ("y_1_c2", 0, 2),
        ]:
            m.add_var(name, lo, hi)
        for coeffs, relation, rhs in [
            ({"alpha_0": 1, "x_0_c0": -1, "x_0_c1": -1}, bip.EQ, 1),
            ({"alpha_1": 1, "x_1_c1": -1, "x_1_c2": -1}, bip.EQ, 1),
            ({"x_0_c0": 1}, bip.LE, 2),
            ({"x_0_c1": 1, "x_1_c1": 1}, bip.LE, 3),
            ({"x_1_c2": 1}, bip.LE, 2),
            ({"gamma_0": 1, "y_0_c0": -1, "y_0_c1": -1}, bip.EQ, 1),
            ({"gamma_1": 1, "y_1_c1": -1, "y_1_c2": -1}, bip.EQ, 1),
            ({"y_0_c0": 1}, bip.LE, 2),
            ({"y_0_c1": 1, "y_1_c1": 1}, bip.LE, 2),
            ({"y_1_c2": 1}, bip.LE, 2),
            ({"alpha_0": 1, "gamma_0": -1}, bip.EQ, 0),
            ({"alpha_1": 1, "gamma_1": -1}, bip.EQ, 0),
        ]:
            m.add_constraint(coeffs, relation, rhs)
        m.set_objective({"alpha_0": 1, "alpha_1": 1})
        sol = bip.solve(m, node_budget=11)
        # the y side caps gamma_0 + gamma_1 at 2 + 2 + 2 + 2
        assert sol.status == "optimal" and sol.objective_value == 8
        assert_feasible(m, sol.assignment)
        with pytest.raises(ResourceLimitError):
            bip.solve(m, node_budget=10)

    def test_node_budget(self):
        m = bip.BipModel()
        for i in range(8):
            m.add_var(f"v{i}", 0, 6)
        m.add_constraint({f"v{i}": 1 for i in range(8)}, bip.LE, 24)
        m.set_objective({f"v{i}": (-1) ** i for i in range(8)})
        with pytest.raises(ResourceLimitError):
            bip.solve(m, node_budget=3)


class TestAgainstGrid:
    def test_200_random_models(self):
        rng = random.Random(41)
        for _ in range(200):
            model = random_model(rng)
            sol = bip.solve(model)
            ref = grid_optimum(model)
            if ref is None:
                assert sol.status == "infeasible"
            else:
                assert sol.status == "optimal"
                assert sol.objective_value == ref[0]
                # returned assignment must itself be feasible and optimal
                env = sol.assignment
                for c in model.constraints:
                    lhs = sum(a * env[v] for v, a in c.coeffs.items())
                    assert {bip.LE: lhs <= c.rhs, bip.GE: lhs >= c.rhs, bip.EQ: lhs == c.rhs}[c.relation]

    def test_300_wide_models(self):
        # zero, negative and empty objectives: with an empty one the first
        # feasible leaf is optimal, and the incumbent cut must keep it
        rng = random.Random(44)
        empty = 0
        for _ in range(300):
            model = random_wide_model(rng)
            sol = bip.solve(model)
            ref = grid_optimum(model)
            if ref is None:
                assert sol.status == "infeasible" and sol.assignment == {}
                continue
            empty += not model.objective
            assert sol.status == "optimal"
            assert sol.objective_value == ref[0]
            assert_feasible(model, sol.assignment)
            value = sum(a * sol.assignment[v] for v, a in model.objective.items())
            assert value == sol.objective_value
        assert empty >= 30

    def test_scaling_invariance(self):
        rng = random.Random(42)
        for _ in range(40):
            model = random_model(rng)
            factor = rng.randint(2, 5)
            scaled = bip.BipModel()
            for name, lo, hi in model.variables:
                scaled.add_var(name, lo, hi)
            for c in model.constraints:
                scaled.add_constraint(
                    {v: factor * a for v, a in c.coeffs.items()}, c.relation, factor * c.rhs
                )
            scaled.set_objective({v: factor * a for v, a in model.objective.items()})
            base = bip.solve(model)
            other = bip.solve(scaled)
            assert base.status == other.status
            if base.status == "optimal":
                assert other.objective_value == factor * base.objective_value
                # the scaled argmax stays optimal for the original objective
                value = sum(a * other.assignment[v] for v, a in model.objective.items())
                assert value == base.objective_value

    def test_declaration_order_independence(self):
        rng = random.Random(43)
        for _ in range(40):
            model = random_model(rng)
            shuffled = bip.BipModel()
            order = list(model.variables)
            rng.shuffle(order)
            for name, lo, hi in order:
                shuffled.add_var(name, lo, hi)
            for c in model.constraints:
                shuffled.add_constraint(dict(c.coeffs), c.relation, c.rhs)
            shuffled.set_objective(dict(model.objective))
            a, b = bip.solve(model), bip.solve(shuffled)
            assert a.status == b.status
            assert a.assignment == b.assignment and a.objective_value == b.objective_value
