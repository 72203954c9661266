"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from starforest import graph, vc_ilp  # noqa: E402
from starforest.errors import ResourceLimitError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _pool_digest(name: str, seed: int) -> str:
    wl = workloads.WORKLOADS[name]
    return run.pool_digest([
        graph.serialize_instance(graph.Instance(p.g1, p.g2, 0)) for p in wl.pool(seed)
    ])


def _run(capsys, *argv: str) -> tuple[int, dict]:
    status = run.main(list(argv))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return status, json.loads(last)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_determines_the_instances(name):
    assert _pool_digest(name, 3) == _pool_digest(name, 3)
    assert _pool_digest(name, 3) != _pool_digest(name, 4)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


def test_planted_wrong_answer_fails_the_run(capsys, monkeypatch):
    original = vc_ilp.solve_vc
    monkeypatch.setattr(vc_ilp, "solve_vc", lambda *a, **k: original(*a, **k) + 1)
    status, result = _run(capsys, "--workload", "vc_guess", "--seed", "1", "--seconds", "0.1")
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == 0


def test_failed_solves_are_counted_not_dropped(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise ResourceLimitError("planted refusal")

    monkeypatch.setattr(vc_ilp, "solve_vc", refuse)
    status, result = _run(capsys, "--workload", "vc_guess", "--seed", "1", "--seconds", "0.1")
    assert status == 0
    assert result["failed"] == result["attempted"] > 0


def _module_state():
    modules = [importlib.import_module(f"starforest.{m}") for m in tracing.TRACED_MODULES]
    return {m.__name__: dict(vars(m)) for m in modules}


def _assert_same_state(before, after):
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_wrappers_leave_module_attributes_as_found():
    before = _module_state()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert vc_ilp.solve_vc is not before["starforest.vc_ilp"]["solve_vc"]
        wl = workloads.WORKLOADS["vc_guess"]
        pair = wl.pool(1)[0]
        with tracer.solve(0):
            wl.solve(graph.serialize_instance(graph.Instance(pair.g1, pair.g2, 0)))
    _assert_same_state(before, _module_state())
    assert tracer.calls["vc_ilp.solve_vc"] == 1
    assert tracer.calls["bip.solve"] > 0
    assert tracer.totals["vc_ilp.guesses"] > 0


def test_wrappers_are_restored_when_the_block_raises():
    before = _module_state()
    with pytest.raises(KeyError):
        with tracing.Tracer().installed():
            raise KeyError("planted")
    _assert_same_state(before, _module_state())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(capsys, trace, section):
    status, result = _run(capsys, "--workload", "cc_catalog", "--seed", "2",
                          "--seconds", "0.1", "--trace", str(trace))
    assert status == 0 and result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in SPEC[section]]
