"""Self-tests of the benchmark: span arithmetic, wrapper restore, exact repeats.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about a minute: the repeat tests solve one game per workload twice).
"""

import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import smpe.solver  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from smpe.errors import NoConvergence  # noqa: E402


def test_self_time_of_nested_spans():
    # solve [0, 20] holds atom_fixed_point [1, 9], which holds two
    # build_stage_game spans [2, 5] and [6, 8]; then nash_enumerate [12, 16]
    ticks = iter([0, 1, 2, 5, 6, 8, 9, 12, 16, 20])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    solve = tracer.begin("solver.solve")
    fixed = tracer.begin("solver.atom_fixed_point")
    for _ in range(2):
        tracer.end(tracer.begin("nash.build_stage_game"))
    tracer.end(fixed)
    tracer.end(tracer.begin("nash.nash_enumerate"))
    tracer.end(solve)
    summary = tracer.summary()
    assert summary["solver.solve"] == {"calls": 1, "total_s": 20, "self_s": 20 - 8 - 4}
    assert summary["solver.atom_fixed_point"] == {"calls": 1, "total_s": 8, "self_s": 8 - 3 - 2}
    assert summary["nash.build_stage_game"] == {"calls": 2, "total_s": 5, "self_s": 5}
    assert summary["nash.nash_enumerate"] == {"calls": 1, "total_s": 4, "self_s": 4}
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1, 0]


@pytest.fixture
def layered_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_layers")
    exec(
        "def inner(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(x)\n"
        "    return [x] * x\n"
        "def outer(x):\n"
        "    return inner(x) + inner(x)\n",
        module.__dict__,
    )
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_wrappers_nest_count_and_restore(layered_module):
    originals = (layered_module.inner, layered_module.outer)
    tracer = spans.Tracer(
        [
            spans.Target(layered_module.__name__, "outer", "outer"),
            spans.Target(
                layered_module.__name__, "inner", "inner", lambda a, k, r: {"items": len(r)}
            ),
            spans.Target(layered_module.__name__, "absent", "absent"),
        ]
    )
    with pytest.raises(ValueError):
        with tracer:
            assert layered_module.outer(3) == [3] * 6
            assert layered_module.inner is not originals[0]
            layered_module.outer(-1)
    assert (layered_module.inner, layered_module.outer) == originals
    assert tracer.still_wrapped() == []
    assert tracer.missing == [f"{layered_module.__name__}.absent"]
    assert [(name, parent) for name, _, _, parent, _ in tracer.spans] == [
        ("outer", -1),
        ("inner", 0),
        ("inner", 0),
        ("outer", -1),
        ("inner", 3),
    ]
    assert tracer.counters == {"items": 6}
    assert all(end is not None for _, _, end, _, _ in tracer.spans)


def test_library_targets_all_exist_and_are_restored():
    def current():
        return [
            getattr(sys.modules[t.module], t.attr) for t in workloads.TARGETS
        ]

    before = current()
    tracer = spans.Tracer(workloads.TARGETS)
    with tracer:
        assert all(now is not then for now, then in zip(current(), before))
    assert tracer.missing == []
    assert tracer.still_wrapped() == []
    assert all(now is then for now, then in zip(current(), before))


def test_iterations_and_restarts_count_every_attempt():
    # two attempts of two outer iterations each, neither certifies: the
    # discarded attempt and the raising solve must both be counted
    spec = workloads.make_game([4242, 0], workloads.ATOM_HEAVY)
    opts = smpe.solver.SolveOptions(max_iter=2, restarts=1)
    tracer = spans.Tracer(workloads.TARGETS)
    with tracer:
        with pytest.raises(NoConvergence):
            smpe.solver.solve(spec, opts)
    metrics = workloads.layer_metrics(tracer, 0.0)
    assert metrics["solver.restarts"]["value"] == 1
    assert metrics["solver.outer_iterations"]["value"] == 4
    assert metrics["solver.solve.self_s"]["value"] > 0


@pytest.mark.parametrize("n_games, fixed", [(10, 1), (18, 3), (4, 4), (1, 1)])
def test_spread_places_each_simulation_once_after_its_solve(n_games, fixed):
    plan = [(g, s0) for g in range(fixed) for s0 in range(3)]
    slots = workloads.spread(plan, n_games)
    placed = [item for slot in sorted(slots) for item in slots[slot]]
    assert placed == plan
    assert all(0 <= slot < n_games for slot in slots)
    assert all(g <= slot for slot, items in slots.items() for g, _ in items)


def test_fixed_set_does_not_depend_on_the_seed():
    fixed = workloads.WORKLOADS["atom-heavy"].fixed
    orders = [workloads.pool_keys("atom-heavy", seed, fixed) for seed in (1, 2, 3)]
    assert all(keys[:fixed] == [[4242, i] for i in range(fixed)] for keys in orders)
    assert len({tuple(map(tuple, keys)) for keys in orders}) == 3
    assert all(sorted(keys) == sorted(orders[0]) for keys in orders)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_game_run_repeats_counts_and_digest(name, monkeypatch):
    monkeypatch.setattr(workloads, "OVERHEAD_ROUNDS", 1)
    workload = replace(workloads.WORKLOADS[name], fixed=1)
    first = workloads.run_traced(workload, 4242)
    second = workloads.run_traced(workload, 4242)
    assert first.failed == 0 and second.failed == 0, first.failures + second.failures

    def counts(report):
        return {k: m["value"] for k, m in report.metrics.items() if m["unit"] == "count"}

    assert counts(first) == counts(second)
    assert first.digest == second.digest
    assert counts(first)["verify.deviation_residual.calls"] > 0
