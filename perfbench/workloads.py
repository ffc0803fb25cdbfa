"""Workloads of the smpe benchmark: seeded inputs, timed loop, correctness gate.

Each workload solves the games of its pool in ``pools.json`` (see
``make_pools.py``): the first keys ``[4242, i]`` of its family that the
seed commit solves to convergence and certifies, which for mixture-32 is
the acceptance batch ``[4242, 0..9]``. The first games of the pool form
the fixed set, the games that are simulated and traced; the run's seed
orders the rest of the pool and picks the simulation start states. Cost
varies with the game (outer iterations grow steeply with the discount:
about 50 at 0.45, 260 at 0.9; simulation throughput moves by a third from
one game to the next), so the simulated games do not depend on the seed,
and the timed loop solves whole passes over the pool: every seed does the
same work, and a time box cannot leave out a different expensive game on
each seed.

The library is driven through module attributes (``smpe.solver.solve``,
``smpe.verify.simulate_payoffs``, ...) with default options and
``SMPE_THREADS`` left as found, so that :class:`spans.Tracer` can wrap the
same names the library's own callers resolve.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import smpe.game
import smpe.gamefile
import smpe.kernels
import smpe.solver
import smpe.verify
from smpe.errors import NoConvergence
from spans import Target, Tracer

POOLS = Path(__file__).resolve().parent / "pools.json"
EPS_LIMIT = 1e-6
SUNSPOT_CELLS = 2
SIM_PATHS = 100_000
START_STATES = 3
WARM_PATHS = 10_000
TRUNCATION = 1e-4
SIM_SEED_BASE = 9000
CONFIRM_SEED_OFFSET = 1_000_000
OVERHEAD_ROUNDS = 3
PASS_LIMIT = 1.25

MIXTURE = {"n_cells": 32, "j_components": 2, "k_atoms": 1}
ATOM_HEAVY = {"n_cells": 4, "j_components": 2, "k_atoms": 8}


@dataclass(frozen=True)
class Workload:
    """The first ``fixed`` games of the pool form the fixed set, whatever
    the seed: the traced run solves exactly these, each is simulated from
    ``START_STATES`` start states, and the digest hashes their results and
    simulations."""

    name: str
    family: dict
    sunspot: bool
    fixed: int


# sunspot-64 (criterion 9's two-cell extensions of the mixture-32 pool) runs
# by name but is not in BENCHMARK.json: a third workload leaves each run too
# little time to average out this kind of machine's speed changes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixture-32", MIXTURE, sunspot=False, fixed=1),
        Workload("sunspot-64", MIXTURE, sunspot=True, fixed=1),
        Workload("atom-heavy", ATOM_HEAVY, sunspot=False, fixed=3),
    )
}


def _cell_kind(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    spec = args[3] if len(args) > 3 else kwargs["spec"]
    kind = "divisible" if spec.space.divisible[int(state)] else "atomic"
    return {f"nash.build_stage_game.calls_{kind}": 1}


TARGETS = (
    Target("smpe.solver", "solve", "solver.solve"),
    # One call per attempt, so attempts that a restart discards and solves
    # that raise NoConvergence are counted too.
    Target(
        "smpe.solver",
        "_outer_loop",
        "solver.outer_loop",
        lambda a, k, r: {"solver.outer_iterations": a[2].iteration},
    ),
    Target("smpe.solver", "validate_game", "game.validate_game"),
    Target("smpe.solver", "aggregate_moments", "nash.aggregate_moments"),
    Target("smpe.solver", "stage_payoff_tensor", "nash.stage_payoff_tensor"),
    Target("smpe.solver", "build_stage_game", "nash.build_stage_game", _cell_kind),
    Target(
        "smpe.solver",
        "nash_enumerate",
        "nash.nash_enumerate",
        lambda a, k, r: {"nash.equilibria": len(r)},
    ),
    Target(
        "smpe.solver",
        "project_to_hull",
        "hull.project_to_hull",
        lambda a, k, r: {"hull.points": len(a[1])},
    ),
    Target(
        "smpe.solver",
        "purify_selection",
        "measure.purify_selection",
        lambda a, k, r: {
            "measure.pieces": sum(len(p) for p in r.pieces),
            "measure.cells": r.n_cells,
        },
    ),
    Target(
        "smpe.solver",
        "atom_fixed_point",
        "solver.atom_fixed_point",
        lambda a, k, r: {"solver.atom_steps": r[1]},
    ),
    Target("smpe.solver", "atom_value_operator", "solver.atom_value_operator"),
    Target("smpe.solver", "_atom_strategies", "solver.atom_strategies"),
    Target("smpe.verify", "deviation_residual", "verify.deviation_residual"),
    Target(
        "smpe.verify",
        "simulate_payoffs",
        "verify.simulate_payoffs",
        lambda a, k, r: {"verify.path_steps": r.paths * r.horizon},
    ),
    Target("smpe.game", "sunspot_extend", "game.sunspot_extend"),
    Target("smpe.game", "validate_game", "game.validate_game"),
    Target("smpe.kernels", "random_nowak_game", "kernels.random_nowak_game"),
    Target("smpe.kernels", "kernel_matrix", "kernels.kernel_matrix"),
    Target("smpe.kernels", "check_coarser", "kernels.check_coarser"),
)


@dataclass
class Inputs:
    """One set-up's output, the fixed set first. ``problems[g]`` collects
    every check game ``g`` failed; each solve of such a game counts as a
    failed operation."""

    seed: int
    keys: list
    specs: list
    problems: dict


@dataclass
class Report:
    metrics: dict
    attempted: int
    failed: int
    failures: list
    digest: str
    context: dict


def load_pools() -> dict:
    with open(POOLS, encoding="utf-8") as fh:
        return json.load(fh)


def pool_keys(name: str, seed: int, fixed: int = 0) -> list:
    """The workload's pool of generator keys: the first ``fixed`` in pool
    order, then the others in an order drawn from ``seed``."""
    pools = load_pools()
    keys = [[pools["pool_seed"], i] for i in pools[name]["indices"]]
    rest = keys[fixed:]
    order = np.random.Generator(np.random.Philox(key=[seed, 7000])).permutation(len(rest))
    return keys[:fixed] + [rest[i] for i in order]


def make_game(key, family: dict):
    return smpe.kernels.random_nowak_game(seed=key, **family)[1]


def extend_checked(spec, problems: list):
    """Two-cell sunspot extension with criterion 9's input checks."""
    extended = smpe.game.sunspot_extend(spec, SUNSPOT_CELLS)
    if not smpe.game.validate_game(extended).passed:
        problems.append("sunspot extension fails validate_game")
    if not smpe.kernels.check_coarser(smpe.kernels.kernel_matrix(extended)):
        problems.append("sunspot extension fails check_coarser")
    return extended


def setup(workload: Workload, seed: int) -> Inputs:
    """Generate the pool's games and check each one's sunspot extension;
    sunspot-64 solves the extensions."""
    keys = pool_keys(workload.name, seed, workload.fixed)
    specs = [make_game(key, workload.family) for key in keys]
    problems = {g: [] for g in range(len(specs))}
    extended = [extend_checked(spec, problems[g]) for g, spec in enumerate(specs)]
    if workload.sunspot:
        specs = extended
    return Inputs(seed=seed, keys=keys, specs=specs, problems=problems)


def solve_game(spec, problems: list):
    try:
        return smpe.solver.solve(spec, smpe.solver.SolveOptions())
    except NoConvergence as err:
        problems.append(f"no convergence: {err}")
        return err.result


def simulate(spec, result, s0: int, paths: int, seed: int):
    return smpe.verify.simulate_payoffs(
        spec, result, s0=s0, paths=paths, seed=seed, truncation=TRUNCATION
    )


def warm_up(seed: int) -> None:
    """Untimed: the first solve in a process runs up to 40% slower than the
    next ones, so one small game is solved and simulated first."""
    spec = make_game(pool_keys("atom-heavy", seed, 1)[0], ATOM_HEAVY)
    result = solve_game(spec, [])
    simulate(spec, result, 0, WARM_PATHS, SIM_SEED_BASE)


def solve_loop(inputs: Inputs, count: int, tracer=None, clock=time.perf_counter):
    """Solve games 0 .. count-1 once, in order. Returns ([(game, result,
    seconds)], elapsed seconds), both read from ``clock``."""
    records = []
    gc.collect()
    start = clock()
    for g in range(count):
        if tracer is not None:
            tracer.game = inputs.keys[g]
        t0 = clock()
        result = solve_game(inputs.specs[g], inputs.problems[g])
        records.append((g, result, clock() - t0))
    return records, clock() - start


def spread(plan: list, n_games: int) -> dict:
    """Slots for the simulations of ``plan``, evenly between a pass's
    ``n_games`` solves: {game position: [(game, start state)]}. A
    simulation never comes before the solve of its own game."""
    slots = {}
    for j, (g, s0) in enumerate(plan):
        slot = max(g, (j + 1) * n_games // len(plan) - 1)
        slots.setdefault(slot, []).append((g, s0))
    return slots


def timed_passes(workload: Workload, inputs: Inputs, seconds: float, setup_times: list):
    """The timed loop: whole passes over the pool, one pass, then another
    while one more pass of the last one's length would end within
    ``PASS_LIMIT`` x ``seconds``, which bounds a run's length.

    A pass solves every game in order, runs each simulation of the fixed
    set's plan once, spread between the solves and on the result of the
    same pass, and times a fresh set-up after every solve and simulation.
    Solves, simulations and set-ups are so sampled over the whole run, not
    over one stretch of it: this kind of machine changes speed by a tenth
    or more from one minute to the next. Returns ([(game, result,
    seconds)], [(game, report, seconds)], passes); set-up times are
    appended to ``setup_times``.
    """
    slots = spread(sim_plan(workload, inputs), len(inputs.specs))
    solves, sims, passes = [], [], 0

    def timed_setup():
        t0 = time.perf_counter()
        setup(workload, inputs.seed)
        setup_times.append(time.perf_counter() - t0)

    gc.collect()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        latest = {}
        for g, spec in enumerate(inputs.specs):
            t0 = time.perf_counter()
            latest[g] = solve_game(spec, inputs.problems[g])
            solves.append((g, latest[g], time.perf_counter() - t0))
            timed_setup()
            for sg, s0 in slots.get(g, ()):
                t0 = time.perf_counter()
                report = simulate(inputs.specs[sg], latest[sg], s0, SIM_PATHS, SIM_SEED_BASE + s0)
                sims.append((sg, report, time.perf_counter() - t0))
                timed_setup()
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > PASS_LIMIT * seconds:
            return solves, sims, passes


def _canonical(doc) -> bytes:
    return smpe.gamefile.canonical_bytes(doc)


def simulation_missed(result, report) -> bool:
    """Criterion 8's rule: |mean - reported value| <= 3 SE + truncation bound."""
    target = np.asarray(result.values.averages(), dtype=float)[report.initial_state]
    slack = 3 * report.std_errors + report.truncation_bound
    return bool(np.any(np.abs(report.means - target) > slack))


def cross_check(spec, result, report, problems: list) -> None:
    """At three standard errors a correct result misses about once in 370
    player-checks, so a miss is retried once with an independent simulation
    seed; only a second miss counts as a failure."""
    if not simulation_missed(result, report):
        return
    again = simulate(
        spec, result, report.initial_state, report.paths, report.seed + CONFIRM_SEED_OFFSET
    )
    if simulation_missed(result, again):
        problems.append(
            f"simulation from state {report.initial_state} misses the reported value "
            f"by more than 3 SE + truncation, twice"
        )


def certify(spec, result, problems: list) -> None:
    """Recompute the certificate: its epsilon must equal the reported one
    and be at most EPS_LIMIT."""
    cert = smpe.verify.deviation_residual(result, spec)
    if cert.epsilon != result.epsilon:
        problems.append(f"recomputed epsilon {cert.epsilon!r} != reported {result.epsilon!r}")
    if not cert.epsilon <= EPS_LIMIT:
        problems.append(f"epsilon {cert.epsilon:.3g} above {EPS_LIMIT:g}")


def start_states(seed: int, g: int, n_states: int) -> list:
    """Criterion 8's traffic: distinct start states for game ``g``."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 8000 + g]))
    return [int(s) for s in rng.choice(n_states, size=START_STATES, replace=False)]


def sim_plan(workload: Workload, inputs: Inputs) -> list:
    """(game, start state) of every simulation of the fixed set, in order."""
    return [
        (g, s0)
        for g in range(workload.fixed)
        for s0 in start_states(inputs.seed, g, inputs.specs[g].n_states)
    ]


def gate(workload: Workload, inputs: Inputs, records, sims=None, tracer=None):
    """The correctness gate, outside every timed region.

    Every distinct solved game is certified again, and a repeated solve must
    give the same bytes. Each game of the fixed set is simulated at
    ``SIM_PATHS`` paths from each of its start states, criterion 8's
    traffic: ``sims`` holds the timed loop's (game, report, seconds), and
    without it the gate simulates the plan itself. Every simulation must
    agree with the reported value, and a repeated one must give the same
    bytes. Returns the digest of the fixed set's result and simulation
    documents.
    """
    first = {}
    for g, result, _ in records:
        data = _canonical(smpe.gamefile.result_to_doc(result, inputs.specs[g]))
        if g not in first:
            first[g] = (result, data)
        elif data != first[g][1]:
            inputs.problems[g].append("a repeated solve gave different result bytes")
    for g, (result, _) in sorted(first.items()):
        if tracer is not None:
            tracer.game = inputs.keys[g]
        certify(inputs.specs[g], result, inputs.problems[g])
    if sims is None:
        sims = []
        for g, s0 in sim_plan(workload, inputs):
            if tracer is not None:
                tracer.game = inputs.keys[g]
            report = simulate(inputs.specs[g], first[g][0], s0, SIM_PATHS, SIM_SEED_BASE + s0)
            sims.append((g, report, 0.0))
    seen = {}
    for g, report, _ in sims:
        if tracer is not None:
            tracer.game = inputs.keys[g]
        data = _canonical(smpe.gamefile.simulation_to_doc(report))
        key = (g, report.initial_state)
        if key not in seen:
            seen[key] = data
            cross_check(inputs.specs[g], first[g][0], report, inputs.problems[g])
        elif data != seen[key]:
            inputs.problems[g].append("a repeated simulation gave different report bytes")
    docs = []
    for g in range(workload.fixed):
        docs.append(first[g][1])
        docs += [data for (sg, _), data in seen.items() if sg == g]
    return hashlib.sha256(b"".join(docs)).hexdigest()


def _failures(inputs: Inputs, records):
    failed = sum(1 for g, _, _ in records if inputs.problems[g])
    messages = [
        f"game {inputs.keys[g]}: {msg}" for g, msgs in inputs.problems.items() for msg in msgs
    ]
    return failed, messages


def _tail(times):
    """Highest whole percentile that leaves at least ten samples beyond it."""
    n = len(times)
    if n < 20:
        return {"samples": n, "percentile": None, "value_s": None}
    p = math.floor(100 * (1 - 10 / n))
    return {"samples": n, "percentile": p, "value_s": sorted(times)[math.ceil(p / 100 * n) - 1]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workload: Workload, seed: int, seconds: float) -> Report:
    """``games_per_s`` counts certified solves per second spent solving,
    ``path_steps_per_s`` path-steps per second spent simulating, and
    ``setup_s`` is the median of the set-ups timed through the run."""
    warm_up(seed)
    start = time.perf_counter()
    inputs = setup(workload, seed)
    setup_times = [time.perf_counter() - start]
    records, sims, passes = timed_passes(workload, inputs, seconds, setup_times)
    digest = gate(workload, inputs, records, sims)
    failed, messages = _failures(inputs, records)
    solve_times = [dt for _, _, dt in records]
    sim_seconds = sum(dt for _, _, dt in sims)
    steps = sum(report.paths * report.horizon for _, report, _ in sims)
    certified = sum(1 for g, _, _ in records if not inputs.problems[g])
    metrics = {
        "games_per_s": _metric(certified / sum(solve_times), "games/s"),
        "solve_s.p50": _metric(statistics.median(solve_times), "s"),
        "path_steps_per_s": _metric(steps / sim_seconds, "path-steps/s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MiB"),
    }
    context = {
        "games": inputs.keys,
        "passes": passes,
        "timed_solves": len(records),
        "solve_seconds": sum(solve_times),
        "solve_s_tail": _tail(solve_times),
        "outer_iterations": [r.diagnostics["iterations"] for _, r, _ in records],
        "epsilon_max": max(r.epsilon for _, r, _ in records),
        "setup_s_samples": setup_times,
        "timed_simulations": len(sims),
        "simulation_seconds": sim_seconds,
    }
    return Report(metrics, len(records), failed, messages, digest, context)


def run_traced(workload: Workload, seed: int, trace_path=None) -> Report:
    """Untraced and traced passes over the fixed set, alternated
    ``OVERHEAD_ROUNDS`` times; the last traced pass also traces set-up and
    the gate and gives the per-layer metrics.

    The fixed set, not the clock, bounds every pass, so every count repeats
    exactly from run to run, and all passes must give identical bytes.
    ``trace.overhead_frac`` is the median ratio of traced to untraced
    process time, less one: process time leaves out the time the machine
    runs other work.
    """
    warm_up(seed)
    inputs = setup(workload, seed)
    records, plain_s, traced_s, left = [], [], [], []
    digest = ""
    for round_ in range(OVERHEAD_ROUNDS):
        last = round_ == OVERHEAD_ROUNDS - 1
        plain, seconds = solve_loop(inputs, workload.fixed, clock=time.process_time)
        plain_s.append(seconds)
        records += plain
        tracer = Tracer(TARGETS)
        with tracer:
            if last:
                tracer.game = "setup"
                setup(workload, seed)
            traced, seconds = solve_loop(
                inputs, workload.fixed, tracer=tracer, clock=time.process_time
            )
            traced_s.append(seconds)
            records += traced
            if last:
                digest = gate(workload, inputs, records, tracer=tracer)
        left += tracer.still_wrapped()
    failed, messages = _failures(inputs, records)
    if left:
        messages.append(f"wrappers not restored: {left}")
        failed += 1
    if trace_path is not None:
        tracer.write(trace_path)
    context = {
        "games": inputs.keys[: workload.fixed],
        "untraced_pass_cpu_s": plain_s,
        "traced_pass_cpu_s": traced_s,
        "spans": len(tracer.spans),
        "missing_targets": tracer.missing,
        "wrappers_restored": not left,
        "layers": tracer.summary(),
        "dominance": dominance(tracer),
    }
    overhead = statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1.0
    metrics = layer_metrics(tracer, overhead)
    return Report(metrics, len(records), failed, messages, digest, context)


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    summary = tracer.summary()
    counters = tracer.counters

    def self_s(name):
        return _metric(summary.get(name, {}).get("self_s", 0.0), "s")

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def count(value):
        return _metric(value, "count")

    def ratio(num, den, unit):
        return _metric(num / den if den else 0.0, unit)

    simulate_self = summary.get("verify.simulate_payoffs", {}).get("self_s", 0.0)
    return {
        "nash.nash_enumerate.self_s": self_s("nash.nash_enumerate"),
        "nash.nash_enumerate.calls": count(calls("nash.nash_enumerate")),
        "nash.equilibria_per_call": ratio(
            counters.get("nash.equilibria", 0), calls("nash.nash_enumerate"), "eq/call"
        ),
        "nash.build_stage_game.self_s": self_s("nash.build_stage_game"),
        "nash.build_stage_game.calls": count(calls("nash.build_stage_game")),
        "nash.build_stage_game.calls_atomic": count(
            counters.get("nash.build_stage_game.calls_atomic", 0)
        ),
        "nash.build_stage_game.calls_divisible": count(
            counters.get("nash.build_stage_game.calls_divisible", 0)
        ),
        "nash.stage_payoff_tensor.self_s": self_s("nash.stage_payoff_tensor"),
        "nash.stage_payoff_tensor.calls": count(calls("nash.stage_payoff_tensor")),
        "nash.aggregate_moments.self_s": self_s("nash.aggregate_moments"),
        "hull.project_to_hull.self_s": self_s("hull.project_to_hull"),
        "hull.project_to_hull.calls": count(calls("hull.project_to_hull")),
        "hull.points_per_call": ratio(
            counters.get("hull.points", 0), calls("hull.project_to_hull"), "points/call"
        ),
        "solver.atom_fixed_point.self_s": self_s("solver.atom_fixed_point"),
        "solver.atom_fixed_point.calls": count(calls("solver.atom_fixed_point")),
        "solver.atom_value_operator.calls": count(calls("solver.atom_value_operator")),
        "solver.atom_steps_per_fixed_point": ratio(
            counters.get("solver.atom_steps", 0), calls("solver.atom_fixed_point"), "steps/call"
        ),
        "solver.solve.self_s": _metric(
            self_s("solver.solve")["value"] + self_s("solver.outer_loop")["value"], "s"
        ),
        "solver.outer_iterations": count(counters.get("solver.outer_iterations", 0)),
        "solver.restarts": count(calls("solver.outer_loop") - calls("solver.solve")),
        "measure.purify_selection.self_s": self_s("measure.purify_selection"),
        "measure.purify_selection.calls": count(calls("measure.purify_selection")),
        "measure.pieces_per_cell": ratio(
            counters.get("measure.pieces", 0), counters.get("measure.cells", 0), "pieces/cell"
        ),
        "verify.simulate_payoffs.self_s": self_s("verify.simulate_payoffs"),
        "verify.simulate_payoffs.calls": count(calls("verify.simulate_payoffs")),
        "verify.ns_per_path_step": ratio(
            1e9 * simulate_self, counters.get("verify.path_steps", 0), "ns"
        ),
        "verify.deviation_residual.self_s": self_s("verify.deviation_residual"),
        "verify.deviation_residual.calls": count(calls("verify.deviation_residual")),
        "game.sunspot_extend.self_s": self_s("game.sunspot_extend"),
        "game.validate_game.self_s": self_s("game.validate_game"),
        "kernels.check_coarser.self_s": self_s("kernels.check_coarser"),
        "trace.overhead_frac": _metric(overhead_frac, "1"),
    }


def dominance(tracer: Tracer) -> dict:
    """Where the solves' time went, leaving out set-up and the gate: the five
    largest self times inside ``solver.solve`` calls and the atom loop (atom
    fixed point plus atom strategy selection, inclusive), as shares of the
    solves' total time."""
    roots = []
    for name, _, _, parent, _ in tracer.spans:
        roots.append(roots[parent] if parent >= 0 else name)
    in_solve = {}
    for (name, _, _, _, _), root, own in zip(tracer.spans, roots, tracer.self_times()):
        if root == "solver.solve":
            in_solve[name] = in_solve.get(name, 0.0) + own
    solve_s = sum(in_solve.values())
    if not solve_s:
        return {}
    total = {name: row["total_s"] for name, row in tracer.summary().items()}
    atom_loop = total.get("solver.atom_fixed_point", 0.0) + total.get("solver.atom_strategies", 0.0)
    top = sorted(in_solve.items(), key=lambda item: -item[1])[:5]
    return {
        "top_self_in_solve": [[name, own / solve_s] for name, own in top],
        "atom_loop_share_of_solve": atom_loop / solve_s,
        "solve_s": solve_s,
    }
