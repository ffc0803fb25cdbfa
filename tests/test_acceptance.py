"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they appear. Every test here carries the ``acceptance`` marker,
so ``pytest -m "not acceptance"`` runs the rest of the suite alone.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from smpe import gamefile
from smpe.errors import InvalidInput, NoConvergence, NoSelection
from smpe.game import sunspot_extend, validate_game
from smpe.kernels import (
    LevyParams,
    block_rank_profile,
    check_coarser,
    kernel_matrix,
    levy_profile_index,
    make_levy_kernel,
    random_noisy_game,
    random_nowak_game,
)
from smpe.measure import (
    CandidateField,
    GridSpace,
    StepFunction,
    exhaustive_selection_search,
    half_split,
    purify_selection,
)
from smpe.nash import StageGame, nash_enumerate
from smpe.solver import SolveOptions, atom_value_operator, atom_fixed_point, solve
from smpe.verify import simulate_payoffs

from helpers import single_atom_game, walsh_matrix
from oracles import aggregate_assignment_exists, percell_feasible

pytestmark = pytest.mark.acceptance


def report(index, name, detail):
    print(f"[criterion {index}] {name}: PASS ({detail})")


# --- criterion 2 fixture: shared with criteria 8 and 9 ---------------------------

N_NOWAK = 50


@pytest.fixture(scope="module")
def nowak_batch():
    solved = []
    for i in range(N_NOWAK):
        _, spec = random_nowak_game(seed=[4242, i], n_cells=32, j_components=2, k_atoms=1)
        start = time.time()
        try:
            result = solve(spec, SolveOptions())
        except NoConvergence as err:
            result = err.result
        solved.append((spec, result, time.time() - start))
    return solved


def test_criterion_1_static_reduction():
    start = time.time()
    for i in range(100):
        rng = np.random.Generator(np.random.Philox(key=[1000, i]))
        k1, k2 = (int(v) for v in rng.integers(2, 4, size=2))
        payoffs = rng.uniform(-1.0, 1.0, (2, k1 * k2))
        spec = single_atom_game(payoffs, [0.0, 0.0], n_actions=(k1, k2))
        result = solve(spec)
        assert result.epsilon <= 1e-10
        # the reported value is a stage equilibrium payoff of the one-shot game
        game = StageGame(
            payoffs=(payoffs[0].reshape(k1, k2), payoffs[1].reshape(k1, k2)),
            actions=(tuple(range(k1)), tuple(range(k2))),
        )
        points = nash_enumerate(game)
        value = np.asarray(result.values.pieces[0][0].value, float)
        assert any(np.max(np.abs(value - p.payoffs)) <= 1e-10 for p in points)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, "static reduction", f"100 games, eps<=1e-10, {elapsed:.2f}s")


def test_criterion_2_nowak_family(nowak_batch):
    successes = sum(1 for _, result, _ in nowak_batch if result.epsilon <= 1e-6)
    worst_time = max(elapsed for _, _, elapsed in nowak_batch)
    for _, result, elapsed in nowak_batch:
        assert elapsed < 10.0
        assert result.diagnostics["iterations"] <= 500
        assert result.diagnostics["restart"] <= 3
    assert successes >= math.ceil(0.95 * N_NOWAK)
    report(
        2,
        "mixture-family solves",
        f"{successes}/{N_NOWAK} reached eps<=1e-6, max {worst_time:.1f}s",
    )


def test_criterion_3_purification_exactness():
    # 1000 random divisible instances: exact membership, moments to 1e-10
    for i in range(1000):
        rng = np.random.Generator(np.random.Philox(key=[3000, i]))
        n = int(rng.integers(2, 10))
        d = int(rng.integers(1, 4))
        j = int(rng.integers(1, 4))
        masses = rng.uniform(0.05, 1.0, n)
        coarse = rng.integers(0, max(1, n // 2), n)
        _, coarse = np.unique(coarse, return_inverse=True)
        sp = GridSpace(masses, np.ones(n, bool), coarse)
        cands, targets = [], []
        for _ in range(n):
            count = int(rng.integers(1, 5))
            pts = rng.uniform(-2.0, 2.0, (count, d))
            w = rng.dirichlet(np.ones(count))
            cands.append(pts)
            targets.append(w @ pts)
        moments = rng.uniform(0.0, 3.0, (j, n))
        sel = purify_selection(
            StepFunction.of(np.asarray(targets)), CandidateField(tuple(cands)), moments, sp
        )
        for k in range(n):
            for piece in sel.pieces[k]:
                assert any(np.array_equal(piece.value, c) for c in cands[k])
        avgs = sel.averages()
        for jj in range(j):
            for e in range(sp.n_coarse):
                members = sp.coarse_members(e)
                lhs = sum(masses[k] * moments[jj, k] * avgs[k] for k in members)
                rhs = sum(masses[k] * moments[jj, k] * targets[k] for k in members)
                assert np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))) <= 1e-10

    # 200 exact-rational instances checked against the brute-force oracle
    agreements = 0
    for i in range(200):
        rng = np.random.Generator(np.random.Philox(key=[3500, i]))
        family = i % 5
        n = int(rng.integers(2, 9))
        masses = np.array(
            [Fraction(int(rng.integers(1, 9)), 16) for _ in range(n)], dtype=object
        )
        coarse = rng.integers(0, 3, n)
        _, coarse = np.unique(coarse, return_inverse=True)
        moments = np.array(
            [[Fraction(int(rng.integers(1, 5)), 4) for _ in range(n)] for _ in range(2)],
            dtype=object,
        )
        frac = lambda: Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 9)))
        if family <= 1:  # divisible, feasible (targets are exact convex combos)
            divisible = np.ones(n, bool)
            cands, targets = [], []
            for _ in range(n):
                count = int(rng.integers(1, 4))
                pts = [[frac()] for _ in range(count)]
                weights = [Fraction(int(rng.integers(0, 5)) + 1) for _ in range(count)]
                s = sum(weights)
                weights = [w / s for w in weights]
                cands.append(np.array(pts, dtype=object))
                targets.append([sum(w * p[0] for w, p in zip(weights, pts))])
        elif family == 2:  # divisible, one cell pushed outside its hull
            divisible = np.ones(n, bool)
            cands, targets = [], []
            for k in range(n):
                count = int(rng.integers(1, 4))
                pts = [[frac()] for _ in range(count)]
                cands.append(np.array(pts, dtype=object))
                if k == 0:
                    targets.append([max(p[0] for p in pts) + 1])
                else:
                    targets.append([pts[0][0]])
        elif family == 3:  # atomic, feasible (target is a candidate per cell)
            divisible = np.zeros(n, bool)
            cands, targets = [], []
            for _ in range(n):
                count = int(rng.integers(1, 4))
                pts = [[frac()] for _ in range(count)]
                cands.append(np.array(pts, dtype=object))
                targets.append(pts[int(rng.integers(0, count))])
        else:  # atomic: one free {0,1} atom per coarse cell, strict target
            divisible = np.zeros(n, bool)
            cands, targets = [], []
            free = {int(e): None for e in set(int(c) for c in coarse)}
            for k in range(n):
                e = int(coarse[k])
                if free[e] is None:
                    free[e] = k
                    cands.append(np.array([[Fraction(0)], [Fraction(1)]], dtype=object))
                    targets.append([Fraction(int(rng.integers(1, 4)), 4)])
                else:
                    cands.append(np.array([[Fraction(0)]], dtype=object))
                    targets.append([Fraction(0)])
        sp = GridSpace(masses, divisible, coarse)
        target_arr = np.array(targets, dtype=object)
        try:
            purify_selection(
                StepFunction.of(target_arr), CandidateField(tuple(cands)), moments, sp
            )
            succeeded = True
        except (NoSelection, InvalidInput):
            succeeded = False
        oracle = percell_feasible(divisible, cands, targets)
        assert oracle == succeeded, f"instance {i}: oracle {oracle} vs purify {succeeded}"
        agreements += 1
        if not divisible.any():
            # atomic mode: the exhaustive-assignment oracle must agree too
            assignment = aggregate_assignment_exists(masses, coarse, cands, targets, moments)
            assert (assignment is not None) == succeeded
    assert agreements == 200
    report(3, "purification exactness", "1000 float + 200 exact-oracle instances")


def test_criterion_4_atom_contraction():
    for inst in range(5):
        _, spec = random_nowak_game(seed=[4000, inst], n_cells=8, j_components=2, k_atoms=2)
        beta = float(spec.discounts.max())
        f2 = []
        for state in spec.space.atom_indices:
            f2.append(
                [
                    spec.feasible[i][state].astype(float) / spec.feasible[i][state].sum()
                    for i in range(spec.players)
                ]
            )
        rng = np.random.Generator(np.random.Philox(key=[4100, inst]))
        from smpe.nash import aggregate_moments

        c = aggregate_moments(rng.uniform(-1, 1, (spec.n_states, spec.players)), spec)
        for _ in range(100):
            v2 = rng.uniform(-1, 1, (spec.players, spec.n_atoms))
            w2 = rng.uniform(-1, 1, (spec.players, spec.n_atoms))
            num = np.max(
                np.abs(
                    atom_value_operator(f2, c, v2, spec)
                    - atom_value_operator(f2, c, w2, spec)
                )
            )
            den = np.max(np.abs(v2 - w2))
            assert num <= beta * den + 1e-12
        _, iters = atom_fixed_point(
            f2, c, spec, np.zeros((spec.players, spec.n_atoms)), tol=1e-10
        )
        assert iters <= math.ceil(math.log(1e-10) / math.log(beta)) + 1
    report(4, "atom operator contraction", "5 instances x 100 pairs, iteration bound held")


def test_criterion_5_kernel_structure():
    for n in (8, 16, 32, 64):
        spec = make_levy_kernel(LevyParams(alpha=1.0, m_theta=0, n_cells=n), blocks=2)
        prof = levy_profile_index(spec, "-1", "-1")
        kmtx = kernel_matrix(spec, profiles=[prof])
        start = time.time()
        ranks = block_rank_profile(kmtx, threshold=1e-8)
        elapsed = time.time() - start
        assert list(ranks.values()) == [n // 2, n // 2]
        assert elapsed < 1.0
        again = block_rank_profile(kmtx, threshold=1e-8)
        assert again == ranks
    # coarser kernels report all ranks <= 1
    _, noisy = random_noisy_game(seed=50, n_h=4, n_r=4)
    noisy_ranks = block_rank_profile(kernel_matrix(noisy))
    assert check_coarser(kernel_matrix(noisy))
    assert all(r <= 1 for r in noisy_ranks.values())
    # mixture-family kernels report ranks <= J
    for seed in range(5):
        params, spec = random_nowak_game(seed=[5100, seed], n_cells=16, j_components=3, k_atoms=1)
        ranks = block_rank_profile(kernel_matrix(spec))
        assert all(r <= params.j_components for r in ranks.values())
    report(5, "kernel structure", "full-rank blocks at N=8..64; rank<=1 coarser; rank<=J mixtures")


def test_criterion_6_noisy_construction():
    passed = 0
    for i in range(100):
        rng = np.random.Generator(np.random.Philox(key=[6000, i]))
        _, spec = random_noisy_game(
            seed=[6000, i], n_h=int(rng.integers(2, 6)), n_r=int(rng.integers(2, 6))
        )
        assert validate_game(spec).passed
        assert check_coarser(kernel_matrix(spec))
        masses = np.asarray(spec.space.masses, float)
        for _ in range(20):
            keep = rng.random(spec.n_states) < 0.5
            if not keep.any():
                keep[int(rng.integers(spec.n_states))] = True
            retained = masses * keep * rng.uniform(0.1, 1.0, spec.n_states)
            split = half_split(retained, spec.space)
            carried = split.averages()[:, 0] * masses
            for e in range(spec.space.n_coarse):
                members = spec.space.coarse_members(e)
                assert abs(carried[members].sum() - retained[members].sum() / 2) <= 1e-12
        passed += 1
    assert passed == 100
    report(6, "noisy construction", "100/100 coarser with 20 half-splits each")


def test_criterion_7_walsh_moment_obstruction():
    start = time.time()
    n = 16
    space = GridSpace(np.full(n, 1.0 / n), np.zeros(n, bool), np.zeros(n, int))
    cands = CandidateField(tuple([np.array([[-1.0], [1.0]])] * n))
    target = StepFunction.constant(0.0, n)
    moments = walsh_matrix(n) + 1.0
    with pytest.raises(NoSelection):
        purify_selection(target, cands, moments, space)
    assert exhaustive_selection_search(space, cands, target, moments, max_patterns=2**n) is None
    # independent integer-exact sweep over all sign patterns
    patterns = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1
    residuals = patterns.astype(np.int64) @ (walsh_matrix(n) + 1.0).T.astype(np.int64)
    assert not np.any(np.all(residuals == 0, axis=1))
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(7, "orthogonal-moment obstruction", f"2^16 patterns refused in {elapsed:.2f}s")


def test_criterion_8_simulation_cross_check(nowak_batch):
    rng = np.random.Generator(np.random.Philox(key=8000))
    checked = 0
    for spec, result, _ in nowak_batch:
        if result.epsilon > 1e-6:
            continue
        averages = np.asarray(result.values.averages(), float)
        states = rng.choice(spec.n_states, size=3, replace=False)
        first_report = None
        for s0 in states:
            rep = simulate_payoffs(
                spec, result, s0=int(s0), paths=100_000, seed=int(9000 + s0), truncation=1e-4
            )
            tol = 3 * rep.std_errors + rep.truncation_bound
            assert np.all(np.abs(rep.means - averages[int(s0)]) <= tol)
            if first_report is None:
                first_report = (int(s0), rep)
        s0, rep = first_report
        rerun = simulate_payoffs(
            spec, result, s0=s0, paths=100_000, seed=int(9000 + s0), truncation=1e-4
        )
        assert gamefile.canonical_bytes(
            gamefile.simulation_to_doc(rep)
        ) == gamefile.canonical_bytes(gamefile.simulation_to_doc(rerun))
        checked += 1
    assert checked >= math.ceil(0.95 * N_NOWAK)
    report(8, "simulation cross-check", f"{checked} instances x 3 states x 1e5 paths")


def test_criterion_9_sunspot_extension(nowak_batch):
    resolved = 0
    for spec, result, _ in nowak_batch:
        if result.epsilon > 1e-6:
            continue
        extended = sunspot_extend(spec, 2)
        assert validate_game(extended).passed
        assert check_coarser(kernel_matrix(extended))
        new_result = solve(extended, SolveOptions())
        assert new_result.epsilon <= 1e-6
        resolved += 1
    assert resolved >= math.ceil(0.95 * N_NOWAK)
    report(9, "sunspot extension", f"{resolved} extended instances re-solved to eps<=1e-6")
