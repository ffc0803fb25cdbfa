"""Command-line entry points.

Subcommands: ``solve`` a game file, ``verify`` a result against its
game, ``simulate`` discounted play, ``analyze`` a dense kernel matrix,
and ``demo`` for the built-in constructions. Exit codes: 0 success,
1 no convergence, 2 input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from . import gamefile
from .errors import InvalidInput, NoConvergence, NoSelection, ParseError, SmpeError
from .game import sunspot_extend, validate_game
from .kernels import (
    LevyParams,
    _seeded_rng,
    block_rank_profile,
    check_coarser,
    kernel_matrix,
    levy_profile_index,
    make_levy_kernel,
    random_noisy_game,
    random_nowak_game,
)
from .measure import (
    CandidateField,
    GridSpace,
    exhaustive_selection_search,
    half_split,
    purify_selection,
)
from .solver import SolveOptions, solve
from .verify import deviation_residual, simulate_payoffs


def _emit(doc):
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _solve_options(args) -> SolveOptions:
    return SolveOptions(**{f.name: getattr(args, f.name) for f in fields(SolveOptions)})


def _add_solver_flags(parser):
    """One flag per ``SolveOptions`` field, typed and defaulted as the field."""
    for f in fields(SolveOptions):
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _solve_or_best(spec, args):
    """``(result, exit code)``: the certified result with 0, or the best
    result of a failed solve with 1. A failed solve that certified
    nothing re-raises, and ``run_command`` reports it in one line."""
    try:
        return solve(spec, _solve_options(args)), 0
    except NoConvergence as exc:
        if exc.result is None:
            raise
        return exc.result, 1


def cmd_solve(args) -> int:
    spec = gamefile.parse_game_spec(args.game)
    result, code = _solve_or_best(spec, args)
    if args.out:
        gamefile.write_result(args.out, result, spec)
    print(f"epsilon {result.epsilon!r}")
    if code:
        print("no convergence: best result reported", file=sys.stderr)
    return code


def cmd_verify(args) -> int:
    spec = gamefile.parse_game_spec(args.game)
    result = gamefile.load_result(args.result, spec)
    cert = deviation_residual(result, spec)
    if args.out:
        doc = gamefile.certificate_to_doc(cert, spec)
        gamefile.write_bytes(args.out, gamefile.canonical_bytes(doc))
    print(f"epsilon {cert.epsilon!r}")
    print(f"recursion_residual {cert.recursion_residual!r}")
    piece, player = np.unravel_index(np.argmax(cert.gains), cert.gains.shape)
    cell, index = cert.piece_labels[piece]
    print(f"attained_by cell {cell} piece {index} player {player}")
    return 0


def cmd_simulate(args) -> int:
    spec = gamefile.parse_game_spec(args.game)
    result = gamefile.load_result(args.result, spec)
    report = simulate_payoffs(
        spec,
        result,
        s0=args.s0,
        paths=args.paths,
        seed=args.seed,
        horizon=args.horizon,
        truncation=args.truncation,
    )
    doc = gamefile.simulation_to_doc(report)
    if args.out:
        gamefile.write_bytes(args.out, gamefile.canonical_bytes(doc))
    _emit(doc)
    return 0


def cmd_analyze(args) -> int:
    kmtx = gamefile.read_kernel_matrix(args.kernel)
    ranks = block_rank_profile(kmtx, threshold=args.threshold)
    coarser = check_coarser(kmtx)
    _emit(
        {
            "ranks": {str(k): v for k, v in ranks.items()},
            "coarser": coarser,
            "verdict": "coarser" if coarser else "not-coarser",
            "threshold": args.threshold,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# Demos.


def demo_levy(args) -> int:
    try:
        sizes = [int(v) for v in args.sizes.split(",")]
    except ValueError:
        raise ParseError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    rows = []
    for n in sizes:
        spec = make_levy_kernel(
            LevyParams(alpha=args.alpha, m_theta=args.m_theta, n_cells=n), blocks=args.blocks
        )
        profile = levy_profile_index(spec, "-1", "-1")
        kmtx = kernel_matrix(spec, profiles=[profile])
        ranks = block_rank_profile(kmtx, threshold=args.threshold)
        if args.out_kernel:
            gamefile.write_kernel_matrix(f"{args.out_kernel}.n{n}.kmtx", kmtx)
        rows.append(
            {
                "n": n,
                "block_size": n // args.blocks,
                "ranks": list(ranks.values()),
                "coarser": check_coarser(kmtx),
            }
        )
    _emit({"family": "levy", "alpha": args.alpha, "blocks": args.blocks, "table": rows})
    return 0


def demo_nowak(args) -> int:
    _params, spec = random_nowak_game(
        seed=args.seed,
        n_cells=args.cells,
        j_components=args.j,
        k_atoms=args.k,
    )
    report = validate_game(spec)
    kmtx = kernel_matrix(spec)
    ranks = block_rank_profile(kmtx)
    result, code = _solve_or_best(spec, args)
    if args.out:
        gamefile.write_game_spec(f"{args.out}.game.json", spec)
        gamefile.write_result(f"{args.out}.result.json", result, spec)
    _emit(
        {
            "family": "nowak",
            "seed": args.seed,
            "validated": report.passed,
            "block_ranks": list(ranks.values()),
            "epsilon": result.epsilon,
            "iterations": result.diagnostics.get("iterations"),
        }
    )
    return code


def demo_noisy(args) -> int:
    if args.splits < 0:
        raise InvalidInput(f"--splits must be >= 0, got {args.splits}")
    _params, spec = random_noisy_game(seed=args.seed, n_h=args.h, n_r=args.r)
    report = validate_game(spec)
    kmtx = kernel_matrix(spec)
    rng = _seeded_rng(args.seed)
    masses = np.asarray(spec.space.masses, dtype=float)
    ok_splits = 0
    for _ in range(args.splits):
        keep = rng.random(spec.n_states) < 0.5
        if not keep.any():
            keep[rng.integers(spec.n_states)] = True
        retained = masses * keep * rng.uniform(0.1, 1.0, size=spec.n_states)
        split = half_split(retained, spec.space)
        halves = split.averages()[:, 0] * masses
        target = np.asarray(retained, dtype=float) / 2
        if np.max(np.abs(halves - target)) <= 1e-12:
            ok_splits += 1
    _emit(
        {
            "family": "noisy",
            "seed": args.seed,
            "validated": report.passed,
            "coarser": check_coarser(kmtx),
            "half_splits_ok": ok_splits,
            "half_splits_tried": args.splits,
        }
    )
    return 0


def demo_sunspot(args) -> int:
    _params, spec = random_nowak_game(
        seed=args.seed, n_cells=args.cells, j_components=1, k_atoms=0
    )
    extended = sunspot_extend(spec, args.sunspots)
    report = validate_game(extended)
    kmtx = kernel_matrix(extended)
    result, code = _solve_or_best(extended, args)
    _emit(
        {
            "family": "sunspot",
            "seed": args.seed,
            "sunspot_cells": args.sunspots,
            "validated": report.passed,
            "coarser": check_coarser(kmtx),
            "epsilon": result.epsilon,
        }
    )
    return code


def _refusal_demo(doc, space, candidates, target, moments) -> int:
    """Check that purification refuses ``target`` and that no pure
    assignment of the candidates matches its moments either; emits ``doc``
    with the findings and returns 0 when both refuse."""
    try:
        purify_selection(target, candidates, moments, space)
        refused = False
    except NoSelection:
        refused = True
    patterns = int(np.prod([len(c) for c in candidates.sets]))
    found = exhaustive_selection_search(space, candidates, target, moments, max_patterns=patterns)
    confirmed = refused and found is None
    if confirmed:
        print(f"NoSelection confirmed by exhaustive search ({patterns} patterns)")
    _emit(
        {
            **doc,
            "no_selection": refused,
            "exhaustive_match": found,
            "patterns": patterns,
            "confirmed": confirmed,
        }
    )
    return 0 if confirmed else 1


def demo_prop2(args) -> int:
    space = GridSpace(
        np.array([0.35, 0.35, 0.3]),
        np.array([True, True, False]),
        np.array([0, 0, 0]),
    )
    candidates = CandidateField(
        (np.array([[0.0]]), np.array([[0.0]]), np.array([[0.0], [1.0]]))
    )
    target = np.array([0.0, 0.0, 0.5])
    return _refusal_demo({"demo": "prop2"}, space, candidates, target, np.ones((1, 3)))


def _walsh(n: int) -> np.ndarray:
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def demo_prop3(args) -> int:
    if args.k < 1 or args.k > 4:
        raise InvalidInput("k must lie in 1..4 (pattern count is 2^(2^k))")
    n = 2**args.k
    space = GridSpace(np.full(n, 1.0 / n), np.zeros(n, bool), np.zeros(n, int))
    candidates = CandidateField(tuple([np.array([[-1.0], [1.0]])] * n))
    target = np.zeros(n)
    return _refusal_demo({"demo": "prop3", "cells": n}, space, candidates, target, _walsh(n) + 1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smpe",
        description="Stationary-equilibrium workbench for discounted stochastic games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a game file and write the result")
    p.add_argument("--game", required=True)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="recompute the certificate of a result")
    p.add_argument("--game", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo discounted play of a result")
    p.add_argument("--game", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truncation", type=float, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--s0", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="rank profile and coarseness of a kernel matrix")
    p.add_argument("--kernel", required=True)
    p.add_argument("--threshold", type=float, default=1e-8)
    p.set_defaults(func=cmd_analyze)

    demo = sub.add_parser("demo", help="built-in constructions and demonstrations")
    demo_sub = demo.add_subparsers(dest="demo", required=True)

    p = demo_sub.add_parser("levy", help="block rank versus grid refinement")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--m-theta", type=int, default=1)
    p.add_argument("--sizes", default="8,16,32,64")
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--threshold", type=float, default=1e-8)
    p.add_argument("--out-kernel", default=None)
    p.set_defaults(func=demo_levy)

    p = demo_sub.add_parser("nowak", help="random mixture-family instance, solved")
    p.add_argument("--cells", type=int, default=32)
    p.add_argument("--j", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=demo_nowak)

    p = demo_sub.add_parser("noisy", help="random noisy product-state instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=int, default=4)
    p.add_argument("--r", type=int, default=5)
    p.add_argument("--splits", type=int, default=20)
    p.set_defaults(func=demo_noisy)

    p = demo_sub.add_parser("sunspot", help="extend a game by a public coordinate and re-solve")
    p.add_argument("--cells", type=int, default=2)
    p.add_argument("--sunspots", type=int, default=2)
    _add_solver_flags(p)
    p.set_defaults(func=demo_sunspot)

    p = demo_sub.add_parser("prop2", help="indivisible block refuses a strict mixture target")
    p.set_defaults(func=demo_prop2)

    p = demo_sub.add_parser("prop3", help="orthogonal moment system refuses any sign selection")
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(func=demo_prop3)

    return parser


def run_command(argv) -> int:
    """Parse ``argv`` and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 1
    except SmpeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
