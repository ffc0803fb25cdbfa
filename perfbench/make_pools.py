"""Rebuild ``pools.json``: the game keys each workload draws from.

Usage, from the repository root (a few minutes on one core):

    python3 perfbench/make_pools.py

For each workload it walks keys ``[POOL_SEED, i]``, i = 0, 1, ..., of its
family, solves each game with default options and admits index ``i`` when
the solver reports convergence and the result certifies (epsilon <=
EPS_LIMIT), until the pool holds ``POOL_SIZES[name]`` games. For
mixture-32 that is the acceptance batch ``[4242, 0..9]``; sunspot-64 vets
the two-cell sunspot extensions of the mixture-32 pool, in the same order.
A pool is sized so that one pass over it takes about 25 s at the seed
commit. Games that do not certify are written to the file's ``excluded``
lists with the reason, so the defect stays on record: such a game runs to
``max_iter`` outer iterations (four times over when no restart certifies;
atom-heavy ``[4242, 97]`` is one) and would take a whole run's time alone.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import smpe.game  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 4242
POOL_SIZES = {"mixture-32": 10, "sunspot-64": 4, "atom-heavy": 18}


def family_games(family: dict):
    """Keys [POOL_SEED, i], i = 0, 1, ..., as (i, spec) pairs."""
    i = 0
    while True:
        yield i, workloads.make_game([POOL_SEED, i], family)
        i += 1


def vet(name, candidates, size):
    """Admit candidates in order until ``size`` certify; returns the pool entry."""
    indices, excluded = [], []
    for i, spec in candidates:
        if len(indices) == size:
            break
        problems = []
        start = time.perf_counter()
        result = workloads.solve_game(spec, problems)
        seconds = time.perf_counter() - start
        if not result.diagnostics["converged"]:
            problems.append(
                f"not converged after {result.diagnostics['iterations']} outer iterations"
            )
        print(
            f"{name} [{POOL_SEED}, {i}] epsilon {result.epsilon:.3g} "
            f"iterations {result.diagnostics['iterations']} {seconds:.1f}s",
            flush=True,
        )
        if problems or not result.epsilon <= workloads.EPS_LIMIT:
            excluded.append({"index": i, "epsilon": result.epsilon, "problems": problems})
        else:
            indices.append(i)
    if len(indices) < size:
        raise SystemExit(f"{name}: only {len(indices)} of {size} candidates certified")
    return {"indices": indices, "excluded": excluded}


def main() -> None:
    pools = {"pool_seed": POOL_SEED}
    pools["mixture-32"] = vet(
        "mixture-32", family_games(workloads.MIXTURE), POOL_SIZES["mixture-32"]
    )
    mixture = {
        i: workloads.make_game([POOL_SEED, i], workloads.MIXTURE)
        for i in pools["mixture-32"]["indices"]
    }
    sunspot = (
        (i, smpe.game.sunspot_extend(spec, workloads.SUNSPOT_CELLS))
        for i, spec in mixture.items()
    )
    pools["sunspot-64"] = vet("sunspot-64", sunspot, POOL_SIZES["sunspot-64"])
    pools["atom-heavy"] = vet(
        "atom-heavy", family_games(workloads.ATOM_HEAVY), POOL_SIZES["atom-heavy"]
    )
    with open(HERE / "pools.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(pools) + "\n")


if __name__ == "__main__":
    main()
