"""Transition-kernel structure analysis and game-family generators.

The analysis side turns a game's decomposed transition density into a
dense matrix (target cells by source state/profile pairs), checks
whether rows are constant inside each coarse cell, and profiles the
numerical rank of each coarse row-block. A density that admits a J-term
decomposition is a sum of J outer products inside every coarse block,
so every block rank is at most J; rank growth under grid refinement is
the desk-scale signature of a kernel with no refinement-uniform finite
decomposition.

The generator side builds three families: an absorbing-state family
with triangular uniform jumps (rank-full blocks), a mixture family of
state-independent measures plus atoms (rank at most J), and a noisy
product-state family whose tilted reference measure makes the density
depend on the informative coordinate only (rank 1).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .game import KernelDecomposition, StochasticGameSpec
from .measure import GridSpace, frozen_copy, hold, is_integer

RANK_THRESHOLD = 1e-8
ROW_MATCH_TOL = 1e-10


@dataclass(frozen=True)
class KernelMatrix:
    """Dense transition density: one row per divisible target cell.

    columns pairs each matrix column with its (source state, profile)
    label; ``rows`` holds the fine-cell index behind each matrix row.
    """

    matrix: np.ndarray
    space: GridSpace
    rows: np.ndarray
    columns: np.ndarray

    def __post_init__(self):
        matrix = frozen_copy(self.matrix, "kernel matrix entries")
        rows = frozen_copy(self.rows, "row cells", int)
        columns = frozen_copy(self.columns, "column labels", int)
        if matrix.ndim != 2 or matrix.shape != (len(rows), len(columns)):
            raise InvalidInput("matrix shape must match row and column labels")
        if np.any(matrix < -1e-12):
            raise InvalidInput("kernel matrix entries must be nonnegative")
        if columns.ndim != 2 or columns.shape[1] != 2:
            raise InvalidInput("column labels must be (state, profile) pairs")
        n = self.space.n_cells
        for name, labels in (("row cells", rows), ("column states", columns[:, 0])):
            if np.any((labels < 0) | (labels >= n)):
                raise InvalidInput(f"{name} must lie in [0, {n})")
        hold(self, matrix=matrix, rows=rows, columns=columns)

    def block_ids(self):
        """Coarse ids that own at least one matrix row, ascending."""
        return np.unique(self.space.coarse[self.rows]).tolist()


def kernel_matrix(spec: StochasticGameSpec, profiles=None) -> KernelMatrix:
    """Materialize the decomposed density of a game as a KernelMatrix.

    ``profiles`` optionally restricts the columns to a subset of flat
    profile indices (all profiles by default).
    """
    if profiles is None:
        profiles = range(spec.n_profiles)
    try:  # a float or negative index would silently read another profile
        profiles = np.array([operator.index(p) for p in profiles], dtype=int)
    except TypeError:
        raise InvalidInput("profiles must be a sequence of integer profile indices") from None
    if np.any((profiles < 0) | (profiles >= spec.n_profiles)):
        raise InvalidInput(f"profile indices must lie in [0, {spec.n_profiles})")
    dens = spec.cell_density()  # (n_cells, n_states, n_profiles)
    rows = spec.space.divisible_indices
    matrix = dens[rows][:, :, profiles].reshape(len(rows), spec.n_states * len(profiles))
    columns = np.column_stack(
        [np.repeat(np.arange(spec.n_states), len(profiles)), np.tile(profiles, spec.n_states)]
    )
    return KernelMatrix(matrix=matrix, space=spec.space, rows=rows, columns=columns)


def check_coarser(kmtx: KernelMatrix, tol: float = ROW_MATCH_TOL) -> bool:
    """True when the density is measurable against the coarse partition.

    Requires identical rows inside every coarse cell (within ``tol``)
    and that every cell the matrix covers is divisible with positive
    mass confined to divisible cells, so no covered set can collapse
    the fine structure onto the coarse one. Atomic cells outside the
    matrix rows belong to the direct atom channel and do not count.
    """
    if not 0 <= tol < np.inf:  # NaN included: it would pass every matrix
        raise InvalidInput(f"tolerance must be nonnegative and finite, got {tol!r}")
    space = kmtx.space
    if not np.all(space.divisible[kmtx.rows]):
        return False
    coarse_of_rows = space.coarse[kmtx.rows]
    sizes = np.bincount(coarse_of_rows, minlength=space.n_coarse)  # matrix rows per coarse cell
    masses = np.asarray(space.masses, dtype=float)
    if np.any((sizes[space.coarse] > 0) & ~space.divisible & (masses > 0)):
        return False  # a covered coarse cell hides an indivisible chunk
    # rows ordered by block size, then by coarse cell: the blocks of one
    # size are one (blocks, size, columns) stack
    matrix = kmtx.matrix[np.lexsort((coarse_of_rows, sizes[coarse_of_rows]))]
    start = 0
    for size, count in zip(*np.unique(sizes[sizes > 0], return_counts=True)):
        stack = matrix[start : start + size * count].reshape(count, size, matrix.shape[1])
        if np.any(stack.max(axis=1) - stack.min(axis=1) > tol):
            return False
        start += size * count
    return True


def _svd_rank(block: np.ndarray, threshold: float) -> int:
    if block.size == 0:
        return 0
    sv = np.linalg.svd(block, compute_uv=False)
    return int(np.sum(sv > threshold))


def block_rank_profile(kmtx: KernelMatrix, threshold: float = RANK_THRESHOLD):
    """Numerical rank of each coarse row-block, keyed by coarse id.

    Singular values at or below ``threshold`` count as zero. A density
    admitting a J-term decomposition has every block rank at most J.
    """
    if not 0 < threshold < np.inf:  # NaN included; inf would zero every rank
        raise InvalidInput("rank threshold must be positive and finite")
    coarse_of_rows = kmtx.space.coarse[kmtx.rows]
    return {
        e: _svd_rank(kmtx.matrix[coarse_of_rows == e], threshold)
        for e in kmtx.block_ids()
    }


def _require_counts(**counts):
    """Refuse a family count that is not an integer, naming it."""
    for name, value in counts.items():
        if not is_integer(value):
            raise InvalidInput(f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# Family 1: absorbing state plus triangular uniform jumps.


@dataclass(frozen=True)
class LevyParams:
    """Absorbing-jump family: jump intensity, bystander count, grid size."""

    alpha: float
    m_theta: int
    n_cells: int

    def __post_init__(self):
        _require_counts(m_theta=self.m_theta, n_cells=self.n_cells)
        if not (0 < self.alpha <= 1):
            raise InvalidInput("alpha must lie in (0, 1]")
        if self.n_cells < 2:
            raise InvalidInput("need at least 2 grid cells")
        if self.m_theta < 0:
            raise InvalidInput("m_theta must be nonnegative")


def make_levy_kernel(
    params: LevyParams,
    blocks: int = 2,
    payoffs: np.ndarray | None = None,
    discounts=None,
    payoff_bound: float = 1.0,
) -> StochasticGameSpec:
    """Build the absorbing-jump game spec on a uniform grid of [0, 1).

    The unit interval is cut into ``n_cells`` divisible cells (reference
    weight = interval length) plus one atomic absorbing cell at 1. Two
    designated players choose in {-1, +1}; both choosing -1 jumps
    uniformly into [s, 1], both choosing +1 goes straight to the
    absorbing cell, and mixed choices split the difference. Remaining
    players (two with three actions, ``m_theta`` with two) do not affect
    the transition. Uniform-jump masses are integrated exactly against
    each cell, so the transition normalizes exactly.

    The divisible cells are grouped into ``blocks`` equal contiguous
    coarse cells and the density is decomposed against that partition
    with one component per within-block position. Stage payoffs default
    to zero (they are configuration inputs, not part of the family).
    """
    _require_counts(blocks=blocks)
    n = params.n_cells
    if blocks < 1 or n % blocks:
        raise InvalidInput("blocks must divide the cell count")
    block_size = n // blocks
    edges = np.linspace(0.0, 1.0, n + 1)
    mids = (edges[:-1] + edges[1:]) / 2
    length = 1.0 / n
    masses = np.concatenate([np.full(n, length), [length]])
    divisible = np.concatenate([np.ones(n, bool), [False]])
    coarse = np.concatenate([np.arange(n) // block_size, [blocks]])
    space = GridSpace(masses, divisible, coarse)

    m_players = 4 + params.m_theta
    actions = (
        ("L", "M", "R"),
        ("L", "M", "R"),
        ("-1", "1"),
        ("-1", "1"),
    ) + (("L", "R"),) * params.m_theta
    shape = tuple(len(a) for a in actions)
    n_profiles = int(np.prod(shape))
    n_states = n + 1

    # mixing factor of the uniform-jump part per (C, D) action pair
    factor_cd = np.array([[1.0, 0.5], [0.5, 0.0]])
    factor = np.zeros(n_profiles)
    for p in range(n_profiles):
        acts = np.unravel_index(p, shape)
        factor[p] = factor_cd[acts[2], acts[3]]

    sources = np.concatenate([mids, [1.0]])
    # exact overlap of [s, 1] with each cell, per source state
    overlap = np.clip(
        np.minimum(edges[1:][None, :], 1.0) - np.maximum(edges[:-1][None, :], sources[:, None]),
        0.0,
        None,
    )  # (n_states, n_cells)
    density = overlap / length  # wrt the length-weighted reference measure

    q = np.zeros((block_size, blocks + 1, n_states, n_profiles))
    for j in range(block_size):
        cells = np.arange(blocks) * block_size + j
        # (blocks, n_states) density at position-j cell of each block
        q[j, :blocks] = (
            params.alpha * density[:, cells].T[:, :, None] * factor[None, None, :]
        )
    rho = np.zeros((block_size, n_states))
    for j in range(block_size):
        rho[j, np.arange(blocks) * block_size + j] = 1.0

    jump_mass = params.alpha * (1.0 - sources)  # (n_states,)
    atom_kernel = (1.0 - jump_mass[:, None] * factor[None, :]).reshape(1, n_states, n_profiles)

    if payoffs is None:
        payoffs = np.zeros((m_players, n_states, n_profiles))
    if discounts is None:
        discounts = np.full(m_players, 0.5)
    feasible = tuple(np.ones((n_states, len(a)), dtype=bool) for a in actions)
    return StochasticGameSpec(
        discounts=discounts,
        actions=actions,
        feasible=feasible,
        payoffs=payoffs,
        payoff_bound=payoff_bound,
        space=space,
        kernel=KernelDecomposition(rho=rho, q=q),
        atom_kernel=atom_kernel,
    )


def levy_profile_index(spec: StochasticGameSpec, c_action: str, d_action: str) -> int:
    """Flat profile index with the two transition-relevant players set as given
    and every other player at their first action."""
    profile = [0] * spec.players
    profile[2] = spec.actions[2].index(c_action)
    profile[3] = spec.actions[3].index(d_action)
    return spec.profile_index(profile)


# ---------------------------------------------------------------------------
# Family 2: mixtures of state-independent measures plus atoms.


@dataclass(frozen=True)
class NowakParams:
    """Mixture family: atomless components, atomic components, mixing tables.

    mu: (J, n_div) masses of each atomless component over the divisible
        cells; rows must sum to 1.
    delta: (K, n_atoms) masses of each atomic component; rows sum to 1.
    qmix: (J, n_states, n_profiles) mixing weights of the atomless parts.
    bmix: (K, n_states, n_profiles) mixing weights of the atomic parts.
    The J + K mixing weights must lie in [0, 1] and sum to 1 per
    state/profile. States order the divisible cells first, then atoms.
    """

    mu: np.ndarray
    delta: np.ndarray
    qmix: np.ndarray
    bmix: np.ndarray

    def __post_init__(self):
        mu = np.atleast_2d(frozen_copy(self.mu, "mu"))
        delta = frozen_copy(self.delta, "delta")
        delta = np.atleast_2d(delta.reshape(0, 0) if delta.size == 0 else delta)
        qmix = frozen_copy(self.qmix, "qmix")
        bmix = frozen_copy(self.bmix, "bmix")
        if bmix.size == 0:
            bmix = bmix.reshape(0, *qmix.shape[1:])
        if mu.shape[0] < 1:
            raise InvalidInput("need at least one atomless component")
        if qmix.shape[0] != mu.shape[0] or bmix.shape[0] != delta.shape[0]:
            raise InvalidInput("mixing tables must match the component counts")
        if np.any(mu < 0) or np.any(delta < 0):
            raise InvalidInput("component masses must be nonnegative")
        if np.abs(mu.sum(axis=1) - 1.0).max() > 1e-9:
            raise InvalidInput("component masses inconsistent: mu rows must sum to 1")
        if delta.shape[0] and np.abs(delta.sum(axis=1) - 1.0).max() > 1e-9:
            raise InvalidInput("component masses inconsistent: delta rows must sum to 1")
        mix = np.concatenate([qmix, bmix], axis=0)
        if np.any(mix < -1e-12) or np.any(mix > 1 + 1e-12):
            raise InvalidInput("mixing weights must lie in [0, 1]")
        if np.abs(mix.sum(axis=0) - 1.0).max() > 1e-9:
            raise InvalidInput("mixing weights must sum to 1 per state and profile")
        hold(self, mu=mu, delta=delta, qmix=qmix, bmix=bmix)

    @property
    def j_components(self) -> int:
        return self.mu.shape[0]

    @property
    def k_components(self) -> int:
        return self.delta.shape[0]


def make_nowak_game(
    params: NowakParams,
    actions,
    payoffs: np.ndarray,
    discounts,
    payoff_bound: float = 1.0,
) -> StochasticGameSpec:
    """Assemble the mixture-family game.

    The reference measure is the uniform mixture of all components; the
    atomless densities are the component masses divided by the cell
    weights, and the coarse partition collapses all divisible cells into
    a single coarse cell (the mixing weights carry no target-cell
    information), with each atom in its own coarse cell.
    """
    j, k = params.j_components, params.k_components
    n_div = params.mu.shape[1]
    n_atoms = params.delta.shape[1] if k else 0
    n_states = n_div + n_atoms
    if params.qmix.shape[1] != n_states:
        raise InvalidInput("mixing tables must cover every state")
    div_mass = params.mu.sum(axis=0) / (j + k)
    atom_mass = params.delta.sum(axis=0) / (j + k) if k else np.zeros(0)
    masses = np.concatenate([div_mass, atom_mass])
    divisible = np.concatenate([np.ones(n_div, bool), np.zeros(n_atoms, bool)])
    coarse = np.concatenate([np.zeros(n_div, int), 1 + np.arange(n_atoms)])
    space = GridSpace(masses, divisible, coarse)

    rho = np.zeros((j, n_states))
    with np.errstate(invalid="ignore", divide="ignore"):
        rho[:, :n_div] = np.where(div_mass > 0, params.mu / div_mass, 0.0)
    q = np.zeros((j, space.n_coarse) + params.qmix.shape[1:])
    q[:, 0] = params.qmix
    atom_kernel = np.einsum("ksx,ka->asx", params.bmix, params.delta) if k else np.zeros(
        (0,) + params.qmix.shape[1:]
    )
    actions = tuple(tuple(a) for a in actions)
    feasible = tuple(np.ones((n_states, len(a)), dtype=bool) for a in actions)
    return StochasticGameSpec(
        discounts=discounts,
        actions=actions,
        feasible=feasible,
        payoffs=payoffs,
        payoff_bound=payoff_bound,
        space=space,
        kernel=KernelDecomposition(rho=rho, q=q),
        atom_kernel=atom_kernel,
    )


def _seeded_rng(seed):
    """Philox generator keyed by ``seed``, an integer or a list of integers
    in [0, 2**64); a key Philox refuses, or a list entry that is not such
    an integer (numpy would cast it with a warning), is an input error."""
    if isinstance(seed, (list, tuple)) or getattr(seed, "ndim", 0) > 0:
        if not all(is_integer(v) and 0 <= v < 2**64 for v in seed):
            raise InvalidInput(f"seed {seed!r}: list entries must be integers in [0, 2**64)")
        seed = np.array(seed, dtype=np.uint64)
    try:
        return np.random.Generator(np.random.Philox(key=seed))
    except (ValueError, OverflowError) as exc:
        raise InvalidInput(f"seed {seed!r} is not a Philox key: {exc}") from None


def random_nowak_game(
    seed: int,
    n_cells: int = 32,
    j_components: int = 2,
    k_atoms: int = 1,
    n_actions=(2, 2),
    beta_range=(0.2, 0.9),
):
    """Seeded random mixture-family instance; returns (params, spec)."""
    _require_counts(n_cells=n_cells, j_components=j_components, k_atoms=k_atoms)
    if n_cells < 1 or j_components < 1 or k_atoms < 0:
        raise InvalidInput("need n_cells >= 1, j_components >= 1 and k_atoms >= 0")
    rng = _seeded_rng(seed)
    m = len(n_actions)
    n_states = n_cells + k_atoms
    n_profiles = int(np.prod(n_actions))
    mu = rng.gamma(1.0, size=(j_components, n_cells)) + 1e-3
    mu /= mu.sum(axis=1, keepdims=True)
    delta = np.eye(k_atoms) if k_atoms else np.zeros((0, 0))
    mix = rng.gamma(1.0, size=(j_components + k_atoms, n_states, n_profiles)) + 1e-3
    mix /= mix.sum(axis=0, keepdims=True)
    params = NowakParams(
        mu=mu, delta=delta, qmix=mix[:j_components], bmix=mix[j_components:]
    )
    actions = tuple(tuple(f"a{i}" for i in range(k)) for k in n_actions)
    payoffs = rng.uniform(-1.0, 1.0, size=(m, n_states, n_profiles))
    discounts = rng.uniform(beta_range[0], beta_range[1], size=m)
    spec = make_nowak_game(params, actions, payoffs, discounts, payoff_bound=1.0)
    return params, spec


# ---------------------------------------------------------------------------
# Family 3: noisy product states.


@dataclass(frozen=True)
class NoisyGameParams:
    """Product-state family with a conditionally drawn noise coordinate.

    h_masses: weights of the informative coordinate's cells.
    r_masses: weights of the noise coordinate's (divisible) cells.
    alpha: (n_h, n_states, n_profiles) marginal transition density of
        the informative coordinate (integrates to 1 against h_masses).
    noise: (n_h, n_r) noise density given the informative coordinate
        (integrates to 1 against r_masses, row by row).
    """

    h_masses: np.ndarray
    r_masses: np.ndarray
    alpha: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        h_masses = frozen_copy(self.h_masses, "h_masses")
        r_masses = frozen_copy(self.r_masses, "r_masses")
        alpha = frozen_copy(self.alpha, "alpha")
        noise = frozen_copy(self.noise, "noise")
        if np.any(h_masses < 0) or np.any(r_masses < 0):
            raise InvalidInput("coordinate masses must be nonnegative")
        if np.any(alpha < 0) or np.any(noise < 0):
            raise InvalidInput("densities must be nonnegative")
        n_h, n_r = len(h_masses), len(r_masses)
        if noise.shape != (n_h, n_r):
            raise InvalidInput("noise density must be (n_h, n_r)")
        if alpha.ndim != 3 or alpha.shape[0] != n_h:
            raise InvalidInput("alpha must be (n_h, n_states, n_profiles)")
        if np.abs(np.einsum("h,hsx->sx", h_masses, alpha) - 1.0).max() > 1e-9:
            raise InvalidInput("alpha must integrate to 1 against h_masses")
        if np.abs(noise @ r_masses - 1.0).max() > 1e-9:
            raise InvalidInput("noise must integrate to 1 against r_masses per row")
        hold(self, h_masses=h_masses, r_masses=r_masses, alpha=alpha, noise=noise)


def make_noisy_game(
    params: NoisyGameParams,
    actions,
    payoffs: np.ndarray,
    discounts,
    payoff_bound: float = 1.0,
) -> StochasticGameSpec:
    """Assemble the noisy product-state game.

    Product cells (h, r) carry the tilted reference weight
    ``h_mass * r_mass * noise`` so that the transition density with
    respect to it is the informative-coordinate marginal alone; the
    coarse partition groups cells by the informative coordinate, making
    the density coarse-measurable by construction.
    """
    n_h, n_r = len(params.h_masses), len(params.r_masses)
    n_states = n_h * n_r
    if params.alpha.shape[1] != n_states:
        raise InvalidInput("alpha must use the product cells as source states")
    masses = (params.h_masses[:, None] * params.r_masses[None, :] * params.noise).reshape(-1)
    if masses.sum() <= 0:
        raise InvalidInput("zero total reference mass")
    divisible = np.ones(n_states, dtype=bool)
    coarse = np.repeat(np.arange(n_h), n_r)
    space = GridSpace(masses, divisible, coarse)
    rho = np.ones((1, n_states))
    q = params.alpha[None, ...]
    actions = tuple(tuple(a) for a in actions)
    feasible = tuple(np.ones((n_states, len(a)), dtype=bool) for a in actions)
    atom_kernel = np.zeros((0, n_states, params.alpha.shape[2]))
    return StochasticGameSpec(
        discounts=discounts,
        actions=actions,
        feasible=feasible,
        payoffs=payoffs,
        payoff_bound=payoff_bound,
        space=space,
        kernel=KernelDecomposition(rho=rho, q=q),
        atom_kernel=atom_kernel,
    )


def random_noisy_game(
    seed: int,
    n_h: int = 4,
    n_r: int = 5,
    n_actions=(2, 2),
    beta_range=(0.2, 0.9),
    uniform_noise: bool = False,
):
    """Seeded random noisy-family instance; returns (params, spec)."""
    _require_counts(n_h=n_h, n_r=n_r)
    if n_h < 1 or n_r < 1:
        raise InvalidInput("need n_h >= 1 and n_r >= 1")
    rng = _seeded_rng(seed)
    m = len(n_actions)
    n_states = n_h * n_r
    n_profiles = int(np.prod(n_actions))
    h_masses = rng.gamma(1.0, size=n_h) + 1e-3
    h_masses /= h_masses.sum()
    r_masses = rng.gamma(1.0, size=n_r) + 1e-3
    r_masses /= r_masses.sum()
    if uniform_noise:
        noise = np.ones((n_h, n_r))
    else:
        noise = rng.gamma(1.0, size=(n_h, n_r)) + 1e-3
    noise /= (noise @ r_masses)[:, None]
    alpha = rng.gamma(1.0, size=(n_h, n_states, n_profiles)) + 1e-3
    alpha /= np.einsum("h,hsx->sx", h_masses, alpha)[None, :, :]
    params = NoisyGameParams(h_masses=h_masses, r_masses=r_masses, alpha=alpha, noise=noise)
    actions = tuple(tuple(f"a{i}" for i in range(k)) for k in n_actions)
    payoffs = rng.uniform(-1.0, 1.0, size=(m, n_states, n_profiles))
    discounts = rng.uniform(beta_range[0], beta_range[1], size=m)
    spec = make_noisy_game(params, actions, payoffs, discounts, payoff_bound=1.0)
    return params, spec
