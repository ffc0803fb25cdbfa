"""Declarative discounted stochastic games on cell grids.

A game couples a :class:`~smpe.measure.GridSpace` with per-player
discounts, global action labels, per-state feasibility masks, bounded
stage payoffs, and a transition law split into two channels: a
decomposed density on the divisible part (a sum of components, each the
product of a coarse-cell table and a per-cell density) and direct
probability masses into the atomic cells.

States are the fine cells of the space, in cell order. Action profiles
are enumerated in C order over the per-player global action lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput
from .measure import GridSpace, frozen_copy, hold, is_integer, is_real

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class KernelDecomposition:
    """Transition density on the divisible part as a sum of J components.

    rho: (J, n_cells) nonnegative per-cell densities (expected to vanish
        on atomic cells in well-posed games).
    q: (J, n_coarse, n_states, n_profiles) nonnegative coarse-cell
        tables; component j contributes ``q[j, coarse(k), s, x] * rho[j, k]``
        to the density at target cell k from state s under profile x.
    """

    rho: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        rho = frozen_copy(self.rho, "kernel components")
        q = frozen_copy(self.q, "kernel components")
        if rho.ndim != 2 or q.ndim != 4 or rho.shape[0] != q.shape[0]:
            raise InvalidInput("rho must be (J, n_cells) and q (J, n_coarse, n_states, n_profiles)")
        hold(self, rho=rho, q=q)

    @property
    def n_components(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class StochasticGameSpec:
    """Complete description of a discounted stochastic game on a grid.

    Every array it holds, in ``kernel`` and ``space`` too, is taken in by
    :func:`~smpe.measure.frozen_copy`. Numpy's reductions round in memory
    order, so a spec's result bytes depend on the game's values, not on
    how its arrays were built (gathered, sliced, Fortran-ordered or read
    from a game file).

    discounts: per-player discount factors in [0, 1).
    actions: global action labels per player.
    feasible: per player, boolean (n_states, n_actions_i) feasibility mask.
    payoffs: (m, n_states, n_profiles) stage payoffs; entries at feasible
        profiles must respect ``payoff_bound``.
    payoff_bound: explicit absolute payoff bound C > 0.
    space: the state grid; atomic cells are the atoms of the game.
    kernel: decomposed density on the divisible part.
    atom_kernel: (n_atoms, n_states, n_profiles) probability mass into
        each atomic cell (ordered by cell index).
    """

    discounts: np.ndarray
    actions: tuple
    feasible: tuple
    payoffs: np.ndarray
    payoff_bound: float
    space: GridSpace
    kernel: KernelDecomposition
    atom_kernel: np.ndarray

    def __post_init__(self):
        discounts = frozen_copy(self.discounts, "discounts")
        payoffs = frozen_copy(self.payoffs, "payoffs")
        atom_kernel = frozen_copy(self.atom_kernel, "atom_kernel")
        feasible = tuple(frozen_copy(f, "feasible masks", bool) for f in self.feasible)
        if discounts.ndim != 1:
            raise InvalidInput(f"discounts must be a 1-D array, got shape {discounts.shape}")
        m = len(discounts)
        if m == 0 or np.any(discounts < 0) or np.any(discounts >= 1):
            raise InvalidInput("discount factors must lie in [0, 1)")
        actions = tuple(tuple(str(a) for a in acts) for acts in self.actions)
        if len(actions) != m or any(len(a) == 0 for a in actions):
            raise InvalidInput("each player needs a nonempty global action list")
        n_states = self.space.n_cells
        profile_shape = tuple(len(a) for a in actions)
        n_profiles = math.prod(profile_shape)
        if len(feasible) != m or any(
            f.shape != (n_states, len(actions[i])) for i, f in enumerate(feasible)
        ):
            raise InvalidInput("feasible masks must be (n_states, n_actions_i) per player")
        if payoffs.shape != (m, n_states, n_profiles):
            raise InvalidInput(
                f"payoffs must have shape {(m, n_states, n_profiles)}, got {payoffs.shape}"
            )
        if not (is_real(self.payoff_bound) and 0 < self.payoff_bound < np.inf):
            raise InvalidInput("payoff_bound must be a positive number")
        n_atoms = len(self.space.atom_indices)
        if atom_kernel.shape != (n_atoms, n_states, n_profiles):
            raise InvalidInput(
                f"atom_kernel must have shape {(n_atoms, n_states, n_profiles)}"
            )
        if self.kernel.rho.shape[1] != n_states:
            raise InvalidInput("kernel rho must cover every cell")
        if self.kernel.q.shape[1:] != (self.space.n_coarse, n_states, n_profiles):
            raise InvalidInput("kernel q must be (J, n_coarse, n_states, n_profiles)")
        hold(
            self,
            discounts=discounts,
            actions=actions,
            feasible=feasible,
            payoffs=payoffs,
            payoff_bound=float(self.payoff_bound),
            atom_kernel=atom_kernel,
            _profile_shape=profile_shape,
            _n_profiles=n_profiles,
        )

    @property
    def players(self) -> int:
        return len(self.discounts)

    @property
    def n_states(self) -> int:
        return self.space.n_cells

    @property
    def n_atoms(self) -> int:
        return len(self.space.atom_indices)

    @property
    def profile_shape(self) -> tuple:
        return self._profile_shape

    @property
    def n_profiles(self) -> int:
        return self._n_profiles

    def profile_index(self, profile) -> int:
        return int(np.ravel_multi_index(tuple(profile), self.profile_shape))

    def profile_actions(self, flat_index: int) -> tuple:
        return tuple(int(v) for v in np.unravel_index(flat_index, self.profile_shape))

    def feasible_mask(self) -> np.ndarray:
        """(n_states, n_profiles) boolean mask of the profiles feasible at each state."""
        mask = np.ones((self.n_states,) + self.profile_shape, dtype=bool)
        for i, feas in enumerate(self.feasible):
            shape = [self.n_states] + [1] * self.players
            shape[1 + i] = -1
            mask &= feas.reshape(shape)
        return mask.reshape(self.n_states, -1)

    def moment_weights(self) -> np.ndarray:
        """(J, n_coarse) mass-weighted integrals of each density per coarse cell."""
        masses = np.asarray(self.space.masses, dtype=float)
        weights = np.zeros((self.kernel.n_components, self.space.n_coarse))
        np.add.at(
            weights.T, self.space.coarse, (self.kernel.rho * masses).T
        )
        return weights

    def cell_density(self) -> np.ndarray:
        """(n_cells, n_states, n_profiles) decomposed density at each target
        cell, computed once per spec and read-only."""
        density = self.__dict__.get("_cell_density")
        if density is None:
            q_at_cell = self.kernel.q[:, self.space.coarse, :, :]  # (J, n_cells, s, x)
            density = np.einsum("jk,jksx->ksx", self.kernel.rho, q_at_cell)
            hold(self, _cell_density=density)
        return density

    def transition_masses(self) -> np.ndarray:
        """(n_cells, n_states, n_profiles) probability mass into each cell.

        Divisible targets receive cell mass times the decomposed density;
        atomic targets receive their direct channel plus any density-borne
        mass (the latter is zero in well-posed games).
        """
        masses = np.asarray(self.space.masses, dtype=float)
        out = masses[:, None, None] * self.cell_density()
        atoms = self.space.atom_indices
        if len(atoms):
            out[atoms] += self.atom_kernel
        return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of semantic validation: violations plus structural flags."""

    passed: bool
    violations: tuple
    no_g_atom: bool

    def __bool__(self) -> bool:
        return self.passed


def validate_game(spec: StochasticGameSpec, tol: float = NORMALIZATION_TOL) -> ValidationReport:
    """Check kernel signs, transition normalization, feasibility and payoff bounds.

    Violations are reported, not raised. The report also states whether
    the decomposed kernel charges divisible cells only, i.e. whether the
    fine structure stays strictly finer than the coarse partition on the
    part of the space the density reaches.
    """
    if not 0 <= tol < np.inf:  # NaN included: it would pass every game
        raise InvalidInput(f"tolerance must be nonnegative and finite, got {tol!r}")
    violations = []
    if np.any(spec.kernel.rho < 0) or np.any(spec.kernel.q < 0) or np.any(spec.atom_kernel < 0):
        violations.append("negative kernel component")
    feas_any = np.stack([feas.any(axis=1) for feas in spec.feasible])
    if not feas_any.all():
        player, state = np.argwhere(~feas_any)[0]
        violations.append(f"empty feasible set for player {player} at state {state}")
    mask = spec.feasible_mask()
    div_mass = np.einsum("je,jesx->sx", spec.moment_weights(), spec.kernel.q)
    total = div_mass + spec.atom_kernel.sum(axis=0)
    off = np.where(mask, np.abs(total - 1.0), 0.0)
    worst = off.argmax(axis=1)  # first worst profile per state
    bad = np.flatnonzero(off.max(axis=1) > tol)
    for s in bad[:5]:
        violations.append(
            f"normalization {total[s, worst[s]]:g} != 1 at state {s}, profile {worst[s]}"
        )
    if len(bad) > 5:
        violations.append(f"normalization fails at {len(bad)} states in total")
    bound = np.where(mask, np.abs(spec.payoffs), 0.0).max(axis=2)  # (players, n_states)
    over = bound > spec.payoff_bound + 1e-12
    for i in np.flatnonzero(over.any(axis=1)):
        s = over[i].argmax()  # the first offending state
        violations.append(
            f"payoff bound exceeded: |u| = {bound[i, s]:g} > C = {spec.payoff_bound:g}"
            f" (player {i}, state {s})"
        )
    atoms = spec.space.atom_indices
    no_g_atom = not (len(atoms) and np.any(spec.kernel.rho[:, atoms] > 0))
    return ValidationReport(passed=not violations, violations=tuple(violations), no_g_atom=no_g_atom)


def sunspot_extend(spec: StochasticGameSpec, sunspot_cells: int) -> StochasticGameSpec:
    """Append a payoff-irrelevant public randomization coordinate to the state.

    Every divisible cell is subdivided into ``sunspot_cells`` equal-mass
    divisible sub-cells; atomic cells are carried unchanged. Payoffs,
    feasibility and kernel values are copied across the new coordinate,
    and the new coarse partition is the original fine partition, so the
    extended kernel is measurable with respect to it by construction.
    """
    if not is_integer(sunspot_cells) or sunspot_cells < 2:
        raise InvalidInput(f"sunspot_cells must be an integer >= 2, got {sunspot_cells!r}")
    if not spec.space.divisible.any():
        raise InvalidInput("nothing to extend: the game has no divisible cells")
    old = spec.space
    copies = np.where(old.divisible, sunspot_cells, 1)
    origin = np.repeat(np.arange(old.n_cells), copies)
    masses = np.asarray((old.masses / copies)[origin], dtype=float)
    # np.take gathers straight into C-ordered arrays. The new coarse cell k0
    # is the old fine cell k0: q looks up the old coarse table at the old
    # coarse id of k0, for the old source state behind each new state
    q = np.take(np.take(spec.kernel.q, old.coarse, axis=1), origin, axis=2)
    return replace(
        spec,
        feasible=tuple(f[origin] for f in spec.feasible),
        payoffs=np.take(spec.payoffs, origin, axis=1),
        space=GridSpace(masses, old.divisible[origin], origin),
        kernel=KernelDecomposition(rho=np.take(spec.kernel.rho, origin, axis=1), q=q),
        atom_kernel=np.take(spec.atom_kernel, origin, axis=1),
    )
