"""Finite group actions on a lattice preserving a fan.

A fan's rays span its lattice, so a fan-preserving matrix is fixed by the
permutation it induces on the rays.  Groups are built as ray permutations,
closed by composing them, and each element's matrix is read off its
permutation once, by the read-off of ``fan._read_off`` (``_group_action``).
Includes the fan automorphism group (one transversal per level of a
stabilizer chain on a seed cone's rays, found by the cone-seeded isomorphism
search and expanded by composing ray permutations), orbit machinery, the
fixed space and invariant Picard number from ray orbits, the centralizer
computation and the classification of quadratic Galois twists.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .errors import PreconditionError
from .fan import Fan, _candidate_test, _ray_degrees, _read_off, _seed_basis
from .intlin import IntMatrix, kernel_basis

Perm = tuple[int, ...]


@dataclass(frozen=True)
class GroupAction:
    """A finite group of unimodular matrices preserving a fan."""

    fan: Fan
    elements: tuple[IntMatrix, ...]
    ray_perms: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _perm_of(fan: Fan, g: IntMatrix) -> Perm:
    index = {v: i for i, v in enumerate(fan.rays)}
    mapping = tuple(index.get(g.apply(v)) for v in fan.rays)
    cones = set(fan.max_cones)
    if None in mapping or len(set(mapping)) != len(mapping) or any(
        tuple(sorted(mapping[i] for i in cone)) not in cones for cone in fan.max_cones
    ):
        raise PreconditionError("not-fan-preserving", "matrix does not preserve the fan")
    return mapping


def _group_action(fan: Fan, seed: Sequence[int], read_off, perms: list[Perm]) -> GroupAction:
    """The group of the ray permutations ``perms``, ordered by permutation.

    The element permuting the rays by p is ``read_off`` (``fan._read_off`` of
    the seed basis) of the rays p[b]; every p comes from a fan automorphism,
    so nothing is checked.
    """
    perms.sort()
    return GroupAction(fan, tuple(read_off([p[b] for b in seed]) for p in perms), tuple(perms))


def fan_automorphisms(fan: Fan) -> GroupAction:
    """The full finite group Aut(N, fan), ordered by ray permutation.

    A stabilizer chain on the seed basis b_1..b_n of ``fan._seed_basis``: at
    level k, for each other ray c on as many maximal cones as b_k, orderings
    (b_1..b_{k-1}, c, ...) of its ray sets go through ``fan._candidate_test``
    until one is an automorphism u_{k,c}.  Only the identity fixes the basis,
    so each automorphism is one product u_1 ... u_n (u_{k,b_k} = 1), composed
    as ray permutations, whose matrices the search's ``read_off`` gives.
    """
    seed, cones = _seed_basis(fan, fan)
    read_off, test = _candidate_test(fan, fan, seed)
    n, d, degrees = fan.rank, fan.ray_count, _ray_degrees(fan)
    transversals = [[tuple(range(d))] for _ in seed]
    for k, b in enumerate(seed):
        for c in range(d):
            if c not in seed[: k + 1] and degrees[c] == degrees[b]:
                head = seed[:k] + (c,)
                rests = ([j for j in cone if j not in head] for cone in cones if c in cone)
                for found in filter(None, (test(head + t) for rest in rests for t in permutations(rest, n - k - 1))):
                    transversals[k].append(found[0])
                    break
        cones = [cone for cone in cones if b in cone]
    perms = transversals[-1]
    for level in reversed(transversals[:-1]):
        perms = [tuple(map(u.__getitem__, p)) for u in level for p in perms]
    return _group_action(fan, seed, read_off, perms)


def action_from_generators(fan: Fan, generators: Sequence[IntMatrix]) -> GroupAction:
    """The group generated by fan-preserving matrices.

    Each generator must be unimodular and fan-preserving; its ray
    permutation is read off its matrix.  The generators' permutations are
    closed by composition (g h permutes the rays by p_g after p_h): the
    group embeds in the permutations of the rays, so it is finite and the
    closure stops at its order; ``fan._read_off`` of the seed basis gives
    the matrices.  Where the rays do not span the lattice they do not
    determine a matrix, and the fan is refused (``rays-do-not-span``).
    """
    gens = []
    for g in generators:
        if g.rows != fan.rank or g.cols != fan.rank:
            raise PreconditionError("shape", "generator shape does not match the lattice rank")
        if not g.is_unimodular():
            raise PreconditionError("not-unimodular", "generator is not unimodular")
        gens.append(_perm_of(fan, g))
    seed, _ = _seed_basis(fan, fan)
    group = frontier = {tuple(range(fan.ray_count))}
    while frontier:
        frontier = {tuple(map(g.__getitem__, p)) for p in frontier for g in gens} - group
        group |= frontier
    return _group_action(fan, seed, _read_off(fan, [fan.rays[i] for i in seed])[2], list(group))


def ray_orbits(action: GroupAction) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the ray indices, ordered by least member.

    The elements are the whole group, so the orbit of ray i is the set of
    its images {p[i]}, with no closure to take.
    """
    perms = action.ray_perms
    return tuple(sorted({tuple(sorted({p[i] for p in perms})) for i in range(action.fan.ray_count)}))


def _orbit_sum_rank(fan: Fan, orbits: tuple[tuple[int, ...], ...]) -> int:
    """Rank of the ray-orbit sums."""
    sums = [tuple(map(sum, zip(*(fan.rays[i] for i in orbit)))) for orbit in orbits]
    return IntMatrix._of(tuple(sums)).rank()


def fixed_space_dimension(action: GroupAction) -> int:
    """Dimension of the common fixed subspace of all group elements: the rank
    of the ray-orbit sums.  Averaging over the group maps N_Q onto the fixed
    space, the rays span N_Q, and a ray's average is a multiple of its orbit sum."""
    return _orbit_sum_rank(action.fan, ray_orbits(action))


def invariant_picard_number(action: GroupAction) -> int:
    """Rank of the invariant part of the real Picard group.

    Equals the number of ray orbits minus the dimension of the fixed
    subspace of the lattice action (the invariant-part exact sequence of
    the divisor sequence).
    """
    orbits = ray_orbits(action)
    return len(orbits) - _orbit_sum_rank(action.fan, orbits)


def centralizer_in_GL(action: GroupAction) -> tuple[IntMatrix, ...]:
    """All unimodular matrices commuting with every element of the group.

    Solves the commutation system exactly; when the commutant is the line
    through the identity the unimodular points are exactly +-identity.
    Larger commutants may contain infinitely many unimodular points, so
    they are reported as an error rather than enumerated.
    """
    n = action.fan.rank
    if n > 3:
        raise PreconditionError("rank", "centralizer computation is limited to rank <= 3")
    rows = []
    for g in action.elements:
        # (gX - Xg)[i][j] = sum_k g[i][k] X[k][j] - X[i][k] g[k][j] = 0
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[k * n + j] += g.entries[i][k]
                    row[i * n + k] -= g.entries[k][j]
                rows.append(tuple(row))
    basis = kernel_basis(IntMatrix.from_rows(rows))
    dim = len(basis)
    if dim != 1:
        raise PreconditionError(
            "commutant-too-large",
            f"commutant has dimension {dim}; unimodular points are not enumerable by this routine",
        )
    ident = IntMatrix.identity(n)
    return (ident, -ident)


class GaloisForm(enum.Enum):
    SPLIT = "split"
    NEGATION_TWIST = "negation-twist"
    FACTOR_SWAP = "factor-swap"
    OTHER = "other"


@dataclass(frozen=True)
class GaloisDatum:
    """Order <= 2 lattice involution encoding a quadratic descent datum."""

    tau: IntMatrix

    def __post_init__(self):
        n = self.tau.rows
        if self.tau.cols != n:
            raise ValueError("tau must be square")
        if (self.tau @ self.tau) != IntMatrix.identity(n):
            raise ValueError("tau must square to the identity")


def _is_block_swap_permutation(tau: IntMatrix) -> bool:
    """Fixed-point-free involutive permutation matrix (a factor swap)."""
    n = tau.rows
    perm = []
    for j in range(n):
        col = tau.column(j)
        if sorted(col) != [0] * (n - 1) + [1]:
            return False
        perm.append(col.index(1))
    if any(perm[i] == i for i in range(n)):
        return False
    return all(perm[perm[i]] == i for i in range(n))


def classify_galois_form(action: GroupAction, datum: GaloisDatum) -> GaloisForm:
    """Classify a descent datum as split / negation twist / factor swap.

    Requires tau to preserve the fan and to commute with the whole group
    (otherwise the finite action cannot descend through the twist, which
    is reported as an error).  The rays span, so tau commutes with g iff
    their ray permutations commute.
    """
    fan, tau = action.fan, datum.tau
    if tau.rows != fan.rank:
        raise PreconditionError("shape", "galois matrix shape does not match the lattice rank")
    p_tau = _perm_of(fan, tau)
    for p in action.ray_perms:
        if any(p[t] != p_tau[q] for t, q in zip(p_tau, p)):
            raise PreconditionError(
                "galois-noncommuting",
                "tau does not commute with the group action; the action does not descend",
            )
    n = fan.rank
    if tau == IntMatrix.identity(n):
        return GaloisForm.SPLIT
    if tau == -IntMatrix.identity(n):
        return GaloisForm.NEGATION_TWIST
    if _is_block_swap_permutation(tau):
        return GaloisForm.FACTOR_SWAP
    return GaloisForm.OTHER
