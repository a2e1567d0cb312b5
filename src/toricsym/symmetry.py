"""Finite group actions on a lattice preserving a fan.

A fan's rays span its lattice, so a fan-preserving matrix is fixed by the
permutation it induces on the rays.  A group is held as its generators' ray
permutations; its order, its ray permutations and its matrices are computed
when first asked for (``GroupAction``).  Includes the fan automorphism group
(one transversal per level of a stabilizer chain on a seed cone's rays,
found by the cone-seeded isomorphism search), orbit machinery, the
invariant Picard number from ray orbits, the centralizer computation and
the classification of quadratic Galois twists, all from the generators.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from itertools import permutations
from typing import Sequence

from .errors import PreconditionError
from .fan import Fan, _candidate_test, _cycle_cones, _ray_degrees, _read_off, _seed_basis
from .intlin import IntMatrix, _det, kernel_basis
from .record import Record

Perm = tuple[int, ...]


class GroupAction(Record):
    """A finite group of unimodular matrices preserving a fan, held as the
    ray permutations ``generators`` of a generating set.  The element
    permuting the rays by p is ``fan._read_off`` of the rays p[b], b in the
    ray basis ``seed``; ``transversals``, when given, are the levels of a
    stabilizer chain on ``seed``, each led by the identity.  Computed on
    first use: ``order`` (the product of the transversal sizes, or else the
    number of ray permutations), ``ray_perms`` (the transversals' products,
    or else the generators closed under composition, sorted) and
    ``elements`` (their matrices, in that order).  Equality is identity.
    """

    __slots__ = ("fan", "seed", "generators", "transversals", "__dict__")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, fan: Fan, seed: tuple[int, ...], generators: tuple[Perm, ...], transversals=None):
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "transversals", transversals)

    @cached_property
    def order(self) -> int:
        return math.prod(map(len, self.transversals or (self.ray_perms,)))

    @cached_property
    def ray_perms(self) -> tuple[Perm, ...]:
        if self.transversals is None:
            group = frontier = {tuple(range(self.fan.ray_count))}
            while frontier:
                frontier = {tuple(map(g.__getitem__, p)) for p in frontier for g in self.generators} - group
                group |= frontier
            return tuple(sorted(group))
        *levels, perms = self.transversals
        for level in reversed(levels):
            perms = [tuple(map(u.__getitem__, p)) for u in level for p in perms]
        return tuple(sorted(perms))

    @cached_property
    def elements(self) -> tuple[IntMatrix, ...]:
        read_off, seed = self._seed_read_off, self.seed
        return tuple([read_off([p[b] for b in seed]) for p in self.ray_perms])

    @cached_property
    def _seed_read_off(self):
        """``fan._read_off`` of the seed rays: the matrix of a ray permutation
        of the group from the images of ``seed``, with nothing checked."""
        return _read_off(self.fan, [self.fan.rays[b] for b in self.seed])[2]


def _perm_of(fan: Fan, g: IntMatrix) -> Perm:
    """The ray permutation of an invertible matrix, or ``not-fan-preserving``;
    row i of g combines the rays' coordinate columns into coordinate i of their images."""
    index, d = {v: i for i, v in enumerate(fan.rays)}, fan.ray_count
    if fan.rank == 2 and fan.max_cones == _cycle_cones(d):
        # A rank-2 fan stores its full cycle: its cones are the adjacent
        # pairs, _cycle_cones(d).  A ray map sends those onto cones iff it
        # rotates or reflects the cycle, as a linear bijection of a complete
        # surface fan's rays does (Oda 1.6): from the image of ray 0, the
        # images read the cycle forwards or backwards.
        (a, b), (c, e) = g.entries
        mapping = tuple([index.get((a * x + b * y, c * x + e * y)) for x, y in fan.rays])
        r, m = range(d), mapping[0]  # an image that is no ray, m = None too, matches neither
        preserved = mapping in ((*r[m:], *r[:m]), (*r[m::-1], *r[:m:-1]))
    else:
        columns = tuple(zip(*fan.rays))
        images = zip(*(map(sum, zip(*([a * x for x in c] for a, c in zip(row, columns) if a))) for row in g.entries))
        mapping = tuple(map(index.get, images))
        cones = set(map(frozenset, fan.max_cones))
        preserved = None not in mapping and len(set(mapping)) == d and cones.issuperset(
            frozenset(map(mapping.__getitem__, cone)) for cone in fan.max_cones
        )
    if not preserved:
        raise PreconditionError("not-fan-preserving", "matrix does not preserve the fan")
    return mapping


def fan_automorphisms(fan: Fan) -> GroupAction:
    """The full finite group Aut(N, fan), held as its stabilizer chain.

    A stabilizer chain on the seed basis b_1..b_n of ``fan._seed_basis``: at
    level k, for each other ray c on as many maximal cones as b_k, orderings
    (b_1..b_{k-1}, c, ...) of its ray sets go through ``fan._candidate_test``
    until one is an automorphism u_{k,c}.  Only the identity fixes the basis,
    so each automorphism is one product u_1 ... u_n (u_{k,b_k} = 1): the
    order is the product of the level sizes, and the transversal elements
    generate the group.
    """
    seed, cones = _seed_basis(fan, fan)
    n, d, degrees = fan.rank, fan.ray_count, _ray_degrees(fan)
    read_off, test = _candidate_test(fan, fan, seed, degrees)
    transversals = [[tuple(range(d))] for _ in seed]
    for k, b in enumerate(seed):
        fixed = seed[: k + 1]
        for c in range(d):
            if degrees[c] == degrees[b] and c not in fixed:
                head = seed[:k] + (c,)
                rests = ([j for j in cone if j not in head] for cone in cones if c in cone)
                for found in filter(None, (test(head + t) for rest in rests for t in permutations(rest, n - k - 1))):
                    transversals[k].append(found[0])
                    break
        cones = [cone for cone in cones if b in cone]
    action = GroupAction(fan, seed, tuple([u for level in transversals for u in level[1:]]), transversals)
    action.__dict__["_seed_read_off"] = read_off  # the search's read-off of the same seed rays
    return action


def action_from_generators(fan: Fan, generators: Sequence[IntMatrix]) -> GroupAction:
    """The group generated by fan-preserving matrices.

    Each generator must be unimodular and fan-preserving; its ray
    permutation is read off its matrix and kept.  The group embeds in the
    permutations of the rays, so it is finite, and ``GroupAction`` closes
    it only when its order or elements are asked for.  Where the rays do
    not span the lattice they do not determine a matrix, and the fan is
    refused (``rays-do-not-span``).
    """
    gens = []
    for g in generators:
        if g.rows != fan.rank or g.cols != fan.rank:
            raise PreconditionError("shape", "generator shape does not match the lattice rank")
        if abs(g.det()) != 1:
            raise PreconditionError("not-unimodular", "generator is not unimodular")
        gens.append(_perm_of(fan, g))
    return GroupAction(fan, _seed_basis(fan, fan)[0], tuple(gens))


def ray_orbits(action: GroupAction) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the ray indices, ordered by least member.

    Each orbit is grown from its least ray by the generators' permutations;
    the group is finite, so a set closed under them is closed under it.
    """
    placed, orbits = [False] * action.fan.ray_count, []
    for i, seen in enumerate(placed):
        if not seen:
            placed[i], orbit = True, [i]
            for j in orbit:  # the list grows while it is read
                for p in action.generators:
                    if not placed[p[j]]:
                        placed[p[j]] = True
                        orbit.append(p[j])
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def invariant_picard_number(action: GroupAction) -> int:
    """Rank of the invariant part of the real Picard group.

    Equals the number of ray orbits minus the dimension of the fixed
    subspace of the lattice action (the invariant-part exact sequence of
    the divisor sequence).  That dimension is the rank of the ray-orbit
    sums: averaging over the group maps N_Q onto the fixed space, the rays
    span N_Q, and a ray's average is a multiple of its orbit sum.
    """
    fan, orbits = action.fan, ray_orbits(action)
    sums = [tuple(map(sum, zip(*(fan.rays[i] for i in orbit)))) for orbit in orbits]
    return len(orbits) - IntMatrix._of(tuple(sums)).rank()


def centralizer_in_GL(action: GroupAction) -> tuple[IntMatrix, ...]:
    """All unimodular matrices commuting with every element of the group.

    Solves the commutation system of the generators' matrices exactly;
    when the commutant is the line through the identity the unimodular
    points are exactly +-identity.
    Larger commutants may contain infinitely many unimodular points, so
    they are reported as an error rather than enumerated.
    """
    n = action.fan.rank
    if n > 3:
        raise PreconditionError("rank", "centralizer computation is limited to rank <= 3")
    rows = [(0,) * (n * n)]  # the identity's equations, for a group with no generator
    for g in (action._seed_read_off([p[b] for b in action.seed]) for p in action.generators):
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


class GaloisDatum(Record):
    """Order <= 2 lattice involution ``tau`` encoding a quadratic descent datum."""

    __slots__ = ("tau",)

    def __post_init__(self):
        n = self.tau.rows
        if self.tau.cols != n:
            raise ValueError("tau must be square")
        if (self.tau @ self.tau) != IntMatrix.identity(n):
            raise ValueError("tau must square to the identity")


def classify_galois_form(action: GroupAction, datum: GaloisDatum) -> GaloisForm:
    """Classify a descent datum as split / negation twist / factor swap.

    Requires tau to preserve the fan and to commute with the whole group
    (otherwise the finite action cannot descend through the twist, which
    is reported as an error).  The rays span, so tau commutes with g iff
    their ray permutations commute, and with the group iff with each
    generator.

    The form is Reiner's type of (N, tau), which no change of basis moves:
    N splits as Z+^a + Z-^b + Z[C2]^c (Reiner 1957), the saturated kernels
    of tau - 1 and tau + 1 have ranks a + c and b + c, and their sum has
    index 2^c in N.  Split is (n, 0, 0), the negation twist (0, n, 0), a
    factor swap (0, 0, n/2), and any other triple is ``OTHER``.
    """
    fan, tau = action.fan, datum.tau
    if tau.rows != fan.rank:
        raise PreconditionError("shape", "galois matrix shape does not match the lattice rank")
    p_tau = _perm_of(fan, tau)
    for p in action.generators:
        if any(p[t] != p_tau[q] for t, q in zip(p_tau, p)):
            raise PreconditionError(
                "galois-noncommuting",
                "tau does not commute with the group action; the action does not descend",
            )
    n = fan.rank
    shifted = ([tuple(x - s * (i == j) for j, x in enumerate(row)) for i, row in enumerate(tau.entries)] for s in (1, -1))
    plus, minus = (kernel_basis(IntMatrix._of(tuple(m))) for m in shifted)
    c = abs(_det(plus + minus)).bit_length() - 1
    a, b = len(plus) - c, len(minus) - c
    if (a, b, c) == (n, 0, 0):
        return GaloisForm.SPLIT
    if (a, b, c) == (0, n, 0):
        return GaloisForm.NEGATION_TWIST
    return GaloisForm.FACTOR_SWAP if a == b == 0 else GaloisForm.OTHER
