"""Finite group actions on a lattice preserving a fan.

Groups are stored as explicit unimodular matrices with their ray
permutations: a generator's is read off its matrix, a product's is composed
from its factors'.  Includes the fan automorphism group (one transversal per
level of a stabilizer chain on a seed cone's rays, found by the cone-seeded
isomorphism search and expanded by composing ray permutations), orbit
machinery, the invariant Picard number, the centralizer computation and the
classification of quadratic Galois twists.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .errors import PreconditionError
from .fan import Fan, _candidate_test, _ray_degrees, _seed_basis
from .intlin import IntMatrix, kernel_basis

Perm = tuple[int, ...]

# Largest group a closure may reach before its generators are judged to
# have infinite order on the fan.
CLOSURE_CAP = 10_000


@dataclass(frozen=True)
class GroupAction:
    """A finite group of unimodular matrices preserving a fan."""

    fan: Fan
    elements: tuple[IntMatrix, ...]
    ray_perms: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def faithful_on_rays(self) -> bool:
        return len(set(self.ray_perms)) == len(self.elements)


def _perm_of(fan: Fan, g: IntMatrix) -> Perm:
    index = {v: i for i, v in enumerate(fan.rays)}
    mapping = tuple(index.get(g.apply(v)) for v in fan.rays)
    cones = set(fan.max_cones)
    if None in mapping or len(set(mapping)) != len(mapping) or any(
        tuple(sorted(mapping[i] for i in cone)) not in cones for cone in fan.max_cones
    ):
        raise PreconditionError("not-fan-preserving", "matrix does not preserve the fan")
    return mapping


def fan_automorphisms(fan: Fan) -> GroupAction:
    """The full finite group Aut(N, fan), ordered by ray permutation.

    A stabilizer chain on the seed basis b_1..b_n of ``fan._seed_basis``: at
    level k, for each other ray c on as many maximal cones as b_k, orderings
    (b_1..b_{k-1}, c, ...) of its ray sets go through ``fan._candidate_test``
    until one is an automorphism u_{k,c}.  Only the identity fixes the basis,
    so each automorphism is one product u_1 ... u_n (u_{k,b_k} = 1), composed
    as ray permutations; its matrix is W adj(B) / det(B), with W the images
    of the seed rays.
    """
    seed, cones = _seed_basis(fan, fan)
    det, adjugate, test = _candidate_test(fan, fan, seed)
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
    perms.sort()
    plain = all(adjugate.entries[i][j] == det * (i == j) for i in range(n) for j in range(n))
    terms = [[(k, a) for k, a in enumerate(adjugate.column(j)) if a] for j in range(n)]

    def matrix(p: Perm) -> IntMatrix:
        w = [fan.rays[p[b]] for b in seed]
        if not plain:
            w = [[sum(a * w[k][i] for k, a in t) // det for i in range(n)] for t in terms]
        return IntMatrix._of(tuple(zip(*w)))

    return GroupAction(fan=fan, elements=tuple(map(matrix, perms)), ray_perms=tuple(perms))


def action_from_generators(fan: Fan, generators: Sequence[IntMatrix]) -> GroupAction:
    """Closure of generator matrices acting on the fan.

    Each generator must be unimodular and fan-preserving; its ray
    permutation is derived from its matrix.  Products are not applied to
    the rays again: g h permutes them by p_g after p_h.  The closure must
    stay below ``CLOSURE_CAP`` elements (a runaway closure means a
    generator does not have finite order on the fan).
    """
    gens = []
    for g in generators:
        if g.rows != fan.rank or g.cols != fan.rank:
            raise PreconditionError("shape", "generator shape does not match the lattice rank")
        if not g.is_unimodular():
            raise PreconditionError("not-unimodular", "generator is not unimodular")
        gens.append((_perm_of(fan, g), g))
    ident = IntMatrix.identity(fan.rank)
    seen = {ident.entries: (tuple(range(fan.ray_count)), ident)}
    queue = [seen[ident.entries]]
    while queue:
        perm, current = queue.pop()
        for p_g, g in gens:
            nxt = g @ current
            if nxt.entries not in seen:
                if len(seen) >= CLOSURE_CAP:
                    raise PreconditionError(
                        "closure-cap",
                        f"group closure exceeded the configured bound of {CLOSURE_CAP} elements",
                    )
                seen[nxt.entries] = entry = (tuple(p_g[j] for j in perm), nxt)
                queue.append(entry)
    pairs = sorted(seen.values(), key=lambda p: p[0])
    return GroupAction(
        fan=fan,
        elements=tuple(g for _, g in pairs),
        ray_perms=tuple(p for p, _ in pairs),
    )


def ray_orbits(action: GroupAction) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the ray indices, ordered by least member.

    The elements are the whole group, so the orbit of ray i is the set of
    its images {p[i]}, with no closure to take.
    """
    perms = action.ray_perms
    return tuple(sorted({tuple(sorted({p[i] for p in perms})) for i in range(action.fan.ray_count)}))


def fixed_space_dimension(action: GroupAction) -> int:
    """Dimension of the common fixed subspace of all group elements."""
    n = action.fan.rank
    rows = []
    ident = IntMatrix.identity(n)
    for g in action.elements:
        if g == ident:
            continue
        for gi, ii in zip(g.entries, ident.entries):
            rows.append(tuple(a - b for a, b in zip(gi, ii)))
    if not rows:
        return n
    return n - IntMatrix.from_rows(rows).rank()


def invariant_picard_number(fan: Fan, action: GroupAction) -> int:
    """Rank of the invariant part of the real Picard group.

    Equals the number of ray orbits minus the dimension of the fixed
    subspace of the lattice action (the invariant-part exact sequence of
    the divisor sequence).
    """
    return len(ray_orbits(action)) - fixed_space_dimension(action)


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


def classify_galois_form(fan: Fan, action: GroupAction, datum: GaloisDatum) -> GaloisForm:
    """Classify a descent datum as split / negation twist / factor swap.

    Requires tau to preserve the fan and to commute with the whole group
    (otherwise the finite action cannot descend through the twist, which
    is reported as an error).
    """
    tau = datum.tau
    if tau.rows != fan.rank:
        raise PreconditionError("shape", "galois matrix shape does not match the lattice rank")
    _perm_of(fan, tau)
    for g in action.elements:
        if (g @ tau) != (tau @ g):
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
