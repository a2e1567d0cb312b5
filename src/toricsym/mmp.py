"""Equivariant minimal model program for smooth complete toric surfaces.

A contraction step removes one group orbit of rays whose divisors all have
self-intersection -1 and are pairwise non-adjacent; the driver iterates
until no orbit qualifies and labels the terminal fan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .fan import Fan, _cross, _cycle_dets, _cycle_fan, _cycle_winds_once
from .intlin import Vector
from .symmetry import GroupAction, ray_orbits

MAX_TRACES = 100_000  # explore-all refuses once the traces below one fan pass this


def _require_smooth_complete_surface(fan: Fan, who: str) -> None:
    if fan.rank != 2:
        raise PreconditionError("rank", f"{who} needs a surface fan (rank 2)")
    dets = _cycle_dets(fan.rays)
    if len(dets) < 3 or any(b <= 0 for b in dets):
        raise PreconditionError("incomplete", f"{who} needs a complete fan")
    if not _cycle_winds_once(fan.rays):
        raise PreconditionError("overlapping-cones", f"{who} needs a ray cycle that winds once round the origin")
    if any(b != 1 for b in dets):
        raise PreconditionError("not-smooth", f"{who} needs a smooth fan")


def self_intersection_profile(fan: Fan) -> tuple[int, ...]:
    """The word a_i of a smooth complete surface fan, with v_{i-1} + v_{i+1}
    = a_i v_i in cyclic order; the boundary divisor of ray i has
    self-intersection -a_i."""
    _require_smooth_complete_surface(fan, "the self-intersection profile")
    return _profile(fan)


def _profile(fan: Fan) -> tuple[int, ...]:
    """The word of a fan already known to be a smooth complete surface fan:
    as det(v_{i-1}, v_i) = 1, a_i = det(v_{i-1}, a_i v_i - v_{i-1}) = det(v_{i-1}, v_{i+1})."""
    rays, d = fan.rays, fan.ray_count
    return tuple(_cross(rays[i - 1], rays[(i + 1) % d]) for i in range(d))


def _contractible(fan: Fan, orbits: tuple[tuple[Vector, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The orbits of ``fan`` that are pairwise non-adjacent (-1)-rays, ordered
    by the lexicographically least ray vector each contains.  ``orbits`` are
    the ray orbits of an action on a fan whose rays include ``fan``'s as a
    union of orbits; those that ``fan`` keeps are its own orbits."""
    index = {v: i for i, v in enumerate(fan.rays)}
    d, word = fan.ray_count, _profile(fan)
    good = []
    for rays in orbits:
        if rays[0] not in index:
            continue
        orbit = tuple(sorted(index[v] for v in rays))
        if all(word[i] == 1 for i in orbit) and not any(
            (i - j) % d in (1, d - 1) for i in orbit for j in orbit if i < j
        ):
            good.append(orbit)
    return tuple(sorted(good, key=lambda orbit: min(fan.rays[i] for i in orbit)))


def remove_ray_orbit(fan: Fan, orbit: tuple[int, ...]) -> Fan:
    """Remove an orbit of rays from a surface fan; no smoothness guarantee.

    This is the raw combinatorial step: the stored cycle without the orbit
    is still counterclockwise, and must merely be a complete surface fan.
    """
    if fan.rank != 2:
        raise PreconditionError("rank", "ray-orbit removal is implemented for surfaces")
    drop = set(orbit)
    return _cycle_fan(fan.lattice, [v for i, v in enumerate(fan.rays) if i not in drop])


@dataclass(frozen=True)
class TerminalLabel:
    """Terminal classification: P2, P1xP1, DP6Terminal, Hirzebruch(a), Other."""

    kind: str
    parameter: int | None = None

    def __str__(self) -> str:
        return f"{self.kind}({self.parameter})" if self.parameter is not None else self.kind


P2 = TerminalLabel("P2")
P1XP1 = TerminalLabel("P1xP1")
DP6_TERMINAL = TerminalLabel("DP6Terminal")
OTHER = TerminalLabel("Other")


def classify_terminal(fan: Fan) -> TerminalLabel:
    """Label a fan by its self-intersection word.

    A smooth complete surface fan is fixed up to GL2(Z) by its word a_i
    (Oda 1.6): with 3 rays it is P2, with 4 rays F_a for a = max |a_i|
    (the word is (0, -a, 0, a) up to rotation), and with 6 rays and every
    a_i = 1 the degree-6 del Pezzo hexagon.  A rank-2 fan's stored cycle
    is complete, so it is smooth when every cone has determinant 1.
    """
    d = fan.ray_count
    if fan.rank != 2 or d not in (3, 4, 6) or any(b != 1 for b in _cycle_dets(fan.rays)):
        return OTHER
    word = _profile(fan)
    if d == 3:
        return P2
    if d == 4:
        a = max(abs(x) for x in word)
        return TerminalLabel("Hirzebruch", a) if a else P1XP1
    return DP6_TERMINAL if word == (1,) * 6 else OTHER


@dataclass(frozen=True)
class MMPStep:
    """One contraction: the fan before it and the orbit that was removed."""

    fan: Fan
    orbit: tuple[int, ...]
    orbit_rays: tuple[Vector, ...]


@dataclass(frozen=True)
class MMPTrace:
    steps: tuple[MMPStep, ...]
    terminal: Fan
    label: TerminalLabel


def run_equivariant_mmp(fan: Fan, action: GroupAction, mode: str = "first-orbit"):
    """Run the equivariant contraction loop to a terminal model.

    mode "first-orbit": contract, at each stage, the qualifying orbit that
    contains the lexicographically least ray vector; returns one MMPTrace.
    mode "explore-all": branch over every qualifying orbit and return the
    tuple of all terminal traces in deterministic order (depth first, the
    qualifying orbits of each fan ordered by their least ray vector).

    Both modes take one walk; first-orbit follows only the first orbit at
    each fan, so its trace is the first branch of explore-all.  The input
    fan is validated once on entry; every fan below it is smooth and
    complete by construction: the cone (v_{i-1}, v_{i+1}) left by removing
    a (-1)-ray i has determinant a_i = 1.  A contraction cuts
    a whole orbit out of the stored ray cycle, so the rays of every fan
    below the root are a G-invariant subset and its orbits are the root's
    orbits that remain: the orbits are taken once, at the root, and the
    traces below a fan depend on the fan alone.  Different contraction
    orders that meet at the same fan share its subtree, which is contracted
    and labelled once per call.  The traces grow exponentially with the ray
    count: explore-all refuses (``too-many-branches``) as soon as the traces
    collected below one fan pass ``MAX_TRACES``, so a list holds at most twice that.
    """
    if mode not in ("first-orbit", "explore-all"):
        raise PreconditionError("mode", f"unknown mode {mode!r}; use 'first-orbit' or 'explore-all'")
    _require_smooth_complete_surface(fan, "the equivariant contraction loop")
    if action.fan != fan:
        raise PreconditionError("action-fan", "action was built for a different fan")
    root_orbits = tuple(tuple(fan.rays[i] for i in orbit) for orbit in ray_orbits(action))
    first_only = mode == "first-orbit"
    below: dict[Fan, tuple[MMPTrace, ...]] = {}

    def explore(current: Fan) -> tuple[MMPTrace, ...]:
        orbits = _contractible(current, root_orbits)
        if not orbits:
            return (MMPTrace((), current, classify_terminal(current)),)
        traces = []
        for orbit in orbits[:1] if first_only else orbits:
            nxt = remove_ray_orbit(current, orbit)
            if nxt not in below:
                below[nxt] = explore(nxt)
            step = MMPStep(current, orbit, tuple(current.rays[i] for i in orbit))
            traces.extend(MMPTrace((step,) + t.steps, t.terminal, t.label) for t in below[nxt])
            if len(traces) > MAX_TRACES:
                raise PreconditionError("too-many-branches", f"explore-all has more than {MAX_TRACES} traces")
        return tuple(traces)

    traces = explore(fan)
    return traces[0] if first_only else traces


@dataclass(frozen=True)
class NeighborOppositionFact:
    """Adjacent (-1)-rays i, i+1 whose outer neighbors sum to zero."""

    left: int
    right: int
    outer_left: Vector
    outer_right: Vector


def check_adjacent_minus_one_rule(fan: Fan) -> tuple[NeighborOppositionFact, ...]:
    """Verify outer-neighbor opposition at every adjacent (-1)-pair.

    For each cyclically adjacent pair of (-1)-rays the two outer neighbors
    must be exact negatives of each other; a violation would mean the fan
    data is internally inconsistent.
    """
    word = self_intersection_profile(fan)
    d = fan.ray_count
    facts = []
    for i in range(d):
        j = (i + 1) % d
        if word[i] == 1 and word[j] == 1:
            outer_left = fan.rays[(i - 1) % d]
            outer_right = fan.rays[(j + 1) % d]
            if tuple(a + b for a, b in zip(outer_left, outer_right)) != (0,) * fan.rank:
                raise AssertionError(
                    f"outer neighbors of adjacent (-1)-rays {i},{j} do not oppose"
                )
            facts.append(NeighborOppositionFact(i, j, outer_left, outer_right))
    return tuple(facts)
