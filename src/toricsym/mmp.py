"""Equivariant minimal model program for smooth complete toric surfaces.

A contraction step removes one group orbit of rays whose divisors all have
self-intersection -1 and are pairwise non-adjacent; the driver iterates
until no orbit qualifies and labels the terminal fan.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import PreconditionError
from .fan import Fan, Lattice, _cross, _cycle_fan, surface_key, validate_fan
from .intlin import Vector
from .symmetry import GroupAction, ray_orbits


def _require_smooth_complete_surface(fan: Fan, who: str) -> None:
    if fan.rank != 2:
        raise PreconditionError("rank", f"{who} needs a surface fan (rank 2)")
    report = validate_fan(fan)
    if not report.complete:
        raise PreconditionError("incomplete", f"{who} needs a complete fan")
    if not report.smooth:
        raise PreconditionError("not-smooth", f"{who} needs a smooth fan")


@dataclass(frozen=True)
class SelfIntersectionProfile:
    """Per-ray integers a_i with v_{i-1} + v_{i+1} = a_i v_i (cyclic order).

    The boundary divisor of ray i has self-intersection -a_i.
    """

    coefficients: tuple[int, ...]

    @property
    def self_intersections(self) -> tuple[int, ...]:
        return tuple(-a for a in self.coefficients)


def self_intersection_profile(fan: Fan) -> SelfIntersectionProfile:
    """Neighbor-sum coefficients of a smooth complete surface fan."""
    _require_smooth_complete_surface(fan, "the self-intersection profile")
    return _profile(fan)


def _profile(fan: Fan) -> SelfIntersectionProfile:
    """The profile of a fan already known to be a smooth complete surface fan."""
    d = fan.ray_count
    coeffs = []
    for i in range(d):
        prev = fan.rays[(i - 1) % d]
        nxt = fan.rays[(i + 1) % d]
        v = fan.rays[i]
        total = tuple(p + q for p, q in zip(prev, nxt))
        pivot = 0 if v[0] != 0 else 1
        if total[pivot] % v[pivot]:
            raise PreconditionError("profile", f"ray {i}: neighbor sum not a multiple of the ray")
        a = total[pivot] // v[pivot]
        if tuple(a * x for x in v) != total:
            raise PreconditionError("profile", f"ray {i}: neighbor sum is not parallel to the ray")
        coeffs.append(a)
    return SelfIntersectionProfile(tuple(coeffs))


def _adjacent(i: int, j: int, d: int) -> bool:
    return (i - j) % d in (1, d - 1)


def contractible_orbits(fan: Fan, action: GroupAction) -> tuple[tuple[int, ...], ...]:
    """Ray orbits consisting of pairwise non-adjacent (-1)-rays.

    Returned in a deterministic order: by the lexicographically least ray
    vector contained in the orbit.
    """
    if action.fan != fan:
        raise PreconditionError("action-fan", "action was built for a different fan")
    return _contractible(fan, _orbit_rays(action), self_intersection_profile(fan))


def _orbit_rays(action: GroupAction) -> tuple[tuple[Vector, ...], ...]:
    rays = action.fan.rays
    return tuple(tuple(rays[i] for i in orbit) for orbit in ray_orbits(action))


def _contractible(
    fan: Fan, orbits: tuple[tuple[Vector, ...], ...], profile: SelfIntersectionProfile
) -> tuple[tuple[int, ...], ...]:
    """``orbits`` are the ray orbits of an action on a fan whose rays
    include ``fan``'s as a union of orbits; those that ``fan`` keeps are
    its own orbits."""
    d = fan.ray_count
    index = {v: i for i, v in enumerate(fan.rays)}
    good = []
    for rays in orbits:
        if rays[0] not in index:
            continue
        orbit = tuple(sorted(index[v] for v in rays))
        if any(profile.coefficients[i] != 1 for i in orbit):
            continue
        if any(_adjacent(i, j, d) for i in orbit for j in orbit if i < j):
            continue
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


def contract_orbit(fan: Fan, orbit: tuple[int, ...]) -> Fan:
    """Contract a non-adjacent orbit of (-1)-rays; the input is validated
    smooth and the result is certified smooth by the contraction."""
    return _contract(fan, orbit, self_intersection_profile(fan))


def _contract(fan: Fan, orbit: tuple[int, ...], profile: SelfIntersectionProfile) -> Fan:
    """Checks of ``contract_orbit`` with a known profile of a fan known to
    be smooth and complete."""
    d = fan.ray_count
    if any(profile.coefficients[i] != 1 for i in orbit):
        raise PreconditionError("not-minus-one", "orbit contains a ray that is not a (-1)-ray")
    if any(_adjacent(i, j, d) for i in orbit for j in orbit if i < j):
        raise PreconditionError("adjacent-orbit", "orbit contains cyclically adjacent rays")
    result = remove_ray_orbit(fan, orbit)
    # Equal to validating the result in full: the cycle check of
    # remove_ray_orbit is exactly completeness, and every cone of the result
    # but the new (v_{i-1}, v_{i+1}) of each removed i is one of the input's.
    if any(_cross(fan.rays[i - 1], fan.rays[(i + 1) % d]) != 1 for i in orbit):
        raise PreconditionError("contraction-broke-fan", "a contracted cone is not unimodular")
    return result


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


@functools.cache
def _reference_key(*cycle: Vector) -> tuple[Vector, ...]:
    """Surface key of the reference model with these counterclockwise rays."""
    return surface_key(_cycle_fan(Lattice.standard(2), list(cycle)))


def classify_terminal(fan: Fan) -> TerminalLabel:
    """Label a fan by comparing its surface key with the reference models'.

    Every smooth complete 4-ray fan is some F_a, with key (1, 0), (0, 1),
    (-1, -|a|), (0, -1), so the key names the one model to compare with.
    """
    d = fan.ray_count
    if d not in (3, 4, 6):
        return OTHER
    key = surface_key(fan)
    if d == 3 and key == _reference_key((1, 0), (0, 1), (-1, -1)):
        return P2
    if d == 4:
        a = -key[2][1]
        if a >= 0 and key == _reference_key((1, 0), (0, 1), (-1, a), (0, -1)):
            return TerminalLabel("Hirzebruch", a) if a else P1XP1
    if d == 6 and key == _reference_key((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)):
        return DP6_TERMINAL
    return OTHER


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

    @property
    def step_count(self) -> int:
        return len(self.steps)


def _step(fan: Fan, orbit: tuple[int, ...]) -> MMPStep:
    return MMPStep(fan=fan, orbit=orbit, orbit_rays=tuple(fan.rays[i] for i in orbit))


def run_equivariant_mmp(fan: Fan, action: GroupAction, mode: str = "first-orbit"):
    """Run the equivariant contraction loop to a terminal model.

    mode "first-orbit": contract, at each stage, the qualifying orbit that
    contains the lexicographically least ray vector; returns one MMPTrace.
    mode "explore-all": branch over every qualifying orbit and return the
    tuple of all terminal traces in deterministic order (depth first, the
    orbits of each fan in ``contractible_orbits`` order).

    The input fan is validated once on entry; every contracted fan is
    certified smooth and complete by the contraction that produces it,
    which checks only the cones it creates, and each fan's profile is
    computed once.  A contraction cuts a whole orbit out of the stored ray
    cycle, so the rays of every fan below the root are a G-invariant subset
    and its orbits are the root's orbits that remain: the orbits are taken
    once, at the root, and the traces below a fan depend on the fan alone.
    Different contraction orders that meet at the same fan share its
    subtree, which is contracted and labelled once per call.
    """
    _require_smooth_complete_surface(fan, "the equivariant contraction loop")
    if action.fan != fan:
        raise PreconditionError("action-fan", "action was built for a different fan")
    root_orbits = _orbit_rays(action)
    if mode == "first-orbit":
        steps = []
        current, profile = fan, _profile(fan)
        while orbits := _contractible(current, root_orbits, profile):
            orbit = orbits[0]
            steps.append(_step(current, orbit))
            current = _contract(current, orbit, profile)
            profile = _profile(current)
        return MMPTrace(tuple(steps), current, classify_terminal(current))
    if mode == "explore-all":
        below: dict[Fan, tuple[MMPTrace, ...]] = {}

        def explore(current: Fan) -> tuple[MMPTrace, ...]:
            profile = _profile(current)
            orbits = _contractible(current, root_orbits, profile)
            if not orbits:
                return (MMPTrace((), current, classify_terminal(current)),)
            traces = []
            for orbit in orbits:
                nxt = _contract(current, orbit, profile)
                if nxt not in below:
                    below[nxt] = explore(nxt)
                step = _step(current, orbit)
                traces.extend(MMPTrace((step,) + t.steps, t.terminal, t.label) for t in below[nxt])
            return tuple(traces)

        return explore(fan)
    raise PreconditionError("mode", f"unknown mode {mode!r}; use 'first-orbit' or 'explore-all'")


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
    profile = self_intersection_profile(fan)
    d = fan.ray_count
    facts = []
    for i in range(d):
        j = (i + 1) % d
        if profile.coefficients[i] == 1 and profile.coefficients[j] == 1:
            outer_left = fan.rays[(i - 1) % d]
            outer_right = fan.rays[(j + 1) % d]
            if tuple(a + b for a, b in zip(outer_left, outer_right)) != (0,) * fan.rank:
                raise AssertionError(
                    f"outer neighbors of adjacent (-1)-rays {i},{j} do not oppose"
                )
            facts.append(NeighborOppositionFact(i, j, outer_left, outer_right))
    return tuple(facts)
