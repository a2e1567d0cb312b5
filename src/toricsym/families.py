"""Named fan families, orbit-fan builders and the invariant-fan enumerator.

The constructors realize the recurring varieties of the classification:
projective spaces, Hirzebruch surfaces, the weighted spaces P(1,1,a) and
P(1,1,1,1,m), the two projective bundles, the hexagon in both rank-2
lattices, the quadric-type twists, and the singular hexagon.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionError
from .fan import Fan, Lattice, _cycle_dets, _cycle_fan, build_surface_fan, make_fan, surface_key, transform_fan
from .intlin import IntMatrix, Vector, primitive_vector
from .symmetry import GaloisDatum, GroupAction, action_from_generators


def projective_space(n: int) -> Fan:
    """Fan of n-dimensional projective space: e_1..e_n and minus their sum."""
    if n < 1:
        raise PreconditionError("parameter", "projective space needs n >= 1")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    lattice = Lattice.standard(n)
    if n <= 2:
        return make_fan(lattice, rays)
    cones = list(itertools.combinations(range(n + 1), n))
    return make_fan(lattice, rays, cones)


def hirzebruch(a: int) -> Fan:
    """Ruled surface fan (1,0), (0,1), (-1,a), (0,-1)."""
    return build_surface_fan(Lattice.standard(2), [(1, 0), (0, 1), (-1, a), (0, -1)])


def weighted_p11a(a: int) -> Fan:
    """Weighted plane fan (1,0), (0,1), (-1,-a); smooth only for a = 1."""
    if a < 1:
        raise PreconditionError("parameter", "the weighted plane needs a >= 1")
    return build_surface_fan(Lattice.standard(2), [(1, 0), (0, 1), (-1, -a)])


def weighted_p1111m(m: int) -> Fan:
    """Rank-4 fan with the single relation v1+v2+v3+v4+m*v5 = 0."""
    if m < 1:
        raise PreconditionError("parameter", "the weighted space needs m >= 1")
    rays = [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (-1, -1, -1, -m),
        (0, 0, 0, 1),
    ]
    cones = list(itertools.combinations(range(5), 4))
    return make_fan(Lattice.standard(4), rays, cones)


def bundle_over_p3(a: int) -> Fan:
    """Projectivized line-bundle fan over projective 3-space.

    Relations: v1+v2+v3+v4 = a*v5 and v5+v6 = 0; the 8 maximal cones pair
    each facet of the base with one of the two poles.
    """
    rays = [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (-1, -1, -1, a),
        (0, 0, 0, 1),
        (0, 0, 0, -1),
    ]
    cones = [base + (pole,) for base in itertools.combinations(range(4), 3) for pole in (4, 5)]
    return make_fan(Lattice.standard(4), rays, cones)


def bundle_over_p1xp1(a: int) -> Fan:
    """Projectivized bundle fan over a product of two lines."""
    rays = [
        (1, 0, a),
        (-1, 0, 0),
        (0, 1, a),
        (0, -1, 0),
        (0, 0, 1),
        (0, 0, -1),
    ]
    cones = [(x, y, z) for x in (0, 1) for y in (2, 3) for z in (4, 5)]
    return make_fan(Lattice.standard(3), rays, cones)


def dp6(lattice_kind: str) -> Fan:
    """Hexagon fan in the requested rank-2 lattice.

    "rootA2" (alias "n1"): the single length-6 orbit of (1,-1,0).
    "weightA2" (alias "n2"): the two length-3 orbits of (1,0,0) and (0,0,-1).
    """
    kind = {"n1": "rootA2", "n2": "weightA2"}.get(lattice_kind.lower(), lattice_kind)
    if kind == "rootA2":
        return s3_orbit_fan(Lattice.root_a2(), [(1, -1, 0)])
    if kind == "weightA2":
        return s3_orbit_fan(Lattice.weight_a2(), [(1, 0, 0), (0, 0, -1)])
    raise PreconditionError("parameter", f"unknown hexagon lattice {lattice_kind!r}")


def q22() -> tuple[Fan, GaloisDatum]:
    """Hexagon with the negation descent datum (the compact-torus twist)."""
    return dp6("weightA2"), GaloisDatum(tau=-IntMatrix.identity(2))


def weil_restriction_p1() -> tuple[Fan, GaloisDatum]:
    """Square fan with the factor-swap descent datum."""
    fan = build_surface_fan(Lattice.standard(2), [(1, 0), (-1, 0), (0, 1), (0, -1)])
    swap = IntMatrix.from_rows([(0, 1), (1, 0)])
    return fan, GaloisDatum(tau=swap)


def singular_hexagon() -> Fan:
    """Six-ray fan from the single orbit of (3,-1,-2); every cone index 3."""
    return s3_orbit_fan(Lattice.root_a2(), [(3, -1, -2)])


FAMILY_GRAMMAR = {
    "projective-space": "projective-space:n (n >= 1)",
    "hirzebruch": "hirzebruch:a (integer a)",
    "weighted-p11a": "weighted-p11a:a (a >= 1)",
    "weighted-p1111m": "weighted-p1111m:m (m >= 1)",
    "bundle-over-p3": "bundle-over-p3:a (integer a)",
    "bundle-over-p1xp1": "bundle-over-p1xp1:a (integer a)",
    "dp6": "dp6:n1 | dp6:n2",
    "q22": "q22",
    "weil-restriction-p1": "weil-restriction-p1",
    "singular-hexagon": "singular-hexagon",
}


def make_family_fan(descriptor: str) -> tuple[Fan, GaloisDatum | None]:
    """Build a named family fan from a "name" or "name:param" descriptor."""
    name, _, param = descriptor.partition(":")
    name = name.strip().lower()

    def int_param() -> int:
        try:
            return int(param)
        except ValueError:
            raise PreconditionError("parameter", f"{name} needs an integer parameter, got {param!r}")

    if name == "projective-space":
        return projective_space(int_param()), None
    if name == "hirzebruch":
        return hirzebruch(int_param()), None
    if name == "weighted-p11a":
        return weighted_p11a(int_param()), None
    if name == "weighted-p1111m":
        return weighted_p1111m(int_param()), None
    if name == "bundle-over-p3":
        return bundle_over_p3(int_param()), None
    if name == "bundle-over-p1xp1":
        return bundle_over_p1xp1(int_param()), None
    if name == "dp6":
        return dp6(param or "weightA2"), None
    if name == "q22":
        return q22()
    if name == "weil-restriction-p1":
        return weil_restriction_p1()
    if name == "singular-hexagon":
        return singular_hexagon(), None
    raise PreconditionError("family", f"unknown family {name!r}; known: {', '.join(FAMILY_GRAMMAR)}")


def s3_orbit_fan(lattice: Lattice, seeds: Sequence[Sequence[int]]) -> Fan:
    """Complete surface fan on the coordinate-permutation orbits of the seeds.

    Each orbit sums to zero, so the union can never sit in a half-plane;
    an angular-gap failure here would indicate corrupted orbit data.
    """
    if lattice.kind == "standard":
        raise PreconditionError("lattice-kind", "orbit fans live in the A2 lattices")
    rays: list[Vector] = []
    for seed in seeds:
        v = lattice.accept_ray(seed)
        if not any(v):
            raise PreconditionError("zero-ray", f"seed {tuple(seed)} is zero in the lattice")
        for w in lattice.s3_orbit(primitive_vector(v)):
            if w not in rays:
                rays.append(w)
    return build_surface_fan(lattice, rays)


def standard_s3_action(fan: Fan, include_negation: bool = False) -> GroupAction:
    """Closure of the coordinate-permutation generators on an A2-lattice fan."""
    gens = list(fan.lattice.s3_matrices())
    if include_negation:
        gens.append(-IntMatrix.identity(2))
    return action_from_generators(fan, gens)


def _seed_orbits(lattice: Lattice, height: int, include_negation: bool) -> list[tuple[Vector, ...]]:
    # S3 permutes the ambient coordinates and keeps the box and the sum-zero
    # test, so one triple per multiset reaches every orbit.
    box = range(-height, height + 1)
    orbits: dict[tuple[Vector, ...], None] = {}
    for ambient in itertools.combinations_with_replacement(box, 3):
        if lattice.kind == "rootA2" and sum(ambient) != 0:
            continue
        coords = lattice.coords(ambient)
        if not any(coords):
            continue
        orbit = set(lattice.s3_orbit(primitive_vector(coords)))
        if include_negation:
            orbit |= {tuple(-x for x in v) for v in orbit}
        orbits[tuple(sorted(orbit))] = None
    return sorted(orbits)


def _orbit_unions(orbit_list: Sequence[tuple[Vector, ...]], max_rays: int):
    """Sorted ray lists of the unions of orbits with 3 to ``max_rays`` rays."""
    for r in range(1, len(orbit_list) + 1):
        if min(len(o) for o in orbit_list) * r > max_rays:
            break
        for combo in itertools.combinations(orbit_list, r):
            rays = sorted(set(itertools.chain.from_iterable(combo)))
            if 3 <= len(rays) <= max_rays:
                yield rays


def _blow_up(fan: Fan, new_rays: Sequence[Vector]) -> Fan:
    """The surface fan with each cone (v_i, v_{i+1}) whose ray sum is in
    ``new_rays`` subdivided by that sum, spliced into the stored cycle."""
    d = fan.ray_count
    cycle = []
    for i, v in enumerate(fan.rays):
        w = tuple(a + b for a, b in zip(v, fan.rays[(i + 1) % d]))
        cycle += [v, w] if w in new_rays else [v]
    return _cycle_fan(fan.lattice, cycle)


def _smooth_blowups(lattice: Lattice, orbit_list: Sequence[tuple[Vector, ...]], max_rays: int):
    """Every smooth fan on a union of the orbits with at most ``max_rays``
    rays, reached from the smooth 3- to 6-ray fans by orbit blow-ups.  Only
    those seeds are tested, by det(v_i, v_{i+1}) = 1 on their ray cycle: a
    blow-up cuts smooth cones (v_i, v_{i+1}) into cones of determinant 1, so
    it certifies the fans it reaches."""
    orbit_of = {v: orbit for orbit in orbit_list for v in orbit}
    seen: set[frozenset[Vector]] = set()
    stack = []
    for rays in _orbit_unions(orbit_list, min(6, max_rays)):
        seen.add(frozenset(rays))
        fan = build_surface_fan(lattice, rays)
        if all(b == 1 for b in _cycle_dets(fan.rays)):
            stack.append(fan)
    while stack:
        fan = stack.pop()
        yield fan
        d = fan.ray_count
        for i in range(d):
            w = tuple(a + b for a, b in zip(fan.rays[i], fan.rays[(i + 1) % d]))
            orbit = orbit_of.get(w)
            if orbit is None or d + len(orbit) > max_rays or not set(orbit).isdisjoint(fan.rays):
                continue
            rays = frozenset(fan.rays + orbit)
            if rays not in seen:
                seen.add(rays)
                stack.append(_blow_up(fan, orbit))


def enumerate_invariant_fans(
    lattice: Lattice,
    height: int,
    max_rays: int,
    require_smooth: bool = True,
    include_negation: bool = False,
) -> tuple[Fan, ...]:
    """All invariant surface fans on orbit unions of bounded seeds, one per
    isomorphism class.

    The allowed orbits are those of primitive vectors admitting an ambient
    representative with coordinates bounded by ``height``; every fan has
    at most ``max_rays`` rays.

    Without ``require_smooth`` every union of allowed orbits is a
    candidate.  With it, the candidates are the smooth fans on at most two
    allowed orbits with at most six rays, and everything reached from them
    by equivariant blow-ups: for a cone (v_i, v_{i+1}) the orbit of
    v_i + v_{i+1}, when it is allowed, new and keeps within ``max_rays``.
    That reaches every smooth invariant fan within the bounds.  Such a fan
    contracts equivariantly, one orbit of rays at a time, to a fan with 3
    or 6 rays (criterion A7 checks this on the census); every fan on the
    way is a smooth union of fewer allowed orbits, and read backwards each
    contraction is one of the blow-ups taken.

    Candidates are grouped by ``surface_key``; each class is represented
    by its least ``(ray_count, rays)`` fan, and the representatives are
    returned in that order.
    """
    if height < 1 or max_rays < 3:
        raise PreconditionError("parameter", "need height >= 1 and max_rays >= 3")
    orbit_list = _seed_orbits(lattice, height, include_negation)
    if require_smooth:
        candidates = _smooth_blowups(lattice, orbit_list, max_rays)
    else:
        candidates = (build_surface_fan(lattice, rays) for rays in _orbit_unions(orbit_list, max_rays))
    kept: dict[tuple[Vector, ...], Fan] = {}
    for fan in candidates:
        key = surface_key(fan)
        # Isomorphic fans have equally many rays, so the least rays decide.
        if key not in kept or fan.rays < kept[key].rays:
            kept[key] = fan
    return tuple(sorted(kept.values(), key=lambda f: (f.ray_count, f.rays)))


@dataclass(frozen=True)
class MaxDegreeEntry:
    """Largest symmetric degree for a dimension, with the realizing varieties."""

    degree: int
    varieties: tuple[str, ...]
    infinite_family: bool = False


def s6_on_weighted_p1111m(m: int) -> bool:
    """Whether the degree-6 symmetric group acts faithfully on the m-th weighted space."""
    if m < 1:
        raise PreconditionError("parameter", "m must be >= 1")
    return m % 2 == 0


def s6_on_bundle_over_p3(a: int) -> bool:
    """Whether the degree-6 symmetric group acts faithfully on the bundle with twist a."""
    return a % 2 == 0


def max_symmetric_degree(dim: int, field: str) -> MaxDegreeEntry:
    """Classification-table lookup of the maximal faithful symmetric degree.

    ``field`` is "C" (algebraically closed, characteristic zero) or
    "star" (a field satisfying the sum-of-two-squares condition).
    """
    if dim < 1:
        raise PreconditionError("parameter", "dimension must be >= 1")
    if field == "C":
        table = {
            1: MaxDegreeEntry(4, ("projective-space:1",)),
            2: MaxDegreeEntry(5, ("product-of-two-lines",)),
            3: MaxDegreeEntry(6, ("projective-space:3",)),
            4: MaxDegreeEntry(
                6,
                (
                    "projective-space:4",
                    "product-of-two-planes",
                    "bundle-over-p3:even",
                    "weighted-p1111m:even",
                ),
            ),
        }
        return table.get(dim, MaxDegreeEntry(dim + 2, (f"projective-space:{dim}",)))
    if field == "star":
        if dim == 1:
            return MaxDegreeEntry(3, ("projective-space:1",))
        if dim == 2:
            return MaxDegreeEntry(
                4, ("infinite family of split and non-split surfaces",), infinite_family=True
            )
        return MaxDegreeEntry(dim + 2, (f"projective-space:{dim}",))
    raise PreconditionError("field", f"unknown field selector {field!r}; use 'C' or 'star'")


@dataclass(frozen=True)
class DiagonalObstructionReport:
    """Outcome of the pyramid-subdivision swap check for one twist value."""

    a: int
    swap_sends_first_to_second: bool
    swap_sends_second_to_first: bool
    swap_fixes_first: bool
    swap_fixes_second: bool
    swap_preserves_full_fan: bool

    @property
    def obstructed(self) -> bool:
        return (
            self.swap_sends_first_to_second
            and self.swap_sends_second_to_first
            and not self.swap_fixes_first
            and not self.swap_fixes_second
            and self.swap_preserves_full_fan
        )


_ConeSet = frozenset[frozenset[Vector]]


def _cone_vector_sets(rays: Sequence[Vector], cones: Sequence[tuple[int, ...]]) -> _ConeSet:
    return frozenset(frozenset(rays[i] for i in cone) for cone in cones)


def _apply_to_cone_sets(g: IntMatrix, cones: _ConeSet) -> _ConeSet:
    return frozenset(frozenset(g.apply(v) for v in cone) for cone in cones)


def check_diagonal_obstruction(a: int = 0) -> DiagonalObstructionReport:
    """Verify that swapping the first two coordinates exchanges the two
    simplicial subdivisions of the five-ray configuration and preserves the
    six-ray fan.

    The five-ray subdivisions are compared combinatorially (ray and cone
    vector sets) because at a = 0 the subdivided cones degenerate and are
    not strongly convex; the six-ray fan is a genuine fan for every a.
    """
    rays: list[Vector] = [(1, 0, a), (-1, 0, 0), (0, 1, a), (0, -1, 0), (0, 0, -1)]
    bottom = [(0, 2, 4), (1, 2, 4), (1, 3, 4), (0, 3, 4)]
    # Diagonal {0, 1} splits the pyramid one way, diagonal {2, 3} the other.
    sub1 = _cone_vector_sets(rays, bottom + [(0, 1, 2), (0, 1, 3)])
    sub2 = _cone_vector_sets(rays, bottom + [(2, 3, 0), (2, 3, 1)])
    swap = IntMatrix.from_rows([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    image1 = _apply_to_cone_sets(swap, sub1)
    image2 = _apply_to_cone_sets(swap, sub2)

    full = bundle_over_p1xp1(a)
    full_image = transform_fan(swap, full)

    return DiagonalObstructionReport(
        a=a,
        swap_sends_first_to_second=image1 == sub2,
        swap_sends_second_to_first=image2 == sub1,
        swap_fixes_first=image1 == sub1,
        swap_fixes_second=image2 == sub2,
        swap_preserves_full_fan=full_image.is_same_fan(full),
    )


def random_blowup_surface_fan(rng: random.Random, max_rays: int = 10) -> Fan:
    """Random smooth complete surface fan by blowing up a minimal model."""
    if rng.random() < 0.5:
        fan = projective_space(2)
    else:
        fan = hirzebruch(rng.randint(0, 3))
    target = rng.randint(fan.ray_count, max_rays)
    while fan.ray_count < target:
        d = fan.ray_count
        i = rng.randrange(d)
        fan = _blow_up(fan, [tuple(a + b for a, b in zip(fan.rays[i], fan.rays[(i + 1) % d]))])
    return fan
