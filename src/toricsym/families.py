"""Named fan families, orbit-fan builders and the invariant-fan enumerator.

The constructors realize the recurring varieties of the classification:
projective spaces, Hirzebruch surfaces, the weighted spaces P(1,1,a) and
P(1,1,1,1,m), the two projective bundles, the hexagon in both rank-2
lattices, the quadric-type twists, and the singular hexagon.  The census
keeps one fan of each pair +-S of ray cycles blown up by ``fan._splice``.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

from .errors import PreconditionError
from .fan import _S3_PERMUTATIONS, Fan, Lattice, _ccw_sort, _cycle_dets, _cycle_fan, _cycle_profile, _splice
from .fan import build_surface_fan, make_fan
from .intlin import IntMatrix, Vector, primitive_vector
from .record import Record
from .symmetry import GaloisDatum, GroupAction, action_from_generators

# Work bound of the census: the orbit unions one enumeration may examine.
MAX_UNIONS = 100_000


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
    """Six-ray fan from the single orbit of (3,-1,-2); cones of index 3 and 8 in turn."""
    return s3_orbit_fan(Lattice.root_a2(), [(3, -1, -2)])


# Each named family: its descriptor grammar, how it reads the text after
# ":" (None where it takes no parameter) and its builder.
FAMILIES = {
    "projective-space": ("projective-space:n (n >= 1)", int, projective_space),
    "hirzebruch": ("hirzebruch:a (integer a)", int, hirzebruch),
    "weighted-p11a": ("weighted-p11a:a (a >= 1)", int, weighted_p11a),
    "weighted-p1111m": ("weighted-p1111m:m (m >= 1)", int, weighted_p1111m),
    "bundle-over-p3": ("bundle-over-p3:a (integer a)", int, bundle_over_p3),
    "bundle-over-p1xp1": ("bundle-over-p1xp1:a (integer a)", int, bundle_over_p1xp1),
    "dp6": ("dp6:n1 | dp6:n2", lambda param: param or "weightA2", dp6),
    "q22": ("q22", None, q22),
    "weil-restriction-p1": ("weil-restriction-p1", None, weil_restriction_p1),
    "singular-hexagon": ("singular-hexagon", None, singular_hexagon),
}


def make_family_fan(descriptor: str) -> tuple[Fan, GaloisDatum | None]:
    """Build a named family fan from a "name" or "name:param" descriptor."""
    name, _, param = descriptor.partition(":")
    name = name.strip().lower()
    if name not in FAMILIES:
        raise PreconditionError("family", f"unknown family {name!r}; known: {', '.join(FAMILIES)}")
    _, read, build = FAMILIES[name]
    try:
        args = () if read is None else (read(param),)
    except ValueError:
        raise PreconditionError("parameter", f"{name} needs an integer parameter, got {param!r}")
    made = build(*args)
    return made if isinstance(made, tuple) else (made, None)


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
    """The sorted orbits of the primitive lattice points with an ambient
    representative in [-height, height]^3: the invariant hexagon |a|, |b|,
    |b - a| <= R, R = height for (a, b - a, -b) in the root lattice and 2
    height for (a, b, 0) + Z(1, 1, 1) in the weight lattice.  Each orbit is
    a point's images under the 6 (with -1, 12) action matrices' columns."""
    r = height if lattice.kind == "rootA2" else 2 * height
    columns = [(lattice._permuted(perm, (1, 0)), lattice._permuted(perm, (0, 1))) for perm in _S3_PERMUTATIONS]
    if include_negation:
        columns += [((-x0, -y0), (-x1, -y1)) for (x0, y0), (x1, y1) in columns]
    orbits, seen = [], set()
    for a in range(-r, r + 1):
        for b in range(max(-r, a - r), min(r, a + r) + 1):
            if (a, b) not in seen and math.gcd(a, b) == 1:
                orbit = {(a * x0 + b * x1, a * y0 + b * y1) for (x0, y0), (x1, y1) in columns}
                seen |= orbit
                orbits.append(tuple(sorted(orbit)))
    return sorted(orbits)


def _orbit_unions(orbit_list: Sequence[tuple[Vector, ...]], max_rays: int):
    """The unions of orbits with at most ``max_rays`` rays as ccw cycles, in
    the order of one ``_ccw_sort`` of all their rays, each grown once from a
    smaller union; more than ``MAX_UNIONS`` are refused before the first.
    An orbit of more than ``max_rays`` rays, in no union, is not even sorted."""
    orbits = sorted((orbit for orbit in orbit_list if len(orbit) <= max_rays), key=len)
    ways = [1] + [0] * max_rays  # ways[n]: the sets of orbits with n rays
    for orbit in orbits:
        for n in range(max_rays, len(orbit) - 1, -1):
            ways[n] += ways[n - len(orbit)]
    if sum(ways) - 1 > MAX_UNIONS:
        raise PreconditionError(
            "too-many-candidates", f"{sum(ways) - 1} orbit unions within {max_rays} rays, more than {MAX_UNIONS}"
        )
    cycle = _ccw_sort([v for orbit in orbits for v in orbit])
    position = {v: i for i, v in enumerate(cycle)}
    orbits = [[position[v] for v in orbit] for orbit in orbits]
    stack = [([], 0)]
    while stack:
        union, first = stack.pop()
        for j in range(first, len(orbits)):
            if len(union) + len(orbits[j]) > max_rays:
                break
            bigger = union + orbits[j]
            stack.append((bigger, j + 1))
            yield [cycle[i] for i in sorted(bigger)]


def _smooth_cycles(orbit_list: Sequence[tuple[Vector, ...]], max_rays: int):
    """Every smooth ccw ray cycle on a union of the orbits with at most
    ``max_rays`` rays, as (cycle, a), reached from the smooth 3- to 6-ray
    cycles by orbit blow-ups.  Only those seeds are tested, by every b_i = 1:
    a blow-up cuts smooth cones into cones of determinant 1.  Only the cones
    i < d/3 are blown up: the 3-cycle, in SL2(Z), keeps the ccw order and
    fixes only multiples of (1, 1, 1), 0 in both lattices, so no ray; it turns
    an invariant cycle by d/3 or 2d/3 steps, and those cones meet every orbit
    of cones.  A cone's ray sum lies inside it, so its orbit is not in the
    cycle's union of orbits, and is new."""
    # A union of orbits is kept as the bit mask of their positions in the list.
    number = {v: n for n, orbit in enumerate(orbit_list) if len(orbit) <= max_rays for v in orbit}
    seen: set[int] = set()
    stack = []
    for cycle in _orbit_unions(orbit_list, min(6, max_rays)):
        mask = sum(1 << n for n in {number[v] for v in cycle})
        seen.add(mask)
        if all(b == 1 for b in _cycle_dets(cycle)):
            stack.append((cycle, _cycle_profile(cycle), mask))
    while stack:
        cycle, a, mask = stack.pop()
        d = len(cycle)
        yield cycle, a
        for i in range(d // 3):
            v, w = cycle[i], cycle[i + 1]
            n = number.get((v[0] + w[0], v[1] + w[1]))
            if n is None or d + len(orbit_list[n]) > max_rays:
                continue
            bigger = mask | 1 << n
            if bigger not in seen:
                seen.add(bigger)
                stack.append((*_splice(cycle, a, orbit_list[n]), bigger))


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
    candidate (past ``MAX_UNIONS`` of them, ``too-many-candidates``).  With
    it, the candidates are the smooth fans on at most two allowed orbits
    with at most six rays, and everything reached from them by equivariant
    blow-ups: for a cone (v_i, v_{i+1}) the orbit of v_i + v_{i+1}, when it
    is allowed and keeps within ``max_rays``.
    That reaches every smooth invariant fan within the bounds.  Such a fan
    contracts equivariantly, one orbit of rays at a time, to a fan with 3
    or 6 rays (criterion A7 checks this on the census); every fan on the
    way is a smooth union of fewer allowed orbits, and read backwards each
    contraction is one of the blow-ups taken.

    Candidates stay ccw ray cycles.  Two invariant complete fans S, S' on one
    A2 lattice are isomorphic iff S' = +-S (under S3 x {+-1}, iff S' = S).
    So a class is kept as the lesser stored cycle of S and -S, its least
    ``(ray_count, rays)`` cycle, as the symmetric height box makes -S a
    candidate with S; the fans come out in that order, built by the
    validating ``_cycle_fan``.  Proof, for g carrying S to S': gS3g^-1 lies in
    Aut(S'), which is S3 or the hexagonal D6 = S3 x {+-I}, maximal finite in
    GL2(Z) (Newman, Integral Matrices, 1972, ch. IX).  There gS3g^-1 = S3' =
    {sgn(h) h} would make g normalise D6, but N(D6) is finite (C(D6) lies in
    C(S3) = +-I), so it is D6, which keeps S3.  So g normalises S3, whose
    automorphisms are inner, and C(S3) = +-I (criterion A9): g = +-s, s in S3.
    With -I in the group, Aut(S) = Aut(S') = D6 and g lies in N(D6) = D6.
    """
    if lattice.kind == "standard" or height < 1 or max_rays < 3:
        raise PreconditionError("parameter", "need an A2 lattice, height >= 1 and max_rays >= 3")
    orbit_list = _seed_orbits(lattice, height, include_negation)
    if require_smooth:
        cycles = (cycle for cycle, _ in _smooth_cycles(orbit_list, max_rays))
    else:
        cycles = _orbit_unions(orbit_list, max_rays)
    # Negated rays are looked up, not built, so the kept cycles share the orbits' tuples.
    ray = {v: v for orbit in orbit_list for v in orbit}
    kept: set[tuple[Vector, ...]] = set()
    for cycle in cycles:
        negated = [ray[-x, -y] for x, y in cycle]
        kept.add(min(_stored(cycle), _stored(negated)))
    return tuple(_cycle_fan(lattice, list(rays)) for rays in sorted(kept, key=lambda r: (len(r), r)))


def _stored(cycle: list[Vector]) -> tuple[Vector, ...]:
    """A ccw ray cycle as a surface fan stores it: from its least ray."""
    start = cycle.index(min(cycle))
    return tuple(cycle[start:] + cycle[:start])


class MaxDegreeEntry(Record):
    """Largest symmetric degree for a dimension, with the realizing varieties."""

    __slots__ = ("degree", "varieties", "infinite_family")
    _defaults = {"infinite_family": False}


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


class DiagonalObstructionReport(Record):
    """Outcome of the pyramid-subdivision swap check for one twist value."""

    __slots__ = (
        "a",
        "swap_sends_first_to_second",
        "swap_sends_second_to_first",
        "swap_fixes_first",
        "swap_fixes_second",
        "swap_preserves_full_fan",
    )

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

    All three are compared by their cone vector sets, which cover every
    ray: at a = 0 the subdivided cones degenerate and are not strongly
    convex, though the six-ray fan is a genuine fan for every a.
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
    full_cones = _cone_vector_sets(full.rays, full.max_cones)

    return DiagonalObstructionReport(
        a=a,
        swap_sends_first_to_second=image1 == sub2,
        swap_sends_second_to_first=image2 == sub1,
        swap_fixes_first=image1 == sub1,
        swap_fixes_second=image2 == sub2,
        swap_preserves_full_fan=_apply_to_cone_sets(swap, full_cones) == full_cones,
    )


def random_blowup_surface_fan(rng: random.Random, max_rays: int = 10) -> Fan:
    """Random smooth complete surface fan by blowing up a minimal model."""
    fan = projective_space(2) if rng.random() < 0.5 else hirzebruch(rng.randint(0, 3))
    cycle, a = list(fan.rays), fan.word[1]
    target = rng.randint(len(cycle), max_rays)
    while len(cycle) < target:
        d = len(cycle)
        # The draw counts from the least ray, where the stored order starts.
        i = (cycle.index(min(cycle)) + rng.randrange(d)) % d
        v, w = cycle[i], cycle[(i + 1) % d]
        cycle, a = _splice(cycle, a, [(v[0] + w[0], v[1] + w[1])])
    return _cycle_fan(fan.lattice, cycle)
