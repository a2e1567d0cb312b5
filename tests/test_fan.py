import collections
import functools
import itertools
import json
import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Integer, Matrix

from toricsym import families
from toricsym.acceptance import named_family_corpus
from toricsym.errors import ParseError, PreconditionError
from toricsym.fan import (
    Fan,
    FanReport,
    Lattice,
    _ccw_sort,
    _blow_down,
    _cross,
    _cycle_cones,
    _cycle_dets,
    _cycle_fan,
    _cycle_profile,
    _cycle_winds_once,
    _read_off,
    _seed_basis,
    _smooth_word,
    _splice,
    build_surface_fan,
    cone_invariant_factors,
    fan_isomorphism,
    make_fan,
    validate_fan,
)
from toricsym.intlin import IntMatrix, kernel_basis, primitive_vector
from toricsym.mmp import self_intersection_profile

from conftest import random_unimodular, transform_fan, word_key_from_rays


class TestLatticeCoordinates:
    def test_root_lattice_solves(self):
        lat = Lattice.root_a2()
        assert lat.coords((3, -1, -2)) == (3, 2)
        assert lat.coords((3, -2, -1)) == (3, 1)

    def test_weight_lattice_reduces_mod_diagonal(self):
        assert Lattice.weight_a2().coords((0, 0, 1)) == (-1, -1)

    def test_root_lattice_rejects_nonzero_sum(self):
        with pytest.raises(PreconditionError):
            Lattice.root_a2().coords((1, 0, 0))

    @pytest.mark.parametrize("lat", [Lattice.root_a2(), Lattice.weight_a2()])
    def test_round_trip_with_embedding(self, lat):
        for coords in itertools.product(range(-3, 4), repeat=2):
            assert lat.coords(lat.embed(coords)) == coords

    def test_weight_lattice_kills_the_diagonal(self):
        lat = Lattice.weight_a2()
        assert lat.coords((1, 1, 1)) == (0, 0)
        assert lat.coords((2, 0, 1)) == lat.coords((1, -1, 0))

    @pytest.mark.parametrize(
        "call, reason, message",
        [
            (lambda: Lattice.standard(3).accept_ray((1, 0)), "ambient-dim", "ray (1, 0) has length 2, expected 3"),
            (
                lambda: Lattice.root_a2().accept_ray((1, 0, 0, 0)),
                "ambient-dim",
                "ray (1, 0, 0, 0) has length 4, expected 2 or 3",
            ),
            (lambda: Lattice.root_a2().coords((1, 0, 0)), "coordinate-sum", "(1, 0, 0) has nonzero coordinate sum"),
            (
                lambda: Lattice.standard(2).s3_matrices(),
                "lattice-kind",
                "coordinate permutations act on the A2 lattices",
            ),
            (
                lambda: families.s3_orbit_fan(Lattice.standard(2), [(1, 0)]),
                "lattice-kind",
                "orbit fans live in the A2 lattices",
            ),
            (lambda: Lattice.standard(2).coords((1, 0, 0)), "ambient-dim", "expected length 2, got 3"),
            (lambda: Lattice.weight_a2().coords((1, 0)), "ambient-dim", "weightA2 vectors live in Z^3, got length 2"),
        ],
        ids=["standard-length", "rootA2-length", "coordinate-sum", "s3-on-standard", "orbit-on-standard",
             "coords-length", "weightA2-length"],
    )
    def test_refusals_keep_their_reason_and_message(self, call, reason, message):
        with pytest.raises(PreconditionError) as err:
            call()
        assert (err.value.reason, str(err.value)) == (reason, message)


class TestLatticeLabels:
    def test_a_label_gives_one_shared_lattice(self):
        for label in ("standard:3", "rootA2", "weightA2"):
            assert Lattice.from_label(label) is Lattice.from_label(label)
            assert Lattice.from_label(label).label() == label

    @pytest.mark.parametrize("label", ["standard:x", "standard:0", "hexagonal"])
    def test_a_bad_label_is_refused_each_time(self, label):
        for _ in range(2):
            with pytest.raises(ParseError):
                Lattice.from_label(label)


class TestBuildSurfaceFan:
    def test_triangle(self, std2):
        fan = build_surface_fan(std2, [(1, 0), (0, 1), (-1, -1)])
        assert len(fan.max_cones) == 3
        assert set(fan.rays) == {(1, 0), (0, 1), (-1, -1)}

    def test_rays_are_primitivized(self, std2):
        fan = build_surface_fan(std2, [(2, 0), (0, 1), (-1, -1)])
        assert (1, 0) in fan.rays
        assert all(abs(x) <= 1 for v in fan.rays for x in v)

    def test_half_plane_is_rejected(self, std2):
        with pytest.raises(PreconditionError) as err:
            build_surface_fan(std2, [(1, 0), (0, 1), (1, 1)])
        assert err.value.reason == "incomplete"

    def test_too_few_rays(self, std2):
        with pytest.raises(PreconditionError):
            build_surface_fan(std2, [(1, 0), (0, 1)])

    @pytest.mark.parametrize(
        "rays,reason",
        [
            ([], "too-few-rays"),
            ([(1, 0), (-1, 0)], "too-few-rays"),
            ([(-1, 0), (1, 0), (0, 1)], "incomplete"),
        ],
    )
    def test_slugs_of_what_is_not_a_complete_fan(self, std2, rays, reason):
        with pytest.raises(PreconditionError) as err:
            build_surface_fan(std2, rays)
        assert err.value.reason == reason

    def test_duplicate_rays_rejected(self, std2):
        with pytest.raises(PreconditionError):
            build_surface_fan(std2, [(1, 0), (2, 0), (0, 1), (-1, -1)])

    def test_canonical_order_starts_at_lex_least(self, p2_fan):
        assert p2_fan.rays[0] == min(p2_fan.rays)
        d = p2_fan.ray_count
        for i in range(d):
            v, w = p2_fan.rays[i], p2_fan.rays[(i + 1) % d]
            assert v[0] * w[1] - v[1] * w[0] > 0

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0)),
            min_size=1,
            max_size=8,
        )
    )
    def test_build_matches_the_angular_gap_criterion(self, vectors):
        from toricsym.intlin import primitive_vector

        prim = {primitive_vector(v) for v in vectors}
        try:
            fan = build_surface_fan(Lattice.standard(2), sorted(prim))
        except PreconditionError:
            # with >= 3 distinct directions the only failure is an angular
            # gap of at least a half turn, certified by a closed half-plane
            # (bounded by one of the rays) containing every ray
            if len(prim) >= 3:
                assert any(
                    all(n[0] * v[0] + n[1] * v[1] >= 0 for v in prim)
                    for n in {(w[1], -w[0]) for w in prim} | {(-w[1], w[0]) for w in prim}
                )
            return
        report = validate_fan(fan)
        assert report.simplicial and report.complete
        assert set(fan.rays) == prim

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_blowups_stay_valid(self, rng):
        fan = families.random_blowup_surface_fan(rng, max_rays=10)
        report = validate_fan(fan)
        assert report.simplicial and report.complete and report.smooth
        # angular sign chain is the completeness certificate
        d = fan.ray_count
        crosses = [
            fan.rays[i][0] * fan.rays[(i + 1) % d][1] - fan.rays[i][1] * fan.rays[(i + 1) % d][0]
            for i in range(d)
        ]
        assert all(c > 0 for c in crosses)


class TestValidateFan:
    def test_triangle_flags(self, p2_fan):
        report = validate_fan(p2_fan)
        assert (report.simplicial, report.complete, report.smooth) == (True, True, True)

    def test_singular_hexagon_flags(self):
        fan = families.singular_hexagon()
        report = validate_fan(fan)
        assert report.simplicial and report.complete and not report.smooth
        lat = Lattice.root_a2()
        cone = tuple(
            sorted(fan.ray_index(lat.coords(v)) for v in [(3, -1, -2), (3, -2, -1)])
        )
        assert cone in fan.max_cones
        assert cone_invariant_factors(fan, cone) == (1, 3)

    @pytest.mark.parametrize("a", range(-2, 3))
    def test_bundle_fan_is_smooth_for_every_twist(self, a):
        fan = families.bundle_over_p3(a)
        report = validate_fan(fan)
        assert (report.simplicial, report.complete, report.smooth) == (True, True, True)
        for cone in fan.max_cones:
            assert all(f == 1 for f in cone_invariant_factors(fan, cone))

    def test_smooth_implies_simplicial_on_corpus(self):
        from toricsym.acceptance import named_family_corpus

        for _, fan in named_family_corpus():
            report = validate_fan(fan)
            if report.smooth:
                assert report.simplicial

    def test_rank3_wall_condition_detects_missing_cone(self):
        fan = families.bundle_over_p1xp1(1)
        broken = make_fan(fan.lattice, fan.rays, fan.max_cones[:-1])
        assert not validate_fan(broken).complete

    # Five rays in the plane z = 0, joined to both poles.  Joined in angular
    # order they give a fan; joined in the order below they wind twice round
    # the axis, so every wall is still shared by two cones on opposite sides
    # and the cones overlap.
    PENTAGON = [(1, 0, 0), (-1, 1, 0), (1, -2, 0), (1, 2, 0), (-2, -1, 0), (0, 0, 1), (0, 0, -1)]

    @pytest.mark.parametrize("cycle, winds_once", [((0, 3, 1, 4, 2), True), ((0, 1, 2, 3, 4), False)])
    def test_pentagon_bipyramid_is_a_fan_iff_it_winds_once(self, cycle, winds_once):
        cones = [(cycle[j], cycle[(j + 1) % 5], pole) for j in range(5) for pole in (5, 6)]
        fan = make_fan(Lattice.standard(3), self.PENTAGON, cones)
        if winds_once:
            report = validate_fan(fan)
            assert report.simplicial and report.complete
        else:
            with pytest.raises(PreconditionError) as info:
                validate_fan(fan)
            assert info.value.reason == "overlapping-cones"

    @pytest.mark.parametrize(
        "g",
        [
            IntMatrix.from_rows([(1, 2, 0), (0, 1, 0), (0, 0, 1)]),
            IntMatrix.from_rows([(0, 1, 0), (1, 0, 0), (0, 0, 1)]),
            IntMatrix.from_rows([(1, 0, 0), (3, 1, 0), (-2, 5, -1)]),
        ],
    )
    def test_completeness_is_invariant_under_unimodular_maps(self, g):
        for fan in (families.projective_space(3), families.bundle_over_p1xp1(2)):
            assert validate_fan(transform_fan(g, fan)).complete

    def test_surface_simplicial_flag_matches_the_cone_rank(self):
        rng = random.Random(3)
        rays = ((1, 0), (1, 1), (0, 1), (-1, 0), (-2, -1), (0, -1))
        for _ in range(50):
            cones = tuple(tuple(sorted(rng.sample(range(6), 2))) for _ in range(rng.randint(1, 4)))
            fan = Fan(Lattice.standard(2), rays, cones)
            expected = all(fan.cone_matrix(c).rank() == 2 for c in cones)
            assert validate_fan(fan).simplicial is expected
        assert not validate_fan(Fan(Lattice.standard(2), rays, ((0, 1, 2),))).simplicial

    def test_rank1_projective_line(self):
        fan = families.projective_space(1)
        report = validate_fan(fan)
        assert report.complete and report.smooth

    @pytest.mark.parametrize("cones, complete", [([(0,), (1,)], True), ([(0,)], False)])
    def test_rank1_completeness_reads_the_given_cones(self, cones, complete):
        # Rays (1), (-1): the line is covered only when both half-lines are cones.
        fan = make_fan(Lattice.standard(1), [(1,), (-1,)], cones)
        assert fan.max_cones == tuple(cones)
        assert validate_fan(fan).complete is complete


def _turns(cycle):
    """Turns of a cyclic ray sequence round the origin, from floating angles."""
    d = len(cycle)
    total = sum(
        math.atan2(_cross(v, w), v[0] * w[0] + v[1] * w[1]) for v, w in ((cycle[i], cycle[(i + 1) % d]) for i in range(d))
    )
    return round(total / (2 * math.pi))


# Ray cycles with every det(v_i, v_{i+1}) = 1 that go round the origin more
# than once: their cones cover the plane that many times.
WOUND_CYCLES = [
    pytest.param([(1, 0), (-2, 1), (1, -1), (-1, 2), (0, -1)], 2, id="5-rays-twice"),
    pytest.param([(1, 0), (-1, 1), (0, -1), (1, 1), (-1, 0), (1, -1), (0, 1), (-1, -1)], 3, id="8-rays-thrice"),
    pytest.param([(1, 0), (-2, 1), (-1, 0), (0, -1), (1, -2), (0, 1), (-1, -2), (1, 1), (-2, -1)], 3, id="9-rays-thrice"),
]


PRIMITIVE_RAYS = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if math.gcd(x, y) == 1]


@st.composite
def positive_cycles(draw):
    """Cyclic sequences of primitive rays, each step turning counterclockwise
    by less than a half turn (every b_i > 0)."""
    cycle = [draw(st.sampled_from(PRIMITIVE_RAYS))]
    d = draw(st.integers(3, 12))
    while len(cycle) < d:
        last = len(cycle) == d - 1
        options = [v for v in PRIMITIVE_RAYS if _cross(cycle[-1], v) > 0 and (not last or _cross(v, cycle[0]) > 0)]
        assume(options)
        cycle.append(draw(st.sampled_from(options)))
    return cycle


class TestCycleWinding:
    @pytest.mark.parametrize("rays, turns", WOUND_CYCLES)
    def test_a_cycle_wound_more_than_once_overlaps(self, rays, turns):
        assert _turns(rays) == turns and set(_cycle_dets(rays)) == {1}
        d = len(rays)
        fan = Fan(Lattice.standard(2), tuple(rays), tuple(sorted(tuple(sorted((i, (i + 1) % d))) for i in range(d))))
        with pytest.raises(PreconditionError) as info:
            validate_fan(fan)
        assert info.value.reason == "overlapping-cones"
        assert sum(_cycle_profile(rays)) == 3 * d - 12 * turns
        with pytest.raises(PreconditionError) as info:
            _smooth_word(fan, "the test")
        assert info.value.reason == "overlapping-cones"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.data())
    def test_twelve_per_turn_of_a_smooth_cycle(self, seed, turns, data):
        # A smooth fan's cycle, from any ray, gone round ``turns`` times.
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=10)
        s = data.draw(st.integers(0, fan.ray_count - 1))
        cycle = (fan.rays[s:] + fan.rays[:s]) * turns
        wound = Fan(fan.lattice, cycle, _cycle_cones(len(cycle)))
        assert _turns(cycle) == turns and set(wound.word[0]) == {1}
        assert sum(wound.word[1]) == 3 * len(cycle) - 12 * turns
        if turns == 1:
            assert _smooth_word(wound, "the test") == wound.word[1]
        else:
            with pytest.raises(PreconditionError) as info:
                _smooth_word(wound, "the test")
            assert info.value.reason == "overlapping-cones"

    @settings(max_examples=300, deadline=None)
    @given(positive_cycles())
    def test_the_crossing_count_is_the_winding_number(self, cycle):
        assert _cycle_winds_once(cycle) is (_turns(cycle) == 1)


class TestSurfaceWord:
    """A rank-2 fan's ``word`` is (b, a) of its stored ray cycle, however
    the fan was built, and ``_blow_down`` undoes ``_splice`` on it."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 12), st.data())
    def test_the_word_of_any_rotation(self, seed, max_rays, data):
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=max_rays)
        s = data.draw(st.integers(0, fan.ray_count - 1))
        # The adjacent index pairs do not change when the cycle is rotated.
        rotated = Fan(fan.lattice, fan.rays[s:] + fan.rays[:s], fan.max_cones)
        for built in (fan, rotated):
            assert built.word == (_cycle_dets(built.rays), _cycle_profile(built.rays))
            assert built.word[1] == self_intersection_profile(built)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(PRIMITIVE_RAYS), min_size=3, max_size=8, unique=True), st.data())
    def test_the_word_of_a_built_fan(self, rays, data):
        # Smooth or not, from its rays in any order or its cycle from any ray.
        try:
            fan = build_surface_fan(Lattice.standard(2), rays)
        except PreconditionError:
            assume(False)
        s = data.draw(st.integers(0, fan.ray_count - 1))
        for built in (fan, build_surface_fan(fan.lattice, fan.rays[s:] + fan.rays[:s])):
            assert built == fan and built.word == (_cycle_dets(fan.rays), _cycle_profile(fan.rays))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_blow_down_undoes_splice(self, seed, data):
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=10)
        cycle, d = list(fan.rays), fan.ray_count
        # Cone d - 1 or 0, next to the least ray, may give a new least ray,
        # which _blow_down removes from the start of the stored cycle.
        cones = data.draw(st.sets(st.sampled_from([0, d - 1, *range(d)]), min_size=1, max_size=d))
        new = {tuple(map(sum, zip(cycle[j], cycle[(j + 1) % d]))) for j in cones}
        spliced, word = _splice(cycle, fan.word[1], new)
        blown_up = _cycle_fan(fan.lattice, spliced)
        start = blown_up.rays.index(spliced[0])
        assert blown_up.word == ((1,) * len(spliced), tuple(word[-start:] + word[:-start]))
        orbit = tuple(i for i, v in enumerate(blown_up.rays) if v in new)
        at = tuple(range(blown_up.ray_count))
        assert _blow_down(blown_up.rays, blown_up.word[1], at, orbit) == (
            fan.rays,
            fan.word[1],
            tuple(map(blown_up.rays.index, fan.rays)),
        )

    @pytest.mark.parametrize("seed, cone", [(0, 0), (2, 0), (3, 4), (4, 3), (5, 9)])
    def test_a_blow_up_next_to_the_least_ray_can_be_the_new_least(self, seed, cone):
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=10)
        d = fan.ray_count
        w = tuple(map(sum, zip(fan.rays[cone], fan.rays[(cone + 1) % d])))
        blown_up = _cycle_fan(fan.lattice, _splice(list(fan.rays), fan.word[1], {w})[0])
        assert blown_up.rays[0] == w
        assert _blow_down(blown_up.rays, blown_up.word[1], tuple(range(d + 1)), (0,))[:2] == (fan.rays, fan.word[1])


def _kernel_validate(fan):
    """validate_fan outside rank 2 as it was before det and adj: one rank()
    and one Smith form per cone, one kernel facet normal per wall."""
    n = fan.rank
    simplicial = all(len(cone) == n and fan.cone_matrix(cone).rank() == n for cone in fan.max_cones)
    smooth = simplicial and all(all(f == 1 for f in cone_invariant_factors(fan, cone)) for cone in fan.max_cones)
    return FanReport(simplicial=simplicial, complete=_kernel_complete(fan), smooth=smooth)


def _kernel_complete(fan):
    n = fan.rank
    if not fan.max_cones or any(len(cone) != n for cone in fan.max_cones):
        return False
    walls = {}
    for ci, cone in enumerate(fan.max_cones):
        for drop in cone:
            walls.setdefault(tuple(i for i in cone if i != drop), []).append((ci, drop))
    halfspaces = [[] for _ in fan.max_cones]
    for facet, owners in walls.items():
        if len(owners) != 2:
            return False
        basis = kernel_basis(IntMatrix.from_rows([fan.rays[i] for i in facet]))
        if len(basis) != 1:
            raise PreconditionError("degenerate-facet", f"facet {facet} does not span a hyperplane")
        normal = basis[0]
        sides = []
        for ci, opposite in owners:
            s = sum(a * b for a, b in zip(normal, fan.rays[opposite]))
            if s == 0:
                return False
            sides.append(s)
            halfspaces[ci].append((normal, s))
        if sides[0] * sides[1] > 0:
            return False
    adjacency = {i: set() for i in range(len(fan.max_cones))}
    for (a, _), (b, _) in walls.values():
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen, queue = {0}, [0]
    while queue:
        for nxt in adjacency[queue.pop()] - seen:
            seen.add(nxt)
            queue.append(nxt)
    if len(seen) != len(fan.max_cones):
        return False
    p = tuple(map(sum, zip(*(fan.rays[i] for i in fan.max_cones[0]))))
    containing = sum(
        all(s * sum(a * b for a, b in zip(normal, p)) >= 0 for normal, s in cone) for cone in halfspaces
    )
    if containing > 1:
        raise PreconditionError("overlapping-cones", f"a point inside the first cone lies in {containing} cones")
    return True


def _product_fan(dims):
    """Rays and maximal cones of the product of the projective spaces P^d."""
    n = sum(dims)
    rays, blocks = [], []
    for d in dims:
        offset = len(rays) - len(blocks)
        block = list(range(len(rays), len(rays) + d + 1))
        rays += [tuple(int(k == offset + i) for k in range(n)) for i in range(d)]
        rays.append(tuple(-int(offset <= k < offset + d) for k in range(n)))
        blocks.append(block)
    choices = itertools.product(*blocks)
    return rays, [tuple(i for block, drop in zip(blocks, choice) for i in block if i != drop) for choice in choices]


def _weighted_stellar_subdivision(rng, rays, cones, steps):
    """Star subdivisions at random faces of maximal cones, the new ray a
    positive combination of the face's rays (not always smooth)."""
    rays, cones = list(rays), list(cones)
    for _ in range(steps):
        face = rng.sample(rng.choice(cones), rng.randint(2, len(cones[0])))
        new = len(rays)
        weights = [rng.choice((1, 1, 2, 3)) for _ in face]
        rays.append(primitive_vector([sum(w * x for w, x in zip(weights, xs)) for xs in zip(*(rays[i] for i in face))]))
        if rays[-1] in rays[:-1]:
            rays.pop()
            continue
        cones = [
            sub
            for c in cones
            for sub in ([tuple(new if x == i else x for x in c) for i in face] if set(face) <= set(c) else [c])
        ]
    return rays, cones


def _differential_cases(seed):
    """Seeded rank 3-5 cone lists: subdivided products, random subsets of
    their cones, a cone cut to a facet, and their unimodular images."""
    rng = random.Random(seed)
    dims = rng.choice([(3,), (2, 1), (1, 1, 1), (4,), (2, 2), (3, 1), (1, 1, 2), (5,), (1, 1, 1, 1, 1), (2, 3)])
    rays, cones = _weighted_stellar_subdivision(rng, *_product_fan(dims), rng.randint(0, 4))
    lattice = Lattice.standard(sum(dims))
    fans = [make_fan(lattice, rays, cones), make_fan(lattice, rays, rng.sample(cones, rng.randint(1, len(cones))))]
    cut = list(cones)
    cut[0] = cut[0][1:]
    fans.append(make_fan(lattice, rays, cut))
    return fans + [transform_fan(random_unimodular(rng, lattice.rank), fan) for fan in fans]


class TestValidationByDeterminants:
    """validate_fan outside rank 2 against the kernel-normal validation."""

    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_the_kernel_normals(self, seed):
        for fan in _differential_cases(seed):
            assert validate_fan(fan) == _kernel_validate(fan)

    def test_every_kind_of_report_occurs(self):
        reports = {validate_fan(fan) for seed in range(60) for fan in _differential_cases(seed)}
        assert reports == {
            FanReport(simplicial=True, complete=True, smooth=True),
            FanReport(simplicial=True, complete=True, smooth=False),
            FanReport(simplicial=True, complete=False, smooth=True),
            FanReport(simplicial=True, complete=False, smooth=False),
            FanReport(simplicial=False, complete=False, smooth=False),
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_the_pentagram_bipyramid_overlaps_in_both(self, seed):
        rays = TestValidateFan.PENTAGON
        cones = [(j, (j + 1) % 5, pole) for j in range(5) for pole in (5, 6)]
        fan = make_fan(Lattice.standard(3), rays, cones)
        if seed:
            fan = transform_fan(random_unimodular(random.Random(seed), 3), fan)
        for validate in (validate_fan, _kernel_validate):
            with pytest.raises(PreconditionError) as info:
                validate(fan)
            assert info.value.reason == "overlapping-cones"

    def test_two_disjoint_copies_of_p3_overlap(self):
        # Every wall lies on two cones of one copy, on opposite sides; the
        # copies share no wall, and each covers R^3 once.
        p3 = families.projective_space(3)
        rays = p3.rays + tuple(tuple(-x for x in v) for v in p3.rays)
        cones = p3.max_cones + tuple(tuple(i + 4 for i in cone) for cone in p3.max_cones)
        with pytest.raises(PreconditionError) as info:
            validate_fan(make_fan(Lattice.standard(3), rays, cones))
        assert info.value.reason == "overlapping-cones"
        assert str(info.value) == "a point inside the first cone lies in 2 cones"

    def test_three_sheets_read_degree_three(self):
        # P^3, its negative and an image of P^3 under a unimodular map that
        # shares no ray with them: each covers R^3 once, and p is in the
        # closed cones of more than one sheet.
        p3 = families.projective_space(3)
        g = IntMatrix.from_rows([(-1, -1, -1), (-1, -1, 0), (0, 1, -1)])
        rays = p3.rays + tuple(tuple(-x for x in v) for v in p3.rays) + tuple(map(g.apply, p3.rays))
        assert len(set(rays)) == 12
        cones = tuple(tuple(i + 4 * k for i in cone) for k in range(3) for cone in p3.max_cones)
        with pytest.raises(PreconditionError) as info:
            validate_fan(make_fan(Lattice.standard(3), rays, cones))
        assert str(info.value) == "a point inside the first cone lies in 3 cones"

    def test_a_rank_deficient_cone_is_neither_simplicial_nor_complete(self):
        # The kernel-normal path raised degenerate-facet here: the wall
        # (1, 2) of the two planar cones spans only a line.
        fan = Fan(Lattice.standard(3), ((0, 1, 0), (1, 0, 0), (-1, 0, 0), (0, 0, 1)), ((0, 1, 2), (1, 2, 3)))
        assert validate_fan(fan) == FanReport(simplicial=False, complete=False, smooth=False)
        with pytest.raises(PreconditionError) as info:
            _kernel_validate(fan)
        assert info.value.reason == "degenerate-facet"


SHEET_BASES = {3: [(3,), (2, 1), (1, 2), (1, 1, 1)], 4: [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]}


def _sheet_union(rng, n):
    """1-3 stellar subdivisions of complete rank-n fans, each moved by a
    random unimodular map (a later one by the one before it a third of the
    time, so that sheets share walls), with shared rays merged: the rays,
    and each sheet's cones as a set of sorted ray-index tuples."""
    index, sheets, g = {}, [], None
    for _ in range(rng.randint(1, 3)):
        rays, cones = _weighted_stellar_subdivision(rng, *_product_fan(rng.choice(SHEET_BASES[n])), rng.randint(0, 3))
        if g is None or rng.random() < 2 / 3:
            g = random_unimodular(rng, n)
        label = [index.setdefault(g.apply(v), len(index)) for v in rays]
        sheets.append(frozenset(tuple(sorted(label[i] for i in cone)) for cone in cones))
    return sorted(index, key=index.get), sheets


def _walls_paired(cones):
    """Whether every wall of the cones lies on exactly two of them."""
    walls = collections.Counter(cone[:k] + cone[k + 1 :] for cone in cones for k in range(len(cone)))
    return set(walls.values()) == {2}


def _covering_counts(rng, rays, cones, points):
    """The number of cones holding each of ``points`` random integer points
    that lie on no wall: x is in the cone with ray matrix B (rays as columns)
    iff B^-1 x >= 0, with B^-1 from sympy, exact."""
    inverses = [
        [[Fraction(int(q.p), int(q.q)) for q in row] for row in Matrix([rays[i] for i in cone]).T.inv().tolist()]
        for cone in cones
    ]
    counts = []
    while len(counts) < points:
        x = [rng.randint(-1000, 1000) for _ in rays[0]]
        solutions = [[sum(map(operator.mul, row, x)) for row in inverse] for inverse in inverses]
        holding = [y for y in solutions if min(y) >= 0]
        if any(any(y) and 0 in y for y in holding) or not any(x):
            continue
        counts.append(len(holding))
    return counts


def _covering_case(n, seed):
    rng = random.Random(100 * n + seed)
    rays, sheets = _sheet_union(rng, n)
    cones = sorted(set().union(*sheets))
    return rng, rays, cones, _walls_paired(cones), len(set(sheets))


def _inside(rays, cone, v):
    """Whether v lies in the closed cone on the rays ``cone``: B^-1 v >= 0, exact."""
    return min(Matrix([rays[i] for i in cone]).T.solve(Matrix(v))) >= 0


def _overlap_is_real(fan, message):
    """Whether an ``overlapping-cones`` message names a ray inside a cone that
    does not list it, or two cones on one side of a wall they share, by exact
    solves."""
    if found := re.fullmatch(r"ray (\d+) lies in the cone (\[.*\]), which does not list it", message):
        ray, cone = int(found[1]), tuple(json.loads(found[2]))
        return cone in fan.max_cones and ray not in cone and _inside(fan.rays, cone, fan.rays[ray])
    found = re.fullmatch(r"the cones (\[.*\]) and (\[.*\]) lie on one side of their wall (\[.*\])", message)
    first, second, wall = (tuple(json.loads(found[k])) for k in (1, 2, 3))
    if not (first in fan.max_cones and second in fan.max_cones and set(wall) == set(first) & set(second)):
        return False
    normal = kernel_basis(IntMatrix.from_rows([fan.rays[i] for i in wall]))[0]
    (a,), (b,) = set(first) - set(wall), set(second) - set(wall)
    return sum(map(operator.mul, normal, fan.rays[a])) * sum(map(operator.mul, normal, fan.rays[b])) > 0


class TestCoveringDegree:
    """Cones whose walls each lie on two cones, on opposite sides, cover space
    k times: validate_fan says complete iff k = 1 and refuses k >= 2 with
    overlapping-cones, against point counts from exact solves.  Here distinct
    sheets share no wall exactly when every wall is paired, and then each
    covers space once."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("seed", range(20))
    def test_the_covering_degree_decides_completeness(self, n, seed):
        rng, rays, cones, paired, sheets = _covering_case(n, seed)
        fan = make_fan(Lattice.standard(n), rays, cones)
        if not paired:
            # Sheets that share a wall but differ overlap, here always by a ray
            # inside a cone of another sheet.
            assert sheets >= 2
            with pytest.raises(PreconditionError) as info:
                validate_fan(fan)
            assert info.value.reason == "overlapping-cones"
            assert _overlap_is_real(fan, str(info.value))
            return
        assert set(_covering_counts(rng, rays, cones, 20)) == {sheets}
        if sheets == 1:
            assert validate_fan(fan).complete
        else:
            with pytest.raises(PreconditionError) as info:
                validate_fan(fan)
            assert info.value.reason == "overlapping-cones"
            assert str(info.value) == f"a point inside the first cone lies in {sheets} cones"

    def test_every_kind_of_case_occurs(self):
        cases = [_covering_case(n, seed) for n in (3, 4) for seed in range(20)]
        kinds = collections.Counter((paired, min(sheets, 2)) for _, _, _, paired, sheets in cases)
        assert set(kinds) >= {(True, 1), (True, 2), (False, 2)}, kinds


E3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


class TestOverlapsInIncompleteLists:
    """A cone list with a wall not on two cones on opposite sides is refused
    with overlapping-cones when a ray lies in a cone that does not list it,
    or two cones lie on one side of a wall they share; a sub-list of a
    complete fan's cones is a fan, and passes as not complete."""

    def refusal(self, rays, cones):
        fan = make_fan(Lattice.standard(len(rays[0])), rays, cones)
        with pytest.raises(PreconditionError) as info:
            validate_fan(fan)
        assert info.value.reason == "overlapping-cones"
        assert _overlap_is_real(fan, str(info.value))
        return str(info.value)

    def test_a_ray_inside_a_cone(self):
        # (1, 1, 1) lies inside the first cone, whose wall (0, 1) the second
        # cone shares from the same side.
        message = self.refusal(E3 + [(1, 1, 1)], [(0, 1, 2), (0, 1, 3)])
        assert message == "ray 3 lies in the cone [0, 1, 2], which does not list it"

    def test_two_cones_on_one_side_of_their_wall(self):
        # Neither cone holds the other's third ray, yet both leave the wall
        # (0, 1) towards z > 0.
        message = self.refusal(E3 + [(2, -1, 1)], [(0, 1, 2), (0, 1, 3)])
        assert message == "the cones [0, 1, 2] and [0, 1, 3] lie on one side of their wall [0, 1]"

    def test_three_cones_on_one_wall(self):
        # Two of any three cones on one wall are on the same side of it.
        message = self.refusal(E3 + [(0, 0, -1), (2, -1, 1)], [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        assert message == "the cones [0, 1, 2] and [0, 1, 4] lie on one side of their wall [0, 1]"

    def test_cones_crossing_with_no_ray_inside_pass(self):
        # At z = 1 the two cones cut a star of David: their interiors meet,
        # but no ray of one lies in the other and they share no wall, so
        # this overlap stays undetected.
        rays = [(0, 2, 1), (-2, -1, 1), (2, -1, 1), (0, -2, 1), (2, 1, 1), (-2, 1, 1)]
        report = validate_fan(make_fan(Lattice.standard(3), rays, [(0, 1, 2), (3, 4, 5)]))
        assert report == FanReport(simplicial=True, complete=False, smooth=False)

    @pytest.mark.parametrize("seed", range(30))
    def test_sub_lists_of_complete_fans_pass(self, seed):
        rng = random.Random(seed)
        dims = rng.choice([(3,), (2, 1), (1, 1, 1), (4,), (2, 2), (3, 1), (1, 1, 2)])
        rays, cones = _weighted_stellar_subdivision(rng, *_product_fan(dims), rng.randint(0, 4))
        lattice = Lattice.standard(sum(dims))
        kept = rng.sample(cones, rng.randint(1, len(cones) - 1))
        for fan in (make_fan(lattice, rays, kept), transform_fan(random_unimodular(rng, lattice.rank), make_fan(lattice, rays, kept))):
            assert validate_fan(fan) == _kernel_validate(fan)
            assert validate_fan(fan).simplicial and not validate_fan(fan).complete

    @pytest.mark.parametrize("seed", range(30))
    def test_a_cone_kept_beside_its_subdivision(self, seed):
        # Star-subdivide one cone of a sub-list at an interior w and keep the
        # cone too: w is the one ray in a cone that does not list it.
        rng = random.Random(seed)
        dims = rng.choice([(3,), (2, 1), (1, 1, 1), (4,), (2, 2), (3, 1)])
        rays, cones = _weighted_stellar_subdivision(rng, *_product_fan(dims), rng.randint(0, 3))
        kept = rng.sample(cones, rng.randint(1, len(cones)))
        cone = sorted(kept[0])
        weights = [rng.randint(1, 3) for _ in cone]
        w = primitive_vector([sum(map(operator.mul, weights, xs)) for xs in zip(*(rays[i] for i in cone))])
        kept += [tuple(len(rays) if x == i else x for x in cone) for i in cone]
        message = self.refusal(rays + [w], kept)
        assert message == f"ray {len(rays)} lies in the cone {cone}, which does not list it"


def ccw_by_comparator(rays):
    """The counterclockwise order from (1, 0) by pairwise comparison, the
    oracle of ``_ccw_sort``'s integer key: the half-plane first, then the
    sign of the cross product."""

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(v, w):
        if half(v) != half(w):
            return half(v) - half(w)
        return -1 if _cross(v, w) > 0 else 1

    return sorted(rays, key=functools.cmp_to_key(cmp))


BIG = 10**30


@st.composite
def near_rays(draw):
    """A primitive ray v and rays w with det(v, w) = +-1, as close to v in
    angle as its size allows, with their negatives and the axis rays."""
    v = draw(st.tuples(st.integers(-BIG, BIG), st.integers(-BIG, BIG)).filter(lambda v: math.gcd(*v) == 1))
    x, y = v
    # p x + q y = 1, so (-q, p) has det(v, (-q, p)) = 1.
    p = pow(x, -1, abs(y)) if abs(y) > 1 else (x if y == 0 else 0)
    q = (1 - p * x) // y if y else 0
    rays = {v, (-x, -y), (1, 0), (-1, 0), (0, 1), (0, -1)}
    for k in draw(st.lists(st.integers(-BIG, BIG), max_size=4)):
        w = (-q + k * x, p + k * y)
        rays |= {w, (-w[0], -w[1])}
    return list(rays)


primitive_rays = st.tuples(st.integers(-BIG, BIG), st.integers(-BIG, BIG)).filter(lambda v: math.gcd(*v) == 1)


class TestCcwSort:
    @settings(max_examples=300, deadline=None)
    @given(rays=st.lists(primitive_rays, min_size=1, max_size=12, unique=True), small=st.booleans())
    def test_the_integer_key_is_the_comparator_order(self, rays, small):
        if small:
            small = ((x % 7 - 3, y % 5 - 2) for x, y in rays)
            rays = list(dict.fromkeys(primitive_vector(v) for v in small if any(v)))
        assert _ccw_sort(rays) == ccw_by_comparator(rays)

    @settings(max_examples=300, deadline=None)
    @given(rays=near_rays(), shuffle=st.randoms(use_true_random=False))
    def test_rays_one_unit_of_det_apart(self, rays, shuffle):
        assert all(math.gcd(*v) == 1 for v in rays)
        shuffle.shuffle(rays)
        assert _ccw_sort(rays) == ccw_by_comparator(rays)

    def test_worked_order(self):
        rays = [(0, -1), (-1, 0), (1, 1), (1, 0), (-1, 1), (0, 1), (1, -1), (-1, -1)]
        assert _ccw_sort(rays) == [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


class TestFanIsomorphism:
    def test_self_isomorphism_is_identity(self, p2_fan):
        assert fan_isomorphism(p2_fan, p2_fan) == IntMatrix.identity(2)

    def test_ray_count_mismatch(self, p2_fan, square_fan):
        assert fan_isomorphism(p2_fan, square_fan) is None

    def test_hexagons_in_both_lattices_are_isomorphic(self, hexagon_n1, hexagon_n2):
        g = fan_isomorphism(hexagon_n1, hexagon_n2)
        assert g is not None and abs(g.det()) == 1
        assert {tuple(g.apply(v)) for v in hexagon_n1.rays} == set(hexagon_n2.rays)

    def test_square_and_hirzebruch_2_differ(self, square_fan):
        assert fan_isomorphism(square_fan, families.hirzebruch(2)) is None

    def test_equivalence_relation_on_corpus(self, p2_fan, square_fan, hexagon_n1, hexagon_n2):
        corpus = [p2_fan, square_fan, hexagon_n1, hexagon_n2, families.hirzebruch(2)]
        for fan in corpus:
            assert fan_isomorphism(fan, fan) is not None
        for f1, f2 in itertools.permutations(corpus, 2):
            g = fan_isomorphism(f1, f2)
            if g is not None:
                back = fan_isomorphism(f2, f1)
                assert back is not None
                assert {g.apply(v) for v in f1.rays} == set(f2.rays)
                # the inverse matrix is itself an isomorphism the other way
                inverse = g.adjugate() if g.det() == 1 else -g.adjugate()
                assert (g @ inverse) == IntMatrix.identity(2)
                assert {inverse.apply(v) for v in f2.rays} == set(f1.rays)
                if f1.lattice == f2.lattice:
                    assert transform_fan(g, f1) == f2
        for f1, f2, f3 in itertools.permutations(corpus, 3):
            g12, g23 = fan_isomorphism(f1, f2), fan_isomorphism(f2, f3)
            if g12 is not None and g23 is not None:
                assert fan_isomorphism(f1, f3) is not None

    def test_rank_mismatch_is_an_error(self, p2_fan):
        with pytest.raises(PreconditionError):
            fan_isomorphism(p2_fan, families.projective_space(3))


def random_surface_fan(rng, smooth):
    """A random complete surface fan: a blow-up of P2 or F_a, or rays in a box."""
    if smooth:
        return families.random_blowup_surface_fan(rng, max_rays=rng.randint(4, 9))
    while True:
        rays = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 6))} - {(0, 0)}
        try:
            return build_surface_fan(Lattice.standard(2), rays)
        except PreconditionError:
            pass


def full_image_key(fan):
    """A complete invariant of a surface fan: the least of its 2 * |rays| full
    images, each a start cone moved to the normal form (1, 0), (k, b)."""
    d = fan.ray_count
    images = []
    for cycle in (fan.rays, fan.rays[::-1]):
        for s in range(d):
            (x0, y0), (x1, y1) = cycle[s], cycle[(s + 1) % d]
            p = pow(x0, -1, abs(y0)) if y0 else x0
            q = (1 - p * x0) // y0 if y0 else 0
            c = x0 * y1 - y0 * x1
            r, t = (-y0, x0) if c > 0 else (y0, -x0)
            k = (p * x1 + q * y1) // abs(c)
            p, q = p - k * r, q - k * t
            images.append(tuple((p * x + q * y, r * x + t * y) for x, y in cycle[s:] + cycle[:s]))
    return min(images)


def key_pool(rng, fans):
    """The fans, a GL2(Z) image of each, and each as a rotated clockwise cycle."""
    pool = []
    for fan in fans:
        d = fan.ray_count
        shift = rng.randrange(d)
        rotated = fan.rays[shift:] + fan.rays[:shift]
        pool += [fan, transform_fan(random_unimodular(rng, 2), fan), Fan(fan.lattice, rotated[::-1], fan.max_cones)]
    return pool


def assert_keys_match_the_full_images(pool):
    """Two fans of the pool have equal word keys exactly when their least
    full images are equal; returns the number of equal pairs."""
    keys = [word_key_from_rays(fan.rays) for fan in pool]
    images = [full_image_key(fan) for fan in pool]
    equal = 0
    for (k1, i1), (k2, i2) in itertools.combinations(zip(keys, images), 2):
        assert (k1 == k2) == (i1 == i2)
        equal += k1 == k2
    return equal


class TestSurfaceKey:
    """The word oracle ``word_key_from_rays``, the surface-fan class the
    census tests compare with, against full images and ``fan_isomorphism``."""

    @pytest.mark.parametrize("smooth", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_exactly_when_the_full_images_are(self, seed, smooth):
        rng = random.Random(100 * seed + smooth)
        pool = key_pool(rng, [random_surface_fan(rng, smooth) for _ in range(40)])
        # Each fan meets its two copies, and some random fans are isomorphic.
        assert assert_keys_match_the_full_images(pool) >= 3 * 40

    def test_equal_exactly_when_the_full_images_are_on_the_smooth_census(self):
        fans = families.enumerate_invariant_fans(Lattice.weight_a2(), 6, 36, require_smooth=True)
        assert len(fans) == 35
        assert assert_keys_match_the_full_images(key_pool(random.Random(6), fans)) == 3 * 35

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), smooth=st.booleans(), shift=st.integers(0, 20))
    def test_invariant_under_gl2_rotation_and_reflection(self, seed, smooth, shift):
        rng = random.Random(seed)
        fan = random_surface_fan(rng, smooth)
        key = word_key_from_rays(fan.rays)
        assert word_key_from_rays(transform_fan(random_unimodular(rng, 2), fan).rays) == key
        d = fan.ray_count
        rotated = fan.rays[shift % d :] + fan.rays[: shift % d]
        assert word_key_from_rays(rotated) == key
        assert word_key_from_rays(rotated[::-1]) == key
        reflected = build_surface_fan(fan.lattice, [(y, x) for x, y in fan.rays])
        assert word_key_from_rays(reflected.rays) == key

    @pytest.mark.parametrize(
        "first, second",
        [
            ([(-3, 4), (-1, -1), (4, -3)], [(-3, -2), (2, -1), (1, 3)]),
            ([(-1, -1), (1, -4), (1, 1), (-1, 4)], [(-2, -3), (1, -1), (2, 3), (-1, 1)]),
            ([(-3, -1), (2, -1), (1, 2), (-2, 1)], [(-2, 1), (-1, -2), (2, -1), (-1, 3)]),
        ],
    )
    def test_the_start_cone_parts_equal_words(self, first, second):
        # The same word, but start cones (1, 0), (k, b) with other k: the
        # fans are not isomorphic.
        f1, f2 = (build_surface_fan(Lattice.standard(2), rays) for rays in (first, second))
        (w1, k1), (w2, k2) = word_key_from_rays(f1.rays), word_key_from_rays(f2.rays)
        assert w1 == w2 and k1 != k2
        assert fan_isomorphism(f1, f2) is None
        assert full_image_key(f1) != full_image_key(f2)

    def test_worked_word_keys(self, p2_fan, hexagon_n1):
        # P2: every cone is smooth and v_{i-1} + v_{i+1} = -v_i, so each
        # pair is (1, det(v_{i-1}, v_{i+1})) = (1, -1).
        assert word_key_from_rays(p2_fan.rays) == (((1, -1),) * 3, 0)
        # The hexagon: v_{i-1} + v_{i+1} = v_i, every pair (1, 1).
        assert word_key_from_rays(hexagon_n1.rays) == (((1, 1),) * 6, 0)
        # The singular hexagon (3, 1), (3, 2), (-1, 2), (-2, 1), (-2, -3),
        # (-1, -3): cones of index 3 and 8 in turn, and every det(v_i,
        # v_{i+2}) = 7.  Starting at the index-3 cone ((3, 1), (3, 2)),
        # 0 (3) + 1 (1) = 1 gives k = 0 (3) + 1 (2) = 2 mod 3, and the
        # 3-cycle and a reflection carry that cone to every index-3 cone.
        fan = families.singular_hexagon()
        assert set(fan.rays) == {(3, 1), (3, 2), (-1, 2), (-2, 1), (-2, -3), (-1, -3)}
        assert word_key_from_rays(fan.rays) == (((3, 7), (8, 7)) * 3, 2)

    @pytest.mark.parametrize("smooth", [True, False])
    def test_equal_keys_exactly_for_isomorphic_fans(self, smooth):
        rng = random.Random(11 + smooth)
        pool = []
        for _ in range(40):
            fan = random_surface_fan(rng, smooth)
            pool.append(fan)
            pool.append(transform_fan(random_unimodular(rng, 2), fan))
        equal = 0
        for f1, f2 in itertools.combinations(pool, 2):
            same_key = word_key_from_rays(f1.rays) == word_key_from_rays(f2.rays)
            assert same_key == (fan_isomorphism(f1, f2) is not None)
            equal += same_key
        assert 40 <= equal < len(pool) * (len(pool) - 1) // 2

    def test_lattice_kind_is_not_part_of_the_key(self, hexagon_n1, hexagon_n2):
        assert word_key_from_rays(hexagon_n1.rays) == word_key_from_rays(hexagon_n2.rays)


P3_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
P3_CONES = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def _rank_rule(rays, cones):
    """make_fan's cone check before the determinant kernel, as the oracle:
    the slug of the first cone that names a missing ray or whose rays have a
    rank below their number, else None.  The rays are primitive and distinct."""
    for cone in cones:
        idx = tuple(sorted(set(int(i) for i in cone)))
        if any(i < 0 or i >= len(rays) for i in idx):
            return "cone-index"
        if IntMatrix.from_rows([rays[i] for i in idx]).rank() != len(idx):
            return "non-simplicial-cone"
    return None


def _cone_list_case(rng, n):
    """Distinct primitive rays with entries in -2..2 (in rank 1 the two
    there are), some of them the negative of another or the sum of two
    others, and one to four cones of n - 1, n or n + 1 rays.  A cone often
    starts from such a dependent set, and a few name a ray out of range."""
    rays, dependent = [], []
    count = 2 if n == 1 else rng.randint(n + 1, n + 5)
    while len(rays) < count:
        v, parts = [rng.randint(-2, 2) for _ in range(n)], ()
        if len(rays) >= 2 and rng.random() < 0.4:
            parts = rng.sample(range(len(rays)), 2 if rng.random() < 0.5 else 1)
            v = [sum(x) if len(parts) == 2 else -x[0] for x in zip(*(rays[i] for i in parts))]
        if any(v) and primitive_vector(v) not in rays:
            if parts:
                dependent.append([*parts, len(rays)])
            rays.append(primitive_vector(v))
    cones = []
    for _ in range(rng.randint(1, 4)):
        size = min(len(rays), rng.choice([max(1, n - 1), n, n + 1]))
        start = rng.choice(dependent)[:size] if dependent and rng.random() < 0.5 else []
        cone = start + rng.sample([i for i in range(len(rays)) if i not in start], size - len(start))
        if rng.random() < 0.1:
            cone[rng.randrange(size)] = rng.choice([-1, len(rays), len(rays) + 3])
        cones.append(cone)
    return rays, cones


class TestMakeFan:
    def test_explicit_cones_required_above_rank_two(self):
        with pytest.raises(PreconditionError):
            make_fan(Lattice.standard(3), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])

    def test_dependent_cone_is_rejected(self):
        with pytest.raises(PreconditionError):
            make_fan(
                Lattice.standard(3),
                [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)],
                [(0, 1, 2)],
            )

    @pytest.mark.parametrize(
        "cones, reason", [([(0, 7), (3,)], "cone-index"), ([(0, 1)], "non-simplicial-cone")]
    )
    def test_rank1_cones_are_checked(self, cones, reason):
        with pytest.raises(PreconditionError) as info:
            make_fan(Lattice.standard(1), [(1,), (-1,)], cones)
        assert info.value.reason == reason

    @pytest.mark.parametrize(
        "cone",
        [[0, 1, 2.9], [0, 1, 2.0], [0, 1, "2"], [0, 1, Fraction(2)], [0, True, 2]],
        ids=["float", "integral-float", "string", "Fraction", "bool"],
    )
    def test_cone_indices_must_be_exact_ints(self, cone):
        with pytest.raises(TypeError):
            make_fan(Lattice.standard(3), P3_RAYS, [cone, *P3_CONES[1:]])

    @pytest.mark.parametrize(
        "lattice, rays, cones",
        [
            (Lattice.standard(3), P3_RAYS, [*P3_CONES, []]),
            (Lattice.standard(3), P3_RAYS, [[], *P3_CONES]),
            (Lattice.standard(2), [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2), ()]),
            (Lattice.standard(1), [(1,), (-1,)], [(0,), []]),
        ],
        ids=["rank3-last", "rank3-first", "rank2", "rank1"],
    )
    def test_empty_cone_is_refused(self, lattice, rays, cones):
        with pytest.raises(PreconditionError) as info:
            make_fan(lattice, rays, cones)
        assert info.value.reason == "empty-cone"

    def test_no_cones_at_all_is_a_fan(self):
        assert make_fan(Lattice.standard(3), P3_RAYS, []).max_cones == ()

    def test_ambient_rays_accepted_for_a2(self):
        fan = make_fan(Lattice.weight_a2(), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert set(fan.rays) == {(1, 0), (0, 1), (-1, -1)}

    def test_surface_cones_checked_against_adjacency(self, std2):
        with pytest.raises(PreconditionError):
            make_fan(std2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 1)])


class TestConeCheckAgainstTheRankRule:
    """make_fan accepts or refuses a cone list, and names the same slug, as
    the rank test of each cone did before the determinant kernel."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_same_decision_and_slug(self, n):
        rng = random.Random(2500 + n)
        seen = set()
        for _ in range(300):
            rays, cones = _cone_list_case(rng, n)
            expected = _rank_rule(rays, cones)
            try:
                fan = make_fan(Lattice.standard(n), rays, cones)
            except PreconditionError as exc:
                got = exc.reason
            else:
                got = None
                if n != 2:
                    assert fan.max_cones == tuple(sorted({tuple(sorted(set(c))) for c in cones}))
            if expected is None:
                # Rank-2 cone lists are then compared with the complete fan of the rays.
                assert got in (None, "cone-mismatch", "incomplete"), (rays, cones)
            else:
                assert got == expected, (rays, cones)
            seen.add(expected)
        assert seen == {None, "cone-index", "non-simplicial-cone"}


RAY_BUILDERS = {
    "make_fan-rank2": lambda x: make_fan(Lattice.standard(2), [(x, 0), (0, 1), (-1, -1)]),
    "build_surface_fan": lambda x: build_surface_fan(Lattice.standard(2), [(x, 0), (0, 1), (-1, -1)]),
    "make_fan-rank3": lambda x: make_fan(
        Lattice.standard(3), [(x, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    ),
}


class TestRayEntries:
    """Ray entries are checked once, as the rays enter; the fan's matrices
    are built from them unchecked."""

    # A sympy Integer has an integer index but is not an int, as numpy integers are.
    @pytest.mark.parametrize("bad", [1.0, Fraction(1), Integer(1)], ids=["float", "Fraction", "sympy-Integer"])
    @pytest.mark.parametrize("build", list(RAY_BUILDERS.values()), ids=list(RAY_BUILDERS))
    def test_non_int_entries_are_refused(self, build, bad):
        with pytest.raises(TypeError):
            build(bad)

    @pytest.mark.parametrize("build", list(RAY_BUILDERS.values()), ids=list(RAY_BUILDERS))
    def test_entries_come_out_as_ints(self, build):
        for x in (1, True):
            fan = build(x)
            assert all(type(a) is int for v in fan.rays for a in v)
            assert fan == build(1)

    def test_fan_matrices_equal_checked_ones(self):
        for name, fan in named_family_corpus():
            assert fan.ray_matrix() == IntMatrix.from_rows(fan.rays), name
            for cone in fan.max_cones:
                assert fan.cone_matrix(cone) == IntMatrix.from_rows([fan.rays[i] for i in cone]), (name, cone)


def _one_ray_cone_fan(rng, n, spanning):
    """Up to 9 distinct primitive rays, each its own cone.  They combine n
    random vectors (fewer when not spanning) with coefficients in -1..1; each
    ray uses only the first few vectors, more for later rays, so that early
    ray subsets are often dependent.  Built unchecked: make_fan completes a
    rank-2 fan."""
    while True:
        gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n if spanning else rng.randint(1, n - 1))]
        rays = []
        for size in sorted(rng.randint(1, len(gens)) for _ in range(rng.randint(n, 9))):
            v = [sum(rng.randint(-1, 1) * g[i] for g in gens[:size]) for i in range(n)]
            if any(v) and primitive_vector(v) not in rays:
                rays.append(primitive_vector(v))
        if rays and (IntMatrix.from_rows(rays).rank() == n) == spanning:
            return Fan(Lattice.standard(n), tuple(rays), tuple((i,) for i in range(len(rays))))


def _seed_basis_by_ranks(fan):
    """The walk that ``_seed_basis`` replaced: keep each ray that raises the
    rank of the matrix of the kept rays, each rank computed anew."""
    subset = ()
    for i in range(fan.ray_count):
        if len(subset) < fan.rank and fan.cone_matrix(subset + (i,)).rank() > len(subset):
            subset += (i,)
    return subset


class TestSeedBasis:
    """With no full-dimensional cone the seed basis is the first spanning
    ray subset of the lexicographic scan over all n-subsets."""

    @pytest.mark.parametrize("spanning", [True, False], ids=["spanning", "not-spanning"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_greedy_walk_equals_the_subset_scan(self, n, spanning):
        rng = random.Random(n)
        for _ in range(100):
            fan = _one_ray_cone_fan(rng, n, spanning)
            scan = next(
                (s for s in itertools.combinations(range(fan.ray_count), n) if fan.cone_matrix(s).rank() == n), None
            )
            assert (scan is not None) == spanning
            if scan is None:
                with pytest.raises(PreconditionError) as info:
                    _seed_basis(fan, fan)
                assert info.value.reason == "rays-do-not-span"
            else:
                assert _seed_basis(fan, fan) == (scan, [tuple(range(fan.ray_count))])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_echelon_walk_equals_the_rank_walk(self, n):
        # The running echelon form keeps the rays that the walk by ranks keeps.
        # Up to 40 rays of rank k <= n combine k random vectors, with entries
        # up to 10^6 half the time; a ray uses only some of them, so that
        # ray subsets are often dependent.
        rng = random.Random(340 + n)
        for _ in range(60):
            k, bound = rng.randint(1, n), rng.choice((2, 10**6))
            gens = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
            rays = []
            for _ in range(rng.randint(1, 40)):
                v = [sum(rng.randint(-2, 2) * g[i] for g in gens[: rng.randint(1, k)]) for i in range(n)]
                if any(v) and primitive_vector(v) not in rays:
                    rays.append(primitive_vector(v))
            if not rays:
                continue
            fan = Fan(Lattice.standard(n), tuple(rays), tuple((i,) for i in range(len(rays))))
            walk = _seed_basis_by_ranks(fan)
            if len(walk) < n:
                with pytest.raises(PreconditionError) as info:
                    _seed_basis(fan, fan)
                assert info.value.reason == "rays-do-not-span"
            else:
                assert _seed_basis(fan, fan) == (walk, [tuple(range(fan.ray_count))])


class TestReadOff:
    """read_off gives back g from the images g B of a basis B, also for bases
    that are the identity in part: a unit diagonal, or unit vectors in
    another order."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_images_give_back_the_matrix(self, n):
        rng = random.Random(28 + n)
        for _ in range(40):
            shape = rng.choice(["identity", "unit-diagonal", "permuted", "random"])
            basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            if shape == "unit-diagonal":
                basis = [tuple(int(i == j) or (i < j) * rng.randint(-2, 2) for i in range(n)) for j in range(n)]
            elif shape == "permuted":
                rng.shuffle(basis)
            elif shape == "random":
                h = random_unimodular(rng, n)
                basis = [h.apply(b) for b in basis]
            g = random_unimodular(rng, n)
            target = Fan(Lattice.standard(n), tuple(g.apply(b) for b in basis), ())
            det, adjugate, read_off = _read_off(target, basis)
            assert IntMatrix.from_columns(basis) @ adjugate == IntMatrix.from_rows(
                [[det * (i == j) for j in range(n)] for i in range(n)]
            )
            assert read_off(range(n)) == g, (shape, basis)

    @pytest.mark.parametrize("b", [1, -1])
    @pytest.mark.parametrize("s", [1, -1])
    def test_rank_one(self, b, s):
        # One image: itemgetter of one index gives the item, read_off a 1x1
        # matrix all the same, plain (b = 1) or not (b = -1).
        target = Fan(Lattice.standard(1), ((1,), (-1,)), ())
        det, adjugate, read_off = _read_off(target, [(b,)])
        assert (det, adjugate) == (b, IntMatrix.from_rows([[1]]))
        assert read_off([target.rays.index((s * b,))]) == IntMatrix.from_rows([[s]])
