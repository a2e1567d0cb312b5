import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsym import families
from toricsym.errors import PreconditionError
from toricsym.fan import (
    Fan,
    Lattice,
    _seed_basis,
    build_surface_fan,
    cone_invariant_factors,
    fan_isomorphism,
    make_fan,
    surface_key,
    transform_fan,
    validate_fan,
)
from toricsym.intlin import IntMatrix, primitive_vector


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


class TestFanIsomorphism:
    def test_self_isomorphism_is_identity(self, p2_fan):
        assert fan_isomorphism(p2_fan, p2_fan) == IntMatrix.identity(2)

    def test_ray_count_mismatch(self, p2_fan, square_fan):
        assert fan_isomorphism(p2_fan, square_fan) is None

    def test_hexagons_in_both_lattices_are_isomorphic(self, hexagon_n1, hexagon_n2):
        g = fan_isomorphism(hexagon_n1, hexagon_n2)
        assert g is not None and g.is_unimodular()
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
                    assert transform_fan(g, f1).is_same_fan(f2)
        for f1, f2, f3 in itertools.permutations(corpus, 3):
            g12, g23 = fan_isomorphism(f1, f2), fan_isomorphism(f2, f3)
            if g12 is not None and g23 is not None:
                assert fan_isomorphism(f1, f3) is not None

    def test_rank_mismatch_is_an_error(self, p2_fan):
        with pytest.raises(PreconditionError):
            fan_isomorphism(p2_fan, families.projective_space(3))


def random_gl2(rng, steps=6):
    """A random element of GL2(Z): elementary shears, then maybe a reflection."""
    g = IntMatrix.identity(2)
    for _ in range(steps):
        k = rng.choice([-2, -1, 1, 2])
        shear = [(1, k), (0, 1)] if rng.random() < 0.5 else [(1, 0), (k, 1)]
        g = IntMatrix.from_rows(shear) @ g
    if rng.random() < 0.5:
        g = IntMatrix.from_rows([(0, 1), (1, 0)]) @ g
    return g


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
    """The surface key as the least of all 2 * |rays| full images."""
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


class TestSurfaceKey:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), smooth=st.booleans())
    def test_equals_the_least_full_image(self, seed, smooth):
        fan = random_surface_fan(random.Random(seed), smooth)
        assert surface_key(fan) == full_image_key(fan)

    def test_equals_the_least_full_image_on_the_smooth_census(self):
        fans = families.enumerate_invariant_fans(Lattice.weight_a2(), 6, 36, require_smooth=True)
        assert len(fans) == 35
        for fan in fans:
            assert surface_key(fan) == full_image_key(fan)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), smooth=st.booleans(), shift=st.integers(0, 20))
    def test_invariant_under_gl2_rotation_and_reflection(self, seed, smooth, shift):
        rng = random.Random(seed)
        fan = random_surface_fan(rng, smooth)
        key = surface_key(fan)
        assert surface_key(transform_fan(random_gl2(rng), fan)) == key
        d = fan.ray_count
        rotated = fan.rays[shift % d :] + fan.rays[: shift % d]
        assert surface_key(Fan(fan.lattice, rotated, fan.max_cones)) == key
        assert surface_key(Fan(fan.lattice, rotated[::-1], fan.max_cones)) == key
        reflected = build_surface_fan(fan.lattice, [(y, x) for x, y in fan.rays])
        assert surface_key(reflected) == key

    def test_worked_keys(self, p2_fan, hexagon_n1):
        assert surface_key(p2_fan) == ((1, 0), (0, 1), (-1, -1))
        # Every self-intersection is -1, so v_{i+1} = v_i - v_{i-1}.
        assert surface_key(hexagon_n1) == ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
        # The singular hexagon's cones have index 3: (1, 0), then (k, 3).
        assert surface_key(families.singular_hexagon())[:2] == ((1, 0), (2, 3))

    @pytest.mark.parametrize("smooth", [True, False])
    def test_equal_keys_exactly_for_isomorphic_fans(self, smooth):
        rng = random.Random(11 + smooth)
        pool = []
        for _ in range(40):
            fan = random_surface_fan(rng, smooth)
            pool.append(fan)
            pool.append(transform_fan(random_gl2(rng), fan))
        equal = 0
        for f1, f2 in itertools.combinations(pool, 2):
            same_key = surface_key(f1) == surface_key(f2)
            assert same_key == (fan_isomorphism(f1, f2) is not None)
            equal += same_key
        assert 40 <= equal < len(pool) * (len(pool) - 1) // 2

    def test_lattice_kind_is_not_part_of_the_key(self, hexagon_n1, hexagon_n2):
        assert surface_key(hexagon_n1) == surface_key(hexagon_n2)

    def test_rank_three_is_an_error(self):
        with pytest.raises(PreconditionError):
            surface_key(families.projective_space(3))


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

    def test_ambient_rays_accepted_for_a2(self):
        fan = make_fan(Lattice.weight_a2(), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert set(fan.rays) == {(1, 0), (0, 1), (-1, -1)}

    def test_surface_cones_checked_against_adjacency(self, std2):
        with pytest.raises(PreconditionError):
            make_fan(std2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 1)])


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
