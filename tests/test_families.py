import itertools
import random
import time

import pytest

from toricsym import families
from toricsym import fan as fan_module
from toricsym.divisors import class_group, ray_blocks, ray_relations
from toricsym.errors import PreconditionError
from toricsym.fan import Lattice, _cycle_dets, _cycle_fan, _splice, build_surface_fan, fan_isomorphism, validate_fan
from toricsym.intlin import IntMatrix, primitive_vector, smith_normal_form
from toricsym.mmp import DP6_TERMINAL, P2, contract, self_intersection_profile, traces
from toricsym.symmetry import GaloisForm, action_from_generators, classify_galois_form, ray_orbits

from conftest import random_unimodular, transform_fan, word_key_from_rays


class TestNamedFamilies:
    def test_projective_space_shapes(self):
        for n in range(1, 5):
            fan = families.projective_space(n)
            assert fan.ray_count == n + 1
            assert len(fan.max_cones) == n + 1
            report = validate_fan(fan)
            assert report.simplicial and report.complete and report.smooth

    def test_weighted_space_relation(self):
        fan = families.weighted_p1111m(2)
        assert ray_relations(class_group(fan)[1]).basis == ((1, 1, 1, 1, 2),)
        assert ray_blocks(class_group(fan)[1]).sizes == (4, 1)

    def test_weighted_space_smooth_only_at_one(self):
        assert validate_fan(families.weighted_p1111m(1)).smooth
        assert not validate_fan(families.weighted_p1111m(2)).smooth

    def test_bundle_blocks(self):
        assert ray_blocks(class_group(families.bundle_over_p3(2))[1]).sizes == (4, 1, 1)
        assert ray_blocks(class_group(families.bundle_over_p3(0))[1]).sizes == (4, 2)

    def test_weighted_plane_flags(self):
        fan = families.weighted_p11a(3)
        report = validate_fan(fan)
        assert report.complete and report.simplicial and not report.smooth
        assert validate_fan(families.weighted_p11a(1)).smooth

    def test_singular_hexagon_flags(self):
        report = validate_fan(families.singular_hexagon())
        assert report.complete and report.simplicial and not report.smooth

    def test_q22_is_the_negation_twisted_hexagon(self):
        fan, datum = families.q22()
        action = families.standard_s3_action(fan)
        form = classify_galois_form(action, datum)
        assert form is GaloisForm.NEGATION_TWIST
        assert fan == families.dp6("n2")

    def test_weil_restriction_is_the_factor_swapped_square(self, square_fan):
        fan, datum = families.weil_restriction_p1()
        assert fan == square_fan
        trivial = action_from_generators(fan, [IntMatrix.identity(2)])
        form = classify_galois_form(trivial, datum)
        assert form is GaloisForm.FACTOR_SWAP

    def test_descriptor_grammar(self):
        fan, datum = families.make_family_fan("weighted-p1111m:2")
        assert fan.ray_count == 5 and datum is None
        fan, datum = families.make_family_fan("q22")
        assert datum is not None
        with pytest.raises(PreconditionError):
            families.make_family_fan("nonesuch")
        with pytest.raises(PreconditionError):
            families.make_family_fan("hirzebruch:x")
        with pytest.raises(PreconditionError):
            families.make_family_fan("weighted-p1111m:0")

    def test_every_family_output_validates(self):
        from toricsym.acceptance import named_family_corpus

        smooth_exceptions = {"weighted-p11a", "weighted-p1111m", "singular-hexagon"}
        for name, fan in named_family_corpus():
            report = validate_fan(fan)
            assert report.complete and report.simplicial, name
            family = name.split(":")[0]
            if family == "weighted-p11a":
                assert report.smooth == (name == "weighted-p11a:1")
            elif family == "weighted-p1111m":
                assert report.smooth == (name == "weighted-p1111m:1")
            elif family == "singular-hexagon":
                assert not report.smooth
            else:
                assert report.smooth, name


class TestOrbitFans:
    def test_triangle_from_one_orbit(self):
        fan = families.s3_orbit_fan(Lattice.weight_a2(), [(1, 0, 0)])
        assert fan.ray_count == 3
        assert fan_isomorphism(fan, families.projective_space(2)) is not None

    def test_hexagon_from_two_orbits(self, hexagon_n2):
        fan = families.s3_orbit_fan(Lattice.weight_a2(), [(1, 0, 0), (0, 0, -1)])
        assert fan == hexagon_n2
        assert set(fan.rays) == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}

    def test_second_orbit_is_the_negation_of_the_first(self, hexagon_n2):
        action = families.standard_s3_action(hexagon_n2)
        first, second = ray_orbits(action)
        negated = sorted(tuple(-x for x in hexagon_n2.rays[i]) for i in first)
        assert negated == sorted(hexagon_n2.rays[i] for i in second)

    def test_singular_hexagon_is_one_orbit_of_six(self):
        fan = families.s3_orbit_fan(Lattice.root_a2(), [(3, -1, -2)])
        assert fan.ray_count == 6
        action = families.standard_s3_action(fan)
        assert [len(o) for o in ray_orbits(action)] == [6]

    def test_orbit_fans_are_invariant_by_construction(self):
        for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
            orbit = lattice.s3_orbit(primitive_vector(lattice.accept_ray((2, -1, -1))))
            fan = build_surface_fan(lattice, orbit + tuple(tuple(-x for x in v) for v in orbit))
            action = families.standard_s3_action(fan, include_negation=True)
            assert action.order == 12

    def test_zero_seed_is_rejected(self):
        with pytest.raises(PreconditionError):
            families.s3_orbit_fan(Lattice.weight_a2(), [(1, 1, 1)])


class TestEnumerator:
    def test_height_one_weight_lattice_contains_triangle_and_hexagon(self, hexagon_n2):
        fans = families.enumerate_invariant_fans(
            Lattice.weight_a2(), height=1, max_rays=6, require_smooth=True
        )
        counts = sorted(f.ray_count for f in fans)
        assert 3 in counts and 6 in counts
        hexagons = [f for f in fans if f.ray_count == 6]
        assert any(fan_isomorphism(f, hexagon_n2) is not None for f in hexagons)

    def test_height_one_root_lattice_contains_the_hexagon(self, hexagon_n1):
        fans = families.enumerate_invariant_fans(
            Lattice.root_a2(), height=1, max_rays=6, require_smooth=True
        )
        assert any(fan_isomorphism(f, hexagon_n1) is not None for f in fans)

    @pytest.mark.parametrize("lattice", [Lattice.root_a2(), Lattice.weight_a2()])
    def test_three_ray_census_is_all_triangles(self, lattice):
        fans = families.enumerate_invariant_fans(lattice, height=1, max_rays=3, require_smooth=True)
        triangle = families.projective_space(2)
        for fan in fans:
            assert fan.ray_count == 3
            assert fan_isomorphism(fan, triangle) is not None

    @pytest.mark.parametrize("lattice", [Lattice.standard(2), Lattice.standard(3)])
    def test_standard_lattices_are_refused(self, lattice):
        with pytest.raises(PreconditionError) as err:
            families.enumerate_invariant_fans(lattice, height=1, max_rays=6)
        assert err.value.reason == "parameter"

    def test_census_is_isomorphism_deduplicated(self):
        fans = families.enumerate_invariant_fans(
            Lattice.weight_a2(), height=2, max_rays=12, require_smooth=True
        )
        for i, f1 in enumerate(fans):
            for f2 in fans[i + 1 :]:
                assert fan_isomorphism(f1, f2) is None

    def test_census_mmp_terminates_at_triangle_or_hexagon(self):
        for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
            for fan in families.enumerate_invariant_fans(
                lattice, height=2, max_rays=12, require_smooth=True
            ):
                action = families.standard_s3_action(fan)
                for _, terminal, label in traces(contract(fan, action, first_only=False)):
                    assert label in (P2, DP6_TERMINAL)
                    # terminal dichotomy: an order-6 faithful ray action
                    # only survives on 3 or 6 rays
                    assert len(terminal) in (3, 6)

    def test_negation_census_terminates_at_the_hexagon(self):
        for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
            for fan in families.enumerate_invariant_fans(
                lattice, height=2, max_rays=12, require_smooth=True, include_negation=True
            ):
                action = families.standard_s3_action(fan, include_negation=True)
                for _, terminal, label in traces(contract(fan, action, first_only=False)):
                    if len(terminal) == 6:
                        assert label == DP6_TERMINAL


class TestCriteriaTables:
    def test_weighted_parity(self):
        assert families.s6_on_weighted_p1111m(4)
        assert not families.s6_on_weighted_p1111m(3)
        with pytest.raises(PreconditionError):
            families.s6_on_weighted_p1111m(0)

    def test_bundle_parity(self):
        assert families.s6_on_bundle_over_p3(0)
        assert families.s6_on_bundle_over_p3(-2)
        assert not families.s6_on_bundle_over_p3(5)

    def test_closed_field_table(self):
        entry = families.max_symmetric_degree(4, "C")
        assert entry.degree == 6
        assert len(entry.varieties) == 4
        assert families.max_symmetric_degree(2, "C").degree == 5
        assert families.max_symmetric_degree(7, "C").degree == 9

    def test_star_field_table(self):
        entry = families.max_symmetric_degree(2, "star")
        assert entry.degree == 4 and entry.infinite_family
        assert families.max_symmetric_degree(1, "star").degree == 3
        assert families.max_symmetric_degree(3, "star").degree == 5

    def test_queries_outside_the_tables_fail(self):
        with pytest.raises(PreconditionError):
            families.max_symmetric_degree(0, "C")
        with pytest.raises(PreconditionError):
            families.max_symmetric_degree(2, "F_p")


class TestDiagonalObstruction:
    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_swap_exchanges_the_subdivisions(self, a):
        report = families.check_diagonal_obstruction(a)
        assert report.swap_sends_first_to_second
        assert report.swap_sends_second_to_first
        assert not report.swap_fixes_first
        assert not report.swap_fixes_second
        assert report.swap_preserves_full_fan
        assert report.obstructed

    def test_full_fan_is_a_genuine_fan(self):
        for a in (0, 1, 2):
            report = validate_fan(families.bundle_over_p1xp1(a))
            assert report.complete and report.simplicial and report.smooth


def klein_four_extension(lattice):
    """Order and center size of the permutation group of the four two-torsion
    points generated by the coordinate permutations (the lattice action
    reduced mod 2) and the three translations."""
    points = [(0, 0), (0, 1), (1, 0), (1, 1)]
    index = {p: i for i, p in enumerate(points)}

    def compose(g, h):
        return tuple(g[h[i]] for i in range(4))

    generators = [
        tuple(index[tuple(x % 2 for x in g.apply(p))] for p in points) for g in lattice.s3_matrices()
    ]
    generators += [tuple(index[((p[0] + w[0]) % 2, (p[1] + w[1]) % 2)] for p in points) for w in points[1:]]
    group = {(0, 1, 2, 3)}
    queue = list(group)
    while queue:
        current = queue.pop()
        for g in generators:
            nxt = compose(g, current)
            if nxt not in group:
                group.add(nxt)
                queue.append(nxt)
    center = [g for g in group if all(compose(g, h) == compose(h, g) for h in group)]
    return len(group), len(center)


class TestKleinExtension:
    @pytest.mark.parametrize("lattice", [Lattice.root_a2(), Lattice.weight_a2()])
    def test_order_24_with_trivial_center(self, lattice):
        order, center = klein_four_extension(lattice)
        assert order == 24
        assert center == 1


class TestWeightedSpaceUniqueness:
    """Any lattice presentation of the 5-ray data is isomorphic to the model."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_unimodular_rebasing_recovers_the_model(self, m):
        model = families.weighted_p1111m(m)
        # v1, v2, v3, v5 form a lattice basis, so any unimodular change of
        # coordinates produces the same fan up to isomorphism
        basis = IntMatrix.from_rows([model.rays[i] for i in (0, 1, 2, 4)])
        assert all(f == 1 for f in smith_normal_form(basis).invariant_factors)
        rng = random.Random(m)
        for _ in range(3):
            g = random_unimodular(rng, 4)
            moved = transform_fan(g, model)
            assert fan_isomorphism(moved, model) is not None


class TestRandomBlowups:
    def test_reproducible_and_smooth(self):
        rng1, rng2 = random.Random(7), random.Random(7)
        f1 = families.random_blowup_surface_fan(rng1)
        f2 = families.random_blowup_surface_fan(rng2)
        assert f1 == f2
        report = validate_fan(f1)
        assert report.smooth and report.complete


class TestEnumeratorDeterminism:
    def test_repeated_runs_agree(self):
        kwargs = dict(height=2, max_rays=12, require_smooth=True)
        first = families.enumerate_invariant_fans(Lattice.weight_a2(), **kwargs)
        second = families.enumerate_invariant_fans(Lattice.weight_a2(), **kwargs)
        assert first == second


def seed_orbits_from_every_triple(lattice, height, include_negation):
    """The orbits of ``_seed_orbits``, reached from every ambient triple of
    the box rather than one per multiset."""
    orbits = set()
    for ambient in itertools.product(range(-height, height + 1), repeat=3):
        if lattice.kind == "rootA2" and sum(ambient) != 0:
            continue
        coords = lattice.coords(ambient)
        if any(coords):
            orbit = set(lattice.s3_orbit(primitive_vector(coords)))
            if include_negation:
                orbit |= {tuple(-x for x in v) for v in orbit}
            orbits.add(tuple(sorted(orbit)))
    return sorted(orbits)


@pytest.mark.parametrize("kind", ["rootA2", "weightA2"])
@pytest.mark.parametrize("negation", [False, True])
@pytest.mark.parametrize("height", range(1, 13))
def test_seed_orbits_from_one_triple_per_multiset(kind, negation, height):
    lattice = Lattice.from_label(kind)
    expected = seed_orbits_from_every_triple(lattice, height, negation)
    assert families._seed_orbits(lattice, height, negation) == expected


def enumerate_by_pairwise_search(lattice, height, max_rays, require_smooth, include_negation):
    """The enumerator without the +-rule: every union of allowed orbits,
    the smooth ones kept when asked, deduplicated by pairwise isomorphism
    search in (ray count, rays) order."""
    orbit_list = families._seed_orbits(lattice, height, include_negation)
    candidates = []
    for r in range(1, len(orbit_list) + 1):
        if min(len(o) for o in orbit_list) * r > max_rays:
            break
        for combo in itertools.combinations(orbit_list, r):
            rays = sorted(set(itertools.chain.from_iterable(combo)))
            if len(rays) > max_rays or len(rays) < 3:
                continue
            fan = build_surface_fan(lattice, rays)
            if require_smooth and not validate_fan(fan).smooth:
                continue
            candidates.append(fan)
    candidates.sort(key=lambda f: (f.ray_count, f.rays))
    kept = []
    for fan in candidates:
        if all(fan_isomorphism(fan, other) is None for other in kept if other.ray_count == fan.ray_count):
            kept.append(fan)
    return tuple(kept)


# weightA2 without negation: the pairwise search takes 10 s or more at H=3
# not smooth and H=4 smooth (their class counts are checked below), and H=4
# not smooth has 6 160 classes.
_SLOW = {(3, False), (4, True), (4, False)}


def differential_configs():
    configs = []
    for kind in ("rootA2", "weightA2"):
        for height in (1, 2, 3, 4):
            for smooth in (True, False):
                for negation in (False, True):
                    if kind == "weightA2" and not negation and (height, smooth) in _SLOW:
                        continue
                    configs.append((kind, height, 6 * height, smooth, negation))
    rng = random.Random(6)
    while len(configs) < 42:
        kind = rng.choice(("rootA2", "weightA2"))
        height = rng.randint(1, 4)
        max_rays, smooth, negation = rng.randint(3, 6 * height - 1), rng.random() < 0.5, rng.random() < 0.5
        if not (kind == "weightA2" and not negation and (height, smooth) in _SLOW):
            configs.append((kind, height, max_rays, smooth, negation))
    return [pytest.param(*c, id="-".join(map(str, c))) for c in configs]


class TestEnumeratorAgainstPairwiseSearch:
    @pytest.mark.parametrize("kind, height, max_rays, smooth, negation", differential_configs())
    def test_same_fans_as_the_pairwise_search(self, kind, height, max_rays, smooth, negation):
        lattice = Lattice.from_label(kind)
        args = (lattice, height, max_rays, smooth, negation)
        assert families.enumerate_invariant_fans(*args) == enumerate_by_pairwise_search(*args)

    @pytest.mark.parametrize("height, smooth, classes", [(3, False, 225), (4, True, 7), (4, False, 6160)])
    def test_class_counts_where_the_pairwise_search_is_slow(self, height, smooth, classes):
        fans = families.enumerate_invariant_fans(
            Lattice.weight_a2(), height=height, max_rays=6 * height, require_smooth=smooth
        )
        assert len(fans) == classes
        if smooth:
            assert all(validate_fan(f).smooth for f in fans)


def unions_by_combinations(orbit_list, max_rays):
    """The ray sets of the unions of orbits with 3 to ``max_rays`` rays,
    from every combination of at most ``max_rays // 3`` orbits (an orbit
    has at least 3 rays)."""
    unions = set()
    for r in range(1, max_rays // 3 + 1):
        for combo in itertools.combinations(orbit_list, r):
            rays = frozenset(itertools.chain.from_iterable(combo))
            if 3 <= len(rays) <= max_rays:
                unions.add(rays)
    return unions


class TestOrbitUnions:
    @pytest.mark.parametrize(
        "kind, height, max_rays, negation",
        [("rootA2", h, m, n) for h, m in ((3, 18), (4, 12), (5, 18)) for n in (False, True)]
        + [("weightA2", h, m, n) for h, m in ((2, 12), (3, 9), (4, 12)) for n in (False, True)],
    )
    def test_every_union_once_as_a_ccw_cycle(self, kind, height, max_rays, negation):
        lattice = Lattice.from_label(kind)
        orbit_list = families._seed_orbits(lattice, height, negation)
        cycles = list(families._orbit_unions(orbit_list, max_rays))
        assert len({frozenset(c) for c in cycles}) == len(cycles)
        assert {frozenset(c) for c in cycles} == unions_by_combinations(orbit_list, max_rays)
        for cycle in cycles:
            fan = build_surface_fan(lattice, cycle)
            start = cycle.index(fan.rays[0])
            assert tuple(cycle[start:] + cycle[:start]) == fan.rays

    @pytest.mark.parametrize("kind, height, max_rays, negation, unions", [
        ("weightA2", 4, 24, False, 12232),
        ("weightA2", 6, 36, True, 2555),
        ("rootA2", 6, 36, False, 4557),
    ])
    def test_the_bound_counts_unions(self, kind, height, max_rays, negation, unions, monkeypatch):
        orbit_list = families._seed_orbits(Lattice.from_label(kind), height, negation)
        assert unions <= families.MAX_UNIONS
        monkeypatch.setattr(families, "MAX_UNIONS", unions)
        assert sum(1 for _ in families._orbit_unions(orbit_list, max_rays)) == unions
        monkeypatch.setattr(families, "MAX_UNIONS", unions - 1)
        with pytest.raises(PreconditionError) as err:
            next(families._orbit_unions(orbit_list, max_rays))
        assert err.value.reason == "too-many-candidates"

    def test_the_bound_refuses_weightA2_height_five_at_once(self):
        # Orbits of 3 and 6 rays within 30 rays: far more than MAX_UNIONS
        # unions, counted before any fan is built.
        start = time.perf_counter()
        with pytest.raises(PreconditionError) as err:
            families.enumerate_invariant_fans(Lattice.weight_a2(), 5, 30, require_smooth=False)
        assert err.value.reason == "too-many-candidates"
        assert time.perf_counter() - start < 1


def random_blowup_by_sorting(rng, max_rays):
    """``random_blowup_surface_fan`` with every blow-up built afresh from
    its ray set by ``build_surface_fan`` instead of spliced into the cycle."""
    fan = families.projective_space(2) if rng.random() < 0.5 else families.hirzebruch(rng.randint(0, 3))
    target = rng.randint(fan.ray_count, max_rays)
    while fan.ray_count < target:
        d = fan.ray_count
        i = rng.randrange(d)
        new_ray = tuple(a + b for a, b in zip(fan.rays[i], fan.rays[(i + 1) % d]))
        fan = build_surface_fan(fan.lattice, list(fan.rays) + [new_ray])
    return fan


def smooth_census_params(heights):
    return [
        pytest.param(kind, height, negation, id=f"{kind}-H{height}-neg{int(negation)}")
        for kind in ("rootA2", "weightA2")
        for height in heights
        for negation in (False, True)
    ]


def blowup_generator(kind, height, negation):
    """The lattice, the allowed orbits and every (cycle, a) the smooth
    census generator yields at M = 6H."""
    lattice = Lattice.from_label(kind)
    orbit_list = families._seed_orbits(lattice, height, negation)
    return lattice, orbit_list, list(families._smooth_cycles(orbit_list, 6 * height))


def assert_cycle_of(fan, cycle, word):
    """The ray cycle is the fan's stored one, rotated, and the word its
    self-intersection profile, rotated alike."""
    start = cycle.index(fan.rays[0])
    assert tuple(cycle[start:] + cycle[:start]) == fan.rays
    assert tuple(word[start:] + word[:start]) == self_intersection_profile(fan)


class TestSplicedBlowups:
    """A blow-up splices each new ray between its two neighbours in the
    stored cycle; that must be the fan built afresh from the ray set."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_blowups_equal_the_sorted_build(self, seed):
        spliced = families.random_blowup_surface_fan(random.Random(seed), max_rays=12)
        assert spliced == random_blowup_by_sorting(random.Random(seed), max_rays=12)

    # At height 1 the root lattice has no allowed orbit to blow up.
    @pytest.mark.parametrize("kind, height, negation", smooth_census_params(range(2, 7)))
    def test_census_blowups_equal_the_sorted_build(self, kind, height, negation):
        lattice, orbit_list, cycles = blowup_generator(kind, height, negation)
        orbit_of = {v: orbit for orbit in orbit_list for v in orbit}
        blown_up = 0
        for cycle, a in cycles:
            d = len(cycle)
            for i in range(d):
                orbit = orbit_of.get(tuple(x + y for x, y in zip(cycle[i], cycle[(i + 1) % d])))
                if orbit is None:
                    continue
                assert set(orbit).isdisjoint(cycle)
                spliced, word = _splice(cycle, a, orbit)
                fan = build_surface_fan(lattice, cycle + list(orbit))
                assert_cycle_of(fan, spliced, word)
                blown_up += 1
        assert blown_up > 0

    @pytest.mark.parametrize("kind, height, negation", smooth_census_params(range(1, 7)))
    def test_each_word_is_the_self_intersection_profile(self, kind, height, negation):
        lattice, _, cycles = blowup_generator(kind, height, negation)
        assert cycles
        for cycle, a in cycles:
            assert_cycle_of(_cycle_fan(lattice, cycle), cycle, a)


class TestWordOnlyWhenRead:
    """The census leaves on each fan it returns the b its cycle was tested
    with, and no a: a fan's a is taken when its word is first read."""

    @pytest.mark.parametrize("smooth", [True, False], ids=["smooth", "all-unions"])
    def test_enumerate_takes_no_a_of_its_fans(self, smooth, monkeypatch):
        calls = []
        profile = fan_module._cycle_profile
        monkeypatch.setattr(fan_module, "_cycle_profile", lambda cycle: calls.append(cycle) or profile(cycle))
        fans = families.enumerate_invariant_fans(Lattice.weight_a2(), 3, 18, require_smooth=smooth)
        assert fans and calls == [] and all("word" not in vars(fan) for fan in fans)
        assert all(fan.word == (_cycle_dets(fan.rays), profile(fan.rays)) == fan.word for fan in fans)
        assert calls == [fan.rays for fan in fans]


class TestSmoothByConstruction:
    """The census generator validates only its seeds; every fan it yields
    must still validate smooth and complete."""

    @pytest.mark.parametrize("kind, height, negation", smooth_census_params(range(1, 6)))
    def test_every_yielded_fan_validates(self, kind, height, negation):
        lattice, _, cycles = blowup_generator(kind, height, negation)
        assert cycles
        for cycle, _ in cycles:
            report = validate_fan(build_surface_fan(lattice, cycle))
            assert report.smooth and report.complete, cycle

    @pytest.mark.parametrize("kind, height, negation", smooth_census_params(range(1, 5)))
    def test_every_smooth_union_is_reached_once(self, kind, height, negation):
        _, orbit_list, cycles = blowup_generator(kind, height, negation)
        reached = [frozenset(cycle) for cycle, _ in cycles]
        unions = families._orbit_unions(orbit_list, 6 * height)
        assert len(set(reached)) == len(reached)
        assert set(reached) == {frozenset(c) for c in unions if set(_cycle_dets(c)) == {1}}

    @pytest.mark.parametrize(
        "kind, height, negation, classes",
        [
            ("rootA2", 5, False, 16),
            ("rootA2", 5, True, 3),
            ("rootA2", 6, False, 25),
            ("rootA2", 6, True, 5),
            ("weightA2", 5, False, 14),
            ("weightA2", 5, True, 3),
            ("weightA2", 6, False, 35),
            ("weightA2", 6, True, 5),
        ],
    )
    def test_class_counts_at_heights_five_and_six(self, kind, height, negation, classes):
        fans = families.enumerate_invariant_fans(
            Lattice.from_label(kind), height, 6 * height, require_smooth=True, include_negation=negation
        )
        assert len(fans) == classes


def census_class_params():
    params = []
    for kind in ("rootA2", "weightA2"):
        for negation in (False, True):
            params += [pytest.param(kind, h, True, negation, id=f"{kind}-H{h}-smooth-neg{int(negation)}")
                       for h in range(1, 11)]
            params += [pytest.param(kind, h, False, negation, id=f"{kind}-H{h}-neg{int(negation)}")
                       for h in range(1, 5)]
    return params


class TestNegationClasses:
    """The census keeps one fan of each pair +-S: on every candidate the
    classes of that rule must be those of the word oracle, and with -1 in
    the group every candidate is its own negation."""

    @pytest.mark.parametrize("kind, height, smooth, negation", census_class_params())
    def test_the_negation_pairs_are_the_word_classes(self, kind, height, smooth, negation):
        lattice = Lattice.from_label(kind)
        orbit_list = families._seed_orbits(lattice, height, negation)
        if smooth:
            cycles = [cycle for cycle, _ in families._smooth_cycles(orbit_list, 6 * height)]
        else:
            cycles = list(families._orbit_unions(orbit_list, 6 * height))
        by_pair, by_word = {}, {}
        for n, cycle in enumerate(cycles):
            rays = _cycle_fan(lattice, list(cycle)).rays
            negated = _cycle_fan(lattice, [(-x, -y) for x, y in cycle]).rays
            assert negated == rays or not negation
            by_pair.setdefault(min(rays, negated), set()).add(n)
            by_word.setdefault(word_key_from_rays(rays), set()).add(n)
        assert sorted(map(sorted, by_pair.values())) == sorted(map(sorted, by_word.values()))
        fans = families.enumerate_invariant_fans(lattice, height, 6 * height, smooth, negation)
        assert [fan.rays for fan in fans] == sorted(by_pair, key=lambda r: (len(r), r))


class TestUsableOrbitsOnly:
    """An orbit of more than ``max_rays`` rays is in no union: it is neither
    counted nor sorted."""

    @pytest.mark.parametrize("smooth", [True, False])
    def test_only_the_rays_of_usable_orbits_are_sorted(self, smooth, monkeypatch):
        lattice = Lattice.weight_a2()
        orbit_list = families._seed_orbits(lattice, 6, False)
        orbit_size = {v: len(orbit) for orbit in orbit_list for v in orbit}
        assert set(orbit_size.values()) == {3, 6}
        sorted_rays = []
        ccw_sort = families._ccw_sort
        monkeypatch.setattr(families, "_ccw_sort", lambda rays: sorted_rays.append(rays) or ccw_sort(rays))
        fans = families.enumerate_invariant_fans(lattice, 6, 5, require_smooth=smooth)
        assert sorted_rays and all(orbit_size[v] == 3 for rays in sorted_rays for v in rays)
        assert fans == enumerate_by_pairwise_search(lattice, 6, 5, smooth, False)
