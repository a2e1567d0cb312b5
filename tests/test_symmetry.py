import itertools

import pytest

from toricsym import families
from toricsym.divisors import class_group
from toricsym.errors import PreconditionError
from toricsym.fan import Lattice, fan_isomorphism, make_fan
from toricsym.intlin import IntMatrix
from toricsym.symmetry import (
    GaloisDatum,
    _close_under_composition,
    _make_action,
    _perm_of,
    GaloisForm,
    action_from_generators,
    centralizer_in_GL,
    classify_galois_form,
    fan_automorphisms,
    fixed_space_dimension,
    invariant_picard_number,
    ray_orbits,
    trivial_action,
)

NEG_I = -IntMatrix.identity(2)
SWAP = IntMatrix.from_rows([(0, 1), (1, 0)])


class TestFanAutomorphisms:
    @pytest.mark.parametrize(
        "builder, expected",
        [
            (lambda: families.weil_restriction_p1()[0], 8),
            (lambda: families.dp6("n2"), 12),
            (lambda: families.projective_space(2), 6),
        ],
    )
    def test_orders(self, builder, expected):
        assert fan_automorphisms(builder()).order == expected

    def test_every_element_preserves_rays_and_cones(self, hexagon_n2):
        action = fan_automorphisms(hexagon_n2)
        cones = set(hexagon_n2.max_cones)
        for g, perm in zip(action.elements, action.ray_perms):
            assert sorted(perm) == list(range(6))
            for i, v in enumerate(hexagon_n2.rays):
                assert g.apply(v) == hexagon_n2.rays[perm[i]]
            for cone in cones:
                assert tuple(sorted(perm[i] for i in cone)) in cones

    def test_hirzebruch_automorphisms_are_small(self):
        # a != 0 kills the swap symmetry of the square
        assert fan_automorphisms(families.hirzebruch(2)).order == 2


def _product(*factors):
    """Product fan in the direct sum of the factors' standard lattices."""
    rank = sum(f.rank for f in factors)
    rays, cone_lists, shift = [], [], 0
    for f in factors:
        base = len(rays)
        rays += [(0,) * shift + v + (0,) * (rank - shift - f.rank) for v in f.rays]
        cone_lists.append([tuple(base + i for i in cone) for cone in f.max_cones])
        shift += f.rank
    cones = [sum(choice, ()) for choice in itertools.product(*cone_lists)]
    return make_fan(Lattice.standard(rank), rays, cones)


P1 = families.projective_space(1)


class TestAutomorphismSearchIsAGroup:
    """The search finds every automorphism, so it needs no closure step."""

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: families.dp6("n2"),
            lambda: families.projective_space(3),
            lambda: _product(P1, P1, P1),
            lambda: families.bundle_over_p1xp1(1),
        ],
        ids=["hexagon", "P3", "P1^3", "bundle-over-P1xP1"],
    )
    def test_agrees_with_the_closure_of_its_elements(self, builder):
        fan = builder()
        action = fan_automorphisms(fan)
        closed = _close_under_composition(fan, list(action.elements), cap=10_000)
        assert {g.entries for g in closed} == {g.entries for g in action.elements}
        assert _make_action(fan, closed) == action
        assert action.ray_perms == tuple(_perm_of(fan, g) for g in action.elements)

    @pytest.mark.parametrize(
        "builder, expected",
        [
            (lambda: families.projective_space(5), 720),
            (lambda: _product(P1, P1, P1, P1), 384),
            (lambda: _product(families.projective_space(4), P1), 240),
        ],
        ids=["P5", "P1^4", "P4xP1"],
    )
    def test_closed_form_orders(self, builder, expected):
        action = fan_automorphisms(builder())
        assert action.order == expected
        assert action.faithful_on_rays


class TestActionFromGenerators:
    def test_hexagon_coordinate_action_has_order_six(self, hexagon_n2):
        action = action_from_generators(hexagon_n2, list(hexagon_n2.lattice.s3_matrices()))
        assert action.order == 6
        assert action.faithful_on_rays

    def test_identity_generator_gives_trivial_group(self, p2_fan):
        action = action_from_generators(p2_fan, [IntMatrix.identity(2)])
        assert action.order == 1

    def test_adding_negation_doubles_the_hexagon_action(self, hexagon_n1):
        gens = list(hexagon_n1.lattice.s3_matrices()) + [NEG_I]
        action = action_from_generators(hexagon_n1, gens)
        assert action.order == 12
        for g in action.elements:
            assert (g @ NEG_I) == (NEG_I @ g)

    def test_non_preserving_generator_is_rejected(self, p2_fan):
        shear = IntMatrix.from_rows([(1, 1), (0, 1)])
        with pytest.raises(PreconditionError):
            action_from_generators(p2_fan, [shear])

    def test_closure_cap(self, p2_fan):
        with pytest.raises(PreconditionError):
            action_from_generators(
                p2_fan, list(families.standard_s3_action(p2_fan).elements), cap=2
            )

    def test_non_unimodular_generator_is_rejected(self, p2_fan):
        with pytest.raises(PreconditionError):
            action_from_generators(p2_fan, [IntMatrix.from_rows([(2, 0), (0, 1)])])


class TestRayOrbits:
    def test_two_triangles_in_the_weight_lattice(self, hexagon_n2):
        action = families.standard_s3_action(hexagon_n2)
        orbits = ray_orbits(action)
        assert sorted(len(o) for o in orbits) == [3, 3]

    def test_single_hexagon_orbit_in_the_root_lattice(self, hexagon_n1):
        action = families.standard_s3_action(hexagon_n1)
        assert [len(o) for o in ray_orbits(action)] == [6]

    def test_trivial_group_gives_singletons(self, p2_fan):
        assert ray_orbits(trivial_action(p2_fan)) == ((0,), (1,), (2,))

    def test_orbit_sizes_divide_group_order(self, hexagon_n1, hexagon_n2, square_fan):
        for fan in (hexagon_n1, hexagon_n2, square_fan):
            action = fan_automorphisms(fan)
            for orbit in ray_orbits(action):
                assert action.order % len(orbit) == 0


class TestInvariantPicardNumber:
    def test_hexagon_values(self, hexagon_n1, hexagon_n2):
        a1 = families.standard_s3_action(hexagon_n1)
        a2 = families.standard_s3_action(hexagon_n2)
        assert fixed_space_dimension(a1) == 0
        assert fixed_space_dimension(a2) == 0
        assert invariant_picard_number(hexagon_n1, a1) == 1
        assert invariant_picard_number(hexagon_n2, a2) == 2

    def test_triangle_with_trivial_group(self, p2_fan):
        assert invariant_picard_number(p2_fan, trivial_action(p2_fan)) == 1

    def test_trivial_group_recovers_class_group_rank(self):
        from toricsym.acceptance import named_family_corpus

        for name, fan in named_family_corpus():
            if fan.rank != 2:
                continue
            group, _ = class_group(fan)
            rho = invariant_picard_number(fan, trivial_action(fan))
            assert rho == group.free_rank == fan.ray_count - 2, name


class TestCentralizer:
    @pytest.mark.parametrize("kind", ["n1", "n2"])
    def test_coordinate_action_has_scalar_centralizer(self, kind):
        fan = families.dp6(kind)
        action = families.standard_s3_action(fan)
        got = centralizer_in_GL(action)
        assert {g.entries for g in got} == {
            IntMatrix.identity(2).entries,
            NEG_I.entries,
        }

    def test_rank_one_trivial_group(self):
        fan = families.projective_space(1)
        got = centralizer_in_GL(trivial_action(fan))
        assert {g.entries for g in got} == {((1,),), ((-1,),)}

    def test_large_commutant_is_reported_not_enumerated(self, p2_fan):
        with pytest.raises(PreconditionError) as err:
            centralizer_in_GL(trivial_action(p2_fan))
        assert err.value.reason == "commutant-too-large"

    def test_rank_bound(self):
        fan = families.weighted_p1111m(1)
        with pytest.raises(PreconditionError):
            centralizer_in_GL(trivial_action(fan))


class TestGaloisForms:
    def test_negation_twist(self, hexagon_n1):
        action = families.standard_s3_action(hexagon_n1)
        form = classify_galois_form(hexagon_n1, action, GaloisDatum(tau=NEG_I))
        assert form.label is GaloisForm.NEGATION_TWIST

    def test_factor_swap_on_the_square(self, square_fan):
        form = classify_galois_form(square_fan, trivial_action(square_fan), GaloisDatum(tau=SWAP))
        assert form.label is GaloisForm.FACTOR_SWAP

    def test_split(self, hexagon_n2):
        action = families.standard_s3_action(hexagon_n2)
        form = classify_galois_form(hexagon_n2, action, GaloisDatum(tau=IntMatrix.identity(2)))
        assert form.label is GaloisForm.SPLIT

    def test_other_label_keeps_the_matrix(self, square_fan):
        reflection = IntMatrix.from_rows([(1, 0), (0, -1)])
        form = classify_galois_form(square_fan, trivial_action(square_fan), GaloisDatum(tau=reflection))
        assert form.label is GaloisForm.OTHER
        assert form.tau == reflection

    def test_noncommuting_tau_cannot_descend(self, hexagon_n2):
        action = families.standard_s3_action(hexagon_n2)
        swap01 = hexagon_n2.lattice.s3_matrices()[0]
        with pytest.raises(PreconditionError) as err:
            classify_galois_form(hexagon_n2, action, GaloisDatum(tau=swap01))
        assert err.value.reason == "galois-noncommuting"

    def test_tau_must_be_an_involution(self):
        with pytest.raises(ValueError):
            GaloisDatum(tau=IntMatrix.from_rows([(0, -1), (1, -1)]))


def _subgroups_of_order(action, order):
    seen = set()
    elements = action.elements
    for pair in itertools.combinations(range(len(elements)), 2):
        gens = [elements[i] for i in pair]
        group = {IntMatrix.identity(action.fan.rank).entries}
        frontier = [IntMatrix.identity(action.fan.rank)]
        while frontier:
            current = frontier.pop()
            for g in gens:
                nxt = g @ current
                if nxt.entries not in group:
                    group.add(nxt.entries)
                    frontier.append(nxt)
        if len(group) == order:
            seen.add(frozenset(group))
    return seen


class TestFourRayObstruction:
    """No faithful order-6 subgroup can act on a 4-ray surface fan."""

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: families.weil_restriction_p1()[0],
            lambda: families.hirzebruch(1),
            lambda: families.hirzebruch(2),
        ],
    )
    def test_exhaust_subgroups(self, builder):
        fan = builder()
        assert fan.ray_count == 4
        action = fan_automorphisms(fan)
        # 4 is not divisible by 3: an order-6 subgroup would need a fixed
        # ray, hence a fixed vector, impossible for a faithful planar
        # order-6 action.  The automorphism group confirms: no order-6
        # subgroup exists, and every ray-fixing element has a fixed line.
        assert not _subgroups_of_order(action, 6)
        for g, perm in zip(action.elements, action.ray_perms):
            if any(perm[i] == i for i in range(4)):
                assert fixed_space_dimension(action_from_generators(fan, [g])) >= 1


class TestGroupClosureInvariants:
    def test_automorphism_group_is_closed_under_product_and_inverse(self, hexagon_n2):
        action = fan_automorphisms(hexagon_n2)
        table = {g.entries for g in action.elements}
        for g in action.elements:
            for h in action.elements:
                assert (g @ h).entries in table
            inverse = g.adjugate() if g.det() == 1 else -g.adjugate()
            assert inverse.entries in table

    def test_negation_extended_action_is_faithful_on_rays(self, hexagon_n1):
        action = families.standard_s3_action(hexagon_n1, include_negation=True)
        assert action.order == 12
        assert action.faithful_on_rays
