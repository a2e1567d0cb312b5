import functools
import gc
import itertools
import math
import operator
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from toricsym import divisors, families, intlin, mmp
from toricsym import fan as fan_module
from toricsym.errors import PreconditionError
from toricsym.fan import (
    Fan,
    Lattice,
    _cycle_dets,
    build_surface_fan,
    fan_isomorphism,
    make_fan,
    validate_fan,
)
from toricsym.intlin import IntMatrix
from toricsym.mmp import (
    DP6_TERMINAL,
    OTHER,
    P2,
    P1XP1,
    TerminalLabel,
    check_adjacent_minus_one_rule,
    contract,
    self_intersection_profile,
    terminal_counts,
    traces,
)
from toricsym.symmetry import action_from_generators, fan_automorphisms, invariant_picard_number, ray_orbits

from conftest import transform_fan, word_key_from_rays

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
try:
    import oracle  # contraction trees on self-intersection words, apart from toricsym
finally:
    sys.path.pop(0)


# Smooth weightA2 census fans (H = 6): 72 240 and about 1.04e9 explore-all
# traces under the identity, by the word oracle.
CENSUS_12_RAYS = [(-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -1), (1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1), (-1, 0)]
CENSUS_18_RAYS = [(-3, -2), (-1, -1), (-2, -3), (-1, -2), (0, -1), (1, -1), (2, -1), (1, 0), (3, 1)]
CENSUS_18_RAYS += [(2, 1), (1, 1), (1, 2), (1, 3), (0, 1), (-1, 2), (-1, 1), (-1, 0), (-2, -1)]
BLOWUP_11_RAYS = [(-1, -2), (0, -1), (1, -3), (2, -5), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (0, 1), (-1, -1)]


def label(fan):
    """The terminal label of a smooth complete surface fan, from its word."""
    return mmp._label(fan.word[1])


def trivial_action(fan):
    return action_from_generators(fan, [IntMatrix.identity(fan.rank)])


def blowup_p2_once(std2):
    return build_surface_fan(std2, [(1, 0), (1, 1), (0, 1), (-1, -1)])


def blowup_p2_twice(std2):
    return build_surface_fan(std2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)])


def census_cases(height=2):
    """Smooth census fans of both A2 lattices (M = 6H) with the S3 action
    they carry."""
    cases = []
    for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
        for negation in (False, True):
            for fan in families.enumerate_invariant_fans(
                lattice, height=height, max_rays=6 * height, require_smooth=True, include_negation=negation
            ):
                action = families.standard_s3_action(fan, include_negation=negation)
                name = f"{lattice.kind}-{fan.ray_count}-neg{int(negation)}"
                cases.append(pytest.param(fan, action, id=name))
    return cases


def census_cases_above(height, max_height):
    """The smooth census fans that heights ``height`` + 1 to ``max_height``
    add to ``census_cases(height)``, one per isomorphism class, with the S3
    action they carry."""
    cases = []
    for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
        for negation in (False, True):
            census = functools.partial(families.enumerate_invariant_fans, lattice, require_smooth=True, include_negation=negation)
            seen = {word_key_from_rays(fan.rays) for fan in census(height=height, max_rays=6 * height)}
            for h in range(height + 1, max_height + 1):
                for k, fan in enumerate(census(height=h, max_rays=6 * h)):
                    if word_key_from_rays(fan.rays) not in seen:
                        seen.add(word_key_from_rays(fan.rays))
                        action = families.standard_s3_action(fan, include_negation=negation)
                        name = f"H{h}-{lattice.kind}-{fan.ray_count}-{k}-neg{int(negation)}"
                        cases.append(pytest.param(fan, action, id=name))
    return cases


def census_cases_up_to(max_height):
    return [
        pytest.param(*case.values, id=f"H{height}-{case.id}")
        for height in range(1, max_height + 1)
        for case in census_cases(height)
    ]


def random_blowup_cases(count=24):
    cases = []
    for seed in range(count):
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=9)
        cases.append(pytest.param(fan, trivial_action(fan), id=f"blowup-seed{seed}"))
    return cases


def _step(fan, orbit):
    return fan.rays, orbit


def automorphism_blowup_cases(count=12):
    """Seeded blow-ups under their full automorphism groups, so that orbits
    have more than one ray."""
    cases = []
    for seed in range(count):
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=9)
        cases.append(pytest.param(fan, fan_automorphisms(fan), id=f"blowup-aut-seed{seed}"))
    return cases


def _restrict(action, fan):
    return action_from_generators(fan, list(action.elements))


def contractible_by_reference(fan, action):
    """The orbits of ``action`` whose rays are all (-1)-rays of the divided
    word, no two cyclically adjacent, ordered by their least ray vector."""
    word, d = profile_by_division(fan), fan.ray_count
    orbits = [
        orbit
        for orbit in ray_orbits(action)
        if all(word[i] == 1 for i in orbit)
        and not any((i - j) % d in (1, d - 1) for i, j in itertools.combinations(orbit, 2))
    ]
    return sorted(orbits, key=lambda orbit: min(fan.rays[i] for i in orbit))


def contract_by_rebuilding(fan, orbit):
    """The fan on the rays outside ``orbit``, sorted and checked afresh."""
    return build_surface_fan(fan.lattice, [v for i, v in enumerate(fan.rays) if i not in orbit])


def explore_all_by_recursion(fan, action):
    """Explore-all walked path by path, each fan rebuilt from its kept rays
    and tested with the reference contractibility test, with no sharing
    between paths that meet at the same fan."""
    traces = []

    def walk(current, current_action, steps):
        orbits = contractible_by_reference(current, current_action)
        if not orbits:
            traces.append((steps, current.rays, label(current)))
            return
        for orbit in orbits:
            nxt = contract_by_rebuilding(current, orbit)
            walk(nxt, _restrict(current_action, nxt), steps + (_step(current, orbit),))

    walk(fan, action, ())
    return tuple(traces)


def first_orbit_by_public_steps(fan, action):
    steps = []
    while orbits := contractible_by_reference(fan, action):
        steps.append(_step(fan, orbits[0]))
        fan = contract_by_rebuilding(fan, orbits[0])
        action = _restrict(action, fan)
    return tuple(steps), fan.rays, label(fan)


def hexagon_with_corners(kind):
    hexagon = families.dp6(kind)
    d = hexagon.ray_count
    corners = [
        tuple(a + b for a, b in zip(hexagon.rays[i], hexagon.rays[(i + 1) % d]))
        for i in range(d)
    ]
    return build_surface_fan(hexagon.lattice, list(hexagon.rays) + corners)


def profile_by_division(fan):
    """The a_i of v_{i-1} + v_{i+1} = a_i v_i, found by dividing the neighbor
    sum by the ray and checking that the quotient reproduces the sum."""
    d = fan.ray_count
    coefficients = []
    for i in range(d):
        v = fan.rays[i]
        total = tuple(p + q for p, q in zip(fan.rays[(i - 1) % d], fan.rays[(i + 1) % d]))
        pivot = 0 if v[0] != 0 else 1
        assert total[pivot] % v[pivot] == 0, (fan.rays, i)
        a = total[pivot] // v[pivot]
        assert tuple(a * x for x in v) == total, (fan.rays, i)
        coefficients.append(a)
    return tuple(coefficients)


class TestSelfIntersectionProfile:
    def test_triangle_is_all_plus_one_curves(self, p2_fan):
        profile = self_intersection_profile(p2_fan)
        assert profile == (-1, -1, -1)
        assert tuple(-a for a in profile) == (1, 1, 1)

    def test_hexagon_is_all_minus_one_curves(self, hexagon_n2):
        assert self_intersection_profile(hexagon_n2) == (1,) * 6

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_ruled_surface_profile(self, a):
        profile = self_intersection_profile(families.hirzebruch(a))
        assert profile == (0, -a, 0, a)

    @pytest.mark.parametrize("order", ["reversed", "each pair (i + 1, i)"])
    def test_cycle_cones_in_another_order(self, order):
        # The cones are F1's four adjacent pairs, in another order or each written backwards.
        f1 = families.hirzebruch(1)
        cones = f1.max_cones[::-1] if order == "reversed" else tuple(cone[::-1] for cone in f1.max_cones)
        assert self_intersection_profile(Fan(f1.lattice, f1.rays, cones)) == (0, -1, 0, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 14))
    def test_defining_relation_holds_per_ray(self, seed, max_rays):
        """The profile, read as det(v_{i-1}, v_{i+1}), is the word that the
        neighbor-sum division gives."""
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=max_rays)
        assert self_intersection_profile(fan) == profile_by_division(fan)

    @pytest.mark.parametrize("fan,action", census_cases_up_to(5))
    def test_defining_relation_holds_on_the_census(self, fan, action):
        assert self_intersection_profile(fan) == profile_by_division(fan)

    def test_singular_input_is_rejected(self):
        with pytest.raises(PreconditionError) as info:
            self_intersection_profile(families.singular_hexagon())
        assert info.value.reason == "not-smooth"
        assert str(info.value) == "the self-intersection profile needs a smooth fan"

    def test_non_surface_input_is_rejected(self):
        with pytest.raises(PreconditionError) as info:
            self_intersection_profile(families.projective_space(3))
        assert info.value.reason == "rank"
        assert str(info.value) == "the self-intersection profile needs a surface fan (rank 2)"


def explore_all(fan, action):
    """Every contraction trace, as (steps, terminal cycle, label)."""
    return tuple(traces(contract(fan, action, first_only=False)))


def first_orbit(fan, action):
    """The one trace that contracts the orbit of the least ray each time."""
    (trace,) = traces(contract(fan, action, first_only=True))
    return trace


def fan_of(lattice, cycle):
    """The fan on a ray cycle of the contraction graph, with its cones."""
    return Fan(lattice, cycle, fan_module._cycle_cones(len(cycle)))


def orbit_rays(step):
    cycle, orbit = step
    return tuple(cycle[i] for i in orbit)


class TestContractibleOrbits:
    """Which orbits the loop contracts, read off its traces' first steps."""

    def test_two_orbits_for_the_weight_lattice_action(self, hexagon_n2):
        traces = explore_all(hexagon_n2, families.standard_s3_action(hexagon_n2))
        assert len(traces) == 2
        assert sorted(len(steps[0][1]) for steps, _, _ in traces) == [3, 3]

    def test_single_orbit_action_cannot_contract(self, hexagon_n1):
        traces = explore_all(hexagon_n1, families.standard_s3_action(hexagon_n1))
        assert [steps for steps, _, _ in traces] == [()]

    def test_triangle_has_nothing_to_contract(self, p2_fan):
        assert explore_all(p2_fan, trivial_action(p2_fan)) == (((), p2_fan.rays, P2),)


def fan_after_first_step(lattice, trace):
    steps, terminal, _ = trace
    return fan_of(lattice, steps[1][0] if len(steps) > 1 else terminal)


class TestContractOrbit:
    """What the loop's contractions give, read off its traces."""

    def test_contract_one_triangle_orbit_of_the_hexagon(self, hexagon_n2, p2_fan):
        target = {(1, 1), (-1, 0), (0, -1)}
        traces = explore_all(hexagon_n2, families.standard_s3_action(hexagon_n2))
        trace = next(t for t in traces if set(orbit_rays(t[0][0])) == target)
        assert fan_isomorphism(fan_after_first_step(hexagon_n2.lattice, trace), p2_fan) is not None

    def test_contract_corner_ring_back_to_the_hexagon(self):
        fan = hexagon_with_corners("n1")
        assert fan.ray_count == 12
        (trace,) = explore_all(fan, families.standard_s3_action(fan, include_negation=True))
        assert len(trace[0][0][1]) == 6
        assert fan_after_first_step(fan.lattice, trace) == families.dp6("n1")

    def test_undo_a_single_blowup(self, std2, p2_fan):
        fan = blowup_p2_once(std2)
        steps, terminal, _ = first_orbit(fan, trivial_action(fan))
        assert steps == (_step(fan, (fan.ray_index((1, 1)),)),)
        assert terminal == p2_fan.rays

    def test_adjacent_orbit_is_rejected(self, hexagon_n1):
        # One orbit of six (-1)-rays, each adjacent to two others.
        action = families.standard_s3_action(hexagon_n1)
        assert ray_orbits(action) == (tuple(range(6)),)
        assert self_intersection_profile(hexagon_n1) == (1,) * 6
        assert explore_all(hexagon_n1, action) == (((), hexagon_n1.rays, DP6_TERMINAL),)

    def test_orbit_adjacent_across_the_cycle_end_is_rejected(self, std2):
        # The reflection swapping (1, 0) and (1, 1) pairs the stored first
        # and last rays, (-1, -1) and (-1, 0): three orbits of two (-1)-rays,
        # of which only {(0, -1), (0, 1)} is not adjacent.
        fan = build_surface_fan(std2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
        action = action_from_generators(fan, [IntMatrix.from_columns([(1, 1), (0, -1)])])
        assert ray_orbits(action) == ((0, 5), (1, 4), (2, 3))
        ((steps, _, label),) = explore_all(fan, action)
        assert [orbit for _, orbit in steps] == [(1, 4)]
        assert label == P1XP1

    def test_non_minus_one_ray_is_rejected(self, p2_fan):
        # Single-ray orbits, none of them a (-1)-ray.
        action = trivial_action(p2_fan)
        assert ray_orbits(action) == ((0,), (1,), (2,))
        assert self_intersection_profile(p2_fan) == (-1, -1, -1)
        assert explore_all(p2_fan, action) == (((), p2_fan.rays, P2),)


class TestDriver:
    def test_two_orbit_hexagon_reaches_the_triangle(self, hexagon_n2):
        action = families.standard_s3_action(hexagon_n2)
        steps, _, label = first_orbit(hexagon_n2, action)
        assert label == P2
        assert len(steps) == 1
        assert steps[0][0] == hexagon_n2.rays

    def test_one_orbit_hexagon_is_terminal(self, hexagon_n1):
        action = families.standard_s3_action(hexagon_n1)
        steps, _, label = first_orbit(hexagon_n1, action)
        assert label == DP6_TERMINAL
        assert steps == ()

    def test_negation_twist_on_the_two_orbit_hexagon_is_terminal(self, hexagon_n2):
        action = families.standard_s3_action(hexagon_n2, include_negation=True)
        steps, _, label = first_orbit(hexagon_n2, action)
        assert label == DP6_TERMINAL
        assert steps == ()

    def test_explore_all_branches_agree_on_the_hexagon(self, hexagon_n2):
        action = families.standard_s3_action(hexagon_n2)
        traces = explore_all(hexagon_n2, action)
        assert len(traces) == 2
        assert all(label == P2 and len(steps) == 1 for steps, _, label in traces)

    def test_trace_invariants_along_a_tower(self):
        fan = hexagon_with_corners("n2")
        action = families.standard_s3_action(fan)
        for steps, terminal, label in explore_all(fan, action):
            counts = [len(cycle) for cycle, _ in steps] + [len(terminal)]
            assert counts == sorted(counts, reverse=True)
            assert len(set(counts)) == len(counts)
            for cycle, _ in steps:
                report = validate_fan(fan_of(fan.lattice, cycle))
                assert report.smooth and report.complete
                action_from_generators(fan_of(fan.lattice, cycle), list(fan.lattice.s3_matrices()))
            assert label == P2

    def test_terminal_invariant_picard_number_is_one_or_two(self, hexagon_n1, hexagon_n2):
        for fan, neg in ((hexagon_n1, False), (hexagon_n2, False), (hexagon_n1, True)):
            action = families.standard_s3_action(fan, include_negation=neg)
            _, terminal, _ = first_orbit(fan, action)
            terminal_action = families.standard_s3_action(fan_of(fan.lattice, terminal), include_negation=neg)
            assert invariant_picard_number(terminal_action) in (1, 2)

    def test_explore_all_refuses_past_the_trace_bound(self):
        # About 1.04e9 contraction paths under the identity: refused as soon
        # as the traces below one fan pass MAX_TRACES, while first-orbit
        # follows one path.
        fan = build_surface_fan(Lattice.weight_a2(), CENSUS_18_RAYS)
        with pytest.raises(PreconditionError) as err:
            contract(fan, trivial_action(fan), first_only=False)
        assert err.value.reason == "too-many-branches"
        assert first_orbit(fan, trivial_action(fan))[2] == TerminalLabel("Hirzebruch", 3)

    def test_the_trace_bound_admits_the_12_ray_census_fan(self):
        fan = build_surface_fan(Lattice.weight_a2(), CENSUS_12_RAYS)
        assert len(explore_all(fan, trivial_action(fan))) == 72240 <= mmp.MAX_TRACES

    @pytest.mark.parametrize("bound", [1007, 1008])
    def test_the_bound_counts_traces(self, std2, bound, monkeypatch):
        # The 11-ray blow-up of P2 has 1 008 traces under the identity.
        monkeypatch.setattr(mmp, "MAX_TRACES", bound)
        fan = build_surface_fan(std2, BLOWUP_11_RAYS)
        if bound < 1008:
            with pytest.raises(PreconditionError) as err:
                contract(fan, trivial_action(fan), first_only=False)
            assert err.value.reason == "too-many-branches"
        else:
            assert len(explore_all(fan, trivial_action(fan))) == 1008

    def test_driver_requires_smooth_input(self):
        fan = families.singular_hexagon()
        action = families.standard_s3_action(fan)
        with pytest.raises(PreconditionError):
            contract(fan, action, first_only=True)


class TestContractionGraph:
    """Explore-all counts the paths of one contraction graph per call, then
    walks it once."""

    def test_a_call_leaves_nothing_for_the_cyclic_collector(self):
        # A memo kept alive by a self-referencing nested function would
        # stay until the collector ran.
        fan = hexagon_with_corners("n2")
        action = families.standard_s3_action(fan)
        gc.collect()
        gc.disable()
        try:
            assert len(explore_all(fan, action)) == 2
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_the_18_ray_refusal_stays_small(self):
        # About 1.04e9 paths through 2 233 distinct fans: refused from the
        # counts, with no trace list built.
        fan = build_surface_fan(Lattice.weight_a2(), CENSUS_18_RAYS)
        action = trivial_action(fan)
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError) as err:
                contract(fan, action, first_only=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.reason == "too-many-branches"
        assert str(err.value) == f"explore-all has more than {mmp.MAX_TRACES} traces"
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("fan,action", random_blowup_cases() + automorphism_blowup_cases())
    def test_each_fan_below_the_root_is_blown_down_once(self, fan, action, monkeypatch):
        # Nodes are keyed by the root orbits that remain, so an edge to a fan
        # already built finds it without blowing down again.
        calls = []
        blow_down = mmp._blow_down
        monkeypatch.setattr(mmp, "_blow_down", lambda *args: calls.append(args) or blow_down(*args))
        root = contract(fan, action, first_only=False)
        nodes, stack = {id(root): root}, [root]
        while stack:
            _, _, below = stack.pop()
            if not isinstance(below, TerminalLabel):
                for _, child in below:
                    if id(child) not in nodes:
                        nodes[id(child)] = child
                        stack.append(child)
        assert len(calls) == len(nodes) - 1
        assert len({node[1] for node in nodes.values()}) == len(nodes)

    def test_traces_through_one_edge_share_its_step_tuple(self, std2):
        fan = build_surface_fan(std2, BLOWUP_11_RAYS)
        steps = [step for trace_steps, _, _ in explore_all(fan, trivial_action(fan)) for step in trace_steps]
        assert len({id(step) for step in steps}) == len(set(steps)) < len(steps)

    @pytest.mark.parametrize("fan,action", random_blowup_cases() + automorphism_blowup_cases())
    def test_terminal_counts_are_the_branches_per_terminal(self, fan, action):
        counts = terminal_counts(contract(fan, action, first_only=False))
        assert counts == Counter((terminal, label) for _, terminal, label in explore_all(fan, action))

    @pytest.mark.parametrize("fan,action", random_blowup_cases() + automorphism_blowup_cases())
    def test_the_root_counts_the_traces(self, fan, action):
        root = contract(fan, action, first_only=False)
        assert root[0] == len(list(traces(root))) == sum(terminal_counts(root).values())
        assert contract(fan, action, first_only=True)[0] == 1


CENSUS_CASES_TO_H4 = census_cases() + census_cases_above(2, 4)


class TestAgainstThePublicSteps:
    """The driver shares the subtrees of fans that several contraction
    orders reach and carries each fan's word down the graph; walking every
    path with each fan rebuilt from its kept rays, and the reference
    contractibility test, must give the same traces in the same order."""

    @pytest.mark.parametrize("fan,action", random_blowup_cases() + automorphism_blowup_cases() + CENSUS_CASES_TO_H4)
    def test_explore_all_equals_the_path_by_path_walk(self, fan, action):
        assert explore_all(fan, action) == explore_all_by_recursion(fan, action)

    @pytest.mark.parametrize("fan,action", random_blowup_cases() + automorphism_blowup_cases() + CENSUS_CASES_TO_H4)
    def test_first_orbit_equals_the_public_steps(self, fan, action):
        assert first_orbit(fan, action) == first_orbit_by_public_steps(fan, action)

    def test_branches_that_meet_again(self, std2):
        # Two disjoint (-1)-rays contract in either order onto the same fan.
        fan = build_surface_fan(std2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
        traces = explore_all(fan, trivial_action(fan))
        assert traces == explore_all_by_recursion(fan, trivial_action(fan))
        assert len(traces) > len({terminal for _, terminal, _ in traces})


def census_oracle_cases(max_height):
    """Smooth census fans with their lattice kind and negation flag, the
    oracle's description of the S3 action they carry."""
    cases = []
    for height in range(1, max_height + 1):
        for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
            for negation in (False, True):
                fans = families.enumerate_invariant_fans(
                    lattice, height=height, max_rays=6 * height, require_smooth=True, include_negation=negation
                )
                cases.extend(
                    pytest.param(fan, negation, id=f"H{height}-{lattice.kind}-{fan.ray_count}-{k}-neg{int(negation)}")
                    for k, fan in enumerate(fans)
                )
    return cases


def branch_labels(traces):
    return Counter(str(label) for _, _, label in traces)


class TestAgainstTheWordOracle:
    """Explore-all's branch labels, with multiplicity, against the oracle's
    contraction trees on self-intersection words (no toricsym code)."""

    @pytest.mark.parametrize("fan,action", random_blowup_cases())
    def test_trivial_action_on_seeded_blowups(self, fan, action):
        labels, _ = oracle.explore_all_trivial(oracle.surface_sequence(fan.rays))
        assert branch_labels(explore_all(fan, action)) == labels

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 10))
    def test_trivial_action_on_random_blowups(self, seed, max_rays):
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=max_rays)
        labels, _ = oracle.explore_all_trivial(oracle.surface_sequence(fan.rays))
        assert branch_labels(explore_all(fan, trivial_action(fan))) == labels

    @pytest.mark.parametrize("fan,negation", census_oracle_cases(4))
    def test_s3_action_on_the_census(self, fan, negation):
        action = families.standard_s3_action(fan, include_negation=negation)
        labels = oracle.explore_all_s3(fan.lattice.kind, fan.rays, negation)
        assert branch_labels(explore_all(fan, action)) == labels


def reached_fans(fan, action):
    """Every fan that explore-all reaches from the root, the root included."""
    cycles = {cycle for steps, terminal, _ in explore_all(fan, action) for cycle in [c for c, _ in steps] + [terminal]}
    return {fan_of(fan.lattice, cycle) for cycle in cycles}


class TestCertifiedContractions:
    """A contraction checks only the cones it creates; on every fan the
    contraction loop reaches, the full validation must agree."""

    @pytest.mark.parametrize("fan,action", random_blowup_cases() + census_cases_up_to(5))
    def test_every_reached_fan_validates(self, fan, action):
        for reached in reached_fans(fan, action):
            report = validate_fan(reached)
            assert report.smooth and report.complete, reached.rays

    @pytest.mark.parametrize("mode", ["first-orbit", "explore-all"])
    def test_a_singular_input_is_refused_on_entry(self, mode):
        fan = families.singular_hexagon()
        with pytest.raises(PreconditionError) as info:
            contract(fan, families.standard_s3_action(fan), first_only=mode == "first-orbit")
        assert info.value.reason == "not-smooth"
        with pytest.raises(PreconditionError) as info:
            self_intersection_profile(fan)
        assert info.value.reason == "not-smooth"


def entry_verdict(fan):
    """What the contraction loop's entry check says of a fan."""
    try:
        self_intersection_profile(fan)
    except PreconditionError as exc:
        return exc.reason
    return "accept"


def validation_verdict(fan):
    """The verdict implied by ``validate_fan``'s per-cone Smith forms, or
    the reason it refuses the fan."""
    try:
        report = validate_fan(fan)
    except PreconditionError as exc:
        return exc.reason
    return "incomplete" if not report.complete else "not-smooth" if not report.smooth else "accept"


def hand_built(lattice, rays):
    """A Fan on the rays in the given order, with the cones of that cycle,
    built with no check at all."""
    d = len(rays)
    return Fan(lattice, tuple(rays), tuple(sorted({tuple(sorted({i, (i + 1) % d})) for i in range(d)})))


CENSUS_FANS = [case.values[0] for case in census_cases_up_to(3)]
PRIMITIVE = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: math.gcd(*v) == 1)
ELEMENTARY = [IntMatrix.from_rows(rows) for rows in (((1, 1), (0, 1)), ((1, 0), (-1, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)))]
GL2 = st.lists(st.sampled_from(ELEMENTARY), max_size=6).map(
    lambda factors: functools.reduce(operator.matmul, factors, IntMatrix.identity(2))
)


@st.composite
def surface_fans(draw):
    """A complete surface fan, smooth or singular: built from random
    primitive rays, a random blow-up or a census fan."""
    source = draw(st.sampled_from(["rays", "blowup", "census"]))
    if source == "census":
        return draw(st.sampled_from(CENSUS_FANS))
    if source == "blowup":
        return families.random_blowup_surface_fan(random.Random(draw(st.integers(0, 10**6))), max_rays=10)
    rays = draw(st.lists(PRIMITIVE, min_size=3, max_size=8, unique=True))
    try:
        return build_surface_fan(Lattice.standard(2), rays)
    except PreconditionError:
        reject()


@st.composite
def entry_cases(draw):
    """Surface fans, their GL2(Z) images (rebuilt, or with the rays moved
    in place, which reverses the cycle when det g = -1), reorderings of
    their rays, cycles of fewer than 3 rays, and the stored cycle with a
    sorted subset of its cones or with all of them shuffled, each pair in
    either order."""
    fan, g = draw(surface_fans()), draw(GL2)
    how = draw(st.sampled_from(["fan", "image", "moved", "reordered", "few", "cones", "shuffled"]))
    if how == "cones":
        return Fan(fan.lattice, fan.rays, tuple(sorted(draw(st.sets(st.sampled_from(fan.max_cones))))))
    if how == "shuffled":
        flips = draw(st.lists(st.booleans(), min_size=fan.ray_count, max_size=fan.ray_count))
        cones = [cone[::-1] if flip else cone for cone, flip in zip(fan.max_cones, flips)]
        return Fan(fan.lattice, fan.rays, tuple(draw(st.permutations(cones))))
    if how == "image":
        return transform_fan(g, fan)
    if how == "moved":
        return hand_built(fan.lattice, [g.apply(v) for v in fan.rays])
    if how == "reordered":
        return hand_built(fan.lattice, draw(st.permutations(fan.rays)))
    if how == "few":
        return hand_built(fan.lattice, fan.rays[: draw(st.integers(0, 2))])
    return fan


class TestEntryCheck:
    """The contraction loop checks its input on the stored ray cycle alone;
    ``validate_fan``, which takes a Smith form per cone, is the oracle."""

    @settings(max_examples=400, deadline=None)
    @given(entry_cases())
    def test_verdict_matches_the_validation(self, fan):
        assert entry_verdict(fan) == validation_verdict(fan), fan

    @pytest.mark.parametrize(
        "rays,verdict",
        [
            ([(1, 0), (0, 1), (-1, -1)], "accept"),
            ([(1, 0), (-1, -1), (0, 1)], "incomplete"),
            ([(1, 0), (-1, 0)], "incomplete"),
            ([(1, 0)], "incomplete"),
            ([], "incomplete"),
            ([(1, 0), (1, 2), (-1, -1)], "not-smooth"),
            ([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)], "incomplete"),
            # Every b_i = 1, but the cycle goes round the origin twice or three times.
            ([(1, 0), (-2, 1), (1, -1), (-1, 2), (0, -1)], "overlapping-cones"),
            ([(1, 0), (-1, 1), (0, -1), (1, 1), (-1, 0), (1, -1), (0, 1), (-1, -1)], "overlapping-cones"),
            ([(1, 0), (-2, 1), (-1, 0), (0, -1), (1, -2), (0, 1), (-1, -2), (1, 1), (-2, -1)], "overlapping-cones"),
        ],
    )
    def test_hand_built_cycles(self, rays, verdict):
        fan = hand_built(Lattice.standard(2), rays)
        assert entry_verdict(fan) == validation_verdict(fan) == verdict


# What each entry point says it needs, by the fault it finds.
NEEDS = {
    "rank": "needs a surface fan (rank 2)",
    "incomplete": "needs a complete fan",
    "overlapping-cones": "needs a ray cycle that winds once round the origin",
    "not-smooth": "needs a smooth fan",
}


@st.composite
def faulty_fans(draw):
    """A fault and a Fan built directly, with no check, that has it: a
    smooth cycle, from any ray, reversed, cut to fewer than 3 rays or with
    some of its cones left out (incomplete), gone round 2 or 3 times
    (overlapping), with 2 v_i + v_{i+1} put in after v_i (not smooth), or a
    rank-3 fan."""
    fault = draw(st.sampled_from(sorted(NEEDS)))
    if fault == "rank":
        p3 = families.projective_space(3)
        return fault, Fan(p3.lattice, p3.rays, p3.max_cones)
    fan = families.random_blowup_surface_fan(random.Random(draw(st.integers(0, 10**6))), max_rays=10)
    s = draw(st.integers(0, fan.ray_count - 1))
    cycle = fan.rays[s:] + fan.rays[:s]
    if fault == "incomplete":
        how = draw(st.sampled_from(["reversed", "cut", "cones"]))
        if how == "cones":
            cones = hand_built(fan.lattice, cycle).max_cones
            return fault, Fan(fan.lattice, cycle, cones[: draw(st.integers(0, len(cones) - 1))])
        cycle = cycle[::-1] if how == "reversed" else cycle[: draw(st.integers(0, 2))]
    elif fault == "overlapping-cones":
        cycle *= draw(st.integers(2, 3))
    else:
        v, w = cycle[0], cycle[1]
        cycle = (v, (2 * v[0] + w[0], 2 * v[1] + w[1])) + cycle[1:]
    return fault, hand_built(fan.lattice, cycle)


class TestDirectlyBuiltFans:
    """A Fan built directly has a word no constructor tested: each entry
    point still refuses it with the fault's reason and message."""

    @settings(max_examples=200, deadline=None)
    @given(faulty_fans())
    def test_each_fault_is_refused(self, case):
        fault, fan = case
        calls = [
            ("the equivariant contraction loop", lambda: contract(fan, None, first_only=False)),
            ("the self-intersection profile", lambda: self_intersection_profile(fan)),
            ("the self-intersection profile", lambda: check_adjacent_minus_one_rule(fan)),
        ]
        for who, call in calls:
            with pytest.raises(PreconditionError) as info:
                call()
            assert (info.value.reason, str(info.value)) == (fault, f"{who} {NEEDS[fault]}")


class TestNoCycleRetest:
    """A fan from ``make_fan`` or ``build_surface_fan`` carries the b its
    cycle was tested with, so the contraction loop tests it no more."""

    @pytest.mark.parametrize("fan,action", random_blowup_cases(8) + census_cases())
    def test_contraction_loop(self, fan, action, monkeypatch):
        for built in (fan, build_surface_fan(fan.lattice, fan.rays), make_fan(fan.lattice, fan.rays, fan.max_cones)):
            built_action = action_from_generators(built, list(action.elements))
            calls = []
            with monkeypatch.context() as patch:
                for name in ("_cycle_dets", "_cycle_winds_once"):
                    original = getattr(fan_module, name)
                    patch.setattr(fan_module, name, lambda cycle, original=original: calls.append(cycle) or original(cycle))
                contract(built, built_action, first_only=False)
                contract(built, built_action, first_only=True)
                check_adjacent_minus_one_rule(built)
            assert calls == []

    def test_the_count_sees_a_directly_built_fan(self, monkeypatch):
        fan = families.hirzebruch(1)
        calls = []
        monkeypatch.setattr(fan_module, "_cycle_dets", lambda cycle: calls.append(cycle) or _cycle_dets(cycle))
        contract(hand_built(fan.lattice, fan.rays), trivial_action(fan), first_only=True)
        assert calls == [fan.rays]


@pytest.fixture
def smith_form_calls(monkeypatch):
    """Every Smith normal form taken while the test runs."""
    calls = []
    for module in (intlin, fan_module, divisors):
        original = module.smith_normal_form
        monkeypatch.setattr(module, "smith_normal_form", lambda a, original=original: calls.append(a) or original(a))
    return calls


class TestNoSmithForms:
    """The contraction loop and the smooth census decide smoothness on the
    ray cycle, with no Smith normal form."""

    def test_the_count_sees_validation(self, smith_form_calls):
        validate_fan(families.dp6("n1"))
        assert len(smith_form_calls) == 6

    @pytest.mark.parametrize("fan,action", census_cases_up_to(3))
    def test_contraction_loop(self, fan, action, smith_form_calls):
        first_orbit(fan, action)
        explore_all(fan, action)
        assert smith_form_calls == []

    @pytest.mark.parametrize("negation", [False, True])
    @pytest.mark.parametrize("lattice", [Lattice.root_a2(), Lattice.weight_a2()], ids=["rootA2", "weightA2"])
    def test_smooth_census(self, lattice, negation, smith_form_calls):
        fans = families.enumerate_invariant_fans(lattice, 4, 24, require_smooth=True, include_negation=negation)
        assert fans
        assert smith_form_calls == []


class TestBlowDown:
    """Contracting an orbit on the cycle word gives the cycle and word of
    the fan built afresh from the kept rays, and carries each kept ray's
    number (here its index in the root) along with it."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.booleans(), st.integers(0, 100))
    # Seed 12 under its automorphisms contracts rays 0, 2, 4, 6 of 8: rays
    # 1, 3, 5, 7 lose both neighbours, and the least ray goes.  Seed 3 under
    # its automorphisms contracts rays 2, 4 of 5; seed 5 contracts ray 0 of
    # 10, after which the least ray is not the next one.
    @example(12, True, 0)
    @example(3, True, 0)
    @example(5, False, 0)
    def test_equals_the_fan_built_from_the_kept_rays(self, seed, full_group, k):
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=10)
        orbits = contractible_by_reference(fan, fan_automorphisms(fan) if full_group else trivial_action(fan))
        if not orbits:
            reject()
        orbit = orbits[k % len(orbits)]
        kept = contract_by_rebuilding(fan, orbit)
        assert mmp._blow_down(fan.rays, self_intersection_profile(fan), tuple(range(fan.ray_count)), orbit) == (
            kept.rays,
            self_intersection_profile(kept),
            tuple(map(fan.rays.index, kept.rays)),
        )


def blowup_once(fan, i):
    """The fan with the sum of rays i and i+1 added: a single blow-up."""
    d = fan.ray_count
    new_ray = tuple(a + b for a, b in zip(fan.rays[i], fan.rays[(i + 1) % d]))
    return build_surface_fan(fan.lattice, list(fan.rays) + [new_ray]), new_ray


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_noether_formula_along_every_trace(self, seed):
        # Sum of D_i^2 over the boundary divisors is K^2 - d = 12 - 3d.
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=8)
        for steps, terminal, _ in explore_all(fan, trivial_action(fan)):
            for cycle in [c for c, _ in steps] + [terminal]:
                assert -sum(self_intersection_profile(fan_of(fan.lattice, cycle))) == 12 - 3 * len(cycle)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_contracting_a_single_blowup_gives_back_the_fan(self, seed, data):
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=9)
        i = data.draw(st.integers(0, fan.ray_count - 1))
        blown_up, new_ray = blowup_once(fan, i)
        k = blown_up.ray_index(new_ray)
        assert -self_intersection_profile(blown_up)[k] == -1
        after = {t[0][0][1]: fan_after_first_step(fan.lattice, t) for t in explore_all(blown_up, trivial_action(blown_up))}
        assert after[(k,)] == fan


# The word keys of F_a for 0 <= a <= 20.  A 4-ray fan with rays in the
# box [-3, 3]^2 has every |det(v_{i-1}, v_{i+1})| <= 18, so no F_a with a
# larger a is among the fans labelled below.
HIRZEBRUCH_KEYS = {word_key_from_rays([(1, 0), (0, 1), (-1, a), (0, -1)]): a for a in range(21)}


def label_by_word_key(fan):
    """P1xP1 or F_a by looking the word key of a 4-ray fan up among those
    of the models it can be: every smooth complete 4-ray fan is some F_a."""
    a = HIRZEBRUCH_KEYS.get(word_key_from_rays(fan.rays))
    if a is None:
        return OTHER
    return TerminalLabel("Hirzebruch", a) if a else P1XP1


class TestLabel:
    def test_triangle(self, p2_fan):
        assert label(p2_fan) == P2

    def test_square(self, square_fan):
        assert label(square_fan) == P1XP1

    def test_hexagon(self, hexagon_n1):
        assert label(hexagon_n1) == DP6_TERMINAL

    @pytest.mark.parametrize("a", range(-20, 21))
    def test_ruled_surfaces(self, a):
        expected = TerminalLabel("Hirzebruch", abs(a)) if a else P1XP1
        assert label(families.hirzebruch(a)) == expected

    def test_four_ray_labels_agree_with_the_profile(self, std2):
        """The label of every smooth complete 4-ray fan with rays in a small
        box, and of F_a for |a| <= 20, read off the word, against the one
        the surface-key comparison gives."""
        box = [
            (x, y)
            for x in range(-3, 4)
            for y in range(-3, 4)
            if math.gcd(x, y) == 1
        ]
        checked = smooth = 0
        for rays in itertools.combinations(box, 4):
            try:
                fan = build_surface_fan(std2, rays)
            except PreconditionError:
                continue
            checked += 1
            if set(fan.word[0]) == {1}:
                smooth += 1
                assert label(fan) == label_by_word_key(fan), fan.rays
            else:  # a singular fan is no F_a; the loop refuses it, so it gets no label
                assert label_by_word_key(fan) == OTHER, fan.rays
        assert checked > 10_000 and smooth == 237
        for a in range(-20, 21):
            fan = families.hirzebruch(a)
            assert label(fan) == label_by_word_key(fan), a

    def test_one_point_blowup_is_the_first_ruled_surface(self, std2):
        assert label(blowup_p2_once(std2)) == TerminalLabel("Hirzebruch", 1)

    def test_everything_else_is_other(self, std2):
        assert label(blowup_p2_twice(std2)).kind == "Other"


class TestAdjacentMinusOneRule:
    def test_hexagon_has_six_verified_instances(self, hexagon_n2):
        pairs = check_adjacent_minus_one_rule(hexagon_n2)
        assert pairs == tuple((i, (i + 1) % 6) for i in range(6))
        for i, _ in pairs:
            outer_left, outer_right = hexagon_n2.rays[i - 1], hexagon_n2.rays[(i + 2) % 6]
            assert tuple(a + b for a, b in zip(outer_left, outer_right)) == (0, 0)

    def test_triangle_has_none(self, p2_fan):
        assert check_adjacent_minus_one_rule(p2_fan) == ()

    def test_double_blowup_instances(self, std2):
        fan = blowup_p2_twice(std2)
        profile = self_intersection_profile(fan)
        expected = sum(
            1
            for i in range(fan.ray_count)
            if profile[i] == 1
            and profile[(i + 1) % fan.ray_count] == 1
        )
        pairs = check_adjacent_minus_one_rule(fan)
        assert len(pairs) == expected
        assert expected > 0
