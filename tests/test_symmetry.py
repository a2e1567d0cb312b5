import collections
import functools
import itertools
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, Matrix, eye
from sympy.polys.matrices import DomainMatrix

from toricsym import families, symmetry
from toricsym import fan as fan_module
from toricsym.acceptance import named_family_corpus
from toricsym.cli import _report_payload
from toricsym.divisors import class_group
from toricsym.errors import PreconditionError
from toricsym.fan import Lattice, _all_isomorphisms, fan_isomorphism, make_fan
from toricsym.intlin import IntMatrix, kernel_basis
from toricsym.mmp import contract, terminal_counts, traces
from toricsym.symmetry import (
    GaloisDatum,
    _perm_of,
    GaloisForm,
    action_from_generators,
    centralizer_in_GL,
    classify_galois_form,
    fan_automorphisms,
    invariant_picard_number,
    ray_orbits,
)

from conftest import random_unimodular, transform_fan, word_key_from_rays

NEG_I = -IntMatrix.identity(2)
SWAP = IntMatrix.from_rows([(0, 1), (1, 0)])


def trivial_action(fan):
    return action_from_generators(fan, [IntMatrix.identity(fan.rank)])


def closure_by_matrices(fan, generators):
    """The generated group closed as matrices, each element's ray
    permutation then read off its matrix: the ray permutations and the
    matrices, ordered by permutation.  An automorphism of a fan whose rays
    span is fixed by where it sends one n-ray cone's rays, in order, so a
    group of them has at most |max cones| * n! elements; the closure stops
    with an assertion past that, as generators that preserve no fan may
    generate an infinite group."""
    bound = len(fan.max_cones) * math.factorial(fan.rank)
    ident = IntMatrix.identity(fan.rank)
    seen = {ident.entries: ident}
    queue = [ident]
    while queue:
        current = queue.pop()
        for g in generators:
            nxt = g @ current
            if nxt.entries not in seen:
                seen[nxt.entries] = nxt
                queue.append(nxt)
                assert len(seen) <= bound, f"the generators close to more than {bound} matrices"
    pairs = sorted(((_perm_of(fan, g), g) for g in seen.values()), key=lambda p: p[0])
    return tuple(p for p, _ in pairs), tuple(g for _, g in pairs)


def expanded(action):
    """The ray permutations and the matrices of an action, expanded."""
    return action.ray_perms, action.elements


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
        assert closure_by_matrices(fan, action.elements) == expanded(action)

    # (n+1)! for P^n, 2^n n! for (P^1)^n, (a+1)! (b+1)! for P^a x P^b (a != b)
    # and twice that for a = b.
    @pytest.mark.parametrize(
        "builder, expected",
        [(lambda n=n: families.projective_space(n), math.factorial(n + 1)) for n in range(1, 8)]
        + [(lambda n=n: _product(*[P1] * n), 2**n * math.factorial(n)) for n in range(1, 7)]
        + [
            (
                lambda a=a, b=b: _product(families.projective_space(a), families.projective_space(b)),
                math.factorial(a + 1) * math.factorial(b + 1) * (2 if a == b else 1),
            )
            for a, b in [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (4, 1), (4, 2)]
        ],
        ids=[f"P{n}" for n in range(1, 8)]
        + [f"P1^{n}" for n in range(1, 7)]
        + ["P1xP2", "P2xP2", "P1xP3", "P2xP3", "P3xP3", "P4xP1", "P4xP2"],
    )
    def test_closed_form_orders(self, builder, expected):
        action = fan_automorphisms(builder())
        assert action.order == expected
        assert len(set(action.ray_perms)) == action.order


def _brute_force_isomorphisms(source, target):
    """Every (ray map, matrix) pair, sending a spanning ray subset to every ordered ray tuple."""
    n = source.rank
    if source.ray_count != target.ray_count or len(source.max_cones) != len(target.max_cones):
        return []
    subset = next(
        s
        for s in itertools.combinations(range(source.ray_count), n)
        if IntMatrix.from_rows([source.rays[i] for i in s]).rank() == n
    )
    basis = IntMatrix.from_columns([source.rays[i] for i in subset])
    det, adjugate = basis.det(), basis.adjugate()
    index = {v: i for i, v in enumerate(target.rays)}
    cones = set(target.max_cones)
    found = []
    for images in itertools.permutations(target.rays, n):
        w = IntMatrix.from_columns(images)
        if abs(w.det()) != abs(det):
            continue
        num = w @ adjugate
        if any(x % det for row in num.entries for x in row):
            continue
        g = IntMatrix.from_rows([[x // det for x in row] for row in num.entries])
        mapping = tuple(index.get(g.apply(v)) for v in source.rays)
        if None in mapping or len(set(mapping)) != len(mapping):
            continue
        if {tuple(sorted(mapping[i] for i in cone)) for cone in source.max_cones} == cones:
            found.append((mapping, g))
    return sorted(found, key=lambda pair: pair[0])


def _pairs(found):
    return [(mapping, g.entries) for mapping, g in found]


def _stellar_subdivision(fan, seed, steps):
    """Star subdivisions of random faces of maximal cones."""
    rng = random.Random(seed)
    rays, cones = list(fan.rays), list(fan.max_cones)
    for _ in range(steps):
        cone = rng.choice(cones)
        face = rng.sample(cone, rng.randint(2, len(cone)))
        new = len(rays)
        rays.append(tuple(map(sum, zip(*(rays[i] for i in face)))))
        out = []
        for c in cones:
            if set(face) <= set(c):
                out.extend(tuple(new if x == i else x for x in c) for i in face)
            else:
                out.append(c)
        cones = out
    return make_fan(fan.lattice, rays, cones)


def _relabelled_image(fan, seed):
    """The fan moved by a random unimodular matrix, with its rays shuffled."""
    rng = random.Random(seed)
    n = fan.rank
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            k = rng.choice([-2, -1, 1, 2])
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    moved = transform_fan(IntMatrix.from_rows(m), fan)
    order = list(range(moved.ray_count))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    cones = [[where[i] for i in cone] for cone in moved.max_cones]
    return make_fan(fan.lattice, [moved.rays[i] for i in order], cones)


P2 = families.projective_space(2)
P3 = families.projective_space(3)
P4 = families.projective_space(4)

# Rank 3 with no full-dimensional cone: the edges of the octahedron and of
# the tetrahedron P^3 is the fan over.
OCTAHEDRON_EDGES = make_fan(
    Lattice.standard(3),
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [(i, j) for i in range(6) for j in range(i + 1, 6) if i // 2 != j // 2],
)
TETRAHEDRON_EDGES = make_fan(P3.lattice, P3.rays, list(itertools.combinations(range(4), 2)))
# The same edges on rays spanning a sublattice of index 2.
OCTAHEDRON_EDGES_INDEX_2 = make_fan(
    Lattice.standard(3),
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 2), (-1, -1, -2)],
    OCTAHEDRON_EDGES.max_cones,
)

SEARCH_CORPUS = {
    "P1": P1,
    "P3": P3,
    "P1^3": _product(P1, P1, P1),
    "P2xP1": _product(P2, P1),
    "P1^4": _product(P1, P1, P1, P1),
    "P2xP2": _product(P2, P2),
    "P4xP1": _product(P4, P1),
    "weighted-p1111m:1": families.weighted_p1111m(1),
    "weighted-p1111m:3": families.weighted_p1111m(3),
    "bundle-over-p3:1": families.bundle_over_p3(1),
    "bundle-over-p3:2": families.bundle_over_p3(2),
    "bundle-over-p1xp1:1": families.bundle_over_p1xp1(1),
    "bundle-over-p1xp1:2": families.bundle_over_p1xp1(2),
    "P3-subdivided-a": _stellar_subdivision(P3, 1, 6),
    "P1^3-subdivided": _stellar_subdivision(_product(P1, P1, P1), 2, 6),
    "P2xP1-subdivided": _stellar_subdivision(_product(P2, P1), 3, 7),
    "P4-subdivided": _stellar_subdivision(families.projective_space(4), 4, 3),
    "P1^4-subdivided": _stellar_subdivision(_product(P1, P1, P1, P1), 5, 1),
    "hexagon-n1": families.dp6("n1"),
    "hexagon-n2": families.dp6("n2"),
    "singular-hexagon": families.singular_hexagon(),
    "F0": families.hirzebruch(0),
    "F3": families.hirzebruch(3),
    "blowup-surface-a": families.random_blowup_surface_fan(random.Random(1), 9),
    "blowup-surface-b": families.random_blowup_surface_fan(random.Random(2), 11),
    "octahedron-edges": OCTAHEDRON_EDGES,
    "tetrahedron-edges": TETRAHEDRON_EDGES,
}


class TestConeSeededSearch:
    """The cone-seeded search equals a search over every ordered ray tuple."""

    @pytest.mark.parametrize("name", sorted(SEARCH_CORPUS))
    def test_automorphisms_agree_with_brute_force(self, name):
        fan = SEARCH_CORPUS[name]
        expected = _brute_force_isomorphisms(fan, fan)
        assert _pairs(_all_isomorphisms(fan, fan)) == _pairs(expected)
        assert fan_automorphisms(fan).order == len(expected)

    @pytest.mark.parametrize("name", sorted(SEARCH_CORPUS))
    def test_isomorphisms_onto_a_moved_copy_agree_with_brute_force(self, name):
        fan = SEARCH_CORPUS[name]
        image = _relabelled_image(fan, seed=len(name))
        expected = _brute_force_isomorphisms(fan, image)
        assert expected
        assert _pairs(_all_isomorphisms(fan, image)) == _pairs(expected)
        assert fan_isomorphism(fan, image) == expected[0][1]

    @pytest.mark.parametrize(
        "first, second",
        [
            (families.hirzebruch(1), families.hirzebruch(3)),
            (families.dp6("n1"), families.singular_hexagon()),
            (families.weighted_p1111m(1), families.weighted_p1111m(2)),
            (families.bundle_over_p3(1), families.bundle_over_p3(2)),
            (families.bundle_over_p1xp1(1), families.bundle_over_p1xp1(3)),
            (_stellar_subdivision(P3, 6, 1), _stellar_subdivision(P3, 7, 1)),
            (OCTAHEDRON_EDGES, OCTAHEDRON_EDGES_INDEX_2),
        ],
        ids=["F1-F3", "hexagons", "weighted", "bundles-p3", "bundles-p1xp1", "P3-blowups", "no-full-cone"],
    )
    def test_non_isomorphic_pairs_with_equal_counts(self, first, second):
        assert (first.ray_count, len(first.max_cones)) == (second.ray_count, len(second.max_cones))
        assert _brute_force_isomorphisms(first, second) == []
        assert _all_isomorphisms(first, second) == []
        assert fan_isomorphism(first, second) is None

    @pytest.mark.parametrize(
        "builder, order, transversal",
        [
            (lambda: P3, 24, 3 + 2 + 1),
            (lambda: _product(P1, P1, P1, P1), 384, 7 + 5 + 3 + 1),
            (lambda: _product(P4, P1), 240, 4 + 3 + 2 + 1 + 1),
        ],
        ids=["P3", "P1^4", "P4xP1"],
    )
    def test_products_try_one_candidate_per_automorphism(self, builder, order, transversal, monkeypatch):
        # Every degree-matched ordering of a maximal cone of a product of
        # projective spaces is an automorphism, so no candidate is wasted:
        # the all-tuples search reads one matrix per automorphism, the level
        # search of fan_automorphisms one per transversal element other than
        # 1, which gives the order, and the expansion of its elements then
        # one per element.
        calls = []
        read_off_factory = fan_module._read_off

        def counted(*args):
            det, adjugate, read_off = read_off_factory(*args)
            return det, adjugate, lambda images: calls.append(images) or read_off(images)

        monkeypatch.setattr(fan_module, "_read_off", counted)
        monkeypatch.setattr(symmetry, "_read_off", counted)
        fan = builder()
        assert len(_all_isomorphisms(fan, fan)) == order
        assert len(calls) == order
        calls.clear()
        action = fan_automorphisms(fan)
        assert action.order == order
        assert len(calls) == transversal
        assert len(action.elements) == order
        assert len(calls) == transversal + order


# P2/mu3: its rays span the index-3 sublattice {a = b mod 3}, so every seed
# cone has |det| = 3.
P2_MU3 = make_fan(Lattice.standard(2), [(2, -1), (-1, 2), (-1, -1)])
P2_MU3_X_P1 = _product(P2_MU3, P1)
P2_X_P1 = _product(P2, P1)
# (x, y, z) -> (x, y, z + (x - y) / 3) is integral on the rays' sublattice
# but not on Z^3: it carries rays to primitive rays and keeps |det| of every
# cone, yet no integral matrix carries P2/mu3 x P1 onto the image.
P2_MU3_X_P1_SHEARED = make_fan(
    Lattice.standard(3),
    [(x, y, z + (x - y) // 3) for x, y, z in P2_MU3_X_P1.rays],
    P2_MU3_X_P1.max_cones,
)


class TestSublatticeSeeds:
    """Seed cones with |det| > 1 and rays spanning a proper sublattice."""

    @pytest.mark.parametrize("fan", [P2_MU3, P2_MU3_X_P1, P2_MU3_X_P1_SHEARED], ids=["P2/mu3", "P2/mu3xP1", "sheared"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_search_agrees_with_brute_force(self, fan, seed):
        image = _relabelled_image(fan, seed)
        for source, target in ((fan, fan), (fan, image), (image, fan)):
            expected = _brute_force_isomorphisms(source, target)
            assert expected
            assert _pairs(_all_isomorphisms(source, target)) == _pairs(expected)

    @pytest.mark.parametrize(
        "first, second, reason",
        [
            (P2, P2_MU3, "det"),
            (P2_MU3, P2, "det"),
            (P2_X_P1, _relabelled_image(P2_MU3_X_P1, 4), "det"),
            (P2_MU3_X_P1, P2_MU3_X_P1_SHEARED, "integrality"),
            (_relabelled_image(P2_MU3_X_P1_SHEARED, 5), P2_MU3_X_P1, "integrality"),
        ],
        ids=["P2-P2/mu3", "P2/mu3-P2", "P2xP1-moved", "shear", "moved-shear"],
    )
    def test_candidates_failing_only_the_matrix_tests_are_rejected(self, first, second, reason, monkeypatch):
        # Every candidate whose matrix is read off maps rays onto rays and
        # cones onto cones, and none is an isomorphism, so each fails on its
        # matrix g: |det g| = 1 fails where |det W| != |det B|, else g is not
        # integral and g B = W fails.
        rejected = []
        read_off_factory = fan_module._read_off

        def recorded(target, basis):
            det, adjugate, read_off = read_off_factory(target, basis)

            def read(images):
                same_det = abs(IntMatrix.from_columns([target.rays[j] for j in images]).det()) == abs(det)
                rejected.append("integrality" if same_det else "det")
                return read_off(images)

            return det, adjugate, read

        monkeypatch.setattr(fan_module, "_read_off", recorded)
        assert _brute_force_isomorphisms(first, second) == []
        assert _all_isomorphisms(first, second) == []
        assert fan_isomorphism(first, second) is None
        assert rejected and set(rejected) == {reason}


class TestStabilizerChain:
    """fan_automorphisms, built from one transversal per seed level, equals
    the all-tuples search element for element and in ray-permutation order."""

    CORPUS = {**SEARCH_CORPUS, "P2/mu3": P2_MU3, "P2/mu3xP1": P2_MU3_X_P1, "sheared": P2_MU3_X_P1_SHEARED}

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_equals_the_all_tuples_search(self, name, monkeypatch):
        tried = []
        candidate_test = fan_module._candidate_test

        def counted(*args):
            read_off, test = candidate_test(*args)
            return read_off, lambda images: tried.append(images) or test(images)

        monkeypatch.setattr(fan_module, "_candidate_test", counted)
        monkeypatch.setattr(symmetry, "_candidate_test", counted)
        fan = self.CORPUS[name]
        action = fan_automorphisms(fan)
        level_tuples = len(tried)
        pairs = _all_isomorphisms(fan, fan)
        assert action.ray_perms == tuple(p for p, _ in pairs)
        assert [g.entries for g in action.elements] == [g.entries for _, g in pairs]
        # The prefixes (b_1..b_{k-1}, c) split the tuples the level search
        # tries into disjoint sets of the all-tuples search's candidates.
        assert level_tuples <= len(tried) - level_tuples

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(CORPUS)), st.integers(0, 10**6))
    def test_order_is_invariant_under_gl_images(self, name, seed):
        fan = self.CORPUS[name]
        image = _relabelled_image(fan, seed)
        action = fan_automorphisms(image)
        assert action.order == fan_automorphisms(fan).order
        assert _pairs(zip(action.ray_perms, action.elements)) == _pairs(_all_isomorphisms(image, image))


class TestActionFromGenerators:
    def test_hexagon_coordinate_action_has_order_six(self, hexagon_n2):
        action = action_from_generators(hexagon_n2, list(hexagon_n2.lattice.s3_matrices()))
        assert action.order == 6
        assert len(set(action.ray_perms)) == action.order

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

    def test_ray_permutation_that_moves_a_cone_off_the_fan_is_rejected(self):
        # Two cones of P^3; the matrix swaps rays 2 and 3, so it permutes the
        # rays but sends the cone (0, 1, 2) to (0, 1, 3), which is not a cone.
        fan = make_fan(P3.lattice, P3.rays, [(0, 1, 2), (0, 2, 3)])
        g = IntMatrix.from_columns([(1, 0, 0), (0, 1, 0), (-1, -1, -1)])
        assert sorted(g.apply(v) for v in fan.rays) == sorted(fan.rays)
        with pytest.raises(PreconditionError) as err:
            action_from_generators(fan, [g])
        assert err.value.reason == "not-fan-preserving"

    @pytest.mark.parametrize(
        "generator",
        [[(0, 1, 0), (1, 0, 0), (0, 0, 1)], [(1, 0, 1), (0, 1, 0), (0, 0, 1)]],
        ids=["swap", "ray-fixing-shear"],
    )
    def test_fan_whose_rays_do_not_span_is_refused(self, generator):
        # The shear fixes every ray in z = 0 and has infinite order.
        flat = make_fan(Lattice.standard(3), [(1, 0, 0), (0, 1, 0), (-1, -1, 0)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(PreconditionError) as info:
            action_from_generators(flat, [IntMatrix.from_rows(generator)])
        assert info.value.reason == "rays-do-not-span"

    def test_p7_from_a_transposition_and_an_8_cycle(self):
        fan = families.projective_space(7)
        images = [fan.rays[1], fan.rays[0], *fan.rays[2:7]], fan.rays[1:8]
        gens = [IntMatrix.from_columns(w) for w in images]
        assert expanded(action_from_generators(fan, gens)) == expanded(fan_automorphisms(fan))

    def test_non_unimodular_generator_is_rejected(self, p2_fan):
        with pytest.raises(PreconditionError):
            action_from_generators(p2_fan, [IntMatrix.from_rows([(2, 0), (0, 1)])])


def perm_by_cone_sets(fan, g):
    """The ray permutation of g, or None where g does not preserve the fan:
    the images must be rays, all distinct, and each cone's image, as a set
    of ray indices, a cone."""
    index = {v: i for i, v in enumerate(fan.rays)}
    mapping = tuple(index.get(g.apply(v)) for v in fan.rays)
    if None in mapping or len(set(mapping)) != len(mapping):
        return None
    cones = set(map(frozenset, fan.max_cones))
    if any(frozenset(mapping[i] for i in cone) not in cones for cone in fan.max_cones):
        return None
    return mapping


def perm_or_none(fan, g):
    try:
        return _perm_of(fan, g)
    except PreconditionError as err:
        assert err.reason == "not-fan-preserving"
        return None


@functools.cache
def _symmetric_surface_fans():
    """Census fans up to height 3: many automorphisms, some of determinant -1."""
    return [param.values[0] for param in _census_s3_cases(3)]


class TestRank2RayPermutations:
    """A rank-2 fan's ray permutation is read off its cycle, as a rotation
    or a reflection; the cone-set test decides the same, for automorphisms
    of either determinant, the identity and matrices that preserve nothing."""

    KINDS = ("automorphism", "reversing", "identity", "negated", "sheared", "random", "singular")

    @staticmethod
    def _matrix(fan, kind, k, rng):
        auts = fan_automorphisms(fan).elements
        aut = auts[k % len(auts)]
        if kind == "reversing":
            reversing = [g for g in auts if g.det() == -1]
            return reversing[k % len(reversing)] if reversing else SWAP @ aut
        return {
            "automorphism": aut,
            "identity": IntMatrix.identity(2),
            "negated": NEG_I @ aut,
            "sheared": aut @ IntMatrix.from_rows([(1, k % 3 + 1), (0, 1)]),
            "random": random_unimodular(rng, 2),
            "singular": IntMatrix.from_rows([(1, 0), (k % 3, 0)]),
        }[kind]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(KINDS), st.integers(0, 10**3))
    @example(0, "reversing", 0)
    @example(1, "identity", 0)
    @example(2, "sheared", 0)
    def test_agrees_with_the_cone_sets(self, seed, kind, k):
        rng = random.Random(seed)
        if seed % 2:
            fan = families.random_blowup_surface_fan(rng, max_rays=10)
        else:
            fans = _symmetric_surface_fans()
            fan = fans[seed // 2 % len(fans)]
        assert fan.max_cones == fan_module._cycle_cones(fan.ray_count)
        g = self._matrix(fan, kind, k, rng)
        assert perm_or_none(fan, g) == perm_by_cone_sets(fan, g)

    def test_every_automorphism_of_the_census(self):
        # Each census fan carries the coordinate swap, of determinant -1.
        reversing = 0
        for fan in _symmetric_surface_fans():
            for g in fan_automorphisms(fan).elements:
                assert perm_or_none(fan, g) == perm_by_cone_sets(fan, g) is not None
                reversing += g.det() == -1
                for h in (g @ IntMatrix.from_rows([(1, 1), (0, 1)]), -g):
                    assert perm_or_none(fan, h) == perm_by_cone_sets(fan, h)
        assert reversing >= len(_symmetric_surface_fans())

    @pytest.mark.parametrize("order", ["reversed", "each pair (i + 1, i)"])
    def test_cycle_cones_in_another_order_are_read_off_the_cycle(self, order, monkeypatch):
        # The hexagon's six adjacent pairs, in another order or each written
        # backwards, still take the cycle path: the cone-set check, which
        # builds a frozenset per cone, is never reached.
        hexagon = families.dp6("n2")
        cones = hexagon.max_cones[::-1] if order == "reversed" else tuple(c[::-1] for c in hexagon.max_cones)
        fan = fan_module.Fan(hexagon.lattice, hexagon.rays, cones)
        matrices = [*fan_automorphisms(hexagon).elements, IntMatrix.from_rows([(1, 1), (0, 1)])]
        expected = [perm_by_cone_sets(fan, g) for g in matrices]

        def refuse(*args):
            raise AssertionError("the cone-set check ran")

        monkeypatch.setattr(symmetry, "frozenset", refuse, raising=False)
        assert [perm_or_none(fan, g) for g in matrices] == expected
        assert expected.count(None) == 1


def _census_s3_cases(max_height=5):
    """The smooth census of both lattices at H <= max_height, each fan with
    the S3 generators it was enumerated for, with -1 or without."""
    cases = []
    for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
        for negation in (False, True):
            gens = list(lattice.s3_matrices()) + ([NEG_I] if negation else [])
            fans = {
                fan
                for height in range(1, max_height + 1)
                for fan in families.enumerate_invariant_fans(
                    lattice, height=height, max_rays=6 * height, include_negation=negation
                )
            }
            for k, fan in enumerate(sorted(fans, key=lambda f: (f.ray_count, f.rays))):
                cases.append(pytest.param(fan, gens, id=f"{lattice.kind}-neg{int(negation)}-{k}"))
    return cases


def _automorphism_generator_cases():
    fans = [pytest.param(fan, id=name) for name, fan in named_family_corpus()]
    fans += [
        pytest.param(families.random_blowup_surface_fan(random.Random(seed), max_rays=9), id=f"blowup-seed{seed}")
        for seed in range(12)
    ]
    return fans


class TestClosureAgainstTheMatrixClosure:
    """Composing the generators' ray permutations gives the elements, order
    and permutations of the matrix closure."""

    @pytest.mark.parametrize("fan,gens", _census_s3_cases())
    def test_s3_actions_on_the_census(self, fan, gens):
        assert expanded(action_from_generators(fan, gens)) == closure_by_matrices(fan, gens)

    @pytest.mark.parametrize("fan", _automorphism_generator_cases())
    def test_automorphisms_as_generators(self, fan):
        gens = list(fan_automorphisms(fan).elements)
        assert expanded(action_from_generators(fan, gens)) == closure_by_matrices(fan, gens)

    @pytest.mark.parametrize(
        "fan, count, seed",
        [
            pytest.param(fan, count, seed, id=f"{name}-{count}-{seed}")
            for name, fan in [
                ("P2/mu3", P2_MU3),
                ("P2/mu3xP1", P2_MU3_X_P1),
                ("sheared", P2_MU3_X_P1_SHEARED),
                ("P2xP1", P2_X_P1),
                ("P3xP1", _product(P3, P1)),
                ("P4xP1", _product(P4, P1)),
            ]
            for count in (2, 3)
            for seed in (1, 2)
        ],
    )
    def test_seeded_elements_as_generators(self, fan, count, seed):
        # Sublattice seeds (|det B| > 1) and product fans, generated by a
        # few elements of their automorphism groups.
        gens = random.Random(seed).sample(fan_automorphisms(fan).elements, count)
        assert expanded(action_from_generators(fan, gens)) == closure_by_matrices(fan, gens)


class TestTransversalsGenerate:
    """The transversal elements the stabilizer chain finds generate the
    automorphism group."""

    @pytest.mark.parametrize("name", sorted(SEARCH_CORPUS))
    def test_closure_of_the_transversals(self, name, monkeypatch):
        found = []
        candidate_test = fan_module._candidate_test

        def recorded(*args):
            read_off, test = candidate_test(*args)

            def kept(images):
                pair = test(images)
                if pair is not None:
                    found.append(pair[1])
                return pair

            return read_off, kept

        monkeypatch.setattr(symmetry, "_candidate_test", recorded)
        fan = SEARCH_CORPUS[name]
        action = fan_automorphisms(fan)
        monkeypatch.undo()
        assert expanded(action_from_generators(fan, found)) == expanded(action)


class TestGaloisCommutationByPermutations:
    """classify_galois_form compares ray permutations; the matrix products
    g tau and tau g decide the same."""

    @pytest.mark.parametrize("fan,gens", _census_s3_cases(4))
    def test_agrees_with_matrix_commutation(self, fan, gens):
        # +-I, the swap and a reflection, and every involution of Aut(fan).
        taus = [IntMatrix.identity(2), NEG_I, SWAP, IntMatrix.from_rows([(1, 0), (0, -1)])]
        taus += [g for g in fan_automorphisms(fan).elements if g @ g == IntMatrix.identity(2)]
        action = action_from_generators(fan, gens)
        for tau in taus:
            try:
                _perm_of(fan, tau)
            except PreconditionError:
                with pytest.raises(PreconditionError, match="does not preserve"):
                    classify_galois_form(action, GaloisDatum(tau=tau))
                continue
            if all(g @ tau == tau @ g for g in action.elements):
                classify_galois_form(action, GaloisDatum(tau=tau))
            else:
                with pytest.raises(PreconditionError) as err:
                    classify_galois_form(action, GaloisDatum(tau=tau))
                assert err.value.reason == "galois-noncommuting"


def orbits_by_search(action):
    """Ray orbits grown from each least unplaced ray by the permutations."""
    remaining, orbits = set(range(action.fan.ray_count)), []
    while remaining:
        orbit, frontier = set(), [min(remaining)]
        while frontier:
            i = frontier.pop()
            if i not in orbit:
                orbit.add(i)
                frontier.extend(p[i] for p in action.ray_perms)
        orbits.append(tuple(sorted(orbit)))
        remaining -= orbit
    return tuple(orbits)


class TestRayOrbits:
    @pytest.mark.parametrize("fan,gens", _census_s3_cases(3))
    def test_images_agree_with_the_search_on_the_census(self, fan, gens):
        action = action_from_generators(fan, gens)
        assert ray_orbits(action) == orbits_by_search(action)

    @pytest.mark.parametrize("fan", _automorphism_generator_cases())
    def test_images_agree_with_the_search_under_automorphisms(self, fan):
        action = fan_automorphisms(fan)
        assert ray_orbits(action) == orbits_by_search(action)

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


def fixed_space_by_elements(action):
    """n minus the rank of every g - 1 stacked: the common fixed space read
    off each element's matrix."""
    n = action.fan.rank
    rows = [
        tuple(a - (i == j) for j, a in enumerate(row)) for g in action.elements for i, row in enumerate(g.entries)
    ]
    return n - IntMatrix.from_rows(rows).rank()


def fixed_space_dimension(action):
    """The fixed space that ``invariant_picard_number`` subtracts from the
    number of ray orbits."""
    return len(ray_orbits(action)) - invariant_picard_number(action)


def _seeded_subgroup_cases():
    cases = []
    for name, fan in sorted(SEARCH_CORPUS.items()):
        elements = fan_automorphisms(fan).elements
        for count in (1, 2):
            gens = random.Random(f"{name}-{count}").sample(elements, min(count, len(elements)))
            cases.append(pytest.param(fan, gens, id=f"{name}-{count}"))
    return cases


class TestFixedSpaceFromOrbits:
    """The rank of the ray-orbit sums, which ``invariant_picard_number``
    subtracts from the number of orbits, equals the fixed space read off
    every element's matrix."""

    @pytest.mark.parametrize("name", sorted(SEARCH_CORPUS))
    def test_automorphism_groups(self, name):
        action = fan_automorphisms(SEARCH_CORPUS[name])
        assert fixed_space_dimension(action) == fixed_space_by_elements(action)

    @pytest.mark.parametrize("fan,gens", _seeded_subgroup_cases())
    def test_subgroups_of_seeded_elements(self, fan, gens):
        action = action_from_generators(fan, gens)
        assert fixed_space_dimension(action) == fixed_space_by_elements(action)

    @pytest.mark.parametrize("fan,gens", _census_s3_cases(4))
    def test_s3_actions_on_the_census(self, fan, gens):
        action = action_from_generators(fan, gens)
        assert fixed_space_dimension(action) == fixed_space_by_elements(action)


class TestInvariantPicardNumber:
    def test_hexagon_values(self, hexagon_n1, hexagon_n2):
        a1 = families.standard_s3_action(hexagon_n1)
        a2 = families.standard_s3_action(hexagon_n2)
        assert fixed_space_dimension(a1) == 0
        assert fixed_space_dimension(a2) == 0
        assert invariant_picard_number(a1) == 1
        assert invariant_picard_number(a2) == 2

    def test_triangle_with_trivial_group(self, p2_fan):
        assert invariant_picard_number(trivial_action(p2_fan)) == 1

    def test_trivial_group_recovers_class_group_rank(self):
        from toricsym.acceptance import named_family_corpus

        for name, fan in named_family_corpus():
            if fan.rank != 2:
                continue
            group, _ = class_group(fan)
            rho = invariant_picard_number(trivial_action(fan))
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
        form = classify_galois_form(action, GaloisDatum(tau=NEG_I))
        assert form is GaloisForm.NEGATION_TWIST

    def test_factor_swap_on_the_square(self, square_fan):
        form = classify_galois_form(trivial_action(square_fan), GaloisDatum(tau=SWAP))
        assert form is GaloisForm.FACTOR_SWAP

    def test_split(self, hexagon_n2):
        action = families.standard_s3_action(hexagon_n2)
        form = classify_galois_form(action, GaloisDatum(tau=IntMatrix.identity(2)))
        assert form is GaloisForm.SPLIT

    def test_a_reflection_is_other(self, square_fan):
        reflection = IntMatrix.from_rows([(1, 0), (0, -1)])
        form = classify_galois_form(trivial_action(square_fan), GaloisDatum(tau=reflection))
        assert form is GaloisForm.OTHER

    @pytest.mark.parametrize("tau", [((0, 1), (1, 0)), ((1, -1), (0, -1)), ((-1, 0), (-1, 1))])
    def test_each_transposition_of_p2_is_a_factor_swap(self, p2_fan, tau):
        # The three swap two rays of P2 and fix the third: Aut(P2) conjugates them.
        form = classify_galois_form(trivial_action(p2_fan), GaloisDatum(tau=IntMatrix.from_rows(tau)))
        assert form is GaloisForm.FACTOR_SWAP

    def test_the_swap_in_a_sheared_basis_is_a_factor_swap(self, square_fan):
        g, g_inverse = IntMatrix.from_rows([(1, 1), (0, 1)]), IntMatrix.from_rows([(1, -1), (0, 1)])
        tau = g @ SWAP @ g_inverse
        assert tau == IntMatrix.from_rows([(1, 0), (1, -1)])
        form = classify_galois_form(trivial_action(transform_fan(g, square_fan)), GaloisDatum(tau=tau))
        assert form is GaloisForm.FACTOR_SWAP

    def test_the_negated_swap_is_a_factor_swap(self, square_fan):
        form = classify_galois_form(trivial_action(square_fan), GaloisDatum(tau=-SWAP))
        assert form is GaloisForm.FACTOR_SWAP

    @pytest.mark.parametrize(
        "name, images, expected",
        [("P1^3", (1, 0, 2), GaloisForm.OTHER), ("P1^4", (1, 0, 3, 2), GaloisForm.FACTOR_SWAP)],
    )
    def test_swapping_factors_of_a_product_of_lines(self, name, images, expected):
        # Swapping two of three factors leaves a fixed line: type (1, 0, 1).
        tau = IntMatrix.from_columns([[int(i == j) for i in range(len(images))] for j in images])
        form = classify_galois_form(trivial_action(SEARCH_CORPUS[name]), GaloisDatum(tau=tau))
        assert form is expected

    def test_noncommuting_tau_cannot_descend(self, hexagon_n2):
        action = families.standard_s3_action(hexagon_n2)
        swap01 = hexagon_n2.lattice.s3_matrices()[0]
        with pytest.raises(PreconditionError) as err:
            classify_galois_form(action, GaloisDatum(tau=swap01))
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

    def test_negation_extended_action_has_distinct_ray_permutations(self, hexagon_n1):
        action = families.standard_s3_action(hexagon_n1, include_negation=True)
        assert action.order == 12
        assert len(set(action.ray_perms)) == action.order


# --- generators against elements ---------------------------------------------


def orbits_by_elements(action):
    """Ray orbits as the images of each ray under every element's matrix."""
    rays = action.fan.rays
    index = {v: i for i, v in enumerate(rays)}
    return tuple(sorted({tuple(sorted({index[g.apply(v)] for g in action.elements})) for v in rays}))


def galois_form_by_elements(action, tau):
    """The Galois class with commutation decided on every element's matrix:
    a reason slug where ``classify_galois_form`` must refuse."""
    fan, n = action.fan, action.fan.rank
    index = {v: i for i, v in enumerate(fan.rays)}
    images = [index.get(tau.apply(v)) for v in fan.rays]
    cones = set(map(frozenset, fan.max_cones))
    if None in images or {frozenset(images[i] for i in cone) for cone in fan.max_cones} != cones:
        return "not-fan-preserving"
    if any(g @ tau != tau @ g for g in action.elements):
        return "galois-noncommuting"
    # The type (a, b, c) of N = Z+^a + Z-^b + Z[C2]^c: a + c and b + c are the
    # nullities of tau - 1 and tau + 1 over Q, and c is the rank of tau - 1
    # over F2, where Z+ and Z- give 0 and Z[C2] gives [[1, 1], [1, 1]].
    tau_minus_1, tau_plus_1 = Matrix(tau.entries) - eye(n), Matrix(tau.entries) + eye(n)
    c = DomainMatrix.from_Matrix(tau_minus_1).convert_to(GF(2)).rank()
    a, b = n - tau_minus_1.rank() - c, n - tau_plus_1.rank() - c
    if (a, b, c) == (n, 0, 0):
        return GaloisForm.SPLIT
    if (a, b, c) == (0, n, 0):
        return GaloisForm.NEGATION_TWIST
    return GaloisForm.FACTOR_SWAP if a == b == 0 else GaloisForm.OTHER


def galois_form_or_reason(action, tau):
    try:
        return classify_galois_form(action, GaloisDatum(tau=tau))
    except PreconditionError as exc:
        return exc.reason


def commutant_by_elements(action):
    """The dimension of the matrices commuting with every element."""
    n = action.fan.rank
    rows = [(0,) * (n * n)]
    for g in action.elements:
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[k * n + j] += g.entries[i][k]
                    row[i * n + k] -= g.entries[k][j]
                rows.append(tuple(row))
    return len(kernel_basis(IntMatrix.from_rows(rows)))


def _involutions(fan, limit=6):
    """+-I, and the first few involutions of Aut(fan) (and the swap and a
    reflection in rank 2), as Galois candidates."""
    n = fan.rank
    ident = IntMatrix.identity(n)
    taus = [ident, -ident] + ([SWAP, IntMatrix.from_rows([(1, 0), (0, -1)])] if n == 2 else [])
    return taus + [g for g in fan_automorphisms(fan).elements if g @ g == ident and g != ident][:limit]


def _generator_cases():
    """(fan, generators): the S3 actions on the census H <= 5, and on the
    named families and ``SEARCH_CORPUS`` the automorphism group (generators
    None) and the subgroup of two seeded elements."""
    cases = [pytest.param(*case.values, id=f"census-{case.id}") for case in _census_s3_cases()]
    corpus = [(f"family-{name}", fan) for name, fan in named_family_corpus()]
    corpus += [(f"search-{name}", fan) for name, fan in sorted(SEARCH_CORPUS.items())]
    for name, fan in corpus:
        elements = fan_automorphisms(fan).elements
        cases.append(pytest.param(fan, None, id=f"{name}-aut"))
        cases.append(pytest.param(fan, random.Random(name).sample(elements, min(2, len(elements))), id=f"{name}-sub"))
    return cases


def _action(fan, gens):
    return fan_automorphisms(fan) if gens is None else action_from_generators(fan, gens)


class TestGeneratorsAgainstElements:
    """Orbits, the invariant Picard number, the Galois class and the
    centralizer, which read only the generators, equal the same computed
    from every element's matrix; the order is the number of ray
    permutations."""

    @pytest.mark.parametrize("fan,gens", _generator_cases())
    def test_orbits_and_invariant_picard_number(self, fan, gens):
        orbits = orbits_by_elements(_action(fan, gens))
        assert ray_orbits(_action(fan, gens)) == orbits
        rho = len(orbits) - fixed_space_by_elements(_action(fan, gens))
        assert invariant_picard_number(_action(fan, gens)) == rho

    @pytest.mark.parametrize("fan,gens", _generator_cases())
    def test_galois_class(self, fan, gens):
        expanded_action = _action(fan, gens)
        for tau in _involutions(fan):
            assert galois_form_or_reason(_action(fan, gens), tau) == galois_form_by_elements(expanded_action, tau)

    @pytest.mark.parametrize("fan,gens", _generator_cases())
    def test_centralizer(self, fan, gens):
        dim = commutant_by_elements(_action(fan, gens)) if fan.rank <= 3 else None
        if dim == 1:
            ident = IntMatrix.identity(fan.rank)
            assert centralizer_in_GL(_action(fan, gens)) == (ident, -ident)
        else:
            with pytest.raises(PreconditionError) as err:
                centralizer_in_GL(_action(fan, gens))
            assert err.value.reason == ("rank" if dim is None else "commutant-too-large")
            assert dim is None or f"commutant has dimension {dim};" in str(err.value)

    @pytest.mark.parametrize("fan,gens", _generator_cases())
    def test_order_is_the_number_of_ray_permutations(self, fan, gens):
        action = _action(fan, gens)
        order = action.order
        assert order == len(action.ray_perms) == len(set(action.ray_perms)) == len(action.elements)
        assert order == len(_action(fan, gens).ray_perms)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([fan for _, fan in sorted(SEARCH_CORPUS.items())] + [f for _, f in named_family_corpus()]), st.data())
    def test_random_subsets_of_elements_as_generators(self, fan, data):
        gens = data.draw(st.lists(st.sampled_from(fan_automorphisms(fan).elements), max_size=3))
        assert expanded(action_from_generators(fan, gens)) == closure_by_matrices(fan, gens)


def _smooth_surface_cases():
    """Smooth surfaces with an action: the smooth census H <= 3 under S3
    and under Aut, and blow-ups of P2 under Aut."""
    cases = []
    for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
        for negation in (False, True):
            gens = list(lattice.s3_matrices()) + ([NEG_I] if negation else [])
            for height in (1, 2, 3):
                for k, fan in enumerate(
                    families.enumerate_invariant_fans(
                        lattice, height=height, max_rays=6 * height, require_smooth=True, include_negation=negation
                    )
                ):
                    name = f"{lattice.kind}-neg{int(negation)}-h{height}-{k}"
                    cases.append(pytest.param(fan, gens, id=f"{name}-s3"))
                    cases.append(pytest.param(fan, None, id=f"{name}-aut"))
    for seed in range(6):
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=9)
        cases.append(pytest.param(fan, None, id=f"blowup-seed{seed}-aut"))
    return cases


class TestExpansionOnDemand:
    """The contraction loop and the orbits read only the generators: no
    ray-permutation closure, no composed transversals and no matrix
    read-off."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        counts = collections.Counter()
        for name in ("order", "ray_perms", "elements"):
            lazy = vars(symmetry.GroupAction)[name]
            monkeypatch.setattr(
                symmetry.GroupAction, name, property(lambda self, name=name, lazy=lazy: counts.update([name]) or lazy.__get__(self))
            )
        read_off_factory = fan_module._read_off

        def counted(*args):
            det, adjugate, read_off = read_off_factory(*args)
            return det, adjugate, lambda images: counts.update(["read-off"]) or read_off(images)

        monkeypatch.setattr(fan_module, "_read_off", counted)
        monkeypatch.setattr(symmetry, "_read_off", counted)
        return counts

    @pytest.mark.parametrize("fan,gens", _smooth_surface_cases())
    def test_contraction_loop_and_orbits(self, fan, gens, expansions):
        action = _action(fan, gens)
        expansions.clear()  # the level search of fan_automorphisms reads matrices off
        ray_orbits(action)
        invariant_picard_number(action)
        for mode in ("first-orbit", "explore-all"):
            list(traces(contract(fan, action, first_only=mode == "first-orbit")))
        assert not expansions
        # The counter sees an expansion when there is one.
        assert action.order and expansions["order"] == 1
        assert len(action.elements) == expansions["read-off"] == action.order


class TestElementsReadOff:
    """``GroupAction.elements`` reads each matrix off the images of the seed rays."""

    def test_rank_one_fan(self):
        # A one-ray seed: its images are a 1-tuple, not the one image itself.
        fan = make_fan(Lattice.standard(1), [(1,), (-1,)], [(0,), (1,)])
        expected = (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[-1]]))
        assert fan_automorphisms(fan).elements == expected
        assert action_from_generators(fan, [expected[1]]).elements == expected

    def test_one_ray_fan(self):
        # One ray: a ray permutation has one entry, so each product and closure
        # step reads a getter of one index, which must still give a 1-tuple.
        fan = make_fan(Lattice.standard(1), [(1,)], [(0,)])
        ident = IntMatrix.identity(1)
        for action in (fan_automorphisms(fan), action_from_generators(fan, [ident]), action_from_generators(fan, [])):
            assert (action.order, action.ray_perms, action.elements) == (1, ((0,),), (ident,))
        with pytest.raises(PreconditionError) as info:
            action_from_generators(fan, [-ident])
        assert info.value.reason == "not-fan-preserving"

    def test_seed_cone_of_det_four(self):
        # The first cone of P(1,1,1,1,4) has |det B| = 4, so each element is
        # W adj(B) / det(B), W the seed rays' images, and not W itself.
        fan = families.weighted_p1111m(4)
        action = fan_automorphisms(fan)
        basis = Matrix([fan.rays[b] for b in action.seed]).T
        assert abs(basis.det()) == 4
        assert len(action.elements) == len(action.ray_perms) == 24
        for p, g in zip(action.ray_perms, action.elements):
            images = Matrix([fan.rays[p[b]] for b in action.seed]).T
            assert Matrix(g.entries) == images * basis.adjugate() / basis.det()
            assert [g.apply(v) for v in fan.rays] == [fan.rays[j] for j in p]


def _expanded_entry_by_entry(action):
    """The ray permutations and matrices of an action as they were computed
    before getters: each product and closure step one ``__getitem__`` call per
    entry, and W's rows zipped from the seed rays' image columns."""
    fan = action.fan
    if action.transversals is None:
        group = frontier = {tuple(range(fan.ray_count))}
        while frontier:
            frontier = {tuple(map(g.__getitem__, p)) for p in frontier for g in action.generators} - group
            group |= frontier
        perms = tuple(sorted(group))
    else:
        *levels, perms = action.transversals
        for level in reversed(levels):
            perms = [tuple(map(u.__getitem__, p)) for u in level for p in perms]
        perms = tuple(sorted(perms))
    basis = [fan.rays[b] for b in action.seed]
    n = len(basis)
    det, adjugate = IntMatrix._of(tuple(zip(*basis))).det_adjugate()
    plain = all(b[j] == 1 and b.count(0) == n - 1 for j, b in enumerate(basis))
    columns = list(zip(*adjugate.entries))
    elements = []
    for p in perms:
        rows = zip(*(fan.rays[p[b]] for b in action.seed))
        if not plain:
            rows = [tuple([sum(map(operator.mul, row, c)) // det for c in columns]) for row in rows]
        elements.append(IntMatrix._of(tuple(rows)))
    return perms, tuple(elements)


def _getter_cases():
    """The named corpus and seeded stellar subdivisions of P^3, (P^1)^3,
    P^2 x P^1 and P^4, each with its full group."""
    cases = [pytest.param(fan, id=name) for name, fan in named_family_corpus()]
    bases = (P3, _product(P1, P1, P1), _product(P2, P1), P4)
    for seed in range(24):
        cases.append(pytest.param(_stellar_subdivision(bases[seed % 4], seed, 1 + seed % 5), id=f"subdivision-{seed}"))
    return cases


class TestGettersAgainstEntryByEntry:
    """``ray_perms`` and ``elements``, composed by getters and read off
    coordinate rows, equal the entry-by-entry products, closure and read-off,
    in value and in order."""

    @pytest.mark.parametrize("fan", _getter_cases())
    def test_full_groups(self, fan):
        action = fan_automorphisms(fan)
        assert expanded(action) == _expanded_entry_by_entry(fan_automorphisms(fan))

    @pytest.mark.parametrize("fan", _getter_cases())
    def test_random_generator_subsets(self, fan):
        rng = random.Random(fan.ray_count * len(fan.max_cones))
        elements = fan_automorphisms(fan).elements
        for k in (0, 1, 2, 3):
            gens = rng.sample(elements, min(k, len(elements)))
            action = action_from_generators(fan, gens)
            assert expanded(action) == _expanded_entry_by_entry(action_from_generators(fan, gens))


# --- change of basis ---------------------------------------------------------


def _harness_fans():
    """(fan, generators every action holds): the named families of rank >= 2
    (``random_unimodular`` needs n >= 2) with none, and the smooth census at
    H <= 4 with the S3 it is invariant under."""
    fans = [(fan, []) for _, fan in named_family_corpus() if fan.rank >= 2]
    for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
        census = families.enumerate_invariant_fans(lattice, height=4, max_rays=24, require_smooth=True)
        fans += [(fan, list(lattice.s3_matrices())) for fan in census]
    return fans


def _inverse(g):
    det, adjugate = g.det_adjugate()
    return adjugate if det == 1 else -adjugate


def _basis_free_outputs(fan, action, datum):
    """What no change of basis may move: check's flags, class group, block
    sizes, group order, orbit sizes, invariant rho and Galois form; mmp's
    explore-all trace count and terminal labels, or its refusal; the word key."""
    payload, _ = _report_payload(fan, action, datum)
    check = [payload[key] for key in ("simplicial", "complete", "smooth", "class_group", "group_order")]
    check += [sorted(payload["block_sizes"]), sorted(map(len, payload["ray_orbits"]))]
    check += [payload["invariant_picard_number"], payload.get("galois_form")]
    try:
        root = contract(fan, action, first_only=False)
    except PreconditionError as exc:
        mmp = exc.reason
    else:
        labels = collections.Counter()
        for (_, label), count in terminal_counts(root).items():
            labels[str(label)] += count
        mmp = root[0], sorted(labels.items())
    return check, mmp, word_key_from_rays(fan.rays) if fan.rank == 2 else None


class TestChangeOfBasis:
    """A fan, a group and a Galois involution moved by g in GL_n(Z), each
    element h to g h g^-1, give the same basis-free outputs."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.sampled_from(_harness_fans()),
            st.integers(0, 10**6).map(lambda seed: (families.random_blowup_surface_fan(random.Random(seed), max_rays=9), [])),
        ),
        st.integers(0, 10**6),
        st.data(),
    )
    def test_outputs_are_invariant(self, case, seed, data):
        # Blow-ups of P2 come with no generators, the other fans as listed.
        fan, base = case
        elements = fan_automorphisms(fan).elements
        gens = base + data.draw(st.lists(st.sampled_from(elements), max_size=2))
        ident = IntMatrix.identity(fan.rank)
        taus = [t for t in elements if t @ t == ident and all(t @ h == h @ t for h in gens)]
        tau = data.draw(st.sampled_from(taus)) if taus and data.draw(st.booleans()) else None
        expected = _basis_free_outputs(fan, action_from_generators(fan, gens), None if tau is None else GaloisDatum(tau=tau))
        g = random_unimodular(random.Random(seed), fan.rank)
        g_inverse = _inverse(g)
        moved = transform_fan(g, fan)
        moved_gens = [g @ h @ g_inverse for h in gens]
        moved_datum = None if tau is None else GaloisDatum(tau=g @ tau @ g_inverse)
        assert _basis_free_outputs(moved, action_from_generators(moved, moved_gens), moved_datum) == expected
