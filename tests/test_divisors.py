import itertools
import random
import sys
from pathlib import Path

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from toricsym import divisors, families
from toricsym.acceptance import named_family_corpus
from toricsym.cli import _report_payload
from toricsym.divisors import (
    class_group,
    derive_block_relation,
    ray_blocks,
    ray_relations,
)
from toricsym.errors import PreconditionError
from toricsym.fan import Fan, Lattice
from toricsym.intlin import FGAbelianGroup, IntMatrix, kernel_basis, primitive_vector

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
try:
    from oracle import equal_class_pairs  # exact rational solve of R u = e_i - e_j
finally:
    sys.path.pop(0)


class TestClassGroup:
    def test_triangle(self, p2_fan):
        group, classes = class_group(p2_fan)
        assert group == FGAbelianGroup(free_rank=1)
        assert len(set(classes)) == 1

    def test_weighted_space_classes_scale_with_the_weight(self):
        fan = families.weighted_p1111m(2)
        group, classes = class_group(fan)
        assert group == FGAbelianGroup(free_rank=1)
        base = classes[0]
        assert classes[1] == classes[2] == classes[3] == base
        assert abs(base[0][0]) == 1
        assert classes[4][0][0] == 2 * base[0][0]

    def test_hexagon(self, hexagon_n2):
        group, classes = class_group(hexagon_n2)
        assert group == FGAbelianGroup(free_rank=4)
        assert len(set(classes)) == 6

    def test_spanning_is_required(self):
        from toricsym.fan import Lattice, make_fan

        fan = make_fan(
            Lattice.standard(3),
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
            [(0, 2), (2, 1), (1, 3), (3, 0)],
        )
        with pytest.raises(PreconditionError):
            class_group(fan)

    def test_rank_law_on_named_corpus(self):
        for name, fan in named_family_corpus():
            group, _ = class_group(fan)
            assert group.free_rank == fan.ray_count - fan.rank, name


class TestRayBlocks:
    def test_projective_four_space(self):
        assert ray_blocks(class_group(families.projective_space(4))[1]).sizes == (5,)

    @pytest.mark.parametrize("a", [-2, -1, 1, 2])
    def test_bundle_blocks(self, a):
        assert ray_blocks(class_group(families.bundle_over_p3(a))[1]).sizes == (4, 1, 1)

    def test_bundle_blocks_merge_at_zero_twist(self):
        assert ray_blocks(class_group(families.bundle_over_p3(0))[1]).sizes == (4, 2)

    @pytest.mark.parametrize("a", [-2, -1, 1, 2])
    def test_rank3_bundle_blocks(self, a):
        assert ray_blocks(class_group(families.bundle_over_p1xp1(a))[1]).sizes == (2, 2, 1, 1)

    def test_blocks_partition_the_rays(self):
        for name, fan in named_family_corpus():
            partition = ray_blocks(class_group(fan)[1])
            flat = sorted(itertools.chain.from_iterable(partition.blocks))
            assert flat == list(range(fan.ray_count)), name

    def test_blocks_match_direct_solvability(self):
        # two rays share a block iff a dual vector pairs to (1, -1, 0, ..)
        for name, fan in named_family_corpus():
            if fan.ray_count > 8:
                continue
            partition = ray_blocks(class_group(fan)[1])
            same = {
                (i, j)
                for block in partition.blocks
                for i in block
                for j in block
                if i < j
            }
            assert equal_class_pairs(fan.rays) == same, name


def relations(fan):
    """The relation lattice of a fan's rays, read off its class group."""
    return ray_relations(class_group(fan)[1])


class TestRelationLattice:
    def test_triangle(self, p2_fan):
        assert relations(p2_fan).basis == ((1, 1, 1),)

    def test_weighted_space(self):
        assert relations(families.weighted_p1111m(2)).basis == ((1, 1, 1, 1, 2),)

    def test_bundle_spans_both_relations(self):
        basis = relations(families.bundle_over_p3(2)).basis
        assert len(basis) == 2
        for relation in [(1, 1, 1, 1, -2, 0), (0, 0, 0, 0, 1, 1)]:
            stacked = IntMatrix.from_rows(list(basis) + [relation])
            assert stacked.rank() == len(basis)

    def test_claim_of_linear_independence(self):
        fan = families.bundle_over_p3(2)
        first_four = IntMatrix.from_rows(fan.rays[:4])
        assert first_four.rank() == 4


def _equal_class_blocks(fan):
    """Every set of 2-4 rays that share a divisor class."""
    for block in ray_blocks(class_group(fan)[1]).blocks:
        for size in range(2, min(len(block), 4) + 1):
            yield from itertools.combinations(block, size)


def _dual_vector_corpus():
    rng = random.Random(15)
    blowups = [(f"random-blowup-{k}", families.random_blowup_surface_fan(rng, max_rays=10)) for k in range(50)]
    return named_family_corpus() + blowups


class TestDeriveBlockRelation:
    def test_weighted_space_with_explicit_dual(self):
        fan = families.weighted_p1111m(2)
        result = derive_block_relation(fan, (0, 1, 2, 3))
        assert result.relation == (1, 1, 1, 1, 2)
        assert result.dual_vectors[0] == (1, 0, 0, 0)
        assert result.anchor == 3

    @pytest.mark.parametrize("a", range(-2, 3))
    def test_bundle_relation(self, a):
        fan = families.bundle_over_p3(a)
        result = derive_block_relation(fan, (0, 1, 2, 3))
        assert result.relation == (1, 1, 1, 1, -a, 0)

    def test_triangle_full_block(self, p2_fan):
        result = derive_block_relation(p2_fan, (0, 1, 2))
        assert result.relation == (1, 1, 1)

    def test_relation_lies_in_the_relation_lattice(self):
        for fan in [families.weighted_p1111m(3), families.bundle_over_p3(-1)]:
            result = derive_block_relation(fan, (0, 1, 2, 3))
            residual = fan.ray_matrix().transpose().apply(result.relation)
            assert residual == (0,) * fan.rank

    def test_unequal_classes_are_rejected(self):
        fan = families.weighted_p1111m(2)
        with pytest.raises(PreconditionError) as err:
            derive_block_relation(fan, (0, 4))
        assert err.value.reason == "unequal-classes"

    def test_size_one_block_is_rejected(self):
        fan = families.weighted_p1111m(2)
        with pytest.raises(PreconditionError):
            derive_block_relation(fan, (4,))

    def test_equal_class_subset_works_at_the_degenerate_weight(self):
        # at m = 1 all five rays share a class; the size-4 subset still
        # derives the defining relation
        fan = families.weighted_p1111m(1)
        result = derive_block_relation(fan, (0, 1, 2, 3))
        assert result.relation == (1, 1, 1, 1, 1)

    @pytest.mark.parametrize("block", [(0, 1), (0, 1, 2)])
    def test_relation_needing_several_complement_rays_is_refused(self, block):
        # The rays of P^4 sum to zero: (1, 1, 1, 1, 1) has equal block
        # coefficients, but needs every complement ray, and only one is tried.
        with pytest.raises(PreconditionError) as err:
            derive_block_relation(families.projective_space(4), block)
        assert err.value.reason == "no-equal-coefficient-relation"

    def test_duals_pair_correctly_on_all_rays(self):
        # Every equal-class set of 2-4 rays of the named corpus and 50
        # seeded blow-ups that has a relation.
        blocks = 0
        for name, fan in _dual_vector_corpus():
            for block in _equal_class_blocks(fan):
                try:
                    result = derive_block_relation(fan, block)
                except PreconditionError as err:
                    assert err.reason == "no-equal-coefficient-relation", (name, block)
                    continue
                blocks += 1
                assert result.anchor == block[-1]
                for u, j in zip(result.dual_vectors, block[:-1], strict=True):
                    for i, v in enumerate(fan.rays):
                        expected = (i == j) - (i == result.anchor)
                        assert sum(a * b for a, b in zip(u, v)) == expected, (name, block, j, i)
        assert blocks >= 50

    def test_one_smith_form_per_call(self, monkeypatch):
        fan = families.bundle_over_p3(2)
        calls = []
        original = divisors.smith_normal_form
        monkeypatch.setattr(divisors, "smith_normal_form", lambda a: calls.append(a) or original(a))
        with monkeypatch.context() as patch:
            patch.setattr(IntMatrix, "rank", lambda self: pytest.fail("class_group ranks a matrix"))
            class_group(fan)
        assert len(calls) == 1
        derive_block_relation(fan, (0, 1, 2, 3))
        assert len(calls) == 2


def _shear(rng: random.Random, n: int) -> IntMatrix:
    """A random unimodular triangular matrix."""
    lower = rng.random() < 0.5
    return IntMatrix.from_rows(
        [[int(i == k) + (i != k and (i > k) == lower) * rng.randint(-2, 2) for k in range(n)] for i in range(n)]
    )


def _random_rays(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Distinct primitive rays spanning Q^n, often with torsion, often with
    several rays in one class.

    Either the unit vectors, negated weighted sums of some of them (which
    put several rays in one class) and small vectors, sent through a random
    integer matrix B of determinant 1 to 4, redrawn until every image is
    primitive, so that the rays span the index-det(B) sublattice B Z^n; or,
    in rank >= 3, such a set in rank n - 1 times P^1, whose two rays share
    a class beside the factor's torsion, sent through a unimodular matrix.
    """
    if n >= 3 and rng.random() < 0.4:
        unit = tuple(int(k == n - 1) for k in range(n))
        rays = [v + (0,) for v in _random_rays(rng, n - 1)] + [unit, tuple(-x for x in unit)]
        mix = _shear(rng, n) @ _shear(rng, n)
        images = [mix.apply(v) for v in rays]
    else:
        rays = [tuple(int(i == k) for k in range(n)) for i in range(n)]
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(n), rng.randint(1, n))
            rays.append(tuple(-rng.choice((1, 1, 2)) * (k in support) for k in range(n)))
        for _ in range(rng.randint(0, 2)):
            rays.append(tuple(rng.randint(-2, 2) for _ in range(n)))
        rays = list(dict.fromkeys(primitive_vector(v) for v in rays if any(v)))
        for _ in range(100):
            scale = [[int(i == k) for k in range(n)] for i in range(n)]
            scale[-1][-1] = rng.randint(1, 4)
            b = _shear(rng, n) @ _shear(rng, n) @ IntMatrix.from_rows(scale) @ _shear(rng, n)
            images = [b.apply(v) for v in rays]
            if all(primitive_vector(w) == w for w in images):
                break
        else:
            images = rays
    rng.shuffle(images)
    return images


def _ray_set_fan(rays) -> Fan:
    # The class group reads only the rays; each ray is its own cone.
    return Fan(Lattice.standard(len(rays[0])), tuple(rays), tuple((i,) for i in range(len(rays))))


class TestAgainstSympy:
    """Seeded random spanning ray sets in rank 2-5, many with torsion and
    with several rays in one class, against sympy's invariant factors and
    the exact rational solve of R u = e_i - e_j."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_groups_classes_and_blocks(self, n):
        rng = random.Random(15 + n)
        with_torsion = with_shared_class = with_both = 0
        for _ in range(60):
            rays = _random_rays(rng, n)
            group, classes = class_group(_ray_set_fan(rays))
            factors = [int(x) for x in invariant_factors(Matrix(rays), domain=ZZ)]
            assert group == FGAbelianGroup(len(rays) - n, tuple(x for x in factors if x > 1)), rays
            pairs = equal_class_pairs(rays)
            assert {(i, j) for i, j in itertools.combinations(range(len(rays)), 2) if classes[i] == classes[j]} == pairs, rays
            blocks = ray_blocks(classes).blocks
            assert {(i, j) for b in blocks for i, j in itertools.combinations(b, 2)} == pairs, rays
            assert sorted(itertools.chain.from_iterable(blocks)) == list(range(len(rays)))
            with_torsion += bool(group.torsion)
            with_shared_class += bool(pairs)
            with_both += bool(group.torsion and pairs)
        assert min(with_torsion, with_shared_class) >= 5, (with_torsion, with_shared_class)
        # In rank 2, D_i ~ D_j puts every other ray on the line u^perp, and
        # <u, v_i> = 1 makes v_i and that line a basis: no torsion is left.
        assert n == 2 or with_both >= 5, with_both

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rays_in_a_hyperplane_are_refused(self, n):
        rng = random.Random(15 + n)
        for _ in range(10):
            rays = [v[:-1] + (0,) for v in _random_rays(rng, n) if any(v[:-1])]
            with pytest.raises(PreconditionError) as err:
                class_group(_ray_set_fan(rays))
            assert err.value.reason == "rays-do-not-span"


class TestRelationsFromTheClassGroup:
    """The relation basis is read off the Smith form that gives the class
    group; it equals the reduced saturated kernel of the transposed ray
    matrix where the rays span, and rays that do not span have no class
    group."""

    @staticmethod
    def _corpus():
        rng = random.Random(28)
        fans = [fan for _, fan in _dual_vector_corpus()]
        for n in (2, 3, 4, 5):
            for _ in range(25):
                rays = _random_rays(rng, n)
                fans.append(_ray_set_fan(rays))
                flat = [v[:-1] + (0,) for v in rays if any(v[:-1])]
                fans.append(_ray_set_fan(list(dict.fromkeys(primitive_vector(v) for v in flat))))
        return fans

    def test_equals_the_kernel_of_the_transpose(self):
        fans, spanning = self._corpus(), 0
        for fan in fans:
            if fan.ray_matrix().rank() == fan.rank:
                spanning += 1
                assert relations(fan).basis == kernel_basis(fan.ray_matrix().transpose()), fan.rays
            else:
                with pytest.raises(PreconditionError, match="do not span"):
                    class_group(fan)
        assert 100 < spanning < len(fans)

    @pytest.mark.parametrize("name", ["bundle-over-p3:2", "weighted-p1111m:3", "projective-space:4"])
    def test_one_smith_form_per_check_report(self, name, monkeypatch):
        fan = families.make_family_fan(name)[0]
        calls = []
        original = divisors.smith_normal_form
        monkeypatch.setattr(divisors, "smith_normal_form", lambda a: calls.append(a) or original(a))
        payload, _ = _report_payload(fan, None, None)
        assert len(calls) == 1
        assert payload["relation_basis"] == [list(v) for v in kernel_basis(fan.ray_matrix().transpose())]
