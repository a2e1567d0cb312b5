import itertools

import pytest

from toricsym import families
from toricsym.acceptance import named_family_corpus
from toricsym.divisors import (
    class_group,
    derive_block_relation,
    ray_blocks,
    relation_lattice,
)
from toricsym.errors import PreconditionError
from toricsym.intlin import FGAbelianGroup, IntMatrix, solve_integer_status


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
            matrix = fan.ray_matrix()
            d = fan.ray_count
            for i, j in itertools.combinations(range(d), 2):
                target = tuple(
                    (1 if k == i else 0) - (1 if k == j else 0) for k in range(d)
                )
                solvable = solve_integer_status(matrix, target)[0] == "ok"
                assert solvable == ((i, j) in same), (name, i, j)


class TestRelationLattice:
    def test_triangle(self, p2_fan):
        assert relation_lattice(p2_fan).basis == ((1, 1, 1),)

    def test_weighted_space(self):
        assert relation_lattice(families.weighted_p1111m(2)).basis == ((1, 1, 1, 1, 2),)

    def test_bundle_spans_both_relations(self):
        basis = relation_lattice(families.bundle_over_p3(2)).basis
        assert len(basis) == 2
        for relation in [(1, 1, 1, 1, -2, 0), (0, 0, 0, 0, 1, 1)]:
            stacked = IntMatrix.from_rows(list(basis) + [relation])
            assert stacked.rank() == len(basis)

    def test_claim_of_linear_independence(self):
        fan = families.bundle_over_p3(2)
        first_four = IntMatrix.from_rows(fan.rays[:4])
        assert first_four.rank() == 4


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

    def test_anchor_independence_up_to_sign(self):
        fan = families.bundle_over_p3(2)
        reference = derive_block_relation(fan, (0, 1, 2, 3)).relation
        for anchor in (0, 1, 2, 3):
            other = derive_block_relation(fan, (0, 1, 2, 3), anchor=anchor).relation
            assert other in (reference, tuple(-c for c in reference))

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

    def test_duals_pair_correctly_on_all_rays(self):
        fan = families.bundle_over_p3(-2)
        result = derive_block_relation(fan, (0, 1, 2, 3))
        non_anchor = [i for i in result.block if i != result.anchor]
        for u, j in zip(result.dual_vectors, non_anchor):
            for i in range(fan.ray_count):
                expected = (1 if i == j else 0) - (1 if i == result.anchor else 0)
                assert sum(a * b for a, b in zip(u, fan.rays[i])) == expected
