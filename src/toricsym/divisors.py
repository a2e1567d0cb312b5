"""Class groups and the exact-sequence machinery on a complete fan.

The divisor class group is the cokernel of the pairing map sending a dual
vector u to (<u, v_i>)_i over the rays; rays fall into grading blocks by
equality of their classes, and relations among rays live in the saturated
kernel of the transposed ray matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .fan import Fan
from .intlin import (
    ClassCoords,
    FGAbelianGroup,
    IntMatrix,
    Vector,
    cokernel_group,
    kernel_basis,
    solve_integer_status,
)


def class_group(fan: Fan) -> tuple[FGAbelianGroup, tuple[ClassCoords, ...]]:
    """Divisor class group plus the class of each ray's divisor.

    Requires the rays to span the ambient vector space, which makes the
    pairing map injective and the quotient the honest class group.
    """
    matrix = fan.ray_matrix()
    if matrix.rank() != fan.rank:
        raise PreconditionError("rays-do-not-span", "rays do not span; class group undefined")
    group, projection = cokernel_group(matrix)
    d = fan.ray_count
    unit = lambda i: tuple(1 if j == i else 0 for j in range(d))
    classes = tuple(projection(unit(i)) for i in range(d))
    return group, classes


@dataclass(frozen=True)
class RayBlockPartition:
    """Partition of the rays by equality of divisor classes."""

    blocks: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]  # multiset of block sizes, descending


def ray_blocks(classes: tuple[ClassCoords, ...]) -> RayBlockPartition:
    """Group ray indices by their ``class_group`` classes; sizes sorted descending."""
    order: dict[ClassCoords, list[int]] = {}
    for i, cls in enumerate(classes):
        order.setdefault(cls, []).append(i)
    blocks = tuple(tuple(v) for v in sorted(order.values(), key=lambda b: b[0]))
    sizes = tuple(sorted((len(b) for b in blocks), reverse=True))
    return RayBlockPartition(blocks=blocks, sizes=sizes)


@dataclass(frozen=True)
class RelationLattice:
    """Saturated lattice of integer relations sum_i c_i v_i = 0."""

    basis: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def relation_lattice(fan: Fan) -> RelationLattice:
    return RelationLattice(basis=kernel_basis(fan.ray_matrix().transpose()))


@dataclass(frozen=True)
class BlockRelation:
    """Result of the forced-relation derivation for one grading block.

    ``dual_vectors[j]`` pairs to 1 with the j-th non-anchor block ray, to
    -1 with the anchor ray and to 0 with every other ray; the relation has
    equal coefficients across the block.
    """

    block: tuple[int, ...]
    anchor: int
    dual_vectors: tuple[Vector, ...]
    relation: Vector


def derive_block_relation(fan: Fan, block: tuple[int, ...], anchor: int | None = None) -> BlockRelation:
    """Derive the unique primitive equal-coefficient relation of a block.

    ``block`` must consist of rays with pairwise equal divisor classes
    (any equal-class subset qualifies; maximality is not required since
    the derivation only uses the linear equivalences inside the block).
    Integer dual vectors u_j with <u_j, v_i> = delta_ij - delta_i,anchor
    are constructed (failure to solve over Z signals a torsion obstruction
    and is reported, not guessed), checked for linear independence, and
    the primitive relation supported on the block plus the rays orthogonal
    to every u_j is returned, sign-normalized so the block coefficient is
    positive.
    """
    _, classes = class_group(fan)
    block = tuple(sorted(block))
    if len(set(block)) != len(block) or any(i < 0 or i >= fan.ray_count for i in block):
        raise PreconditionError("not-a-block", f"{block} is not a set of ray indices")
    if len({classes[i] for i in block}) > 1:
        raise PreconditionError(
            "unequal-classes", f"rays {block} do not share a divisor class"
        )
    if len(block) < 2:
        raise PreconditionError("block-too-small", "the derivation needs a block of size >= 2")
    if anchor is None:
        anchor = block[-1]
    if anchor not in block:
        raise PreconditionError("anchor", "anchor must belong to the block")

    matrix = fan.ray_matrix()
    d = fan.ray_count
    duals = []
    for j in block:
        if j == anchor:
            continue
        target = tuple((1 if i == j else 0) - (1 if i == anchor else 0) for i in range(d))
        status, u = solve_integer_status(matrix, target)
        if status == "not-integral":
            raise PreconditionError(
                "torsion-obstruction",
                f"dual vector for ray {j} exists rationally but not integrally",
            )
        if status == "no-solution":
            raise PreconditionError(
                "no-dual-vector", f"no dual vector separates rays {j} and {anchor}"
            )
        duals.append(u)
    if IntMatrix.from_rows(duals).rank() != len(duals):
        raise PreconditionError("dependent-duals", "dual vectors are linearly dependent")

    complement = [
        i
        for i in range(d)
        if i not in block and all(sum(a * b for a, b in zip(u, fan.rays[i])) == 0 for u in duals)
    ]
    block_sum = tuple(sum(fan.rays[i][k] for i in block) for k in range(fan.rank))

    if not any(block_sum):
        coefficients = [0] * d
        for i in block:
            coefficients[i] = 1
        return BlockRelation(block, anchor, tuple(duals), tuple(coefficients))

    for c in complement:
        columns = IntMatrix.from_columns([block_sum, fan.rays[c]])
        basis = kernel_basis(columns)
        if len(basis) != 1 or basis[0][0] == 0:
            continue
        x, y = basis[0]
        if x < 0:
            x, y = -x, -y
        coefficients = [0] * d
        for i in block:
            coefficients[i] = x
        coefficients[c] = y
        return BlockRelation(block, anchor, tuple(duals), tuple(coefficients))

    raise PreconditionError(
        "no-equal-coefficient-relation",
        "no primitive relation with equal block coefficients exists on the block and its complement rays",
    )
