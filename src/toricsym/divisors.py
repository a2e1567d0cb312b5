"""Class groups and the exact-sequence machinery on a complete fan.

The divisor class group is the cokernel of the pairing map R: M -> Z^Sigma(1)
sending a dual vector u to (<u, v_i>)_i over the rays.  One Smith form
U^-1 R V^-1 = S of the ray matrix gives every invariant here: the group from
the invariant factors of S, the class of each ray from U^-1, and the dual
vectors of a grading block from U^-1 and V^-1.  Rays fall into grading blocks
by equality of their classes; the relations among rays are the rows r.. of
U^-1 (r = rank R, where U^-1 R = S V vanishes; a basis, as U^-1 is unimodular).
"""

from __future__ import annotations

from .errors import PreconditionError
from .fan import Fan
from .intlin import FGAbelianGroup, SNFResult, Vector, _reduce_rows, smith_normal_form
from .record import Record

ClassCoords = tuple[Vector, Vector]  # (free coordinates, torsion residues)


def _pairing(fan: Fan) -> SNFResult:
    """Smith form of the ray matrix R (rays as rows, d x n).

    R is injective, and its cokernel the honest class group, exactly when the
    rays span the ambient vector space, i.e. when S has n invariant factors.
    """
    snf = smith_normal_form(fan.ray_matrix())
    if len(snf.invariant_factors) < fan.rank:
        raise PreconditionError("rays-do-not-span", "rays do not span; class group undefined")
    return snf


def _ray_classes(snf: SNFResult) -> tuple[ClassCoords, ...]:
    """The class of ray j is column j of U^-1 read in Z^d / im(S): its rows
    n... are the free coordinates, and each row i < n whose factor s_i > 1 is
    a residue mod s_i (rows with s_i = 1 vanish in the quotient)."""
    factors = snf.invariant_factors
    n = len(factors)
    torsion = [(i, s) for i, s in enumerate(factors) if s > 1]
    return tuple((col[n:], tuple(col[i] % s for i, s in torsion)) for col in zip(*snf.u_inv.entries))


def class_group(fan: Fan) -> tuple[FGAbelianGroup, tuple[ClassCoords, ...]]:
    """Divisor class group plus the class of each ray's divisor.

    Requires the rays to span the ambient vector space (``rays-do-not-span``).
    """
    snf = _pairing(fan)
    torsion = tuple(s for s in snf.invariant_factors if s > 1)
    return FGAbelianGroup(fan.ray_count - fan.rank, torsion), _ray_classes(snf)


class RayBlockPartition(Record):
    """Partition of the rays by equality of divisor classes: the ``blocks``
    of ray indices, and ``sizes``, the multiset of block sizes, descending."""

    __slots__ = ("blocks", "sizes")


def ray_blocks(classes: tuple[ClassCoords, ...]) -> RayBlockPartition:
    """Group ray indices by their ``class_group`` classes; sizes sorted descending."""
    order: dict[ClassCoords, list[int]] = {}
    for i, cls in enumerate(classes):
        order.setdefault(cls, []).append(i)
    blocks = tuple(tuple(v) for v in sorted(order.values(), key=lambda b: b[0]))
    sizes = tuple(sorted((len(b) for b in blocks), reverse=True))
    return RayBlockPartition(blocks, sizes)


def ray_relations(classes: tuple[ClassCoords, ...]) -> tuple[Vector, ...]:
    """A basis of the saturated lattice of integer relations sum_i c_i v_i = 0,
    row reduced, read off the free parts of the ray classes."""
    return _reduce_rows(tuple(zip(*(free for free, _ in classes))))


class BlockRelation(Record):
    """Result of the forced-relation derivation for one grading block.

    ``dual_vectors[j]`` pairs to 1 with the j-th non-anchor block ray, to
    -1 with the anchor ray and to 0 with every other ray; the relation has
    equal coefficients across the block.
    """

    __slots__ = ("block", "anchor", "dual_vectors", "relation")


def derive_block_relation(fan: Fan, block: tuple[int, ...]) -> BlockRelation:
    """Derive a primitive equal-coefficient relation of a block.

    ``block`` must consist of at least two rays with pairwise equal divisor
    classes; it need not be a whole block of ``ray_blocks``, as the
    derivation only uses the linear equivalences inside it.  The anchor is
    the last block ray.  Integer dual vectors u_j with
    <u_j, v_i> = delta_ij - delta_i,anchor for every ray i are read off the
    Smith form that gave the classes, the one Smith form of the call; equal
    classes guarantee they exist over Z, and they pair to the identity with
    the non-anchor block rays, so they are linearly independent.  Every
    other ray is orthogonal to each u_j, so any may join the block.  Two
    shapes are searched: the block alone, when its rays sum to zero, else
    the block plus one other ray c, the first in ray order whose multiple
    the block sum is.  That relation is returned, block coefficients 1; a
    block whose relation needs two or more other rays is refused
    (``no-equal-coefficient-relation``), as block (0, 1) of P^4 is.
    """
    snf = _pairing(fan)
    classes = _ray_classes(snf)
    block = tuple(sorted(block))
    if len(set(block)) != len(block) or any(i < 0 or i >= fan.ray_count for i in block):
        raise PreconditionError("not-a-block", f"{block} is not a set of ray indices")
    if len({classes[i] for i in block}) > 1:
        raise PreconditionError(
            "unequal-classes", f"rays {block} do not share a divisor class"
        )
    if len(block) < 2:
        raise PreconditionError("block-too-small", "the derivation needs a block of size >= 2")
    anchor = block[-1]

    # R u = e_j - e_anchor reads S (V u) = w with w = U^-1 (e_j - e_anchor).
    # Equal classes put e_j - e_anchor in the image of R, so w vanishes from
    # row n on and s_i divides w_i: every quotient below is exact.
    factors = snf.invariant_factors
    base = snf.u_inv.column(anchor)
    duals = tuple(
        snf.v_inv.apply(tuple((w - b) // s for w, b, s in zip(snf.u_inv.column(j), base, factors)))
        for j in block[:-1]
    )
    # x s + y v_c = 0, for the block sum s != 0 and a primitive v_c, has a
    # solution with x != 0 iff s = lam v_c, lam an integer; (1, -lam) spans them.
    coefficients = [0] * fan.ray_count
    for i in block:
        coefficients[i] = 1
    block_sum = tuple(map(sum, zip(*(fan.rays[i] for i in block))))
    if any(block_sum):
        for c, v in enumerate(fan.rays):
            k = next(k for k, x in enumerate(v) if x)
            lam = block_sum[k] // v[k]
            if c not in block and tuple(lam * x for x in v) == block_sum:
                coefficients[c] = -lam
                break
        else:
            raise PreconditionError(
                "no-equal-coefficient-relation",
                "no primitive relation with equal block coefficients exists on the block and its complement rays",
            )
    return BlockRelation(block, anchor, duals, tuple(coefficients))
