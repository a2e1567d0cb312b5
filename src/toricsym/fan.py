"""Lattices, rational polyhedral fans and their structural predicates.

Supports the standard lattices Z^n and the two rank-2 lattices carrying a
coordinate-permutation action of the symmetric group on three letters:
the sum-zero sublattice of Z^3 and the quotient Z^3 / Z(1,1,1).

Surface fans are stored with rays sorted counterclockwise starting from
the lexicographically least primitive vector, so equal fans compare equal.
Their ``word`` is (b, a) of that cycle, which ``_splice`` (an orbit blow-up)
and ``_blow_down`` (its inverse) update together.  All predicates
(complete / simplicial / smooth) are decided exactly.  Fan isomorphisms
come from a cone-seeded search, whose ``_read_off`` is the one place that
turns a ray map into a matrix, W adj(B) / det(B).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Collection, Iterable, Sequence

from .errors import ParseError, PreconditionError
from .intlin import IntMatrix, Vector, _as_int, _det, primitive_vector, smith_normal_form
from .record import Record

_S3_PERMUTATIONS = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1))


class Lattice(Record):
    """A lattice together with its ambient presentation.

    kind "standard": Z^rank, ambient coordinates are lattice coordinates.
    kind "rootA2":   {(x,y,z) in Z^3 : x+y+z = 0} with basis (1,-1,0), (0,1,-1).
    kind "weightA2": Z^3 / Z(1,1,1) with basis the classes of e1, e2.
    """

    __slots__ = ("kind", "rank")

    def __post_init__(self):
        if self.kind == "standard":
            if self.rank < 1:
                raise ValueError("standard lattice needs rank >= 1")
        elif self.kind in ("rootA2", "weightA2"):
            if self.rank != 2:
                raise ValueError(f"{self.kind} has rank 2")
        else:
            raise ValueError(f"unknown lattice kind {self.kind!r}")

    @classmethod
    def standard(cls, n: int) -> "Lattice":
        return cls("standard", n)

    @classmethod
    def root_a2(cls) -> "Lattice":
        return cls("rootA2", 2)

    @classmethod
    def weight_a2(cls) -> "Lattice":
        return cls("weightA2", 2)

    def label(self) -> str:
        return f"standard:{self.rank}" if self.kind == "standard" else self.kind

    @classmethod
    @functools.lru_cache(maxsize=16)
    def from_label(cls, label: str) -> "Lattice":
        if label in ("rootA2", "weightA2"):
            return cls(label, 2)
        if label.startswith("standard:"):
            try:
                return cls.standard(int(label.split(":", 1)[1]))
            except ValueError as exc:
                raise ParseError(f"bad lattice label {label!r}") from exc
        raise ParseError(f"unknown lattice label {label!r}")

    def coords(self, v: Sequence[int]) -> Vector:
        """Lattice coordinates of an ambient vector."""
        v = tuple(v)
        if self.kind == "standard":
            if len(v) != self.rank:
                raise PreconditionError("ambient-dim", f"expected length {self.rank}, got {len(v)}")
            return v
        if len(v) != 3:
            raise PreconditionError("ambient-dim", f"{self.kind} vectors live in Z^3, got length {len(v)}")
        x, y, z = v
        if self.kind == "rootA2":
            if x + y + z != 0:
                raise PreconditionError("coordinate-sum", f"{v} has nonzero coordinate sum")
            return (x, -z)
        return (x - z, y - z)

    def embed(self, coords: Sequence[int]) -> Vector:
        """A distinguished ambient representative of lattice coordinates."""
        if self.kind == "standard":
            return tuple(coords)
        a, b = coords
        if self.kind == "rootA2":
            return (a, b - a, -b)
        return (a, b, 0)

    def accept_ray(self, v: Sequence[int]) -> Vector:
        """Interpret a ray given in either lattice or ambient coordinates."""
        v = tuple(v)
        if self.kind != "standard" and len(v) == 3:
            return self.coords(v)
        if len(v) != self.rank:
            raise PreconditionError(
                "ambient-dim",
                f"ray {v} has length {len(v)}, expected {self.rank}"
                + (" or 3" if self.kind != "standard" else ""),
            )
        return v

    def s3_matrices(self) -> tuple[IntMatrix, IntMatrix]:
        """Matrices of the transposition (0 1) and the 3-cycle (0 1 2)."""
        if self.kind == "standard":
            raise PreconditionError("lattice-kind", "coordinate permutations act on the A2 lattices")
        return (self._perm_matrix((1, 0, 2)), self._perm_matrix((1, 2, 0)))

    def _perm_matrix(self, perm: tuple[int, int, int]) -> IntMatrix:
        return IntMatrix.from_columns([self._permuted(perm, e) for e in ((1, 0), (0, 1))])

    def _permuted(self, perm: tuple[int, int, int], v: Sequence[int]) -> Vector:
        """Lattice coordinates of v with ambient coordinate i moved to perm[i]."""
        amb, moved = self.embed(v), [0, 0, 0]
        for i, p in enumerate(perm):
            moved[p] = amb[i]
        return self.coords(moved)

    def s3_orbit(self, v: Sequence[int]) -> tuple[Vector, ...]:
        """Orbit of a lattice-coordinate vector under coordinate permutations."""
        return tuple(sorted({self._permuted(perm, v) for perm in _S3_PERMUTATIONS}))


def _cross(v: Vector, w: Vector) -> int:
    return v[0] * w[1] - v[1] * w[0]


def _ccw_sort(rays: Sequence[Vector]) -> list[Vector]:
    """Counterclockwise order of distinct primitive rays from the direction
    (1, 0), by an exact integer key: the half-plane, the ray on the x-axis
    first, then floor(-x M / y) with M = 1 + max|coordinate|^2.  -x/y grows
    with the angle in each half-plane, and for two directions differs by
    |det(v, w)| / |y_v y_w| >= 1 / (M - 1), so times M their floors differ."""
    m = 1 + max(map(abs, itertools.chain.from_iterable(rays)), default=0) ** 2

    def key(v: Vector) -> tuple[bool, bool, int]:
        x, y = v
        if y:
            return y < 0, True, -x * m // y
        return x < 0, False, 0

    return sorted(rays, key=key)


class Fan(Record):
    """A fan on a ``Lattice``: primitive ``rays`` (tuples) plus ``max_cones``
    as tuples of ray indices.

    Rank-2 fans are canonicalized (rays counterclockwise from the
    lexicographically least vector, cones = adjacent pairs); higher-rank
    fans keep the given ray order and sort the cone list.
    """

    __slots__ = ("lattice", "rays", "max_cones", "__dict__")

    def __init__(self, lattice: Lattice, rays: tuple[Vector, ...], max_cones: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", max_cones)

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    def ray_matrix(self) -> IntMatrix:
        """Rays as rows (the pairing map of the class-group sequence)."""
        return IntMatrix._of(self.rays)

    def cone_matrix(self, cone: Sequence[int]) -> IntMatrix:
        return IntMatrix._of(tuple(self.rays[i] for i in cone))

    def ray_index(self, v: Vector) -> int:
        return self.rays.index(v)

    @functools.cached_property
    def word(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(b, a) of a rank-2 fan's stored ray cycle: b_i = det(v_i, v_{i+1}), kept
        from ``_cycle_fan``'s test, and a_i = det(v_{i-1}, v_{i+1}), taken on first use."""
        return self.__dict__.pop("_b", None) or _cycle_dets(self.rays), _cycle_profile(self.rays)


def _primitive_rays(lattice: Lattice, rays: Iterable[Sequence[int]]) -> list[Vector]:
    """Primitive lattice generators of the input rays, each checked once.

    This is where ray entries enter the program: ``math.gcd`` refuses
    non-integers and ``_as_int`` (on a ray not primitive or not all ints)
    what else has an integer index, so the fan's matrices are built unchecked."""
    converted = [lattice.accept_ray(v) for v in rays]
    if not all(map(any, converted)):
        raise PreconditionError("zero-ray", "zero vector cannot generate a ray")
    prim = [
        v if (g := math.gcd(*v)) == 1 and set(map(type, v)) == {int} else tuple(map(_as_int, (x // g for x in v)))
        for v in converted
    ]
    if len(set(prim)) != len(prim):
        raise PreconditionError("parallel-rays", "two rays share a primitive generator")
    return prim


def make_fan(lattice: Lattice, rays: Iterable[Sequence[int]], max_cones: Iterable[Sequence[int]] | None = None) -> Fan:
    """Validating constructor; accepts ambient coordinates for A2 lattices."""
    prim = _primitive_rays(lattice, rays)
    n, d = lattice.rank, len(prim)
    if max_cones is None:
        if n > 2:
            raise PreconditionError("cones-required", f"rank-{n} fans need explicit max_cones")
        return _cycle_fan(lattice, prim) if n == 2 else Fan(lattice, tuple(prim), tuple((i,) for i in range(d)))
    # A cone is simplicial iff its rays are independent: with n rays (the
    # rank) iff their determinant is non-zero, with more never.  All indices
    # are checked at once when they pass; else cone by cone, in order.
    cones, max_cones = [], list(max_cones)
    flat = list(itertools.chain.from_iterable(max_cones))
    checked = set(map(type, flat)) <= {int} and all(max_cones) and 0 <= min(flat, default=0) <= max(flat, default=0) < d
    for cone in max_cones:
        idx = tuple(sorted(set(cone if checked else map(_as_int, cone))))
        if not (checked or idx):
            raise PreconditionError("empty-cone", "a given cone has no rays")
        if not checked and (idx[0] < 0 or idx[-1] >= d):
            raise PreconditionError("cone-index", f"cone {cone} references a missing ray")
        rows = [prim[i] for i in idx]
        if len(idx) > n or not (_det(rows) if len(idx) == n else IntMatrix._of(tuple(rows)).rank() == len(idx)):
            raise PreconditionError("non-simplicial-cone", f"cone {idx} has linearly dependent generators")
        cones.append(idx)
    if n == 2:
        fan = _cycle_fan(lattice, prim)
        given = sorted(tuple(sorted(prim[i] for i in cone)) for cone in cones)
        expected = sorted(tuple(sorted(fan.rays[i] for i in cone)) for cone in fan.max_cones)
        if given != expected:
            raise PreconditionError("cone-mismatch", "explicit surface cones disagree with the complete fan")
        return fan
    return Fan(lattice, tuple(prim), tuple(sorted(set(cones))))


def build_surface_fan(lattice: Lattice, rays: Iterable[Sequence[int]]) -> Fan:
    """Complete surface fan determined by its rays.

    Rays are primitivized and put in counterclockwise order; maximal cones are
    all adjacent pairs.  Raises when fewer than 3 rays remain, when two
    rays are positively parallel, or when some angular gap reaches a half
    turn (the ray set only spans a half-plane).
    """
    if lattice.rank != 2:
        raise PreconditionError("rank", "surface fans have rank 2")
    return _cycle_fan(lattice, _primitive_rays(lattice, rays))


def _cycle_dets(cycle: Sequence[Vector]) -> tuple[int, ...]:
    """The cone determinants b_i = det(v_i, v_{i+1}) of a cyclic ray sequence.

    A counterclockwise cycle of at least 3 rays, as a rank-2 fan stores
    them, is complete iff every b_i > 0, and then smooth iff every b_i = 1:
    each cone's two rays are then a basis of the lattice (Oda 1.6)."""
    d = len(cycle)
    return tuple(_cross(cycle[i], cycle[(i + 1) % d]) for i in range(d))


def _cycle_profile(cycle: Sequence[Vector]) -> tuple[int, ...]:
    """The a_i = det(v_{i-1}, v_{i+1}) of a cyclic ray sequence, ray by ray:
    on a smooth cycle det(v_{i-1}, v_i) = 1, so v_{i-1} + v_{i+1} = a_i v_i."""
    d = len(cycle)
    return tuple(_cross(cycle[i - 1], cycle[(i + 1) % d]) for i in range(d))


def _cycle_winds_once(cycle: Sequence[Vector]) -> bool:
    """Whether a cyclic ray sequence with every b_i > 0 goes once round the
    origin.  Each step v_i -> v_{i+1} then turns counterclockwise by less
    than a half turn, and it crosses the half-line through (1, 0) exactly
    when y_i < 0 <= y_{i+1} (half-open), so the crossings count the turns."""
    d = len(cycle)
    return sum(cycle[i][1] < 0 <= cycle[(i + 1) % d][1] for i in range(d)) == 1


def _cycle_fan(lattice: Lattice, rays: list[Vector]) -> Fan:
    """The complete surface fan on distinct primitive rays, stored from the least: their
    cycle as given if it winds once with each det(v_{i-1}, v_i) > 0, as the program
    writes and builds rays, else sorted first.  The b tested is left for its ``word``."""
    if len(rays) < 3:
        raise PreconditionError("too-few-rays", "a complete surface fan needs at least 3 rays")
    b = _cycle_dets(rays)
    if not (min(b) > 0 and _cycle_winds_once(rays)):
        rays = _ccw_sort(rays)
        if min(b := _cycle_dets(rays)) <= 0:
            raise PreconditionError("incomplete", "angular gap of at least a half turn: rays do not span a complete fan")
    start = rays.index(min(rays))
    fan = Fan(lattice, tuple(rays[start:] + rays[:start]), _cycle_cones(len(rays)))
    fan.__dict__["_b"] = b[start:] + b[:start]
    return fan


@functools.cache
def _cycle_cones(d: int) -> tuple[tuple[int, int], ...]:
    """The maximal cones of a stored d-ray cycle: the adjacent pairs, sorted."""
    return tuple(sorted(tuple(sorted((i, (i + 1) % d))) for i in range(d)))


def _splice(cycle: list[Vector], a: Sequence[int], new_rays: Collection[Vector]) -> tuple[list[Vector], list[int]]:
    """Blow up each cone (v_j, v_{j+1}) of a smooth ccw ray cycle, with word
    a, whose ray sum w is in ``new_rays``: w goes in between with a = 1, and
    a_j and a_{j+1} rise by 1 (v_{j-1} + w = (a_j + 1) v_j)."""
    sums = [(v[0] + w[0], v[1] + w[1]) for v, w in zip(cycle, cycle[1:] + cycle[:1])]
    hit = [w in new_rays for w in sums]
    spliced, word = [], []
    for j, v in enumerate(cycle):
        spliced.append(v)
        word.append(a[j] + hit[j - 1] + hit[j])
        if hit[j]:
            spliced.append(sums[j])
            word.append(1)
    return spliced, word


def _blow_down(cycle: tuple[Vector, ...], word: tuple[int, ...], at: tuple[int, ...], orbit: tuple[int, ...]):
    """The inverse of ``_splice``: the cycle, word a and ray labels ``at``, stored from the
    least ray, left by contracting ``orbit``, pairwise non-adjacent (-1)-rays of a ``cycle``
    so stored.  As v_i = v_{i-1} + v_{i+1}, a_{i-1} = det(v_{i-2}, v_i) falls by 1 (Oda 1.6),
    as does a_{i+1}, and a ray between two removed rays loses 2."""
    d, word, keep = len(cycle), list(word), [True] * len(cycle)
    for i in orbit:
        keep[i] = False
        word[i - 1] -= 1
        word[(i + 1) % d] -= 1
    kept = list(itertools.compress(range(d), keep))
    if orbit[0] == 0:  # the stored cycle starts at its least ray, which goes
        start = kept.index(min(kept, key=cycle.__getitem__))
        kept = kept[start:] + kept[:start]
    get = operator.itemgetter(*kept)  # a smooth complete fan keeps at least 3 rays, so each is a tuple
    return get(cycle), get(word), get(at)


def _smooth_word(fan: Fan, who: str) -> tuple[int, ...]:
    """The a of a smooth complete surface fan's ``word``, else ``who``'s refusal at its first fault
    of rank, completeness, winding once and smoothness.  The word decides all but a singular
    cycle's winding: d cones of det 1 winding k times have sum a_i = 3d - 12k (legal loops,
    Poonen and Rodriguez-Villegas 2000; Noether's formula at k = 1)."""
    if fan.rank != 2:
        raise PreconditionError("rank", f"{who} needs a surface fan (rank 2)")
    b, a = fan.word
    d = len(b)
    if d < 3 or min(b) <= 0:
        raise PreconditionError("incomplete", f"{who} needs a complete fan")
    smooth = b.count(1) == d
    if not (sum(a) == 3 * d - 12 if smooth else _cycle_winds_once(fan.rays)):
        raise PreconditionError("overlapping-cones", f"{who} needs a ray cycle that winds once round the origin")
    if not smooth:
        raise PreconditionError("not-smooth", f"{who} needs a smooth fan")
    return a


class FanReport(Record):
    """Structural flags of a fan (smooth implies simplicial)."""

    __slots__ = ("simplicial", "complete", "smooth")


def cone_invariant_factors(fan: Fan, cone: Sequence[int]) -> Vector:
    """Invariant factors of the sublattice spanned by a cone's rays."""
    return smith_normal_form(fan.cone_matrix(cone)).invariant_factors


def _dot(v: Sequence[int], w: Sequence[int]) -> int:
    return sum(map(operator.mul, v, w))


def _complete_rank_ge3(fan: Fan, det_adj: list[tuple[int, IntMatrix]]) -> bool:
    """Completeness of a simplicial fan, given det B and adj B of each cone;
    in rank 1 the one wall is the origin."""
    if not fan.max_cones:
        return False
    # B adj B = det B I: column k of adj B, negated when det B < 0, is the inward
    # normal of the facet opposite ray k, and the cone is {x : <normal, x> >= 0 for each}.
    normals = [list(zip(*(a.entries if det > 0 else [map(operator.neg, r) for r in a.entries]))) for det, a in det_adj]
    walls: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for ci, cone in enumerate(fan.max_cones):
        for k in range(len(cone)):
            walls.setdefault(cone[:k] + cone[k + 1 :], []).append((ci, k))
    # Each wall has two cones, on opposite sides of it.
    for owners in walls.values():
        if len(owners) != 2:
            return False
        (a, k), (b, l) = owners
        if _dot(normals[a][k], fan.rays[fan.max_cones[b][l]]) >= 0:
            return False
    # Crossing a wall then leaves one cone for another, so off the walls each
    # point lies in the same number k >= 1 of cones: the codimension-2 faces
    # do not disconnect R^n for n >= 2, and in rank 1 the pairing leaves the
    # two half-lines.  Each sheet joined through walls covers space at least
    # once.  k is read at p + e v_1 + e^2 v_2 + ... (small e > 0; p the ray sum of
    # the first cone, v_1, v_2, ... its rays, a basis), which is on no wall: it
    # lies in a cone iff for each normal u the first nonzero of <u, p>, <u, v_1>,
    # ... is positive.  So only the closed cones at p, where <u, p> = 0, look on.
    first = [fan.rays[i] for i in fan.max_cones[0]]
    p = tuple(map(sum, zip(*first)))
    closed = [cone for cone in normals if all(_dot(u, p) >= 0 for u in cone)]
    containing = sum(
        all(_dot(u, p) or next(filter(None, (_dot(u, v) for v in first))) > 0 for u in cone) for cone in closed
    )
    if containing > 1:
        raise PreconditionError("overlapping-cones", f"a point inside the first cone lies in {containing} cones")
    return True


def validate_fan(fan: Fan) -> FanReport:
    """Exact structural predicates: simplicial, complete, smooth; raises
    ``overlapping-cones`` for cones that cover space more than once (in
    rank 2, a ray cycle that winds more than once round the origin).
    Outside rank 2 they are read off det B and adj B of each cone's ray
    matrix B: simplicial iff det B != 0, smooth iff |det B| = 1, and
    complete iff every wall lies on two cones on opposite sides and the
    cover's degree, read at a point of the first cone on no wall, is 1 (on
    degree >= 2, as on two sheets sharing no wall, ``overlapping-cones``)."""
    n = fan.rank
    if n == 2:
        rays = fan.rays
        # A surface cone is simplicial iff its two rays have a nonzero cross product.
        simplicial = all(
            len(cone) == 2 and _cross(rays[cone[0]], rays[cone[1]]) != 0 for cone in fan.max_cones
        )
        complete = fan.ray_count >= 3 and all(b > 0 for b in _cycle_dets(rays))
        if complete and not _cycle_winds_once(rays):
            raise PreconditionError("overlapping-cones", "the ray cycle winds more than once round the origin")
        smooth = simplicial and all(
            all(f == 1 for f in cone_invariant_factors(fan, cone)) for cone in fan.max_cones
        )
    else:
        det_adj = [IntMatrix._of(tuple(fan.rays[i] for i in c)).det_adjugate() for c in fan.max_cones if len(c) == n]
        simplicial = len(det_adj) == len(fan.max_cones) and all(det for det, _ in det_adj)
        complete = simplicial and _complete_rank_ge3(fan, det_adj)
        smooth = simplicial and all(abs(det) == 1 for det, _ in det_adj)
    return FanReport(simplicial, complete, smooth)


def _ray_degrees(fan: Fan) -> list[int]:
    """Number of maximal cones on each ray."""
    flat = list(itertools.chain.from_iterable(fan.max_cones))
    return [flat.count(i) for i in range(fan.ray_count)]


def _seed_basis(source: Fan, target: Fan) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The seed basis of the source, and the target ray sets whose orderings
    are its candidate images: the rays of the source's first maximal cone of
    n rays and rank n and the target's n-ray maximal cones, or when no cone
    is full-dimensional a spanning ray subset and all the target's rays."""
    n = source.rank
    seed = next((c for c in source.max_cones if len(c) == n and _det([source.rays[i] for i in c])), None)
    if seed is not None:
        return seed, [cone for cone in target.max_cones if len(cone) == n]
    # The rays form a matroid, so keeping each ray that raises the rank gives
    # the lexicographically first spanning subset.  The kept rays are held in echelon
    # form, each row zero in the pivots (p) of the rows before it, so a ray raises
    # the rank iff reducing it by the rows in order leaves v != 0.
    subset, echelon = (), []
    for i, v in enumerate(source.rays):
        for p, row in echelon:
            if c := v[p]:
                v = [row[p] * x - c * y for x, y in zip(v, row)]
        if any(v):
            echelon.append((next(p for p, x in enumerate(v) if x), primitive_vector(v)))
            subset += (i,)
            if len(subset) == n:
                return subset, [tuple(range(target.ray_count))]
    raise PreconditionError("rays-do-not-span", "rays do not span the lattice")


def _read_off(target: Fan, basis: Sequence[Vector]):
    """det B and adj B of the basis B (columns ``basis``), and ``read_off(images)``:
    W adj(B) // det(B), with W the target rays ``images`` as columns (W itself
    when B = I).  It sends B to W iff some integral matrix does, which a caller
    that does not know must check."""
    n, rays = len(basis), target.rays
    det, adjugate = IntMatrix._of(tuple(zip(*basis))).det_adjugate()
    plain = all(b[j] == 1 and b.count(0) == n - 1 for j, b in enumerate(basis))
    columns = list(zip(*adjugate.entries))

    def read_off(images: Sequence[int]) -> IntMatrix:
        rows = zip(*map(rays.__getitem__, images))
        if plain:
            return IntMatrix._of(tuple(rows))
        return IntMatrix._of(tuple([tuple([sum(map(operator.mul, row, c)) // det for c in columns]) for row in rows]))

    return det, adjugate, read_off


def _candidate_test(source: Fan, target: Fan, seed: Sequence[int], source_degrees: Sequence[int]):
    """``read_off`` of the seed basis B (``_read_off``), and ``test(images)``:
    the (ray map, matrix) pair sending B to the target rays ``images``, or None.

    Each other source ray v is kept as the nonzero entries of |det B| B^-1 v,
    read off the rows of +-adj B (cofactors for n <= 4), so a candidate only
    combines image columns (the fans' rays, checked when the fans were built).
    It is rejected, in order, by seed ray images on other numbers of maximal
    cones, a ray image that is not integral or not a target ray, a non-injective
    ray map, a cone not sent onto a cone, and last by its matrix g =
    ``read_off(images)`` unless |det g| = 1 and g B = W (exact if |det B| = 1).
    """
    target_degrees = source_degrees if target is source else _ray_degrees(target)
    wanted = [source_degrees[i] for i in seed]
    basis = [source.rays[i] for i in seed]
    det, adjugate, read_off = _read_off(target, basis)
    q = abs(det)
    rows = [[det // q * a for a in row] for row in adjugate.entries]
    coords = ((i, [sum(map(operator.mul, r, v)) for r in rows]) for i, v in enumerate(source.rays) if i not in seed)
    others = [(i, [(k, c) for k, c in enumerate(u) if c]) for i, u in coords]
    index = {v: j for j, v in enumerate(target.rays)}
    target_cones = set(target.max_cones)

    def test(images: Sequence[int]) -> tuple[tuple[int, ...], IntMatrix] | None:
        if [target_degrees[j] for j in images] != wanted:
            return None
        columns = [target.rays[j] for j in images]
        mapping = [0] * target.ray_count
        for i, j in zip(seed, images):
            mapping[i] = j
        for i, terms in others:
            k, c = terms[0]
            image = [c * x for x in columns[k]]
            for k, c in terms[1:]:
                image = [a + c * x for a, x in zip(image, columns[k])]
            if q != 1 and any(a % q for a in image):
                return None
            j = index.get(tuple(image) if q == 1 else tuple(a // q for a in image))
            if j is None:
                return None
            mapping[i] = j
        if len(set(mapping)) != len(mapping) or not all(
            tuple(sorted(map(mapping.__getitem__, cone))) in target_cones for cone in source.max_cones
        ):
            return None
        g = read_off(images)
        if abs(g.det()) != 1 or (q != 1 and any(g.apply(b) != w for b, w in zip(basis, columns))):
            return None
        return tuple(mapping), g

    return read_off, test


def _all_isomorphisms(source: Fan, target: Fan) -> list[tuple[tuple[int, ...], IntMatrix]]:
    """Every (ray map, matrix) pair carrying source onto target, by ray map.

    An isomorphism carries maximal cones onto maximal cones and keeps the
    number of maximal cones on each ray, so every ordering of each ray set
    of ``_seed_basis`` goes through ``_candidate_test``.
    """
    n = source.rank
    if n != target.rank:
        raise PreconditionError("rank", "fans of different rank cannot be compared")
    if source.ray_count != target.ray_count or len(source.max_cones) != len(target.max_cones):
        return []
    seed, cones = _seed_basis(source, target)
    tuples = (t for cone in cones for t in itertools.permutations(cone, n))
    # The basis spans, so distinct image tuples give distinct matrices.
    test = _candidate_test(source, target, seed, _ray_degrees(source))[1]
    return sorted(filter(None, map(test, tuples)), key=lambda pair: pair[0])


def fan_isomorphism(f1: Fan, f2: Fan) -> IntMatrix | None:
    """A unimodular matrix carrying f1's rays and cones onto f2's, or None.

    The search maps the rays of one maximal cone of f1 to the orderings of
    f2's maximal cones whose rays lie on as many maximal cones (a fan with
    no full-dimensional cone maps a spanning ray subset to every such ray
    tuple), and keeps the integral unimodular fan-preserving solutions;
    among those the one inducing the lexicographically least ray-index map
    is returned, so a fan is carried to itself by the identity.
    """
    found = _all_isomorphisms(f1, f2)
    return found[0][1] if found else None
