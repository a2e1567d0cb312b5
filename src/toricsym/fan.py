"""Lattices, rational polyhedral fans and their structural predicates.

Supports the standard lattices Z^n and the two rank-2 lattices carrying a
coordinate-permutation action of the symmetric group on three letters:
the sum-zero sublattice of Z^3 and the quotient Z^3 / Z(1,1,1).

Surface fans are stored with rays sorted counterclockwise starting from
the lexicographically least primitive vector, so equal fans compare equal.
All predicates (complete / simplicial / smooth) are decided exactly.  Fan
isomorphisms come from a cone-seeded search, whose ``_read_off`` is the one
place that turns a ray map into a matrix, W adj(B) / det(B).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError, PreconditionError
from .intlin import IntMatrix, Vector, _as_int, _det, smith_normal_form

_S3_PERMUTATIONS = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1))


@dataclass(frozen=True)
class Lattice:
    """A lattice together with its ambient presentation.

    kind "standard": Z^rank, ambient coordinates are lattice coordinates.
    kind "rootA2":   {(x,y,z) in Z^3 : x+y+z = 0} with basis (1,-1,0), (0,1,-1).
    kind "weightA2": Z^3 / Z(1,1,1) with basis the classes of e1, e2.
    """

    kind: str
    rank: int

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
        cols = []
        for j in range(2):
            basis = (1, 0) if j == 0 else (0, 1)
            amb = self.embed(basis)
            moved = [0, 0, 0]
            for i in range(3):
                moved[perm[i]] = amb[i]
            cols.append(self.coords(tuple(moved)))
        return IntMatrix.from_columns(cols)

    def s3_orbit(self, v: Sequence[int]) -> tuple[Vector, ...]:
        """Orbit of a lattice-coordinate vector under coordinate permutations."""
        amb = self.embed(tuple(v))
        seen = []
        for perm in _S3_PERMUTATIONS:
            moved = [0, 0, 0]
            for i in range(3):
                moved[perm[i]] = amb[i]
            w = self.coords(tuple(moved))
            if w not in seen:
                seen.append(w)
        return tuple(sorted(seen))


def _cross(v: Vector, w: Vector) -> int:
    return v[0] * w[1] - v[1] * w[0]


def _ccw_sort(rays: Sequence[Vector]) -> list[Vector]:
    """Counterclockwise order starting from the direction (1, 0)."""

    def half(v: Vector) -> int:
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(v: Vector, w: Vector) -> int:
        hv, hw = half(v), half(w)
        if hv != hw:
            return hv - hw
        c = _cross(v, w)
        return -1 if c > 0 else 1

    return sorted(rays, key=functools.cmp_to_key(cmp))


@dataclass(frozen=True)
class Fan(object):
    """A fan: primitive rays plus maximal cones as ray-index sets.

    Rank-2 fans are canonicalized (rays counterclockwise from the
    lexicographically least vector, cones = adjacent pairs); higher-rank
    fans keep the given ray order and sort the cone list.
    """

    lattice: Lattice
    rays: tuple[Vector, ...]
    max_cones: tuple[tuple[int, ...], ...]

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


def _cycle_winds_once(cycle: Sequence[Vector]) -> bool:
    """Whether a cyclic ray sequence with every b_i > 0 goes once round the
    origin.  Each step v_i -> v_{i+1} then turns counterclockwise by less
    than a half turn, and it crosses the half-line through (1, 0) exactly
    when y_i < 0 <= y_{i+1} (half-open), so the crossings count the turns."""
    d = len(cycle)
    return sum(cycle[i][1] < 0 <= cycle[(i + 1) % d][1] for i in range(d)) == 1


def _cycle_fan(lattice: Lattice, rays: list[Vector]) -> Fan:
    """The complete surface fan on distinct primitive rays, stored from the
    least: their cycle as given if it winds once with each det(v_{i-1}, v_i)
    > 0, as the program writes and builds rays, else sorted first."""
    if len(rays) < 3:
        raise PreconditionError("too-few-rays", "a complete surface fan needs at least 3 rays")
    if not (all(b > 0 for b in _cycle_dets(rays)) and _cycle_winds_once(rays)):
        rays = _ccw_sort(rays)
        if any(b <= 0 for b in _cycle_dets(rays)):
            raise PreconditionError("incomplete", "angular gap of at least a half turn: rays do not span a complete fan")
    start = rays.index(min(rays))
    return Fan(lattice, tuple(rays[start:] + rays[:start]), _cycle_cones(len(rays)))


@functools.cache
def _cycle_cones(d: int) -> tuple[tuple[int, int], ...]:
    """The maximal cones of a stored d-ray cycle: the adjacent pairs, sorted."""
    return tuple(sorted(tuple(sorted((i, (i + 1) % d))) for i in range(d)))


@dataclass(frozen=True)
class FanReport:
    """Structural flags of a fan (smooth implies simplicial)."""

    simplicial: bool
    complete: bool
    smooth: bool


def cone_invariant_factors(fan: Fan, cone: Sequence[int]) -> Vector:
    """Invariant factors of the sublattice spanned by a cone's rays."""
    return smith_normal_form(fan.cone_matrix(cone)).invariant_factors


def _dot(v: Sequence[int], w: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(v, w))


def _complete_rank_ge3(fan: Fan, det_adj: list[tuple[int, IntMatrix]]) -> bool:
    """Completeness of a simplicial fan, given det B and adj B of each cone;
    in rank 1 the one wall is the origin."""
    if not fan.max_cones:
        return False
    # B adj B = det B I: column k of det B adj B is the inward normal of the
    # facet opposite ray k, and the cone is {x : <normal, x> >= 0 for each}.
    normals = [[tuple(det * a for a in column) for column in zip(*adjugate.entries)] for det, adjugate in det_adj]
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
    # Support connectivity through shared walls.
    adjacency: list[set[int]] = [set() for _ in fan.max_cones]
    for (a, _), (b, _) in walls.values():
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen, queue = {0}, [0]
    while queue:
        for nxt in adjacency[queue.pop()] - seen:
            seen.add(nxt)
            queue.append(nxt)
    if len(seen) != len(fan.max_cones):
        return False
    # Walls and connectivity make the cones cover space a whole number of
    # times (the pentagram bipyramid covers R^3 twice).  The cover is a fan
    # iff a point inside the first cone lies in no other cone.
    p = tuple(map(sum, zip(*(fan.rays[i] for i in fan.max_cones[0]))))
    containing = sum(all(_dot(normal, p) >= 0 for normal in cone) for cone in normals)
    if containing > 1:
        raise PreconditionError("overlapping-cones", f"a point inside the first cone lies in {containing} cones")
    return True


def validate_fan(fan: Fan) -> FanReport:
    """Exact structural predicates: simplicial, complete, smooth; raises
    ``overlapping-cones`` for cones that cover space more than once (in
    rank 2, a ray cycle that winds more than once round the origin).
    Outside rank 2 they are read off det B and adj B of each cone's ray
    matrix B: simplicial iff det B != 0, smooth iff |det B| = 1."""
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
    return FanReport(simplicial=simplicial, complete=complete, smooth=smooth)


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
    # the lexicographically first spanning subset.
    subset = ()
    for i in range(source.ray_count):
        if source.cone_matrix(subset + (i,)).rank() > len(subset):
            subset += (i,)
            if len(subset) == n:
                return subset, [tuple(range(target.ray_count))]
    raise PreconditionError("rays-do-not-span", "rays do not span the lattice")


def _read_off(target: Fan, basis: Sequence[Vector]):
    """det B and adj B of the basis B (columns ``basis``), and ``read_off(images)``:
    W adj(B) // det(B), with W the target rays ``images`` as columns, formed
    from the nonzero entries of adj B (W itself when B = I).  It sends B to W
    iff some integral matrix does, which a caller that does not know must check."""
    n, rays = len(basis), target.rays
    det, adjugate = IntMatrix._of(tuple(zip(*basis))).det_adjugate()
    plain = all(b[j] == 1 and b.count(0) == n - 1 for j, b in enumerate(basis))
    terms = [[(k, a) for k, a in enumerate(column) if a] for column in zip(*adjugate.entries)]

    def read_off(images: Sequence[int]) -> IntMatrix:
        w = [rays[j] for j in images]
        if not plain:
            w = [[sum(a * w[k][i] for k, a in t) // det for i in range(n)] for t in terms]
        return IntMatrix._of(tuple(zip(*w)))

    return det, adjugate, read_off


def _candidate_test(source: Fan, target: Fan, seed: Sequence[int], source_degrees: Sequence[int]):
    """``read_off`` of the seed basis B (``_read_off``), and ``test(images)``:
    the (ray map, matrix) pair sending B to the target rays ``images``, or None.

    Each other source ray v is kept as the nonzero entries of |det B| B^-1 v,
    read off the rows of +-adj B (cofactors for n <= 3), so a candidate only
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


def surface_key(fan: Fan) -> tuple[tuple[tuple[int, int], ...], int]:
    """GL2(Z) invariant of a complete surface fan: its cycle word.

    With the rays v_i counterclockwise (a clockwise cycle is reversed first)
    the word is the cycle of pairs (b_i, a_{i+1}) = (det(v_i, v_{i+1}),
    det(v_i, v_{i+2})), and the fan's mirror image gives the other
    orientation's.  The key is the least rotation of either word, then the
    least k in the normal form (1, 0), (k, b) of a start cone reaching it.
    That cone and the word give back every ray, v_{i+2} = (a_{i+1} v_{i+1}
    - b_{i+1} v_i) / b_i, so two complete surface fans have equal keys
    exactly when ``fan_isomorphism`` finds a map between them (Oda 1.6,
    Fulton 2.5).  The rays must be in cyclic order, as rank-2 fans store them.
    """
    if fan.rank != 2:
        raise PreconditionError("rank", "the surface key needs a rank-2 fan")
    rays = fan.rays if _cross(fan.rays[0], fan.rays[1]) > 0 else fan.rays[::-1]
    d = len(rays)
    starts = []
    for cycle in (rays, tuple((y, x) for x, y in reversed(rays))):
        ahead = cycle[1:] + cycle[:2]
        steps = zip(cycle, ahead, ahead[1:])
        word = [(x * y1 - y * x1, x * y2 - y * x2) for (x, y), (x1, y1), (x2, y2) in steps] * 2
        starts += [(word[s : s + d], cycle[s], ahead[s]) for s in range(d)]
    least = min(rotation for rotation, _, _ in starts)
    # The start cones reaching it have the least b_i, and b = 1 leaves k = 0.
    k = 0 if least[0][0] == 1 else min(_normal_form_k(v, w) for rotation, v, w in starts if rotation == least)
    return tuple(least), k


def _normal_form_k(v: Vector, w: Vector) -> int:
    """k in the normal form (1, 0), (k, b) of a cone with b = det(v, w) > 0:
    p w_x + q w_y mod b, for any p x + q y = 1 with v = (x, y)."""
    x, y = v
    p = pow(x, -1, abs(y)) if y else x
    q = (1 - p * x) // y if y else 0
    return (p * w[0] + q * w[1]) % _cross(v, w)
