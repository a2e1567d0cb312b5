from typing import Any, Callable

import pytest

from toricsym import families
from toricsym.errors import ParseError, PreconditionError
from toricsym.fan import Fan, Lattice, _ccw_sort, _cycle_cones, _cycle_dets, build_surface_fan, validate_fan
from toricsym.intlin import IntMatrix, SNFResult, _as_int, _det, primitive_vector
from toricsym.symmetry import (
    GaloisDatum,
    GroupAction,
    classify_galois_form,
    invariant_picard_number,
    ray_orbits,
)


def random_unimodular(rng, n):
    """A random element of GL_n(Z), n >= 2: 2n elementary row additions (k
    times one row added to another, k = +-1, +-2), then the first row
    negated half the time, so both determinant signs occur."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return IntMatrix.from_rows(m)


def transform_fan(g, fan):
    """Image fan under a unimodular matrix (same lattice, same cone labels)."""
    assert abs(g.det()) == 1
    images = [g.apply(v) for v in fan.rays]
    if fan.rank == 2:
        return build_surface_fan(fan.lattice, images)
    return Fan(fan.lattice, tuple(images), fan.max_cones)


def word_key_from_rays(rays):
    """The GL2(Z) class of a complete surface fan from its ray cycle, turned
    ccw first: the word of pairs (det(v_i, v_{i+1}), det(v_i, v_{i+2})) of
    the cycle and of its mirror image, every rotation compared, then the
    least k of a start cone reaching the least rotation, found by search.
    Equal keys mean isomorphic fans (Oda 1.6): the start cone (1, 0), (k, b)
    and the word give back every ray."""
    rays = tuple(rays)
    (x0, y0), (x1, y1) = rays[:2]
    if x0 * y1 - y0 * x1 < 0:
        rays = rays[::-1]
    d = len(rays)
    starts = []
    for cycle in (rays, tuple((y, x) for x, y in reversed(rays))):
        ahead = cycle[1:] + cycle[:2]
        steps = zip(cycle, ahead, ahead[1:])
        word = [(x * y1 - y * x1, x * y2 - y * x2) for (x, y), (x1, y1), (x2, y2) in steps] * 2
        starts += [(word[s : s + d], cycle[s], ahead[s]) for s in range(d)]
    least = min(rotation for rotation, _, _ in starts)
    if least[0][0] == 1:
        return tuple(least), 0
    ks = []
    for rotation, (x, y), (x1, y1) in starts:
        if rotation == least:
            # The unimodular g with g v = (1, 0) sends w to (k, b).
            p, q = next((p, q) for p in range(-abs(y) - 1, abs(y) + 2) for q in range(-abs(x) - 1, abs(x) + 2)
                        if p * x + q * y == 1)
            ks.append((p * x1 + q * y1) % (x * y1 - y * x1))
    return tuple(least), min(ks)


@pytest.fixture
def std2():
    return Lattice.standard(2)


@pytest.fixture
def p2_fan(std2):
    return build_surface_fan(std2, [(1, 0), (0, 1), (-1, -1)])


@pytest.fixture
def square_fan(std2):
    return build_surface_fan(std2, [(1, 0), (-1, 0), (0, 1), (0, -1)])


@pytest.fixture
def hexagon_n1():
    return families.dp6("n1")


@pytest.fixture
def hexagon_n2():
    return families.dp6("n2")


# The entry path of a fan document, checked entry by entry and cone by cone:
# the oracle of fanio's and make_fan's type scans, batched cone checks and
# surface cycles taken as they stand.


def oracle_int_vector(raw, what):
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{what} must be a non-empty list of integers")
    out = []
    for x in raw:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ParseError(f"{what} must contain exact integers, got {x!r}")
        out.append(x)
    return tuple(out)


def oracle_primitive_rays(lattice, rays):
    converted = [lattice.accept_ray(v) for v in rays]
    for v in converted:
        if not any(v):
            raise PreconditionError("zero-ray", "zero vector cannot generate a ray")
    prim = [tuple(map(_as_int, primitive_vector(v))) for v in converted]
    if len(set(prim)) != len(prim):
        raise PreconditionError("parallel-rays", "two rays share a primitive generator")
    return prim


def oracle_cycle_fan(lattice, rays):
    cycle = _ccw_sort(rays)
    if len(cycle) < 3:
        raise PreconditionError("too-few-rays", "a complete surface fan needs at least 3 rays")
    start = cycle.index(min(cycle))
    ordered = cycle[start:] + cycle[:start]
    if any(b <= 0 for b in _cycle_dets(ordered)):
        raise PreconditionError("incomplete", "angular gap of at least a half turn: rays do not span a complete fan")
    return Fan(lattice, tuple(ordered), _cycle_cones(len(ordered)))


def oracle_make_fan(lattice, rays, max_cones=None):
    prim = oracle_primitive_rays(lattice, rays)
    if lattice.rank == 2 and max_cones is None:
        return oracle_cycle_fan(lattice, prim)
    if max_cones is None:
        if lattice.rank == 1:
            return Fan(lattice, tuple(prim), tuple((i,) for i in range(len(prim))))
        raise PreconditionError("cones-required", f"rank-{lattice.rank} fans need explicit max_cones")
    n, cones = lattice.rank, []
    for cone in max_cones:
        idx = tuple(sorted(set(map(_as_int, cone))))
        if not idx:
            raise PreconditionError("empty-cone", "a given cone has no rays")
        if idx[0] < 0 or idx[-1] >= len(prim):
            raise PreconditionError("cone-index", f"cone {cone} references a missing ray")
        rows = [prim[i] for i in idx]
        if len(idx) > n or not (_det(rows) if len(idx) == n else IntMatrix._of(tuple(rows)).rank() == len(idx)):
            raise PreconditionError("non-simplicial-cone", f"cone {idx} has linearly dependent generators")
        cones.append(idx)
    if lattice.rank == 2:
        fan = oracle_cycle_fan(lattice, prim)
        given = sorted(tuple(sorted(prim[i] for i in cone)) for cone in cones)
        expected = sorted(tuple(sorted(fan.rays[i] for i in cone)) for cone in fan.max_cones)
        if given != expected:
            raise PreconditionError("cone-mismatch", "explicit surface cones disagree with the complete fan")
        return fan
    return Fan(lattice, tuple(prim), tuple(sorted(set(cones))))


def oracle_parse_fan_document(doc, origin="fan document"):
    if not isinstance(doc, dict):
        raise ParseError(f"{origin}: expected an object")
    try:
        lattice = Lattice.from_label(str(doc["lattice"]))
    except KeyError:
        raise ParseError(f"{origin}: missing 'lattice'")
    rays_raw = doc.get("rays")
    if not isinstance(rays_raw, list) or not rays_raw:
        raise ParseError(f"{origin}: missing or empty 'rays'")
    rays = [oracle_int_vector(r, "ray") for r in rays_raw]
    cones_raw = doc.get("max_cones")
    cones = None
    if cones_raw is not None:
        if not isinstance(cones_raw, list):
            raise ParseError(f"{origin}: 'max_cones' must be a list")
        cones = [oracle_int_vector(c, "cone") for c in cones_raw]
    return oracle_make_fan(lattice, rays, cones)


def outcome(build, *args):
    """The fan ``build(*args)`` returns, with the type of every ray entry, or
    the type, slug and message of what it raises."""
    try:
        fan = build(*args)
    except (TypeError, ValueError, ParseError, PreconditionError) as exc:
        return type(exc), getattr(exc, "reason", None), str(exc)
    return fan, tuple(type(x) for v in fan.rays for x in v)


# The Smith normal form as it was written with U^-1 and V^-1 kept as lists
# of their own, each operation applied to S and then to its transform: the
# oracle of the bordered ``intlin.smith_normal_form``, which must give the
# same S, U^-1 and V^-1 entry for entry.
def oracle_smith_normal_form(a: IntMatrix) -> SNFResult:
    """Smith normal form with transforms.

    Returns S, U^-1, V^-1 with U^-1 A V^-1 = S exactly, U^-1 and V^-1
    unimodular, S diagonal with non-negative entries satisfying the
    divisibility chain d_i | d_{i+1}.  Pivots are chosen by minimal
    absolute value, ties broken by smallest (row, col), which makes the
    output deterministic.
    """
    rows, cols = a.rows, a.cols
    s = [list(row) for row in a.entries]
    uinv = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    vinv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    # Row op S <- E S is mirrored by U^{-1} <- E U^{-1}; column op
    # S <- S F by V^{-1} <- V^{-1} F.
    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        uinv[i], uinv[j] = uinv[j], uinv[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in vinv:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, k):
        # row i += k * row j
        s[i] = [x + k * y for x, y in zip(s[i], s[j])]
        uinv[i] = [x + k * y for x, y in zip(uinv[i], uinv[j])]

    def add_col(j, i, k):
        # col j += k * col i
        for r in s:
            r[j] += k * r[i]
        for r in vinv:
            r[j] += k * r[i]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        uinv[i] = [-x for x in uinv[i]]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = s[i][j]
                if x != 0 and (best is None or (abs(x), i, j) < best):
                    best = (abs(x), i, j)
        return None if best is None else (best[1], best[2])

    for t in range(min(rows, cols)):
        while True:
            pos = find_pivot(t)
            if pos is None:
                break
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            p = s[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // p
                    add_row(i, t, -q)
                    dirty = dirty or s[i][t] != 0
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // p
                    add_col(j, t, -q)
                    dirty = dirty or s[t][j] != 0
            if dirty:
                continue
            # Cross is clear; force the pivot to divide the rest of the block.
            offender = next(
                (
                    i
                    for i in range(t + 1, rows)
                    if any(x % p for x in s[i][t + 1 :])
                ),
                None,
            )
            if offender is None:
                break
            add_row(t, offender, 1)
        if pos is None:
            break

    for t in range(min(rows, cols)):
        if s[t][t] < 0:
            negate_row(t)

    return SNFResult(
        IntMatrix._of(tuple(map(tuple, s))),
        IntMatrix._of(tuple(map(tuple, uinv))),
        IntMatrix._of(tuple(map(tuple, vinv))),
    )


# The check report as it was written with each fact stated twice, once in
# the machine payload and once as a plain row: the oracle of
# ``cli._report_payload``'s single row list, whose payload and plain lines
# must be the same text.  ``ray_relations`` returned a record then, whose
# ``basis`` is the tuple it returns now; that is the one change.
def oracle_report_payload(fan: Fan, action: GroupAction | None, datum: GaloisDatum | None) -> tuple[dict, Callable]:
    from toricsym.divisors import class_group, ray_blocks, ray_relations

    report = validate_fan(fan)
    group, classes = class_group(fan)
    partition = ray_blocks(classes)
    relations = ray_relations(classes)
    payload: dict[str, Any] = {
        "lattice": fan.lattice.label(),
        "rays": [list(v) for v in fan.rays],
        "simplicial": report.simplicial,
        "complete": report.complete,
        "smooth": report.smooth,
        "class_group": str(group),
        "ray_classes": [[list(free), list(torsion)] for free, torsion in classes],
        "block_sizes": list(partition.sizes),
        "blocks": [list(b) for b in partition.blocks],
        "relation_basis": [list(v) for v in relations],
    }
    if action is not None:
        orbits = ray_orbits(action)
        payload.update(
            {
                "group_order": action.order,
                "ray_orbits": [list(o) for o in orbits],
                "invariant_picard_number": invariant_picard_number(action),
            }
        )
        if datum is not None:
            payload["galois_form"] = classify_galois_form(action, datum).value

    def lines() -> list[str]:
        rows = [
            ("lattice", fan.lattice.label()),
            ("rays", list(fan.rays)),
            ("simplicial", report.simplicial),
            ("complete", report.complete),
            ("smooth", report.smooth),
            ("class group", group),
            ("block sizes", partition.sizes),
            ("blocks", list(partition.blocks)),
            ("relation basis", list(relations)),
        ]
        if action is not None:
            rows += [("group order", action.order), ("ray orbits", list(orbits))]
            rows.append(("invariant rho", payload["invariant_picard_number"]))
        if "galois_form" in payload:
            rows.append(("galois form", payload["galois_form"]))
        return [f"{label:<15}{value}" for label, value in rows]

    return payload, lines
