import pytest

from toricsym import families
from toricsym.errors import ParseError, PreconditionError
from toricsym.fan import Fan, Lattice, _ccw_sort, _cycle_cones, _cycle_dets, build_surface_fan
from toricsym.intlin import IntMatrix, _as_int, _det, primitive_vector


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
