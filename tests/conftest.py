import pytest

from toricsym import families
from toricsym.fan import Fan, Lattice, build_surface_fan
from toricsym.intlin import IntMatrix


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
