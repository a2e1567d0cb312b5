"""Answers computed apart from toricsym, used to check its outputs.

Nothing here imports the program.  Surfaces are handled through their
cyclic self-intersection sequences, which determine a smooth complete
toric surface up to GL2(Z); non-smooth surfaces through a GL2(Z) normal
form of the ray cycle; higher-rank fans through exact rational arithmetic
and sympy.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

# Lattice conventions of the two rank-2 lattices with a coordinate
# permutation action, as given in the fan document format:
#   rootA2:   {x+y+z = 0} with basis (1,-1,0), (0,1,-1)  ->  coords (x, -z)
#   weightA2: Z^3 / Z(1,1,1) with basis e1, e2          ->  coords (x-z, y-z)


def a2_coords(kind, v):
    x, y, z = v
    return (x, -z) if kind == "rootA2" else (x - z, y - z)


def a2_ambient(kind, c):
    a, b = c
    return (a, b - a, -b) if kind == "rootA2" else (a, b, 0)


def primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v)


def s3_images(kind, v, negation=False):
    """The orbit of a lattice vector under coordinate permutations (and -1)."""
    amb = a2_ambient(kind, v)
    out = set()
    for p in itertools.permutations(range(3)):
        w = a2_coords(kind, tuple(amb[p[i]] for i in range(3)))
        out.add(w)
        if negation:
            out.add((-w[0], -w[1]))
    return frozenset(out)


def s3_generators(kind, negation=False):
    """Row-major 2x2 matrices of the transposition (0 1), the 3-cycle and -1."""
    mats = []
    for perm in ((1, 0, 2), (2, 0, 1)):
        cols = []
        for basis in ((1, 0), (0, 1)):
            amb = a2_ambient(kind, basis)
            moved = [0, 0, 0]
            for i in range(3):
                moved[perm[i]] = amb[i]
            cols.append(a2_coords(kind, moved))
        mats.append([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])
    if negation:
        mats.append([[-1, 0], [0, -1]])
    return mats


# --- surfaces ---------------------------------------------------------------


def cross(v, w):
    return v[0] * w[1] - v[1] * w[0]


def ccw_cycle(rays):
    """Rays in counterclockwise order, starting from the least one."""

    def key(v):
        # Upper half-plane (angle in [0, pi)) first, then by angle via cross products.
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(v, w):
        if key(v) != key(w):
            return key(v) - key(w)
        return -1 if cross(v, w) > 0 else 1

    ordered = sorted((tuple(r) for r in rays), key=functools.cmp_to_key(cmp))
    start = ordered.index(min(ordered))
    return ordered[start:] + ordered[:start]


def is_complete_cycle(cycle):
    d = len(cycle)
    return d >= 3 and all(cross(cycle[i], cycle[(i + 1) % d]) > 0 for i in range(d))


def is_smooth_cycle(cycle):
    d = len(cycle)
    return d >= 3 and all(cross(cycle[i], cycle[(i + 1) % d]) == 1 for i in range(d))


def self_intersections(cycle):
    """D_i^2 = -det(v_{i-1}, v_{i+1}) for a smooth counterclockwise cycle."""
    d = len(cycle)
    return tuple(-cross(cycle[i - 1], cycle[(i + 1) % d]) for i in range(d))


def noether_holds(seq):
    """Sum of self-intersections is 12 - 3d (winding number one)."""
    return sum(seq) == 12 - 3 * len(seq)


def dihedral_min(seq):
    seq = tuple(seq)
    d = len(seq)
    forms = []
    for s in (seq, seq[::-1]):
        forms.extend(s[i:] + s[:i] for i in range(d))
    return min(forms)


def surface_sequence(rays):
    """Self-intersection sequence of a smooth complete surface given by its rays."""
    cycle = ccw_cycle(rays)
    if not is_smooth_cycle(cycle):
        raise ValueError(f"not a smooth complete surface: {cycle}")
    return self_intersections(cycle)


def terminal_label(seq):
    """Label of a fan without (-1)-curves, read from its sequence."""
    d = len(seq)
    if d == 3 and sorted(seq) == [1, 1, 1]:
        return "P2"
    if d == 4:
        a = max(abs(x) for x in seq)
        if dihedral_min(seq) == dihedral_min((a, 0, -a, 0)):
            return "P1xP1" if a == 0 else f"Hirzebruch({a})"
    if d == 6 and all(x == -1 for x in seq):
        return "DP6Terminal"
    return "Other"


def blow_down(seq, i):
    """Contract the (-1)-curve at position i: each neighbour gains 1."""
    d = len(seq)
    out = list(seq)
    out[(i - 1) % d] += 1
    out[(i + 1) % d] += 1
    del out[i]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _tree(canonical):
    if -1 not in canonical:
        return Counter({terminal_label(canonical): 1}), 0
    labels = Counter()
    contractions = 0
    for i, x in enumerate(canonical):
        if x == -1:
            sub, sub_contractions = _tree(dihedral_min(blow_down(canonical, i)))
            labels.update(sub)
            contractions += 1 + sub_contractions
    return labels, contractions


def explore_all_trivial(seq):
    """Terminal labels (with multiplicity) and contraction count of the full
    contraction tree under the trivial action: every (-1)-curve is a
    branch, and each branch ends when none is left."""
    labels, contractions = _tree(dihedral_min(seq))
    return Counter(labels), contractions


def first_orbit_trivial(rays):
    """The contraction path that always removes the least (-1)-ray vector."""
    cycle = ccw_cycle(rays)
    removed = []
    while True:
        seq = self_intersections(cycle)
        minus_one = [cycle[i] for i, x in enumerate(seq) if x == -1]
        if not minus_one:
            return removed, terminal_label(seq)
        v = min(minus_one)
        removed.append(v)
        cycle = ccw_cycle([w for w in cycle if w != v])


# --- surfaces with the coordinate permutation action ------------------------


def _contractible_orbits(kind, cycle, negation):
    seq = self_intersections(cycle)
    d = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    seen, orbits = set(), []
    for v in cycle:
        if v in seen:
            continue
        orbit = s3_images(kind, v, negation)
        seen |= orbit
        idx = sorted(pos[w] for w in orbit)
        if any(seq[i] != -1 for i in idx):
            continue
        if any((i - j) % d in (1, d - 1) for i, j in itertools.combinations(idx, 2)):
            continue
        orbits.append(frozenset(orbit))
    return orbits


def explore_all_s3(kind, rays, negation=False):
    """Terminal labels of every equivariant contraction branch."""

    @functools.lru_cache(maxsize=None)
    def tree(ray_set):
        cycle = ccw_cycle(ray_set)
        orbits = _contractible_orbits(kind, cycle, negation)
        if not orbits:
            return Counter({terminal_label(self_intersections(cycle)): 1})
        out = Counter()
        for orbit in orbits:
            out.update(tree(ray_set - orbit))
        return out

    return Counter(tree(frozenset(map(tuple, rays))))


def is_contractible_orbit(kind, rays, orbit_rays, negation=False):
    cycle = ccw_cycle(rays)
    orbit = frozenset(map(tuple, orbit_rays))
    return orbit in _contractible_orbits(kind, cycle, negation)


# --- GL2(Z) normal form and the census -------------------------------------


def _ext_gcd(a, b):
    if b == 0:
        return (1 if a >= 0 else -1), 0
    q, r = divmod(a, b)
    x, y = _ext_gcd(b, r)
    return y, x - q * y


def gl2_normal_form(rays):
    """Least image of the ray cycle over all starting rays and directions,
    after the unimodular map taking the first two rays to (1,0), (b,c) with
    0 <= b < c.  Two complete surface fans are GL2(Z)-isomorphic exactly
    when their normal forms agree."""
    cycle = ccw_cycle(rays)
    d = len(cycle)
    best = None
    for seq in (cycle, cycle[::-1]):
        for s in range(d):
            order = seq[s:] + seq[:s]
            (x0, y0), v1 = order[0], order[1]
            p, q = _ext_gcd(x0, y0)
            g = [[p, q], [-y0, x0]]  # det 1, sends v0 to (1, 0)
            b = g[0][0] * v1[0] + g[0][1] * v1[1]
            c = g[1][0] * v1[0] + g[1][1] * v1[1]
            if c < 0:
                g[1] = [-g[1][0], -g[1][1]]
                c = -c
            k = -(b // c)
            g[0] = [g[0][0] + k * g[1][0], g[0][1] + k * g[1][1]]
            image = tuple(
                (g[0][0] * v[0] + g[0][1] * v[1], g[1][0] * v[0] + g[1][1] * v[1]) for v in order
            )
            if best is None or image < best:
                best = image
    return best


def class_invariant(rays, smooth):
    """Complete isomorphism invariant of a surface fan."""
    return ("seq", dihedral_min(surface_sequence(rays))) if smooth else ("nf", gl2_normal_form(rays))


def seed_orbits(kind, height, negation):
    """Orbits of primitive lattice vectors with an ambient representative
    whose coordinates are bounded by the height."""
    orbits = set()
    box = range(-height, height + 1)
    for amb in itertools.product(box, repeat=3):
        if kind == "rootA2" and sum(amb) != 0:
            continue
        c = a2_coords(kind, amb)
        if c == (0, 0):
            continue
        orbits.add(s3_images(kind, primitive(c), negation))
    return sorted(orbits, key=lambda o: (len(o), sorted(o)))


def census_classes(kind, height, max_rays, smooth, negation):
    """Isomorphism classes of invariant fans on unions of seed orbits."""
    orbits = seed_orbits(kind, height, negation)
    classes = set()

    def extend(start, rays):
        if len(rays) >= 3:
            cycle = ccw_cycle(rays)
            if is_complete_cycle(cycle) and (not smooth or is_smooth_cycle(cycle)):
                classes.add(class_invariant(cycle, smooth))
        for k in range(start, len(orbits)):
            if len(rays) + len(orbits[k]) <= max_rays:
                extend(k + 1, rays | orbits[k])

    extend(0, frozenset())
    return classes


# --- higher rank -------------------------------------------------------------


def product_aut_order(dims):
    """|Aut| of the fan of a product of projective spaces: each factor P^n
    contributes the symmetric group on its n+1 rays, and equal factors may
    be permuted."""
    order = 1
    for n, mult in Counter(dims).items():
        order *= math.factorial(n + 1) ** mult * math.factorial(mult)
    return order


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def det(m):
    """Exact determinant by Fraction elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            result = -result
        result *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(result)


def group_problems(elements, rays, cones):
    """Reasons why the matrices fail to be a group of fan automorphisms."""
    problems = []
    key = lambda m: tuple(map(tuple, m))
    elems = {key(m) for m in elements}
    n = len(rays[0])
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if len(elems) != len(elements):
        problems.append("repeated elements")
    if ident not in elems:
        problems.append("no identity")
    ray_index = {tuple(v): i for i, v in enumerate(rays)}
    cone_set = {frozenset(c) for c in cones}
    for g in elems:
        if abs(det(g)) != 1:
            problems.append(f"{g} is not unimodular")
            continue
        images = [ray_index.get(matvec(g, v)) for v in rays]
        if None in images or len(set(images)) != len(rays):
            problems.append(f"{g} does not permute the rays")
            continue
        if {frozenset(images[i] for i in c) for c in cones} != cone_set:
            problems.append(f"{g} does not permute the cones")
    # Closed under composition: with the identity, a finite set is then a group.
    import numpy as np

    k = len(elems)
    stack = np.array(sorted(elems), dtype=np.int64)
    members = {m.tobytes() for m in stack.reshape(k, n * n)}
    products = np.einsum("aij,bjk->abik", stack, stack).reshape(k * k, n * n)
    if any(p.tobytes() not in members for p in products):
        problems.append("not closed under composition")
    return problems


def _solve(rows, rhs):
    """Exact solution of rows @ x = rhs over Q, or None; rows has full column rank."""
    n = len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    r = 0
    for j in range(n):
        pivot = next((i for i in range(r, len(a)) if a[i][j] != 0), None)
        if pivot is None:
            return None
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][j] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][j] != 0:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    if any(row[n] != 0 for row in a[r:]):
        return None
    return [a[i][n] for i in range(n)]


def equal_class_pairs(rays):
    """Pairs i < j with D_i linearly equivalent to D_j: some integral u has
    <u, v_i> = 1, <u, v_j> = -1 and <u, v_k> = 0 for every other ray."""
    d = len(rays)
    pairs = set()
    for i, j in itertools.combinations(range(d), 2):
        rhs = [1 if k == i else -1 if k == j else 0 for k in range(d)]
        u = _solve(rays, rhs)
        if u is not None and all(x.denominator == 1 for x in u):
            pairs.add((i, j))
    return pairs


def class_group_label(rays):
    """The class group Z^d / im(M^T), named as the program names it."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    d, n = len(rays), len(rays[0])
    factors = [int(x) for x in invariant_factors(Matrix(rays), domain=ZZ)]
    free = d - sum(1 for x in factors if x != 0)
    parts = ["Z" if free == 1 else f"Z^{free}"] if free else []
    parts += [f"Z/{x}" for x in factors if x > 1]
    return " + ".join(parts) if parts else "0"


def relation_problems(rays, basis):
    """Reasons why the basis is not a basis of the saturated relation lattice."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    d, n = len(rays), len(rays[0])
    problems = []
    for c in basis:
        if any(sum(c[i] * rays[i][k] for i in range(d)) for k in range(n)):
            problems.append(f"{c} is not a relation")
    if len(basis) != d - n:
        problems.append(f"{len(basis)} relations, expected {d - n}")
    elif basis and any(int(x) != 1 for x in invariant_factors(Matrix(basis), domain=ZZ)):
        problems.append("relation lattice is not saturated")
    return problems


def covering_degree(rays, cones, point):
    """How many maximal cones contain the point in their interior (exact)."""
    count = 0
    for cone in cones:
        cols = [rays[i] for i in cone]
        rows = [[cols[j][k] for j in range(len(cols))] for k in range(len(point))]
        lam = _solve(rows, point)
        if lam is not None and all(x > 0 for x in lam):
            count += 1
    return count
