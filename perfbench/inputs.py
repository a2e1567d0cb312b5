"""Seeded inputs.  Every document the program sees is built here from the
seed; nothing here imports the program."""

from __future__ import annotations

import functools
import itertools
import random

import oracle

# --- surfaces for the contraction loop ---------------------------------------

CONTRACTION_FANS = 9
# Each fan's explore-all tree (trivial action) has a cost in this band, so
# every seed asks the program for the same amount of work.  The cost counts
# the rays of every fan the tree visits, plus 4 for each branch that ends
# with four rays, whose label takes two isomorphism tests; fitted to
# measured times it predicts one call to within 8%.
COST_BAND = (1000, 1100)


@functools.lru_cache(maxsize=None)
def explore_cost(canonical):
    if -1 not in canonical:
        return len(canonical) + 4 * (len(canonical) == 4)
    return len(canonical) + sum(
        explore_cost(oracle.dihedral_min(oracle.blow_down(canonical, i)))
        for i, x in enumerate(canonical)
        if x == -1
    )


def blowup_surface(rng, ray_count):
    """P2 or F_a (0 <= a <= 3), blown up at random torus-fixed points."""
    if rng.random() < 0.5:
        rays = [(1, 0), (0, 1), (-1, -1)]
    else:
        rays = [(1, 0), (0, 1), (-1, rng.randint(0, 3)), (0, -1)]
    cycle = oracle.ccw_cycle(rays)
    while len(cycle) < ray_count:
        i = rng.randrange(len(cycle))
        v, w = cycle[i], cycle[(i + 1) % len(cycle)]
        cycle = oracle.ccw_cycle(cycle + [(v[0] + w[0], v[1] + w[1])])
    return cycle


def contraction_surfaces(seed, draws=1500):
    """The first blow-ups with 9 to 11 rays whose contraction trees cost the
    band.  All ``draws`` surfaces are drawn whatever the seed (about 26 fall
    in the band), so that set-up does the same work for every seed."""
    rng = random.Random(seed)
    fans = []
    for _ in range(draws):
        cycle = blowup_surface(rng, rng.choice((9, 10, 11)))
        cost = explore_cost(oracle.dihedral_min(oracle.self_intersections(cycle)))
        if COST_BAND[0] <= cost < COST_BAND[1]:
            fans.append(cycle)
    if len(fans) < CONTRACTION_FANS:
        raise RuntimeError(f"only {len(fans)} surfaces in the cost band")
    return fans[:CONTRACTION_FANS]


def surface_document(rays, lattice="standard:2"):
    return {"lattice": lattice, "rays": [list(v) for v in rays]}


def trivial_action_document():
    return {"generators": [[[1, 0], [0, 1]]], "names": ["identity"]}


def s3_action_document(kind, negation=False):
    names = ["swap01", "cycle"] + (["negation"] if negation else [])
    return {"generators": oracle.s3_generators(kind, negation), "names": names}


# --- census ------------------------------------------------------------------

# (lattice, height, max rays, smooth, negation).  Smooth heights are the
# largest whose enumeration takes well under a second; non-smooth heights
# are lower because pairwise isomorphism tests dominate there.
CENSUS = (
    ("rootA2", 4, 24, True, False),
    ("weightA2", 3, 18, True, False),
    ("rootA2", 5, 30, True, True),
    ("weightA2", 4, 24, True, True),
    ("rootA2", 3, 18, False, False),
    ("weightA2", 2, 12, False, False),
    ("rootA2", 4, 24, False, True),
    ("weightA2", 2, 12, False, True),
)


def census_order(seed):
    """The census enumerations in a seeded order."""
    order = list(CENSUS)
    random.Random(seed).shuffle(order)
    return order


# --- higher-rank fans --------------------------------------------------------

PRODUCTS = ((2, 1), (1, 1, 1), (3,), (4,), (2, 2), (1, 1, 1, 1), (4, 1))


def product_fan(dims):
    """Rays and maximal cones of a product of projective spaces."""
    n = sum(dims)
    rays, blocks, offset = [], [], 0
    for d in dims:
        block = []
        for i in range(d):
            block.append(len(rays))
            rays.append(tuple(int(k == offset + i) for k in range(n)))
        block.append(len(rays))
        rays.append(tuple(-1 if offset <= k < offset + d else 0 for k in range(n)))
        blocks.append(block)
        offset += d
    cones = [
        sorted(i for block, drop in zip(blocks, choice) for i in block if i != drop)
        for choice in itertools.product(*blocks)
    ]
    return rays, cones


def weighted_p1111m(m):
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, -m), (0, 0, 0, 1)]
    return rays, [list(c) for c in itertools.combinations(range(5), 4)]


def bundle_over_p3(a):
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, a), (0, 0, 0, 1), (0, 0, 0, -1)]
    return rays, [list(b) + [p] for b in itertools.combinations(range(4), 3) for p in (4, 5)]


def bundle_over_p1xp1(a):
    rays = [(1, 0, a), (-1, 0, 0), (0, 1, a), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return rays, [[x, y, z] for x in (0, 1) for y in (2, 3) for z in (4, 5)]


def stellar_subdivision(rng, rays, cones, ray_count):
    """Star subdivisions at random cones and 2-faces until ray_count rays.

    Both kinds keep a smooth complete fan smooth and complete, and random
    choices leave few symmetries."""
    rays, cones = list(rays), [list(c) for c in cones]
    while len(rays) < ray_count:
        cone = rng.choice(cones)
        face = cone if rng.random() < 0.5 else rng.sample(cone, 2)
        new = len(rays)
        rays.append(tuple(map(sum, zip(*(rays[i] for i in face)))))
        out = []
        for c in cones:
            if set(face) <= set(c):
                out.extend(sorted([x for x in c if x != i] + [new]) for i in face)
            else:
                out.append(c)
        cones = out
    return rays, cones


# The pentagram bipyramid: five planar rays that wind twice round the axis,
# coned to both poles.  It covers R^3 twice, so it is not a fan.
PENTAGRAM = (
    [(1, 0, 0), (-1, 1, 0), (1, -2, 0), (1, 2, 0), (-2, -1, 0), (0, 0, 1), (0, 0, -1)],
    [[j, (j + 1) % 5, pole] for j in range(5) for pole in (5, 6)],
)


# Small subdivisions get fan_automorphisms only.  They are many and alike,
# so the median operation of the workload is one automorphism search rather
# than the boundary between the cheap check reports and the searches.
SMALL_SUBDIVISIONS = 32


def automorphism_fans(seed):
    """(name, rays, cones, closed-form group order or None, run check too)."""
    rng = random.Random(seed)
    out = []
    for dims in PRODUCTS:
        name = "x".join(f"P{d}" for d in dims)
        out.append((name, *product_fan(dims), oracle.product_aut_order(dims), True))
    m, a, b = rng.randint(2, 5), rng.randint(1, 3), rng.randint(1, 3)
    out.append((f"weighted-p1111m:{m}", *weighted_p1111m(m), None, True))
    out.append((f"bundle-over-p3:{a}", *bundle_over_p3(a), None, True))
    out.append((f"bundle-over-p1xp1:{b}", *bundle_over_p1xp1(b), None, True))
    bases = [(3,), (1, 1, 1), (2, 1)]
    for k in range(3):
        rays, cones = stellar_subdivision(rng, *product_fan(rng.choice(bases)), 13)
        out.append((f"subdivision{k}", rays, cones, None, True))
    rays, cones = stellar_subdivision(rng, *product_fan((4,)), 9)
    out.append(("subdivision3", rays, cones, None, True))
    for k in range(SMALL_SUBDIVISIONS):
        rays, cones = stellar_subdivision(rng, *product_fan(rng.choice(bases)), 9)
        out.append((f"small-subdivision{k}", rays, cones, None, False))
    return out


def fan_document(rays, cones):
    n = len(rays[0])
    return {"lattice": f"standard:{n}", "rays": [list(v) for v in rays], "max_cones": [list(c) for c in cones]}
