"""The benchmark's own checks, on cases worked out by hand."""

import sys
from collections import Counter
from pathlib import Path

import pytest

import inputs
import oracle

P2 = [(1, 0), (0, 1), (-1, -1)]
F1 = [(1, 0), (0, 1), (-1, 1), (0, -1)]
HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def test_self_intersection_sequences():
    assert oracle.surface_sequence(P2) == (1, 1, 1)
    assert oracle.dihedral_min(oracle.surface_sequence(F1)) == (-1, 0, 1, 0)
    assert oracle.surface_sequence(HEXAGON) == (-1,) * 6
    for rays in (P2, F1, HEXAGON):
        assert oracle.noether_holds(oracle.surface_sequence(rays))


def test_terminal_labels():
    assert oracle.terminal_label((1, 1, 1)) == "P2"
    assert oracle.terminal_label((0, 0, 0, 0)) == "P1xP1"
    assert oracle.terminal_label((0, -2, 0, 2)) == "Hirzebruch(2)"
    assert oracle.terminal_label((-1,) * 6) == "DP6Terminal"


def test_trivial_action_trees():
    assert oracle.explore_all_trivial((1, 1, 1)) == (Counter({"P2": 1}), 0)
    assert oracle.explore_all_trivial((1, 0, -1, 0)) == (Counter({"P2": 1}), 1)
    # P2 blown up twice: the middle (-1)-curve gives P1xP1, the outer two F1 then P2.
    assert oracle.explore_all_trivial((-1, -1, -1, 0, 0)) == (Counter({"P2": 2, "P1xP1": 1}), 5)
    assert oracle.first_orbit_trivial(F1) == ([(0, 1)], "P2")


def test_hexagon_blown_up_once_has_two_branches():
    kind = "weightA2"
    rays = oracle.ccw_cycle(oracle.s3_images(kind, (1, 0)) | oracle.s3_images(kind, (1, 1)))
    assert oracle.surface_sequence(rays) == (-1,) * 6
    blown_up = rays + [(v[0] + w[0], v[1] + w[1]) for v, w in zip(rays, rays[1:] + rays[:1])]
    assert oracle.explore_all_s3(kind, blown_up) == Counter({"P2": 2})
    # With negation the two orbits merge into adjacent rays: nothing contracts.
    assert oracle.explore_all_s3(kind, rays, negation=True) == Counter({"DP6Terminal": 1})


def test_gl2_normal_form_is_invariant():
    g = ((2, 1), (1, 1))
    image = [oracle.matvec(g, v) for v in HEXAGON]
    assert oracle.gl2_normal_form(image) == oracle.gl2_normal_form(HEXAGON)
    assert oracle.gl2_normal_form(P2) != oracle.gl2_normal_form([(1, 0), (0, 1), (-1, -2)])


@pytest.mark.parametrize("dims, order", [((3,), 24), ((4,), 120), ((1, 1, 1, 1), 384), ((4, 1), 240)])
def test_product_orders(dims, order):
    assert oracle.product_aut_order(dims) == order


def test_group_problems():
    rays, cones = inputs.product_fan((2,))
    swaps = [((0, 1), (1, 0)), ((-1, 0), (-1, 1)), ((1, -1), (0, -1))]
    rotations = [((1, 0), (0, 1)), ((0, -1), (1, -1)), ((-1, 1), (-1, 0))]
    assert oracle.group_problems(swaps + rotations, rays, cones) == []
    assert oracle.group_problems(swaps + rotations[:2], rays, cones) == ["not closed under composition"]
    assert oracle.group_problems([((1, 0), (0, 1)), ((-1, 0), (0, -1))], rays, cones) != []


def test_class_groups_and_covering():
    assert oracle.class_group_label(P2) == "Z"
    assert oracle.class_group_label([(2, -1), (-1, 2), (-1, -1)]) == "Z + Z/3"
    rays, cones = inputs.product_fan((1, 1, 1))
    assert oracle.class_group_label(rays) == "Z^3"
    assert oracle.covering_degree(rays, cones, (3, -5, 7)) == 1
    assert oracle.covering_degree(*inputs.PENTAGRAM, (3, -5, 7)) == 2


def test_tracer_self_times_add_up():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from toricsym import fan
    from tracer import Tracer

    original = fan.validate_fan
    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_pass()
        surface = fan.build_surface_fan(fan.Lattice.standard(2), HEXAGON)
        assert fan.validate_fan(surface).smooth
        wall = tracer.end_pass()
        metrics = tracer.metrics(wall)
    finally:
        tracer.uninstall()
    assert fan.validate_fan is original
    total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert total == pytest.approx(wall)
    assert metrics["fan.validate.calls"][0] == 1
    assert metrics["intlin.snf.calls"][0] == 6
