"""The verification suite: one callable per acceptance criterion.

Each criterion returns a list of failure messages (empty means pass); the
runner also converts unexpected exceptions into failures.  The CLI's
``verify-paper`` subcommand and the test suite both execute this registry.
"""

from __future__ import annotations

import functools
import random
import time

from . import families, qfield
from .divisors import class_group, derive_block_relation, ray_blocks
from .fan import Fan, Lattice, _cycle_cones, cone_invariant_factors
from .intlin import IntMatrix, smith_normal_form
from .mmp import DP6_TERMINAL, P2, check_adjacent_minus_one_rule, contract, terminal_counts, traces
from .record import Record
from .symmetry import (
    centralizer_in_GL,
    fan_automorphisms,
    invariant_picard_number,
    ray_orbits,
)

RANDOM_CORPUS_SEED = 20260810


# The standard parameter sweep of each named family that takes a parameter.
_SWEEPS = {
    "projective-space": range(1, 5),
    "hirzebruch": range(-2, 3),
    "weighted-p11a": range(1, 5),
    "weighted-p1111m": range(1, 5),
    "bundle-over-p3": range(-2, 3),
    "bundle-over-p1xp1": range(-2, 3),
    "dp6": ("n1", "n2"),
}


def named_family_corpus() -> list[tuple[str, Fan]]:
    """Every named family at its standard parameter sweep, each named by the
    descriptor that builds it."""
    descriptors = [f"{name}:{p}" for name, sweep in _SWEEPS.items() for p in sweep]
    descriptors += [name for name in families.FAMILIES if name not in _SWEEPS]
    return [(d, families.make_family_fan(d)[0]) for d in descriptors]


def criterion_a1() -> list[str]:
    """Free rank of the class group equals ray count minus lattice rank."""
    failures = []
    corpus = named_family_corpus()
    rng = random.Random(RANDOM_CORPUS_SEED)
    for k in range(200):
        corpus.append((f"random-blowup-{k}", families.random_blowup_surface_fan(rng, max_rays=10)))
    for name, fan in corpus:
        group, _ = class_group(fan)
        expected = fan.ray_count - fan.rank
        if group.free_rank != expected:
            failures.append(f"{name}: free rank {group.free_rank}, expected {expected}")
    return failures


def criterion_a2() -> list[str]:
    """Grading block sizes of the named families."""
    cases: list[tuple[str, Fan, tuple[int, ...]]] = [
        ("projective-space:4", families.projective_space(4), (5,))
    ]
    for m in range(1, 5):
        # m = 1 degenerates to 4-space, whose five rays share one class
        expected = (5,) if m == 1 else (4, 1)
        cases.append((f"weighted-p1111m:{m}", families.weighted_p1111m(m), expected))
    for a in range(-2, 3):
        expected = (4, 2) if a == 0 else (4, 1, 1)
        cases.append((f"bundle-over-p3:{a}", families.bundle_over_p3(a), expected))
    for a in (-2, -1, 1, 2):
        cases.append((f"bundle-over-p1xp1:{a}", families.bundle_over_p1xp1(a), (2, 2, 1, 1)))
    for a in range(-2, 3):
        expected = (2, 2) if a == 0 else (2, 1, 1)
        cases.append((f"hirzebruch:{a}", families.hirzebruch(a), expected))
    failures = []
    for name, fan, expected in cases:
        sizes = ray_blocks(class_group(fan)[1]).sizes
        if sizes != expected:
            failures.append(f"{name}: block sizes {sizes}, expected {expected}")
    return failures


def criterion_a3() -> list[str]:
    """Forced relation with verified dual-vector certificates."""
    failures = []

    def check(name: str, fan: Fan, expected: tuple[int, ...]) -> None:
        block = (0, 1, 2, 3)
        result = derive_block_relation(fan, block)
        anchor = result.anchor
        d = fan.ray_count
        for u, j in zip(result.dual_vectors, [i for i in block if i != anchor]):
            for i in range(d):
                want = (1 if i == j else 0) - (1 if i == anchor else 0)
                got = sum(a * b for a, b in zip(u, fan.rays[i]))
                if got != want:
                    failures.append(f"{name}: dual vector pairing <u_{j}, v_{i}> = {got} != {want}")
        if IntMatrix.from_rows(result.dual_vectors).rank() != len(result.dual_vectors):
            failures.append(f"{name}: dual vectors are linearly dependent")
        rel = result.relation
        if rel != expected and tuple(-c for c in rel) != expected:
            failures.append(f"{name}: relation {rel}, expected {expected} up to sign")

    for m in range(1, 5):
        check(f"weighted-p1111m:{m}", families.weighted_p1111m(m), (1, 1, 1, 1, m))
    for a in range(-2, 3):
        check(f"bundle-over-p3:{a}", families.bundle_over_p3(a), (1, 1, 1, 1, -a, 0))
    return failures


def criterion_a4() -> list[str]:
    """The adjacent singular-hexagon cone has invariant factors (1, 3)."""
    failures = []
    lattice = Lattice.root_a2()
    coords = [lattice.coords((3, -1, -2)), lattice.coords((3, -2, -1))]
    factors = smith_normal_form(IntMatrix.from_rows(coords)).invariant_factors
    if factors != (1, 3):
        failures.append(f"coordinate matrix has invariant factors {factors}, expected (1, 3)")
    fan = families.singular_hexagon()
    cone = tuple(sorted(fan.ray_index(tuple(c)) for c in coords))
    if cone not in fan.max_cones:
        failures.append(f"{cone} is not a maximal cone of the singular hexagon")
    elif cone_invariant_factors(fan, cone) != (1, 3):
        failures.append("singular hexagon cone does not have invariant factors (1, 3)")
    return failures


def criterion_a5() -> list[str]:
    """Fan automorphism group orders: square 8, hexagon 12, triangle 6."""
    failures = []
    cases = [
        ("product-of-lines", families.weil_restriction_p1()[0], 8),
        ("hexagon", families.dp6("n2"), 12),
        ("triangle", families.projective_space(2), 6),
    ]
    for name, fan, expected in cases:
        order = fan_automorphisms(fan).order
        if order != expected:
            failures.append(f"{name}: automorphism order {order}, expected {expected}")
    return failures


def criterion_a6() -> list[str]:
    """The two inequivalent hexagon symmetries contract differently."""
    failures = []
    hexagon_n2 = families.dp6("n2")
    action_n2 = families.standard_s3_action(hexagon_n2)
    orbits = ray_orbits(action_n2)
    if sorted(len(o) for o in orbits) != [3, 3]:
        failures.append(f"two-orbit action: orbit sizes {[len(o) for o in orbits]}, expected [3, 3]")
    ((steps, _, label),) = traces(contract(hexagon_n2, action_n2, first_only=True))
    if label != P2 or len(steps) != 1:
        failures.append(f"two-orbit action: terminal {label} in {len(steps)} steps, expected P2 in 1")
    for steps, _, label in traces(contract(hexagon_n2, action_n2, first_only=False)):
        if label != P2 or len(steps) != 1:
            failures.append(f"two-orbit branch: {label} in {len(steps)} steps")

    hexagon_n1 = families.dp6("n1")
    action_n1 = families.standard_s3_action(hexagon_n1)
    orbits = ray_orbits(action_n1)
    if [len(o) for o in orbits] != [6]:
        failures.append(f"one-orbit action: orbit sizes {[len(o) for o in orbits]}, expected [6]")
    ((steps, _, label),) = traces(contract(hexagon_n1, action_n1, first_only=True))
    if label != DP6_TERMINAL or len(steps) != 0:
        failures.append(f"one-orbit action: terminal {label} in {len(steps)} steps, expected hexagon in 0")
    return failures


@functools.cache
def _census(include_negation: bool) -> tuple[tuple[str, Fan], ...]:
    """The smooth census at H = 1-6, built once and shared by A7 and A8."""
    fans = []
    for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
        for height, max_rays in ((1, 12), (2, 12), (3, 18), (4, 24), (5, 30), (6, 36)):
            for fan in families.enumerate_invariant_fans(
                lattice,
                height=height,
                max_rays=max_rays,
                require_smooth=True,
                include_negation=include_negation,
            ):
                fans.append((f"{lattice.kind}/H{height}/{fan.ray_count}-rays", fan))
    return tuple(fans)


def criterion_a7() -> list[str]:
    """Census: every contraction branch ends at the triangle or the hexagon.

    Every terminal has 3 or 6 rays, with negation and without; the smooth
    census enumerator starts its blow-ups from those fans.  The branches
    end at a handful of distinct terminal fans, so each is read once from
    the contraction graph, with its number of branches, and its invariant
    Picard number is computed once per action.
    """
    failures = []
    for negation in (False, True):
        tag = " (negation)" if negation else ""
        rhos: dict[tuple, int] = {}
        for name, fan in _census(include_negation=negation):
            action = families.standard_s3_action(fan, include_negation=negation)
            for (cycle, label), count in terminal_counts(contract(fan, action, first_only=False)).items():
                branches = f"{count} branch{'es' if count > 1 else ''}"
                if not negation and label not in (P2, DP6_TERMINAL):
                    failures.append(f"{name}: {branches} terminated at {label}")
                if len(cycle) not in (3, 6):
                    failures.append(f"{name}{tag}: {branches} ended with {len(cycle)} rays")
                if negation and len(cycle) == 6 and label != DP6_TERMINAL:
                    failures.append(f"{name}{tag}: 6-ray terminal of {branches} labelled {label}")
                key = (fan.lattice, cycle)
                if key not in rhos:
                    terminal = Fan(fan.lattice, cycle, _cycle_cones(len(cycle)))
                    terminal_action = families.standard_s3_action(terminal, include_negation=negation)
                    rhos[key] = invariant_picard_number(terminal_action)
                if rhos[key] not in (1, 2):
                    failures.append(f"{name}{tag}: terminal invariant Picard number {rhos[key]}")
    return failures


def criterion_a8() -> list[str]:
    """Adjacent (-1)-ray neighbor opposition, forced by a smooth fan's rays, holds on every census fan."""
    failures = []
    for name, fan in _census(include_negation=False) + _census(include_negation=True):
        try:
            check_adjacent_minus_one_rule(fan)
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    return failures


def criterion_a9() -> list[str]:
    """Centralizer of the coordinate-permutation action is +-identity."""
    failures = []
    expected = {IntMatrix.identity(2).entries, (-IntMatrix.identity(2)).entries}
    for kind in ("n1", "n2"):
        fan = families.dp6(kind)
        action = families.standard_s3_action(fan)
        got = {g.entries for g in centralizer_in_GL(action)}
        if got != expected:
            failures.append(f"{kind}: centralizer {sorted(got)}, expected +-identity")
    return failures


def criterion_a10() -> list[str]:
    """Sum-of-two-squares table with exactly verified witnesses."""
    failures = []
    table = qfield.standard_field_table()
    for name in ("Q", "R"):
        if not qfield.satisfies_star(table[name]):
            failures.append(f"{name} should satisfy the field condition")
    for name in ("Q(sqrt-3)", "Q(sqrt-1)"):
        desc = table[name]
        if qfield.satisfies_star(desc):
            failures.append(f"{name} should fail the field condition")
        if not qfield.verify_negative_one_witness(desc):
            failures.append(f"{name}: witness does not verify")
    half = qfield.Fraction(1, 2)
    if table["Q(sqrt-3)"].witness != ((half, half), (half, -half)):
        failures.append("Q(sqrt-3) witness is not the canonical half +- half sqrt(-3) pair")
    return failures


def criterion_a11() -> list[str]:
    """The coordinate swap exchanges the two pyramid subdivisions.

    The rays (1,0,a), (-1,0,0), (0,1,a), (0,-1,0), (0,0,-1) span a pyramid
    whose top splits along diagonal {0, 1} one way and along {2, 3} the other.
    Both subdivisions and the six-ray fan ``bundle_over_p1xp1(a)`` are
    compared by their cone vector sets, which cover every ray: at a = 0 the
    subdivided cones degenerate and are not strongly convex, though the
    six-ray fan is a genuine fan for every a.  The swap is an involution, so
    swap(sub1) = sub2 gives swap(sub2) = sub1, and with sub1 != sub2 it fixes
    neither: three conditions decide the obstruction, swap(sub1) = sub2,
    sub1 != sub2, and the swap keeps the six-ray fan.
    """

    def cone_sets(rays, cones, move=lambda v: v):
        return frozenset(frozenset(move(rays[i]) for i in cone) for cone in cones)

    failures = []
    swap = IntMatrix.from_rows([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    bottom = [(0, 2, 4), (1, 2, 4), (1, 3, 4), (0, 3, 4)]
    first, second = bottom + [(0, 1, 2), (0, 1, 3)], bottom + [(2, 3, 0), (2, 3, 1)]
    for a in (0, 1, 2):
        rays = [(1, 0, a), (-1, 0, 0), (0, 1, a), (0, -1, 0), (0, 0, -1)]
        sub1, sub2 = cone_sets(rays, first), cone_sets(rays, second)
        full = families.bundle_over_p1xp1(a)
        full_cones = cone_sets(full.rays, full.max_cones)
        for holds, fault in (
            (cone_sets(rays, first, swap.apply) == sub2, "swap(sub1) != sub2"),
            (sub1 != sub2, "sub1 = sub2"),
            (cone_sets(full.rays, full.max_cones, swap.apply) == full_cones, "the swap moves the six-ray fan"),
        ):
            if not holds:
                failures.append(f"a={a}: {fault}")
    return failures


def criterion_a12() -> list[str]:
    """Parity criteria and classification-table lookups.  ``families`` declares them and A12
    compares them with copies of the same constants, so it cannot fail on its own."""
    failures = []
    for m in range(1, 7):
        if families.s6_on_weighted_p1111m(m) != (m % 2 == 0):
            failures.append(f"weighted parity wrong at m={m}")
    for a in range(1, 7):
        if families.s6_on_bundle_over_p3(a) != (a % 2 == 0):
            failures.append(f"bundle parity wrong at a={a}")
    complex_degrees = {1: 4, 2: 5, 3: 6, 4: 6, 5: 7}
    star_degrees = {1: 3, 2: 4, 3: 5, 4: 6, 5: 7}
    for n in range(1, 6):
        entry = families.max_symmetric_degree(n, "C")
        if entry.degree != complex_degrees[n]:
            failures.append(f"closed-field table wrong at n={n}: {entry.degree}")
        entry = families.max_symmetric_degree(n, "star")
        if entry.degree != star_degrees[n]:
            failures.append(f"star-field table wrong at n={n}: {entry.degree}")
    entry = families.max_symmetric_degree(4, "C")
    if len(entry.varieties) != 4:
        failures.append("closed-field dimension-4 row should list four families")
    if not families.max_symmetric_degree(2, "star").infinite_family:
        failures.append("star-field dimension-2 row should flag the infinite family")
    return failures


class Criterion(Record):
    __slots__ = ("id", "title", "run")


CRITERIA: tuple[Criterion, ...] = (
    Criterion("A1", "class-group rank equals ray count minus lattice rank", criterion_a1),
    Criterion("A2", "grading block sizes of the named families", criterion_a2),
    Criterion("A3", "forced relation with dual-vector certificates", criterion_a3),
    Criterion("A4", "singular hexagon cone has invariant factors (1, 3)", criterion_a4),
    Criterion("A5", "automorphism orders: square 8, hexagon 12, triangle 6", criterion_a5),
    Criterion("A6", "the two hexagon symmetries contract differently", criterion_a6),
    Criterion("A7", "census branches terminate at the triangle or the hexagon", criterion_a7),
    Criterion("A8", "adjacent (-1)-ray neighbor opposition on the census", criterion_a8),
    Criterion("A9", "centralizer of the permutation action is +-identity", criterion_a9),
    Criterion("A10", "sum-of-two-squares field table with verified witnesses", criterion_a10),
    Criterion("A11", "coordinate swap exchanges the pyramid subdivisions", criterion_a11),
    Criterion("A12", "parity criteria and classification tables", criterion_a12),
)


class CriterionResult(Record):
    __slots__ = ("id", "title", "passed", "failures", "seconds")
    _defaults = {"failures": (), "seconds": 0.0}


def run_criteria(only: str | None = None) -> list[CriterionResult]:
    """Execute the registry (optionally a single criterion by id), timing each criterion."""
    results = []
    for criterion in CRITERIA:
        if only is not None and criterion.id != only:
            continue
        start = time.perf_counter()
        try:
            failures = tuple(criterion.run())
        except Exception as exc:  # a crash is a failure, not an abort
            failures = (f"unexpected {type(exc).__name__}: {exc}",)
        seconds = time.perf_counter() - start
        results.append(CriterionResult(criterion.id, criterion.title, not failures, failures, seconds))
    if only is not None and not results:
        raise KeyError(f"no criterion named {only!r}")
    return results
