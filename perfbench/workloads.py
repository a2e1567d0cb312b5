"""The three workloads: their operations and the checks of their outputs.

An operation is one CLI call (``toricsym.cli.main`` in-process, machine
format, JSON parsed back) or, where no subcommand exists, one library call.
Program functions are looked up at call time, so the tracer's wrappers are
the ones called when tracing is on.
"""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import oracle

PENTAGRAM_FAULT = "reported complete, but the cones do not cover space exactly once"


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: str | None = None


def run_cli(argv):
    """Exit code and parsed machine output of one in-process CLI call."""
    from toricsym import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*argv, "--format", "machine"])
    text = out.getvalue()
    return code, json.loads(text) if text else None


def cli_payload(argv):
    code, payload = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {payload}")
    return payload


def write_json(path, doc):
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# --- surface checks ----------------------------------------------------------


def trace_problems(trace, action_ok, initial_rays):
    """Checks every step of one contraction trace.

    ``action_ok(rays, orbit)`` says whether the orbit may be contracted."""
    problems = []
    rays = [tuple(v) for v in initial_rays]
    for k, step in enumerate(trace["steps"]):
        step_rays = [tuple(v) for v in step["rays"]]
        if sorted(step_rays) != sorted(rays):
            problems.append(f"step {k} does not start from the previous fan")
        seq = oracle.surface_sequence(step_rays)
        if not oracle.noether_holds(seq):
            problems.append(f"step {k}: Noether's formula fails for {seq}")
        orbit = [tuple(v) for v in step["contracted_rays"]]
        if not action_ok(step_rays, orbit):
            problems.append(f"step {k}: {orbit} is not a contractible orbit")
        rays = [v for v in step_rays if v not in orbit]
    terminal = [tuple(v) for v in trace["terminal_rays"]]
    if sorted(terminal) != sorted(rays):
        problems.append("terminal fan is not the last contraction")
    seq = oracle.surface_sequence(terminal)
    if not oracle.noether_holds(seq):
        problems.append(f"terminal: Noether's formula fails for {seq}")
    return problems


def _trivial_ok(rays, orbit):
    cycle = oracle.ccw_cycle(rays)
    seq = oracle.self_intersections(cycle)
    return len(orbit) == 1 and seq[cycle.index(orbit[0])] == -1


def explore_trivial_problems(rays, payload):
    labels, _ = oracle.explore_all_trivial(oracle.surface_sequence(rays))
    got = Counter(t["label"] for t in payload["traces"])
    problems = [] if got == labels else [f"branch labels {dict(got)}, expected {dict(labels)}"]
    for t in payload["traces"]:
        problems += trace_problems(t, _trivial_ok, rays)
        terminal_seq = oracle.surface_sequence(t["terminal_rays"])
        if t["label"] != oracle.terminal_label(terminal_seq) or -1 in terminal_seq:
            problems.append(f"terminal {terminal_seq} labelled {t['label']}")
    return problems


def first_orbit_problems(rays, payload):
    removed, label = oracle.first_orbit_trivial(rays)
    got = [tuple(s["contracted_rays"][0]) for s in payload["steps"]]
    problems = trace_problems(payload, _trivial_ok, rays)
    if got != removed or payload["label"] != label:
        problems.append(f"path {got} -> {payload['label']}, expected {removed} -> {label}")
    return problems


def explore_s3_problems(kind, negation, rays, payload):
    ok = lambda step_rays, orbit: oracle.is_contractible_orbit(kind, step_rays, orbit, negation)
    labels = oracle.explore_all_s3(kind, rays, negation)
    got = Counter(t["label"] for t in payload["traces"])
    problems = [] if got == labels else [f"branch labels {dict(got)}, expected {dict(labels)}"]
    if set(got) - {"P2", "DP6Terminal"}:
        problems.append(f"a branch ends outside P2 and DP6Terminal: {dict(got)}")
    for t in payload["traces"]:
        problems += trace_problems(t, ok, rays)
    return problems


def census_problems(kind, height, max_rays, smooth, negation, payload):
    fans = [[tuple(v) for v in f["rays"]] for f in payload["fans"]]
    problems = []
    if payload["count"] != len(fans):
        problems.append("count disagrees with the fan list")
    for rays in fans:
        closure = set().union(*(oracle.s3_images(kind, v, negation) for v in rays))
        if closure != set(rays):
            problems.append(f"{rays} is not invariant")
        if smooth and not oracle.is_smooth_cycle(oracle.ccw_cycle(rays)):
            problems.append(f"{rays} is not smooth")
    if problems:
        return problems
    found = [oracle.class_invariant(rays, smooth) for rays in fans]
    expected = oracle.census_classes(kind, height, max_rays, smooth, negation)
    if len(set(found)) != len(found):
        problems.append("two census fans are isomorphic")
    if set(found) != expected:
        problems.append(f"{len(set(found))} classes, expected {len(expected)}")
    return problems


# --- higher-rank checks ------------------------------------------------------

_RNG = random.Random(0)
_POINTS = [tuple(_RNG.randint(-10**6, 10**6) for _ in range(5)) for _ in range(3)]


def check_report_problems(rays, cones, payload):
    n = len(rays[0])
    problems = []
    if [tuple(v) for v in payload["rays"]] != [tuple(v) for v in rays]:
        return ["rays were reordered"]
    if payload["class_group"] != oracle.class_group_label(rays):
        problems.append(f"class group {payload['class_group']}, sympy says {oracle.class_group_label(rays)}")
    smooth = all(abs(oracle.det([rays[i] for i in c])) == 1 for c in cones)
    if payload["smooth"] != smooth or payload["simplicial"] is not True:
        problems.append("smooth or simplicial flag is wrong")
    pairs = oracle.equal_class_pairs(rays)
    blocks = {frozenset([i] + [j for j in range(len(rays)) if (min(i, j), max(i, j)) in pairs]) for i in range(len(rays))}
    if {frozenset(b) for b in payload["blocks"]} != blocks:
        problems.append(f"blocks {payload['blocks']} disagree with the equal-class pairs")
    problems += oracle.relation_problems(rays, [tuple(c) for c in payload["relation_basis"]])
    complete = all(oracle.covering_degree(rays, cones, p[:n]) == 1 for p in _POINTS)
    if payload["complete"] != complete:
        problems.append(PENTAGRAM_FAULT if not complete else "complete fan reported incomplete")
    return problems


def pentagram_problems(rays, cones, result):
    code, payload = result
    if code == 3:  # refusing the document as not a fan is also right
        return []
    if code != 0:
        return [f"exit {code}"]
    return check_report_problems(rays, cones, payload)


def automorphism_problems(rays, cones, order, elements):
    problems = oracle.group_problems(elements, rays, cones)
    if order is not None and len(elements) != order:
        problems.append(f"order {len(elements)}, expected {order}")
    return problems


def automorphisms_of(doc):
    from toricsym import fanio, symmetry

    fan = fanio.parse_fan_document(doc)
    return [g.entries for g in symmetry.fan_automorphisms(fan).elements]


# --- workloads ---------------------------------------------------------------


class Census:
    """Both A2 lattices, smooth and not, each with and without negation;
    explore-all under the coordinate permutation action on every smooth
    fan found."""

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.order = inputs.census_order(seed)
        self.actions = {
            (kind, neg): write_json(self.workdir / f"s3-{kind}-{int(neg)}.json", inputs.s3_action_document(kind, neg))
            for kind in ("rootA2", "weightA2")
            for neg in (False, True)
        }

    def run_pass(self, run):
        for kind, h, m, smooth, neg in self.order:
            key = f"{kind}-h{h}-m{m}" + ("-smooth" if smooth else "") + ("-neg" if neg else "")
            argv = ["enumerate", "--lattice", kind, "--height", str(h), "--max-rays", str(m)]
            argv += (["--smooth"] if smooth else []) + (["--negation"] if neg else [])
            payload = run(Op(
                f"enumerate:{key}",
                lambda argv=argv: cli_payload(argv),
                lambda p, args=(kind, h, m, smooth, neg): census_problems(*args, p),
            ))
            if not smooth or payload is None:
                continue
            for i, doc in enumerate(payload["fans"]):
                path = write_json(self.workdir / f"{key}-{i}.json", doc)
                argv = ["mmp", path, self.actions[kind, neg], "--explore-all"]
                run(Op(
                    f"mmp:{key}:{i}",
                    lambda argv=argv: cli_payload(argv),
                    lambda p, rays=doc["rays"], kind=kind, neg=neg: explore_s3_problems(kind, neg, rays, p),
                ))


class Contractions:
    """Explore-all on blow-ups of P2 and F_a under the trivial action, where
    branches meet again; first-orbit on every third fan, so that the median
    operation is an explore-all call."""

    def __init__(self, seed, workdir):
        workdir = Path(workdir)
        self.fans = inputs.contraction_surfaces(seed)
        self.action = write_json(workdir / "trivial.json", inputs.trivial_action_document())
        self.paths = [write_json(workdir / f"surface{i}.json", inputs.surface_document(f)) for i, f in enumerate(self.fans)]

    def run_pass(self, run):
        for i, (rays, path) in enumerate(zip(self.fans, self.paths)):
            argv = ["mmp", path, self.action]
            run(Op(
                f"explore-all:{i}",
                lambda argv=argv: cli_payload(argv + ["--explore-all"]),
                lambda p, rays=rays: explore_trivial_problems(rays, p),
            ))
            if i % 3 == 0:
                run(Op(
                    f"first-orbit:{i}",
                    lambda argv=argv: cli_payload(argv),
                    lambda p, rays=rays: first_orbit_problems(rays, p),
                ))


class Automorphisms:
    """fan_automorphisms on fans of rank 3 to 5, the check report on all but
    the small subdivisions, and the check report on the pentagram
    bipyramid."""

    def __init__(self, seed, workdir):
        workdir = Path(workdir)
        self.fans = []
        for name, rays, cones, order, with_check in inputs.automorphism_fans(seed):
            doc = inputs.fan_document(rays, cones)
            path = write_json(workdir / f"{name}.json", doc) if with_check else None
            self.fans.append((name, rays, cones, order, doc, path))
        self.pentagram = write_json(workdir / "pentagram.json", inputs.fan_document(*inputs.PENTAGRAM))

    def run_pass(self, run):
        for name, rays, cones, order, doc, path in self.fans:
            run(Op(
                f"automorphisms:{name}",
                lambda doc=doc: automorphisms_of(doc),
                lambda els, rays=rays, cones=cones, order=order: automorphism_problems(rays, cones, order, els),
            ))
            if path:
                run(Op(
                    f"check:{name}",
                    lambda path=path: cli_payload(["check", path]),
                    lambda p, rays=rays, cones=cones: check_report_problems(rays, cones, p),
                ))
        run(Op(
            "check:pentagram",
            lambda: run_cli(["check", self.pentagram]),
            lambda r: pentagram_problems(*inputs.PENTAGRAM, r),
            known_fault=PENTAGRAM_FAULT,
        ))


WORKLOADS = {"census": Census, "contractions": Contractions, "automorphisms": Automorphisms}
