"""Fan, action and trace documents (JSON, integers only, no floats).

Fan document:    {"lattice": "standard:n" | "rootA2" | "weightA2",
                  "rays": [[..], ..],          # ambient form allowed for A2
                  "max_cones": [[..], ..]}     # required for rank >= 3
Action document: {"generators": [[[..], ..], ..],  # row-major matrices
                  "names": ["..", ..],             # optional labels, unused
                  "galois": [[..], ..]}            # optional involution
Trace text:      {"label": "..",
                  "steps": [{"contracted_orbit": [..], "contracted_rays": [[..], ..],
                             "rays": [[..], ..]}, ..],     # fan before each step
                  "terminal_rays": [[..], ..]}

Trace texts, machine (``traces_text``) or plain (``trace_lines``), are
streamed from the contraction graph, one per path as the walk reaches it,
so writing them takes the graph, one path and the output buffer, not every
trace at once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Sequence

from .errors import ParseError
from .fan import Fan, Lattice, make_fan
from .intlin import IntMatrix, Vector
from .mmp import _Node, _paths
from .symmetry import GaloisDatum

_encode = json.JSONEncoder(sort_keys=True).encode


def _load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _int_vector(raw: Any, what: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{what} must be a non-empty list of integers")
    if set(map(type, raw)) != {int}:  # one scan of the types; the loop names an offender
        for x in raw:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ParseError(f"{what} must contain exact integers, got {x!r}")
    return tuple(raw)


def _int_matrix(raw: Any, what: str) -> IntMatrix:
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{what} must be a non-empty list of rows")
    rows = [_int_vector(row, f"{what} row") for row in raw]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError(f"{what} has rows of different lengths")
    return IntMatrix._of(tuple(rows))  # entries checked above


def parse_fan_document(doc: Any, origin: str = "fan document") -> Fan:
    if not isinstance(doc, dict):
        raise ParseError(f"{origin}: expected an object")
    try:
        lattice = Lattice.from_label(str(doc["lattice"]))
    except KeyError:
        raise ParseError(f"{origin}: missing 'lattice'")
    rays_raw = doc.get("rays")
    if not isinstance(rays_raw, list) or not rays_raw:
        raise ParseError(f"{origin}: missing or empty 'rays'")
    rays = [_int_vector(r, "ray") for r in rays_raw]
    cones_raw = doc.get("max_cones")
    if cones_raw is not None and not isinstance(cones_raw, list):
        raise ParseError(f"{origin}: 'max_cones' must be a list")
    cones = None if cones_raw is None else [_int_vector(c, "cone") for c in cones_raw]
    return make_fan(lattice, rays, cones)


def load_fan(path: str | Path) -> Fan:
    return parse_fan_document(_load_json(path), origin=str(path))


def fan_document(fan: Fan, datum: GaloisDatum | None = None) -> dict:
    doc: dict[str, Any] = {
        "lattice": fan.lattice.label(),
        "rays": [list(v) for v in fan.rays],
    }
    if fan.rank != 2:
        doc["max_cones"] = [list(c) for c in fan.max_cones]
    if datum is not None:
        doc["galois"] = [list(row) for row in datum.tau.entries]
    return doc


def save_fan(fan: Fan, path: str | Path, datum: GaloisDatum | None = None) -> None:
    Path(path).write_text(json.dumps(fan_document(fan, datum), indent=2) + "\n", encoding="utf-8")


def parse_action_document(doc: Any, origin: str = "action document") -> tuple[list[IntMatrix], GaloisDatum | None]:
    if not isinstance(doc, dict):
        raise ParseError(f"{origin}: expected an object")
    gens_raw = doc.get("generators")
    if not isinstance(gens_raw, list):
        raise ParseError(f"{origin}: missing 'generators'")
    generators = [_int_matrix(g, "generator") for g in gens_raw]
    names_raw = doc.get("names", [])
    if not isinstance(names_raw, list) or any(not isinstance(n, str) for n in names_raw):
        raise ParseError(f"{origin}: 'names' must be a list of strings")
    datum = None
    if doc.get("galois") is not None:
        tau = _int_matrix(doc["galois"], "galois matrix")
        try:
            datum = GaloisDatum(tau=tau)
        except ValueError as exc:
            raise ParseError(f"{origin}: {exc}") from exc
    return generators, datum


def load_action(path: str | Path) -> tuple[list[IntMatrix], GaloisDatum | None]:
    return parse_action_document(_load_json(path), origin=str(path))


def load_galois(path: str | Path) -> GaloisDatum:
    doc = _load_json(path)
    if isinstance(doc, dict) and "galois" in doc:
        raw = doc["galois"]
    else:
        raw = doc
    tau = _int_matrix(raw, "galois matrix")
    try:
        return GaloisDatum(tau=tau)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def traces_text(root: _Node) -> Iterator[str]:
    """Machine text of each contraction trace below ``root``, a node of the
    contraction graph, depth first: the sorted-key JSON object {"label",
    "steps", "terminal_rays"}, each step an object {"contracted_orbit",
    "contracted_rays", "rays"}.  Each root ray's text is made once (the
    JSON text of a list of integers is its Python ``str``); each distinct
    fan's ray list, each edge's step and each terminal's label and rays are
    written once, and a trace is its terminal's label head, its path's
    steps and its terminal's rays, joined with json's default separators,
    so the text equals ``json.dumps(document, sort_keys=True)``."""
    ray_text = {v: str(list(v)) for v in root[1]}

    def terminal(cycle, label) -> tuple[str, str]:
        return f'{{"label": {_encode(str(label))}, "steps": [', f'], "terminal_rays": {_rays_text(cycle, ray_text)}}}'

    def edges(cycle, orbits) -> list[str]:
        rays = _rays_text(cycle, ray_text)
        return [
            f'{{"contracted_orbit": {list(orbit)}, "contracted_rays": '
            f'{_rays_text([cycle[i] for i in orbit], ray_text)}, "rays": {rays}}}'
            for orbit in orbits
        ]

    def extend(path: str, depth: int, step: str) -> str:
        return f"{path}, {step}" if depth else step

    for (head, tail), path in _paths(root, terminal, edges, extend, ""):
        yield head + path + tail


def trace_lines(root: _Node) -> Iterator[str]:
    """Plain lines of each contraction trace below ``root``, one text per
    trace, depth first.  Each root ray, each distinct fan's ray list and each
    edge's step is formatted once; only ``step k:`` is written per path, as
    a step's depth may differ between paths."""
    ray_text = {v: repr(v) for v in root[1]}

    def terminal(cycle, label) -> str:
        return f"terminal rays {_rays_text(cycle, ray_text)}\nlabel {label}\n"

    def edges(cycle, orbits) -> list[str]:
        rays = _rays_text(cycle, ray_text)
        return [
            f"rays {rays}\n        contract orbit {list(orbit)} = "
            f"{_rays_text([cycle[i] for i in orbit], ray_text)}\n"
            for orbit in orbits
        ]

    def extend(path: str, depth: int, step: str) -> str:
        return f"{path}step {depth}: {step}"

    for tail, path in _paths(root, terminal, edges, extend, ""):
        yield path + tail


def _rays_text(rays: Sequence[Vector], ray_text: dict[Vector, str]) -> str:
    """The list of ``rays`` as text, from the text of each ray."""
    return "[" + ", ".join([ray_text[v] for v in rays]) + "]"
