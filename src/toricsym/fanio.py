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
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from .errors import ParseError
from .fan import Fan, Lattice, make_fan
from .intlin import IntMatrix
from .mmp import MMPStep, MMPTrace
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
    out = []
    for x in raw:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ParseError(f"{what} must contain exact integers, got {x!r}")
        out.append(x)
    return tuple(out)


def _int_matrix(raw: Any, what: str) -> IntMatrix:
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{what} must be a non-empty list of rows")
    rows = [_int_vector(row, f"{what} row") for row in raw]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError(f"{what} has rows of different lengths")
    return IntMatrix.from_rows(rows)


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
    cones = None
    if cones_raw is not None:
        if not isinstance(cones_raw, list):
            raise ParseError(f"{origin}: 'max_cones' must be a list")
        cones = [_int_vector(c, "cone") for c in cones_raw]
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


def traces_text(traces: Sequence[MMPTrace]) -> list[str]:
    """Machine text of each contraction trace: the sorted-key JSON object
    {"label", "steps", "terminal_rays"}, each step an object {"contracted_orbit",
    "contracted_rays", "rays"}.  Explore-all branches share their step and
    terminal objects; each distinct one is encoded once, by identity, and the
    traces are joined from those fragments with json's default separators, so
    the text equals ``json.dumps(document, sort_keys=True)``."""
    steps: dict[int, str] = {}
    terminals: dict[int, str] = {}

    def step_text(step: MMPStep) -> str:
        text = steps.get(id(step))
        if text is None:
            text = steps[id(step)] = _encode(
                {
                    "contracted_orbit": step.orbit,
                    "contracted_rays": step.orbit_rays,
                    "rays": step.fan.rays,
                }
            )
        return text

    def terminal_text(fan: Fan) -> str:
        text = terminals.get(id(fan))
        if text is None:
            text = terminals[id(fan)] = _encode(fan.rays)
        return text

    return [
        f'{{"label": {_encode(str(trace.label))}, "steps": [{", ".join(map(step_text, trace.steps))}], '
        f'"terminal_rays": {terminal_text(trace.terminal)}}}'
        for trace in traces
    ]
