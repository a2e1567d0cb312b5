"""Command-line surface.

Subcommands: check, orbits, mmp, enumerate, families, fields, verify-paper.
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 mathematical
precondition failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Any, Iterable

from . import families, fanio
from .divisors import class_group, ray_blocks, ray_relations
from .errors import ParseError, PreconditionError
from .fan import Fan, Lattice, validate_fan
from .mmp import contract
from .symmetry import (
    GaloisDatum,
    GroupAction,
    action_from_generators,
    classify_galois_form,
    invariant_picard_number,
    ray_orbits,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


def _emit(payload: dict[str, Any], lines: Iterable[str], fmt: str) -> None:
    """Print the payload as sorted-key JSON, or the plain lines."""
    if fmt == "machine":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_action_for(fan: Fan, path: str) -> tuple[GroupAction, GaloisDatum | None]:
    generators, datum = fanio.load_action(path)
    action = action_from_generators(fan, generators)
    return action, datum


def _report_payload(fan: Fan, action: GroupAction | None, datum: GaloisDatum | None) -> tuple[dict, list[str]]:
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
        "relation_basis": [list(v) for v in relations.basis],
    }
    lines = [
        f"lattice        {fan.lattice.label()}",
        f"rays           {list(fan.rays)}",
        f"simplicial     {report.simplicial}",
        f"complete       {report.complete}",
        f"smooth         {report.smooth}",
        f"class group    {group}",
        f"block sizes    {partition.sizes}",
        f"blocks         {list(partition.blocks)}",
        f"relation basis {list(relations.basis)}",
    ]
    if action is not None:
        orbits = ray_orbits(action)
        payload.update(
            {
                "group_order": action.order,
                "ray_orbits": [list(o) for o in orbits],
                "invariant_picard_number": invariant_picard_number(action),
            }
        )
        lines += [
            f"group order    {action.order}",
            f"ray orbits     {list(orbits)}",
            f"invariant rho  {payload['invariant_picard_number']}",
        ]
        if datum is not None:
            form = classify_galois_form(action, datum)
            payload["galois_form"] = form.value
            lines.append(f"galois form    {form.value}")
    return payload, lines


def cmd_check(args: argparse.Namespace) -> int:
    fan = fanio.load_fan(args.fan)
    action = datum = None
    if args.action:
        action, datum = _load_action_for(fan, args.action)
    payload, lines = _report_payload(fan, action, datum)
    _emit(payload, lines, args.format)
    return EXIT_OK


def cmd_orbits(args: argparse.Namespace) -> int:
    fan = fanio.load_fan(args.fan)
    action, _ = _load_action_for(fan, args.action)
    orbits = ray_orbits(action)
    payload = {
        "group_order": action.order,
        "ray_orbits": [list(o) for o in orbits],
        "orbit_rays": [[list(fan.rays[i]) for i in o] for o in orbits],
    }
    lines = [f"group order {action.order}"]
    for o in orbits:
        lines.append(f"orbit {list(o)}: {[list(fan.rays[i]) for i in o]}")
    _emit(payload, lines, args.format)
    return EXIT_OK


def cmd_mmp(args: argparse.Namespace) -> int:
    fan = fanio.load_fan(args.fan)
    generators, datum = fanio.load_action(args.action)
    if args.galois:
        datum = fanio.load_galois(args.galois)
    if datum is not None:
        generators = generators + [datum.tau]
    action = action_from_generators(fan, generators)
    # The graph is built, and counted against MAX_TRACES, before any output.
    root = contract(fan, action, first_only=not args.explore_all)
    write = sys.stdout.write
    if args.format == "plain":
        for i, text in enumerate(fanio.trace_lines(root)):
            if args.explore_all:
                write(f"--- branch {i} ---\n")
            write(text)
    elif args.explore_all:
        write('{"traces": [')
        for i, text in enumerate(fanio.traces_text(root)):
            write(f", {text}" if i else text)
        write("]}\n")
    else:
        write(next(fanio.traces_text(root)) + "\n")
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    lattice = Lattice.from_label(args.lattice)
    fans = families.enumerate_invariant_fans(
        lattice,
        height=args.height,
        max_rays=args.max_rays,
        require_smooth=args.smooth,
        include_negation=args.negation,
    )
    payload = {
        "count": len(fans),
        "fans": [fanio.fan_document(f) for f in fans],
    }
    lines = [f"{len(fans)} invariant fans"]
    for f in fans:
        lines.append(f"{f.ray_count} rays: {list(f.rays)}")
    _emit(payload, lines, args.format)
    return EXIT_OK


def cmd_families(args: argparse.Namespace) -> int:
    if args.name is None:
        grammar = {name: text for name, (text, _, _) in families.FAMILIES.items()}
        payload = {"families": grammar}
        lines = [f"{name}: {text}" for name, text in grammar.items()]
        _emit(payload, lines, args.format)
        return EXIT_OK
    fan, datum = families.make_family_fan(args.name)
    if args.out:
        fanio.save_fan(fan, args.out, datum)
        _emit({"written": args.out}, [f"wrote {args.out}"], args.format)
    else:
        print(json.dumps(fanio.fan_document(fan, datum), indent=2))
    return EXIT_OK


def cmd_fields(args: argparse.Namespace) -> int:
    from . import qfield

    if args.config:
        doc = fanio._load_json(args.config)
        if not isinstance(doc, list):
            raise ParseError(f"{args.config}: expected a list of field descriptors")
        table = qfield.load_field_descriptors(doc)
    else:
        table = qfield.standard_field_table()
    payload = {}
    lines = []
    for name, desc in table.items():
        entry: dict[str, Any] = {"satisfies_star": qfield.satisfies_star(desc)}
        if desc.witness is not None:
            entry["witness_verifies"] = qfield.verify_negative_one_witness(desc)
        payload[name] = entry
        detail = f"star={entry['satisfies_star']}"
        if "witness_verifies" in entry:
            detail += f" witness={entry['witness_verifies']}"
        lines.append(f"{name}: {detail}")
    _emit(payload, lines, args.format)
    return EXIT_OK


def cmd_verify_paper(args: argparse.Namespace) -> int:
    from . import acceptance

    try:
        results = acceptance.run_criteria(only=args.only)
    except KeyError as exc:
        raise ParseError(exc.args[0]) from exc
    payload = {
        "results": [
            {"id": r.id, "title": r.title, "passed": r.passed, "failures": list(r.failures), "seconds": r.seconds}
            for r in results
        ]
    }
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.id}: {r.title}")
        for failure in r.failures:
            lines.append(f"     - {failure}")
    ok = all(r.passed for r in results)
    payload["all_passed"] = ok
    lines.append("all criteria passed" if ok else "verification FAILED")
    _emit(payload, lines, args.format)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="toricsym",
        description="Exact toolkit for complete simplicial toric varieties with finite symmetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "machine"), default="plain")

    p = sub.add_parser("check", parents=[common], help="validate a fan and report its invariants")
    p.add_argument("fan", help="fan document (JSON)")
    p.add_argument("action", nargs="?", help="optional action document (JSON)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("orbits", parents=[common], help="ray orbits of an action")
    p.add_argument("fan")
    p.add_argument("action")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("mmp", parents=[common], help="run the equivariant contraction loop")
    p.add_argument("fan")
    p.add_argument("action")
    p.add_argument("--explore-all", action="store_true", help="branch over every orbit choice")
    p.add_argument("--galois", help="document with a 'galois' involution to adjoin")
    p.set_defaults(func=cmd_mmp)

    p = sub.add_parser("enumerate", parents=[common], help="census of invariant surface fans")
    p.add_argument("--lattice", required=True, choices=("rootA2", "weightA2"))
    p.add_argument("--height", type=int, default=1)
    p.add_argument("--max-rays", type=int, default=12)
    p.add_argument("--smooth", action="store_true", help="keep only smooth fans")
    p.add_argument("--negation", action="store_true", help="close seed orbits under negation")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("families", parents=[common], help="list or emit the named fan families")
    p.add_argument("name", nargs="?", help="family descriptor, e.g. weighted-p1111m:2")
    p.add_argument("--out", help="write the fan document to this path")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("fields", parents=[common], help="evaluate the field-condition table")
    p.add_argument("--config", help="JSON list of field descriptors to load instead")
    p.set_defaults(func=cmd_fields)

    p = sub.add_parser("verify-paper", parents=[common], help="run the acceptance criteria")
    p.add_argument("--only", help="run a single criterion by id (e.g. A7)")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    def report_error(code: int, reason: str, message: str) -> int:
        if getattr(args, "format", "plain") == "machine":
            print(json.dumps({"error": {"code": code, "reason": reason, "message": message}}))
        print(f"error: {reason}: {message}", file=sys.stderr)
        return code

    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # The reader closed stdout: point it at devnull, so that the
        # interpreter's final flush cannot raise, and report on stderr alone.
        with contextlib.suppress(OSError, ValueError):  # stdout has no descriptor
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        return report_error(EXIT_PARSE, "parse", str(exc))
    except PreconditionError as exc:
        return report_error(EXIT_PRECONDITION, exc.reason, str(exc))
    except OSError as exc:
        return report_error(EXIT_PARSE, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
