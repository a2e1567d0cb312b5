"""Command-line surface.

Subcommands: check, orbits, mmp, enumerate, families, fields, verify-paper.
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 mathematical
precondition failure.  Each subcommand imports the layers it runs when it
runs, so a process loads only those of its own subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Any, Callable, Iterable

from . import fanio
from .errors import ParseError, PreconditionError
from .fan import Fan, Lattice, validate_fan
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


def _emit(payload: dict[str, Any], lines: Callable[[], Iterable[str]], fmt: str) -> None:
    """Print the payload as sorted-key JSON, or the plain lines, which are
    built only then."""
    if fmt == "machine":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines():
            print(line)


def _load_action_for(fan: Fan, path: str) -> tuple[GroupAction, GaloisDatum | None]:
    generators, datum = fanio.load_action(path)
    action = action_from_generators(fan, generators)
    return action, datum


def _report_payload(fan: Fan, action: GroupAction | None, datum: GaloisDatum | None) -> tuple[dict, Callable]:
    """The check report: one row (plain label or None, machine key, value) per
    fact, rendered as the payload {key: value} (JSON writes tuples as lists)
    and as the plain lines of the labelled rows."""
    from .divisors import class_group, ray_blocks, ray_relations

    report = validate_fan(fan)
    group, classes = class_group(fan)
    partition = ray_blocks(classes)
    rows: list[tuple[str | None, str, Any]] = [
        ("lattice", "lattice", fan.lattice.label()),
        ("rays", "rays", list(fan.rays)),
        ("simplicial", "simplicial", report.simplicial),
        ("complete", "complete", report.complete),
        ("smooth", "smooth", report.smooth),
        ("class group", "class_group", str(group)),
        (None, "ray_classes", classes),
        ("block sizes", "block_sizes", partition.sizes),
        ("blocks", "blocks", list(partition.blocks)),
        ("relation basis", "relation_basis", list(ray_relations(classes))),
    ]
    if action is not None:
        rows += [
            ("group order", "group_order", action.order),
            ("ray orbits", "ray_orbits", list(ray_orbits(action))),
            ("invariant rho", "invariant_picard_number", invariant_picard_number(action)),
        ]
        if datum is not None:
            rows.append(("galois form", "galois_form", classify_galois_form(action, datum).value))
    payload = {key: value for _, key, value in rows}
    return payload, lambda: [f"{label:<15}{value}" for label, _, value in rows if label is not None]


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
    rows = zip(payload["ray_orbits"], payload["orbit_rays"])
    _emit(payload, lambda: [f"group order {action.order}", *(f"orbit {o}: {rays}" for o, rays in rows)], args.format)
    return EXIT_OK


def cmd_mmp(args: argparse.Namespace) -> int:
    from .mmp import contract

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
    from . import families

    lattice = Lattice.from_label(args.lattice)
    fans = families.enumerate_invariant_fans(
        lattice, args.height, args.max_rays, require_smooth=args.smooth, include_negation=args.negation
    )
    payload = {"count": len(fans), "fans": [fanio.fan_document(f) for f in fans]} if args.format == "machine" else {}
    rows = (f"{f.ray_count} rays: {list(f.rays)}" for f in fans)
    _emit(payload, lambda: [f"{len(fans)} invariant fans", *rows], args.format)
    return EXIT_OK


def cmd_families(args: argparse.Namespace) -> int:
    from . import families

    if args.name is None:
        grammar = {name: text for name, (text, _, _) in families.FAMILIES.items()}
        payload = {"families": grammar}
        _emit(payload, lambda: [f"{name}: {text}" for name, text in grammar.items()], args.format)
        return EXIT_OK
    fan, datum = families.make_family_fan(args.name)
    if args.out:
        fanio.save_fan(fan, args.out, datum)
        _emit({"written": args.out}, lambda: [f"wrote {args.out}"], args.format)
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
    for name, desc in table.items():
        entry: dict[str, Any] = {"satisfies_star": qfield.satisfies_star(desc)}
        if desc.witness is not None:
            entry["witness_verifies"] = qfield.verify_negative_one_witness(desc)
        payload[name] = entry

    def lines():
        for name, entry in payload.items():
            witness = f" witness={entry['witness_verifies']}" if "witness_verifies" in entry else ""
            yield f"{name}: star={entry['satisfies_star']}{witness}"

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
    ok = all(r.passed for r in results)
    payload["all_passed"] = ok

    def lines():
        for r in results:
            yield f"{'PASS' if r.passed else 'FAIL'} {r.id}: {r.title}"
            yield from (f"     - {failure}" for failure in r.failures)
        yield "all criteria passed" if ok else "verification FAILED"

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

    parser.subcommands = sub.choices  # each subcommand's parser, by name
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsed once: the top parser would
    hand all that follows a subcommand's name to that subcommand's parser, so
    it parses them alone, and the top parser refuses what it leaves over."""
    parser = build_parser()
    if not argv or argv[0] not in parser.subcommands:
        return parser.parse_args(argv)
    args, extras = parser.subcommands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)

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
    except ValueError as exc:  # int-to-str refuses an integer past the process's digit limit
        if "integer string conversion" not in str(exc):
            raise
        message = f"the result holds an integer of over {sys.get_int_max_str_digits()} digits"
        return report_error(EXIT_PRECONDITION, "integer-too-long", message)


if __name__ == "__main__":
    sys.exit(main())
