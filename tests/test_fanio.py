"""Machine text of contraction traces against the plain JSON document it
must equal byte for byte."""

import json
import random

import pytest

from toricsym import cli, families, fanio
from toricsym.fan import Lattice, build_surface_fan
from toricsym.intlin import IntMatrix
from toricsym.mmp import MMPTrace, classify_terminal, run_equivariant_mmp
from toricsym.symmetry import action_from_generators


def trace_document(trace):
    return {
        "steps": [
            {
                "rays": [list(v) for v in step.fan.rays],
                "contracted_orbit": list(step.orbit),
                "contracted_rays": [list(v) for v in step.orbit_rays],
            }
            for step in trace.steps
        ],
        "terminal_rays": [list(v) for v in trace.terminal.rays],
        "label": str(trace.label),
    }


def oracle_text(result):
    """The machine output as sorted-key ``json.dumps`` of a fresh document."""
    if isinstance(result, MMPTrace):
        return json.dumps(trace_document(result), sort_keys=True)
    return json.dumps({"traces": [trace_document(t) for t in result]}, sort_keys=True)


def assert_same_text(got, expected):
    """Byte equality, reported at the first difference: pytest's own diff of
    megabyte texts would take minutes."""
    if got != expected:
        i = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        pytest.fail(f"texts differ at offset {i}: {got[i - 40 : i + 40]!r} != {expected[i - 40 : i + 40]!r}")


def action_document(generators):
    return {"generators": [[list(row) for row in g.entries] for g in generators]}


def census_cases(max_height=3):
    """Smooth census fans of both A2 lattices, with and without -1, under
    their S3 actions."""
    cases = []
    for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
        gens = list(lattice.s3_matrices())
        for negation in (False, True):
            for height in range(1, max_height + 1):
                for i, fan in enumerate(
                    families.enumerate_invariant_fans(
                        lattice, height, 6 * height, require_smooth=True, include_negation=negation
                    )
                ):
                    generators = gens + [-IntMatrix.identity(2)] * negation
                    cases.append(pytest.param(fan, generators, id=f"{lattice.kind}-H{height}-neg{int(negation)}-{i}"))
    return cases


def blowup_cases(count=30):
    """Seeded blow-ups of P2 and F_a under the trivial action."""
    return [
        pytest.param(
            families.random_blowup_surface_fan(random.Random(seed), max_rays=10),
            [IntMatrix.identity(2)],
            id=f"blowup-seed{seed}",
        )
        for seed in range(count)
    ]


CASES = census_cases() + blowup_cases()

# P2 blown up to 11 rays, whose explore-all traces share leading steps.
BLOWUP_11 = [(-1, -2), (0, -1), (1, -3), (2, -5), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (0, 1), (-1, -1)]


def mmp_machine(tmp_path, capsys, fan, generators, *flags):
    fan_path, action_path = tmp_path / "surface.fan", tmp_path / "action.json"
    fanio.save_fan(fan, fan_path)
    action_path.write_text(json.dumps(action_document(generators)), encoding="utf-8")
    code = cli.main(["mmp", str(fan_path), str(action_path), *flags, "--format", "machine"])
    return code, capsys.readouterr().out


def traces_of(fan, generators, mode):
    return run_equivariant_mmp(fan, action_from_generators(fan, generators), mode=mode)


class TestTraceText:
    @pytest.mark.parametrize("mode", ["first-orbit", "explore-all"])
    @pytest.mark.parametrize("fan,generators", CASES)
    def test_cli_output_equals_the_document(self, fan, generators, mode, tmp_path, capsys):
        flags = ["--explore-all"] if mode == "explore-all" else []
        code, out = mmp_machine(tmp_path, capsys, fan, generators, *flags)
        assert code == 0
        assert_same_text(out, oracle_text(traces_of(fan, generators, mode)) + "\n")

    def test_the_cases_reach_every_label_mmp_can_end_in(self):
        kinds = {
            trace.label.kind
            for case in CASES
            for trace in traces_of(*case.values, "explore-all")
        }
        assert kinds == {"P2", "P1xP1", "Hirzebruch", "DP6Terminal"}

    def test_every_label_renders(self, std2):
        # A G-minimal smooth toric surface is P2, F_a or the hexagon, so no
        # mmp call ends in Other; its text is checked on hand-made traces.
        terminals = [
            build_surface_fan(std2, rays)
            for rays in (
                [(1, 0), (0, 1), (-1, -1)],
                [(1, 0), (0, 1), (-1, 0), (0, -1)],
                [(1, 0), (0, 1), (-1, 3), (0, -1)],
                [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
                [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)],
            )
        ]
        traces = [MMPTrace((), fan, classify_terminal(fan)) for fan in terminals]
        assert [str(t.label) for t in traces] == ["P2", "P1xP1", "Hirzebruch(3)", "DP6Terminal", "Other"]
        for got, trace in zip(fanio.traces_text(traces), traces, strict=True):
            assert_same_text(got, oracle_text(trace))

    def test_each_shared_step_is_encoded_once(self, tmp_path, capsys, monkeypatch):
        fan = build_surface_fan(Lattice.standard(2), BLOWUP_11)
        generators = [IntMatrix.identity(2)]
        encoded = []
        encode = fanio._encode
        monkeypatch.setattr(fanio, "_encode", lambda obj: encoded.append(obj) or encode(obj))
        code, out = mmp_machine(tmp_path, capsys, fan, generators, "--explore-all")
        assert code == 0
        assert_same_text(out, oracle_text(traces_of(fan, generators, "explore-all")) + "\n")
        traces = json.loads(out)["traces"]
        steps = [json.dumps(step, sort_keys=True) for trace in traces for step in trace["steps"]]
        terminals = {json.dumps(trace["terminal_rays"]) for trace in traces}
        assert len(set(steps)) < len(steps)
        assert sum(not isinstance(obj, str) for obj in encoded) == len(set(steps)) + len(terminals)
