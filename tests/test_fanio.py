"""Machine text of contraction traces against the plain JSON document it
must equal byte for byte."""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsym import cli, families, fanio
from toricsym.fan import Lattice, build_surface_fan
from toricsym.intlin import IntMatrix
from toricsym.mmp import classify_terminal, contract, traces
from toricsym.symmetry import action_from_generators, fan_automorphisms


def trace_document(trace):
    steps, terminal, label = trace
    return {
        "steps": [
            {
                "rays": [list(v) for v in cycle],
                "contracted_orbit": list(orbit),
                "contracted_rays": [list(cycle[i]) for i in orbit],
            }
            for cycle, orbit in steps
        ],
        "terminal_rays": [list(v) for v in terminal],
        "label": str(label),
    }


def oracle_text(result, mode):
    """The machine output as sorted-key ``json.dumps`` of a fresh document."""
    if mode == "first-orbit":
        (trace,) = result
        return json.dumps(trace_document(trace), sort_keys=True)
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
    """Every trace of ``mode``: one for first-orbit."""
    return list(traces(contract(fan, action_from_generators(fan, generators), first_only=mode == "first-orbit")))


class TestTraceText:
    @pytest.mark.parametrize("mode", ["first-orbit", "explore-all"])
    @pytest.mark.parametrize("fan,generators", CASES)
    def test_cli_output_equals_the_document(self, fan, generators, mode, tmp_path, capsys):
        flags = ["--explore-all"] if mode == "explore-all" else []
        code, out = mmp_machine(tmp_path, capsys, fan, generators, *flags)
        assert code == 0
        assert_same_text(out, oracle_text(traces_of(fan, generators, mode), mode) + "\n")

    def test_the_cases_reach_every_label_mmp_can_end_in(self):
        kinds = {
            label.kind
            for case in CASES
            for _, _, label in traces_of(*case.values, "explore-all")
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
        labels = [classify_terminal(fan) for fan in terminals]
        assert [str(label) for label in labels] == ["P2", "P1xP1", "Hirzebruch(3)", "DP6Terminal", "Other"]
        for fan, label in zip(terminals, labels):
            # A terminal node of the contraction graph: one path, no edges.
            (got,) = fanio.traces_text((1, fan.rays, label))
            assert_same_text(got, oracle_text([((), fan.rays, label)], "first-orbit"))

    def test_each_distinct_fan_is_written_once(self, tmp_path, capsys, monkeypatch):
        # Under the identity every orbit is one ray, so a ray list of at least
        # three rays is a fan's and a one-ray list a step's contracted rays.
        fan = build_surface_fan(Lattice.standard(2), BLOWUP_11)
        generators = [IntMatrix.identity(2)]
        written = []
        rays_text = fanio._rays_text
        monkeypatch.setattr(fanio, "_rays_text", lambda rays, texts: written.append(tuple(rays)) or rays_text(rays, texts))
        code, out = mmp_machine(tmp_path, capsys, fan, generators, "--explore-all")
        assert code == 0
        assert_same_text(out, oracle_text(traces_of(fan, generators, "explore-all"), "explore-all") + "\n")
        traces = json.loads(out)["traces"]
        steps = [json.dumps(step, sort_keys=True) for trace in traces for step in trace["steps"]]
        fans = {json.dumps(step["rays"]) for trace in traces for step in trace["steps"]}
        fans |= {json.dumps(trace["terminal_rays"]) for trace in traces}
        assert len(set(steps)) < len(steps)
        cycles = [rays for rays in written if len(rays) >= 3]
        assert len(cycles) == len(set(cycles)) == len(fans)
        assert len(written) - len(cycles) == len(set(steps))


def plain_trace_lines(trace, steps):
    """The plain lines of one trace, each shared step's text cached by
    identity."""
    trace_steps, terminal, label = trace
    for k, step in enumerate(trace_steps):
        text = steps.get(id(step))
        if text is None:
            cycle, orbit = step
            text = steps[id(step)] = (
                f"rays {list(cycle)}\n        contract orbit {list(orbit)} = {[cycle[i] for i in orbit]}"
            )
        yield f"step {k}: {text}"
    yield f"terminal rays {list(terminal)}"
    yield f"label {label}"


def plain_text(result, mode):
    """The plain output of the mmp command for the traces of ``mode``."""
    if mode == "first-orbit":
        (trace,) = result
        return "\n".join(plain_trace_lines(trace, {})) + "\n"
    steps = {}
    return "".join(
        f"--- branch {i} ---\n" + "\n".join(plain_trace_lines(trace, steps)) + "\n" for i, trace in enumerate(result)
    )


class TestStreamedText:
    """The mmp command writes each trace as it walks the contraction graph;
    its texts must equal those of the traces ``mmp.traces`` yields."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), full_group=st.booleans(), mode=st.sampled_from(["first-orbit", "explore-all"]))
    def test_random_blowups_in_both_formats(self, seed, full_group, mode):
        fan = families.random_blowup_surface_fan(random.Random(seed), max_rays=9)
        generators = list(fan_automorphisms(fan).elements) if full_group else [IntMatrix.identity(2)]
        result = traces_of(fan, generators, mode)
        flags = ["--explore-all"] if mode == "explore-all" else []
        with tempfile.TemporaryDirectory() as tmp:
            fan_path, action_path = Path(tmp) / "surface.fan", Path(tmp) / "action.json"
            fanio.save_fan(fan, fan_path)
            action_path.write_text(json.dumps(action_document(generators)), encoding="utf-8")
            for fmt, expected in (("machine", oracle_text(result, mode) + "\n"), ("plain", plain_text(result, mode))):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["mmp", str(fan_path), str(action_path), *flags, "--format", fmt])
                assert code == 0
                assert_same_text(out.getvalue(), expected)
