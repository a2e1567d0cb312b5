"""Machine text of contraction traces against the plain JSON document it
must equal byte for byte."""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Integer

from toricsym import cli, families, fanio
from toricsym import fan as fan_module
from toricsym.fan import Lattice, build_surface_fan, make_fan
from toricsym.intlin import IntMatrix

from conftest import oracle_make_fan, oracle_parse_fan_document, outcome
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


class _Int(int):
    """An int subclass: an exact integer that is not of type int."""


def _product_document(*dims):
    """The fan document of a product of projective spaces P^n."""
    fan = families.projective_space(dims[0])
    for n in dims[1:]:
        other = families.projective_space(n)
        rays = [v + (0,) * n for v in fan.rays] + [(0,) * fan.rank + w for w in other.rays]
        cones = [c + tuple(fan.ray_count + j for j in d) for c in fan.max_cones for d in other.max_cones]
        fan = make_fan(Lattice.standard(fan.rank + n), rays, cones)
    return fanio.fan_document(fan)


def _base_documents():
    """Valid fan documents of ranks 1-5, as the program writes them."""
    products = [(1,), (1, 1), (2,), (2, 1), (1, 1, 1), (3,), (4,), (2, 2), (4, 1), (5,)]
    docs = [_product_document(*dims) for dims in products]
    docs += [fanio.fan_document(families.bundle_over_p3(a)) for a in (1, 2)]
    docs += [fanio.fan_document(families.weighted_p1111m(m)) for m in (2, 3)]
    docs += [
        fanio.fan_document(families.random_blowup_surface_fan(random.Random(seed), max_rays=9)) for seed in range(6)
    ]
    docs.append({"lattice": "weightA2", "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]]})
    return docs


BASE_DOCUMENTS = _base_documents()
NOT_INTS = [float, bool, str, lambda x: None, Fraction, Integer, _Int]
NOT_INT_IDS = ["float", "bool", "str", "None", "Fraction", "sympy-Integer", "int-subclass"]


def _surface_order(kind, d, perm):
    """A reordering of a rank-2 ray list: cyclic, reversed, shuffled, or every
    second ray first, which winds twice round the origin when no two
    neighbours of the new order are half a turn apart."""
    if kind == "cyclic":
        return list(range(1, d)) + [0]
    if kind == "reversed":
        return list(range(d))[::-1]
    if kind == "shuffled":
        return perm
    return list(range(0, d, 2)) + list(range(1, d, 2))


@st.composite
def documents(draw):
    """A base document, maybe reordered (rank 2), with at most one fault."""
    doc = json.loads(json.dumps(draw(st.sampled_from(BASE_DOCUMENTS))))
    rays, cones, d = doc["rays"], doc.get("max_cones"), len(doc["rays"])
    if len(rays[0]) == 2 and doc["lattice"] == "standard:2":
        kind = draw(st.sampled_from(["as-written", "cyclic", "reversed", "shuffled", "twice"]))
        if kind != "as-written":
            order = _surface_order(kind, d, draw(st.permutations(range(d))))
            doc["rays"] = rays = [rays[i] for i in order]
        if draw(st.booleans()):  # the adjacent pairs of the given order
            doc["max_cones"] = cones = [[i, (i + 1) % d] for i in range(d)]
    faults = ["none", "entry", "zero-ray", "parallel-ray"] + ["cone"] * bool(cones)
    fault = draw(st.sampled_from(faults))
    if fault == "entry":
        target = rays if not cones or draw(st.booleans()) else cones
        row = target[draw(st.sampled_from([0, len(target) - 1]))]
        k = draw(st.integers(0, len(row) - 1))
        row[k] = draw(st.sampled_from(NOT_INTS))(row[k])
    elif fault == "zero-ray":
        rays[draw(st.integers(0, d - 1))] = [0] * len(rays[0])
    elif fault == "parallel-ray":
        rays.append([draw(st.sampled_from([2, 3])) * x for x in rays[draw(st.integers(0, d - 1))]])
    elif fault == "cone":
        cone = cones[draw(st.sampled_from([0, len(cones) - 1]))]
        change = draw(st.sampled_from(["empty", "duplicate", "negative", "out-of-range"]))
        if change == "empty":
            cone.clear()
        elif change == "duplicate":
            cone.append(cone[0])
        else:
            bad = -1 if change == "negative" else draw(st.sampled_from([d, d + 5]))
            cone[draw(st.integers(0, len(cone) - 1))] = bad
    return doc


# Rays of a smooth 7-ray fan, every second one first: det(v_i, v_{i+1}) > 0
# all round, and the list winds twice round the origin.
TWICE_ROUND = {"lattice": "standard:2", "rays": [[1, 0], [0, 1], [-1, 1], [0, -1], [1, 1], [-1, 0], [-1, -1]]}


class TestEntryPathAgainstTheOracle:
    """A document becomes the same fan, or the same refusal, as under the
    entry-by-entry checks of ``conftest``: type scans fall back to naming
    the first offending entry, and the batched cone test to the per-cone
    checks, so the first offending cone names the refusal."""

    @settings(max_examples=400, deadline=None)
    @given(documents())
    @example(TWICE_ROUND)
    def test_documents(self, doc):
        assert outcome(fanio.parse_fan_document, doc) == outcome(oracle_parse_fan_document, doc)

    @settings(max_examples=400, deadline=None)
    @given(documents())
    def test_library_values(self, doc):
        # make_fan itself sees the entries fanio would refuse.
        lattice = Lattice.from_label(doc["lattice"])
        args = (lattice, doc["rays"], doc.get("max_cones"))
        assert outcome(make_fan, *args) == outcome(oracle_make_fan, *args)

    @pytest.mark.parametrize("bad", NOT_INTS, ids=NOT_INT_IDS)
    @pytest.mark.parametrize("where", ["first", "later"])
    def test_every_kind_of_entry_in_rays_and_cones(self, bad, where):
        for doc in BASE_DOCUMENTS:
            for key in ("rays", "max_cones"):
                if key in doc:
                    faulty = json.loads(json.dumps(doc))
                    row = faulty[key][0 if where == "first" else -1]
                    row[-1] = bad(row[-1])
                    assert outcome(fanio.parse_fan_document, faulty) == outcome(oracle_parse_fan_document, faulty)
                    args = (Lattice.from_label(doc["lattice"]), faulty["rays"], faulty.get("max_cones"))
                    assert outcome(make_fan, *args) == outcome(oracle_make_fan, *args)

    def test_a_dependent_cone_is_named_before_a_later_missing_ray(self):
        doc = _product_document(3)
        doc["max_cones"] = [[0, 1, 2], [0, 1, 2, 3], [0, 1, 9]]
        got = outcome(fanio.parse_fan_document, doc)
        assert got == outcome(oracle_parse_fan_document, doc)
        assert got[1] == "non-simplicial-cone"

    def test_written_surfaces_are_not_sorted(self, monkeypatch):
        # Every rank-2 document the program writes lists a cycle that winds
        # once counterclockwise; one that winds twice is sorted.
        sorted_lists = []
        ccw_sort = fan_module._ccw_sort
        monkeypatch.setattr(fan_module, "_ccw_sort", lambda rays: sorted_lists.append(rays) or ccw_sort(rays))
        for doc in BASE_DOCUMENTS:
            if doc["lattice"] == "standard:2":
                fanio.parse_fan_document(doc)
        assert sorted_lists == []
        fan = fanio.parse_fan_document(TWICE_ROUND)
        assert len(sorted_lists) == 1
        assert fan == oracle_parse_fan_document(TWICE_ROUND)
