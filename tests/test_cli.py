import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toricsym
from toricsym import cli, families, fanio, symmetry
from toricsym.fan import Lattice, make_fan
from toricsym.intlin import IntMatrix
from toricsym.mmp import contract, traces
from toricsym.symmetry import action_from_generators, fan_automorphisms


def run_cli(*argv):
    return cli.main(list(argv))


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


def machine_error(capsys, *argv):
    """Exit code and the JSON error object of a failing machine-format run."""
    code = run_cli(*argv, "--format", "machine")
    return code, json.loads(capsys.readouterr().out)["error"]


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.fan"
    fanio.save_fan(families.projective_space(2), path)
    return str(path)


@pytest.fixture
def dp6_n1_files(tmp_path):
    fan_path = tmp_path / "dp6_n1.fan"
    fanio.save_fan(families.dp6("n1"), fan_path)
    act_path = tmp_path / "s3_n1.act"
    gens = [
        [list(row) for row in g.entries] for g in Lattice.root_a2().s3_matrices()
    ]
    write_json(act_path, {"generators": gens, "names": ["swap01", "cycle"]})
    return str(fan_path), str(act_path)


@pytest.fixture
def dp6_n2_files(tmp_path):
    fan_path = tmp_path / "dp6_n2.fan"
    fanio.save_fan(families.dp6("n2"), fan_path)
    act_path = tmp_path / "s3_n2.act"
    gens = [
        [list(row) for row in g.entries] for g in Lattice.weight_a2().s3_matrices()
    ]
    write_json(act_path, {"generators": gens})
    return str(fan_path), str(act_path)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "descriptor",
        [
            "projective-space:2",
            "projective-space:4",
            "hirzebruch:-2",
            "weighted-p1111m:2",
            "bundle-over-p3:2",
            "bundle-over-p1xp1:1",
            "dp6:n1",
            "singular-hexagon",
        ],
    )
    def test_emit_then_reload_is_identity(self, tmp_path, descriptor):
        fan, datum = families.make_family_fan(descriptor)
        path = tmp_path / "fan.json"
        fanio.save_fan(fan, path, datum)
        assert fanio.load_fan(path) == fan

    def test_ambient_rays_round_trip(self, tmp_path):
        path = tmp_path / "ambient.fan"
        write_json(
            path,
            {"lattice": "rootA2", "rays": [[1, -1, 0], [-1, 1, 0], [0, 1, -1], [0, -1, 1], [1, 0, -1], [-1, 0, 1]]},
        )
        assert fanio.load_fan(path) == families.dp6("n1")


class TestCheckCommand:
    def test_plain_triangle(self, p2_file, capsys):
        assert run_cli("check", p2_file) == 0
        out = capsys.readouterr().out
        assert "class group    Z" in out
        assert "smooth         True" in out
        assert "block sizes    (3,)" in out

    def test_machine_hexagon_with_action(self, dp6_n1_files, capsys):
        fan_path, act_path = dp6_n1_files
        assert run_cli("check", fan_path, act_path, "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class_group"] == "Z^4"
        assert payload["block_sizes"] == [1, 1, 1, 1, 1, 1]
        assert payload["group_order"] == 6
        assert len(payload["ray_orbits"]) == 1
        assert payload["invariant_picard_number"] == 1
        assert run_cli("check", fan_path, "--format", "machine") == 0
        plain = json.loads(capsys.readouterr().out)
        assert set(payload) - set(plain) == {"group_order", "ray_orbits", "invariant_picard_number"}

    def test_ray_orbits_are_taken_twice(self, dp6_n1_files, monkeypatch):
        # Once for the report, once for the invariant Picard number.
        calls = []
        original = symmetry.ray_orbits
        counted = lambda action: calls.append(action) or original(action)
        monkeypatch.setattr(cli, "ray_orbits", counted)
        monkeypatch.setattr(symmetry, "ray_orbits", counted)
        assert run_cli("check", *dp6_n1_files) == 0
        assert len(calls) == 2

    def test_galois_form_reported(self, tmp_path, capsys):
        fan, datum = families.q22()
        fan_path = tmp_path / "q22.fan"
        fanio.save_fan(fan, fan_path)
        act_path = tmp_path / "q22.act"
        gens = [[list(row) for row in g.entries] for g in Lattice.weight_a2().s3_matrices()]
        write_json(act_path, {"generators": gens, "galois": [[-1, 0], [0, -1]]})
        assert run_cli("check", str(fan_path), str(act_path), "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["galois_form"] == "negation-twist"

    def test_incomplete_fan_exits_3(self, tmp_path, capsys):
        path = tmp_path / "broken.fan"
        write_json(path, {"lattice": "standard:2", "rays": [[1, 0], [0, 1], [1, 1]]})
        assert run_cli("check", str(path)) == 3
        assert "incomplete" in capsys.readouterr().err

    def test_overlapping_cones_exit_3(self, tmp_path, capsys):
        # The pentagram bipyramid: its cones cover R^3 twice.
        rays = [[1, 0, 0], [-1, 1, 0], [1, -2, 0], [1, 2, 0], [-2, -1, 0], [0, 0, 1], [0, 0, -1]]
        cones = [[j, (j + 1) % 5, pole] for j in range(5) for pole in (5, 6)]
        path = tmp_path / "pentagram.fan"
        write_json(path, {"lattice": "standard:3", "rays": rays, "max_cones": cones})
        code, error = machine_error(capsys, "check", str(path))
        assert (code, error["reason"]) == (3, "overlapping-cones")

    def test_two_sheets_sharing_no_wall_exit_3(self, tmp_path, capsys):
        # P^3 and its negative: every wall is paired within one copy, and
        # the two copies cover R^3 twice.
        rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
        rays += [[-x for x in v] for v in rays]
        cones = [list(c) for c in itertools.combinations(range(4), 3)]
        cones += [[i + 4 for i in c] for c in cones]
        path = tmp_path / "two-sheets.fan"
        write_json(path, {"lattice": "standard:3", "rays": rays, "max_cones": cones})
        code, error = machine_error(capsys, "check", str(path))
        assert (code, error["reason"]) == (3, "overlapping-cones")
        assert run_cli("check", str(path)) == 3
        assert "overlapping-cones: a point inside the first cone lies in 2 cones" in capsys.readouterr().err

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.fan"
        path.write_text("{not json", encoding="utf-8")
        assert run_cli("check", str(path)) == 2

    def test_missing_file_exits_2(self):
        assert run_cli("check", "/nonexistent/nope.fan") == 2

    def test_schema_violation_exits_2(self, tmp_path):
        path = tmp_path / "floaty.fan"
        write_json(path, {"lattice": "standard:2", "rays": [[1.5, 0], [0, 1], [-1, -1]]})
        assert run_cli("check", str(path)) == 2


@pytest.fixture
def huge_torsion_file(tmp_path):
    """A fan of 3 001-digit ray entries whose class group has a torsion
    factor M^2 + 1 of 6 001 digits, past Python's 4 300-digit limit on
    writing an integer as text."""
    m = 10**3000 + 7
    path = tmp_path / "huge.fan"
    write_json(path, {"lattice": "standard:2", "rays": [[m, 1], [-1, m], [1 - m, -1 - m]]})
    return str(path)


class TestIntegerTooLong:
    """A result holding an integer too long to write as text exits 3 with
    ``integer-too-long``, and the process keeps its digit limit."""

    def test_in_process(self, huge_torsion_file, capsys):
        limit = sys.get_int_max_str_digits()
        code, error = machine_error(capsys, "check", huge_torsion_file)
        assert (code, error["reason"]) == (3, "integer-too-long")
        assert error["message"] == f"the result holds an integer of over {limit} digits"
        assert run_cli("check", huge_torsion_file) == 3
        assert capsys.readouterr().out == "" and sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("fmt", ["plain", "machine"])
    def test_in_a_fresh_process(self, huge_torsion_file, fmt):
        code, out, err = fresh_process(["check", huge_torsion_file, "--format", fmt])
        assert code == 3 and err.startswith("error: integer-too-long: ") and err.count("\n") == 1, err
        assert out == "" if fmt == "plain" else json.loads(out)["error"]["reason"] == "integer-too-long"


class TestOrbitsCommand:
    def test_orbits_output(self, dp6_n2_files, capsys):
        fan_path, act_path = dp6_n2_files
        assert run_cli("orbits", fan_path, act_path, "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(len(o) for o in payload["ray_orbits"]) == [3, 3]


class TestActionDocumentErrors:
    @pytest.mark.parametrize("command", ["check", "orbits", "mmp"])
    @pytest.mark.parametrize(
        "doc",
        [{"generators": [[[1, 0], [0]]]}, {"generators": [], "galois": [[1, 0], [0]]}],
        ids=["ragged-generator", "ragged-galois"],
    )
    def test_ragged_matrix_is_a_parse_error(self, doc, command, dp6_n2_files, tmp_path, capsys):
        fan_path, _ = dp6_n2_files
        act_path = tmp_path / "ragged.act"
        write_json(act_path, doc)
        code, error = machine_error(capsys, command, fan_path, str(act_path))
        assert (code, error["code"], error["reason"]) == (2, 2, "parse")

    @pytest.mark.parametrize("names", [["swap01", 1], "swap01"], ids=["non-string-name", "not-a-list"])
    def test_names_must_be_a_list_of_strings(self, names, dp6_n2_files, tmp_path, capsys):
        fan_path, _ = dp6_n2_files
        act_path = tmp_path / "names.act"
        write_json(act_path, {"generators": [], "names": names})
        code, error = machine_error(capsys, "orbits", fan_path, str(act_path))
        assert (code, error["code"], error["reason"]) == (2, 2, "parse")

    def test_galois_of_the_wrong_rank_is_a_shape_error(self, dp6_n2_files, tmp_path, capsys):
        fan_path, _ = dp6_n2_files
        act_path = tmp_path / "rank3.act"
        write_json(act_path, {"generators": [], "galois": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        code, error = machine_error(capsys, "check", fan_path, str(act_path))
        assert (code, error["code"], error["reason"]) == (3, 3, "shape")


    @pytest.mark.parametrize("command", ["check", "orbits"])
    @pytest.mark.parametrize(
        "generator",
        [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 0], [0, 0, 1]]],
        ids=["swap", "ray-fixing-shear"],
    )
    def test_fan_whose_rays_do_not_span_is_refused(self, command, generator, tmp_path, capsys):
        # The triangle's rays lie in z = 0, where the shear fixes every ray:
        # the rays do not determine a matrix, and the shear has infinite order.
        fan_path, act_path = tmp_path / "flat.fan", tmp_path / "flat.act"
        write_json(
            fan_path,
            {"lattice": "standard:3", "rays": [[1, 0, 0], [0, 1, 0], [-1, -1, 0]], "max_cones": [[0, 1], [1, 2], [0, 2]]},
        )
        write_json(act_path, {"generators": [generator]})
        code, error = machine_error(capsys, command, str(fan_path), str(act_path))
        assert (code, error["reason"]) == (3, "rays-do-not-span")

def _plain_trace_fans():
    """(name, fan document, generators): the 11-ray blow-up of P2 under the
    identity and the smooth census H <= 4 under S3, with -1 and without."""
    blowup = [[-1, -2], [0, -1], [1, -3], [2, -5], [1, -2], [1, -1], [1, 0], [1, 1], [1, 2], [0, 1], [-1, -1]]
    cases = [("blowup-11", {"lattice": "standard:2", "rays": blowup}, [[[1, 0], [0, 1]]])]
    for lattice in (Lattice.root_a2(), Lattice.weight_a2()):
        for neg in (False, True):
            gens = [[list(row) for row in g.entries] for g in lattice.s3_matrices()] + ([[[-1, 0], [0, -1]]] if neg else [])
            fans = families.enumerate_invariant_fans(lattice, height=4, max_rays=24, require_smooth=True, include_negation=neg)
            cases += [(f"{lattice.kind}-neg{int(neg)}-{k}", fanio.fan_document(f), gens) for k, f in enumerate(fans)]
    return cases


PLAIN_TRACE_FANS = _plain_trace_fans()

# Smooth weightA2 census fans under the identity: 72 240 contraction paths
# through the 12-ray one, about 1.04e9 through the 18-ray one.
CENSUS_12_RAYS = [[-2, -1], [-1, -1], [-1, -2], [0, -1], [1, -1], [1, 0], [2, 1], [1, 1], [1, 2], [0, 1], [-1, 1], [-1, 0]]
CENSUS_18_RAYS = [[-3, -2], [-1, -1], [-2, -3], [-1, -2], [0, -1], [1, -1], [2, -1], [1, 0], [3, 1]]
CENSUS_18_RAYS += [[2, 1], [1, 1], [1, 2], [1, 3], [0, 1], [-1, 2], [-1, 1], [-1, 0], [-2, -1]]


class TestMmpCommand:
    def test_first_orbit_trace(self, dp6_n2_files, capsys):
        fan_path, act_path = dp6_n2_files
        assert run_cli("mmp", fan_path, act_path, "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "P2"
        assert len(payload["steps"]) == 1

    def test_explore_all(self, dp6_n2_files, capsys):
        fan_path, act_path = dp6_n2_files
        assert run_cli("mmp", fan_path, act_path, "--explore-all", "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["traces"]) == 2
        assert {t["label"] for t in payload["traces"]} == {"P2"}

    @pytest.mark.parametrize("flags", [[], ["--explore-all"]], ids=["first-orbit", "explore-all"])
    def test_singular_hexagon_exits_3_not_smooth(self, flags, tmp_path, capsys):
        fan_path, act_path = tmp_path / "hexagon.fan", tmp_path / "s3.act"
        fanio.save_fan(families.singular_hexagon(), fan_path)
        gens = [[list(row) for row in g.entries] for g in Lattice.root_a2().s3_matrices()]
        write_json(act_path, {"generators": gens})
        code, error = machine_error(capsys, "mmp", str(fan_path), str(act_path), *flags)
        assert (code, error["reason"]) == (3, "not-smooth")
        assert error["message"] == "the equivariant contraction loop needs a smooth fan"

    @pytest.mark.parametrize("flags", [[], ["--explore-all"]], ids=["first-orbit", "explore-all"])
    def test_threefold_exits_3_rank(self, flags, tmp_path, capsys):
        fan_path, act_path = tmp_path / "p3.fan", tmp_path / "identity.act"
        fanio.save_fan(families.projective_space(3), fan_path)
        write_json(act_path, {"generators": [[[int(i == j) for j in range(3)] for i in range(3)]]})
        code, error = machine_error(capsys, "mmp", str(fan_path), str(act_path), *flags)
        assert (code, error["reason"]) == (3, "rank")
        assert error["message"] == "the equivariant contraction loop needs a surface fan (rank 2)"

    def test_galois_flag_freezes_the_hexagon(self, dp6_n2_files, tmp_path, capsys):
        fan_path, act_path = dp6_n2_files
        galois_path = tmp_path / "neg.galois"
        write_json(galois_path, {"galois": [[-1, 0], [0, -1]]})
        assert run_cli("mmp", fan_path, act_path, "--galois", str(galois_path), "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "DP6Terminal"
        assert payload["steps"] == []


    def test_explore_all_past_the_trace_bound_exits_3(self, tmp_path, capsys):
        # A smooth weightA2 census fan with 18 rays has about 1.04e9
        # contraction paths under the identity.
        fan_path, act_path = tmp_path / "r18.fan", tmp_path / "identity.act"
        write_json(fan_path, {"lattice": "weightA2", "rays": CENSUS_18_RAYS})
        write_json(act_path, {"generators": [[[1, 0], [0, 1]]]})
        start = time.perf_counter()
        code, error = machine_error(capsys, "mmp", str(fan_path), str(act_path), "--explore-all")
        assert (code, error["reason"]) == (3, "too-many-branches")
        assert time.perf_counter() - start < 30

    @pytest.mark.parametrize("fmt", ["machine", "plain"])
    def test_the_trace_bound_refuses_before_any_trace_is_written(self, fmt, tmp_path):
        # The graph is counted before the first byte of output: stdout holds
        # the error object in machine format and nothing in plain.
        fan_path, act_path = tmp_path / "r18.fan", tmp_path / "identity.act"
        write_json(fan_path, {"lattice": "weightA2", "rays": CENSUS_18_RAYS})
        write_json(act_path, {"generators": [[[1, 0], [0, 1]]]})
        code, out = in_process(["mmp", str(fan_path), str(act_path), "--explore-all", "--format", fmt])
        error = {"code": 3, "reason": "too-many-branches", "message": "explore-all has more than 100000 traces"}
        assert (code, out) == (3, json.dumps({"error": error}) + "\n" if fmt == "machine" else "")

    @pytest.mark.parametrize("fan", PLAIN_TRACE_FANS, ids=lambda case: case[0])
    def test_plain_explore_all_formats_each_trace_in_full(self, fan, tmp_path):
        # Each shared step is formatted once; every branch still reads as
        # its own trace, from step 0.
        name, doc, gens = fan
        fan_path, act_path = tmp_path / "fan.json", tmp_path / "act.json"
        write_json(fan_path, doc)
        write_json(act_path, {"generators": gens})
        parsed = fanio.parse_fan_document(doc)
        action = action_from_generators(parsed, [IntMatrix.from_rows(g) for g in gens])
        root = contract(parsed, action, first_only=False)
        expected = "".join(f"--- branch {i} ---\n" + plain_trace(t) for i, t in enumerate(traces(root)))
        assert in_process(["mmp", str(fan_path), str(act_path), "--explore-all"]) == (0, expected)


def plain_trace(trace):
    """The plain text of one trace, every step formatted afresh."""
    steps, terminal, label = trace
    lines = []
    for k, (cycle, orbit) in enumerate(steps):
        lines.append(f"step {k}: rays {list(cycle)}")
        lines.append(f"        contract orbit {list(orbit)} = {[cycle[i] for i in orbit]}")
    lines += [f"terminal rays {list(terminal)}", f"label {label}"]
    return "".join(line + "\n" for line in lines)


HEXAGON_FIRST_ORBIT = """\
step 0: rays [(-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)]
        contract orbit [0, 2, 4] = [(-1, -1), (1, 0), (0, 1)]
terminal rays [(-1, 0), (0, -1), (1, 1)]
label P2
"""

HEXAGON_EXPLORE_ALL = """\
--- branch 0 ---
step 0: rays [(-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)]
        contract orbit [0, 2, 4] = [(-1, -1), (1, 0), (0, 1)]
terminal rays [(-1, 0), (0, -1), (1, 1)]
label P2
--- branch 1 ---
step 0: rays [(-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)]
        contract orbit [1, 3, 5] = [(0, -1), (1, 1), (-1, 0)]
terminal rays [(-1, -1), (1, 0), (0, 1)]
label P2
"""


def in_process(argv):
    """Exit code and standard output of one call of ``cli.main`` in this
    process; a usage error exits through ``SystemExit``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def fresh_process(argv, timeout=60):
    """Exit code, standard output and standard error of the same call in a
    new interpreter."""
    src = str(Path(toricsym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "toricsym.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )
    return done.returncode, done.stdout, done.stderr


def modules_loaded(code):
    """The modules a new interpreter holds after running ``code``."""
    src = str(Path(toricsym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code + "\nprint(*sys.modules)"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


class TestStartUpImports:
    """A process imports the layers of the subcommand it runs and no others,
    and records are built without ``dataclasses``."""

    def test_importing_the_command_line(self):
        loaded = modules_loaded("import sys, toricsym.cli")
        assert "toricsym.cli" in loaded
        layers = ("families", "mmp", "divisors", "acceptance", "qfield")
        assert not loaded & {"dataclasses", "inspect", *(f"toricsym.{layer}" for layer in layers)}

    @pytest.mark.parametrize(
        "command, wanted, unwanted",
        [
            ("check", "divisors", ("families", "mmp")),
            ("mmp", "mmp", ("families", "divisors")),
            ("enumerate", "families", ("mmp", "divisors")),
        ],
    )
    def test_a_subcommand(self, command, wanted, unwanted, dp6_n2_files):
        argv = {
            "check": ["check", *dp6_n2_files],
            "mmp": ["mmp", *dp6_n2_files, "--explore-all"],
            "enumerate": ["enumerate", "--lattice", "rootA2", "--height", "2"],
        }[command]
        run = f"with contextlib.redirect_stdout(io.StringIO()):\n    assert toricsym.cli.main({argv!r}) == 0"
        loaded = modules_loaded("import contextlib, io, sys, toricsym.cli\n" + run)
        assert f"toricsym.{wanted}" in loaded and not loaded & {f"toricsym.{m}" for m in unwanted}



class TestInProcessReuse:
    """``cli.main`` shares one parser between the calls of a process; every
    call must still give what a fresh process gives."""

    def test_repeated_calls_match_fresh_processes(self, dp6_n2_files, tmp_path):
        fan_path, act_path = dp6_n2_files
        bad_path = tmp_path / "bad.json"
        bad_path.write_text("{not json", encoding="utf-8")
        commands = [
            ["mmp", fan_path, act_path, "--explore-all"],
            ["mmp", fan_path, act_path],
            ["check", fan_path, act_path],
            ["enumerate", "--lattice", "weightA2", "--height", "2", "--max-rays", "12", "--smooth"],
            ["mmp", fan_path],
            ["check", str(bad_path)],
        ]
        calls = [[*argv, "--format", fmt] for fmt in ("machine", "plain") for argv in commands]
        got = [in_process(argv) for argv in calls]
        assert [code for code, _ in got] == [0, 0, 0, 0, 2, 2] * 2
        assert got == [fresh_process(argv)[:2] for argv in calls]

    def test_plain_traces_of_the_two_orbit_hexagon(self, dp6_n2_files):
        fan_path, act_path = dp6_n2_files
        for _ in range(2):
            assert in_process(["mmp", fan_path, act_path, "--explore-all"]) == (0, HEXAGON_EXPLORE_ALL)
            assert in_process(["mmp", fan_path, act_path]) == (0, HEXAGON_FIRST_ORBIT)


class TestClosedStdout:
    """A reader that goes away before the output is written is an io error
    (exit 2), reported on stderr without a traceback."""

    @pytest.mark.parametrize("fmt", ["machine", "plain"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["families"],
            ["enumerate", "--lattice", "weightA2", "--height", "4", "--max-rays", "24", "--smooth"],
        ],
        ids=["short", "long"],
    )
    def test_exit_two_without_a_traceback(self, argv, fmt):
        src = str(Path(toricsym.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "toricsym.cli", *argv, "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
        assert "Traceback" not in err
        assert err.startswith("error: io:")

    @pytest.mark.parametrize("fmt", ["machine", "plain"])
    def test_a_reader_that_stops_while_traces_stream(self, fmt, tmp_path):
        # Explore-all on the 12-ray census fan writes about 90 MB, trace by
        # trace; the reader takes 100 bytes and goes.
        fan_path, act_path = tmp_path / "r12.fan", tmp_path / "identity.act"
        write_json(fan_path, {"lattice": "weightA2", "rays": CENSUS_12_RAYS})
        write_json(act_path, {"generators": [[[1, 0], [0, 1]]]})
        src = str(Path(toricsym.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "toricsym.cli", "mmp", str(fan_path), str(act_path), "--explore-all", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
        assert "Traceback" not in err
        assert err.startswith("error: io:")


# Documents that json cannot read: bytes that are not UTF-8, arrays nested
# past the interpreter's recursion limit, and an integer of 5 000 digits,
# past the 4 300 that int() converts from text.
UNREADABLE_DOCUMENTS = {
    "not-utf8": b'{"lattice": "standard:2", "rays": [[1, 0], [0, 1], [-1, -1]], "names": ["\xff"]}',
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
    "long-integer": b'{"lattice": "standard:2", "rays": [[1' + b"0" * 4_999 + b', 1], [0, 1], [-1, -1]]}',
}


@pytest.fixture
def unreadable_calls(tmp_path, dp6_n2_files):
    """Each unreadable document's path, with each call that reads it: as a
    fan, an action, a Galois document and a field configuration."""
    fan_path, act_path = dp6_n2_files
    calls = []
    for name, data in UNREADABLE_DOCUMENTS.items():
        bad = tmp_path / f"{name}.json"
        bad.write_bytes(data)
        bad = str(bad)
        calls += [
            (bad, ["check", bad]),
            (bad, ["mmp", bad, act_path]),
            (bad, ["mmp", fan_path, bad]),
            (bad, ["mmp", fan_path, act_path, "--galois", bad]),
            (bad, ["fields", "--config", bad]),
        ]
    return calls


class TestUnreadableDocuments:
    """A document that cannot be decoded is a parse error, exit 2, wherever
    it is read, and no traceback escapes."""

    def test_in_process(self, unreadable_calls, capsys):
        for bad, argv in unreadable_calls:
            code, error = machine_error(capsys, *argv)
            assert (code, error["reason"]) == (2, "parse"), argv
            assert error["message"].startswith(f"{bad} is not valid JSON: "), argv
            assert capsys.readouterr().err == ""

    def test_in_a_fresh_process(self, unreadable_calls):
        for bad, argv in unreadable_calls:
            code, out, err = fresh_process(argv)
            assert (code, out) == (2, ""), (argv, err)
            assert err.startswith(f"error: parse: {bad} is not valid JSON: ") and err.count("\n") == 1, (argv, err)


# Argument lists for the one-pass dispatch: each subcommand, help, usage
# errors (missing, unknown and extra arguments, bad choices and types),
# option abbreviations and forms, "--" and names that only look like options.
DISPATCH_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["mmp", "-h"],
    ["check", "--help"],
    ["mmp"],
    ["mmp", "fan.json"],
    ["mmp", "fan.json", "act.json"],
    ["mmp", "fan.json", "act.json", "--explore-all", "--format", "machine"],
    ["mmp", "fan.json", "act.json", "--galois", "g.json", "--format=plain"],
    ["mmp", "--explore", "fan.json", "act.json"],
    ["mmp", "fan.json", "act.json", "--bogus"],
    ["mmp", "fan.json", "act.json", "extra", "-x", "--y=1"],
    ["mmp", "--", "fan.json", "act.json"],
    ["mmp", "fan.json", "act.json", "--galois"],
    ["bogus"],
    ["mm", "fan.json", "act.json"],
    ["--format", "machine", "check", "fan.json"],
    ["--bogus"],
    ["check"],
    ["check", "fan.json"],
    ["check", "fan.json", "act.json", "--format", "xml"],
    ["check", "-1"],
    ["check", "a b"],
    ["orbits", "fan.json"],
    ["enumerate"],
    ["enumerate", "--lattice", "rootA2", "--height", "3", "--smooth", "--negation"],
    ["enumerate", "--lattice", "rootA2", "--height", "x"],
    ["enumerate", "--lattice", "A2"],
    ["families"],
    ["families", "weighted-p1111m:2", "--out", "x.json"],
    ["fields", "--config", "c.json"],
    ["fields", "--bogus", "1", "-x"],
    ["verify-paper", "--only", "A7"],
    ["verify-paper", "A7"],
]


def parse_outcome(parse, argv):
    """What one parse gives: the namespace or the exit code, then what it
    wrote to standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("namespace", parse(list(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


class TestOnePassDispatch:
    """A call that names a subcommand is parsed by that subcommand's parser
    alone; the namespace, exit code and both streams equal the full parse."""

    @pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=[" ".join(a) or "none" for a in DISPATCH_ARGV])
    def test_equals_the_full_parse(self, argv):
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli.build_parser().parse_args, argv)

    def test_extra_arguments_are_refused_by_the_top_parser(self):
        (result, out, err) = parse_outcome(cli._parse_args, ["mmp", "fan.json", "act.json", "--bogus"])
        assert (result, out) == (("exit", 2), "")
        assert err.startswith("usage: toricsym [-h]")
        assert err.endswith("toricsym: error: unrecognized arguments: --bogus\n")

    def test_a_subcommand_is_parsed_once(self, monkeypatch):
        calls = []
        parse = cli.argparse.ArgumentParser.parse_known_args
        monkeypatch.setattr(
            cli.argparse.ArgumentParser, "parse_known_args", lambda *a, **k: calls.append(a[0].prog) or parse(*a, **k)
        )
        args = cli._parse_args(["mmp", "fan.json", "act.json", "--explore-all"])
        assert (args.command, args.func, args.explore_all) == ("mmp", cli.cmd_mmp, True)
        assert calls == ["toricsym mmp"]


class TestEnumerateCommand:
    def test_census_machine_output(self, capsys):
        assert run_cli(
            "enumerate", "--lattice", "weightA2", "--height", "1", "--max-rays", "6",
            "--smooth", "--format", "machine",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 2
        assert {len(f["rays"]) for f in payload["fans"]} >= {3, 6}

    def test_past_the_union_bound_exits_3(self, capsys):
        # weightA2 at H=5 without --smooth has far more than MAX_UNIONS
        # orbit unions within 30 rays: refused before any fan is built.
        start = time.perf_counter()
        argv = ["enumerate", "--lattice", "weightA2", "--height", "5", "--max-rays", "30"]
        code, error = machine_error(capsys, *argv)
        assert (code, error["reason"]) == (3, "too-many-candidates")
        assert time.perf_counter() - start < 5


class TestEnumerateOutputPins:
    """The machine output of three censuses, byte for byte, as the
    enumerator that built a fan per candidate wrote it."""

    @pytest.mark.parametrize("argv, digest", [
        ("weightA2 8 48 --smooth", "66c3d77db3a0e05e9d7163b27c5d2038334b43e1d39f5ef47fd1eef0b5f2857c"),
        ("rootA2 8 48 --smooth", "d018f16b1d76dd13770c61e8fb5acb5e0145a93b7de50b1c7b30f30fd7e2b830"),
        ("rootA2 5 30 --negation", "2a65dce2b20af7b118f43efddc6c0bfd928c288f3aa6d3cacd29bcc58d0d05db"),
    ])
    def test_sha256(self, argv, digest, capsys):
        kind, height, max_rays, *flags = argv.split()
        argv = ["enumerate", "--lattice", kind, "--height", height, "--max-rays", max_rays, *flags]
        assert run_cli(*argv, "--format", "machine") == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.fixture
def plain_calls(tmp_path, dp6_n1_files):
    """Calls of the five commands that build plain lines, with the sha256
    of each plain output, taken when every command built its lines as a
    list for either format."""
    fan, _ = families.q22()
    fanio.save_fan(fan, tmp_path / "q22.fan")
    gens = [[list(row) for row in g.entries] for g in Lattice.weight_a2().s3_matrices()]
    write_json(tmp_path / "q22.act", {"generators": gens, "galois": [[-1, 0], [0, -1]]})
    q22 = [str(tmp_path / "q22.fan"), str(tmp_path / "q22.act")]
    return [
        (["check", *dp6_n1_files], "f7140def1caf14cda47fc1b254d8fe716f425ad1534efb9d9eae22402fda9ce7"),
        (["check", *q22], "0223f5a1b311dc4aee55bdb2b841877bcc31680efa1119fc4acf432fccfd95c8"),
        (["orbits", *q22], "7961e0fd50d47565c72f3e4d56266e579251a62002858c63b2777576cbbb1b87"),
        (
            ["enumerate", "--lattice", "weightA2", "--height", "2", "--max-rays", "12", "--smooth"],
            "e11cd7529049e731ca3a09b5b0f591d5037ab9814515b01aae46b29cfc4115c2",
        ),
        (["fields"], "144cd1b2824d2421f03f4428e24c5c08efe6851dde06b61938baaaab94a51293"),
        (["verify-paper", "--only", "A5"], "08ccbfd356a9dafb71586c24ddab8772d6893ce481bcceb8011e3c9c4a41bd9d"),
    ]


class TestPlainLinesOnlyForPlainOutput:
    def test_machine_output_never_builds_the_lines(self, plain_calls, monkeypatch, capsys):
        built = []
        emit = cli._emit

        def spy(payload, lines, fmt):
            emit(payload, lambda: built.append(fmt) or lines(), fmt)

        monkeypatch.setattr(cli, "_emit", spy)
        for argv, _ in plain_calls:
            for fmt in ("machine", "plain"):
                assert run_cli(*argv, "--format", fmt) == 0
        assert built == ["plain"] * len(plain_calls)

    def test_plain_output_never_builds_the_fan_documents(self, monkeypatch, capsys):
        argv = ["enumerate", "--lattice", "weightA2", "--height", "4", "--max-rays", "24", "--smooth"]
        assert run_cli(*argv) == 0
        lines = capsys.readouterr().out

        def refuse(*args):
            raise AssertionError("a fan document was built for the plain output")

        monkeypatch.setattr(fanio, "fan_document", refuse)
        assert run_cli(*argv, "--format", "plain") == 0
        assert capsys.readouterr().out == lines

    def test_the_plain_text_keeps_its_bytes(self, plain_calls, capsys):
        for argv, digest in plain_calls:
            assert run_cli(*argv) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv


class TestFamiliesCommand:
    def test_list(self, capsys):
        assert run_cli("families") == 0
        out = capsys.readouterr().out
        assert "weighted-p1111m" in out and "dp6" in out

    def test_emit_to_file_and_check_it(self, tmp_path, capsys):
        out_path = tmp_path / "w.fan"
        assert run_cli("families", "weighted-p1111m:2", "--out", str(out_path)) == 0
        capsys.readouterr()
        assert run_cli("check", str(out_path), "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["block_sizes"] == [4, 1]

    def test_unknown_family_exits_3(self, capsys):
        assert run_cli("families", "nonesuch") == 3


class TestFieldsCommand:
    def test_builtin_table(self, capsys):
        assert run_cli("fields", "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["Q"]["satisfies_star"] is True
        assert payload["Q(sqrt-3)"]["satisfies_star"] is False
        assert payload["Q(sqrt-3)"]["witness_verifies"] is True

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "fields.json"
        write_json(
            path,
            [
                {"name": "Q", "kind": "rationals"},
                {
                    "name": "Q(sqrt-1)",
                    "kind": "quadratic",
                    "d": -1,
                    "star_clause2": False,
                    "star_clause3": False,
                    "witness": [["0", "1"], ["0", "0"]],
                },
            ],
        )
        assert run_cli("fields", "--config", str(path), "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["Q(sqrt-1)"]["witness_verifies"] is True

    @pytest.mark.parametrize("d, code", [(-3, 3), (-5, 3), (-7, 0), (-15, 0), (2, 0)])
    def test_clause2_declared_true_is_checked_against_d(self, d, code, tmp_path, capsys):
        path = tmp_path / "fields.json"
        write_json(path, [{"name": "F", "kind": "quadratic", "d": d}])
        assert run_cli("fields", "--config", str(path), "--format", "machine") == code
        payload = json.loads(capsys.readouterr().out)
        if code:
            assert payload["error"]["reason"] == "inconsistent-descriptor"
        else:
            assert payload["F"]["satisfies_star"] is True

    def _assert_parse_error(self, path, capsys):
        assert run_cli("fields", "--config", str(path), "--format", "machine") == 2
        assert json.loads(capsys.readouterr().out)["error"]["reason"] == "parse"

    def test_malformed_json_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "fields.json"
        path.write_text('[{"name": "Q", "kind": ', encoding="utf-8")
        self._assert_parse_error(path, capsys)

    def test_one_element_witness_entry_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "fields.json"
        entry = {"name": "F", "kind": "quadratic", "d": -1, "star_clause2": False, "witness": [[1], [0, 1]]}
        write_json(path, [entry])
        self._assert_parse_error(path, capsys)

    def test_non_squarefree_d_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "fields.json"
        write_json(path, [{"name": "F", "kind": "quadratic", "d": 4}])
        self._assert_parse_error(path, capsys)

    def test_square_of_a_large_prime_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "fields.json"
        write_json(path, [{"name": "F", "kind": "quadratic", "d": 1000003**2}])
        self._assert_parse_error(path, capsys)

    def test_huge_radicand_is_refused_at_once(self, tmp_path):
        # A 31-digit d would take ~10^10 trial divisions in the squarefree test.
        path = tmp_path / "fields.json"
        write_json(path, [{"name": "x", "kind": "quadratic", "d": 10**30 + 57}])
        code, _, err = fresh_process(["fields", "--config", str(path)], timeout=10)
        assert code == 3
        assert "radicand-too-large" in err
        assert "Traceback" not in err

    def test_large_prime_d_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "fields.json"
        write_json(path, [{"name": "F", "kind": "quadratic", "d": 100000000000031}])
        assert run_cli("fields", "--config", str(path), "--format", "machine") == 0
        assert "F" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "F", "kind": "quadratic", "d": -7, "star_clause2": "false"},
            {"name": "F", "kind": "quadratic", "d": -3, "star_clause2": False, "witness": [[0.5, 0.5], [0.5, -0.5]]},
            {"name": "F", "kind": "quadratic", "d": -1, "witness": [["1/0", 0], [0, 0]]},
            {"name": ["F"], "kind": "rationals"},
            {"name": "F", "kind": "quadratic", "d": 5.0},
        ],
        ids=["string-clause", "float-witness", "zero-denominator", "list-name", "float-d"],
    )
    def test_malformed_entry_is_a_parse_error(self, entry, tmp_path, capsys):
        path = tmp_path / "fields.json"
        write_json(path, [entry])
        self._assert_parse_error(path, capsys)


class TestVerifyPaperCommand:
    def test_single_criterion(self, capsys):
        assert run_cli("verify-paper", "--only", "A5") == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS A5")

    def test_unknown_criterion_exits_2(self, capsys):
        assert run_cli("verify-paper", "--only", "A99") == 2
        code, error = machine_error(capsys, "verify-paper", "--only", "A99")
        assert (code, error["code"], error["reason"]) == (2, 2, "parse")
        assert "A99" in error["message"]

    def test_fault_injection_fails_the_relevant_criterion(self, monkeypatch, capsys):
        import toricsym.families as fam

        original = fam.weighted_p1111m

        def corrupted(m):
            return original(m + 1 if m == 2 else m)

        monkeypatch.setattr(fam, "weighted_p1111m", corrupted)
        assert run_cli("verify-paper", "--only", "A3") == 1
        out = capsys.readouterr().out
        assert "FAIL A3" in out

    def test_machine_format_lists_results(self, capsys):
        assert run_cli("verify-paper", "--only", "A10", "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert payload["results"][0]["id"] == "A10"

    def test_machine_results_carry_seconds(self, capsys):
        assert run_cli("verify-paper", "--format", "machine") == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [r["id"] for r in results] == [f"A{k}" for k in range(1, 13)]
        for r in results:
            assert isinstance(r["seconds"], float) and r["seconds"] >= 0


RANKS = {"standard:1": 1, "standard:2": 2, "standard:3": 3, "rootA2": 2, "weightA2": 2}
junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def square_matrices(n):
    return st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n)


def action_docs(n, known=()):
    """Action documents for rank n: mostly n x n matrices, some drawn from ``known``."""
    matrices = square_matrices(n) | square_matrices(n % 3 + 1) | junk
    if known:
        matrices = st.sampled_from(known) | matrices
    well_formed = st.fixed_dictionaries(
        {"generators": st.lists(matrices, max_size=3)},
        optional={"names": st.lists(st.text(max_size=3), max_size=3) | junk, "galois": matrices},
    )
    return well_formed | junk


@st.composite
def fan_documents(draw):
    lattice = draw(st.sampled_from(sorted(RANKS)))
    rank = RANKS[lattice]
    length = 3 if rank == 2 and lattice != "standard:2" and draw(st.booleans()) else rank
    rays = draw(st.lists(st.lists(st.integers(-2, 2), min_size=length, max_size=length), min_size=1, max_size=7))
    doc = {"lattice": lattice, "rays": rays}
    if rank == 3 or draw(st.booleans()):
        index = st.integers(-1, len(rays))
        doc["max_cones"] = draw(st.lists(st.lists(index, min_size=rank, max_size=rank), max_size=8))
    return doc


@st.composite
def fan_and_action(draw):
    fan = draw(fan_documents() | junk)
    rank = RANKS.get(fan.get("lattice"), 2) if isinstance(fan, dict) else 2
    return fan, draw(action_docs(rank))


@st.composite
def family_and_action(draw):
    fan = families.make_family_fan(draw(st.sampled_from(["dp6:n1", "dp6:n2", "hirzebruch:1", "projective-space:3"])))[0]
    known = [[list(row) for row in g.entries] for g in fan_automorphisms(fan).elements]
    return fanio.fan_document(fan), draw(action_docs(fan.rank, known))


coefficients = st.integers(-2, 2) | st.sampled_from(["1/2", "-1/2", "1/0", "0.5", "x"]) | junk
field_entries = st.fixed_dictionaries(
    {"name": st.text(max_size=3), "kind": st.sampled_from(["rationals", "reals", "quadratic"])},
    optional={
        "d": st.integers(-30, 30) | junk,
        "star_clause2": st.booleans() | junk,
        "star_clause3": st.booleans() | junk,
        "witness": st.lists(st.lists(coefficients, min_size=2, max_size=2), min_size=2, max_size=2) | junk,
    },
)
field_docs = st.lists(field_entries | junk, max_size=3) | junk


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_document_fuzz(fuzz_dir, docs, argv):
    """Write the documents, run the CLI on them, and check the exit-code contract."""
    for name, doc in docs.items():
        (fuzz_dir / name).write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(fuzz_dir / a) if a in docs else a for a in argv] + ["--format", "machine"])
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert json.loads(out.getvalue())["error"]["code"] == code


FUZZ_SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
COMMANDS = [
    ["check", "f"],
    ["check", "f", "a"],
    ["orbits", "f", "a"],
    ["mmp", "f", "a"],
    ["mmp", "f", "a", "--explore-all"],
    ["mmp", "f", "a", "--galois", "a"],
]


class TestDocumentFuzz:
    @FUZZ_SETTINGS
    @given(docs=fan_and_action(), command=st.sampled_from(COMMANDS))
    def test_fan_and_action_documents(self, fuzz_dir, docs, command):
        run_document_fuzz(fuzz_dir, {"f": docs[0], "a": docs[1]}, command)

    @FUZZ_SETTINGS
    @given(docs=family_and_action(), command=st.sampled_from(COMMANDS[1:]))
    def test_action_documents_on_valid_fans(self, fuzz_dir, docs, command):
        run_document_fuzz(fuzz_dir, {"f": docs[0], "a": docs[1]}, command)

    @FUZZ_SETTINGS
    @given(config=field_docs)
    def test_field_configs(self, fuzz_dir, config):
        run_document_fuzz(fuzz_dir, {"c": config}, ["fields", "--config", "c"])
