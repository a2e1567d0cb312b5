import json

import pytest

from toricsym import cli, families, fanio
from toricsym.fan import Lattice, make_fan


def run_cli(*argv):
    return cli.main(list(argv))


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


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
        assert payload["faithful_on_rays"] is True

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


class TestOrbitsCommand:
    def test_orbits_output(self, dp6_n2_files, capsys):
        fan_path, act_path = dp6_n2_files
        assert run_cli("orbits", fan_path, act_path, "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(len(o) for o in payload["ray_orbits"]) == [3, 3]


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

    def test_galois_flag_freezes_the_hexagon(self, dp6_n2_files, tmp_path, capsys):
        fan_path, act_path = dp6_n2_files
        galois_path = tmp_path / "neg.galois"
        write_json(galois_path, {"galois": [[-1, 0], [0, -1]]})
        assert run_cli("mmp", fan_path, act_path, "--galois", str(galois_path), "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "DP6Terminal"
        assert payload["steps"] == []


class TestEnumerateCommand:
    def test_census_machine_output(self, capsys):
        assert run_cli(
            "enumerate", "--lattice", "weightA2", "--height", "1", "--max-rays", "6",
            "--smooth", "--format", "machine",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 2
        assert {len(f["rays"]) for f in payload["fans"]} >= {3, 6}


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


class TestVerifyPaperCommand:
    def test_single_criterion(self, capsys):
        assert run_cli("verify-paper", "--only", "A5") == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS A5")

    def test_unknown_criterion_exits_2(self, capsys):
        assert run_cli("verify-paper", "--only", "A99") == 2

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
