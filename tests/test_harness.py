"""Problem-file I/O, generators, orchestration, and the CLI contract."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from formrep import (
    ProblemSpec,
    SpecFormatError,
    check_gap_hypothesis,
    gen_counterexample,
    gen_random,
    load_spec,
    make_involution,
    nullspace,
    run,
    save_spec,
    spec_to_dict,
)
from formrep.cli import main

MINIMAL_GENERAL = {
    "kind": "general",
    "seed": 3,
    "matrices": {
        "A": [["1", "0"], ["0", "2"]],
        "H": [["2", "0.5"], ["0.5", "-3"]],
        "J": [["1", "0"], ["0", "-1"]],
    },
}


#: Malformed input: (spec fields replaced, extra CLI flags).
MALFORMED = {
    "tol_scale_list": ({"tolerances": {"tol_scale": [1]}}, []),
    "tol_scale_negative": ({"tolerances": {"tol_scale": -1}}, []),
    "tol_scale_zero": ({"tolerances": {"tol_scale": 0}}, []),
    "tol_scale_nan_string": ({"tolerances": {"tol_scale": "nan"}}, []),
    "seed_bool": ({"seed": True}, []),
    "flag_tol_scale_negative": ({}, ["--tol-scale=-1"]),
    "flag_tol_scale_zero": ({}, ["--tol-scale=0"]),
    "flag_tol_scale_nan": ({}, ["--tol-scale=nan"]),
}


def write_json(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadSpec:
    def test_minimal_general(self, tmp_path):
        spec = load_spec(write_json(tmp_path, MINIMAL_GENERAL))
        assert spec.kind == "general"
        assert spec.seed == 3
        np.testing.assert_allclose(spec.matrices["A"], np.diag([1.0, 2.0]))

    def test_offdiag_missing_coupling(self, tmp_path):
        payload = {
            "kind": "offdiag",
            "matrices": {"A_plus": [["1"]], "A_minus": [["1"]]},
        }
        with pytest.raises(SpecFormatError, match="field T required for kind offdiag"):
            load_spec(write_json(tmp_path, payload))

    def test_family_loads(self, tmp_path):
        payload = {"kind": "family", "family": {"name": "counterexample", "sizes": [1, 2, 3]}}
        spec = load_spec(write_json(tmp_path, payload))
        assert spec.kind == "family"
        assert spec.family_name == "counterexample"
        assert spec.sizes == [1, 2, 3]

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(SpecFormatError, match="unknown kind"):
            load_spec(write_json(tmp_path, {"kind": "mystery"}))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "kind": "general",\n  oops\n}')
        with pytest.raises(SpecFormatError, match="line 3"):
            load_spec(str(path))

    def test_dimension_mismatch(self, tmp_path):
        payload = {
            "kind": "general",
            "matrices": {
                "A": [["1", "0"], ["0", "1"]],
                "H": [["1"]],
                "J": [["1", "0"], ["0", "-1"]],
            },
        }
        with pytest.raises(SpecFormatError, match="dimension mismatch"):
            load_spec(write_json(tmp_path, payload))

    def test_unexpected_matrix_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL_GENERAL))
        payload["matrices"]["X"] = [["1", "0"], ["0", "1"]]
        with pytest.raises(SpecFormatError, match="unexpected"):
            load_spec(write_json(tmp_path, payload))

    def test_non_numeric_entry(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL_GENERAL))
        payload["matrices"]["A"][0][0] = "abc"
        with pytest.raises(SpecFormatError, match="non-numeric"):
            load_spec(write_json(tmp_path, payload))

    def test_asymmetric_input_symmetrized(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL_GENERAL))
        payload["matrices"]["H"] = [["2", "0.6"], ["0.4", "-3"]]
        spec = load_spec(write_json(tmp_path, payload))
        np.testing.assert_allclose(spec.matrices["H"], [[2.0, 0.5], [0.5, -3.0]])

    def test_missing_file(self):
        with pytest.raises(SpecFormatError, match="not found"):
            load_spec("/nonexistent/path.json")

    def test_tolerance_override_from_file(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL_GENERAL))
        payload["tolerances"] = {"tol_scale": 2.5}
        spec = load_spec(write_json(tmp_path, payload))
        assert spec.tol_scale == 2.5


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        spec = gen_random("general", 7, seed=13, alpha_target=0.4)
        path = str(tmp_path / "round.json")
        save_spec(spec, path)
        reloaded = load_spec(path)
        for name in spec.matrices:
            np.testing.assert_array_equal(spec.matrices[name], reloaded.matrices[name])
        assert json.dumps(spec_to_dict(spec), sort_keys=True) == json.dumps(
            spec_to_dict(reloaded), sort_keys=True
        )

    def test_seventeen_digit_strings(self, tmp_path):
        spec = gen_random("general", 3, seed=1)
        payload = spec_to_dict(spec)
        entry = payload["matrices"]["A"][0][0]
        assert isinstance(entry, str)
        assert float(entry) == spec.matrices["A"][0, 0]


class TestGenerators:
    def test_counterexample_blocks(self):
        spec = gen_counterexample(1)
        np.testing.assert_allclose(spec.matrices["A"], np.diag([2.0, 0.5]))
        np.testing.assert_allclose(
            spec.matrices["H"], [[0.0, 1.0], [1.0, 0.0]]
        )
        assert spec.force

    def test_counterexample_second_block(self):
        spec = gen_counterexample(2)
        np.testing.assert_allclose(
            np.diag(spec.matrices["A"]), [2.0, 0.5, 3.0, 1.0 / 3.0]
        )

    def test_counterexample_condition_number(self):
        spec = gen_counterexample(3)
        vals = np.abs(np.linalg.eigvalsh(spec.matrices["A"]))
        assert vals.max() / vals.min() == pytest.approx(16.0)

    def test_counterexample_bounds(self):
        with pytest.raises(Exception):
            gen_counterexample(0)
        with pytest.raises(Exception):
            gen_counterexample(65)

    def test_random_general_certified(self):
        spec = gen_random("general", 4, seed=7, alpha_target=0.5)
        cert = check_gap_hypothesis(
            spec.matrices["A"], spec.matrices["H"], make_involution(spec.matrices["J"])
        )
        assert cert.satisfied
        assert cert.alpha_star >= 0.5

    def test_random_offdiag_prescribed_kernels(self):
        spec = gen_random("offdiag", (3, 3), seed=1, kernel_dims=(1, 1))
        assert nullspace(spec.matrices["A_plus"]).dim == 1
        assert nullspace(spec.matrices["A_minus"]).dim == 1

    def test_same_seed_byte_identical(self):
        first = json.dumps(spec_to_dict(gen_random("general", 6, seed=42)), sort_keys=True)
        second = json.dumps(spec_to_dict(gen_random("general", 6, seed=42)), sort_keys=True)
        assert first == second

    def test_dimension_bounds(self):
        with pytest.raises(Exception):
            gen_random("general", 513, seed=0)


class TestRun:
    def test_family_counterexample_passes(self):
        spec = ProblemSpec(kind="family", family_name="counterexample", sizes=[1, 2, 3])
        report = run(spec)
        assert report.passed and report.exit_code == 0
        assert report.checks["gap_search_fails_every_size"]
        assert report.family["norm_sequences"]["operator"] == pytest.approx([1.0] * 3)

    def test_general_random_all_checks(self):
        report = run(gen_random("general", 8, seed=5))
        assert report.passed
        assert report.representation["first_rep_residual"] <= 1e-10
        assert report.representation["second_rep_residual"] <= 1e-10

    def test_offdiag_random_all_checks(self):
        report = run(gen_random("offdiag", (4, 5), seed=6, kernel_dims=(1, 2)))
        assert report.passed
        assert report.kernel["theorem_dim"] == report.kernel["oracle_dim"]

    def test_refused_hypothesis_is_check_failure(self):
        spec = gen_counterexample(1)
        spec.force = False
        report = run(spec)
        assert not report.passed and report.exit_code == 1
        assert report.checks == {"hypothesis_certified": False}
        assert report.certificate["refusal"]

    def test_forced_counterexample_passes(self):
        report = run(gen_counterexample(2))
        assert report.passed
        assert not report.representation["certified"]

    def test_report_deterministic_modulo_wall_time(self):
        spec = gen_random("general", 6, seed=9)
        first = run(spec).to_dict()
        second = run(spec).to_dict()
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_unknown_family(self):
        spec = ProblemSpec(kind="family", family_name="nope", sizes=[1])
        with pytest.raises(SpecFormatError, match="unknown family"):
            run(spec)


class TestCli:
    def test_verify_pass_exit_zero(self, tmp_path, capsys):
        path = str(tmp_path / "ok.json")
        save_spec(gen_random("general", 5, seed=2), path)
        code = main(["verify", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_singular_coefficient_exit_two(self, tmp_path, capsys):
        payload = json.loads(json.dumps(MINIMAL_GENERAL))
        payload["matrices"]["H"] = [["1", "0"], ["0", "0"]]
        code = main(["verify", write_json(tmp_path, payload)])
        assert code == 2
        assert "singular" in capsys.readouterr().err

    def test_refused_gap_exit_one(self, tmp_path):
        spec = gen_counterexample(1)
        spec.force = False
        path = str(tmp_path / "refused.json")
        save_spec(spec, path)
        assert main(["verify", path]) == 1

    def test_force_flag_rescues(self, tmp_path):
        spec = gen_counterexample(1)
        spec.force = False
        path = str(tmp_path / "forced.json")
        save_spec(spec, path)
        assert main(["verify", path, "--force"]) == 0

    def test_kernel_requires_offdiag(self, tmp_path, capsys):
        path = str(tmp_path / "gen.json")
        save_spec(gen_random("general", 4, seed=1), path)
        assert main(["kernel", path]) == 2
        assert "offdiag" in capsys.readouterr().err

    def test_kernel_subcommand(self, tmp_path, capsys):
        path = str(tmp_path / "od.json")
        save_spec(gen_random("offdiag", (3, 4), seed=8), path)
        assert main(["kernel", path]) == 0
        assert "kernel_dims_match" in capsys.readouterr().out

    def test_stability_subcommand(self, tmp_path, capsys):
        path = str(tmp_path / "stab.json")
        save_spec(gen_random("general", 5, seed=3), path)
        assert main(["stability", path]) == 0
        assert "stability_conditions_agree" in capsys.readouterr().out

    def test_family_range_syntax(self, capsys):
        assert main(["family", "counterexample", "--sizes", "1..3"]) == 0
        out = capsys.readouterr().out
        assert "gap_search_fails_every_size" in out

    def test_family_comma_syntax(self):
        assert main(["family", "constant", "--sizes", "1,2"]) == 0

    def test_generate_and_verify(self, tmp_path):
        out = str(tmp_path / "gen.json")
        assert main(["generate", "general", "--n", "6", "--seed", "11", "--out", out]) == 0
        assert main(["verify", out]) == 0

    def test_generate_offdiag_kernel_dims(self, tmp_path):
        out = str(tmp_path / "od.json")
        code = main(
            ["generate", "offdiag", "--n", "4,3", "--seed", "2", "--kernel-dims", "2,0", "--out", out]
        )
        assert code == 0
        spec = load_spec(out)
        assert nullspace(spec.matrices["A_plus"]).dim == 2

    def test_generate_counterexample_forced_verify(self, tmp_path):
        out = str(tmp_path / "ce.json")
        assert main(["generate", "counterexample", "--n", "2", "--out", out]) == 0
        spec = load_spec(out)
        assert spec.force
        assert main(["verify", out]) == 0

    def test_stability_subcommand_offdiag(self, tmp_path, capsys):
        path = str(tmp_path / "od_stab.json")
        save_spec(gen_random("offdiag", (3, 3), seed=5), path)
        assert main(["stability", path]) == 0
        assert "stability_conditions_agree" in capsys.readouterr().out

    def test_json_out_schema(self, tmp_path):
        spec_path = str(tmp_path / "s.json")
        report_path = str(tmp_path / "r.json")
        save_spec(gen_random("general", 4, seed=4), spec_path)
        assert main(["verify", spec_path, "--json-out", report_path]) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["passed"] is True
        assert payload["kind"] == "general"
        assert set(payload["checks"].values()) == {True}
        assert payload["spec_echo"]["seed"] == 4

    def test_tol_scale_flag(self, tmp_path):
        path = str(tmp_path / "tol.json")
        save_spec(gen_random("general", 4, seed=6), path)
        assert main(["verify", path, "--tol-scale", "100"]) == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_exit_two_one_line(self, tmp_path, capsys, case):
        fields, flags = MALFORMED[case]
        path = write_json(tmp_path, {**MINIMAL_GENERAL, **fields})
        assert main(["verify", path, *flags]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("entry", ["1e200", "1e308", "-1e308"])
    def test_huge_entry_exit_two_one_line(self, tmp_path, capsys, entry):
        payload = json.loads(json.dumps(MINIMAL_GENERAL))
        payload["matrices"]["A"] = [[entry, entry], ["1e308", entry]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", write_json(tmp_path, payload)]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err == "error: matrix A has an entry of magnitude above 1e+150\n"

    def test_entry_at_the_magnitude_cap_loads(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL_GENERAL))
        payload["matrices"]["A"] = [["1e150", "0"], ["0", "1e150"]]
        path = write_json(tmp_path, payload)
        assert load_spec(path).matrices["A"][0, 0] == 1e150
        assert main(["verify", path]) == 0

    def test_spec_echo_digests_the_matrices(self, tmp_path):
        spec = gen_random("offdiag", (3, 2), seed=4)
        report = run(spec)
        echo = report.spec_echo
        assert (echo["kind"], echo["seed"], echo["force"]) == ("offdiag", 4, False)
        for name, mat in spec.matrices.items():
            digest = hashlib.sha256(np.ascontiguousarray(mat, dtype=np.float64).tobytes())
            assert echo["matrices"][name] == {
                "shape": list(mat.shape),
                "sha256": digest.hexdigest(),
            }
