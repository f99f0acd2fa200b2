"""Problem-file I/O, generators, orchestration, and the CLI contract."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from formrep import (
    InternalCheckError,
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
from formrep import harness
from formrep.cli import main
from formrep.errors import FormrepError
from formrep.harness import FAMILIES, MAX_RANDOM_DIM

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
    "tolerance_unknown_name": ({"tolerances": {"tol_scal": 10}}, []),
    "seed_bool": ({"seed": True}, []),
    "force_string_false": ({"force": "false"}, []),
    "force_string_no": ({"force": "no"}, []),
    "force_number": ({"force": 0}, []),
    "force_null": ({"force": None}, []),
    "family_size_bool": (
        {"kind": "family", "matrices": {}, "family": {"name": "constant", "sizes": [True, 2]}},
        [],
    ),
    "flag_tol_scale_negative": ({}, ["--tol-scale=-1"]),
    "flag_tol_scale_zero": ({}, ["--tol-scale=0"]),
    "flag_tol_scale_nan": ({}, ["--tol-scale=nan"]),
    "matrix_entry_bool": (
        {"matrices": {**MINIMAL_GENERAL["matrices"], "A": [[True, False], [False, True]]}}, []
    ),
    "asymmetric_H": (
        {"matrices": {**MINIMAL_GENERAL["matrices"], "H": [["2", "0.6"], ["0.4", "-3"]]}},
        [],
    ),
    "asymmetric_A_plus": (
        {
            "kind": "offdiag",
            "matrices": {
                "A_plus": [["1", "0.6"], ["0.4", "1"]],
                "A_minus": [["1"]],
                "T": [["1"], ["0"]],
            },
        },
        [],
    ),
}


#: Entries a 17-significant-digit string must round-trip: signed zero, the least
#: subnormal, the entry cap, a decimal with no exact binary form.
EDGE_ENTRIES = np.array([[-0.0, 5e-324], [1e150, 0.1]])

#: Specs whose files ``save_spec`` must write byte for byte as ``json.dump`` does.
#: T of 256 rows fills one row block of the writer exactly; 257 rows cross the seam.
WRITTEN_SPECS = {
    "general": lambda: gen_random("general", 5, seed=0),
    "offdiag_p_ne_q": lambda: gen_random("offdiag", (7, 3), seed=2),
    "offdiag_1x1": lambda: gen_random("offdiag", (1, 1), seed=1),
    "offdiag_256_rows": lambda: gen_random("offdiag", (256, 2), seed=0),
    "offdiag_257_rows": lambda: gen_random("offdiag", (257, 2), seed=1),
    "counterexample": lambda: gen_counterexample(3),
    "family_with_tolerances": lambda: ProblemSpec(
        kind="family", family_name="constant", sizes=[1, 2, 3], tolerances={"tol_scale": 0.5}
    ),
    "edge_entries_with_tolerances": lambda: ProblemSpec(
        kind="general",
        matrices={"A": EDGE_ENTRIES, "H": np.array([[1, 2]]), "J": EDGE_ENTRIES.T},
        tolerances={"tol_scale": 2.5},
    ),
}

#: A complex Hermitian coefficient: H = diag(1, -1) + i [[0, 1], [-1, 0]].
COMPLEX_H = np.diag([1.0, -1.0]) + 1j * np.array([[0.0, 1.0], [-1.0, 0.0]])
COMPLEX_REFUSAL = "^matrix H is complex: problem files hold real entries$"


def complex_spec(coeff=COMPLEX_H):
    return ProblemSpec(
        kind="general", matrices={"A": np.eye(2), "H": coeff, "J": np.diag([1.0, -1.0])}
    )

#: (command, flag) pairs no path reads, each with the arguments that would run without
#: it; ``{od}`` is an offdiag problem file.  A ``generate`` line writes to ``{out}``.
UNREAD_FLAGS = {
    "kernel_force": ["kernel", "{od}", "--force"],
    "family_force": ["family", "constant", "--sizes", "1", "--force"],
    "offdiag_alpha": ["generate", "offdiag", "--n", "3,2", "--alpha", "0.5"],
    "offdiag_force": ["generate", "offdiag", "--n", "3,2", "--force"],
    "general_kernel_dims": ["generate", "general", "--n", "4", "--kernel-dims", "1,1"],
    "counterexample_seed": ["generate", "counterexample", "--n", "2", "--seed", "1"],
    "counterexample_alpha": ["generate", "counterexample", "--n", "2", "--alpha", "0.5"],
    "counterexample_dims": ["generate", "counterexample", "--n", "2", "--kernel-dims", "1,1"],
    "counterexample_force": ["generate", "counterexample", "--n", "2", "--force"],
}

#: Loader and CLI refusals: (problem file payload or None, command line with ``{}`` for
#: its path, the message).  Each exits 2 with that one-line message.
FAMILY_FILE = {"kind": "family", "family": {"name": "constant", "sizes": [1]}}
OFFDIAG_MATRICES = {"A_plus": [["1", "0"], ["0", "2"]], "A_minus": [["1"]], "T": [["1", "0"]]}


def general_with(name, rows):
    return {**MINIMAL_GENERAL, "matrices": {**MINIMAL_GENERAL["matrices"], name: rows}}


VERIFY = ["verify", "{}"]
REFUSALS = {
    "spec_not_object": ([1, 2], VERIFY, "problem spec must be a JSON object"),
    "tolerances_not_object": (
        {**MINIMAL_GENERAL, "tolerances": [1]}, VERIFY, "tolerances must be an object"
    ),
    "matrices_not_object": (
        {**MINIMAL_GENERAL, "matrices": [1]}, VERIFY, "matrices must be an object"
    ),
    "rows_not_lists": (general_with("A", ["1", "0"]), VERIFY, "matrix A must be a non-empty"),
    "rows_empty": (general_with("A", []), VERIFY, "matrix A must be a non-empty list of rows"),
    "rows_ragged": (general_with("A", [["1"], ["2", "0"]]), VERIFY, "matrix A has ragged"),
    "entry_nan": (general_with("A", [["nan", "0"], ["0", "1"]]), VERIFY, "matrix A contains NaN"),
    "A_not_square": (general_with("A", [["1", "0"]]), VERIFY, "matrix A must be square"),
    "family_without_family": ({"kind": "family"}, VERIFY, "kind family requires a family object"),
    "family_with_matrices": (
        {**FAMILY_FILE, "matrices": MINIMAL_GENERAL["matrices"]}, VERIFY, "kind family carries no"
    ),
    "offdiag_T_shape": (
        {"kind": "offdiag", "matrices": OFFDIAG_MATRICES}, VERIFY, "T must be 2 x 1"
    ),
    "stability_on_family": (FAMILY_FILE, ["stability", "{}"], "stability command needs"),
    "sizes_reversed": (None, ["family", "constant", "--sizes", "5..3"], "empty size range"),
    "sizes_none": (None, ["family", "constant", "--sizes", ","], "family runs need a non-empty"),
    "offdiag_one_size": (
        None, ["generate", "offdiag", "--n", "4", "--out", "{}"], "--n must be two comma-separated"
    ),
    "negative_kernel_dim": (
        None,
        ["generate", "offdiag", "--n", "3,2", "--kernel-dims=-1,0", "--out", "{}"],
        "kernel dimension -1 must lie in [0, block size 3]",
    ),
}


#: Command lines argparse refuses.  Each exits 2 with one ``error:`` line and no usage
#: block; in the last, argparse reads ``-1,0`` as a flag.
USAGE_ERRORS = {
    "no_command": [],
    "unknown_command": ["bogus"],
    "verify_without_file": ["verify"],
    "seed_not_an_integer": ["generate", "general", "--n", "4", "--seed", "x"],
    "negative_kernel_dims": ["generate", "offdiag", "--n", "3,2", "--kernel-dims", "-1,0"],
}

#: Problems and the checks they fail at ``--tol-scale 1e-12``, as measured: the scale
#: reaches the residual checks of both kinds and the general-only unit-gap check.
TIGHT_TOLERANCE = {
    "general": (
        ("general", 24, 0), {"first_rep_residual", "second_rep_residual", "shifted_unit_gap"}
    ),
    "offdiag": (("offdiag", (6, 5), 0), {"first_rep_residual", "second_rep_residual"}),
}


def refused_counterexample():
    spec = gen_counterexample(2)
    spec.force = False
    return spec


#: Each report kind: its problem, the optional sections it fills and the keys of its
#: ``representation`` (None where the kind has none).
SECTIONS = ("certificate", "representation", "kernel", "stability", "family")
REPORT_KINDS = {
    "general_refused": (refused_counterexample, {"certificate", "representation"}, {"refusal"}),
    "general_forced": (
        lambda: gen_counterexample(2),
        {"certificate", "representation", "stability"},
        {
            "certified", "first_rep_residual", "second_rep_residual",
            "gap_radius", "gap_margin", "operator_norm",
        },
    ),
    "offdiag": (
        lambda: gen_random("offdiag", (6, 5), 0),
        {"representation", "kernel", "stability"},
        {
            "first_rep_residual", "second_rep_residual",
            "gap_radius", "coupling_norm", "operator_norm",
        },
    ),
    "family": (
        lambda: ProblemSpec(kind="family", family_name="constant", sizes=[1, 2]),
        {"family"},
        None,
    ),
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

    @pytest.mark.parametrize("entry", [True, False])
    def test_boolean_entry_refused_on_both_paths(self, tmp_path, entry):
        # float() reads true as 1.0 and false as 0.0; a matrix entry is a number or a string.
        payload = json.loads(json.dumps(MINIMAL_GENERAL))
        payload["matrices"]["H"][1][1] = entry
        message = "^matrix H has a non-numeric entry: true or false$"
        with pytest.raises(SpecFormatError, match=message):
            harness.spec_from_dict(payload)
        with pytest.raises(SpecFormatError, match=message):
            load_spec(write_json(tmp_path, payload))

    def test_one_ulp_asymmetry_loads_as_written(self, tmp_path):
        # (0.5 + (0.5 + ulp)) / 2 rounds to 0.5: the library averages H to its twin once.
        above = float(np.nextafter(0.5, 1.0))
        payload = json.loads(json.dumps(MINIMAL_GENERAL))
        payload["matrices"]["H"][1][0] = format(above, ".17g")
        spec = load_spec(write_json(tmp_path, payload, "ulp.json"))
        twin = load_spec(write_json(tmp_path, MINIMAL_GENERAL, "twin.json"))
        assert spec.matrices["H"][1, 0] == above and spec.matrices["H"][0, 1] == 0.5
        report, twin_report = run(spec).to_dict(), run(twin).to_dict()
        del report["wall_time_s"], twin_report["wall_time_s"]
        digest = report["spec_echo"]["matrices"].pop("H")
        twin_digest = twin_report["spec_echo"]["matrices"].pop("H")
        assert digest["sha256"] != twin_digest["sha256"]
        assert report == twin_report and report["passed"]

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

    @pytest.mark.parametrize("case", sorted(WRITTEN_SPECS))
    def test_bytes_match_json_dump(self, tmp_path, case):
        spec = WRITTEN_SPECS[case]()
        oracle = tmp_path / "oracle.json"
        with open(oracle, "w", encoding="utf-8") as handle:
            json.dump(spec_to_dict(spec), handle, indent=2, sort_keys=True)
            handle.write("\n")
        path = tmp_path / "spec.json"
        save_spec(spec, str(path))
        assert path.read_bytes() == oracle.read_bytes()

    def test_edge_entries_keep_the_format_rule(self):
        spec = WRITTEN_SPECS["edge_entries_with_tolerances"]()
        payload = spec_to_dict(spec)
        strings = payload["matrices"]["A"]
        assert strings == [[format(float(v), ".17g") for v in row] for row in EDGE_ENTRIES]
        assert strings == [
            ["-0", "4.9406564584124654e-324"],
            ["9.9999999999999998e+149", "0.10000000000000001"],
        ]
        assert np.array(strings, dtype=float).tobytes() == EDGE_ENTRIES.tobytes()
        assert payload["matrices"]["H"] == [["1", "2"]]

    def test_complex_matrix_refused_by_spec_to_dict(self):
        with pytest.raises(SpecFormatError, match=COMPLEX_REFUSAL):
            spec_to_dict(complex_spec())

    def test_complex_matrix_refused_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "existing.json"
        save_spec(gen_random("general", 2, seed=0), str(path))
        before = path.read_bytes()
        with pytest.raises(SpecFormatError, match=COMPLEX_REFUSAL):
            save_spec(complex_spec(), str(path))
        assert path.read_bytes() == before

    @pytest.mark.parametrize("shape", [(0, 0), (2, 0)])
    def test_empty_matrix_refused_before_the_file_is_opened(self, tmp_path, shape):
        # load_spec refuses a matrix without entries, so neither writer may produce one.
        path = tmp_path / "existing.json"
        save_spec(gen_random("general", 2, seed=0), str(path))
        before = path.read_bytes()
        for write in (spec_to_dict, lambda spec: save_spec(spec, str(path))):
            with pytest.raises(SpecFormatError, match="^matrix H is empty"):
                write(complex_spec(np.zeros(shape)))
        assert path.read_bytes() == before


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

    @pytest.mark.parametrize("kernel_dims", [(-1, 0), (0, 3)])
    def test_kernel_dims_outside_the_block_name_the_value(self, kernel_dims):
        bad = kernel_dims[0] if kernel_dims[0] < 0 else kernel_dims[1]
        with pytest.raises(FormrepError, match=f"kernel dimension {bad} must lie in"):
            gen_random("offdiag", (3, 2), seed=0, kernel_dims=kernel_dims)

    def test_same_seed_byte_identical(self):
        first = json.dumps(spec_to_dict(gen_random("general", 6, seed=42)), sort_keys=True)
        second = json.dumps(spec_to_dict(gen_random("general", 6, seed=42)), sort_keys=True)
        assert first == second

    def test_dimension_bounds(self):
        with pytest.raises(Exception):
            gen_random("general", MAX_RANDOM_DIM + 1, seed=0)


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

    def test_breached_direct_coefficient_is_check_failure(self, monkeypatch):
        def breached(problem):
            raise InternalCheckError("direct-coefficient identity breached")

        monkeypatch.setattr(harness, "direct_coefficient", breached)
        report = run(gen_random("offdiag", (6, 5), seed=1))
        assert report.checks["direct_coefficient_identity"] is False
        assert report.exit_code == 1

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

    def test_spec_echo_digest_sees_imaginary_parts(self):
        report = run(complex_spec())
        other = run(complex_spec(np.diag([1.0, -1.0]) + 2j * np.array([[0.0, 1.0], [-1.0, 0.0]])))
        assert report.passed and other.passed
        echo, other_echo = report.spec_echo["matrices"], other.spec_echo["matrices"]
        assert echo["H"]["sha256"] == hashlib.sha256(COMPLEX_H.tobytes()).hexdigest()
        assert echo["H"]["sha256"] != other_echo["H"]["sha256"]
        assert echo["A"] == other_echo["A"] and echo["J"] == other_echo["J"]

    def test_spec_echo_digest_of_a_real_matrix_is_its_float64_bytes(self):
        spec = gen_counterexample(2)
        spec.matrices["J"] = np.diag([1, -1, 1, -1])  # integer entries are echoed as float64
        echo = run(spec).spec_echo["matrices"]
        for name, mat in spec.matrices.items():
            data = np.ascontiguousarray(mat, dtype=np.float64)
            assert echo[name] == {
                "shape": list(data.shape),
                "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
            }

    @pytest.mark.parametrize("kind", ["float", "complex", "transposed"])
    def test_matrix_digest_hashes_the_c_order_bytes(self, kind):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((5, 3))
        if kind == "complex":
            mat = mat + 1j * rng.standard_normal((5, 3))
        elif kind == "transposed":
            mat = mat.T  # not C-contiguous: the digest is that of its C-order copy
        data = np.ascontiguousarray(mat)
        assert harness._matrix_digest(mat) == {
            "shape": list(mat.shape),
            "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
        }

    @pytest.mark.parametrize("case", sorted(REPORT_KINDS))
    def test_each_report_kind_fills_its_sections(self, case):
        build, sections, representation_keys = REPORT_KINDS[case]
        report = run(build())
        assert {name for name in SECTIONS if getattr(report, name) is not None} == sections
        if representation_keys is not None:
            assert set(report.representation) == representation_keys

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

    def test_family_range_above_the_size_cap_exit_two_one_line(self, capsys):
        # The stop is checked before the range is built: no list of 10^18 sizes is allocated.
        cap = harness.MAX_FAMILY_INDEX
        for stop in (cap + 1, 10**18):
            assert main(["family", "constant", "--sizes", f"1..{stop}"]) == 2
            err = capsys.readouterr().err
            assert err == f"error: family sizes stop at {cap}, got '1..{stop}'\n"

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_families_pass_with_finite_reports(self, name):
        assert main(["family", name, "--sizes", "1..6"]) == 0

    def test_non_finite_family_norm_exit_two_one_line(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "_gram_norm", lambda mat: float("nan"))
        assert main(["family", "constant", "--sizes", "1,2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: report contains a non-finite number\n"

    def test_singular_family_weight_exit_two_one_line(self, monkeypatch, capsys):
        def singular(size):  # regular at size 1, singular from size 2 on
            splitting = np.diag([1.0, -1.0] * size)
            weight = np.diag([float(size == 1), 1.0] * size)
            return ProblemSpec(
                kind="general", matrices={"A": weight, "H": splitting, "J": splitting}, force=True
            )

        monkeypatch.setitem(FAMILIES, "singular", singular)
        assert main(["family", "singular", "--sizes", "1..3"]) == 2
        err = capsys.readouterr().err
        assert err == "error: family weight at size 2 is singular\n"

    @pytest.mark.parametrize("size", [1, 4])
    def test_generated_truncation_verifies_as_the_family_reports(self, tmp_path, size):
        # One definition serves both commands: the file ``generate counterexample`` writes
        # verifies to the norms ``family counterexample`` reports at that size, bit for bit.
        problem, verified, family = (tmp_path / name for name in ("p.json", "v.json", "f.json"))
        assert main(["generate", "counterexample", "--n", str(size), "--out", str(problem)]) == 0
        assert main(["verify", str(problem), "--json-out", str(verified)]) == 0
        argv = ["family", "counterexample", "--sizes", str(size), "--json-out", str(family)]
        assert main(argv) == 0
        report = json.loads(verified.read_text())
        sequences = json.loads(family.read_text())["family"]["norm_sequences"]
        norms = {key: values[0] for key, values in sequences.items()}
        stability = report["stability"]
        assert report["representation"]["operator_norm"] == norms["operator"]
        assert stability["norm_weighted_abs"] == norms["weighted_abs"]
        assert stability["norm_weighted_abs_inverse"] == norms["weighted_abs_inverse"]
        assert stability["norm_sign_conjugate"] == norms["sign_conjugate"]

    def test_matrix_above_the_dimension_cap_exit_two_one_line(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(harness, "MAX_RANDOM_DIM", 2)
        payload = json.loads(json.dumps(MINIMAL_GENERAL))
        # The cap is checked before any entry is converted.
        payload["matrices"]["H"] = [["x"] * 3] * 3
        assert main(["verify", write_json(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert err == "error: matrix H is 3 x 3, above the dimension cap 2\n"
        payload["matrices"]["H"] = [["1", "0", "0"]] * 2
        assert main(["verify", write_json(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert err == "error: matrix H is 2 x 3, above the dimension cap 2\n"

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

    def test_every_report_command_fails_a_refused_certificate(self, tmp_path, capsys):
        spec = gen_counterexample(3)
        spec.force = False
        path = str(tmp_path / "refused.json")
        save_spec(spec, path)
        for command in ("verify", "stability"):
            assert main([command, path]) == 1
            assert capsys.readouterr().out.startswith("FAIL  hypothesis_certified\nfailed in ")
        assert main(["stability", path, "--force"]) == 0

    @pytest.mark.parametrize("case", sorted(UNREAD_FLAGS))
    def test_unread_flag_exit_two(self, tmp_path, case):
        od, out = tmp_path / "od.json", tmp_path / "out.json"
        save_spec(gen_random("offdiag", (3, 2), seed=0), str(od))
        argv = [arg.format(od=od) for arg in UNREAD_FLAGS[case]]
        if argv[0] == "generate":
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusal_exit_two_one_line(self, tmp_path, capsys, case):
        payload, argv, message = REFUSALS[case]
        path = write_json(tmp_path, payload) if payload is not None else str(tmp_path / "out.json")
        assert main([arg.format(path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")

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

    @pytest.mark.parametrize("case", sorted(TIGHT_TOLERANCE))
    def test_tol_scale_reaches_the_checks_of_both_kinds(self, tmp_path, capsys, case):
        problem, failing = TIGHT_TOLERANCE[case]
        path = str(tmp_path / "tight.json")
        save_spec(gen_random(*problem), path)
        assert main(["verify", path]) == 0
        capsys.readouterr()
        assert main(["verify", path, "--tol-scale", "1e-12"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert {line[6:] for line in lines if line.startswith("FAIL  ")} == failing
        assert sum(line.startswith("PASS  ") for line in lines) == len(lines) - len(failing) - 1

    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_usage_error_exit_two_one_line(self, capsys, case):
        with pytest.raises(SystemExit) as exc:
            main(USAGE_ERRORS[case])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: formrep")

    def test_unwritable_json_out_prints_no_summary(self, tmp_path, capsys):
        argv = ["family", "constant", "--sizes", "1", "--json-out", str(tmp_path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

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

    def test_deeply_nested_file_exit_two_one_line(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: parse error in {path}: nesting too deep\n"

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
