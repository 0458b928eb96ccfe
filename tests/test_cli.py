import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from click.testing import CliRunner

from dihedral_lab import comparison
from dihedral_lab.cli import format_json, main


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def square_scene(conformal=None):
    g = {"11": "1", "22": "1"}
    if conformal:
        g = {"11": conformal, "22": conformal}
    return {
        "dim": 2,
        "halfspaces": [
            {"a": [1.0, 0.0], "b": 0.0}, {"a": [-1.0, 0.0], "b": -1.0},
            {"a": [0.0, 1.0], "b": 0.0}, {"a": [0.0, -1.0], "b": -1.0},
        ],
        "g": g,
    }


class TestFormatJson:
    def test_seventeen_digits(self):
        assert format_json(1.0 / 3.0) == "0.33333333333333331"
        assert format_json(math.pi) == "3.1415926535897931"

    def test_types(self):
        assert format_json(True) == "true"
        assert format_json(None) == "null"
        assert format_json(3) == "3"
        assert format_json([]) == "[]"
        assert format_json({}) == "{}"

    def test_valid_json_roundtrip(self):
        obj = {"a": [1.5, 2, True], "b": {"c": None, "d": "x"}}
        assert json.loads(format_json(obj)) == obj


class TestSpectrumCommand:
    def test_sector_example(self, runner):
        result = runner.invoke(main, [
            "spectrum", "sector", "--alpha", "1.5707963", "--beta", "3.1415926",
        ])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["min_abs"] == pytest.approx(1.0, abs=1e-6)
        assert report["esa"] is True

    def test_sector_numeric_agreement(self, runner):
        result = runner.invoke(main, [
            "spectrum", "sector", "--alpha", "2.0", "--beta", "2.5",
            "--numeric", "256",
        ])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["numeric_matches_closed"] is True

    def test_bound(self, runner):
        result = runner.invoke(main, ["spectrum", "bound", "--dim", "3"])
        assert result.exit_code == 0
        assert json.loads(result.output)["bound"] == pytest.approx(
            math.sqrt(2) / 2)

    def test_determinism(self, runner):
        args = ["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2",
                "--numeric", "128"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    def test_sector_any_grid_in_small_memory(self, runner):
        # the assembled matrix at this grid would take 2 * 8 * 2e10 bytes
        args = ["spectrum", "sector", "--alpha", "1.0", "--beta", "2.0",
                "--numeric", "10000000000"]
        runner.invoke(main, args)  # imports outside the traced window
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        eigenvalues = json.loads(result.output)["numeric"]["eigenvalues"]
        assert len(eigenvalues) == 5 and all(math.isfinite(v) for v in eigenvalues)
        assert peak < 1 << 20

    @pytest.mark.parametrize("args, message", [
        (["--alpha", "inf", "--beta", "1.0"], "sector angles must be finite and positive"),
        (["--alpha", "1.0", "--beta", "inf", "--numeric", "128"],
         "sector angles must be finite and positive"),
        (["--alpha", "nan", "--beta", "1.0"], "sector angles must be finite and positive"),
        (["--alpha", "1.0", "--beta", "2.0", "--count", "0", "--numeric", "128"],
         "need count >= 1 and a finite tol >= 0, got 0, 0.001"),
        (["--alpha", "1.0", "--beta", "2.0", "--count", "-1"],
         "need count >= 1 and a finite tol >= 0, got -1, 0.001"),
        (["--alpha", "1.0", "--beta", "2.0", "--tol", "nan", "--numeric", "128"],
         "need count >= 1 and a finite tol >= 0, got 5, nan"),
        (["--alpha", "1.0", "--beta", "2.0", "--tol", "-1", "--numeric", "128"],
         "need count >= 1 and a finite tol >= 0, got 5, -1.0"),
        (["--alpha", "1.0", "--beta", "2.0", "--tol", "inf"],
         "need count >= 1 and a finite tol >= 0, got 5, inf"),
        (["--alpha", "1.0", "--beta", "2.0", "--count", "100", "--numeric", "64"],
         "count 100 is too large for grid 64 (window past the band)"),
    ], ids=["alpha_inf", "beta_inf_numeric", "alpha_nan", "count_0", "count_minus_1",
            "tol_nan", "tol_minus_1", "tol_inf", "count_past_band"])
    def test_sector_bad_input_exit_2(self, runner, args, message):
        result = runner.invoke(main, ["spectrum", "sector", *args])
        assert result.exit_code == 2
        assert result.output.splitlines() == [f"input error: {message}"]


class TestCompareCommand:
    def test_identity_scene_passes(self, runner, tmp_path):
        scene = {
            "N": square_scene(),
            "M": square_scene(),
            "f": ["x1", "x2"],
            "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
        }
        path = write_json(tmp_path / "scene.json", scene)
        result = runner.invoke(main, ["compare", "--scene", path])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["holds"] is True
        assert abs(report["margins"]["scalar"]["value"]) <= 1e-6

    def test_failing_scene_exit_1(self, runner, tmp_path):
        scene = {
            "N": square_scene(conformal="exp(2*(-0.3)*x1)"),
            "M": square_scene(),
            "f": ["x1", "x2"],
            "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
        }
        # source faces acquire nonzero mean curvature of both signs, so a
        # margin must go negative while the computation itself succeeds
        path = write_json(tmp_path / "scene.json", scene)
        result = runner.invoke(main, ["compare", "--scene", path])
        assert result.exit_code == 1
        assert json.loads(result.output)["holds"] is False

    def test_malformed_scene_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not valid json")
        result = runner.invoke(main, ["compare", "--scene", str(bad)])
        assert result.exit_code == 2
        assert "line" in result.output

    def test_missing_key_exit_2(self, runner, tmp_path):
        path = write_json(tmp_path / "scene.json", {"N": square_scene()})
        result = runner.invoke(main, ["compare", "--scene", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag, count", [
        ("--interior", "0"), ("--interior", "-3"), ("--per-face", "-1"),
        ("--per-edge", "0")])
    def test_sample_count_below_one_exit_2(self, runner, tmp_path, flag, count):
        # a margin left unsampled must not count as a pass
        scene = {"N": square_scene(), "M": square_scene(), "f": ["x1", "x2"],
                 "faces": {"1": "1", "2": "2", "3": "3", "4": "4"}}
        path = write_json(tmp_path / "scene.json", scene)
        result = runner.invoke(main, ["compare", "--scene", path, flag, count])
        assert result.exit_code == 2
        assert "input error" in result.output and "at least 1" in result.output

    def test_csv_output(self, runner, tmp_path):
        scene = {
            "N": square_scene(),
            "M": square_scene(),
            "f": ["x1", "x2"],
            "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
        }
        path = write_json(tmp_path / "scene.json", scene)
        csv_path = tmp_path / "margins.csv"
        result = runner.invoke(main, ["compare", "--scene", path,
                                      "--csv", str(csv_path)])
        assert result.exit_code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "margin,stratum,point,value"
        # one row per sampled value: 16 interior + 4x8 face + 4x2 angle rows
        assert len(lines) >= 40

    def test_byte_identical_reports(self, runner, tmp_path):
        scene = {
            "N": square_scene(),
            "M": square_scene(),
            "f": ["x1", "x2"],
            "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
        }
        path = write_json(tmp_path / "scene.json", scene)
        args = ["compare", "--scene", path, "--seed", "7"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1.encode() == out2.encode()


class TestOtherCommands:
    def test_curvature(self, runner, tmp_path):
        scene = {"dim": 2, "g": {"11": "4/(1+x1^2+x2^2)^2",
                                 "22": "4/(1+x1^2+x2^2)^2"}}
        path = write_json(tmp_path / "m.json", scene)
        result = runner.invoke(main, ["curvature", "--scene", path,
                                      "--point", "0.3,-0.2"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["scalar_curvature"] == pytest.approx(2.0, abs=1e-4)

    def test_angles(self, runner, tmp_path):
        path = write_json(tmp_path / "d.json", square_scene())
        result = runner.invoke(main, ["angles", "--scene", path,
                                      "--faces", "1,3", "--point", "0,0"])
        assert result.exit_code == 0
        assert json.loads(result.output)["angle"] == pytest.approx(math.pi / 2)

    def test_gaussbonnet(self, runner, tmp_path):
        path = write_json(tmp_path / "d.json", square_scene())
        result = runner.invoke(main, ["gaussbonnet", "--scene", path,
                                      "--resolution", "2"])
        assert result.exit_code == 0
        assert abs(json.loads(result.output)["defect"]) <= 1e-12

    def test_certify_small(self, runner):
        result = runner.invoke(main, ["certify", "--dim", "2",
                                      "--trials", "20", "--seed", "3"])
        assert result.exit_code == 0
        assert json.loads(result.output)["all_nonnegative"] is True

    def test_certify_is_deterministic(self, runner):
        args = ["certify", "--dim", "4", "--dim", "2",
                "--trials", "10", "--seed", "5"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output.encode() == second.output.encode()
        assert list(json.loads(first.output)["dims"]) == ["2", "4"]

    def test_certify_repeated_dim_runs_once(self, runner, monkeypatch):
        calls = []
        core = comparison._twisted_min_eigs
        monkeypatch.setattr(comparison, "_twisted_min_eigs",
                            lambda *args: calls.append(1) or core(*args))
        once = runner.invoke(main, ["certify", "--dim", "2", "--trials", "5"])
        single = len(calls)
        twice = runner.invoke(main, ["certify", "--dim", "2", "--dim", "2",
                                     "--trials", "5"])
        assert once.exit_code == twice.exit_code == 0
        assert twice.output == once.output
        assert single > 0 and len(calls) == 2 * single

    def test_certify_output_does_not_depend_on_chunk(self, runner, monkeypatch):
        args = ["certify", "--dim", "2", "--dim", "4", "--dim", "6",
                "--trials", "40"]
        outputs = set()
        for chunk in (1, 3, comparison._TRIAL_CHUNK):
            monkeypatch.setattr(comparison, "_TRIAL_CHUNK", chunk)
            result = runner.invoke(main, args)
            assert result.exit_code == 0
            outputs.add(result.output.encode())
        assert len(outputs) == 1

    def test_certify_memory_does_not_grow_with_trials(self, runner):
        def peak(trials):
            tracemalloc.start()
            try:
                result = runner.invoke(main, ["certify", "--dim", "6",
                                              "--trials", str(trials)])
                peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0
            return peak_bytes

        peak(3)  # one-time allocations of the first run stay out of the ratio
        small, large = peak(200), peak(4000)
        assert large <= 1.1 * small

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_certify_trials_below_one_exit_2(self, runner, trials):
        # no trial at all would report inf minima and count as a pass
        result = runner.invoke(main, ["certify", "--dim", "2", "--trials", trials])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            f"input error: trials must be at least 1, got {trials}"]

    @pytest.mark.parametrize("part, value", [
        ("a", math.nan), ("a", math.inf), ("b", math.nan), ("b", math.inf),
        ("b", -math.inf)], ids=["a_nan", "a_inf", "b_nan", "b_inf", "b_minus_inf"])
    def test_angles_non_finite_halfspace_exit_2(self, runner, tmp_path, part, value):
        scene = square_scene()
        if part == "a":
            scene["halfspaces"][1]["a"][0] = value
        else:
            scene["halfspaces"][1]["b"] = value
        path = write_json(tmp_path / "d.json", scene)
        result = runner.invoke(main, ["angles", "--scene", path,
                                      "--faces", "1,3", "--point", "0,0"])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            "input error: half-space normals and offsets must be finite"]

    def test_conformal(self, runner, tmp_path):
        scene = {"dim": 3, "g": {"11": "1", "22": "1", "33": "1"}}
        path = write_json(tmp_path / "m.json", scene)
        result = runner.invoke(main, ["conformal", "--metric", path,
                                      "--factor", "1 + 0.1*sin(x1)",
                                      "--point", "0.4,0.2,-0.5"])
        assert result.exit_code == 0
        assert json.loads(result.output)["within_tol"] is True

    def test_deficiency(self, runner):
        result = runner.invoke(main, ["deficiency", "--lambda", "0.25"])
        assert result.exit_code == 0
        assert json.loads(result.output)["is_l2"] is True

    def test_hardy(self, runner):
        result = runner.invoke(main, ["hardy", "--lambda", "1.0"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["analytic_bound"] == pytest.approx(2.0)
        assert report["within_bound"] is True

    def test_hardy_bad_lambda_exit_2(self, runner):
        result = runner.invoke(main, ["hardy", "--lambda", "0.4"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--lambda", "inf"], ["--lambda", "nan"],
        ["--lambda", "1.0", "--delta", "nan"], ["--lambda", "1.0", "--delta", "inf"],
    ], ids=["lambda_inf", "lambda_nan", "delta_nan", "delta_inf"])
    def test_hardy_non_finite_exit_2(self, runner, args):
        result = runner.invoke(main, ["hardy", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "input error: lambda and delta must be finite"]

    def test_hardy_is_deterministic(self, runner):
        args = ["hardy", "--lambda", "0.6", "--grid", "2400"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output.encode() == second.output.encode()

    def test_smooth_csv(self, runner):
        result = runner.invoke(main, ["smooth", "--angle", "1.5707963267948966",
                                      "--radii", "0.1,0.05"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("radius,")
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == pytest.approx(math.pi / 2, abs=1e-8)

    def test_index_scene(self, runner, tmp_path):
        scene = {
            "resolution": 6,
            "M": {"type": "square"},
            "N": [{"polygon": {"type": "square"},
                   "map": {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                           "offset": [0.0, 0.0]}}],
        }
        path = write_json(tmp_path / "idx.json", scene)
        result = runner.invoke(main, ["index", "--scene", path])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["match"] is True
        assert report["index"] == 1

    def test_index_mismatch_exit_1(self, runner, tmp_path):
        scene = {
            "resolution": 4,
            "M": {"type": "square"},
            "N": [{"polygon": {"type": "square"},
                   "map": {"matrix": [[0.0, 1.0], [1.0, 0.0]],
                           "offset": [0.0, 0.0]}}],
        }
        path = write_json(tmp_path / "idx.json", scene)
        result = runner.invoke(main, ["index", "--scene", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.output)["deg"] == -1

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["spectrum", "bound", "--dim", "4",
                                      "--output", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["dim"] == 4


class TestMalformedSceneTypes:
    """Scene values of the wrong JSON type are bad input (exit 2, one line
    on stderr), never a traceback with the verdict-failed code."""

    METRIC_CASES = {
        "g_list": {"g": ["1", "1"]},
        "g_entry_number": {"g": {"11": 1, "22": "1"}},
        "dim_list": {"dim": [2]},
    }
    DOMAIN_CASES = {
        "halfspaces_object": {"halfspaces": {"a": [1.0, 0.0], "b": 0.0}},
        "halfspace_list": {"halfspaces": [[1.0, 0.0, 0.0]]},
        "halfspace_b_list": {"halfspaces": [{"a": [1.0, 0.0], "b": [0.0]}]},
        "window_number": {"window": 3},
        "window_wrong_dim": {"window": [[0.0], [1.0, 1.0, 1.0]]},
    }
    COMMANDS = {
        "curvature": ["--point", "0.3,0.2"],
        "angles": ["--faces", "1,3", "--point", "0,0"],
        "gaussbonnet": ["--resolution", "1"],
    }

    def assert_input_error(self, result):
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "input error" in result.output

    def run_scene(self, runner, tmp_path, command, scene):
        path = write_json(tmp_path / "s.json", scene)
        return runner.invoke(main, [command, "--scene", path,
                                    *self.COMMANDS[command]])

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("case", sorted(METRIC_CASES))
    def test_metric_part(self, runner, tmp_path, command, case):
        scene = {**square_scene(), **self.METRIC_CASES[case]}
        self.assert_input_error(self.run_scene(runner, tmp_path, command, scene))

    @pytest.mark.parametrize("command", ["angles", "gaussbonnet"])
    @pytest.mark.parametrize("case", sorted(DOMAIN_CASES))
    def test_domain_part(self, runner, tmp_path, command, case):
        scene = {**square_scene(), **self.DOMAIN_CASES[case]}
        self.assert_input_error(self.run_scene(runner, tmp_path, command, scene))

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_scene_not_an_object(self, runner, tmp_path, command):
        self.assert_input_error(self.run_scene(runner, tmp_path, command, [1, 2]))

    @pytest.mark.parametrize("override", [
        {"N": [1]},
        {"f": [1, 2]},
        {"f": "x1"},
        {"faces": [1, 2]},
        {"faces": {"1": [1]}},
        {"M": {**square_scene(), "g": ["1", "1"]}},
    ], ids=["N_list", "f_numbers", "f_string", "faces_list", "face_value_list",
            "M_g_list"])
    def test_compare_scene(self, runner, tmp_path, override):
        scene = {"N": square_scene(), "M": square_scene(), "f": ["x1", "x2"],
                 "faces": {"1": "1", "2": "2", "3": "3", "4": "4"}, **override}
        path = write_json(tmp_path / "s.json", scene)
        self.assert_input_error(runner.invoke(main, ["compare", "--scene", path]))


    INDEX_CASES = {
        "top_level_list": [1],
        "M_list": {"M": [1]},
        "N_object": {"N": {"polygon": {"type": "square"}}},
        "N_nested_list": {"N": [[1]]},
        "map_string": {"N": [{"polygon": {"type": "square"}, "map": "identity"}]},
        "resolution_list": {"resolution": [3]},
        "union_parts_number": {"N": [{"polygon": {"type": "union", "parts": 5},
                                      "map": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}]},
    }

    @pytest.mark.parametrize("case", sorted(INDEX_CASES))
    def test_index_scene(self, runner, tmp_path, case):
        override = self.INDEX_CASES[case]
        scene = override if isinstance(override, list) else {
            "resolution": 3, "M": {"type": "square"},
            "N": [{"polygon": {"type": "square"},
                   "map": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}],
            **override}
        path = write_json(tmp_path / "s.json", scene)
        self.assert_input_error(runner.invoke(main, ["index", "--scene", path]))


class TestInternalErrors:
    """A crash inside a command is exit 3 with one stderr line, never the
    verdict-failed code 1 or a traceback."""

    def test_unexpected_exception_exits_3(self, runner, monkeypatch):
        import dihedral_lab.cli as cli

        def broken(n):
            raise IndexError("index 7 is out of bounds")

        monkeypatch.setattr(cli, "gallot_meyer_bound", broken)
        result = runner.invoke(main, ["spectrum", "bound", "--dim", "4"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "internal error: IndexError: index 7 is out of bounds" in result.output
        assert "Traceback" not in result.output

    def test_hardy_non_convergence_exits_3(self, runner, monkeypatch):
        from dihedral_lab import sector_spectra

        monkeypatch.setattr(sector_spectra, "_LANCZOS_STEPS", 2)
        result = runner.invoke(main, ["hardy", "--lambda", "400", "--grid", "1200"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "internal error: RuntimeError: Lanczos did not converge in 2 steps"]

    def test_secular_non_convergence_exits_3(self, runner, monkeypatch):
        from dihedral_lab import sector_spectra

        monkeypatch.setattr(sector_spectra, "_SECULAR_STEPS", 1)
        result = runner.invoke(main, ["spectrum", "sector", "--alpha", "0.9",
                                      "--beta", "2.8", "--numeric", "4096"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "internal error: RuntimeError: secular equation did not settle in 1 steps"]


class TestShippedScenes:
    """The scene files under scenes/ must keep working as documented."""

    SCENES = None

    @pytest.fixture(autouse=True)
    def scenes_dir(self):
        import pathlib

        self.SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"
        if not self.SCENES.is_dir():
            pytest.skip("scenes directory not present")

    def test_cube_identity(self, runner):
        result = runner.invoke(main, [
            "compare", "--scene", str(self.SCENES / "cube_id.json"),
            "--interior", "4", "--per-face", "2", "--per-edge", "1",
        ])
        assert result.exit_code == 0
        assert json.loads(result.output)["holds"] is True

    def test_square_identity(self, runner):
        result = runner.invoke(main, [
            "compare", "--scene", str(self.SCENES / "square_id.json"),
        ])
        assert result.exit_code == 0

    def test_sphere_metric(self, runner):
        result = runner.invoke(main, [
            "curvature", "--scene", str(self.SCENES / "sphere2_metric.json"),
            "--point", "0.3,-0.2",
        ])
        assert result.exit_code == 0
        assert json.loads(result.output)["scalar_curvature"] == pytest.approx(
            2.0, abs=1e-4)

    def test_conformal_square_gauss_bonnet(self, runner):
        result = runner.invoke(main, [
            "gaussbonnet", "--scene", str(self.SCENES / "conformal_square.json"),
        ])
        assert result.exit_code == 0

    def test_index_scenes(self, runner):
        one = runner.invoke(main, [
            "index", "--scene", str(self.SCENES / "index_square_id.json")])
        assert one.exit_code == 0
        assert json.loads(one.output)["index"] == 1
        two = runner.invoke(main, [
            "index", "--scene", str(self.SCENES / "index_two_squares.json")])
        assert two.exit_code == 0
        assert json.loads(two.output)["index"] == 2


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))


def _fresh_cli(args, preamble=""):
    """Run the CLI in a fresh interpreter from the repository root, after
    the ``preamble`` statements; return its exit code and the ``scipy*``
    modules it left in ``sys.modules``."""
    code = (preamble + "import sys\n"
            "from dihedral_lab.cli import main\n"
            "code = 0\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
            " file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_src_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True)
    exit_code, modules = proc.stderr.splitlines()[-1].split(" ", 1)
    return int(exit_code), modules


def test_cli_import_leaves_scipy_sparse_unloaded():
    """Importing the command line loads no ``scipy.sparse`` module, so the
    start-up of every subcommand stays at the numpy + click floor."""
    code = ("import sys, dihedral_lab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("args", [
    ["--help"],
    ["angles", "--scene", "scenes/square_metric.json", "--faces", "1,3",
     "--point", "0,0"],
    ["gaussbonnet", "--scene", "scenes/conformal_square.json", "--resolution", "2"],
    ["compare", "--scene", "scenes/cube_id.json"],
    ["curvature", "--scene", "scenes/sphere2_metric.json", "--point", "0.3,-0.2"],
    ["conformal", "--metric", "scenes/sphere2_metric.json",
     "--factor", "1 + 0.1*sin(x1)", "--point", "0.4,0.2"],
    ["certify", "--dim", "2", "--trials", "5"],
    ["deficiency", "--lambda", "0.25"],
    ["spectrum", "bound", "--dim", "3"],
    ["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2"],
    ["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2", "--numeric", "128"],
    ["smooth", "--angle", "1.5707963267948966", "--radii", "0.1,0.05"],
    ["hardy", "--lambda", "1.0", "--grid", "64"],
    ["index", "--scene", "scenes/index_square_id.json"],
], ids=["help", "angles", "gaussbonnet", "compare", "curvature", "conformal",
        "certify", "deficiency", "spectrum-bound", "spectrum-sector",
        "spectrum-sector-numeric", "smooth", "hardy", "index"])
def test_scipy_free_commands_load_no_scipy(args):
    """Start-up guard: these subcommands never import any part of scipy."""
    exit_code, modules = _fresh_cli(args)
    assert exit_code == 0
    assert modules == "[]"


def test_probe_sees_preloaded_scipy():
    """Positive control for the guard: with ``scipy.linalg`` imported before
    the command runs, the probe reports it."""
    exit_code, modules = _fresh_cli(
        ["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2", "--numeric", "128"],
        preamble="import scipy.linalg\n")
    assert exit_code == 0
    assert "'scipy.linalg'" in modules
