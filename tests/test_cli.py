import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest
from click.testing import CliRunner

from dihedral_lab import cli, clifford
from dihedral_lab.cli import format_json, main


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def index_map(**map_):
    """Index scene override: one square component with the affine map ``map_``."""
    return {"N": [{"polygon": {"type": "square"}, "map": map_}]}


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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_raises(self, value):
        # inf and nan are not JSON; a report holding one is a bug (exit 3)
        with pytest.raises(RuntimeError, match="non-finite float"):
            format_json({"a": [1.0, value]})


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

    def test_bound_huge_dimension(self, runner):
        n = 10**20  # the float identity check failed here, at p = 1512
        result = runner.invoke(main, ["spectrum", "bound", "--dim", str(n)])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["dim"] == n
        assert report["bound"] == math.sqrt((n - 1) * (n - 2)) / 2.0

    def test_bound_past_float_range_exit_2(self, runner):
        n = 10**200
        result = runner.invoke(main, ["spectrum", "bound", "--dim", str(n)])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            f"input error: dimension {n} out of range: its bound overflows a float"]

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
         "need count >= 1, got 0"),
        (["--alpha", "1.0", "--beta", "2.0", "--count", "-1"],
         "need count >= 1, got -1"),
        (["--alpha", "1.0", "--beta", "2.0", "--tol", "nan", "--numeric", "128"],
         "tol must be finite and >= 0, got nan"),
        (["--alpha", "1.0", "--beta", "2.0", "--tol", "-1", "--numeric", "128"],
         "tol must be finite and >= 0, got -1.0"),
        (["--alpha", "1.0", "--beta", "2.0", "--tol", "inf"],
         "tol must be finite and >= 0, got inf"),
        (["--alpha", "1.0", "--beta", "2.0", "--count", "100", "--numeric", "64"],
         "count 100 is too large for grid 64 (window past the band)"),
        (["--alpha", "1", "--beta", "1", "--numeric", "1" + "0" * 400],
         "grid must be at most 2**53"),
        (["--alpha", "1", "--beta", "1", "--numeric", str(2**53 + 1)],
         "grid must be at most 2**53"),
        (["--alpha", "1e-308", "--beta", "1"],
         "lattice point past the float range at alpha = 1e-308, beta = 1.0"),
        (["--alpha", "1e-300", "--beta", "1e300", "--count", "1"],
         "beta = 1e+300 is too large: beta/(2 pi) must stay below 2**52"),
    ], ids=["alpha_inf", "beta_inf_numeric", "alpha_nan", "count_0", "count_minus_1",
            "tol_nan", "tol_minus_1", "tol_inf", "count_past_band", "grid_past_float",
            "grid_inexact_float", "lattice_past_float", "beta_past_2_52"])
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

    def test_face_touching_at_a_vertex_makes_no_corner(self, runner, tmp_path):
        # x1 + x2 >= 0 touches the square only at (0, 0); its pairs with the
        # two sides through (0, 0) were sampled as corners of angle pi/4, and
        # its mean curvature at (0, 0) as if it bounded the square
        side = square_scene()
        side["halfspaces"].append({"a": [1.0, 1.0], "b": 0.0})
        scene = {"N": side, "M": side, "f": ["x1", "x2"],
                 "faces": {"1": "1", "2": "2", "3": "3", "4": "4", "5": "5"}}
        csv_path = tmp_path / "margins.csv"
        result = runner.invoke(main, ["compare", "--scene",
                                      write_json(tmp_path / "scene.json", scene),
                                      "--csv", str(csv_path)])
        assert result.exit_code == 0
        cap = json.loads(result.output)["margins"]["angle_cap"]
        assert cap["value"] == math.pi / 2 and cap["stratum"] == "edge:1,3"
        strata = {line.split(",")[1] for line in csv_path.read_text().splitlines()[1:]
                  if line.startswith("mean_curvature,")}
        assert strata == {"face:1", "face:2", "face:3", "face:4"}

    @pytest.mark.parametrize("offset", [(0.0, 0.0, 1e7), (1e7, 1e7, 5e6)])
    def test_faces_far_from_the_origin(self, runner, tmp_path, offset):
        # the unit box at ``offset`` cut 0.1 off its edge x2 = o2, x3 = o3 by
        # a tilted plane: an absolute 1e-9 rejected the samples of that face
        # and of its edges, whose slacks cancel terms of size 1e7
        halfspaces = [{"a": [s * float(c == d) for d in range(3)],
                       "b": s * offset[c] - (s < 0)} for c in range(3) for s in (1, -1)]
        halfspaces.append({"a": [0.0, 0.6, 0.8], "b": 0.6 * offset[1] + 0.8 * offset[2] + 0.1})
        side = {"dim": 3, "halfspaces": halfspaces, "g": {"11": "1", "22": "1", "33": "1"}}
        scene = {"N": side, "M": side, "f": ["x1", "x2", "x3"],
                 "faces": {str(i): str(i) for i in range(1, 8)}}
        result = runner.invoke(main, ["compare", "--scene",
                                      write_json(tmp_path / "scene.json", scene)])
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.output)["margins"]["mean_curvature"]["value"] == 0.0

    def test_unbounded_domain_needs_a_window(self, runner, tmp_path):
        # the half-strip x1 >= 0, 0 <= x2 <= 1 was sampled in a box 2e-9 wide;
        # the closure of a complement, in the vertex box of the removed cell,
        # where the square has no point (exit 2 after 32,000 tries) and a
        # triangle some (exit 1, or 0 with --conclusions)
        strip = {**square_scene(), "halfspaces": [
            {"a": [1.0, 0.0], "b": 0.0}, {"a": [0.0, 1.0], "b": 0.0},
            {"a": [0.0, -1.0], "b": -1.0}]}
        triangle = {"dim": 2, "region": "complement", "g": {"11": "1", "22": "1"},
                    "halfspaces": [{"a": [0.0, 1.0], "b": 0.0}, {"a": [1.0, -1.0], "b": -1.0},
                                   {"a": [-1.0, -1.0], "b": -1.0}]}
        for side in (strip, {**square_scene(), "region": "complement"}, triangle):
            scene = {"N": side, "M": side, "f": ["x1", "x2"],
                     "faces": {str(i): str(i) for i in range(1, len(side["halfspaces"]) + 1)}}
            path = write_json(tmp_path / "scene.json", scene)
            for mode in ([], ["--conclusions"]):
                result = runner.invoke(main, ["compare", "--scene", path, *mode])
                assert result.exit_code == 2
                assert result.stderr.splitlines() == [
                    "input error: an unbounded domain needs a sampling 'window'"]

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

    def test_gaussbonnet_resolution_past_eight_adds_no_nodes(self, runner):
        # n = min(resolution, 8) nodes per direction: a huge resolution costs
        # what 8 does, and is echoed as given
        reports = [json.loads(runner.invoke(main, [
            "gaussbonnet", "--scene", str(ROOT / "scenes" / "conformal_square.json"),
            "--resolution", r]).output) for r in ("8", "1000000000")]
        assert reports[0]["defect"] == reports[1]["defect"]
        assert abs(reports[1]["defect"]) <= 1e-15
        assert reports[1]["resolution"] == 1000000000

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("args", [
        ["curvature", "--scene", "scenes/sphere2_metric.json", "--point", "0.3,-0.2"],
        ["gaussbonnet", "--scene", "scenes/conformal_square.json", "--resolution", "2"],
        ["compare", "--scene", "scenes/square_id.json"],
        ["certify", "--dim", "2", "--trials", "2"],
        ["conformal", "--metric", "scenes/sphere2_metric.json",
         "--factor", "1 + 0.1*sin(x1)", "--point", "0.4,0.2"],
        ["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2"],
    ], ids=["curvature", "gaussbonnet", "compare", "certify", "conformal", "sector"])
    def test_bad_tol_exit_2(self, runner, monkeypatch, args, tol):
        # a nan, infinite or negative gate is bad input, before any work
        monkeypatch.chdir(ROOT)
        result = runner.invoke(main, [*args, "--tol", tol])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            f"input error: tol must be finite and >= 0, got {float(tol)}"]

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
        core = clifford._twisted_min_eigs
        monkeypatch.setattr(clifford, "_twisted_min_eigs",
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
        for chunk in (1, 3, clifford._TRIAL_CHUNK):
            monkeypatch.setattr(clifford, "_TRIAL_CHUNK", chunk)
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

    def test_angles_overflowing_metric_exit_2(self, runner, tmp_path):
        # the scalar path checks each + - * / as the jet path checks the jet
        path = write_json(tmp_path / "d.json", square_scene("1e200*1e200"))
        result = runner.invoke(main, ["angles", "--scene", path,
                                      "--faces", "1,3", "--point", "0,0"])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            "input error: 1e+200*1e+200 is not finite"]

    def test_angles_far_wedge_exit_0(self, runner, tmp_path):
        # a translated simplicial cone with offsets near 3e6: the subset
        # enumeration's absolute 1e-9 feasibility tolerance rejected it as
        # empty; independent normals now validate it as it stands
        a1, a2 = [-0.033973562, 0.999422732], [-0.988049743, -0.154135346]
        path = write_json(tmp_path / "far.json", {
            "dim": 2, "g": {"11": "1", "22": "1"},
            "halfspaces": [{"a": a1, "b": 3356568.4902054495},
                           {"a": a2, "b": 2708632.501152436}]})
        result = runner.invoke(main, ["angles", "--scene", path, "--faces", "1,2",
                                      "--point", "-3248094.1819648617,3248094.1819648617"])
        assert result.exit_code == 0
        cos = -(a1[0] * a2[0] + a1[1] * a2[1]) / (math.hypot(*a1) * math.hypot(*a2))
        assert json.loads(result.output)["angle"] == pytest.approx(math.acos(cos), abs=1e-12)

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

    @pytest.mark.parametrize("lam", [
        0.0, *(s * v for v in (0.05, 0.25, 0.49, 0.495, 0.499, 0.4999, 0.4999999999,
                               0.5, 0.5000000001, 0.5001, 0.501, 0.55, 1.0, 1.5, 4.0, 4.5)
               for s in (1, -1))])
    def test_deficiency_verdict_table(self, runner, lam):
        result = runner.invoke(main, ["deficiency", "--lambda", repr(lam)])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert list(report) == ["lambda", "is_l2", "levels", "final_eps", "final_integral",
                                "decay_exponent", "exponent_drift", "tail"]
        assert report["lambda"] == lam
        assert report["is_l2"] is (abs(lam) < 0.5)
        assert report["final_eps"] == 2.0 ** -report["levels"]
        assert report["exponent_drift"] >= 0.0
        assert (report["decay_exponent"] > 0.0) is report["is_l2"]
        if report["is_l2"]:
            assert 0.0 < report["tail"] < math.inf
        else:
            assert report["tail"] is None

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_deficiency_non_finite_exit_2(self, runner, value):
        result = runner.invoke(main, ["deficiency", "--lambda", value])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            f"input error: lambda must be finite, got {float(value)}"]

    def test_deficiency_rtol_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["deficiency", "--lambda", "0.25", "--rtol", "1e-6"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--rtol" in result.output

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

    @pytest.mark.parametrize("radii, message", [
        ("inf", "radius must be positive and finite, got inf"),
        ("nan,0.1", "radius must be positive and finite, got nan"),
        ("0.1,0", "radius must be positive and finite, got 0.0"),
        ("-0.1", "radius must be positive and finite, got -0.1"),
    ], ids=["inf", "nan", "zero", "negative"])
    def test_smooth_bad_radius_exit_2(self, runner, radii, message):
        result = runner.invoke(main, ["smooth", "--angle", "1", "--radii", radii])
        assert result.exit_code == 2
        assert result.output.splitlines() == [f"input error: {message}"]

    @pytest.mark.parametrize("phi, message", [
        ("1e999", "bad numeric literal '1e999' (offset 0)"),
        ("1e308*10", "1e+308*10.0 is not finite"),
        ("1e200", "integral of k phi^2 is not finite for phi = 1e+200"),
        ("1e153", "integral of k phi^2 is not finite for phi = 1e+153"),
    ], ids=["literal", "product", "square", "sum"])
    def test_smooth_overflowing_test_function_exits_2(self, runner, phi, message):
        result = runner.invoke(main, ["smooth", "--angle", "1", "--radii", "0.1",
                                      "--test-function", phi])
        assert result.exit_code == 2
        assert result.output.splitlines() == [f"input error: {message}"]

    def test_smooth_non_finite_value_exits_3(self, runner, monkeypatch):
        from dihedral_lab import corner_smoothing

        # a non-finite value that gets past the checks is a bug in the report
        monkeypatch.setattr(corner_smoothing, "weighted_integral",
                            lambda corner, phi: math.inf)
        result = runner.invoke(main, ["smooth", "--angle", "1", "--radii", "0.1"])
        assert result.exit_code == 3
        assert result.output.splitlines() == [
            "internal error: RuntimeError: non-finite float inf in a report"]

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

    def test_index_answers_at_any_resolution(self, runner, tmp_path):
        # the complexes at resolution 10^5 would have 10^10 vertices
        scene = json.loads((ROOT / "scenes" / "index_two_squares.json").read_text())
        outputs = []
        start = time.perf_counter()
        for resolution in (8, 100_000):
            path = write_json(tmp_path / f"r{resolution}.json",
                              {**scene, "resolution": resolution})
            result = runner.invoke(main, ["index", "--scene", path])
            assert result.exit_code == 0
            outputs.append(result.stdout)
        assert time.perf_counter() - start < 1.0
        assert outputs[0] == outputs[1]

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["spectrum", "bound", "--dim", "4",
                                      "--output", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["dim"] == 4


class TestCommandLine:
    """The stdlib front end parses as click does: the token
    after a value option is always its value, ``--opt=value`` works, the
    last of repeated single-valued options wins, and usage errors exit 2
    with click's ``Error:`` line."""

    @staticmethod
    def options(path):
        entry = (cli._COMMANDS, None)
        for name in path:
            entry = entry[0][name]
        return entry[1]

    @pytest.mark.parametrize("path, args, expected", [
        (["conformal"], ["--metric", "m.json", "--factor", "1",
                         "--point", "-0.257862,-0.313593"],
         {"metric_path": "m.json", "factor": "1", "point_text": "-0.257862,-0.313593",
          "tol": 1e-3, "output": None}),
        (["deficiency"], ["--lambda", "-1e-3"], {"lam": -1e-3, "output": None}),
        (["deficiency"], ["--lambda=-1e-3", "--"], {"lam": -1e-3, "output": None}),
        (["spectrum", "sector"], ["--alpha=-inf", "--beta", "1", "--csv=a=b.csv"],
         {"alpha": -math.inf, "beta": 1.0, "csv_path": "a=b.csv", "grid": None,
          "count": 5, "tol": 1e-3, "output": None}),
        (["certify"], [], {"dims": (2, 4), "trials": 1000, "seed": 0, "tol": 1e-9,
                           "output": None}),
        (["certify"], ["--dim", "6", "--dim=2", "--dim", "6"],
         {"dims": (6, 2, 6), "trials": 1000, "seed": 0, "tol": 1e-9, "output": None}),
        (["compare"], ["--scene", "s.json", "--conclusions"],
         {"scene_path": "s.json", "conclusions": True, "tol": 1e-6, "seed": 0,
          "interior": 16, "per_face": 8, "per_edge": 4, "csv_path": None, "output": None}),
        (["compare"], ["--scene", "s.json"],
         {"scene_path": "s.json", "conclusions": False, "tol": 1e-6, "seed": 0,
          "interior": 16, "per_face": 8, "per_edge": 4, "csv_path": None, "output": None}),
        (["hardy"], ["--lambda", "x", "--lambda", "0.7"],
         {"lam": 0.7, "delta": 1.0, "grid": 1200, "output": None}),
        (["smooth"], ["--angle", "1", "--radii", "--output", "--test-function", "-x1"],
         {"angle": 1.0, "radii": "--output", "phi": "-x1", "output": None}),
        (["spectrum", "bound"], ["--dim", "7", "--output", "o.json"],
         {"n": 7, "output": "o.json"}),
    ], ids=["negative-point", "negative-lambda", "equals-value", "equals-minus-inf",
            "defaults", "repeated-dim", "flag", "flag-default", "last-wins",
            "option-like-values", "group-command"])
    def test_parse_table(self, path, args, expected):
        values = cli._parse(self.options(path), args)
        assert values == expected
        assert [type(v) for v in values.values()] == [type(v) for v in expected.values()]

    @pytest.mark.parametrize("args, error", [
        ([], "Missing command."),
        (["spectrum"], "Missing command."),
        (["foo"], "No such command 'foo'."),
        (["spectrum", "foo"], "No such command 'foo'."),
        (["--bogus"], "No such option '--bogus'."),
        (["deficiency", "--lam", "0.3"], "No such option '--lam'."),
        (["deficiency", "-5"], "No such option '-5'."),
        (["deficiency"], "Missing option '--lambda'."),
        (["spectrum", "sector", "--alpha", "1"], "Missing option '--beta'."),
        (["deficiency", "--lambda"], "Option '--lambda' requires an argument."),
        (["deficiency", "--lambda", "x"], "Invalid value for '--lambda': 'x' is not a valid float."),
        (["deficiency", "--lambda="], "Invalid value for '--lambda': '' is not a valid float."),
        (["spectrum", "bound", "--dim", "2.5"],
         "Invalid value for '--dim': '2.5' is not a valid integer."),
        (["certify", "--dim", "2", "--dim", "x"],
         "Invalid value for '--dim': 'x' is not a valid integer."),
        (["hardy", "--grid", "x", "--lambda", "y"],
         "Invalid value for '--grid': 'x' is not a valid integer."),
        (["deficiency", "--lambda", "0.3", "extra"], "Got unexpected extra argument (extra)"),
        (["deficiency", "--lambda", "0.3", "--", "a", "b"],
         "Got unexpected extra arguments (a b)"),
        (["compare", "--scene", "s.json", "--conclusions=1"],
         "Option '--conclusions' does not take a value."),
    ], ids=["no-arguments", "no-subcommand", "unknown-command", "unknown-subcommand",
            "unknown-group-option", "no-abbreviation", "negative-number-as-option",
            "missing-option", "missing-second-option", "missing-value", "bad-float",
            "empty-value", "bad-int", "bad-repeated-int", "first-bad-value-reported",
            "extra-argument", "extra-arguments", "flag-with-value"])
    def test_usage_error_exit_2(self, runner, args, error):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert [line for line in result.stderr.splitlines()
                if line.startswith("Error")] == [f"Error: {error}"]

    @pytest.mark.parametrize("path", [[], ["spectrum"], *(
        [name] for name in sorted(cli._COMMANDS) if name != "spectrum"),
        ["spectrum", "sector"], ["spectrum", "bound"]], ids=" ".join)
    def test_help_lists_commands_options_and_defaults(self, runner, path):
        result = runner.invoke(main, [*path, "--help"])
        assert result.exit_code == 0 and result.stderr == ""
        text = result.stdout
        assert text.startswith(f"Usage: dihedral-lab {' '.join(path)}".rstrip())
        if path in ([], ["spectrum"]):
            table = cli._COMMANDS if not path else cli._SPECTRUM
            assert all(f"\n  {name} " in text for name in table)
            return
        for flag, _, kind, default, *about in self.options(path):
            assert f"\n  {flag}" in text
            if default is cli._REQUIRED:
                assert "[required]" in text
        assert "--help" in text

    def test_help_shows_defaults(self, runner):
        text = runner.invoke(main, ["certify", "--help"]).stdout
        assert "[default: 2, 4]" in text and "[default: 1000]" in text
        assert "[default: 0]" in text and "[default: 1e-09]" in text

    def test_help_wins_over_bad_values(self, runner):
        result = runner.invoke(main, ["deficiency", "--lambda", "x", "--help"])
        assert result.exit_code == 0
        assert "--lambda FLOAT" in result.stdout

    def test_inprocess_entry_returns_the_code(self, capsys):
        assert main.main(["spectrum", "bound", "--dim", "2"], prog_name="dihedral-lab",
                         standalone_mode=False) == 2
        assert main.main(["deficiency"], standalone_mode=False) == 2
        assert main.main(["spectrum", "bound", "--dim", "3"], standalone_mode=False) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 3

    def test_main_reads_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["dihedral-lab", "spectrum", "bound", "--dim", "4"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 4

    @pytest.mark.parametrize("scene, faces, point, message", [
        ("square", "0,1", "0,1", "face 0 out of range 1..4"),
        ("square", "-1,1", "0,0", "face -1 out of range 1..4"),
        ("square", "1,5", "0,0", "face 5 out of range 1..4"),
        ("wedge", "1,3", "0,0", "face 3 out of range 1..2"),
        ("square", "1,3", "0,0,0", "point '0,0,0' has 3 coordinates; the scene has dim 2"),
        ("square", "1,3", "0", "point '0' has 1 coordinates; the scene has dim 2"),
    ], ids=["face-0", "face-minus-1", "face-past-end", "wedge-face-3", "point-3d", "point-1d"])
    def test_angles_bad_face_or_point_exit_2(self, runner, tmp_path, scene, faces, point,
                                             message):
        data = square_scene()
        if scene == "wedge":
            data["halfspaces"] = [{"a": [0.0, 1.0], "b": 0.0}, {"a": [-1.0, 1.0], "b": 0.0}]
        path = write_json(tmp_path / "d.json", data)
        result = runner.invoke(main, ["angles", "--scene", path, "--faces", faces,
                                      "--point", point])
        assert result.exit_code == 2
        assert result.output.splitlines() == [f"input error: {message}"]

    @pytest.mark.parametrize("args, point", [
        (["curvature", "--scene"], "1,2,3"),
        (["curvature", "--scene"], "1"),
        (["conformal", "--factor", "1", "--metric"], "0,0,0"),
    ], ids=["curvature-3d", "curvature-1d", "conformal-3d"])
    def test_point_dimension_exit_2(self, runner, args, point):
        scene = str(ROOT / "scenes" / "sphere2_metric.json")  # a 2-D metric
        result = runner.invoke(main, [*args, scene, "--point", point])
        count = len(point.split(","))
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            f"input error: point {point!r} has {count} coordinates; the scene has dim 2"]

    def test_smooth_builds_each_arc_once(self, runner, monkeypatch):
        from dihedral_lab import corner_smoothing

        radii = []
        build = corner_smoothing.smoothing_arc
        monkeypatch.setattr(corner_smoothing, "smoothing_arc",
                            lambda angle, r, **kw: radii.append(r) or build(angle, r, **kw))
        result = runner.invoke(main, ["smooth", "--angle", "1.2", "--radii", "0.08,0.05,0.02"])
        assert result.exit_code == 0
        assert radii == [0.08, 0.05, 0.02]


class TestMalformedSceneTypes:
    """Scene values of the wrong JSON type are bad input (exit 2, one line
    on stderr), never a traceback with the verdict-failed code."""

    METRIC_CASES = {
        "g_list": {"g": ["1", "1"]},
        "g_entry_number": {"g": {"11": 1, "22": "1"}},
        "dim_list": {"dim": [2]},
        "dim_float": {"dim": 2.7},
        "dim_string": {"dim": "2"},
        "dim_whole_float": {"dim": 2.0},
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

    # (half-space, key, value) and the message: a normal, offset or window
    # entry that is not a JSON number other than a bool; the bools, the
    # string offset and the string window passed before (exit 0), the
    # string and nested normals printed numpy's conversion error, the huge
    # int crashed (exit 3)
    HALFSPACE_NUMBERS = {
        "a_string": (1, "a", "12", "half-space 2: 'a' must be a list of numbers"),
        "a_empty": (1, "a", [], "half-space 2: 'a' is empty"),
        "a_matrix": (1, "a", [[1, 0], [0, 1]], "half-space 2: 'a' must be a list of numbers"),
        "a_bools": (0, "a", [True, False], "half-space 1: 'a' must be a list of numbers"),
        "a_huge_int": (1, "a", [-10**400, 0], "half-space normals and offsets must be finite"),
        "b_string": (0, "b", "0", "half-space 1: 'b' must be a number"),
        "b_bool": (1, "b", True, "half-space 2: 'b' must be a number"),
        "window_strings": (None, "window", [["0", "0"], [1, 1]],
                           "'window' must be [[lo...], [hi...]]"),
    }

    def halfspace_scene(self, case):
        k, key, value, _ = self.HALFSPACE_NUMBERS[case]
        scene = square_scene()
        if k is None:
            scene[key] = value
        else:
            scene["halfspaces"][k][key] = value
        return scene

    @pytest.mark.parametrize("case", sorted(HALFSPACE_NUMBERS))
    def test_halfspace_numbers(self, runner, tmp_path, case):
        result = self.run_scene(runner, tmp_path, "angles", self.halfspace_scene(case))
        self.assert_input_error(result)
        assert result.stderr.splitlines() == [
            f"input error: {self.HALFSPACE_NUMBERS[case][3]}"]

    def test_unsupported_face_is_numbered_from_1(self, runner, tmp_path):
        # the unit square and a fifth half-space x1 + x2 >= -5, never tight
        scene = square_scene()
        scene["halfspaces"].append({"a": [1, 1], "b": -5})
        result = self.run_scene(runner, tmp_path, "angles", scene)
        self.assert_input_error(result)
        assert result.stderr.splitlines() == [
            "input error: face 5 does not support the domain"]

    def test_window_must_be_finite(self, runner, tmp_path):
        # a NaN or infinite corner, and a diagonal whose length overflows
        for window in ([[math.nan, 0], [1, 1]], [[0, 0], [math.inf, 1]],
                       [[0, 0], [1e308, 1e308]]):
            scene = {"N": {**square_scene(), "window": window}, "M": square_scene(),
                     "f": ["x1", "x2"], "faces": {"1": "1", "2": "2", "3": "3", "4": "4"}}
            result = runner.invoke(main, ["compare", "--scene",
                                          write_json(tmp_path / "s.json", scene)])
            self.assert_input_error(result)
            assert result.stderr.splitlines() == [
                "input error: 'window' entries and its diagonal must be finite"]

    # gaussbonnet's one precondition: a 2-D convex cell whose every lattice
    # vertex lies on two sides (faces of dimension 1)
    DIAMOND = [{"a": [sx, sy], "b": -1.0} for sx in (1.0, -1.0) for sy in (1.0, -1.0)]
    NOT_POLYGONS = {
        "window_cuts_square": {"window": [[0.25, -1.0], [0.75, 2.0]]},
        "window_cuts_corner": {"halfspaces": DIAMOND, "window": [[-2.0, -2.0], [0.5, 2.0]]},
        "unbounded_three_vertices": {"halfspaces": [
            {"a": [1, 1], "b": 0}, {"a": [0, 1], "b": 0}, {"a": [-1, 1], "b": -1},
            {"a": [-2, 1], "b": -3}]},
        "quadrant_with_window": {"halfspaces": [{"a": [1, 0], "b": 0}, {"a": [0, 1], "b": 0}],
                                 "window": [[-1.0, -1.0], [2.0, 2.0]]},
        "half_strip": {"halfspaces": [{"a": [1, 0], "b": 0}, {"a": [0, 1], "b": 0},
                                      {"a": [0, -1], "b": -1}]},
    }
    # the square with a face touching it at (0, 0), a side given twice, and a
    # window that contains it
    SIDES = square_scene()["halfspaces"]
    SQUARES = {
        "touching_face": {"halfspaces": [*SIDES, {"a": [1.0, 1.0], "b": 0.0}]},
        "repeated_side": {"halfspaces": [*SIDES, {"a": [2.0, 0.0], "b": 0.0}]},
        "window_contains_square": {"window": [[-1.0, -0.5], [2.0, 1.5]]},
    }

    @pytest.mark.parametrize("case", sorted(NOT_POLYGONS))
    def test_gaussbonnet_needs_a_bounded_polygon(self, runner, tmp_path, case):
        scene = {**square_scene(), **self.NOT_POLYGONS[case]}
        result = self.run_scene(runner, tmp_path, "gaussbonnet", scene)
        self.assert_input_error(result)
        assert result.stderr.splitlines() == [
            "input error: Gauss-Bonnet needs a bounded convex 2-D polygon "
            "(every vertex on two sides)"]

    @pytest.mark.parametrize("case", sorted(SQUARES))
    def test_gaussbonnet_square_variants(self, runner, tmp_path, case):
        square = square_scene("exp(2*0.1*sin(x1)*sin(x2))")
        want, result = [runner.invoke(main, ["gaussbonnet", "--resolution", "12", "--scene",
                                             write_json(tmp_path / f"{k}.json", scene)])
                        for k, scene in enumerate((square, {**square, **self.SQUARES[case]}))]
        assert want.exit_code == result.exit_code == 0
        assert result.output == want.output

    def test_window_needs_positive_extent(self, runner, tmp_path):
        # a zero extent spent 32,000 interior candidates before exit 2, and the
        # inverted window exited 0; each is now one input error naming 'window'
        quadrant = {"dim": 2, "halfspaces": [{"a": [1, 0], "b": 0}, {"a": [0, 1], "b": 0}],
                    "g": {"11": "1", "22": "1"}}
        for window in ([[0, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [0, 0]]):
            side = {**quadrant, "window": window}
            scene = {"N": side, "M": side, "f": ["x1", "x2"], "faces": {"1": "1", "2": "2"}}
            result = runner.invoke(main, ["compare", "--scene",
                                          write_json(tmp_path / "s.json", scene)])
            self.assert_input_error(result)
            assert result.stderr.splitlines() == [
                "input error: 'window' needs lo < hi in every coordinate"]

    def test_halfspace_numbers_load_no_numpy(self, tmp_path):
        paths = [write_json(tmp_path / f"{case}.json", self.halfspace_scene(case))
                 for case in sorted(self.HALFSPACE_NUMBERS)]
        status, modules = _fresh_modules(
            "import sys\n"
            "from dihedral_lab.cli import main\n"
            "codes = []\n"
            "for path in sys.argv[1:]:\n"
            "    try:\n"
            "        main(['angles', '--scene', path, '--faces', '1,3', '--point', '0,0'])\n"
            "    except SystemExit as exc:\n"
            "        codes.append(exc.code)\n"
            "print(codes, file=sys.stderr)\n", paths)
        assert status == str([2] * len(paths))
        assert "numpy" not in modules

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
        "matrix_entry_object": index_map(matrix=[[{}, 0], [0, 0.5]]),
        "matrix_entry_null": index_map(matrix=[[None, 0], [0, 0.5]]),
        "matrix_entry_string": index_map(matrix=[["0.5", 0], [0, 0.5]]),
        "matrix_entry_bool": index_map(matrix=[[True, 0], [0, True]]),
        "matrix_entry_inf": index_map(matrix=[[math.inf, 0], [0, 0.5]]),
        "matrix_entry_huge_int": index_map(matrix=[[10**400, 0], [0, 0.5]]),
        "matrix_ragged": index_map(matrix=[[0.5, 0], [0]]),
        "offset_null": index_map(matrix=[[0.5, 0], [0, 0.5]], offset=None),
        "offset_three": index_map(matrix=[[0.5, 0], [0, 0.5]], offset=[0.1, 0.1, 0]),
        "offset_scalar": index_map(matrix=[[0.5, 0], [0, 0.5]], offset=0.1),
        # exactly singular (opposite columns); numpy's LU determinant read 2.2e-17
        "matrix_singular": index_map(matrix=[[-0.4, 0.4], [-0.37200000000000005,
                                                           0.37200000000000005]],
                                     offset=[0.5, 0.5]),
        "resolution_float": {"resolution": 2.7},
        "resolution_bool": {"resolution": True},
    }
    # the whole stderr of the cases that used to crash, warn, print numpy's
    # text or pass
    INDEX_MESSAGES = {
        **dict.fromkeys(["matrix_entry_object", "matrix_entry_null", "matrix_entry_string",
                         "matrix_entry_bool", "matrix_entry_inf", "matrix_entry_huge_int"],
                        "affine map entries must be finite numbers"),
        "matrix_ragged": "affine map matrix must be 2 x 2",
        "matrix_singular": "affine map is degenerate (zero determinant)",
        **dict.fromkeys(["offset_null", "offset_three", "offset_scalar"],
                        "affine map offset must be a list of 2 numbers"),
        **dict.fromkeys(["resolution_float", "resolution_bool"],
                        "'resolution' must be an integer"),
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
        result = runner.invoke(main, ["index", "--scene", path])
        self.assert_input_error(result)
        if case in self.INDEX_MESSAGES:
            assert result.stderr.splitlines() == [f"input error: {self.INDEX_MESSAGES[case]}"]


class TestInternalErrors:
    """A crash inside a command is exit 3 with one stderr line, never the
    verdict-failed code 1 or a traceback."""

    def test_unexpected_exception_exits_3(self, runner, monkeypatch):
        from dihedral_lab import sector_spectra

        def broken(n):
            raise IndexError("index 7 is out of bounds")

        monkeypatch.setattr(sector_spectra, "gallot_meyer_bound", broken)
        result = runner.invoke(main, ["spectrum", "bound", "--dim", "4"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "internal error: IndexError: index 7 is out of bounds" in result.output
        assert "Traceback" not in result.output

    def test_non_finite_report_exits_3(self, runner, monkeypatch):
        from dihedral_lab import sector_spectra

        monkeypatch.setattr(sector_spectra, "gallot_meyer_bound", lambda n: math.inf)
        result = runner.invoke(main, ["spectrum", "bound", "--dim", "4"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "internal error: RuntimeError: non-finite float inf in a report"]

    def test_hardy_non_convergence_exits_3(self, runner, monkeypatch):
        from dihedral_lab import sector_spectra

        monkeypatch.setattr(sector_spectra, "_QD_PASSES", 2)
        result = runner.invoke(main, ["hardy", "--lambda", "400", "--grid", "1200"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "internal error: RuntimeError: Hardy norm did not converge in 2 qd passes"]

    def test_secular_non_convergence_exits_3(self, runner, monkeypatch):
        from dihedral_lab import sector_spectra

        monkeypatch.setattr(sector_spectra, "_SECULAR_STEPS", 1)
        result = runner.invoke(main, ["spectrum", "sector", "--alpha", "0.9",
                                      "--beta", "2.8", "--numeric", "4096"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "internal error: RuntimeError: secular equation did not settle in 1 steps"]


class TestDeepExpressions:
    """An expression nested past ``_MAX_DEPTH`` levels is bad input (exit 2),
    not a ``RecursionError`` (exit 3); at the bound every recursive node
    method still runs, through ``eval`` (``smooth``) and jets
    (``conformal``)."""

    SMOOTH = ["smooth", "--angle", "1", "--radii", "0.1", "--test-function"]

    @pytest.mark.parametrize("text", ["(" * 400 + "x1" + ")" * 400, "-" * 1000 + "x1",
                                      "x1" + " + x1" * 1000, "x1" + " + x1" * 200],
                             ids=["parentheses-400", "minus-1000", "sum-1001", "sum-201"])
    def test_too_deep_exits_2(self, runner, text):
        result = runner.invoke(main, [*self.SMOOTH, text])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "expression nested deeper than 200 levels" in result.stderr
        assert "RecursionError" not in result.output

    @pytest.mark.parametrize("text", ["(" * 199 + "x1" + ")" * 199, "-" * 199 + "x1",
                                      "x1" + " + x1" * 199, "x1^" * 199 + "x1",
                                      "sin(" * 199 + "x1" + ")" * 199],
                             ids=["parentheses", "minus", "sum", "power", "call"])
    def test_at_the_bound_smooth_exits_0(self, runner, text):
        result = runner.invoke(main, [*self.SMOOTH, text])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("text", ["1^" * 199 + "x1", "sin(" * 199 + "x1" + ")" * 199,
                                      "(" * 199 + "1" + ")" * 199],
                             ids=["power", "call", "parentheses"])
    def test_at_the_bound_conformal_exits_0(self, runner, text):
        # ``1^...^x1`` takes the jet of exp(x1 log 1) at every level
        result = runner.invoke(main, ["conformal", "--metric", "scenes/sphere2_metric.json",
                                      "--factor", text, "--point", "0.4,0.2"])
        assert result.exit_code == 0, result.output


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

    @pytest.mark.parametrize("region, angle", [("intersection", math.pi / 3),
                                               ("complement", 5 * math.pi / 3)])
    def test_wedge_metric(self, runner, tmp_path, region, angle):
        # the quarter plane under g12 = 1/2: its edges e1, e2 meet at pi/3
        scene = json.loads((self.SCENES / "wedge_metric.json").read_text())
        path = write_json(tmp_path / "wedge.json", {**scene, "region": region})
        result = runner.invoke(main, ["angles", "--scene", path, "--faces", "1,2",
                                      "--point", "0,0"])
        assert result.exit_code == 0
        assert json.loads(result.output)["angle"] == pytest.approx(angle, abs=1e-15)

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


def _fresh_modules(code, args=()):
    """Run ``code`` in a fresh interpreter from the repository root; return
    its last stderr line and the ``scipy``, ``numpy``, ``click``,
    ``dataclasses``, ``inspect`` and ``dihedral_lab`` modules (with their
    submodules) it left in ``sys.modules``."""
    code += ("print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', "
             "'numpy', 'click', 'dataclasses', 'inspect', 'dihedral_lab')), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_src_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True)
    *_, status, modules = proc.stderr.splitlines()
    return status, set(ast.literal_eval(modules))


def _fresh_cli(args, preamble=""):
    """Run the CLI in a fresh interpreter after the ``preamble`` statements;
    return its exit code and the modules ``_fresh_modules`` reports."""
    status, modules = _fresh_modules(
        preamble + "import sys\n"
        "from dihedral_lab.cli import main\n"
        "code = 0\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, file=sys.stderr)\n", args)
    return int(status), modules


def _scipy(modules):
    return {m for m in modules if m.split(".")[0] == "scipy"}


def _click(modules):
    return {m for m in modules if m.split(".")[0] == "click"}


def _library(modules):
    """Library modules other than the command line itself, by short name."""
    return {m.split(".")[1] for m in modules
            if m.startswith("dihedral_lab.")} - {"cli"}


def test_cli_import_leaves_scipy_sparse_unloaded():
    """Importing the command line loads no ``scipy.sparse`` module, so the
    start-up of every subcommand stays at the numpy floor."""
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
    """Start-up guard: these subcommands never import any part of scipy, nor
    click, which only the tests use."""
    exit_code, modules = _fresh_cli(args)
    assert exit_code == 0
    assert _scipy(modules) == set()
    assert _click(modules) == set()


def test_probe_sees_preloaded_click():
    """Positive control for the click guards: with ``click.testing``
    imported before the command runs, the probe reports it."""
    exit_code, modules = _fresh_cli(["spectrum", "bound", "--dim", "3"],
                                    preamble="import click.testing\n")
    assert exit_code == 0
    assert {"click", "click.testing"} <= modules


def test_probe_sees_preloaded_scipy():
    """Positive control for the guard: with ``scipy.linalg`` imported before
    the command runs, the probe reports it."""
    exit_code, modules = _fresh_cli(
        ["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2", "--numeric", "128"],
        preamble="import scipy.linalg\n")
    assert exit_code == 0
    assert "scipy.linalg" in modules


@pytest.mark.parametrize("args", [
    ["--help"],
    ["index", "--scene", "scenes/index_square_id.json"],
    ["deficiency", "--lambda", "0.25"],
    ["spectrum", "bound", "--dim", "3"],
    ["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2"],
    ["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2", "--numeric", "128"],
    ["smooth", "--angle", "1.2", "--radii", "0.08,0.05,0.02"],
], ids=["help", "index", "deficiency", "spectrum-bound", "spectrum-sector",
        "spectrum-sector-numeric", "smooth"])
def test_numpy_free_commands_load_no_dataclasses(args):
    """Start-up guard: the numpy-free commands import neither
    ``dataclasses`` nor the ``inspect`` it pulls in, which would add about
    11 ms to every start-up."""
    exit_code, modules = _fresh_cli(args)
    assert exit_code == 0
    assert not {"dataclasses", "inspect"} & modules


def test_probe_sees_preloaded_dataclasses():
    """Positive control for the guard above: with ``dataclasses`` imported
    before the command runs, the probe reports it and its ``inspect``."""
    exit_code, modules = _fresh_cli(["spectrum", "bound", "--dim", "3"],
                                    preamble="import dataclasses\n")
    assert exit_code == 0
    assert {"dataclasses", "inspect"} <= modules


LIBRARY = {"bessel", "clifford", "comparison", "corner_smoothing", "curvature",
           "expressions", "index_lab", "sector_spectra"}
GEOMETRY = {"comparison", "curvature", "expressions", "clifford"}


@pytest.mark.parametrize("args, code", [
    (["--help"], 0),
    (["spectrum", "--help"], 0),
    (["hardy"], 2),  # usage error: --lambda is missing
], ids=["help", "spectrum-help", "usage-error"])
def test_help_and_usage_errors_load_no_numpy(args, code):
    """Start-up guard: help and usage errors stop at the interpreter floor:
    no numpy, no click."""
    exit_code, modules = _fresh_cli(args)
    assert exit_code == code
    assert "numpy" not in modules
    assert _click(modules) == set()
    assert _library(modules) == set()


@pytest.mark.parametrize("args, loaded, absent", [
    (["hardy", "--lambda", "1.0", "--grid", "64"], {"sector_spectra"}, GEOMETRY),
    (["deficiency", "--lambda", "0.25"], {"sector_spectra", "bessel"}, GEOMETRY),
    (["spectrum", "bound", "--dim", "3"], {"sector_spectra"}, GEOMETRY),
    (["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2", "--numeric", "128"],
     {"sector_spectra"}, GEOMETRY),
    (["index", "--scene", "scenes/index_square_id.json"], {"index_lab"},
     LIBRARY - {"index_lab"}),
    (["smooth", "--angle", "1.5707963267948966", "--radii", "0.1,0.05"],
     {"corner_smoothing", "expressions"}, LIBRARY - {"corner_smoothing", "expressions"}),
    (["certify", "--dim", "2", "--trials", "5"], {"clifford"}, LIBRARY - {"clifford"}),
    (["compare", "--scene", "scenes/cube_id.json"], {"comparison", "curvature"}, set()),
], ids=["hardy", "deficiency", "spectrum-bound", "spectrum-sector-numeric", "index",
        "smooth", "certify", "compare"])
def test_subcommands_load_only_their_modules(args, loaded, absent):
    """Start-up guard: the index-theory commands load none of the geometry
    stack, ``certify`` loads only ``clifford``; ``compare`` is the positive
    control that the probe sees it."""
    exit_code, modules = _fresh_cli(args)
    assert exit_code == 0
    assert loaded <= _library(modules)
    assert not absent & _library(modules)


@pytest.mark.parametrize("args, loaded, absent", [
    (["certify", "--trials", "0"], set(), LIBRARY | {"numpy"}),
    (["smooth", "--angle", "1", "--radii", "x"], {"corner_smoothing"},
     {"comparison", "clifford", "numpy"}),
    (["curvature", "--scene", "scenes/sphere2_metric.json", "--point", "a,b"],
     {"curvature", "expressions"}, {"comparison", "clifford"}),
    (["angles", "--scene", "scenes/square_metric.json", "--faces", "x",
      "--point", "0,0"], {"curvature", "expressions"}, {"comparison", "clifford"}),
], ids=["certify-trials-0", "smooth-radii", "curvature-point", "angles-faces"])
def test_parse_errors_load_no_comparison(args, loaded, absent):
    """Start-up guard: a bad flag exits 2 without loading ``comparison`` for
    an error class, and ``certify --trials 0`` stops before numpy; the
    modules the command needs anyway are the positive control."""
    exit_code, modules = _fresh_cli(args)
    assert exit_code == 2
    seen = _library(modules) | (modules & {"numpy"})
    assert loaded <= seen
    assert not absent & seen


@pytest.mark.parametrize("args, code", [
    (["deficiency", "--lambda", "0.25"], 0),
    (["deficiency", "--lambda", "5"], 2),
    (["spectrum", "bound", "--dim", "3"], 0),
    (["spectrum", "bound", "--dim", "2"], 2),
    (["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2"], 0),
    (["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2", "--numeric", "128"], 0),
    (["spectrum", "sector", "--alpha", "1.1", "--beta", "2.2", "--numeric", "10"], 2),
    (["smooth", "--angle", "1.2", "--radii", "0.08,0.05,0.02"], 0),
    (["smooth", "--angle", "1", "--radii", "x"], 2),
    (["smooth", "--angle", "1", "--radii", "inf"], 2),
    (["index", "--scene", "scenes/index_square_id.json"], 0),
    (["index", "--scene", "scenes/square_metric.json"], 2),  # no 'M' key
    (["hardy", "--lambda", "1.0", "--grid", "64"], 0),
    (["hardy", "--lambda", "0.4"], 2),
    (["certify", "--dim", "2", "--trials", "1"], 0),
], ids=["deficiency", "deficiency-exit-2", "spectrum-bound", "spectrum-bound-exit-2",
        "spectrum-sector", "spectrum-sector-numeric", "spectrum-sector-numeric-exit-2",
        "smooth", "smooth-radii", "smooth-radius-inf", "index", "index-exit-2", "hardy",
        "hardy-exit-2", "certify"])
def test_scalar_spectral_commands_load_no_numpy(args, code):
    """Start-up guard: the scalar spectral commands, ``hardy`` with its
    qd-pass norm, ``smooth`` with its expression parser and ``index`` with
    its closed form included, run on the stdlib, on success and on bad
    input; ``certify`` is the positive control."""
    exit_code, modules = _fresh_cli(args)
    assert exit_code == code
    assert ("numpy" in modules) == (args[0] == "certify")


_SQUARE = [{"a": [1.0, 0.0], "b": 0.0}, {"a": [-1.0, 0.0], "b": -1.0},
           {"a": [0.0, 1.0], "b": 0.0}, {"a": [0.0, -1.0], "b": -1.0}]


def curved_compare_scene(tmp_path):
    """The identity of a square with a metric that varies: every margin is
    0, and the curvature kernel runs at every sample."""
    side = {"dim": 2, "g": {"11": "1 + 0.1*x2^2", "22": "exp(0.2*x1)"}, "halfspaces": _SQUARE}
    return write_json(tmp_path / "curved_compare.json", {
        "N": side, "M": side, "f": ["x1", "x2"],
        "faces": {"1": "1", "2": "2", "3": "3", "4": "4"}})


def affine_box_scene(tmp_path):
    """A 3-D box with a constant metric, its image under an affine map
    y = A x + c and the pushed-forward metric, as the benchmark builds its
    compare jobs: an isometry between constant metrics."""
    import numpy as np

    lo, hi = [-0.5, -0.25, -1.0], [0.5, 0.75, 0.25]
    a = np.array([[1.2, 0.3, -0.1], [0.2, 1.1, 0.25], [-0.3, 0.1, 1.3]])
    c = np.array([0.5, -0.25, 0.125])
    g_src = np.array([[1.1, 0.2, -0.1], [0.2, 0.9, 0.15], [-0.1, 0.15, 1.3]])
    faces = [(s * e, s * t) for e, l, h in zip(np.eye(3), lo, hi) for s, t in ((1.0, l), (-1.0, h))]
    inv_t = np.linalg.inv(a).T
    g_dst = inv_t @ g_src @ inv_t.T

    def side(g, halfspaces):
        return {"dim": 3, "g": {f"{i + 1}{j + 1}": repr(float(g[i, j]))
                                for i in range(3) for j in range(i, 3)},
                "halfspaces": [{"a": n.tolist(), "b": float(b)} for n, b in halfspaces]}

    return write_json(tmp_path / "affine_box.json", {
        "N": side(g_src, faces),
        "M": side(g_dst, [(inv_t @ n, b + float((inv_t @ n) @ c)) for n, b in faces]),
        "f": ["+".join(f"({float(a[k, i])!r})*x{i + 1}" for i in range(3))
              + f"+({float(c[k])!r})" for k in range(3)],
        "faces": {str(i): str(i) for i in range(1, 7)}})


def curved_cube_scene(tmp_path):
    """The identity of the unit cube between two metrics that vary, the
    ``curved_cube`` of the comparison tests."""
    def side(g):
        faces = [{"a": [s * float(k == m) for m in range(3)], "b": b}
                 for k in range(3) for s, b in ((1.0, 0.0), (-1.0, -1.0))]
        return {"dim": 3, "halfspaces": faces, "g": g}

    return write_json(tmp_path / "curved_cube.json", {
        "N": side({"11": "1 + 0.1*x2^2", "22": "1", "33": "exp(0.2*x1)", "12": "0.1*x3"}),
        "M": side({"11": "1", "22": "1 + 0.2*sin(x3)", "33": "1", "13": "0.2*x2"}),
        "f": ["x1", "x2", "x3"], "faces": {str(i): str(i) for i in range(1, 7)}})


@pytest.mark.parametrize("region", ["intersection", "complement"])
def test_wedge_angles_load_no_numpy(region, tmp_path):
    """Start-up guard: ``angles`` on a wedge validates it by the float
    enumeration and computes the angle on floats, so it loads neither numpy
    nor ``comparison`` or ``clifford``."""
    path = "scenes/wedge_metric.json"
    if region == "complement":
        scene = json.loads((ROOT / path).read_text())
        path = write_json(tmp_path / "wedge.json", {**scene, "region": region})
    exit_code, modules = _fresh_cli(["angles", "--scene", path, "--faces", "1,2",
                                     "--point", "0,0"])
    assert exit_code == 0
    assert "numpy" not in modules
    assert not {"comparison", "clifford"} & _library(modules)


@pytest.mark.parametrize("args", [
    ["curvature", "--scene", "scenes/sphere2_metric.json", "--point", "0.3,-0.2"],
    ["conformal", "--metric", "scenes/sphere2_metric.json",
     "--factor", "1 + 0.1*sin(x1)", "--point", "0.4,0.2"],
], ids=["curvature", "conformal"])
def test_jet_commands_load_no_numpy(args):
    """Start-up guard: ``curvature`` and ``conformal`` run the jets and the
    curvature kernel on floats at their one point, so they load neither
    numpy nor ``comparison`` or ``clifford``."""
    exit_code, modules = _fresh_cli(args)
    assert exit_code == 0
    assert "numpy" not in modules
    assert not {"comparison", "clifford"} & _library(modules)


@pytest.mark.parametrize("args", [
    ["compare", "--scene", "scenes/cube_id.json"],
    ["compare", "--scene", "scenes/cube_id.json", "--conclusions", "--seed", "3"],
    ["compare", "--scene", "scenes/square_id.json"],
    ["compare", "--scene", "scenes/square_id.json", "--conclusions", "--seed", "7"],
    ["compare", "--scene", "{affine_box}", "--seed", "5"],
    ["compare", "--scene", "{affine_box}", "--conclusions"],
    ["angles", "--scene", "scenes/square_metric.json", "--faces", "1,3", "--point", "0,0"],
], ids=["cube", "cube-conclusions", "square", "square-conclusions", "affine-box",
        "affine-box-conclusions", "angles-square"])
def test_constant_metric_commands_load_no_numpy(args, tmp_path):
    """Start-up guard: ``compare`` on scenes whose metrics are constant
    validates, samples and computes on floats, and ``angles`` on the
    four-face square validates it by the float enumeration; none of them
    loads numpy."""
    exit_code, modules = _fresh_cli([a.format(affine_box=affine_box_scene(tmp_path))
                                     for a in args])
    assert exit_code == 0
    assert "numpy" not in modules


@pytest.mark.parametrize("args, code", [
    (["gaussbonnet", "--scene", "scenes/conformal_square.json", "--resolution", "2"], 0),
    (["gaussbonnet", "--scene", "scenes/conformal_square.json", "--resolution", "12"], 0),
    (["gaussbonnet", "--scene", "scenes/conformal_square.json", "--resolution", "48"], 0),
    (["compare", "--scene", "{curved}"], 0),
    (["compare", "--scene", "{curved_cube}"], 1),  # the metrics differ: margins fail
], ids=["gaussbonnet-res2", "gaussbonnet-res12", "gaussbonnet-res48", "compare-curved",
        "compare-curved-cube"])
def test_float_geometry_commands_load_no_numpy(args, code, tmp_path):
    """Start-up guard: ``gaussbonnet`` integrates by Gauss-Legendre product
    rules on floats and ``compare`` runs the curvature kernel at each sample
    where a metric varies, so neither loads numpy (nor ``numpy.ma``)."""
    exit_code, modules = _fresh_cli([a.format(curved=curved_compare_scene(tmp_path),
                                              curved_cube=curved_cube_scene(tmp_path))
                                     for a in args])
    assert exit_code == code
    assert "numpy" not in modules


@pytest.mark.parametrize("args", [
    ["gaussbonnet", "--scene", "scenes/conformal_square.json", "--resolution", "2"],
    ["compare", "--scene", "{curved}"],
], ids=["gaussbonnet", "compare-curved"])
def test_vertex_and_sheet_counts_load_no_numpy_ma(args, tmp_path):
    """Start-up guard: the deduplication of polytope vertices does not go
    through ``np.unique``, whose masked-array check imports ``numpy.ma``;
    ``curvature``, which enumerates the vertices, being loaded is the
    positive control."""
    exit_code, modules = _fresh_cli([a.format(curved=curved_compare_scene(tmp_path))
                                     for a in args])
    assert exit_code == 0
    assert "curvature" in _library(modules)
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("args, preamble", [
    (["gaussbonnet", "--scene", "scenes/conformal_square.json", "--resolution", "2"],
     "import numpy\n"),
    (["compare", "--scene", "{curved}"], "import numpy\n"),
    (["certify", "--dim", "2", "--trials", "5"], ""),
], ids=["gaussbonnet", "compare-curved", "certify"])
def test_geometry_commands_load_numpy(args, preamble, tmp_path):
    """Positive control for the guards above: the probe sees numpy where it
    is loaded, by ``certify`` for its random operators, and by a preamble
    before the float commands ``gaussbonnet`` and ``compare`` on a varying
    metric, so their no-numpy guards do not pass for want of a probe."""
    exit_code, modules = _fresh_cli([a.format(curved=curved_compare_scene(tmp_path))
                                     for a in args], preamble=preamble)
    assert exit_code == 0
    assert "numpy" in modules


COMPARE_GOLDEN = json.loads((ROOT / "tests" / "data" / "compare_golden.json").read_text())


@pytest.mark.parametrize("case", sorted(COMPARE_GOLDEN))
def test_compare_output_matches_golden(case, tmp_path):
    """stdout and ``--csv`` of ``compare`` on the shipped identity scenes,
    byte for byte as recorded in ``tests/data/compare_golden.json``: the
    sampler, the face lattice and the kernels must not move a bit;
    ``tests/data/regen_compare_golden.py`` rewrites the file."""
    scene, mode, _, seed = case.split()
    args = ["compare", "--scene", str(ROOT / "scenes" / f"{scene}.json"), "--seed", seed,
            "--csv", str(tmp_path / "rows.csv")]
    result = CliRunner().invoke(main, args + (["--conclusions"] if mode == "conclusions" else []))
    want = COMPARE_GOLDEN[case]
    assert result.exit_code == want["exit_code"]
    assert result.stdout == want["stdout"]
    assert (tmp_path / "rows.csv").read_text() == want["csv"]


def test_narrow_dip_is_missed_by_the_default_samples(tmp_path):
    """FOUND: a verdict holds at the samples only.  The unit square under
    g = e^{2u} delta, u = -0.01 exp(-|x - (0.37, 0.61)|^2 / 0.02^2), has Sc
    near -204 on a disc of radius about 0.02 that the 16 default interior
    samples miss, so the flat comparison passes there; 4096 samples find
    the dip."""
    conformal = "exp(2*(-0.01*exp(-((x1-0.37)^2+(x2-0.61)^2)/0.0004)))"
    scene = json.loads((ROOT / "scenes" / "square_id.json").read_text())
    scene["N"]["g"] = {"11": conformal, "22": conformal}
    path = write_json(tmp_path / "dip.json", scene)
    runs = {}
    for extra in ([], ["--interior", "4096"]):
        result = CliRunner().invoke(main, ["compare", "--scene", path] + extra)
        runs[len(extra)] = (result.exit_code, json.loads(result.stdout)["margins"]["scalar"])
    assert runs[0][0] == 0 and runs[0][1]["value"] == 0.0
    assert runs[2][0] == 1 and runs[2][1]["value"] < -190.0


def test_compare_negative_seed_exits_2():
    scene = str(ROOT / "scenes" / "square_id.json")
    result = CliRunner().invoke(main, ["compare", "--scene", scene, "--seed", "-1"])
    assert result.exit_code == 2
    assert result.output.splitlines() == ["input error: expected non-negative integer"]


def test_compare_far_offset_scene_exits_2(tmp_path):
    # vertex coordinates near 1e300 (v * 1e9 overflows) reach the sampler:
    # the faces are sampled on their vertices, but the inferred window box,
    # padded by 1e-9 of the coordinates, is 1e7 times wider than the strip,
    # so no interior candidate lands in it, an input error
    scene = json.loads((ROOT / "scenes" / "square_id.json").read_text())
    for side in ("N", "M"):
        scene[side]["halfspaces"][:2] = [{"a": [1.0, 0.0], "b": 1e300},
                                         {"a": [-1.0, 0.0], "b": -1.0000000000000002e300}]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(scene))
    result = CliRunner().invoke(main, ["compare", "--scene", str(path)])
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        "input error: could not draw 16 samples on interior (got 0 after 32000 tries)"]


# g11 (g22 = 1) at the point (x1, 0.5) and the input error it must give,
# None for a clean exit 0: the float jets raise where numpy returned inf or
# nan, and each case keeps the exit code and message of the array jets
JET_DOMAIN_CASES = {
    "exp-overflow": ("exp(1000*x1)", 1.0,
                     "exp(1000.0*x1) or one of its derivatives is not finite"),
    "cosh-overflow": ("cosh(1000*x1)", 1.0,
                      "cosh(1000.0*x1) or one of its derivatives is not finite"),
    "power-minus-half-at-0": ("x1^(-0.5)", 0.0,
                              "x1^(-0.5) or one of its derivatives is not finite"),
    "power-half-at-0": ("x1^0.5", 0.0, "x1^0.5 or one of its derivatives is not finite"),
    "log-at-0": ("log(x1)", 0.0, "log(0.0) out of domain"),
    "log-negative": ("log(x1)", -1.0, "log(-1.0) out of domain"),
    "pole": ("1/(x1-0.3)", 0.3, "division by zero"),
    "underflowed-square": ("exp(x1)*x1^(-2)", 1e-200,
                           "exp(x1)*x1^(-2.0) or one of its derivatives is not finite"),
    "product-overflow": ("1+1e300*x1^2", 1e10,
                         "1.0 + 1e+300*x1^2.0 or one of its derivatives is not finite"),
    "abs-at-0": ("1+abs(x1)", 0.0, None),
    "not-positive-definite": ("x1", -0.5,
                              "metric at [-0.5, 0.5] has smallest eigenvalue -5.000e-01"),
}


@pytest.mark.parametrize("command", ["curvature", "conformal"])
@pytest.mark.parametrize("case", sorted(JET_DOMAIN_CASES))
def test_jet_domain_errors(runner, tmp_path, command, case):
    entry, x1, message = JET_DOMAIN_CASES[case]
    path = write_json(tmp_path / "g.json", {"dim": 2, "g": {"11": entry, "22": "1"}})
    args = (["curvature", "--scene", path] if command == "curvature"
            else ["conformal", "--metric", path, "--factor", "1+0.1*x2"])
    result = runner.invoke(main, [*args, "--point", f"{x1!r},0.5"])
    if message is None:
        assert result.exit_code == 0
    else:
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [f"input error: {message}"]


@pytest.mark.parametrize("factor, message", [
    ("1+x1^0.5", "1.0 + x1^0.5 or one of its derivatives is not finite"),
    ("2+x1^1.5", "2.0 + x1^1.5 or one of its derivatives is not finite"),
    ("1+abs(x1)", None),
])
def test_conformal_factor_jet_errors(runner, factor, message):
    """The factor's own jet at x1 = 0, on a flat background."""
    result = runner.invoke(main, ["conformal", "--metric", str(ROOT / "scenes/square_metric.json"),
                                  "--factor", factor, "--point", "0.0,0.5"])
    assert result.exit_code == (0 if message is None else 2)
    if message is not None:
        assert result.stderr.splitlines() == [f"input error: {message}"]


def test_probe_sees_preloaded_numpy_ma():
    """Positive control for the guard above: with ``numpy.ma`` imported
    before the command runs, the probe reports it."""
    exit_code, modules = _fresh_cli(
        ["index", "--scene", "scenes/index_square_id.json"],
        preamble="import numpy.ma\n")
    assert exit_code == 0
    assert "numpy.ma" in modules


def test_scalar_expressions_load_no_numpy():
    """Parsing, scalar evaluation and the jets run on ``math``, and the jet
    agrees with the scalar value; the domains of the shipped scenes
    validate and list their vertices on floats too."""
    status, modules = _fresh_modules(
        "import json, math, pathlib, sys\n"
        "from dihedral_lab.curvature import PolyDomain\n"
        "from dihedral_lab.expressions import parse_expression\n"
        "e = parse_expression('x1^2*sin(x2) + sqrt(x1)/cosh(x2)')\n"
        "v = e.eval((0.5, 0.25))\n"
        "value, grad, hess = e.jet_parts((0.5, 0.25))\n"
        "same = math.isclose(value, v, rel_tol=1e-14)\n"
        "counts = []\n"
        "for path in sorted(pathlib.Path('scenes').glob('*.json')):\n"
        "    scene = json.loads(path.read_text())\n"
        "    for part in (scene, scene.get('N'), scene.get('M')):\n"
        "        if isinstance(part, dict) and 'halfspaces' in part:\n"
        "            counts.append(len(PolyDomain.from_scene(part).vertices()))\n"
        "print(same, len(grad), len(hess), counts, file=sys.stderr)\n")
    # conformal_square, cube_id (N, M), cut_cube_id (N, M), octahedron_id (N, M),
    # square_id (N, M), square_metric, wedge_metric
    assert status == "True 2 3 [4, 8, 8, 10, 10, 6, 6, 4, 4, 4, 1]"
    assert "numpy" not in modules


def test_geometry_modules_import_numpy_only_for_the_eigenvalue_error():
    """Every module of the package, the geometry modules included, works on
    floats except ``clifford``, whose operators are arrays: the other numpy
    imports are in ``cli.certify``, which draws the random operators, and in
    ``_not_positive_definite``, which reports the smallest eigenvalue of a
    metric that is not positive definite (an error path)."""
    found = []

    def visit(module, node, where):  # where: the enclosing function or class
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            found.extend((module, where, name) for name in names
                         if name.split(".")[0] == "numpy")
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(module, child, child.name if scope else where)

    for path in (ROOT / "src" / "dihedral_lab").glob("*.py"):
        visit(path.stem, ast.parse(path.read_text()), None)
    assert sorted(found, key=str) == [("cli", "certify", "numpy"), ("clifford", None, "numpy"),
                                      ("curvature", "_not_positive_definite", "numpy")]


@pytest.mark.parametrize("args, loads_bessel", [
    (["angles", "--scene", "scenes/wedge_metric.json", "--faces", "1,2", "--point", "0,0"],
     False),
    (["curvature", "--scene", "scenes/sphere2_metric.json", "--point", "0.3,-0.2"], False),
    (["conformal", "--metric", "scenes/sphere2_metric.json",
      "--factor", "1 + 0.1*sin(x1)", "--point", "0.4,0.2"], False),
    (["compare", "--scene", "scenes/cube_id.json"], False),
    (["gaussbonnet", "--scene", "scenes/conformal_square.json", "--resolution", "2"], True),
], ids=["angles", "curvature", "conformal", "compare", "gaussbonnet"])
def test_only_gaussbonnet_loads_bessel(args, loads_bessel):
    """Start-up guard: the Gauss-Legendre generator lives in ``bessel``, and
    ``gauss_bonnet_defect`` imports it when it runs, so no other geometry
    command loads that module."""
    exit_code, modules = _fresh_cli(args)
    assert exit_code == 0
    assert ("bessel" in _library(modules)) == loads_bessel


def test_reexported_names_are_the_library_objects():
    import numpy

    import dihedral_lab.cli as cli
    from dihedral_lab import comparison, sector_spectra

    assert cli.hardy_norm is sector_spectra.hardy_norm
    assert cli.SceneError is comparison.SceneError
    assert cli.random_certificates is clifford.random_certificates
    assert cli.np is numpy


def test_unknown_cli_attribute_loads_nothing():
    status, modules = _fresh_modules(
        "import sys\n"
        "import dihedral_lab.cli as cli\n"
        "try:\n"
        "    cli.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc, file=sys.stderr)\n")
    assert status == "module 'dihedral_lab.cli' has no attribute 'no_such_name'"
    assert "numpy" not in modules
    assert _library(modules) == set()


def test_library_errors_are_value_errors():
    """``_INPUT_ERRORS`` catches the library's input errors as ValueError, so
    every exception class the library defines must stay a subclass of it,
    or bad input would exit 3 as an internal error."""
    import importlib
    import inspect

    errors = {}
    for name in LIBRARY:
        module = importlib.import_module(f"dihedral_lab.{name}")
        errors.update({cls.__name__: cls for cls in vars(module).values()
                       if inspect.isclass(cls) and issubclass(cls, Exception)
                       and cls.__module__ == module.__name__})
    assert {"SceneError", "DomainError", "DegenerateCornerError", "PolygonError",
            "ExpressionError", "MetricNotPositiveDefinite", "BesselRangeError"} <= set(errors)
    assert [n for n, cls in errors.items() if not issubclass(cls, ValueError)] == []
