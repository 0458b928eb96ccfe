"""Tests of the benchmark itself (not collected by the package's suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobgen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _first(jobs, kind, pred=lambda job: True):
    return next(job for job in jobs if job["kind"] == kind and pred(job))


@pytest.fixture(scope="module")
def job_lists(tmp_path_factory):
    base = tmp_path_factory.mktemp("scenes")
    os.chdir(ROOT)
    return {wl: jobgen.make_jobs(wl, 5, str(base / wl)) for wl in jobgen.WORKLOADS}


@pytest.fixture(scope="module")
def sample_jobs(job_lists):
    """One cheap job of every kind."""
    geo, spec = job_lists["geometry"], job_lists["spectral"]
    return [
        _first(geo, "curvature"),
        _first(geo, "conformal"),
        _first(geo, "angles.intersection"),
        _first(geo, "angles.complement"),
        _first(geo, "compare.hypotheses"),
        _first(geo, "compare.conclusions"),
        _first(spec, "certify", lambda j: j["ref"]["dims"] == [2]),
        _first(spec, "hardy", lambda j: j["ref"]["grid"] == 1200),
        _first(spec, "index", lambda j: -1 in j["ref"]["signs"]),
        _first(spec, "deficiency"),
        _first(spec, "spectrum.sector"),
        _first(spec, "spectrum.bound"),
        _first(spec, "smooth"),
    ]


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", jobgen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a = jobgen.make_jobs(workload, 3, str(tmp_path / "a"))
    b = jobgen.make_jobs(workload, 3, str(tmp_path / "b"))
    strip = lambda jobs, d: json.dumps(jobs).replace(str(tmp_path / d), "")  # noqa: E731
    assert strip(a, "a") == strip(b, "b")
    for name in sorted(os.listdir(tmp_path / "a")):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    c = jobgen.make_jobs(workload, 4, str(tmp_path / "c"))
    assert strip(a, "a") != strip(c, "c")
    assert [j["kind"] for j in a] == [j["kind"] for j in c]  # same structure


def test_generated_scenes_are_valid(job_lists):
    """The program accepts every generated scene (validation runs in
    from_scene) and every oracle kind is covered."""
    from dihedral_lab.comparison import CompareScene
    from dihedral_lab.curvature import PolyDomain

    kinds = set()
    for jobs in job_lists.values():
        for job in jobs:
            kinds.add(job["kind"])
            if "--scene" in job["args"]:
                with open(job["args"][job["args"].index("--scene") + 1]) as fh:
                    scene = json.load(fh)
                if job["kind"].startswith("compare"):
                    CompareScene.from_scene(scene).validate()
                elif job["kind"] != "index" and job["kind"] != "curvature":
                    PolyDomain.from_scene(scene)
    assert kinds == oracles.KINDS


# -- oracles -----------------------------------------------------------------


def _perturb(kind, out):
    if kind == "curvature":
        out["scalar_curvature"] += 1e-3 * out["scalar_curvature"]
    elif kind == "conformal":
        out["residuals"]["scalar"] = 0.01
    elif kind.startswith("angles"):
        out["angle"] += 1e-6
    elif kind == "compare.hypotheses":
        out["margins"]["angle_cap"]["value"] += 1e-6
    elif kind == "compare.conclusions":
        out["margins"]["angle"]["value"] = 1e-6
    elif kind == "certify":
        row = next(iter(out["dims"].values()))
        row["curvature_min_eig"] = -1e-6
    elif kind == "hardy":
        out["numeric_norm"] *= 1.0 + 1e-6
    elif kind == "index":
        out["deg"] += 1
    elif kind == "deficiency":
        out["is_l2"] = not out["is_l2"]
    elif kind == "spectrum.sector":
        out["numeric"]["eigenvalues"][0] += 0.01
    elif kind == "spectrum.bound":
        out["bound"] += 1e-9
    else:
        raise AssertionError(kind)
    return out


def test_oracles_pass_real_output_and_fail_perturbed(sample_jobs):
    for job in sample_jobs:
        code, out = run.run_inprocess(job["args"])
        verdict = oracles.check(job, code, out)
        if job["kind"] in run.KNOWN_DEFECTS:
            assert not verdict.ok, job["id"]
            continue
        assert verdict.ok, (job["id"], verdict.reason)
        if job["kind"] == "smooth":
            head, first, *rest = out.splitlines()
            cells = first.split(",")
            cells[1] = repr(float(cells[1]) + 1e-6)
            bad = "\n".join([head, ",".join(cells), *rest]) + "\n"
        else:
            bad = json.dumps(_perturb(job["kind"], json.loads(out)))
        assert not oracles.check(job, code, bad).ok, job["id"]
        assert not oracles.check(job, 1 - code if code in (0, 1) else 0, out).ok
        assert not oracles.check(job, 1, "Traceback (most recent call last):\n").ok


def test_hardy_oracle_matches_dense_svd():
    for lam in (0.6, 1.0, 2.0, -1.0):
        grid, delta = 96, 1.3
        h = delta / grid
        r = (np.arange(grid) + 0.5) * h
        ratio = r[None, :] / r[:, None]
        if lam > 0:
            dense = np.where(ratio <= 1.0, ratio**lam, 0.0) * h
        else:
            dense = np.where(ratio >= 1.0, ratio**lam, 0.0) * h
        ref = np.linalg.svd(dense, compute_uv=False)[0]
        assert oracles.hardy_reference(lam, delta, grid) == pytest.approx(ref, rel=1e-12)


def test_angle_oracle_closed_form():
    """Quarter plane under g12 = 0.5: pi/3, and 5 pi/3 for its complement."""
    for region, expected in (("intersection", math.pi / 3), ("complement", 5 * math.pi / 3)):
        job = {"kind": f"angles.{region}",
               "ref": {"g": [[1.0, 0.5], [0.5, 1.0]], "a1": [1.0, 0.0],
                       "a2": [0.0, 1.0], "region": region}}
        out = {"faces": [1, 2], "angle": expected, "reflex": region == "complement"}
        assert oracles.check(job, 0, json.dumps(out)).ok
    out["angle"] = math.pi + math.pi / 3  # the reflex branch as computed today
    assert not oracles.check(job, 0, json.dumps(out)).ok


# -- tracer ------------------------------------------------------------------


def _traced(jobs):
    tracer = tracing.Tracer()
    outs = {}
    tracer.install()
    try:
        for job in jobs:
            tracer.job = job["id"]
            outs[job["id"]] = tracer.call("cli.main", "cli", run.run_inprocess,
                                          (job["args"],), {})
    finally:
        tracer.uninstall()
    return tracer, outs


def test_self_times_sum_to_inclusive_time(sample_jobs):
    tracer, _ = _traced(sample_jobs)
    own = tracing.self_times(tracer.spans)
    per_job = {}
    for idx, span in enumerate(tracer.spans):
        per_job.setdefault(span[tracing.JOB], []).append(idx)
    assert set(per_job) == {job["id"] for job in sample_jobs}
    for job_id, idxs in per_job.items():
        roots = [i for i in idxs if tracer.spans[i][tracing.PARENT] == -1]
        assert len(roots) == 1
        root = tracer.spans[roots[0]]
        inclusive = root[tracing.END] - root[tracing.START]
        assert sum(own[i] for i in idxs) == pytest.approx(inclusive, rel=1e-9, abs=1e-12)
        assert all(t >= -1e-9 for t in (own[i] for i in idxs))
    layers = {s[tracing.LAYER] for s in tracer.spans}
    assert {"cli", "expressions", "curvature", "comparison", "sector_spectra",
            "bessel", "corner_smoothing", "index_lab", "linalg"} <= layers


def test_uninstall_restores_every_binding():
    import numpy.linalg

    from dihedral_lab import cli, comparison, curvature, expressions

    before = (cli.curvature_tensors, comparison.curvature_tensors,
              curvature.PolyDomain.__dict__["from_scene"], numpy.linalg.svd,
              expressions.MetricField.matrix_at)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.curvature_tensors is comparison.curvature_tensors
    assert cli.curvature_tensors is not before[0]
    tracer.uninstall()
    after = (cli.curvature_tensors, comparison.curvature_tensors,
             curvature.PolyDomain.__dict__["from_scene"], numpy.linalg.svd,
             expressions.MetricField.matrix_at)
    assert all(a is b for a, b in zip(before, after))


def test_stdout_identical_traced_and_subprocess(sample_jobs):
    _, traced = _traced(sample_jobs)
    env = run.child_env()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for job in sample_jobs:
        _, code, out, _, _ = run.run_subprocess(run.cli_argv(job["args"]), env)
        assert traced[job["id"]] == (code, out), job["id"]


def test_reducer_emits_every_per_layer_metric(sample_jobs):
    tracer, _ = _traced(sample_jobs[:2])
    produced = set(tracing.reduce_spans(tracer.spans))
    produced |= {"cli.import_s", "expressions.tree_evals", "trace.inprocess_s",
                 "trace.traced_s", "trace.overhead", "trace.spans"}
    assert {name for name, _, _, _ in run.PER_LAYER} <= produced


# -- contract ----------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(jobgen.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geometry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
