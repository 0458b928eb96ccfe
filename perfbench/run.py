"""Seeded, oracle-checked benchmark of the dihedral-lab command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 50 --trace 0

Workloads (job lists generated from ``--seed`` by ``jobgen.py``):

* ``geometry``: expression and curvature layers (Gauss-Bonnet, isometric
  ``compare``, sphere ``curvature``, ``conformal``, wedge ``angles``);
* ``spectral``: Hardy norms, index scenes, Bessel deficiency, sector
  spectra, link bounds, corner smoothing, and Clifford certificate sweeps
  (no expression evaluation); many jobs are start-up bound.

``--trace 0`` runs every job as a fresh ``python -m dihedral_lab.cli``
subprocess (``PYTHONPATH=src``), one job in flight (closed loop, one
client, no threads), and reports the end-to-end metrics.  ``--trace 1``
runs the same jobs in-process through the click entry point, once
untraced, once with spans around every public function (``tracer.py``)
and once counting ``Expr.eval`` calls, and reports the per-layer metrics
and the tracing overhead.  Every job's output is checked by the oracles
in ``oracles.py`` in both modes.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable report goes to stderr and the
per-job records (and spans) to ``.bench_out/``.  ``failed`` counts every
job whose exit code, output or value disagrees with its oracle.
``correct`` is false when a job fails for any reason other than a defect
listed in ``KNOWN_DEFECTS``; those jobs still count in ``failed``.

Exit codes: 0 with a result, 2 when the program is not there (no
``src/dihedral_lab``) or the arguments are bad, 3 when an oracle cannot
run.  No result line is printed in those cases.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gzip
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import jobgen  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_PROBES = 5  # fresh-interpreter import probes per traced run
PROBE_EVERY = 10  # a start-up probe before every 10th job of a pass
MIN_PASSES = 2  # every run measures at least two passes over its job list
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs above it
JOB_TIMEOUT_S = 150

# Failures the oracle finds and the program is known to have.  They count in
# ``failed`` but leave ``correct`` true; remove an entry once it is fixed.
KNOWN_DEFECTS = {
    "angles.complement": "dihedral_angle returns pi + theta on "
                         "the reflex branch instead of 2 pi - theta",
}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"), ("pass_frac", "ratio"), ("err_digits_min", "digits"),
)

_ALL = "geometry, spectral"
# per-layer metric, unit, end-to-end metrics it should move, on which workload
PER_LAYER = (
    ("cli.import_s", "s", "setup_s, job_p50_s", f"{_ALL}; largest share on spectral"),
    ("cli.calls", "count", "setup_s, job_p50_s", _ALL),
    ("cli.self_s", "s", "setup_s, job_p50_s", _ALL),
    ("expressions.calls", "count", "wall_s, job_tail_s, job_p50_s", "geometry; none elsewhere"),
    ("expressions.self_s", "s", "wall_s, job_tail_s, job_p50_s", "geometry; none elsewhere"),
    ("expressions.tree_evals", "count", "wall_s, job_tail_s, job_p50_s", "geometry; none elsewhere"),
    ("curvature.calls", "count", "wall_s, job_tail_s", "geometry; none elsewhere"),
    ("curvature.self_s", "s", "wall_s, job_tail_s", "geometry; none elsewhere"),
    ("curvature.points", "count", "wall_s, job_tail_s", "geometry; none elsewhere"),
    ("curvature.linalg_s", "s", "wall_s, job_tail_s", "geometry; none elsewhere"),
    ("comparison.cert_trials", "count", "wall_s, job_p50_s", "spectral (certify jobs); none on geometry"),
    ("comparison.linalg_s", "s", "wall_s, job_p50_s", "spectral (certify jobs); none on geometry"),
    ("comparison.eig_bytes", "bytes", "wall_s, job_p50_s", "spectral (certify jobs); none on geometry"),
    ("clifford.calls", "count", "wall_s, job_p50_s", "spectral (certify jobs); none on geometry"),
    ("clifford.self_s", "s", "wall_s, job_p50_s", "spectral (certify jobs); none on geometry"),
    ("comparison.calls", "count", "job_p50_s", "geometry (compare jobs), spectral (certify jobs)"),
    ("comparison.self_s", "s", "job_p50_s", "geometry (compare jobs), spectral (certify jobs)"),
    ("comparison.samples", "count", "job_p50_s", "geometry (compare jobs), spectral (certify jobs)"),
    ("sector_spectra.calls", "count", "job_tail_s, peak_rss_mb, wall_s", "spectral; none elsewhere"),
    ("sector_spectra.self_s", "s", "job_tail_s, peak_rss_mb, wall_s", "spectral; none elsewhere"),
    ("sector_spectra.linalg_s", "s", "job_tail_s, peak_rss_mb, wall_s", "spectral; none elsewhere"),
    ("sector_spectra.kernel_bytes", "bytes", "job_tail_s, peak_rss_mb, wall_s", "spectral; none elsewhere"),
    ("index_lab.calls", "count", "job_tail_s, peak_rss_mb, wall_s", "spectral; none elsewhere"),
    ("index_lab.self_s", "s", "job_tail_s, peak_rss_mb, wall_s", "spectral; none elsewhere"),
    ("index_lab.linalg_s", "s", "job_tail_s, peak_rss_mb, wall_s", "spectral; none elsewhere"),
    ("index_lab.cells", "count", "job_tail_s, peak_rss_mb, wall_s", "spectral; none elsewhere"),
    ("index_lab.rank_bytes", "bytes", "job_tail_s, peak_rss_mb, wall_s", "spectral; none elsewhere"),
    ("bessel.calls", "count", "wall_s, job_p50_s", "spectral; none elsewhere"),
    ("bessel.self_s", "s", "wall_s, job_p50_s", "spectral; none elsewhere"),
    ("corner_smoothing.calls", "count", "wall_s, job_p50_s", "spectral; none elsewhere"),
    ("corner_smoothing.self_s", "s", "wall_s, job_p50_s", "spectral; none elsewhere"),
    ("linalg.calls", "count", "wall_s", _ALL),
    ("linalg.self_s", "s", "wall_s", _ALL),
    # baseline rows, mean inclusive time per call (0 = not run on this workload)
    ("curvature.point_ms.n2", "ms", "wall_s, job_tail_s", "geometry"),
    ("curvature.point_ms.n3", "ms", "wall_s, job_tail_s", "geometry"),
    ("curvature.point_ms.n4", "ms", "wall_s, job_tail_s", "geometry"),
    ("curvature.point_ms.n6", "ms", "wall_s, job_tail_s", "geometry"),
    ("curvature.gaussbonnet_s.res12", "s", "wall_s, job_tail_s", "geometry"),
    ("curvature.gaussbonnet_s.res24", "s", "wall_s, job_tail_s", "geometry"),
    ("comparison.cert_trial_ms.n2", "ms", "wall_s, job_p50_s", "spectral"),
    ("comparison.cert_trial_ms.n4", "ms", "wall_s, job_p50_s", "spectral"),
    ("comparison.cert_trial_ms.n6", "ms", "wall_s, job_p50_s", "spectral"),
    ("comparison.boundary_trial_ms.n2", "ms", "wall_s, job_p50_s", "spectral"),
    ("comparison.boundary_trial_ms.n4", "ms", "wall_s, job_p50_s", "spectral"),
    ("comparison.boundary_trial_ms.n6", "ms", "wall_s, job_p50_s", "spectral"),
    ("comparison.compare_s", "s", "job_p50_s", "geometry"),
    ("sector_spectra.hardy_s.grid1200", "s", "job_tail_s, peak_rss_mb", "spectral"),
    ("sector_spectra.hardy_s.grid2400", "s", "job_tail_s, peak_rss_mb", "spectral"),
    ("index_lab.index_s.k16", "s", "job_tail_s, peak_rss_mb", "spectral"),
    ("index_lab.index_s.k24", "s", "job_tail_s, peak_rss_mb", "spectral"),
    ("index_lab.index_s.k32", "s", "job_tail_s, peak_rss_mb", "spectral"),
    ("sector_spectra.deficiency_ms.lambda0.49", "ms", "job_p50_s", "spectral"),
    ("sector_spectra.numeric_ms.grid4096", "ms", "job_p50_s", "spectral"),
    # tracing overhead: the same job list in-process, untraced and traced
    ("trace.inprocess_s", "s", "(reference)", _ALL),
    ("trace.traced_s", "s", "(reference)", _ALL),
    ("trace.overhead", "ratio", "(reference)", _ALL),
    ("trace.spans", "count", "(reference)", _ALL),
)


class Setup(Exception):
    """The benchmark cannot run here (exit 2, no result)."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        if not os.path.isfile(path):
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Versions and thread settings, recorded only (nothing is changed)."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


def child_env() -> dict:
    src = os.path.join(ROOT, "src")
    extra = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + extra if extra else ""))


def _reap(proc):
    """Wait for ``proc`` with ``wait4``; kill it after JOB_TIMEOUT_S."""
    def expire(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(JOB_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_subprocess(argv, env):
    """(seconds, exit code, stdout, stderr, peak RSS in MB) of one child."""
    with open(os.path.join(OUT_DIR, "stdout.tmp"), "w+b") as out, \
            open(os.path.join(OUT_DIR, "stderr.tmp"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        usage = _reap(proc)
        seconds = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return (seconds, proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), usage.ru_maxrss / 1024.0)


def cli_argv(args):
    return [sys.executable, "-m", "dihedral_lab.cli", *args]


def run_inprocess(args):
    """(exit code, stdout) of one job through the click entry point."""
    from dihedral_lab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main.main(args, prog_name="dihedral-lab",
                                 standalone_mode=False)
        except Exception:  # a crash is a failed job, as in a subprocess
            traceback.print_exc()
            code = 1
    return (0 if code is None else code), out.getvalue()


def _import_probe(env, count):
    code = ("import time; t = time.perf_counter(); import dihedral_lab.cli; "
            "print(repr(time.perf_counter() - t))")
    values = []
    for k in range(count + 1):
        _, rc, out, err, _ = run_subprocess([sys.executable, "-c", code], env)
        if rc != 0:
            raise Setup(f"import probe failed: {err.strip()[-300:]}")
        if k:
            values.append(float(out))
    return statistics.median(values)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


class Tally:
    """Oracle verdicts of every job attempted in a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # (job id, kind, reason)
        self.digits = []  # (correct digits, job id) of checked values

    def record(self, job, code, stdout, expected_stdout=None):
        self.attempted += 1
        if expected_stdout is not None and stdout != expected_stdout:
            verdict = oracles.Verdict(False, "stdout differs from the untraced run")
        else:
            verdict = oracles.check(job, code, stdout)
        if verdict.ok:
            self.digits.extend((oracles.digits(v, r), job["id"])
                               for v, r in verdict.values)
        else:
            self.failures.append((job["id"], job["kind"], verdict.reason))
        return verdict.ok

    @property
    def correct(self):
        return all(kind in KNOWN_DEFECTS for _, kind, _ in self.failures)


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile that leaves TAIL_BEYOND jobs above it in the
    minimum number of passes; fixed per workload, so a faster program
    (more passes) does not move it."""
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / (MIN_PASSES * jobs_per_pass)))


def measure_untraced(jobs, seconds, tally, log):
    import numpy as np

    env = child_env()
    help_argv = cli_argv(["--help"])

    def probe():
        dt, code, _, err, _ = run_subprocess(help_argv, env)
        if code != 0:
            raise Setup(f"start-up probe failed (exit {code}): {err.strip()[-300:]}")
        return dt

    probe()  # warm-up: byte-compiles the package once per checkout
    setup, walls, latencies, rss = [], [], [], []
    start = time.perf_counter()
    while True:
        results = []
        for t, job in enumerate(jobs):
            if t % PROBE_EVERY == 0:  # spread start-up probes over the run
                setup.append(probe())
            results.append(run_subprocess(cli_argv(job["args"]), env))
        walls.append(sum(r[0] for r in results))
        for job, (dt, code, out, err, peak) in zip(jobs, results):
            ok = tally.record(job, code, out)
            latencies.append(dt)
            rss.append(peak)
            log.append({"id": job["id"], "pass": len(walls), "seconds": dt,
                        "exit": code, "rss_mb": peak, "ok": ok,
                        "stderr": err[-500:]})
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + elapsed / len(walls) > seconds:
            break
    pct = tail_percentile(len(jobs))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(walls),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": float(np.percentile(latencies, pct)),
        "peak_rss_mb": max(rss),
        "pass_frac": 1.0 - len(tally.failures) / tally.attempted,
        "err_digits_min": min(tally.digits)[0],
    }
    notes = {"passes": len(walls), "jobs": len(latencies),
             "setup_probes": len(setup), "tail_percentile": pct,
             "fewest_digits_in": min(tally.digits)[1],
             "failed_frac": len(tally.failures) / tally.attempted}
    return metrics, notes


def _run_plain(job):
    return run_inprocess(job["args"])


def _inprocess_pass(jobs, tally, run_job=_run_plain, expected=None):
    """Run every job in-process; returns (seconds, stdout per job)."""
    begun = time.perf_counter()
    outs = [run_job(job) for job in jobs]
    seconds = time.perf_counter() - begun
    for k, (job, (code, out)) in enumerate(zip(jobs, outs)):
        tally.record(job, code, out, None if expected is None else expected[k])
    return seconds, [out for _, out in outs]


def measure_traced(jobs, seconds, tally, log):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import scipy.optimize  # noqa: F401  (imported lazily by the package)

    import_s = _import_probe(child_env(), SETUP_PROBES)
    # warm-up, unmeasured: one job of each kind pays the first-call costs
    # (lazy imports, large first allocations) before any pass is timed
    for job in {job["kind"]: job for job in reversed(jobs)}.values():
        run_inprocess(job["args"])
    trios = []
    spans = []
    start = time.perf_counter()
    while not trios or time.perf_counter() - start + trios[-1]["_trio_s"] <= seconds:
        begun = time.perf_counter()
        plain_s, expected = _inprocess_pass(jobs, tally)

        tracer = tracing.Tracer()

        def traced(job):
            tracer.job = job["id"]
            return tracer.call("cli.main", "cli", run_inprocess, (job["args"],), {})

        tracer.install()
        try:
            traced_s, _ = _inprocess_pass(jobs, tally, traced, expected)
        finally:
            tracer.uninstall()

        counter = tracing.EvalCounter()
        counter.install()
        try:
            _inprocess_pass(jobs, tally, expected=expected)
        finally:
            counter.uninstall()

        metrics = tracing.reduce_spans(tracer.spans)
        metrics.update({
            "cli.import_s": import_s,
            "expressions.tree_evals": counter.count,
            "trace.inprocess_s": plain_s,
            "trace.traced_s": traced_s,
            "trace.overhead": traced_s / plain_s,
            "trace.spans": len(tracer.spans),
            "_trio_s": time.perf_counter() - begun,
        })
        trios.append(metrics)
        spans = tracer.spans
    metrics = {name: statistics.median(t[name] for t in trios)
               for name, _, _, _ in PER_LAYER}
    log.extend({"trio": k, **t} for k, t in enumerate(trios))
    return metrics, {"trios": len(trios), "spans": spans}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def report(args, env, metrics, notes, tally, units, moves=None):
    err = sys.stderr
    print(f"dihedral-lab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}", file=err)
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()), file=err)
    shown = {k: v for k, v in notes.items() if k != "spans"}
    print(f"jobs attempted {tally.attempted}, failed {len(tally.failures)}; "
          + ", ".join(f"{k} {v}" for k, v in shown.items()), file=err)
    for name, value in metrics.items():
        extra = ""
        if name == "job_tail_s":
            extra = f"  (p{notes['tail_percentile']} of {notes['jobs']} jobs)"
        elif moves is not None:
            extra = f"  moves {moves[name][0]} on {moves[name][1]}"
        print(f"  {name:42s} {value:16.6g} {units[name]:6s}{extra}", file=err)
    if "failed_frac" in notes:
        print(f"  {'failed_frac':42s} {notes['failed_frac']:16.6g} ratio", file=err)
    seen = {}
    for failure in tally.failures:
        seen[failure] = seen.get(failure, 0) + 1
    for (job_id, kind, reason), times in seen.items():
        tag = f"  [known defect: {KNOWN_DEFECTS[kind]}]" if kind in KNOWN_DEFECTS else ""
        print(f"FAIL x{times} {job_id}: {reason}{tag}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        if not os.path.isfile(os.path.join("src", "dihedral_lab", "cli.py")):
            raise Setup("no program here: src/dihedral_lab/cli.py is missing")
        os.makedirs(OUT_DIR, exist_ok=True)
        env = environment()
        jobs = jobgen.make_jobs(
            args.workload, args.seed,
            os.path.join(OUT_DIR, "scenes", f"{args.workload}-{args.seed}"))
        tally, log = Tally(), []
        if args.trace:
            metrics, notes = measure_traced(jobs, args.seconds, tally, log)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            moves = {name: (m, w) for name, _, m, w in PER_LAYER}
        else:
            metrics, notes = measure_untraced(jobs, args.seconds, tally, log)
            units, moves = dict(END_TO_END), None
    except Setup as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    except oracles.OracleUnavailable as exc:
        print(f"oracle cannot run: {exc}", file=sys.stderr)
        return 3

    report(args, env, metrics, notes, tally, units, moves)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"environment": env, "metrics": metrics,
                   "notes": {k: v for k, v in notes.items() if k != "spans"},
                   "failures": tally.failures, "jobs": log}, fh, indent=1)
    if notes.get("spans"):
        with gzip.open(stem + ".spans.jsonl.gz", "wt", compresslevel=1) as fh:
            for idx, span in enumerate(notes["spans"]):
                fh.write(json.dumps([idx, *span]) + "\n")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
