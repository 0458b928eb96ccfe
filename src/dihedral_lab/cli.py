"""Command line front end.

Every subcommand reads JSON scenes / flags, writes a JSON report (floats
with 17 significant digits, byte-identical for identical inputs and seed)
and exits with:

    0  computation succeeded and the command's verdict passed
    1  computation succeeded but the verdict failed
    2  malformed input (message points at the offending file/flag)
    3  internal error: a bug, not a verdict (one line on stderr)
"""

from __future__ import annotations

import json
import math

import click
import numpy as np

from .comparison import (
    CompareScene,
    SampleSpec,
    SceneError,
    check_conclusions,
    check_hypotheses,
    conformal_identities,
    random_certificates,
)
from .corner_smoothing import mean_curvature_limit, smoothing_arc, turning_integral
from .curvature import (
    DomainError,
    PolyDomain,
    curvature_tensors,
    dihedral_angle,
    gauss_bonnet_defect,
)
from .expressions import ExpressionError, MetricNotPositiveDefinite, metric_from_scene
from .index_lab import PolygonError, index_experiment
from .sector_spectra import (
    SectorPair,
    deficiency_test,
    esa_verdict,
    gallot_meyer_bound,
    hardy_norm,
    p_spectrum_closed,
    p_spectrum_numeric,
)

_INPUT_ERRORS = (
    SceneError,
    DomainError,
    PolygonError,
    ExpressionError,
    MetricNotPositiveDefinite,
    ValueError,
    KeyError,
    OSError,
)


# ---------------------------------------------------------------------------
# Deterministic JSON with 17 significant digits
# ---------------------------------------------------------------------------


def format_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {format_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rows = [f"{pad}  {format_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if obj is None:
        return "null"
    return json.dumps(obj)


def _emit(report: dict, output: str | None) -> None:
    text = format_json(report) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _load_scene(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SceneError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc


def _parse_point(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise SceneError(f"bad point {text!r}; expected comma-separated floats") from exc


def _finish(ctx, report: dict, output: str | None, verdict: bool | None) -> None:
    _emit(report, output)
    ctx.exit(0 if verdict in (None, True) else 1)


def _guard(ctx, fn):
    try:
        fn()
    except click.exceptions.Exit:
        raise  # the exit code set by _finish (Exit subclasses RuntimeError)
    except _INPUT_ERRORS as exc:
        click.echo(f"input error: {exc}", err=True)
        ctx.exit(2)
    except Exception as exc:
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        ctx.exit(3)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Curvature, dihedral-angle and cone-spectrum checks for metric
    polyhedral domains."""


@main.command()
@click.option("--scene", "scene_path", required=True, type=click.Path())
@click.option("--point", "point_text", required=True,
              help="comma-separated chart coordinates")
@click.option("--tol", default=1e-6, show_default=True,
              help="tolerance on tensor-symmetry residuals")
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def curvature(ctx, scene_path, point_text, tol, output):
    """Curvature tensors of a metric scene at a point."""

    def run():
        g = metric_from_scene(_load_scene(scene_path))
        x = _parse_point(point_text)
        pack = curvature_tensors(g, x)
        residuals = {
            "antisymmetry": pack.antisymmetry_residual(),
            "pair_symmetry": pack.pair_symmetry_residual(),
            "bianchi": pack.bianchi_residual(),
        }
        ok = all(v <= tol for v in residuals.values())
        report = {
            "point": list(x),
            "scalar_curvature": pack.scalar,
            "ricci": [[float(v) for v in row] for row in pack.ricci],
            "residuals": residuals,
            "residuals_within_tol": ok,
        }
        _finish(ctx, report, output, ok)

    _guard(ctx, run)


@main.command()
@click.option("--scene", "scene_path", required=True, type=click.Path())
@click.option("--faces", required=True, help="1-based face pair, e.g. 1,3")
@click.option("--point", "point_text", required=True)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def angles(ctx, scene_path, faces, point_text, output):
    """Dihedral angle of two faces at an edge point."""

    def run():
        scene = _load_scene(scene_path)
        dom = PolyDomain.from_scene(scene)
        g = metric_from_scene(scene)
        try:
            i, j = (int(v) - 1 for v in faces.split(","))
        except ValueError as exc:
            raise SceneError(f"bad face pair {faces!r}") from exc
        x = _parse_point(point_text)
        theta = dihedral_angle(g, dom, i, j, x)
        report = {
            "faces": [i + 1, j + 1],
            "point": list(x),
            "angle": theta,
            "reflex": theta > math.pi,
        }
        _finish(ctx, report, output, True)

    _guard(ctx, run)


@main.command()
@click.option("--scene", "scene_path", required=True, type=click.Path())
@click.option("--resolution", default=12, show_default=True)
@click.option("--tol", default=1e-3, show_default=True)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def gaussbonnet(ctx, scene_path, resolution, tol, output):
    """Gauss-Bonnet defect of a 2-D polygon scene."""

    def run():
        scene = _load_scene(scene_path)
        dom = PolyDomain.from_scene(scene)
        g = metric_from_scene(scene)
        defect = gauss_bonnet_defect(g, dom, resolution=resolution)
        ok = abs(defect) <= tol
        report = {"defect": defect, "resolution": resolution,
                  "tolerance": tol, "within_tol": ok}
        _finish(ctx, report, output, ok)

    _guard(ctx, run)


@main.command()
@click.option("--scene", "scene_path", required=True, type=click.Path())
@click.option("--conclusions", is_flag=True,
              help="check the equality conclusions instead of the hypotheses")
@click.option("--tol", default=1e-6, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--interior", default=16, show_default=True)
@click.option("--per-face", default=8, show_default=True)
@click.option("--per-edge", default=4, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="also write the per-sample value table as CSV")
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def compare(ctx, scene_path, conclusions, tol, seed, interior, per_face,
            per_edge, csv_path, output):
    """Hypothesis margins / conclusion residuals of a comparison scene."""

    def run():
        scene = CompareScene.from_scene(_load_scene(scene_path))
        spec = SampleSpec(interior=interior, per_face=per_face,
                          per_edge=per_edge, seed=seed)
        checker = check_conclusions if conclusions else check_hypotheses
        report = checker(scene, spec, tolerance=tol)
        if csv_path:
            with open(csv_path, "w") as fh:
                fh.write("margin,stratum,point,value\n")
                for name, stratum, pt, value in report.table:
                    coords = ";".join(format(v, ".17g") for v in pt)
                    fh.write(f"{name},{stratum},{coords},"
                             f"{format(value, '.17g')}\n")
        _finish(ctx, report.to_dict(), output, report.holds)

    _guard(ctx, run)


@main.command()
@click.option("--dim", "dims", multiple=True, type=int, default=(2, 4),
              show_default=True)
@click.option("--trials", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--tol", default=1e-9, show_default=True)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def certify(ctx, dims, trials, seed, tol, output):
    """Randomized PSD certificates for the interior/boundary estimates."""

    def run():
        if trials < 1:  # no trial would leave inf minima and count as a pass
            raise SceneError(f"trials must be at least 1, got {trials}")
        rows = {}
        for n in sorted(set(dims)):
            worst = random_certificates(n, trials, np.random.default_rng(seed + n))
            rows[str(n)] = dict(zip(("curvature_min_eig", "boundary_min_eig"), worst))
        ok = all(v >= -tol for row in rows.values() for v in row.values())
        report = {"trials": trials, "seed": seed, "tolerance": tol,
                  "dims": rows, "all_nonnegative": ok}
        _finish(ctx, report, output, ok)

    _guard(ctx, run)


@main.command()
@click.option("--metric", "metric_path", required=True, type=click.Path(),
              help="metric scene for the background")
@click.option("--factor", required=True, help="conformal factor expression")
@click.option("--point", "point_text", required=True)
@click.option("--tol", default=1e-3, show_default=True)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def conformal(ctx, metric_path, factor, point_text, tol, output):
    """Residuals of the conformal curvature identities."""

    def run():
        g = metric_from_scene(_load_scene(metric_path))
        x = _parse_point(point_text)
        residuals = conformal_identities(g, factor, x)
        ok = all(abs(v) <= tol for v in residuals.values())
        report = {"point": list(x), "residuals": residuals,
                  "tolerance": tol, "within_tol": ok}
        _finish(ctx, report, output, ok)

    _guard(ctx, run)


@main.group()
def spectrum():
    """Spectra of the arc-link operator."""


@spectrum.command()
@click.option("--alpha", required=True, type=float)
@click.option("--beta", required=True, type=float)
@click.option("--numeric", "grid", type=int, default=None,
              help="also discretize on a staggered grid of this size")
@click.option("--count", default=5, show_default=True)
@click.option("--tol", default=1e-3, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def sector(ctx, alpha, beta, grid, count, tol, csv_path, output):
    """Closed-form (and optionally numeric) sector spectrum."""

    def run():
        if count < 1 or not 0.0 <= tol < math.inf:
            raise ValueError(f"need count >= 1 and a finite tol >= 0, got {count}, {tol}")
        pair = SectorPair(alpha, beta)
        closed = p_spectrum_closed(pair, range(-count, count + 1))
        report = {
            "alpha": alpha,
            "beta": beta,
            "closed": closed.to_dict(),
            "min_abs": closed.min_abs,
            "esa": closed.esa,
        }
        if alpha <= math.pi and beta <= math.pi:
            verdict, reason = esa_verdict(pair)
            report["esa_reason"] = reason
        ok = True
        if grid is not None:
            numeric = p_spectrum_numeric(pair, grid=grid, count=count)
            deviation = max(
                min(abs(v - c) for c in closed.eigenvalues)
                for v in numeric.eigenvalues
            )
            ok = deviation <= tol
            report["numeric"] = numeric.to_dict()
            report["max_deviation"] = deviation
            report["numeric_matches_closed"] = ok
        if csv_path:
            with open(csv_path, "w") as fh:
                fh.write("eigenvalue\n")
                for v in closed.eigenvalues:
                    fh.write(format(v, ".17g") + "\n")
        _finish(ctx, report, output, ok)

    _guard(ctx, run)


@spectrum.command()
@click.option("--dim", "n", required=True, type=int)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def bound(ctx, n, output):
    """Spectral lower bound for higher-dimensional links."""

    def run():
        value = gallot_meyer_bound(n)
        report = {"dim": n, "bound": value, "at_least_half": value >= 0.5}
        _finish(ctx, report, output, value >= 0.5)

    _guard(ctx, run)


@main.command()
@click.option("--lambda", "lam", required=True, type=float)
@click.option("--rtol", default=1e-6, show_default=True)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def deficiency(ctx, lam, rtol, output):
    """L^2 verdict for the Bessel solution pair at the given eigenvalue."""

    def run():
        res = deficiency_test(lam, rtol=rtol)
        report = {
            "lambda": lam,
            "is_l2": res.is_l2,
            "levels": len(res.integrals),
            "final_eps": res.integrals[-1][0],
            "final_integral": res.integrals[-1][1],
        }
        _finish(ctx, report, output, True)

    _guard(ctx, run)


@main.command()
@click.option("--lambda", "lam", required=True, type=float)
@click.option("--delta", default=1.0, show_default=True)
@click.option("--grid", default=1200, show_default=True)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def hardy(ctx, lam, delta, grid, output):
    """Numeric norm of the triangle kernel against the analytic bound."""

    def run():
        numeric, bound_ = hardy_norm(lam, delta=delta, grid=grid)
        ok = numeric <= 1.01 * bound_
        report = {"lambda": lam, "delta": delta, "numeric_norm": numeric,
                  "analytic_bound": bound_, "within_bound": ok}
        _finish(ctx, report, output, ok)

    _guard(ctx, run)


@main.command()
@click.option("--angle", required=True, type=float)
@click.option("--radii", required=True, help="comma-separated radii")
@click.option("--test-function", "phi", default="1", show_default=True)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def smooth(ctx, angle, radii, phi, output):
    """CSV of (radius, turning integral, weighted integral, error)."""

    def run():
        try:
            rlist = [float(v) for v in radii.split(",")]
        except ValueError as exc:
            raise SceneError(f"bad radii list {radii!r}") from exc
        target = math.pi - angle
        weighted = mean_curvature_limit(angle, phi, rlist)
        lines = ["radius,turning_integral,weighted_integral,error"]
        for r, w in zip(rlist, weighted):
            turning = turning_integral(smoothing_arc(
                angle, r, edge_length=max(1.0, 10.0 * max(rlist))))
            lines.append(",".join(format(v, ".17g")
                                  for v in (r, turning, w, abs(turning - target))))
        text = "\n".join(lines) + "\n"
        if output:
            with open(output, "w") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)
        ctx.exit(0)

    _guard(ctx, run)


@main.command()
@click.option("--scene", "scene_path", required=True, type=click.Path())
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def index(ctx, scene_path, output):
    """Cohomological index versus degree x Euler characteristic."""

    def run():
        report = index_experiment(_load_scene(scene_path))
        _finish(ctx, report, output, bool(report["match"]))

    _guard(ctx, run)


if __name__ == "__main__":  # pragma: no cover
    main()
