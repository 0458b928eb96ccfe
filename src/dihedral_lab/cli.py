"""Command line front end.

Every subcommand reads JSON scenes / flags, writes a JSON report (floats
with 17 significant digits, byte-identical for identical inputs and seed)
and exits with:

    0  computation succeeded and the command's verdict passed
    1  computation succeeded but the verdict failed
    2  malformed input (message points at the offending file/flag), or a
       usage error (one ``Error: ...`` line on stderr)
    3  internal error: a bug, not a verdict (one line on stderr)

Options are parsed on the standard library from one table per command,
with click's rules and wording: the token after a value option is always
its value (``--lambda -1e-3``), ``--opt=value`` works, and options are
never abbreviated.
"""

from __future__ import annotations

import importlib
import json
import math
import sys

# Each command imports the library names it uses when it runs, so that
# ``--help`` and usage errors load no numpy and each subcommand loads only
# its own modules.  These names stay reachable as ``cli.<name>``, resolved
# on access by ``__getattr__``.
_REEXPORTS = {
    name: module
    for module, names in {
        "numpy": "np",
        ".clifford": "random_certificates",
        ".comparison": "CompareScene SampleSpec SceneError check_conclusions "
                       "check_hypotheses",
        ".corner_smoothing": "mean_curvature_limit smoothing_arc turning_integral",
        ".curvature": "DomainError PolyDomain conformal_identities curvature_tensors "
                      "dihedral_angle gauss_bonnet_defect",
        ".expressions": "ExpressionError MetricNotPositiveDefinite metric_from_scene",
        ".index_lab": "PolygonError index_experiment",
        ".sector_spectra": "SectorPair deficiency_test esa_verdict gallot_meyer_bound "
                           "hardy_norm p_spectrum_closed p_spectrum_numeric",
    }.items()
    for name in names.split()
}


def __getattr__(name):
    if name not in _REEXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(_REEXPORTS[name], __package__)
    return module if name == "np" else getattr(module, name)


# Every input error class of the library (SceneError, DomainError,
# PolygonError, ExpressionError, MetricNotPositiveDefinite, ...) is a
# ValueError.
_INPUT_ERRORS = (ValueError, KeyError, OSError)


# ---------------------------------------------------------------------------
# Deterministic JSON with 17 significant digits
# ---------------------------------------------------------------------------


def format_json(obj, indent: int = 0) -> str:
    np = sys.modules.get("numpy")  # no numpy scalar exists before numpy loads
    if np is not None and isinstance(obj, np.generic):
        obj = obj.item()
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
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        if not math.isfinite(obj):  # a report bug, not bad input: exit 3
            raise RuntimeError(f"non-finite float {obj} in a report")
        return format(float(obj), ".17g")
    if obj is None:
        return "null"
    return json.dumps(obj)


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_scene(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc


def _parse_point(text: str, dim: int) -> tuple:
    """The point ``text`` in a chart of dimension ``dim``."""
    try:
        x = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad point {text!r}; expected comma-separated floats") from exc
    if len(x) != dim:
        raise ValueError(f"point {text!r} has {len(x)} coordinates; the scene has dim {dim}")
    return x


def _finish(report: dict, output: str | None, verdict: bool | None) -> int:
    _write(format_json(report) + "\n", output)
    return 0 if verdict in (None, True) else 1


def _guard(command, values: dict) -> int:
    try:
        return command(**values)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------------------
# Option tables and the parser
# ---------------------------------------------------------------------------

# A command table maps a name to ``(function, options)``, or a group name to
# ``(table, summary)``.  An option is ``(flag, dest, type, default[, help])``:
# type ``bool`` is a flag, a tuple default collects every occurrence, and
# ``_REQUIRED`` as the default makes the option mandatory.
_REQUIRED = object()
_TYPE_NAMES = {int: "integer", float: "float", str: "text"}
_SPECTRUM: dict = {}
_COMMANDS: dict = {"spectrum": (_SPECTRUM, "Spectra of the arc-link operator.")}
_SUMMARY = "Curvature, dihedral-angle and cone-spectrum checks for metric polyhedral domains."


class _UsageError(Exception):
    pass


def _command(table: dict, *options):
    """Register the decorated function as the command ``fn.__name__`` of
    ``table``; every command also takes ``--output``."""
    def register(fn):
        table[fn.__name__] = (fn, (*options, ("--output", "output", str, None)))
        return fn
    return register


def _note(default) -> str:
    if default is _REQUIRED:
        return "[required]"
    if default is None or default is False:
        return ""
    return f"[default: {', '.join(map(str, default)) if type(default) is tuple else default}]"


def _usage(prog: str, group: bool) -> str:
    return f"Usage: {prog} [OPTIONS]" + (" COMMAND [ARGS]..." if group else "")


def _help(prog: str, summary: str, options=(), commands=None) -> str:
    rows = [(flag + ("" if kind is bool else " " + _TYPE_NAMES[kind].upper()),
             "  ".join([*about, _note(default)])) for flag, _, kind, default, *about in options]
    rows.append(("--help", "Show this message and exit."))
    lines = [_usage(prog, commands is not None), "", f"  {summary}", "", "Options:",
             *(f"  {left:<22}{right}".rstrip() for left, right in rows)]
    if commands is not None:
        lines += ["", "Commands:", *(
            f"  {name:<13}{entry[1] if isinstance(entry[0], dict) else entry[0].__doc__}"
            for name, entry in sorted(commands.items()))]
    return "\n".join(lines) + "\n"


def _parse(options, args: list) -> dict | None:
    """Keyword arguments of a command from its ``args``, or None for
    ``--help``.  As in click, values are converted after every token is read,
    and the last of repeated single-valued options wins."""
    rows = {row[0]: row for row in options}
    given: dict = {}  # flag -> every value given (True for a flag)
    extra: list = []
    tokens = iter(args)
    for token in tokens:
        flag, has_value, value = token.partition("=")
        if token == "--":
            extra += tokens
        elif token[:1] != "-" or token == "-":
            extra.append(token)
        elif flag != "--help" and flag not in rows:
            raise _UsageError(f"No such option {flag!r}.")
        elif flag == "--help" or rows[flag][2] is bool:
            if has_value:
                raise _UsageError(f"Option {flag!r} does not take a value.")
            given[flag] = [True]
        else:
            if not has_value and (value := next(tokens, None)) is None:
                raise _UsageError(f"Option {flag!r} requires an argument.")
            given.setdefault(flag, []).append(value)
    if "--help" in given:
        return None
    values = {}
    for flag, texts in given.items():
        _, dest, kind, default, *_ = rows[flag]
        many, items = type(default) is tuple, []
        for text in texts if many else texts[-1:]:
            try:
                items.append(kind(text))
            except ValueError:
                raise _UsageError(f"Invalid value for {flag!r}: {text!r} is not a valid "
                                  f"{_TYPE_NAMES[kind]}.") from None
        values[dest] = tuple(items) if many else items[0]
    for flag, dest, _, default, *_ in options:
        if dest not in values:
            if default is _REQUIRED:
                raise _UsageError(f"Missing option {flag!r}.")
            values[dest] = default
    if extra:
        raise _UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} "
                          f"({' '.join(extra)})")
    return values


def _dispatch(args: list, prog: str) -> int:
    """Exit code of the command line ``args``."""
    entry = (_COMMANDS, _SUMMARY)
    try:
        while isinstance(entry[0], dict):
            table, summary = entry
            if args[:1] == ["--help"]:
                sys.stdout.write(_help(prog, summary, commands=table))
                return 0
            if not args:
                raise _UsageError("Missing command.")
            head, args = args[0], args[1:]
            if head[:1] == "-":
                raise _UsageError(f"No such option {head!r}.")
            if head not in table:
                raise _UsageError(f"No such command {head!r}.")
            prog, entry = f"{prog} {head}", table[head]
        command, options = entry
        values = _parse(options, args)
    except _UsageError as exc:
        print(f"{_usage(prog, isinstance(entry[0], dict))}\n"
              f"Try '{prog} --help' for help.\n\nError: {exc}", file=sys.stderr)
        return 2
    if values is None:
        sys.stdout.write(_help(prog, command.__doc__, options))
        return 0
    return _guard(command, values)


class _Main:
    """The entry point: ``main()`` runs ``sys.argv`` and ``main(argv)`` runs
    ``argv``, exiting with the command's code, which ``main.main(args,
    standalone_mode=False)`` returns instead.  ``name`` and ``main`` are what
    ``click.testing.CliRunner`` reads of a command."""

    name = "dihedral-lab"

    def main(self, args=None, prog_name=None, standalone_mode=True) -> int:
        code = _dispatch(list(sys.argv[1:] if args is None else args),
                         prog_name or self.name)
        if standalone_mode:
            raise SystemExit(code)
        return code

    def __call__(self, args=None):
        self.main(args)


main = _Main()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@_command(_COMMANDS,
          ("--scene", "scene_path", str, _REQUIRED),
          ("--point", "point_text", str, _REQUIRED, "comma-separated chart coordinates"),
          ("--tol", "tol", float, 1e-6, "tolerance on tensor-symmetry residuals"))
def curvature(scene_path, point_text, tol, output):
    """Curvature tensors of a metric scene at a point."""
    from .curvature import curvature_tensors
    from .expressions import metric_from_scene

    g = metric_from_scene(_load_scene(scene_path))
    x = _parse_point(point_text, g.dim)
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
    return _finish(report, output, ok)


@_command(_COMMANDS,
          ("--scene", "scene_path", str, _REQUIRED),
          ("--faces", "faces", str, _REQUIRED, "1-based face pair, e.g. 1,3"),
          ("--point", "point_text", str, _REQUIRED))
def angles(scene_path, faces, point_text, output):
    """Dihedral angle of two faces at an edge point."""
    from .curvature import PolyDomain, dihedral_angle
    from .expressions import metric_from_scene

    scene = _load_scene(scene_path)
    dom = PolyDomain.from_scene(scene)
    g = metric_from_scene(scene)
    try:
        i, j = (int(v) for v in faces.split(","))
    except ValueError as exc:
        raise ValueError(f"bad face pair {faces!r}") from exc
    for face in (i, j):
        if not 1 <= face <= dom.face_count:
            raise ValueError(f"face {face} out of range 1..{dom.face_count}")
    x = _parse_point(point_text, g.dim)
    theta = dihedral_angle(g, dom, i - 1, j - 1, x)
    report = {
        "faces": [i, j],
        "point": list(x),
        "angle": theta,
        "reflex": theta > math.pi,
    }
    return _finish(report, output, True)


@_command(_COMMANDS,
          ("--scene", "scene_path", str, _REQUIRED),
          ("--resolution", "resolution", int, 12),
          ("--tol", "tol", float, 1e-3))
def gaussbonnet(scene_path, resolution, tol, output):
    """Gauss-Bonnet defect of a 2-D polygon scene."""
    from .curvature import PolyDomain, gauss_bonnet_defect
    from .expressions import metric_from_scene

    scene = _load_scene(scene_path)
    dom = PolyDomain.from_scene(scene)
    g = metric_from_scene(scene)
    defect = gauss_bonnet_defect(g, dom, resolution=resolution)
    ok = abs(defect) <= tol
    report = {"defect": defect, "resolution": resolution,
              "tolerance": tol, "within_tol": ok}
    return _finish(report, output, ok)


@_command(_COMMANDS,
          ("--scene", "scene_path", str, _REQUIRED),
          ("--conclusions", "conclusions", bool, False,
           "check the equality conclusions instead of the hypotheses"),
          ("--tol", "tol", float, 1e-6),
          ("--seed", "seed", int, 0),
          ("--interior", "interior", int, 16),
          ("--per-face", "per_face", int, 8),
          ("--per-edge", "per_edge", int, 4),
          ("--csv", "csv_path", str, None, "also write the per-sample value table as CSV"))
def compare(scene_path, conclusions, tol, seed, interior, per_face, per_edge,
            csv_path, output):
    """Hypothesis margins / conclusion residuals of a comparison scene."""
    from .comparison import CompareScene, SampleSpec, check_conclusions, check_hypotheses

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
    return _finish(report.to_dict(), output, report.holds)


@_command(_COMMANDS,
          ("--dim", "dims", int, (2, 4)),
          ("--trials", "trials", int, 1000),
          ("--seed", "seed", int, 0),
          ("--tol", "tol", float, 1e-9))
def certify(dims, trials, seed, tol, output):
    """Randomized PSD certificates for the interior/boundary estimates."""
    if trials < 1:  # no trial would leave inf minima and count as a pass
        raise ValueError(f"trials must be at least 1, got {trials}")
    import numpy as np

    from .clifford import random_certificates

    rows = {}
    for n in sorted(set(dims)):
        worst = random_certificates(n, trials, np.random.default_rng(seed + n))
        rows[str(n)] = dict(zip(("curvature_min_eig", "boundary_min_eig"), worst))
    ok = all(v >= -tol for row in rows.values() for v in row.values())
    report = {"trials": trials, "seed": seed, "tolerance": tol,
              "dims": rows, "all_nonnegative": ok}
    return _finish(report, output, ok)


@_command(_COMMANDS,
          ("--metric", "metric_path", str, _REQUIRED, "metric scene for the background"),
          ("--factor", "factor", str, _REQUIRED, "conformal factor expression"),
          ("--point", "point_text", str, _REQUIRED),
          ("--tol", "tol", float, 1e-3))
def conformal(metric_path, factor, point_text, tol, output):
    """Residuals of the conformal curvature identities."""
    from .curvature import conformal_identities
    from .expressions import metric_from_scene

    g = metric_from_scene(_load_scene(metric_path))
    x = _parse_point(point_text, g.dim)
    residuals = conformal_identities(g, factor, x)
    ok = all(abs(v) <= tol for v in residuals.values())
    report = {"point": list(x), "residuals": residuals,
              "tolerance": tol, "within_tol": ok}
    return _finish(report, output, ok)


@_command(_SPECTRUM,
          ("--alpha", "alpha", float, _REQUIRED),
          ("--beta", "beta", float, _REQUIRED),
          ("--numeric", "grid", int, None, "also discretize on a staggered grid of this size"),
          ("--count", "count", int, 5),
          ("--tol", "tol", float, 1e-3),
          ("--csv", "csv_path", str, None))
def sector(alpha, beta, grid, count, tol, csv_path, output):
    """Closed-form (and optionally numeric) sector spectrum."""
    from .sector_spectra import (SectorPair, esa_verdict, p_spectrum_closed,
                                 p_spectrum_numeric)

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
    return _finish(report, output, ok)


@_command(_SPECTRUM, ("--dim", "n", int, _REQUIRED))
def bound(n, output):
    """Spectral lower bound for higher-dimensional links."""
    from .sector_spectra import gallot_meyer_bound

    value = gallot_meyer_bound(n)
    report = {"dim": n, "bound": value, "at_least_half": value >= 0.5}
    return _finish(report, output, value >= 0.5)


@_command(_COMMANDS, ("--lambda", "lam", float, _REQUIRED))
def deficiency(lam, output):
    """L^2 verdict for the Bessel solution pair at the given eigenvalue."""
    from .sector_spectra import deficiency_test

    return _finish(deficiency_test(lam).to_dict(), output, True)


@_command(_COMMANDS,
          ("--lambda", "lam", float, _REQUIRED),
          ("--delta", "delta", float, 1.0),
          ("--grid", "grid", int, 1200))
def hardy(lam, delta, grid, output):
    """Numeric norm of the triangle kernel against the analytic bound."""
    from .sector_spectra import hardy_norm

    numeric, bound_ = hardy_norm(lam, delta=delta, grid=grid)
    ok = numeric <= 1.01 * bound_
    report = {"lambda": lam, "delta": delta, "numeric_norm": numeric,
              "analytic_bound": bound_, "within_bound": ok}
    return _finish(report, output, ok)


@_command(_COMMANDS,
          ("--angle", "angle", float, _REQUIRED),
          ("--radii", "radii", str, _REQUIRED, "comma-separated radii"),
          ("--test-function", "phi", str, "1"))
def smooth(angle, radii, phi, output):
    """CSV of (radius, turning integral, weighted integral, error)."""
    from .corner_smoothing import smoothing_arc, turning_integral, weighted_integral
    from .expressions import parse_expression

    try:
        rlist = [float(v) for v in radii.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad radii list {radii!r}") from exc
    target = math.pi - angle
    test_function = parse_expression(phi)
    edge_length = max(1.0, 10.0 * max(rlist))
    lines = ["radius,turning_integral,weighted_integral,error"]
    for r in rlist:
        arc = smoothing_arc(angle, r, edge_length=edge_length)
        turning = turning_integral(arc)
        weighted = weighted_integral(arc, test_function)
        # format_json refuses a non-finite value (exit 3), as in the reports
        lines.append(",".join(format_json(v)
                              for v in (r, turning, weighted, abs(turning - target))))
    _write("\n".join(lines) + "\n", output)
    return 0


@_command(_COMMANDS, ("--scene", "scene_path", str, _REQUIRED))
def index(scene_path, output):
    """Cohomological index versus degree x Euler characteristic."""
    from .index_lab import index_experiment

    report = index_experiment(_load_scene(scene_path))
    return _finish(report, output, bool(report["match"]))


if __name__ == "__main__":  # pragma: no cover
    main()
