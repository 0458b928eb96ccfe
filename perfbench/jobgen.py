"""Seeded job lists for the two benchmark workloads.

``make_jobs(workload, seed, scene_dir)`` writes the scene files a workload
needs into ``scene_dir`` and returns its job list.  Every structural size
(job kinds, polygon side counts, resolutions, grids, trial counts) is fixed
per job position, so two seeds cost about the same; the seed draws only
the continuous inputs (vertices, metrics, maps, points, angles, seeds).

Each job carries the inputs its oracle needs in ``job["ref"]``, so the
oracles never read the program's scene parser.  Scenes are built to be
valid by construction: polygons come from sorted vertices on an ellipse,
compare scenes carry the pushed-forward metric and the face map of an
affine isometry, index maps keep every corner inside the target square.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

WORKLOADS = ("geometry", "spectral")


def num(v: float) -> str:
    """Exact decimal text of a float for the expression grammar."""
    text = np.format_float_positional(float(v), unique=True, trim="-")
    return f"({text})" if v < 0 else text


def _round(v: float, digits: int = 9) -> float:
    return round(float(v), digits)


def _spd(rng: random.Random, n: int, spread: float = 0.3) -> np.ndarray:
    """Constant SPD matrix L L^T with entries rounded for the scene text;
    the rounded matrix is the one the scene states."""
    low = np.zeros((n, n))
    for i in range(n):
        low[i, i] = rng.uniform(0.8, 1.25)
        for j in range(i):
            low[i, j] = rng.uniform(-spread, spread)
    g = low @ low.T
    return np.array([[_round(g[i, j]) for j in range(n)] for i in range(n)])


def _metric_text(g: np.ndarray) -> dict:
    n = g.shape[0]
    return {f"{i + 1}{j + 1}": num(g[i, j]) for i in range(n) for j in range(i, n)}


def _write(scene_dir: str, name: str, scene: dict) -> str:
    path = os.path.join(scene_dir, name)
    with open(path, "w") as fh:
        json.dump(scene, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def convex_polygon(rng: random.Random, sides: int) -> list[list[float]]:
    """Counterclockwise vertices on a seeded ellipse; every gap < pi."""
    weights = [rng.uniform(1.0, 2.0) for _ in range(sides)]
    total = sum(weights)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    radius = rng.uniform(0.6, 1.2)
    squash = rng.uniform(0.7, 1.0)
    tilt = rng.uniform(0.0, math.pi)
    cx, cy = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    out = []
    for w in weights:
        ex, ey = radius * math.cos(phi), radius * squash * math.sin(phi)
        out.append([_round(cx + ex * math.cos(tilt) - ey * math.sin(tilt)),
                    _round(cy + ex * math.sin(tilt) + ey * math.cos(tilt))])
        phi += 2.0 * math.pi * w / total
    return out


def polygon_halfspaces(verts: list[list[float]]) -> list[dict]:
    """Inner half-spaces <a, x> >= b of a counterclockwise convex polygon."""
    out = []
    for t, p in enumerate(verts):
        q = verts[(t + 1) % len(verts)]
        a = [-(q[1] - p[1]), q[0] - p[0]]
        out.append({"a": a, "b": a[0] * p[0] + a[1] * p[1]})
    return out


def _gaussbonnet_job(rng, scene_dir, tag, sides, resolution):
    verts = convex_polygon(rng, sides)
    amp = _round(rng.uniform(0.05, 0.15), 6)
    b1, b2 = (_round(rng.uniform(0.5, 1.5), 6) for _ in range(2))
    c1, c2 = (_round(rng.uniform(0.0, math.pi), 6) for _ in range(2))
    u = f"{num(amp)}*sin({num(b1)}*x1+{num(c1)})*cos({num(b2)}*x2+{num(c2)})"
    factor = f"exp(2*{u})"
    path = _write(scene_dir, f"{tag}.json", {
        "dim": 2, "halfspaces": polygon_halfspaces(verts),
        "g": {"11": factor, "22": factor}})
    return {"kind": "gaussbonnet",
            "args": ["gaussbonnet", "--scene", path,
                     "--resolution", str(resolution)],
            "ref": {"resolution": resolution}}


def _affine_isometry(rng, n):
    """Well-conditioned A (entries rounded) and offset c."""
    while True:
        a = np.array([[_round(rng.uniform(-0.6, 0.6) + (1.2 if i == j else 0.0))
                       for j in range(n)] for i in range(n)])
        if np.linalg.cond(a) < 4.0:
            break
    c = np.array([_round(rng.uniform(-1.0, 1.0)) for _ in range(n)])
    return a, c


def _compare_job(rng, scene_dir, tag, n, conclusions, sample_seed):
    lo = [_round(rng.uniform(-1.0, 0.0)) for _ in range(n)]
    hi = [_round(v + rng.uniform(0.5, 1.5)) for v in lo]
    src_faces = []
    for i in range(n):
        e = [0.0] * n
        e[i] = 1.0
        src_faces.append((np.array(e), lo[i]))
        src_faces.append((-np.array(e), -hi[i]))
    g_src = _spd(rng, n)
    a, c = _affine_isometry(rng, n)
    a_inv = np.linalg.inv(a)
    # y = A x + c carries <a_i, x> >= b_i to <A^-T a_i, y> >= b_i + <A^-T a_i, c>
    dst_faces = [(a_inv.T @ nrm, b + float((a_inv.T @ nrm) @ c))
                 for nrm, b in src_faces]
    g_dst = a_inv.T @ g_src @ a_inv
    fexprs = ["+".join(f"{num(a[k, i])}*x{i + 1}" for i in range(n))
              + f"+{num(c[k])}" for k in range(n)]
    scene = {
        "N": {"dim": n, "g": _metric_text(g_src),
              "halfspaces": [{"a": nrm.tolist(), "b": b} for nrm, b in src_faces]},
        "M": {"dim": n, "g": _metric_text(g_dst),
              "halfspaces": [{"a": nrm.tolist(), "b": b} for nrm, b in dst_faces]},
        "f": fexprs,
        "faces": {str(i + 1): str(i + 1) for i in range(2 * n)},
    }
    path = _write(scene_dir, f"{tag}.json", scene)
    args = ["compare", "--scene", path, "--seed", str(sample_seed)]
    if conclusions:
        args.append("--conclusions")
    return {"kind": "compare.conclusions" if conclusions else "compare.hypotheses",
            "args": args,
            "ref": {"g_dst": g_dst.tolist(),
                    "normals_dst": [nrm.tolist() for nrm, _ in dst_faces]}}


def sphere_metric(n: int) -> dict:
    """Stereographic round unit sphere: g = 4 / (1 + |x|^2)^2 delta."""
    radius2 = "+".join(f"x{i}^2" for i in range(1, n + 1))
    conf = f"4/(1+{radius2})^2"
    return {"dim": n, "g": {f"{i}{i}": conf for i in range(1, n + 1)}}


def _point(rng, n, bound=0.8):
    return [_round(rng.uniform(-bound, bound), 6) for _ in range(n)]


def _curvature_job(rng, scene_dir, tag, n):
    path = _write(scene_dir, f"{tag}.json", sphere_metric(n))
    x = _point(rng, n)
    return {"kind": "curvature",
            "args": ["curvature", "--scene", path,
                     "--point", ",".join(repr(v) for v in x)],
            "ref": {"dim": n, "point": x}}


def _conformal_job(rng, scene_dir, tag, n):
    path = _write(scene_dir, f"{tag}.json", sphere_metric(n))
    c0 = _round(rng.uniform(1.5, 2.5), 6)
    c1, c2 = (_round(rng.uniform(0.0, 0.4), 6) for _ in range(2))
    factor = f"{num(c0)}+{num(c1)}*sin(x1)+{num(c2)}*cos(x2)"
    x = _point(rng, n, 0.6)
    return {"kind": "conformal",
            "args": ["conformal", "--metric", path, "--factor", factor,
                     "--point", ",".join(repr(v) for v in x)],
            "ref": {}}


def _wedge_jobs(rng, scene_dir, tag):
    """One constant-metric wedge, as the intersection and as the closure of
    its complement."""
    vertex = _point(rng, 2, 2.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    opening = rng.uniform(0.3, math.pi - 0.3)
    # normals of the two faces, rounded; the wedge is <a_k, x - vertex> >= 0
    a1 = [_round(math.cos(phi)), _round(math.sin(phi))]
    a2 = [_round(math.cos(phi + math.pi - opening)),
          _round(math.sin(phi + math.pi - opening))]
    g = _spd(rng, 2)
    jobs = []
    for region in ("intersection", "complement"):
        scene = {"dim": 2, "g": _metric_text(g), "region": region,
                 "halfspaces": [{"a": a, "b": a[0] * vertex[0] + a[1] * vertex[1]}
                                for a in (a1, a2)]}
        path = _write(scene_dir, f"{tag}_{region}.json", scene)
        jobs.append({"kind": f"angles.{region}",
                     "args": ["angles", "--scene", path, "--faces", "1,2",
                              "--point", ",".join(repr(v) for v in vertex)],
                     "ref": {"g": g.tolist(), "a1": a1, "a2": a2,
                             "region": region}})
    return jobs


def _geometry(rng, scene_dir):
    jobs = [_gaussbonnet_job(rng, scene_dir, f"gb_res{res}_{sides}gon", sides, res)
            for res, sides in ((12, 5), (12, 6), (24, 4))]
    for t, n in enumerate((2, 3, 3)):
        for conclusions in (False, True):
            jobs.append(_compare_job(rng, scene_dir, f"cmp{t}_{n}d_{int(conclusions)}",
                                     n, conclusions, rng.randrange(1000)))
    for n in range(2, 7):
        jobs.append(_curvature_job(rng, scene_dir, f"sphere{n}", n))
    for t, n in enumerate((2, 3)):
        jobs.append(_conformal_job(rng, scene_dir, f"conf{t}_{n}d", n))
    for w in range(5):
        jobs.extend(_wedge_jobs(rng, scene_dir, f"wedge{w}"))
    return jobs


# ---------------------------------------------------------------------------
# certify sweeps (part of the spectral workload)
# ---------------------------------------------------------------------------

# (dims, trials) per job position: trial counts vary, the cost per pass not
_CERTIFY_PLAN = (((2,), 200), ((2,), 500), ((4,), 200), ((6,), 60), ((2, 4, 6), 30))


def _certify(rng):
    jobs = []
    for dims, trials in _CERTIFY_PLAN:
        seed = rng.randrange(10**6)
        args = ["certify"]
        for d in dims:
            args += ["--dim", str(d)]
        args += ["--trials", str(trials), "--seed", str(seed)]
        jobs.append({"kind": "certify", "args": args,
                     "ref": {"dims": list(dims), "trials": trials, "seed": seed}})
    return jobs


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

_HARDY_PLAN = ((0.6, 2400), (1.0, 1200), (2.0, 1200), (-1.0, 1200))
# (resolution, [(polygon type, orientation sign), ...]) per index job
_INDEX_PLAN = (
    (16, [("square", 1)]),
    (24, [("right_triangle", -1)]),
    (32, [("right_triangle", 1)]),
    (20, [("square", 1), ("right_triangle", 1)]),
    (12, [("square", 1), ("square", -1)]),
)
_SECTOR_GRIDS = (4096, 4096, 8192, 16384)
_CORNERS = {"square": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
            "right_triangle": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]}


def _index_component(rng, ptype, sign):
    """Affine map s R(theta) [diag(1, -1)] + offset with every corner image
    strictly inside the unit square."""
    scale = rng.uniform(0.3, 0.7)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    mat = scale * rot @ np.diag([1.0, float(sign)])
    mat = np.array([[_round(v) for v in row] for row in mat])
    imgs = np.array([mat @ np.array(p) for p in _CORNERS[ptype]])
    lo, hi = imgs.min(axis=0), imgs.max(axis=0)
    slack = 1.0 - (hi - lo) - 2e-6
    offset = np.array([_round(-lo[k] + 1e-6 + rng.uniform(0.0, slack[k]))
                       for k in range(2)])
    return {"polygon": {"type": ptype},
            "map": {"matrix": mat.tolist(), "offset": offset.tolist()}}


def _spectral(rng, scene_dir):
    jobs = []
    for lam, grid in _HARDY_PLAN:
        delta = _round(rng.uniform(0.5, 2.0), 6)
        jobs.append({"kind": "hardy",
                     "args": ["hardy", "--lambda", repr(lam), "--delta", repr(delta),
                              "--grid", str(grid)],
                     "ref": {"lam": lam, "delta": delta, "grid": grid}})
    for t, (resolution, comps) in enumerate(_INDEX_PLAN):
        scene = {"resolution": resolution, "M": {"type": "square"},
                 "N": [_index_component(rng, p, s) for p, s in comps]}
        path = _write(scene_dir, f"index{t}.json", scene)
        jobs.append({"kind": "index", "args": ["index", "--scene", path],
                     "ref": {"components": len(comps),
                             "signs": [s for _, s in comps]}})
    lams = [0.49] + [_round(rng.choice((-1, 1)) * rng.uniform(lo, hi), 6)
                     for lo, hi in ((0.05, 0.45), (0.05, 0.45), (0.55, 1.5), (1.5, 4.0))]
    for lam in lams:
        jobs.append({"kind": "deficiency",
                     "args": ["deficiency", "--lambda", repr(lam)],
                     "ref": {"lam": lam}})
    for grid in _SECTOR_GRIDS:
        alpha = _round(rng.uniform(0.8, 3.0), 9)
        beta = _round(rng.uniform(0.8, 3.0), 9)
        jobs.append({"kind": "spectrum.sector",
                     "args": ["spectrum", "sector", "--alpha", repr(alpha),
                              "--beta", repr(beta), "--numeric", str(grid)],
                     "ref": {"alpha": alpha, "beta": beta, "count": 5}})
    for _ in range(3):
        n = rng.randrange(3, 13)
        jobs.append({"kind": "spectrum.bound",
                     "args": ["spectrum", "bound", "--dim", str(n)],
                     "ref": {"dim": n}})
    for lo, hi in ((0.5, math.pi / 2), (math.pi / 2, math.pi - 0.3),
                   (math.pi + 0.3, 2.0 * math.pi - 0.5)):
        angle = _round(rng.uniform(lo, hi), 9)
        radii = sorted((_round(rng.uniform(0.01, 0.1), 6) for _ in range(3)),
                       reverse=True)
        jobs.append({"kind": "smooth",
                     "args": ["smooth", "--angle", repr(angle),
                              "--radii", ",".join(repr(r) for r in radii)],
                     "ref": {"angle": angle, "radii": radii}})
    return jobs + _certify(rng)


_BUILDERS = {"geometry": _geometry, "spectral": _spectral}


def make_jobs(workload: str, seed: int, scene_dir: str) -> list[dict]:
    """Write the workload's scenes for ``seed`` into ``scene_dir`` and
    return its job list (each job: ``kind``, CLI ``args``, oracle ``ref``)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(scene_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng, scene_dir)
    for t, job in enumerate(jobs):
        job["id"] = f"{t:02d}-{job['kind']}"
    return jobs
