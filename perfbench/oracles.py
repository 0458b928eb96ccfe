"""Oracles for every job kind, computed without the program.

``check(job, exit_code, stdout)`` returns a :class:`Verdict`.  A job fails
when its exit code, its output shape or any value disagrees with the
closed form or the independent recomputation for its kind; unparsable
output and crashes count as failures.  ``Verdict.values`` lists the
``(value, reference)`` pairs that were checked numerically, for the
correct-digits metric.

Pass/fail tolerances are the program's documented acceptance tolerances
(README): curvature values 1e-4, Gauss-Bonnet and conformal residuals at
the CLI default 1e-3, spectrum agreement 1e-3, turning integrals 1e-8.
Exact closed forms are held to 1e-9 or tighter.

An oracle that cannot run (for instance the sparse SVD does not converge)
raises :class:`OracleUnavailable`; the benchmark then stops with a nonzero
exit instead of reporting a result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


class OracleUnavailable(RuntimeError):
    """The oracle's own computation could not be carried out."""


class Mismatch(Exception):
    """The program's output disagrees with the oracle."""


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    values: list = field(default_factory=list)


def digits(value: float, ref: float) -> float:
    """Correct significant digits of ``value`` against ``ref``."""
    err = abs(value - ref) / max(abs(ref), 1.0)
    return -math.log10(max(err, 1e-16))


class _Checker:
    def __init__(self):
        self.values = []

    def close(self, name, value, ref, tol):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise Mismatch(f"{name}: expected a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value) or abs(value - ref) > tol * max(abs(ref), 1.0):
            raise Mismatch(f"{name}: {value!r} differs from {ref!r} (tol {tol:g})")
        self.values.append((value, ref))

    @staticmethod
    def equal(name, value, ref):
        if value != ref or type(value) is not type(ref):
            raise Mismatch(f"{name}: {value!r} != {ref!r}")


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def _sphere(c, job, out):
    n = job["ref"]["dim"]
    x = np.array(job["ref"]["point"])
    conf = 4.0 / (1.0 + x @ x) ** 2
    c.equal("exit code", job["_code"], 0)
    c.close("scalar_curvature", out["scalar_curvature"], n * (n - 1.0), 1e-4)
    ricci = out["ricci"]
    if len(ricci) != n or any(len(row) != n for row in ricci):
        raise Mismatch("ricci has the wrong shape")
    for i in range(n):
        for j in range(n):
            ref = (n - 1.0) * conf if i == j else 0.0
            c.close(f"ricci[{i}][{j}]", ricci[i][j], ref, 1e-4)
    c.equal("residuals_within_tol", out["residuals_within_tol"], True)


def _gaussbonnet(c, job, out):
    c.equal("exit code", job["_code"], 0)
    c.equal("resolution", out["resolution"], job["ref"]["resolution"])
    c.close("defect", out["defect"], 0.0, 1e-3)
    c.equal("within_tol", out["within_tol"], True)


def _edge_angle(g_inv, a, b):
    """Interior dihedral angle between faces with inner covector normals
    a, b under a constant metric: cos = -<a, b>_{g^-1} / (|a| |b|)."""
    cos = -(a @ g_inv @ b) / math.sqrt((a @ g_inv @ a) * (b @ g_inv @ b))
    return math.acos(max(-1.0, min(1.0, cos)))


def _compare(c, job, out):
    mode = job["kind"].split(".")[1]
    c.equal("exit code", job["_code"], 0)
    c.equal("mode", out["mode"], mode)
    c.equal("holds", out["holds"], True)
    margins = out["margins"]
    names = ["scalar", "mean_curvature", "angle"]
    if mode == "hypotheses":
        names.append("angle_cap")
    if sorted(margins) != sorted(names):
        raise Mismatch(f"margins {sorted(margins)} != {sorted(names)}")
    for name in ("scalar", "mean_curvature", "angle"):
        c.close(name, margins[name]["value"], 0.0, 1e-10)
    if mode == "hypotheses":
        g_inv = np.linalg.inv(np.array(job["ref"]["g_dst"]))
        normals = [np.array(v) for v in job["ref"]["normals_dst"]]
        widest = max(
            _edge_angle(g_inv, normals[i], normals[j])
            for i in range(len(normals)) for j in range(i + 1, len(normals))
            if abs(abs(normals[i] @ normals[j])
                   - np.linalg.norm(normals[i]) * np.linalg.norm(normals[j])) > 1e-9
        )
        c.close("angle_cap", margins["angle_cap"]["value"], math.pi - widest, 1e-10)


def _conformal(c, job, out):
    c.equal("exit code", job["_code"], 0)
    c.equal("within_tol", out["within_tol"], True)
    for name, value in out["residuals"].items():
        c.close(f"residual {name}", value, 0.0, 1e-3)


def _angles(c, job, out):
    ref = job["ref"]
    g = np.array(ref["g"])
    a1, a2 = np.array(ref["a1"]), np.array(ref["a2"])
    # boundary rays of the wedge: along face 1 into face 2's side and back
    r1 = np.array([-a1[1], a1[0]])
    r1 = r1 if a2 @ r1 > 0 else -r1
    r2 = np.array([-a2[1], a2[0]])
    r2 = r2 if a1 @ r2 > 0 else -r2
    theta = math.acos((r1 @ g @ r2) / math.sqrt((r1 @ g @ r1) * (r2 @ g @ r2)))
    complement = ref["region"] == "complement"
    c.equal("exit code", job["_code"], 0)
    c.equal("faces", out["faces"], [1, 2])
    c.close("angle", out["angle"], 2.0 * math.pi - theta if complement else theta,
            1e-9)
    c.equal("reflex", out["reflex"], complement)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _certify(c, job, out):
    ref = job["ref"]
    c.equal("exit code", job["_code"], 0)
    c.equal("trials", out["trials"], ref["trials"])
    c.equal("seed", out["seed"], ref["seed"])
    c.equal("all_nonnegative", out["all_nonnegative"], True)
    rows = out["dims"]
    if sorted(rows) != sorted(str(d) for d in ref["dims"]):
        raise Mismatch(f"dims {sorted(rows)} != {ref['dims']}")
    for d, row in rows.items():
        for name in ("curvature_min_eig", "boundary_min_eig"):
            value = row[name]
            if not value >= -1e-9:
                raise Mismatch(f"dim {d} {name} = {value!r} < 0")
            # a PSD certificate is exact at 0: only negativity is error
            c.values.append((min(float(value), 0.0), 0.0))


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def hardy_reference(lam: float, delta: float, grid: int) -> float:
    """Largest singular value of the discretized triangle kernel, matrix-free.

    For lam > 0, (K f)_i = h r_i^-lam sum_{j<=i} r_j^lam f_j (a prefix sum);
    for lam < 0 the sum runs over j >= i and the sign flips.  The adjoint
    is the reversed sum.  ARPACK (``svds``, k = 1) needs O(grid) per
    product instead of the dense O(grid^3) decomposition.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

    h = delta / grid
    r = (np.arange(grid) + 0.5) * h
    up, down = r**lam, r ** (-lam)

    def prefix(v):
        return np.cumsum(v)

    def suffix(v):
        return np.cumsum(v[::-1])[::-1]

    inner, outer = (prefix, suffix) if lam > 0 else (suffix, prefix)

    def matvec(f):
        return h * down * inner(up * np.ravel(f))

    def rmatvec(g):
        return h * up * outer(down * np.ravel(g))

    op = LinearOperator((grid, grid), matvec=matvec, rmatvec=rmatvec,
                        dtype=float)
    try:
        s = svds(op, k=1, tol=0, v0=np.ones(grid), return_singular_vectors=False)
    except ArpackNoConvergence as exc:
        raise OracleUnavailable(f"svds did not converge: {exc}") from exc
    return float(s[0])


def _hardy(c, job, out):
    ref = job["ref"]
    lam, delta, grid = ref["lam"], ref["delta"], ref["grid"]
    c.equal("exit code", job["_code"], 0)
    c.close("lambda", out["lambda"], lam, 0.0)
    c.close("delta", out["delta"], delta, 0.0)
    c.close("numeric_norm", out["numeric_norm"],
            hardy_reference(lam, delta, grid), 1e-9)
    c.close("analytic_bound", out["analytic_bound"], 1.0 / (abs(lam) - 0.5), 1e-12)
    c.equal("within_bound", out["within_bound"], True)


def _index(c, job, out):
    comps = job["ref"]["components"]
    deg = sum(job["ref"]["signs"])
    match = comps == deg  # every component is contractible, chi(target) = 1
    c.equal("exit code", job["_code"], 0 if match else 1)
    for name, ref in (("b0", comps), ("b1", 0), ("b2", 0), ("index", comps),
                      ("chi", 1), ("deg", deg), ("match", match)):
        c.equal(name, out[name], ref)


def _deficiency(c, job, out):
    lam = job["ref"]["lam"]
    c.equal("exit code", job["_code"], 0)
    c.close("lambda", out["lambda"], lam, 0.0)
    c.equal("is_l2", out["is_l2"], abs(lam) < 0.5)


def _lattice(alpha, beta, k):
    return -beta / (2.0 * alpha) + k * math.pi / alpha


def _sector(c, job, out):
    ref = job["ref"]
    alpha, beta, count = ref["alpha"], ref["beta"], ref["count"]
    closed = sorted(_lattice(alpha, beta, k) for k in range(-count, count + 1))
    # the lattice is spaced pi / alpha, so +-(count + beta / 2pi + 2) periods
    # around 0 hold every point within reach of the numeric window
    reach = count + int(beta / (2.0 * math.pi)) + 2
    lattice = [_lattice(alpha, beta, k) for k in range(-reach, reach + 1)]
    min_abs = min(abs(v) for v in lattice)
    c.equal("exit code", job["_code"], 0)
    got = out["closed"]["eigenvalues"]
    if len(got) != len(closed):
        raise Mismatch(f"{len(got)} closed eigenvalues, expected {len(closed)}")
    for k, (v, r) in enumerate(zip(got, closed)):
        c.close(f"closed[{k}]", v, r, 1e-12)
    c.close("min_abs", out["min_abs"], min_abs, 1e-12)
    c.equal("esa", out["esa"], min_abs >= 0.5)
    numeric = out["numeric"]["eigenvalues"]
    if len(numeric) != count:
        raise Mismatch(f"{len(numeric)} numeric eigenvalues, expected {count}")
    for k, v in enumerate(numeric):
        nearest = min(lattice, key=lambda r: abs(v - r))
        c.close(f"numeric[{k}]", v, nearest, 1e-3)
    c.equal("numeric_matches_closed", out["numeric_matches_closed"], True)


def _bound(c, job, out):
    n = job["ref"]["dim"]
    c.equal("exit code", job["_code"], 0)
    c.equal("dim", out["dim"], n)
    c.close("bound", out["bound"], math.sqrt((n - 1) * (n - 2)) / 2.0, 1e-12)
    c.equal("at_least_half", out["at_least_half"], True)


def _smooth(c, job, text):
    angle, radii = job["ref"]["angle"], job["ref"]["radii"]
    lines = text.splitlines()
    c.equal("exit code", job["_code"], 0)
    c.equal("header", lines[0] if lines else "",
            "radius,turning_integral,weighted_integral,error")
    if len(lines) != len(radii) + 1:
        raise Mismatch(f"{len(lines) - 1} rows, expected {len(radii)}")
    for r, line in zip(radii, lines[1:]):
        radius, turning, weighted, _ = (float(v) for v in line.split(","))
        c.close("radius", radius, r, 0.0)
        c.close(f"turning integral at r={r}", turning, math.pi - angle, 1e-8)
        # the default test function is 1, so the weighted integral is the same
        c.close(f"weighted integral at r={r}", weighted, math.pi - angle, 1e-8)


_JSON_KINDS = {
    "curvature": _sphere,
    "gaussbonnet": _gaussbonnet,
    "compare.hypotheses": _compare,
    "compare.conclusions": _compare,
    "conformal": _conformal,
    "angles.intersection": _angles,
    "angles.complement": _angles,
    "certify": _certify,
    "hardy": _hardy,
    "index": _index,
    "deficiency": _deficiency,
    "spectrum.sector": _sector,
    "spectrum.bound": _bound,
}
KINDS = frozenset(_JSON_KINDS) | {"smooth"}


def check(job: dict, exit_code: int, stdout: str) -> Verdict:
    """Judge one job's exit code and stdout against its oracle."""
    c = _Checker()
    probe = dict(job, _code=exit_code)
    try:
        if job["kind"] == "smooth":
            _smooth(c, probe, stdout)
        else:
            try:
                out = json.loads(stdout)
            except json.JSONDecodeError:
                raise Mismatch(f"unparsable output (exit {exit_code})") from None
            _JSON_KINDS[job["kind"]](c, probe, out)
    except Mismatch as exc:
        return Verdict(False, str(exc))
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return Verdict(False, f"malformed output: {type(exc).__name__}: {exc}")
    return Verdict(True, "", c.values)
