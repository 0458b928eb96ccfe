import itertools
import math
import random
import re

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import symbolic_curvature, sphere_chart_metric_sympy
from dihedral_lab.curvature import (
    DegenerateCornerError,
    DomainError,
    PolyDomain,
    curvature_tensors,
    dihedral_angle,
    gauss_bonnet_defect,
    mean_curvature,
    _first_order,
    _householder,
    _riemann,
)
from dihedral_lab.bessel import _gauss_legendre
from dihedral_lab.comparison import _edge_angles, _kernel
from dihedral_lab.expressions import (
    MetricNotPositiveDefinite,
    euclidean_metric,
    parse_metric,
)


def stacked_curvature(g, pts):
    """Metric, inverse, Gamma, Riemann, Ricci and scalar curvature of
    ``curvature_tensors`` at the rows of ``pts``, each stacked into an array
    with a leading point axis."""
    packs = [curvature_tensors(g, x) for x in pts]
    return tuple(np.array([getattr(pack, name) for pack in packs])
                 for name in ("metric", "metric_inv", "gamma", "riemann", "ricci", "scalar"))


def householder_null(rows):
    """The trailing columns of ``_householder``'s Q, past the rank: an
    orthonormal basis of the null space of ``rows``."""
    span, rank = _householder(rows)
    return span[rank:]


def sphere_metric(n):
    r2 = "+".join(f"x{i}^2" for i in range(1, n + 1))
    expr = f"4/(1+{r2})^2"
    return parse_metric({f"{i}{i}": expr for i in range(1, n + 1)}, n)


def unit_square():
    return PolyDomain.from_halfspaces([
        ((1.0, 0.0), 0.0),
        ((-1.0, 0.0), -1.0),
        ((0.0, 1.0), 0.0),
        ((0.0, -1.0), -1.0),
    ])


def unit_cube():
    hs = []
    for k in range(3):
        a = [0.0] * 3
        a[k] = 1.0
        hs.append((tuple(a), 0.0))
        a = [0.0] * 3
        a[k] = -1.0
        hs.append((tuple(a), -1.0))
    return PolyDomain.from_halfspaces(hs)


def wedge2d(theta, vertex=(0.0, 0.0), region="intersection"):
    # sector swept from the x-axis to the theta-ray around ``vertex``; inner
    # normals point into the sector
    a0 = np.array([0.0, 1.0])                               # face 0: the x-axis
    a1 = np.array([math.sin(theta), -math.cos(theta)])      # face 1: the theta-ray
    v = np.asarray(vertex, dtype=float)
    return PolyDomain.from_halfspaces(
        [(a0, a0 @ v), (a1, a1 @ v)], region=region,
        window=(tuple(v - 2.0), tuple(v + 2.0)))


def constant_metric(gm):
    text = {f"{i + 1}{j + 1}": format(gm[i, j], ".17f")
            for i in range(2) for j in range(i, 2)}
    return parse_metric(text, 2)


class TestCurvatureTensors:
    def test_flat_is_zero(self):
        g = euclidean_metric(3)
        pack = curvature_tensors(g, (0.2, -0.4, 1.0))
        assert pack.scalar == pytest.approx(0.0, abs=1e-13)
        assert np.abs(pack.riemann).max() <= 1e-13

    def test_sphere2_scalar(self):
        pack = curvature_tensors(sphere_metric(2), (0.3, -0.2))
        assert pack.scalar == pytest.approx(2.0, abs=1e-13)

    def test_sphere3_scalar_origin(self):
        pack = curvature_tensors(sphere_metric(3), (0.0, 0.0, 0.0))
        assert pack.scalar == pytest.approx(6.0, abs=1e-13)

    def test_sphere3_scalar_offcenter(self):
        pack = curvature_tensors(sphere_metric(3), (0.2, 0.1, -0.3))
        assert pack.scalar == pytest.approx(6.0, abs=2e-13)

    def test_against_symbolic_oracle_sphere(self):
        gs, xs = sphere_chart_metric_sympy(2)
        point = (0.3, -0.2)
        gamma_o, riem_o, ric_o, sc_o = symbolic_curvature(gs, xs, point)
        pack = curvature_tensors(sphere_metric(2), point)
        assert np.allclose(pack.gamma, gamma_o, rtol=0, atol=1e-13)
        assert np.allclose(pack.riemann, riem_o, rtol=0, atol=4e-13)
        assert np.allclose(pack.ricci, ric_o, rtol=0, atol=1e-13)
        assert pack.scalar == pytest.approx(sc_o, abs=1e-13)

    def test_against_symbolic_oracle_offdiagonal(self):
        xs = sp.symbols("x1 x2", real=True)
        gs = sp.Matrix([[1 + xs[1] ** 2, xs[0] * xs[1] / 2],
                        [xs[0] * xs[1] / 2, 2 + sp.sin(xs[0]) ** 2]])
        point = (0.4, 0.7)
        _, riem_o, ric_o, sc_o = symbolic_curvature(gs, list(xs), point)
        g = parse_metric({"11": "1+x2^2", "12": "x1*x2/2",
                          "22": "2+sin(x1)^2"}, 2)
        pack = curvature_tensors(g, point)
        assert np.allclose(pack.riemann, riem_o, rtol=0, atol=1e-13)
        assert np.allclose(pack.ricci, ric_o, rtol=0, atol=1e-13)
        assert pack.scalar == pytest.approx(sc_o, abs=1e-13)

    @pytest.mark.parametrize("point", [(0.3, -0.2), (0.0, 0.0), (0.7, 0.5)])
    def test_riemann_symmetries(self, point):
        pack = curvature_tensors(sphere_metric(2), point)
        assert pack.antisymmetry_residual() <= 1e-13
        assert pack.pair_symmetry_residual() <= 1e-13
        assert pack.bianchi_residual() <= 1e-13

    def test_riemann_symmetries_3d(self):
        pack = curvature_tensors(sphere_metric(3), (0.1, 0.2, -0.1))
        assert pack.antisymmetry_residual() <= 1e-13
        assert pack.pair_symmetry_residual() <= 1e-13
        assert pack.bianchi_residual() <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sphere_scalar_exact(self, n):
        g = sphere_metric(n)
        for x in np.random.default_rng(n).uniform(-1.0, 1.0, size=(4, n)):
            assert abs(curvature_tensors(g, x).scalar - n * (n - 1)) <= 1e-12

    def test_scaling_law_scalar(self):
        #c^2 g divides Sc by c^2
        c2 = 2.25
        g = sphere_metric(2)
        scaled = parse_metric(
            {"11": f"{c2}*4/(1+x1^2+x2^2)^2", "22": f"{c2}*4/(1+x1^2+x2^2)^2"}, 2
        )
        s1 = curvature_tensors(g, (0.2, 0.1)).scalar
        s2 = curvature_tensors(scaled, (0.2, 0.1)).scalar
        assert s2 == pytest.approx(s1 / c2, abs=1e-13)


    def test_batch_matches_single_points(self):
        # compare's kernel over a list of points, at each point of a metric
        # that varies, against curvature_tensors there, bit for bit
        g = parse_metric({"11": "1+x2^2", "12": "x1*x2/2", "22": "2+sin(x1)^2"}, 2)
        pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(9, 2)).tolist()
        batch = _kernel(g, pts, lambda gm, ginv, d2g, bracket, gamma: (
            gm, ginv, gamma, *_riemann(ginv, d2g, bracket, gamma)))
        for (_, got), x in zip(batch, pts):
            pack = curvature_tensors(g, x)
            assert got == (pack.metric, pack.metric_inv, pack.gamma, pack.riemann,
                           pack.ricci, pack.scalar)

    def test_not_positive_definite_names_the_point(self):
        g = parse_metric({"11": "x1", "22": "1"}, 2)
        with pytest.raises(MetricNotPositiveDefinite, match=r"\[-0\.5, 0\.0\]"):
            _kernel(g, [(0.5, 0.0), (-0.5, 0.0), (-1.0, 0.0)], lambda *parts: None)


def random_metric(rng, n):
    """A non-conformal metric with nonlinear off-diagonal entries, positive
    definite on [-1, 1]^n: diagonal entries >= 1.6, off-diagonal row sums
    <= 0.6."""
    def c(lo, hi):
        return f"({float(rng.uniform(lo, hi))!r})"

    def var():
        return f"x{int(rng.integers(1, n + 1))}"

    spec = {}
    for p in range(1, n + 1):
        spec[f"{p}{p}"] = (f"{c(2.0, 3.0)} + {c(-0.4, 0.4)}"
                           f"*sin({c(-1.5, 1.5)}*{var()} + {c(-1.5, 1.5)}*{var()})")
        for q in range(p + 1, n + 1):
            bound = 0.3 / (n - 1)
            spec[f"{p}{q}"] = (f"{c(-bound, bound)}*{var()}*{var()}"
                               f" + {c(-bound, bound)}*cos({c(-2.0, 2.0)}*{var()})")
    return parse_metric(spec, n)


class TestLoweredKernel:
    """The lowered Riemann formula against the d Gamma chain it replaced, and
    against a nonlinear change of chart."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    def test_matches_dgamma_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_metric(rng, n)
        pts = rng.uniform(-1.0, 1.0, size=(5, n))
        _, _, _, riemann, ricci, scalar = stacked_curvature(g, pts)
        riem_o, ric_o, sc_o = _oracles.dgamma_curvature(g, pts)
        tol = 1e-13 * max(1.0, np.abs(riem_o).max())
        assert np.abs(riemann - riem_o).max() <= tol
        assert np.abs(ricci - ric_o).max() <= tol
        assert np.abs(scalar - sc_o).max() <= tol

    @staticmethod
    def pullback(spec, n, quad):
        """``phi^* g`` as entry texts ``D phi^T g(phi(y)) D phi``, and ``phi``, for
        ``phi(y)_i = y_i + sum quad[i][(a, b)] y_a y_b`` (0-based a, b)."""
        terms = [[(repr(float(v)), a, b) for (a, b), v in quad[i].items()]
                 for i in range(n)]
        phi = ["(" + " + ".join([f"x{i + 1}"] + [f"({v})*x{a + 1}*x{b + 1}"
                                                 for v, a, b in terms[i]]) + ")"
               for i in range(n)]

        def dphi(i, c):  # d phi_i / d y_c
            parts = [repr(float(i == c))]
            for v, a, b in terms[i]:
                parts += [f"({v})*x{b + 1}"] * (a == c) + [f"({v})*x{a + 1}"] * (b == c)
            return "(" + " + ".join(parts) + ")"

        def moved(i, j):  # g_ij with x replaced by phi(y)
            text = spec.get(f"{min(i, j) + 1}{max(i, j) + 1}", "0")
            return re.sub(r"x(\d+)", lambda m: phi[int(m[1]) - 1], text)

        pulled = {f"{c + 1}{d + 1}": " + ".join(
            f"{dphi(i, c)}*({moved(i, j)})*{dphi(j, d)}" for i in range(n) for j in range(n))
            for c in range(n) for d in range(c, n)}

        def image(y):
            return np.array([y[i] + sum(float(v) * y[a] * y[b] for v, a, b in terms[i])
                             for i in range(n)])

        return parse_metric(pulled, n), image

    @pytest.mark.parametrize("spec, quad", [
        ({"11": "4/(1+x1^2+x2^2)^2", "22": "4/(1+x1^2+x2^2)^2"},
         [{(0, 0): 0.3}, {(0, 1): 0.2}]),
        ({"11": "1+x2^2", "12": "x1*x2/2", "22": "2+sin(x1)^2"},
         [{(1, 1): -0.25, (0, 1): 0.1}, {(0, 0): 0.3}]),
        ({"11": "1+x2^2", "12": "x3/4", "22": "2+x1^2", "23": "x2/5", "33": "1"},
         [{(0, 1): 0.3}, {(2, 2): 0.2}, {(0, 0): -0.25, (1, 2): 0.15}]),
        ({f"{i}{i}": "4/(1+x1^2+x2^2+x3^2+x4^2)^2" for i in range(1, 5)},
         [{(1, 2): 0.2}, {(0, 0): 0.3}, {(3, 3): -0.2}, {(0, 2): 0.25}]),
    ])
    def test_invariant_under_a_quadratic_chart(self, spec, quad):
        n = len(quad)
        g = parse_metric(spec, n)
        pulled, image = self.pullback(spec, n, quad)
        for y in np.random.default_rng(n).uniform(-0.4, 0.4, size=(4, n)):
            there, here = curvature_tensors(g, image(y)), curvature_tensors(pulled, y)
            scale = max(1.0, abs(there.scalar))
            assert here.scalar == pytest.approx(there.scalar, abs=1e-12 * scale)
            # g^-1 Ric is a (1, 1) tensor: its eigenvalues do not see the chart
            eig_here = np.sort(np.linalg.eigvals(
                np.asarray(here.metric_inv) @ np.asarray(here.ricci)).real)
            eig_there = np.sort(np.linalg.eigvals(
                np.asarray(there.metric_inv) @ np.asarray(there.ricci)).real)
            assert np.allclose(eig_here, eig_there, rtol=0, atol=1e-12 * scale)


def mixed_metric(rng, n, constant):
    """``random_metric`` with the entries (p, q) in ``constant`` (0-based,
    p <= q) replaced by constants within the same bounds, so it stays
    positive definite on [-1, 1]^n."""
    g = random_metric(rng, n)
    bound = 0.6 / max(n - 1, 1)
    spec = {f"{p + 1}{q + 1}": (repr(float(rng.uniform(2.0, 3.0))) if p == q else
                                repr(float(rng.uniform(-bound, bound))))
            if (p, q) in constant else g.entries[p, q].to_text()
            for p in range(n) for q in range(p, n)}
    return parse_metric(spec, n)


def leaves(part):
    """The components of nested lists, in order."""
    return [v for item in part for v in leaves(item)] if type(part) is list else [part]


class TestComponentKernel:
    """The one curvature kernel on floats: metrics that mix constant and
    varying entries against the d Gamma chain, and fully constant metrics."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), m=st.integers(1, 6),
           mask=st.integers(0, 2**15 - 1))
    def test_mixed_batches_match_dgamma_and_points(self, seed, n, m, mask):
        rng = np.random.default_rng(seed)
        upper = [(p, q) for p in range(n) for q in range(p, n)]
        g = mixed_metric(rng, n, {key for t, key in enumerate(upper) if mask >> t & 1})
        pts = rng.uniform(-1.0, 1.0, size=(m, n))
        gmat, ginv, gamma, riemann, ricci, scalar = stacked_curvature(g, pts)
        assert riemann.shape == (m, n, n, n, n) and ricci.shape == (m, n, n)
        riem_o, ric_o, sc_o = _oracles.dgamma_curvature(g, pts)
        tol = 1e-13 * max(1.0, np.abs(riem_o).max())
        assert np.abs(riemann - riem_o).max() <= tol
        assert np.abs(ricci - ric_o).max() <= tol
        assert np.abs(scalar - sc_o).max() <= tol
        assert np.abs(ginv @ gmat - np.eye(n)).max() <= 1e-14

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), m=st.integers(1, 9))
    def test_constant_metrics_stay_on_floats(self, seed, n, m):
        rng = np.random.default_rng(seed)
        g = mixed_metric(rng, n, {(p, q) for p in range(n) for q in range(p, n)})
        pts = rng.uniform(-1.0, 1.0, size=(m, n))
        assert all(type(v) is float for x in pts for part in _first_order(g, x)
                   for v in leaves(part))
        gmat, ginv, gamma, riemann, ricci, scalar = stacked_curvature(g, pts)
        assert (gmat.shape, riemann.shape, ricci.shape, scalar.shape) == (
            (m, n, n), (m, n, n, n, n), (m, n, n), (m,))
        want = np.array([[g.entries[min(i, j), max(i, j)].eval(()) for j in range(n)]
                         for i in range(n)])
        assert np.array_equal(gmat, np.broadcast_to(want, (m, n, n)))
        assert np.allclose(ginv, np.linalg.inv(want), rtol=1e-14, atol=1e-14)
        riem_o, ric_o, sc_o = _oracles.dgamma_curvature(g, pts)
        assert not riemann.any() and not riem_o.any()
        assert not ricci.any() and not scalar.any() and not gamma.any()


class TestFaceGeometry:
    def test_flat_face(self):
        assert mean_curvature(euclidean_metric(3), unit_cube(), 0, (0.0, 0.5, 0.5)) == 0.0

    def test_point_not_on_face(self):
        with pytest.raises(DomainError):
            mean_curvature(euclidean_metric(3), unit_cube(), 0, (0.5, 0.5, 0.5))

    @pytest.mark.parametrize("n,c", [(2, 0.7), (3, -0.4)])
    def test_conformal_mean_curvature_law(self, n, c):
        # g = exp(2u) delta with u = 0 on the face x_n = 0 and du/dn = c
        # gives H = -(n-1) c on that face.
        u = f"{c}*x{n}"
        expr = f"exp(2*({u}))"
        g = parse_metric({f"{i}{i}": expr for i in range(1, n + 1)}, n)
        # face 0 is the plane x_n = 0; close the domain off with a box
        hs = [(tuple(1.0 if k == n - 1 else 0.0 for k in range(n)), 0.0)]
        for k in range(n):
            a = [0.0] * n
            a[k] = -1.0
            hs.append((tuple(a), -2.0))  # x_k <= 2
            if k < n - 1:
                a = [0.0] * n
                a[k] = 1.0
                hs.append((tuple(a), -2.0))  # x_k >= -2
        dom = PolyDomain.from_halfspaces(hs)
        x = tuple(0.3 if k < n - 1 else 0.0 for k in range(n))
        assert mean_curvature(g, dom, 0, x) == pytest.approx(-(n - 1) * c, abs=1e-13)

    def test_scaling_law_mean_curvature(self):
        # c^2 g divides H by c, on every face of the unit square
        c2, c = 9.0, 3.0
        spec = {"11": "1 + 0.3*x2^2", "12": "0.2*x1*x2", "22": "1 + 0.1*x1"}
        g = parse_metric(spec, 2)
        scaled = parse_metric({k: f"{c2}*({v})" for k, v in spec.items()}, 2)
        for face, x in enumerate([(0.0, 0.3), (1.0, 0.7), (0.4, 0.0), (0.6, 1.0)]):
            want = mean_curvature(g, unit_square(), face, x) / c
            got = mean_curvature(scaled, unit_square(), face, x)
            assert got == pytest.approx(want, abs=1e-13)

    ORACLE_METRICS = {
        "polynomial": (2, {"11": "1 + 0.3*x2^2", "12": "0.2*x1*x2", "22": "1 + 0.1*x1"}),
        "trigonometric": (2, {"11": "2 + sin(x1*x2)", "12": "0.3*cos(x1)",
                              "22": "1.5 + 0.4*x1*x2^2"}),
        "full-3d": (3, {"11": "1+x2^2", "12": "x3/4", "13": "0.1*x1*x2", "22": "2+x1^2",
                        "23": "x2/5", "33": "1+0.2*sin(x1*x3)"}),
    }

    # 3-D cells with faces off the coordinate planes, and the faces checked
    TILTED = (
        ([(tuple(-float(s) for s in signs), -1.0)
          for signs in itertools.product((1, -1), repeat=3)], range(8)),  # octahedron
        ([((0.0, 0.0, 1.0), 0.0), ((1.0, 0.0, -0.5), 0.0), ((-1.0, 0.0, -0.5), -1.0),
          ((0.0, 1.0, -0.5), 0.0), ((0.0, -1.0, -0.5), -1.0)], range(1, 5)),  # square pyramid
        ([*zip(unit_cube().a, unit_cube().b), ((-1.0, -1.0, -1.0), -2.99)], (6,)),  # cut cube
    )

    def oracle_faces(self, n):
        """``(domain, face, point)``: every face of the unit square or cube
        (faces 2k, 2k + 1 are x_k = 0, x_k = 1); for n = 3 the tilted faces of
        ``TILTED`` at seeded convex combinations of their vertices; and four
        half-spaces of seeded random normal through a seeded point."""
        rng, box, free = random.Random(n), unit_square() if n == 2 else unit_cube(), (0.3, 0.65)
        for face in range(2 * n):
            axis, rest = face // 2, iter(free)
            yield box, face, tuple(float(face % 2) if k == axis else next(rest) for k in range(n))
        for halfspaces, faces in self.TILTED if n == 3 else ():
            dom = PolyDomain.from_halfspaces(halfspaces)
            points, _, on = dom._lattice
            for face in faces:
                weights = {v: rng.random() for v in sorted(on[face])}
                yield dom, face, tuple(sum(w * points[v][k] for v, w in weights.items())
                                       / sum(weights.values()) for k in range(n))
        for _ in range(4):
            a, x = [rng.gauss(0.0, 1.0) for _ in range(n)], [rng.random() for _ in range(n)]
            yield PolyDomain.from_halfspaces([(a, float(np.dot(a, x)))], validate=False), 0, x

    @pytest.mark.parametrize("region", ["intersection", "complement"])
    @pytest.mark.parametrize("metric", sorted(ORACLE_METRICS))
    def test_mean_curvature_matches_divergence_oracle(self, metric, region):
        # H = -div_g nu in mpmath from sympy first derivatives, on faces along
        # and off the coordinate planes
        n, spec = self.ORACLE_METRICS[metric]
        g = parse_metric(spec, n)
        checked = 0
        for cell, face, x in self.oracle_faces(n):
            dom = PolyDomain(n, cell.a, cell.b, region)
            want = _oracles.mean_curvature(g, dom, face, x)
            assert abs(mean_curvature(g, dom, face, x) - want) <= 1e-13
            checked += 1
        assert checked == (8 if n == 2 else 23)


class TestDihedralAngle:
    def test_cube_edges_right_angle(self):
        g = euclidean_metric(3)
        cube = unit_cube()
        # faces 0 (x=0) and 2 (y=0) meet along an edge
        for t in (0.2, 0.5, 0.8):
            ang = dihedral_angle(g, cube, 0, 2, (0.0, 0.0, t))
            assert ang == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, 2 * math.pi / 3])
    def test_wedge_opening(self, theta):
        dom = wedge2d(theta)
        ang = dihedral_angle(euclidean_metric(2), dom, 0, 1, (0.0, 0.0))
        assert ang == pytest.approx(theta, abs=1e-9)

    def test_reflex_wedge(self):
        # complement of the open quarter {x > 0, y > 0}: opening 3 pi / 2
        dom = PolyDomain.from_halfspaces(
            [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0)],
            region="complement",
            window=((-2.0, -2.0), (2.0, 2.0)),
        )
        ang = dihedral_angle(euclidean_metric(2), dom, 0, 1, (0.0, 0.0))
        assert ang == pytest.approx(1.5 * math.pi, abs=1e-9)

    def test_relabel_invariance(self):
        g = euclidean_metric(3)
        cube = unit_cube()
        a = dihedral_angle(g, cube, 0, 2, (0.0, 0.0, 0.3))
        b = dihedral_angle(g, cube, 2, 0, (0.0, 0.0, 0.3))
        assert a == pytest.approx(b, abs=1e-12)

    def test_metric_scaling_leaves_angle_fixed(self):
        g = parse_metric({"11": "5", "22": "5", "33": "5"}, 3)
        ang = dihedral_angle(g, unit_cube(), 0, 2, (0.0, 0.0, 0.4))
        assert ang == pytest.approx(math.pi / 2, abs=1e-12)

    def test_anisotropic_metric_changes_angle(self):
        # quarter-plane wedge, edge directions e1 and e2; under the metric
        # with g12 = 1/2 the interior angle is arccos(g(e1, e2)) = pi/3
        # (map through g^(1/2): the Euclidean angle of g^(1/2)e1, g^(1/2)e2)
        g = parse_metric({"11": "1", "12": "0.5", "22": "1"}, 2)
        ang = dihedral_angle(g, wedge2d(math.pi / 2), 0, 1, (0.0, 0.0))
        assert ang == pytest.approx(math.acos(0.5), abs=1e-9)

    def test_reflex_under_anisotropic_metric(self):
        # the complement of the pi/3 corner is 5 pi/3, not pi + pi/3
        g = parse_metric({"11": "1", "12": "0.5", "22": "1"}, 2)
        ang = dihedral_angle(g, wedge2d(math.pi / 2, region="complement"),
                             0, 1, (0.0, 0.0))
        assert ang == pytest.approx(5.0 * math.pi / 3.0, abs=1e-9)
        ang = dihedral_angle(g, wedge2d(1.0, region="complement"), 0, 1, (0.0, 0.0))
        inner = dihedral_angle(g, wedge2d(1.0), 0, 1, (0.0, 0.0))
        assert ang == pytest.approx(2.0 * math.pi - inner, abs=1e-12)

    @pytest.mark.parametrize("theta", [3e-6, math.pi - 3e-6, 1e-4, math.pi - 1e-4])
    @pytest.mark.parametrize("vertex", [(1e4, 1e4), (1e6, 1e6)])
    def test_far_corner_branches(self, theta, vertex):
        g = parse_metric({"11": "1", "12": "0.5", "22": "1"}, 2)
        inner = dihedral_angle(g, wedge2d(theta, vertex), 0, 1, vertex)
        outer = dihedral_angle(g, wedge2d(theta, vertex, "complement"), 0, 1, vertex)
        assert 0.0 < inner < math.pi < outer < 2.0 * math.pi
        assert inner + outer == pytest.approx(2.0 * math.pi, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(1e-3, math.pi - 1e-3),
        vertex=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        diag=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
        shear=st.floats(-1.0, 1.0),
    )
    def test_sides_of_a_corner_sum_to_two_pi(self, theta, vertex, diag, shear):
        low = np.array([[diag[0], 0.0], [shear, diag[1]]])
        g = constant_metric(low @ low.T)
        inner = dihedral_angle(g, wedge2d(theta, vertex), 0, 1, vertex)
        outer = dihedral_angle(g, wedge2d(theta, vertex, "complement"), 0, 1, vertex)
        assert 0.0 < inner < math.pi < outer < 2.0 * math.pi
        assert inner + outer == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_degenerate_corner(self):
        # two parallel faces: x >= 0 and x <= 1 never form a corner
        dom = PolyDomain.from_halfspaces(
            [((1.0, 0.0), 0.0), ((-1.0, 0.0), -1.0),
             ((0.0, 1.0), 0.0), ((0.0, -1.0), -1.0)])
        with pytest.raises((DegenerateCornerError, DomainError)):
            dihedral_angle(euclidean_metric(2), dom, 0, 1, (0.0, 0.0))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]), curved=st.booleans(),
           region=st.sampled_from(["intersection", "complement"]))
    def test_batched_core_matches_per_point_reference(self, seed, n, curved, region):
        rng = np.random.default_rng(seed)
        low = rng.normal(size=(n, n))
        gmat = low @ low.T + 0.2 * np.eye(n)
        a, b = rng.uniform(-0.5, 0.5), rng.uniform(-2.0, 2.0)
        factor = f"exp(({a!r})*sin(x1 + ({b!r})*x2))*" if curved else ""
        g = parse_metric({f"{p + 1}{q + 1}": f"{factor}({float(gmat[p, q])!r})"
                          for p in range(n) for q in range(p, n)}, n)
        normals = rng.normal(size=(2, n))
        offsets = rng.normal(size=2)
        dom = PolyDomain.from_halfspaces(list(zip(normals, offsets)), region=region,
                                         validate=False)
        rows = _oracles.normals(dom)
        vertex = np.linalg.lstsq(rows, _oracles.offsets(dom), rcond=None)[0]
        pts = vertex + rng.normal(size=(5, n - 2)) @ np.reshape(householder_null(rows), (-1, n))
        metrics = [g.matrix_at(x.tolist()) for x in pts]
        exact = [_oracles.exact_dihedral_angle(gm, *rows, region) for gm in metrics]
        if any(abs(cos) >= 1.0 - 1e-12 for cos, _ in exact):  # nearly parallel random normals
            with pytest.raises(DegenerateCornerError):
                _edge_angles(g, dom, 0, 1, pts.tolist())
            return
        got = _edge_angles(g, dom, 0, 1, pts.tolist())
        assert max(abs(theta - want) for theta, (_, want) in zip(got, exact)) <= 1e-15
        assert [dihedral_angle(g, dom, 0, 1, x) for x in pts] == got
        with pytest.raises(DomainError, match="is not on edge"):
            dihedral_angle(g, dom, 0, 1, pts[-1] + 1e-6 * rows[0])
        for sign in (1.0, -1.0):  # a face paired with its own or the opposite plane
            flat = PolyDomain.from_halfspaces(
                [(normals[0], offsets[0]), (sign * normals[0], sign * offsets[0])],
                region=region, validate=False)
            on_plane = pts - np.outer(_oracles.slacks(flat, pts)[:, 0], _oracles.normals(flat)[0])
            with pytest.raises(DegenerateCornerError):
                _edge_angles(g, flat, 0, 1, on_plane.tolist())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]),
           theta=st.one_of(st.floats(1e-5, math.pi - 1e-5),
                           st.floats(-5.0, -1.0).map(lambda t: 10.0**t),
                           st.floats(-5.0, -1.0).map(lambda t: math.pi - 10.0**t)),
           scale=st.floats(0.0, 6.0), spread=st.floats(0.0, 6.0))
    def test_matches_exact_angle(self, seed, n, theta, scale, spread):
        """Both branches within 1e-15 of the 50-digit angle of the same float
        metric and normals, down to 1e-5 from 0 and pi, at vertices up to 1e6
        and on metrics of condition number up to about 1e8, where acos of the
        cosine loses up to 1e-11 and an unrefined Cholesky factor 1e-9."""
        rng = np.random.default_rng(seed)
        # g = L L^T: L^-1 a_i and -L^-1 a_j are unit vectors at the angle theta
        # in a random plane; L = Q S T with Q orthogonal, S diagonal with
        # squares spanning 10^spread and T triangular, so cond(g) ~ 10^spread
        tri = np.tril(rng.uniform(-1.0, 1.0, (n, n)), -1) + np.diag(rng.uniform(0.5, 2.0, n))
        exps = np.r_[0.0, spread, rng.uniform(0.0, spread, n - 2)]
        low = np.linalg.qr(rng.normal(size=(n, n)))[0] * 10.0 ** (exps / 2) @ tri
        gmat = np.triu(low @ low.T) + np.triu(low @ low.T, 1).T
        g = parse_metric({f"{p + 1}{q + 1}": repr(float(gmat[p, q]))
                          for p in range(n) for q in range(p, n)}, n)
        plane = np.linalg.qr(rng.normal(size=(n, 2)))[0]
        a_i = low @ plane[:, 0]
        a_j = -low @ (math.cos(theta) * plane[:, 0] + math.sin(theta) * plane[:, 1])
        vertex = rng.uniform(-1.0, 1.0, n) * 10.0**scale
        halfspaces = [(a, float(a @ vertex)) for a in (a_i, a_j)]
        x = vertex + rng.normal(size=n - 2) @ np.reshape(householder_null([a_i, a_j]), (-1, n))
        for region in ("intersection", "complement"):
            dom = PolyDomain.from_halfspaces(halfspaces, region=region)
            _, want = _oracles.exact_dihedral_angle(gmat, *_oracles.normals(dom), region)
            assert abs(dihedral_angle(g, dom, 0, 1, x) - want) <= 1e-15

    @pytest.mark.parametrize("t, lowest", [(0.3, "-2.000e-01"), (0.5, "0.000e+00")])
    @pytest.mark.parametrize("before", [1, 12])
    def test_indefinite_metric_names_the_first_bad_point(self, t, lowest, before):
        # g11 = x3 - 1/2 is not positive on the edge below x3 = 1/2; an edge
        # stack with ``before`` good points first names the first bad one
        g = parse_metric({"11": "x3 - 0.5", "22": "1", "33": "1"}, 3)
        message = re.escape(f"metric at [0.0, 0.0, {t}] has smallest eigenvalue {lowest}") + "$"
        with pytest.raises(MetricNotPositiveDefinite, match=message):
            dihedral_angle(g, unit_cube(), 0, 2, (0.0, 0.0, t))
        heights = [*np.linspace(0.9, 0.6, before), t, 0.2]
        pts = [(0.0, 0.0, float(z)) for z in heights]
        with pytest.raises(MetricNotPositiveDefinite, match=message):
            _edge_angles(g, unit_cube(), 0, 2, pts)

    def test_point_not_on_edge(self):
        with pytest.raises(DomainError):
            dihedral_angle(euclidean_metric(3), unit_cube(), 0, 2, (0.5, 0.5, 0.5))


class TestGaussBonnet:
    def test_euclidean_square(self):
        defect = gauss_bonnet_defect(euclidean_metric(2), unit_square(), resolution=2)
        assert defect == pytest.approx(0.0, abs=1e-12)

    def test_euclidean_triangle(self):
        tri = PolyDomain.from_halfspaces([
            ((0.0, 1.0), 0.0),
            ((1.0, 0.0), 0.0),
            ((-1.0 / math.sqrt(2), -1.0 / math.sqrt(2)), -1.0 / math.sqrt(2)),
        ])
        defect = gauss_bonnet_defect(euclidean_metric(2), tri, resolution=2)
        assert defect == pytest.approx(0.0, abs=1e-12)

    def test_conformal_square(self):
        g = parse_metric({
            "11": "exp(2*0.1*sin(x1)*sin(x2))",
            "22": "exp(2*0.1*sin(x1)*sin(x2))",
        }, 2)
        defect = gauss_bonnet_defect(g, unit_square(), resolution=12)
        assert abs(defect) <= 3e-9

    def test_needs_2d(self):
        with pytest.raises(DomainError):
            gauss_bonnet_defect(euclidean_metric(3), unit_cube())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gauss_legendre_rule_matches_numpy(self, n):
        # the stdlib rule, moved to [0, 1], against leggauss on [-1, 1]
        nodes, weights = np.polynomial.legendre.leggauss(n)
        rule = _gauss_legendre(n)
        assert np.abs(np.array([2.0 * t - 1.0 for t, _ in rule]) - nodes).max() <= 1e-15
        assert np.abs(np.array([2.0 * w for _, w in rule]) / weights - 1.0).max() <= 1e-14

    @staticmethod
    def random_polygon(seed):
        """Inner half-spaces of a convex polygon of 5 to 9 sides on a seeded
        ellipse off the origin, every turn below pi."""
        rng = random.Random(seed)
        weights = [rng.uniform(1.0, 2.0) for _ in range(rng.randrange(5, 10))]
        phi = rng.uniform(0.0, 2.0 * math.pi)
        cx, cy = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        verts = []
        for w in weights:
            verts.append((cx + math.cos(phi), cy + 0.7 * math.sin(phi)))
            phi += 2.0 * math.pi * w / sum(weights)
        return [((p[1] - q[1], q[0] - p[0]), (p[1] - q[1]) * p[0] + (q[0] - p[0]) * p[1])
                for p, q in zip(verts, verts[1:] + verts[:1])]

    @pytest.mark.parametrize("resolution", [8, 12, 10**9])
    def test_defect_at_rounding_level_from_eight_nodes(self, resolution):
        # under a conformal factor of the benchmark's form: a pentagon off the
        # origin, a regular 12-gon and three seeded random polygons, whose
        # vertices are no 9-decimal numbers; and the shipped conformal square
        pentagon = [((math.cos(t), math.sin(t)), 0.2 * math.cos(t) - 0.1 * math.sin(t) - 0.9)
                    for t in (0.3, 1.4, 2.9, 4.0, 5.2)]
        twelve = [((math.cos(t), math.sin(t)), -1.0)
                  for t in (2.0 * math.pi * k / 12 for k in range(12))]
        u = "0.12*sin(0.8*x1 + 0.4)*cos(1.3*x2 + 2.1)"
        factor = parse_metric({"11": f"exp(2*{u})", "22": f"exp(2*{u})"}, 2)
        square = parse_metric({"11": "exp(2*0.1*sin(x1)*sin(x2))",
                               "22": "exp(2*0.1*sin(x1)*sin(x2))"}, 2)
        polygons = [pentagon, twelve, *map(self.random_polygon, range(3))]
        for g, dom in [(factor, PolyDomain.from_halfspaces(h)) for h in polygons] + [
                (square, unit_square())]:
            assert abs(gauss_bonnet_defect(g, dom, resolution)) <= 1e-14


def axis_rows(n, numpy_signs):
    """The rows +-e_i of length n: negated by numpy (zeros become -0.0), or
    written as literals (zeros stay 0.0)."""
    eye = np.eye(n)
    neg = [-row for row in eye] if numpy_signs else [
        np.array([-1.0 if d == i else 0.0 for d in range(n)]) for i in range(n)]
    return [row.tolist() for row in [*eye, *neg]]


class TestNullspace:
    @pytest.mark.parametrize("numpy_signs", [True, False], ids=["negated", "literal"])
    def test_axis_aligned_rows_give_the_svd_basis(self, numpy_signs):
        """``_householder``'s null-space columns are bit for bit the SVD
        basis, signs included, on the 58 sets of one row or two orthogonal
        rows +-e_i (n = 2..4), in either row order."""
        sets = set()
        for n in (2, 3, 4):
            rows = axis_rows(n, numpy_signs)
            for k in (1, 2):
                for combo in itertools.permutations(range(2 * n), k):
                    if len({t % n for t in combo}) == k:
                        sets.add((n, tuple(sorted(combo))))
                        got = np.reshape(householder_null([rows[t] for t in combo]), (-1, n)).T
                        want = _oracles.svd_nullspace([rows[t] for t in combo])
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes()
        assert len(sets) == 58

    @pytest.mark.parametrize("seed", range(3))
    def test_random_rows_span_the_null_space(self, seed):
        """Orthonormal, of the SVD's dimension and annihilated by the rows,
        each within 1e-15."""
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n, k = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            rows = rng.normal(size=(k, n))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            got = np.reshape(householder_null(rows.tolist()), (-1, n))
            assert len(got) == _oracles.svd_nullspace(rows).shape[1] == n - k
            assert np.abs(got @ got.T - np.eye(n - k)).max(initial=0.0) <= 1e-15
            assert np.abs(rows @ got.T).max(initial=0.0) <= 1e-15


class TestPolyDomain:
    def test_empty_interior_rejected(self):
        with pytest.raises(DomainError):
            PolyDomain.from_halfspaces([((1.0, 0.0), 0.0), ((-1.0, 0.0), 1.0)])

    def test_face_must_support(self):
        with pytest.raises(DomainError):
            PolyDomain.from_halfspaces([
                ((1.0, 0.0), 0.0), ((-1.0, 0.0), -1.0),
                ((0.0, 1.0), 0.0), ((0.0, -1.0), -1.0),
                ((1.0, 1.0), -5.0),  # redundant, never touches the square
            ])

    def test_vertices_of_square(self):
        v = unit_square().vertices()
        assert len(v) == 4

    def test_vertices_far_beyond_the_rounding_scale_stay_finite(self):
        # v * 1e9 overflows above about 1.8e299; such coordinates are kept
        big = 1.0000000000000002e300
        strip = PolyDomain.from_halfspaces([((1.0, 0.0), 1e300), ((-1.0, 0.0), -big),
                                            ((0.0, 1.0), 0.0), ((0.0, -1.0), -1.0)])
        assert strip.vertices() == ((1e300, 0.0), (1e300, 1.0), (big, 0.0), (big, 1.0))
        square = PolyDomain.from_halfspaces([((1.0, 0.0), -1e300), ((-1.0, 0.0), -1e300),
                                             ((0.0, 1.0), -1e300), ((0.0, -1.0), -1e300)])
        assert np.array_equal(np.abs(square.vertices()), np.full((4, 2), 1e300))

    def test_vertices_enumerated_once_per_domain(self, monkeypatch):
        seen = {"_vertices": [], "_lattice": []}
        for name, calls in seen.items():
            prop = PolyDomain.__dict__[name]
            monkeypatch.setattr(prop, "func", lambda dom, build=prop.func, calls=calls: (
                calls.append(dom) or build(dom)))
        sq = unit_square()
        g = parse_metric({"11": "exp(0.2*sin(x1)*sin(x2))",
                          "22": "exp(0.2*sin(x1)*sin(x2))"}, 2)
        # Gauss-Bonnet reads sides, corners and centroid from one lattice
        gauss_bonnet_defect(g, sq, resolution=2)
        gauss_bonnet_defect(g, sq, resolution=2)
        assert seen["_lattice"] == [sq]
        assert sq.vertices() is sq.vertices()
        assert type(sq.vertices()) is tuple and type(sq.vertices()[0]) is tuple
        assert seen["_vertices"] == [sq]

    def test_contains(self):
        # no face tight: the point test on floats is membership
        sq = unit_square()
        assert sq._on_faces_at((), (0.5, 0.5))
        assert not sq._on_faces_at((), (1.5, 0.5))

    def test_normalization(self):
        dom = PolyDomain.from_halfspaces([((2.0, 0.0), 0.0), ((-2.0, 0.0), -4.0),
                                          ((0.0, 2.0), 0.0), ((0.0, -2.0), -4.0)])
        assert np.allclose(np.linalg.norm(_oracles.normals(dom), axis=1), 1.0)
        assert dom._on_faces_at((), (1.0, 1.0))
        assert not dom._on_faces_at((), (2.5, 1.0))

    @staticmethod
    def on_faces(dom, faces, x):
        """The array reference: on every face in ``faces`` and on the inner
        side of the others, each up to its ``_slack`` tolerance, at the rows
        of ``x``."""
        s, tol = _oracles.slacks(dom, x), _oracles.slack_tolerances(dom, x)
        tight = np.zeros(dom.face_count, dtype=bool)
        tight[faces] = True
        return np.all(np.where(tight, np.abs(s) <= tol, s >= -tol), axis=-1)

    @pytest.mark.parametrize("faces", [[-1], [0], [0, -1], [-2, -1], [3]])
    def test_point_tests_on_floats_agree_with_arrays(self, faces):
        # negative face indices count from the end on both paths
        dom = PolyDomain.from_halfspaces([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0),
                                          ((-1.0, 0.0), -1.0), ((0.0, -1.0), -1.0)])
        grid = [(x, y) for x in (0.0, 0.5, 1.0, 1.5) for y in (0.0, 0.5, 1.0)]
        batched = self.on_faces(dom, faces, np.array(grid)).tolist()
        single = dom.on_face if len(faces) == 1 else dom.on_edge
        assert [single(*faces, x) for x in grid] == batched
        assert any(batched)

    def test_point_tests_agree_at_the_tolerance(self):
        # one rule, _slack's: an edge point moved off face 0 by d times its
        # tolerance 1e-9 max(1, |a_0| |x| + |b_0|) is on the face and on the
        # edge iff |d| <= 1, from 1e-2 to 1e7 from the origin (where the
        # tolerance is 1e-2), on floats and on arrays alike
        rng = np.random.default_rng(5)
        offsets = [*rng.normal(size=2), -1e9, -1e9, -1e9]  # planes 3-5 hold every point
        dom = PolyDomain.from_halfspaces(list(zip(rng.normal(size=(5, 3)), offsets)),
                                         validate=False)
        edge = _oracles.normals(dom)[:2]
        gram = edge @ edge.T
        away = np.linalg.solve(gram, [1.0, 0.0]) @ edge  # slack 0 up by 1, slack 1 fixed
        pts = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-2, 7, size=(200, 1))
        pts -= np.linalg.solve(gram, _oracles.slacks(dom, pts)[:, :2].T).T @ edge
        assert np.abs(pts).max() > 1e7
        for x, tol in zip(pts, _oracles.slack_tolerances(dom, pts)[:, 0]):
            for d in (0.0, 0.999, -0.999, 1.001, -1.001):
                y = x + d * tol * away
                want = abs(d) < 1.0
                assert self.on_faces(dom, [0], y) == self.on_faces(dom, [0, 1], y) == want
                assert dom.on_face(0, y.tolist()) == dom.on_edge(0, 1, y.tolist()) == want

    @pytest.mark.parametrize("n", range(1, 8))
    def test_normals_bit_equal_to_numpy_row_norms(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(50, n)) * 10.0 ** rng.uniform(-3, 3, size=(50, n))
        offsets = rng.normal(size=50)
        dom = PolyDomain.from_halfspaces(list(zip(rows.tolist(), offsets.tolist())),
                                         validate=False)
        norms = np.linalg.norm(rows, axis=1)
        assert np.array(dom.a).tobytes() == (rows / norms[:, None]).tobytes()
        assert np.array(dom.b).tobytes() == (offsets / norms).tobytes()

    def test_scene_roundtrip(self):
        dom = PolyDomain.from_scene({
            "dim": 2,
            "halfspaces": [
                {"a": [1.0, 0.0], "b": 0.0}, {"a": [-1.0, 0.0], "b": -1.0},
                {"a": [0.0, 1.0], "b": 0.0}, {"a": [0.0, -1.0], "b": -1.0},
            ],
        })
        assert dom.face_count == 4
