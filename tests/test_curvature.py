import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import symbolic_curvature, sphere_chart_metric_sympy
from dihedral_lab.curvature import (
    DegenerateCornerError,
    DomainError,
    PolyDomain,
    curvature_operator,
    curvature_tensors,
    dihedral_angle,
    face_geometry,
    gauss_bonnet_defect,
    hypersurface_geometry,
    orthonormal_frame,
    _curvature,
)
from dihedral_lab.expressions import (
    MetricNotPositiveDefinite,
    euclidean_metric,
    parse_metric,
)


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
        g = parse_metric({"11": "1+x2^2", "12": "x1*x2/2", "22": "2+sin(x1)^2"}, 2)
        pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(9, 2))
        batch = _curvature(g, pts)
        for p, x in enumerate(pts):
            pack = curvature_tensors(g, x)
            single = (pack.metric, pack.metric_inv, pack.gamma, pack.riemann,
                      pack.ricci, pack.scalar)
            for got, want in zip(batch, single):
                assert np.allclose(got[p], want, rtol=1e-13, atol=1e-13)

    def test_not_positive_definite_names_the_point(self):
        g = parse_metric({"11": "x1", "22": "1"}, 2)
        with pytest.raises(MetricNotPositiveDefinite, match=r"\[-0\.5, 0\.0\]"):
            _curvature(g, np.array([[0.5, 0.0], [-0.5, 0.0], [-1.0, 0.0]]))


class TestCurvatureOperator:
    def test_flat_zero(self):
        op = curvature_operator(euclidean_metric(3), (0.4, 0.2, 0.0))
        assert np.abs(op).max() <= 1e-13

    def test_sphere2_value(self):
        op = curvature_operator(sphere_metric(2), (0.3, -0.2))
        assert op.shape == (1, 1)
        assert op[0, 0] == pytest.approx(1.0, abs=1e-13)

    def test_symmetric_and_psd_on_sphere(self):
        op = curvature_operator(sphere_metric(3), (0.2, -0.1, 0.3))
        assert np.abs(op - op.T).max() <= 1e-10
        assert np.linalg.eigvalsh(op)[0] >= -1e-6

    def test_entries_against_symbolic_oracle(self):
        # an off-diagonal metric, so every wedge-pair block is exercised
        xs = sp.symbols("x1 x2 x3", real=True)
        gs = sp.Matrix([[1 + xs[1] ** 2, xs[2] / 4, 0],
                        [xs[2] / 4, 2 + xs[0] ** 2, xs[1] / 5],
                        [0, xs[1] / 5, 1]])
        point = (0.4, 0.7, -0.3)
        _, riem_o, _, _ = symbolic_curvature(gs, list(xs), point)
        g = parse_metric({"11": "1+x2^2", "12": "x3/4", "22": "2+x1^2",
                          "23": "x2/5", "33": "1"}, 3)
        frame = orthonormal_frame(curvature_tensors(g, point).metric)
        rf = np.einsum("ijkl,ia,jb,kc,ld->abcd", riem_o, frame, frame, frame, frame)
        pairs = [(0, 1), (0, 2), (1, 2)]
        expected = np.array([[-rf[a, b, c, d] for c, d in pairs] for a, b in pairs])
        assert np.allclose(curvature_operator(g, point), expected, rtol=0, atol=1e-13)

    def test_scaling_oracle(self):
        c2 = 4.0
        scaled = parse_metric(
            {f"{i}{i}": f"{c2}*4/(1+x1^2+x2^2+x3^2)^2" for i in (1, 2, 3)}, 3
        )
        op1 = curvature_operator(sphere_metric(3), (0.1, 0.0, 0.2))
        op2 = curvature_operator(scaled, (0.1, 0.0, 0.2))
        assert np.allclose(op2, op1 / c2, rtol=0, atol=1e-13)

    def test_frame_is_orthonormal(self):
        g = parse_metric({"11": "2", "12": "0.4", "22": "1"}, 2)
        gm = g.matrix_at((0.0, 0.0))
        frame = orthonormal_frame(gm)
        assert np.allclose(frame.T @ gm @ frame, np.eye(2), atol=1e-12)


class TestFaceGeometry:
    def test_flat_face(self):
        fg = face_geometry(euclidean_metric(3), unit_cube(), 0, (0.0, 0.5, 0.5))
        assert np.abs(fg.second_fundamental).max() <= 1e-13
        assert fg.mean_curvature == pytest.approx(0.0, abs=1e-13)

    def test_point_not_on_face(self):
        with pytest.raises(DomainError):
            face_geometry(euclidean_metric(3), unit_cube(), 0, (0.5, 0.5, 0.5))

    def test_unit_circle_mean_curvature(self):
        # curved-boundary mode: the Euclidean unit circle has H = 1 w.r.t.
        # the inner normal (positive, ball-boundary sign convention)
        fg = hypersurface_geometry(
            euclidean_metric(2), ["cos(x1)", "sin(x1)"], (0.7,),
            inward_reference=(0.0, 0.0),
        )
        assert fg.mean_curvature == pytest.approx(1.0, abs=1e-13)

    def test_unit_sphere_mean_curvature(self):
        fg = hypersurface_geometry(
            euclidean_metric(3),
            ["sin(x1)*cos(x2)", "sin(x1)*sin(x2)", "cos(x1)"],
            (1.1, 0.4),
            inward_reference=(0.0, 0.0, 0.0),
        )
        assert fg.mean_curvature == pytest.approx(2.0, abs=1e-13)

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
        fg = face_geometry(g, dom, 0, x)
        assert fg.mean_curvature == pytest.approx(-(n - 1) * c, abs=1e-13)

    def test_scaling_law_mean_curvature(self):
        # c^2 g divides H by c; exercised through the circle mode
        c2, c = 9.0, 3.0
        g = parse_metric({"11": str(c2), "22": str(c2)}, 2)
        fg = hypersurface_geometry(g, ["cos(x1)", "sin(x1)"], (0.7,), (0.0, 0.0))
        assert fg.mean_curvature == pytest.approx(1.0 / c, abs=1e-13)


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

    def test_contains(self):
        sq = unit_square()
        assert sq.contains((0.5, 0.5))
        assert not sq.contains((1.5, 0.5))

    def test_normalization(self):
        dom = PolyDomain.from_halfspaces([((2.0, 0.0), 0.0), ((-2.0, 0.0), -4.0),
                                          ((0.0, 2.0), 0.0), ((0.0, -2.0), -4.0)])
        assert np.allclose(np.linalg.norm(dom.normals, axis=1), 1.0)
        assert dom.contains((1.0, 1.0))
        assert not dom.contains((2.5, 1.0))

    def test_scene_roundtrip(self):
        dom = PolyDomain.from_scene({
            "dim": 2,
            "halfspaces": [
                {"a": [1.0, 0.0], "b": 0.0}, {"a": [-1.0, 0.0], "b": -1.0},
                {"a": [0.0, 1.0], "b": 0.0}, {"a": [0.0, -1.0], "b": -1.0},
            ],
        })
        assert dom.face_count == 4
